//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded around the benchmark's calls into each layer
//! (never inside the program), kept in memory, and written out once the
//! run ends. A span's self time is its duration minus the part of it its
//! direct children cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    t0: Instant,
    list: Mutex<Vec<SpanRec>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, t0: Instant::now(), list: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (0 when tracing is off).
    pub fn begin(&self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        let mut l = self.list.lock().unwrap();
        let id = l.len();
        l.push(SpanRec { id, name, parent, start_ns, end_ns: start_ns });
        id
    }

    pub fn end(&self, id: usize) {
        if self.enabled {
            let now = self.now_ns();
            self.list.lock().unwrap()[id].end_ns = now;
        }
    }

    /// Record a finished span whose times were taken elsewhere (on this
    /// recorder's clock).
    pub fn record(&self, name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let mut l = self.list.lock().unwrap();
            let id = l.len();
            l.push(SpanRec { id, name, parent, start_ns, end_ns });
        }
    }

    /// Time `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per span name, seconds, summed over every span of that
    /// name: each span's duration minus the part of it that the union of
    /// its children's intervals covers (children may overlap, as pipelined
    /// requests do).
    pub fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let l = self.list.lock().unwrap();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); l.len()];
        for s in l.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in l.iter() {
            let kids = &mut children[s.id];
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.list.lock().unwrap().len()
    }

    /// Write every span as one JSON array of
    /// `{"id","name","parent","start_ns","end_ns"}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let l = self.list.lock().unwrap();
        let mut s = String::from("[\n");
        for (i, r) in l.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                r.id,
                r.name,
                parent,
                r.start_ns,
                r.end_ns,
                if i + 1 < l.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let sp = Spans::new(true);
        sp.record("fit", None, 0, 1_000_000_000);
        sp.record("init", Some(0), 100_000_000, 300_000_000);
        let st = sp.self_time_s();
        assert!((st["fit"] - 0.8).abs() < 1e-12);
        assert!((st["init"] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        let sp = Spans::new(true);
        sp.record("rung", None, 0, 100);
        sp.record("query", Some(0), 10, 50);
        sp.record("query", Some(0), 30, 60);
        assert_eq!(sp.self_time_s()["rung"], 50e-9);
    }
}
