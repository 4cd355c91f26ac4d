//! Metric names, units and the printed result.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`; a run prints the
//! first list untraced and the second traced. A per-layer metric whose
//! layer does not run on a workload (I/O on an in-memory fit, training
//! layers under serve) reads 0.

use std::collections::BTreeMap;

pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

pub const PER_LAYER: [(&str, &str); 42] = [
    ("matrix.read_s", "s"),
    ("init.s", "s"),
    ("driver.iter0_s", "s"),
    ("driver.steady_iter_ms", "ms"),
    ("driver.outside_iter_s", "s"),
    ("driver.iters", "count"),
    ("phase.compute_s", "s"),
    ("phase.barrier_wait_s", "s"),
    ("phase.io_wait_s", "s"),
    ("phase.merge_s", "s"),
    ("phase.publish_s", "s"),
    ("trace.fit_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.dropped_spans", "count"),
    ("kernel.dist_evals", "count"),
    ("kernel.ns_per_dist", "ns"),
    ("kernel.flops_computed", "flop"),
    ("kernel.bytes_computed", "B"),
    ("prune.dist_frac", "ratio"),
    ("prune.c1_row_frac", "ratio"),
    ("prune.c2_checks", "count"),
    ("prune.group_s", "s"),
    ("prune.bound_bytes", "B"),
    ("sched.steal_frac", "ratio"),
    ("sem.rc_hit_frac", "ratio"),
    ("sem.bytes_requested", "B"),
    ("sem.io_skip_rows", "count"),
    ("safs.bytes_read", "B"),
    ("safs.bytes_read_spread", "ratio"),
    ("safs.read_amp", "ratio"),
    ("safs.page_hit_frac", "ratio"),
    ("serve.dispatch_us", "us"),
    ("serve.kernel_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.frontend_us", "us"),
    ("serve.coalesced_rows_mean", "rows"),
    ("serve.busy_frac", "ratio"),
    ("serve.probe_rows", "rows"),
    ("baseline.serial_fit_s", "s"),
    ("gen.lag_ms_p99", "ms"),
    ("process.cpu_s", "s"),
];

/// Kernel work computed from sizes, not measured: 3 flops (subtract,
/// multiply, add) per dimension per distance, and both operands read once
/// per distance. Returns `(flops, bytes)`.
pub fn kernel_sizes(dist_evals: f64, d: usize) -> (f64, f64) {
    (dist_evals * 3.0 * d as f64, dist_evals * 2.0 * d as f64 * 8.0)
}

/// Everything one run found.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines (timings with their sample counts and tails,
    /// per-rung load results) printed before the result line.
    pub lines: Vec<String>,
    /// Run facts: seed, worker budget, resolved kernel, input size
    /// against the caches.
    pub facts: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that disagreed with the serial reference.
    pub mismatches: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// Print the facts, every metric with its unit, and the result line
    /// (the last line of standard output).
    pub fn print(&self, traced: bool) {
        for (k, v) in &self.facts {
            println!("fact {k} = {v}");
        }
        for l in &self.lines {
            println!("{l}");
        }
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut json = Vec::new();
        for &(name, unit) in list {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("metric {name} = {v} {unit}");
            json.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_frac = {failed_frac} ({} of {} operations failed, {} reference mismatches)",
            self.failed, self.attempted, self.mismatches
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}
