//! Process and host facts read from the kernel's own interfaces.

use std::fs;

/// Worker budget: the CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0).unwrap_or(0.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else { return 0.0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLOCK_TICKS
}

/// `USER_HZ`; fixed at 100 on every Linux ABI the benchmark runs on.
const CLOCK_TICKS: f64 = 100.0;

/// Size of the largest CPU cache the kernel reports for CPU 0, bytes.
pub fn llc_bytes() -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best = None;
    for e in fs::read_dir(dir).ok()?.flatten() {
        let Ok(s) = fs::read_to_string(e.path().join("size")) else { continue };
        let s = s.trim();
        let (num, mult) = match s.strip_suffix('K') {
            Some(v) => (v, 1u64 << 10),
            None => match s.strip_suffix('M') {
                Some(v) => (v, 1 << 20),
                None => (s, 1),
            },
        };
        if let Ok(v) = num.parse::<u64>() {
            best = best.max(Some(v * mult));
        }
    }
    best
}
