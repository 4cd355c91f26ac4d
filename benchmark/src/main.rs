//! The knor repo benchmark: three workloads through the public entry
//! points, end-to-end metrics from untraced runs and per-layer metrics
//! from a traced run. See `README.md` in this directory.
//!
//! ```text
//! knor-ledger-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: generated inputs go to `.bench_tmp/`
//! (removed at exit) and a traced run's spans to `.bench_out/`. The last
//! line of standard output is the JSON result; the exit code is non-zero
//! when any output disagreed with its serial reference.

mod gen;
mod report;
mod serve;
mod spans;
mod stats;
mod sys;
mod train;

use std::path::{Path, PathBuf};
use std::process::{exit, Command};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ImOverlap,
    SemBudget,
    ServeMux,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ImOverlap, Workload::SemBudget, Workload::ServeMux];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ImOverlap => "im_overlap",
            Workload::SemBudget => "sem_budget",
            Workload::ServeMux => "serve_mux",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in the generator child: write the inputs here and exit.
    gen_into: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut gen_into) =
        (None, None, 10.0, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = val()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--gen-into" => gen_into = Some(PathBuf::from(val()?)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        gen_into,
    })
}

/// The serve load settings are fixed in `BENCHMARK.json` (in
/// `serve_mux`'s description); refuse to run if the code disagrees.
fn check_benchmark_json() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let want = serve::ladder_text();
    if text.contains(&want) {
        Ok(())
    } else {
        Err(format!("BENCHMARK.json does not state the serve load `{want}`"))
    }
}

/// A scratch directory inside the checkout, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("knor-ledger-bench: {msg}");
    exit(1)
}

/// Generate the inputs in a child process, then run the workload. The
/// scratch directory is gone when this returns, on success or failure.
fn run(args: &Args, spans: &spans::Spans) -> Result<report::Report, String> {
    let name = args.workload.name();
    let tmp = TempDir(Path::new(".bench_tmp").join(format!(
        "{name}-{}-{}",
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("creating {}: {e}", tmp.0.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string(), "--gen-into"])
        .arg(&tmp.0)
        .status()
        .map_err(|e| format!("starting the input generator: {e}"))?;
    if !status.success() {
        return Err("the input generator failed".into());
    }
    match args.workload {
        Workload::ServeMux => serve::run(args, &tmp.0, spans),
        w => train::run(w, args, &tmp.0, spans),
    }
    .map_err(|e| e.to_string())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("knor-ledger-bench: {e}");
        exit(2)
    });
    if let Some(dir) = &args.gen_into {
        if let Err(e) = gen::generate(args.workload, args.seed, dir) {
            fail(format!("generating inputs: {e}"));
        }
        return;
    }
    check_benchmark_json().unwrap_or_else(|e| fail(e));

    let spans = spans::Spans::new(args.trace);
    let report = run(&args, &spans).unwrap_or_else(|e| fail(e));
    if spans.enabled() {
        let out = Path::new(".bench_out");
        let path = out.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(out).and_then(|_| spans.write_json(&path));
        match written {
            Ok(()) => println!("fact spans = {} spans written to {}", spans.len(), path.display()),
            Err(e) => fail(format!("writing spans: {e}")),
        }
    }
    report.print(args.trace);
    if report.mismatches > 0 {
        exit(1);
    }
}
