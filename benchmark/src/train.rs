//! The three training workloads: whole `fit()` calls through the public
//! engines, each checked against the serial reference.

use crate::gen::{ref_path, Reference};
use crate::report::{kernel_sizes, Report};
use crate::spans::Spans;
use crate::stats::{median, sorted, summarize};
use crate::{sys, Args, Workload};
use knor_core::pruning::YinyangState;
use knor_core::{
    InitMethod, KernelKind, Kmeans, KmeansConfig, KmeansResult, Phase, PhaseGroup, Pruning, Span,
    TraceBuf,
};
use knor_matrix::io::{read_header, read_matrix};
use knor_matrix::DMatrix;
use knor_safs::{RowStore, SafsReader};
use knor_sem::plane::{forgy_from_file, streamed_sse};
use knor_sem::{IoIterStats, SemConfig, SemKmeans, SemPlane};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Page-cache and row-cache budget of `sem_budget`: each at most 1/8 of
/// its 42 MB input.
const SEM_CACHE_BYTES: u64 = 4 << 20;
/// Set-up and standalone layer calls are repeated and their median taken.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// knori, default config (MTI).
    Im,
    /// knors, default config (MTI).
    Sem,
}

/// Problem size and engine of a training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainShape {
    pub n: usize,
    pub d: usize,
    pub k: usize,
    pub max_iters: usize,
    pub engine: Engine,
    /// Forgy inits a run rotates through, each with its own serial
    /// reference. One init's fit time can differ from another's by 15%
    /// or more, as bound pruning depends on the trajectory, so a run
    /// takes its median over several. `sem_budget` spreads widest and its
    /// references are cheapest, so it gets more.
    pub inits: usize,
}

impl TrainShape {
    pub fn of(w: Workload) -> Self {
        let (n, d, k, max_iters, engine, inits) = match w {
            Workload::ImOverlap => (200_000, 32, 64, 30, Engine::Im, 4),
            // k=16 over the file's 10 planted clusters keeps every init
            // running to the cap; at k=10 a lucky init converges in a
            // handful of iterations and fit times differ 8x between inits.
            Workload::SemBudget => (660_000, 8, 16, 30, Engine::Sem, 8),
            Workload::ServeMux => unreachable!("serve_mux trains nothing"),
        };
        Self { n, d, k, max_iters, engine, inits }
    }

    /// Forgy seed of init `j` of a run seeded `seed`.
    pub fn init_seed(&self, seed: u64, j: usize) -> u64 {
        seed.wrapping_mul(self.inits as u64).wrapping_add(j as u64)
    }
}

/// One timed fit and what the layers reported.
struct Fit {
    wall_s: f64,
    result: KmeansResult,
    io: Vec<IoIterStats>,
    /// The program's own spans, from the attached `TraceBuf`.
    spans: Vec<Span>,
    dropped_spans: u64,
}

/// The input and engine configuration, built once in set-up; each fit
/// constructs its engine from it.
enum Ready {
    Im { data: DMatrix, cfg: KmeansConfig },
    Sem { cfg: SemConfig },
}

impl Ready {
    /// One timed fit from the Forgy init of `seed`.
    fn fit(
        &self,
        path: &Path,
        seed: u64,
        trace: Option<Arc<TraceBuf>>,
    ) -> io::Result<(f64, KmeansResult, Vec<IoIterStats>)> {
        match self {
            Ready::Im { data, cfg } => {
                let cfg = cfg.clone().with_seed(seed);
                let engine = Kmeans::new(match trace {
                    Some(t) => cfg.with_trace(t),
                    None => cfg,
                });
                let t = Instant::now();
                let r = engine.fit(data);
                Ok((t.elapsed().as_secs_f64(), r, Vec::new()))
            }
            Ready::Sem { cfg } => {
                let cfg = cfg.clone().with_seed(seed);
                let page_size = cfg.page_size;
                let engine = SemKmeans::new(match trace {
                    Some(t) => cfg.with_trace(t),
                    None => cfg,
                });
                let t = Instant::now();
                let r = engine.fit(path)?;
                let wall = t.elapsed().as_secs_f64();
                if r.panicked_io_threads != 0 {
                    return Err(io::Error::other("an I/O thread panicked"));
                }
                // knors' default fit skips the SSE pass; the check streams
                // it afterwards, outside the timed call, through a reader
                // whose page cache is the workload's, so the check adds
                // nothing to peak RSS.
                let mut km = r.kmeans;
                let reader = SafsReader::new(RowStore::open(path, page_size)?, SEM_CACHE_BYTES, 4);
                let sse = streamed_sse(&reader, &km.centroids, &km.assignments)?;
                km.sse = Some(sse);
                Ok((wall, km, r.io))
            }
        }
    }
}

/// Read the input (timed on its own as `matrix.read`) and build the
/// engine configuration.
fn build(
    shape: &TrainShape,
    path: &Path,
    seed: u64,
    nthreads: usize,
    spans: &Spans,
    parent: usize,
) -> io::Result<(Ready, f64)> {
    let t = Instant::now();
    let sp = spans.begin("matrix.read", Some(parent));
    Ok(match shape.engine {
        Engine::Im => {
            let data = read_matrix(path)?;
            spans.end(sp);
            let read_s = t.elapsed().as_secs_f64();
            let cfg =
                KmeansConfig::new(shape.k).with_max_iters(shape.max_iters).with_threads(nthreads);
            (Ready::Im { data, cfg }, read_s)
        }
        Engine::Sem => {
            // knors streams the file itself, so reading the input is
            // validating its header.
            let h = read_header(path)?;
            spans.end(sp);
            let read_s = t.elapsed().as_secs_f64();
            assert_eq!((h.nrow as usize, h.ncol as usize), (shape.n, shape.d));
            let cfg = SemConfig::new(shape.k)
                .with_max_iters(shape.max_iters)
                .with_threads(nthreads)
                .with_page_cache_bytes(SEM_CACHE_BYTES)
                .with_row_cache_bytes(SEM_CACHE_BYTES);
            // fit() opens its device itself; set-up times that opening
            // (page cache, row cache, Forgy seed reads) through the same
            // public calls, so work moved into or out of it shows.
            let plane = SemPlane::open_all(path, &cfg.plane_config(), nthreads)?;
            plane.forgy_init(shape.k, seed)?;
            (Ready::Sem { cfg }, read_s)
        }
    })
}

/// Repeated, timed set-up.
struct SetUp<'a> {
    shape: TrainShape,
    path: &'a Path,
    nthreads: usize,
    spans: &'a Spans,
    parent: usize,
    setup_s: Vec<f64>,
    read_s: Vec<f64>,
    ready: Option<Ready>,
}

impl SetUp<'_> {
    /// Build the ready state for the init seeded `seed` at least
    /// `min_reps` times and until the builds have taken `budget_s`,
    /// timing each; return the last one.
    fn repeat(&mut self, seed: u64, min_reps: usize, budget_s: f64) -> io::Result<&Ready> {
        let (mut reps, mut spent) = (0, 0.0);
        while reps < min_reps || spent < budget_s {
            self.ready = None; // free the previous copy before reading the next
            let sp = self.spans.begin("setup", Some(self.parent));
            let t = Instant::now();
            let (r, rs) = build(&self.shape, self.path, seed, self.nthreads, self.spans, sp)?;
            let dt = t.elapsed().as_secs_f64();
            self.spans.end(sp);
            self.setup_s.push(dt);
            self.read_s.push(rs);
            self.ready = Some(r);
            reps += 1;
            spent += dt;
        }
        Ok(self.ready.as_ref().expect("at least one set-up"))
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

pub fn run(w: Workload, args: &Args, dir: &Path, spans: &Spans) -> io::Result<Report> {
    let shape = TrainShape::of(w);
    let path = dir.join("data.knor");
    let refs = (0..shape.inits)
        .map(|j| Reference::read(&ref_path(dir, j)))
        .collect::<io::Result<Vec<_>>>()?;
    let nthreads = sys::nproc();
    let mut rep = Report::default();
    let root = spans.begin("run", None);

    // Set-up: the input read and engine construction, outside fit().
    let mut setup = SetUp {
        shape,
        path: &path,
        nthreads,
        spans,
        parent: root,
        setup_s: Vec::new(),
        read_s: Vec::new(),
        ready: None,
    };
    let ready = setup.repeat(shape.init_seed(args.seed, 0), SETUP_REPS, 0.1)?;

    let pruning = Pruning::Mti; // both engines' default
    let resolved = KernelKind::Auto.resolve(shape.k, shape.d, pruning.enabled()).kind;
    let input_bytes = std::fs::metadata(&path)?.len();
    rep.fact("workload", w.name());
    rep.fact("seed", args.seed);
    rep.fact("nproc", nthreads);
    rep.fact(
        "shape",
        format!("n={} d={} k={} iteration cap {}", shape.n, shape.d, shape.k, shape.max_iters),
    );
    rep.fact("pruning", pruning.name());
    rep.fact("kernel", format!("auto resolves to {}", resolved.name()));
    rep.fact("input_bytes", input_bytes);
    if let Engine::Sem = shape.engine {
        let budget = 2 * SEM_CACHE_BYTES;
        rep.fact(
            "cache_budget",
            format!(
                "page cache + row cache = {budget} B; input / budget = {:.2}",
                input_bytes as f64 / budget as f64
            ),
        );
    }
    match sys::llc_bytes() {
        Some(llc) => rep
            .fact("llc", format!("{llc} B; input / llc = {:.1}", input_bytes as f64 / llc as f64)),
        None => rep.fact("llc", "not reported by the kernel"),
    }
    for (j, r) in refs.iter().enumerate() {
        rep.fact(
            "reference",
            format!(
                "init {j} (Forgy seed {}): serial fit {:.3} s, {} iterations, SSE {:e}",
                shape.init_seed(args.seed, j),
                r.serial_s,
                r.niters,
                r.sse
            ),
        );
    }

    if args.trace {
        // Standalone calls into the layers fit() uses before iterating.
        let mut init_s = Vec::new();
        let mut group_s = Vec::new();
        for _ in 0..SETUP_REPS {
            init_s.push(spans.time("init", Some(root), || match &ready {
                Ready::Im { data, .. } => secs(|| {
                    InitMethod::Forgy.initialize(data, shape.k, shape.init_seed(args.seed, 0));
                }),
                Ready::Sem { .. } => secs(|| {
                    forgy_from_file(&path, shape.k, shape.init_seed(args.seed, 0))
                        .expect("forgy reads the input");
                }),
            }));
            // No workload runs Yinyang end to end; its one-off grouping of
            // the init is timed standalone on the in-memory workload.
            if let Ready::Im { data, .. } = &ready {
                let init =
                    InitMethod::Forgy.initialize(data, shape.k, shape.init_seed(args.seed, 0));
                group_s.push(spans.time("prune.group", Some(root), || {
                    secs(|| {
                        YinyangState::group(&init);
                    })
                }));
            }
        }
        rep.set("matrix.read_s", median(&setup.read_s));
        rep.set("init.s", median(&init_s));
        if !group_s.is_empty() {
            rep.set("prune.group_s", median(&group_s));
        }
    }

    // The timed fits. A traced run alternates untraced and traced fits,
    // so the overhead ratio compares neighbours in time.
    let window = Duration::from_secs_f64(args.seconds);
    // Whole rotations only, so every init weighs the same in the median.
    let rotation = if args.trace { 2 * shape.inits } else { shape.inits };
    let cpu0 = sys::cpu_s();
    let t0 = Instant::now();
    let mut plain: Vec<f64> = Vec::new();
    let mut by_init: Vec<Vec<f64>> = vec![Vec::new(); shape.inits];
    let mut read_by_init: Vec<Vec<f64>> = vec![Vec::new(); shape.inits];
    let mut traced: Vec<Fit> = Vec::new();
    let mut i = 0;
    while i % rotation != 0 || i == 0 || t0.elapsed() < window {
        // Inits rotate; a traced run fits each init untraced, then traced.
        let (j, trace_this) =
            if args.trace { ((i / 2) % shape.inits, i % 2 == 1) } else { (i % shape.inits, false) };
        let reference = &refs[j];
        let buf = trace_this.then(|| Arc::new(TraceBuf::new()));
        let sp = spans.begin(if trace_this { "fit.traced" } else { "fit" }, Some(root));
        // Set up again before every fit, so that the set-up median covers
        // the whole run: knors' set-up takes tens of microseconds, and
        // the host shifts such short steps by a third for a second or so.
        let ready = setup.repeat(shape.init_seed(args.seed, j), 1, 0.05)?;
        let (wall_s, result, io) = ready.fit(&path, shape.init_seed(args.seed, j), buf.clone())?;
        spans.end(sp);
        rep.attempted += 1;
        if let Err(e) =
            reference.check(&result.assignments, result.niters, result.sse.unwrap_or(f64::NAN))
        {
            rep.failed += 1;
            rep.mismatches += 1;
            rep.line(format!("fit {i} FAILED the serial-reference check: {e}"));
        }
        read_by_init[j].push(io.iter().map(|s| s.bytes_read as f64).sum());
        match buf {
            Some(b) => traced.push(Fit {
                wall_s,
                result,
                io,
                spans: b.spans(),
                dropped_spans: b.dropped(),
            }),
            None => {
                plain.push(wall_s);
                by_init[j].push(wall_s * 1e3);
            }
        }
        i += 1;
    }
    let cpu = sys::cpu_s() - cpu0;
    rep.set("setup_s", median(&setup.setup_s));
    let setup_ms: Vec<f64> = setup.setup_s.iter().map(|s| s * 1e3).collect();
    rep.line(format!("setup_ms: {}", summarize(&setup_ms).render()));
    spans.end(root);

    let fit_ms: Vec<f64> = plain.iter().map(|s| s * 1e3).collect();
    rep.set("op_p50_ms", median(&fit_ms));
    rep.line(format!("fit_ms (one whole fit(), untraced): {}", summarize(&fit_ms).render()));
    let per_init: Vec<String> = by_init.iter().map(|v| format!("{:.1}", median(v))).collect();
    rep.line(format!("fit_ms median per init: {}", per_init.join(", ")));
    rep.set("peak_rss_mb", sys::peak_rss_mb());
    rep.set("process.cpu_s", cpu);
    rep.line(format!("process CPU {cpu:.3} s over {i} fits"));
    let serial: Vec<f64> = refs.iter().map(|r| r.serial_s).collect();
    rep.set("baseline.serial_fit_s", median(&serial));
    rep.line(format!(
        "serial reference fits {} s; parallel/serial speed-up {:.2}x",
        summarize(&serial).render(),
        median(&serial) / median(&plain)
    ));

    if args.trace {
        // Every layer number comes from one traced fit, the one with the
        // median wall time, so its parts add up to its `trace.fit_s`.
        let per_fit: Vec<BTreeMap<&'static str, f64>> =
            traced.iter().map(|f| layer_metrics(&shape, f)).collect();
        let mut order: Vec<usize> = (0..traced.len()).collect();
        order.sort_by(|&a, &b| traced[a].wall_s.total_cmp(&traced[b].wall_s));
        for (&name, &v) in &per_fit[order[(order.len() - 1) / 2]] {
            rep.set(name, v);
        }
        if let Engine::Sem = shape.engine {
            // Device bytes of repeated fits of one init differ slightly
            // with two workers; report the widest such spread.
            let spread = read_by_init
                .iter()
                .filter(|v| v.len() > 1)
                .map(|v| {
                    let s = sorted(v);
                    (s[s.len() - 1] - s[0]) / median(v)
                })
                .fold(0.0, f64::max);
            rep.set("safs.bytes_read_spread", spread);
            rep.line(format!("safs.bytes_read per init (every fit): {read_by_init:?}"));
        }
        let traced_s: Vec<f64> = traced.iter().map(|f| f.wall_s).collect();
        rep.set("trace.overhead_frac", median(&traced_s) / median(&plain) - 1.0);
        rep.line(format!(
            "traced fit {} s vs untraced {} s",
            summarize(&traced_s).render(),
            summarize(&plain).render()
        ));
        let self_s = spans.self_time_s();
        rep.line(format!("benchmark span self times (s): {self_s:?}"));
    }
    Ok(rep)
}

/// The per-layer numbers one traced fit yields.
fn layer_metrics(shape: &TrainShape, f: &Fit) -> BTreeMap<&'static str, f64> {
    let r = &f.result;
    let (n, k) = (shape.n as f64, shape.k as f64);
    let mut m = BTreeMap::new();
    let iter_ns: Vec<f64> = r.iters.iter().map(|s| s.wall_ns as f64).collect();
    let in_iters_s = iter_ns.iter().sum::<f64>() / 1e9;
    m.insert("trace.fit_s", f.wall_s);
    m.insert("driver.iters", r.niters as f64);
    m.insert("driver.iter0_s", iter_ns[0] / 1e9);
    if iter_ns.len() > 1 {
        m.insert("driver.steady_iter_ms", median(&iter_ns[1..]) / 1e6);
    }
    let outside = f.wall_s - in_iters_s;
    m.insert("driver.outside_iter_s", outside);

    // Phase groups as self time, mean per worker track, so they add up
    // to the iterations' wall time. Compute spans cover a worker's whole
    // drain and the staged plane's I/O spans nest inside them, so
    // compute's self time is its span minus those children; fast-tier
    // hits count as compute, as `PhaseGroup` has it.
    let ph = r.phases.as_ref().expect("traced fit carries a phase breakdown");
    let tracks = ph.tracks.len().max(1) as f64;
    let mut by_phase = [0u64; Phase::ALL.len()];
    for sp in &f.spans {
        by_phase[Phase::ALL.iter().position(|&p| p == sp.phase).unwrap()] += sp.dur_ns();
    }
    let ns = |p: Phase| by_phase[Phase::ALL.iter().position(|&q| q == p).unwrap()];
    let nested_io =
        ns(Phase::IoFetch) + ns(Phase::IoHit) + ns(Phase::IoMiss) + ns(Phase::IoScatter);
    let mut group_ns = [0u64; PhaseGroup::ALL.len()];
    for &p in Phase::ALL.iter() {
        let g = PhaseGroup::ALL.iter().position(|&g| g == p.group()).unwrap();
        group_ns[g] += if p == Phase::Compute { ns(p).saturating_sub(nested_io) } else { ns(p) };
    }
    let mut phases_s = 0.0;
    for (g, name) in PhaseGroup::ALL.iter().zip([
        "phase.compute_s",
        "phase.barrier_wait_s",
        "phase.io_wait_s",
        "phase.merge_s",
        "phase.publish_s",
    ]) {
        let s =
            group_ns[PhaseGroup::ALL.iter().position(|q| q == g).unwrap()] as f64 / tracks / 1e9;
        phases_s += s;
        m.insert(name, s);
    }
    let compute_ns = group_ns[0] as f64;
    m.insert("trace.unattributed_s", f.wall_s - outside - phases_s);
    m.insert("trace.dropped_spans", (f.dropped_spans + ph.dropped) as f64);

    let p = r.total_prune();
    let dist = p.dist_computations as f64;
    m.insert("kernel.dist_evals", dist);
    m.insert("kernel.ns_per_dist", compute_ns / dist.max(1.0));
    let (flops, bytes) = kernel_sizes(dist, shape.d);
    m.insert("kernel.flops_computed", flops);
    m.insert("kernel.bytes_computed", bytes);
    let iters = r.niters as f64;
    m.insert("prune.dist_frac", dist / (n * k * iters));
    let pruned_iters = (iters - 1.0).max(1.0);
    m.insert("prune.c1_row_frac", p.clause1_rows as f64 / (n * pruned_iters));
    // Every row clause 1 does not settle tests clause 2 against each of
    // the other k - 1 centroids.
    let c1_after0: u64 = r.iters.iter().skip(1).map(|s| s.prune.clause1_rows).sum();
    m.insert("prune.c2_checks", (n * pruned_iters - c1_after0 as f64) * (k - 1.0));
    let mem = &r.memory;
    let bound_bytes = mem.pruning_bytes + mem.per_row_bytes.saturating_sub(shape.n as u64 * 4);
    m.insert("prune.bound_bytes", bound_bytes as f64);

    let (mut own, mut total) = (0u64, 0u64);
    for s in &r.iters {
        own += s.queue.own;
        total += s.queue.total();
    }
    m.insert("sched.steal_frac", (total - own) as f64 / total.max(1) as f64);

    if !f.io.is_empty() {
        let sum = |g: fn(&IoIterStats) -> u64| f.io.iter().map(g).sum::<u64>() as f64;
        let (hits, misses) = (sum(|s| s.rc_hits), sum(|s| s.rc_misses));
        m.insert("sem.rc_hit_frac", hits / (hits + misses).max(1.0));
        let requested = sum(|s| s.bytes_requested);
        let read = sum(|s| s.bytes_read);
        m.insert("sem.bytes_requested", requested);
        m.insert("sem.io_skip_rows", p.io_skip_rows as f64);
        m.insert("safs.bytes_read", read);
        m.insert("safs.read_amp", read / requested.max(1.0));
        let (ph_, pm) = (sum(|s| s.page_hits), sum(|s| s.page_misses));
        m.insert("safs.page_hit_frac", ph_ / (ph_ + pm).max(1.0));
    } else {
        m.insert("safs.bytes_read", 0.0);
    }
    m
}
