//! The data-plane abstraction: how a worker turns a scheduler [`Task`]
//! into row data.
//!
//! All three knor engines run the *same* iteration protocol
//! ([`crate::driver`]) and the *same* per-row/blocked commit arithmetic;
//! what actually differs between knori and knors is only where a row's
//! bytes live and how they reach the worker:
//!
//! * **direct planes** — rows are addressable memory (NUMA arenas, a
//!   rank's matrix slice). The worker loop is [`driver::drain_queue_kernel`]
//!   over a borrow-per-row fetch.
//! * **staged planes** — rows live behind an I/O stack (the SAFS-lite
//!   row-cache/page-cache/device pipeline). The worker loop is
//!   [`drain_queue_staged`] below: the depth-2 filter/prefetch pipeline
//!   with whole-task staging that used to be inlined in `knor_sem`'s
//!   engine, now shared so any engine can mount a SEM plane (knord mounts
//!   one per rank).
//!
//! Both loops stage and commit rows in **task row order** with the shared
//! [`driver`] helpers, so for a deterministic task→worker mapping the
//! iteration trajectory is bitwise independent of which plane the rows
//! came through — the property knord's `RankPlane` knob relies on.
//!
//! A [`DataPlane`] is the engine-facing object: the compute super-phase
//! plus the coordinator hooks that belong to row access (row-cache
//! refresh decisions, per-iteration I/O accounting). [`PlaneBackend`]
//! adapts any plane to the driver's [`LloydBackend`] for engines with no
//! engine-specific reduce step; knord implements [`LloydBackend`] itself,
//! delegating everything but `reduce` to its per-rank plane.

use knor_matrix::RowView;
use knor_sched::Task;

use crate::centroids::LocalAccum;
use crate::driver::{
    self, filter_row, filter_row_yy, process_block_algo, process_block_kernel, process_row_full,
    process_row_mti, process_row_yy, yy_init_bounds, IterView, LloydBackend, WorkerReport,
};
use crate::kernel::{KernelScratch, ResolvedKernel, ResolvedKind};
use crate::pruning::{MtiScratch, Pruning};
use crate::stats::IterStats;
use crate::sync::ExclusiveCell;
use crate::trace::{Phase, WorkerTracer};

/// How an engine's workers obtain row data. One instance is shared by all
/// workers of one driver run; per-worker mutable state lives inside the
/// plane behind the same barrier discipline the driver itself uses.
pub trait DataPlane: Sync {
    /// Called once per worker thread before the first iteration
    /// (the in-memory plane binds the thread to its NUMA node here).
    fn worker_start(&self, _w: usize) {}

    /// Coordinator-only hook before barrier A of each iteration
    /// (the SEM plane decides row-cache refreshes here).
    fn pre_iteration(&self, _iter: usize) {}

    /// The compute super-phase for worker `w`: drain `view.queue`, obtain
    /// row data however this plane does, and commit through the shared
    /// driver helpers.
    fn compute(&self, w: usize, view: &IterView<'_>, accum: &mut LocalAccum) -> WorkerReport;

    /// Coordinator-only hook after the iteration's statistics are final
    /// (the SEM plane records its per-iteration I/O here). `aux_total` is
    /// the sum of the workers' [`WorkerReport::aux`] counters.
    fn end_iteration(&self, _iter: usize, _stats: &IterStats, _aux_total: u64) {}
}

/// Adapter running the driver protocol directly over a plane — the whole
/// backend for engines whose `reduce` step is the identity (knori, knors).
/// knord supplies its own [`LloydBackend`] wrapping a plane plus the
/// allreduce window.
pub struct PlaneBackend<'a, P: DataPlane + ?Sized>(pub &'a P);

impl<P: DataPlane + ?Sized> LloydBackend for PlaneBackend<'_, P> {
    fn worker_start(&self, w: usize) {
        self.0.worker_start(w);
    }

    fn pre_iteration(&self, iter: usize) {
        self.0.pre_iteration(iter);
    }

    fn compute(&self, w: usize, view: &IterView<'_>, accum: &mut LocalAccum) -> WorkerReport {
        self.0.compute(w, view, accum)
    }

    fn end_iteration(&self, iter: usize, stats: &IterStats, aux_total: u64) {
        self.0.end_iteration(iter, stats, aux_total);
    }
}

/// The direct in-memory plane over a contiguous row slice — knord's
/// per-rank view of the matrix (knori's NUMA-arena plane lives in
/// [`crate::engine`], where the arenas and access tallies are).
pub struct SlicePlane<'a> {
    rows: RowView<'a>,
    /// Per-worker kernel scratch, reused across iterations so the hot
    /// path never reallocates.
    scratch: Vec<ExclusiveCell<KernelScratch>>,
}

impl<'a> SlicePlane<'a> {
    /// Build a plane over `rows` for `nthreads` workers running the
    /// resolved kernel `rk`.
    pub fn new(rows: RowView<'a>, rk: &ResolvedKernel, nthreads: usize) -> Self {
        let d = rows.ncol();
        Self {
            rows,
            scratch: (0..nthreads).map(|_| ExclusiveCell::new(KernelScratch::new(rk, d))).collect(),
        }
    }
}

impl DataPlane for SlicePlane<'_> {
    fn compute(&self, w: usize, view: &IterView<'_>, accum: &mut LocalAccum) -> WorkerReport {
        let mut rep = WorkerReport::default();
        // Safety: own-worker slot, touched only inside this worker's
        // compute super-phase.
        let scratch = unsafe { self.scratch[w].get_mut() };
        driver::drain_queue_kernel(w, view, accum, &mut rep, scratch, |r| self.rows.row(r));
        rep
    }
}

/// One worker's reusable buffers for the staged drain. All grow-only —
/// steady-state iterations never allocate here.
#[derive(Debug, Default)]
pub struct StagedScratch {
    /// Every needed row of the current task, staged contiguously in task
    /// row order (fast-tier hits copied in place, backing-tier rows
    /// scattered into their slots after the merged fetch).
    pub data: Vec<f64>,
    /// Indices into the task's `needed` list whose rows missed the fast
    /// tier (the rows eligible for retention on a refresh iteration).
    pub miss_idx: Vec<usize>,
    /// Backing-tier fetch staging (miss rows, in fetch order).
    pub fetch: Vec<f64>,
    /// Row ids handed to the backing tier, in fetch order.
    pub miss_rows: Vec<usize>,
    /// Blocked-commit best-index scratch.
    pub best: Vec<u32>,
    /// Blocked-commit best-distance scratch.
    pub best_dist: Vec<f64>,
    /// Per-row contribution weights (generic algorithm path).
    pub weights: Vec<f64>,
    /// MTI candidate pass buffers.
    pub mti: MtiScratch,
    /// Recycled Clause-1 `needed` buffers (two alive at pipeline depth 2).
    free_needed: Vec<Vec<usize>>,
}

impl StagedScratch {
    /// Empty scratch; every buffer grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The staged row source a [`drain_queue_staged`] worker loop pulls from:
/// a fast tier (the SEM row cache) over a backing tier (the SAFS page
/// cache + device). Local row ids are the driver's; the source owns any
/// translation to global/on-disk ids.
pub trait StagedSource: Sync {
    /// Dimensionality of a row.
    fn d(&self) -> usize;

    /// Hint that `needed` will be staged soon — the depth-2 pipeline's
    /// prefetch hand-off, issued for the *next* task before the current
    /// one computes. Best-effort; may do nothing.
    fn prefetch(&self, _needed: &[usize]) {}

    /// Stage every `needed` row contiguously into `scratch.data` in task
    /// row order: fast-tier hits copy straight into their slot; misses are
    /// recorded in `scratch.miss_idx`/`miss_rows`, fetched from the
    /// backing tier in one merged request, and scattered into place.
    /// Returns the number of fast-tier hits. When `tracer` is present the
    /// source records its hit/miss/scatter intervals through it
    /// (measurement-only — see [`crate::trace`]).
    fn stage(
        &self,
        w: usize,
        needed: &[usize],
        scratch: &mut StagedScratch,
        tracer: Option<&WorkerTracer<'_>>,
    ) -> u64;

    /// Whether staged backing-tier rows should be retained in the fast
    /// tier this iteration (the row-cache refresh decision, made by the
    /// coordinator in `pre_iteration`).
    fn refreshing(&self) -> bool;

    /// Retain one staged row in the fast tier (refresh iterations only).
    fn retain(&self, _r: usize, _v: &[f64]) {}
}

/// Row-level filter for a whole task: collects the rows that must be
/// fetched into `needed` (cleared first) and drift-updates the bounds of
/// the skipped ones. Subsampling algorithms drop out-of-scope rows here —
/// before any byte is requested, so a skipped row costs no I/O, exactly
/// like a Clause-1 skip. Under Yinyang the group filter plays the same
/// role: a row whose loosened upper bound clears every group lower bound
/// needs no centroid scan, so the staged plane never fetches it. Skips
/// are tallied in `io_skip_rows` (a subset of `clause1_rows`) so the
/// fetch-avoidance is visible separately from distance pruning.
pub fn filter_task_into(
    task: &Task,
    view: &IterView<'_>,
    counters: &mut crate::pruning::PruneCounters,
    needed: &mut Vec<usize>,
) {
    needed.clear();
    if view.iter == 0 || !view.pruning {
        if view.scoped {
            needed.extend(task.rows.clone().filter(|&r| view.in_scope(r)));
        } else {
            needed.extend(task.rows.clone());
        }
        return;
    }
    let yy = view.scheme == Pruning::Yinyang;
    for r in task.rows.clone() {
        let keep = if yy {
            filter_row_yy(r, view.assign, view.upper, view.lower, view.yy, counters)
        } else {
            filter_row(r, view.assign, view.upper, view.mti, counters)
        };
        if keep {
            needed.push(r);
        } else {
            counters.io_skip_rows += 1;
        }
    }
}

/// Drain worker `w`'s share of the task queue through a staged source at
/// pipeline depth 2: the Clause-1 filter for the *next* task runs (and its
/// prefetch is submitted) before the *current* task computes, overlapping
/// I/O with computation as FlashGraph does.
///
/// Rows are staged and committed in task row order through the same
/// [`driver`] commit helpers as the direct drain, so a staged plane walks
/// the same trajectory as a direct plane over the same rows.
pub fn drain_queue_staged<S: StagedSource + ?Sized>(
    src: &S,
    w: usize,
    view: &IterView<'_>,
    accum: &mut LocalAccum,
    rep: &mut WorkerReport,
    scratch: &mut StagedScratch,
) {
    let d = src.d();
    let refreshing = src.refreshing();
    let mut pending: Option<Vec<usize>> = None;
    loop {
        let next = view.queue.next(w).map(|task| {
            let mut needed = scratch.free_needed.pop().unwrap_or_default();
            filter_task_into(&task, view, &mut rep.counters, &mut needed);
            if !needed.is_empty() {
                let t0 = view.tracer.as_ref().map(|t| t.now());
                src.prefetch(&needed);
                if let (Some(t), Some(t0)) = (view.tracer.as_ref(), t0) {
                    t.record(Phase::IoFetch, t0, (needed.len() * d * 8) as u64);
                }
            }
            needed
        });
        let current = pending.take();
        pending = next;
        let Some(needed) = current else {
            if pending.is_none() {
                break;
            }
            continue;
        };
        if !needed.is_empty() {
            rep.aux += src.stage(w, &needed, scratch, view.tracer.as_ref());
            commit_staged(&needed, view, accum, rep, scratch);
            if refreshing {
                for &i in &scratch.miss_idx {
                    src.retain(needed[i], &scratch.data[i * d..(i + 1) * d]);
                }
            }
        }
        scratch.free_needed.push(needed);
    }
}

/// Commit one staged task (rows contiguous in `scratch.data`, task row
/// order) through the shared driver paths: the generic algorithm block
/// path, the blocked assignment kernel, or the per-row MTI/full-scan state
/// machine — the same dispatch [`driver::drain_queue_kernel`] makes for
/// direct planes.
fn commit_staged(
    rows: &[usize],
    view: &IterView<'_>,
    accum: &mut LocalAccum,
    rep: &mut WorkerReport,
    scratch: &mut StagedScratch,
) {
    let d = view.cents.d;
    let block = &scratch.data[..rows.len() * d];
    if !view.is_lloyd {
        // Generic algorithm path: one contiguous block through the shared
        // map_block commit protocol (spherical batches through the dot
        // micro-kernel).
        process_block_algo(
            rows.iter().copied(),
            block,
            view,
            accum,
            rep,
            &mut scratch.best,
            &mut scratch.weights,
            &mut scratch.best_dist,
        );
        return;
    }
    let full_scan = view.iter == 0 || !view.pruning;
    if full_scan && view.kernel.kind != ResolvedKind::Scalar {
        process_block_kernel(
            rows.iter().copied(),
            block,
            view,
            accum,
            rep,
            &mut scratch.best,
            &mut scratch.best_dist,
        );
        return;
    }
    let yy = view.scheme == Pruning::Yinyang;
    for (i, &r) in rows.iter().enumerate() {
        let v = &block[i * d..(i + 1) * d];
        rep.rows_accessed += 1;
        let reassigned = if view.iter > 0 && view.pruning {
            // Bounds were already drift-loosened in the filter.
            if yy {
                process_row_yy(
                    r,
                    v,
                    view.cents,
                    view.yy,
                    view.assign,
                    view.upper,
                    view.lower,
                    accum,
                    &mut rep.counters,
                )
            } else {
                process_row_mti(
                    r,
                    v,
                    view.cents,
                    view.mti,
                    view.assign,
                    view.upper,
                    accum,
                    &mut scratch.mti,
                    &mut rep.counters,
                )
            }
        } else {
            let re = process_row_full(
                r,
                v,
                view.cents,
                view.pruning,
                view.assign,
                view.upper,
                accum,
                &mut rep.counters,
            );
            if yy && view.iter == 0 {
                let a = unsafe { *view.assign.get(r) } as usize;
                yy_init_bounds(r, v, a, view.cents, view.yy, view.lower, &mut rep.counters);
            }
            re
        };
        rep.reassigned += u64::from(reassigned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centroids::Centroids;
    use crate::driver::{run_lloyd, DriverConfig, DriverOutcome};
    use crate::kernel::KernelKind;
    use knor_numa::{Placement, Topology};
    use knor_sched::{SchedulerKind, TaskQueue};

    /// A staged source over an in-memory matrix with an always-miss fast
    /// tier: every row goes through the merged-fetch + scatter path.
    struct MemSource {
        data: Vec<f64>,
        d: usize,
    }

    impl StagedSource for MemSource {
        fn d(&self) -> usize {
            self.d
        }

        fn stage(
            &self,
            _w: usize,
            needed: &[usize],
            scratch: &mut StagedScratch,
            _tracer: Option<&WorkerTracer<'_>>,
        ) -> u64 {
            let d = self.d;
            scratch.miss_idx.clear();
            scratch.miss_rows.clear();
            if scratch.data.len() < needed.len() * d {
                scratch.data.resize(needed.len() * d, 0.0);
            }
            for (i, &r) in needed.iter().enumerate() {
                scratch.miss_idx.push(i);
                scratch.miss_rows.push(r);
                scratch.data[i * d..(i + 1) * d].copy_from_slice(&self.data[r * d..(r + 1) * d]);
            }
            0
        }

        fn refreshing(&self) -> bool {
            false
        }
    }

    struct StagedTestPlane {
        src: MemSource,
        scratch: Vec<ExclusiveCell<StagedScratch>>,
    }

    impl DataPlane for StagedTestPlane {
        fn compute(&self, w: usize, view: &IterView<'_>, accum: &mut LocalAccum) -> WorkerReport {
            let mut rep = WorkerReport::default();
            // Safety: own-worker slot, compute super-phase only.
            let scratch = unsafe { self.scratch[w].get_mut() };
            drain_queue_staged(&self.src, w, view, accum, &mut rep, scratch);
            rep
        }
    }

    fn run_planes(
        data: &[f64],
        n: usize,
        d: usize,
        k: usize,
        pruning: Pruning,
        kernel: KernelKind,
        threads: usize,
    ) -> (DriverOutcome, DriverOutcome) {
        let cfg = DriverConfig {
            k,
            d,
            n,
            nthreads: threads,
            max_iters: 40,
            tol: 0.0,
            pruning,
            task_size: 16,
            kernel,
            tiles: None,
            row_offset: 0,
            replication: false,
            trace: None,
        };
        let init =
            Centroids::from_matrix(&knor_matrix::DMatrix::from_vec(data[..k * d].to_vec(), k, d));
        let rk = cfg.resolve_kernel();
        let run = |plane: &dyn DataPlane| {
            let topo = Topology::flat(threads);
            let placement = Placement::new(&topo, n, threads);
            let queue = TaskQueue::new(SchedulerKind::Static, &placement);
            run_lloyd(&cfg, init.clone(), &placement, &queue, &PlaneBackend(plane))
        };
        let direct = SlicePlane::new(RowView::new(data, d), &rk, threads);
        let staged = StagedTestPlane {
            src: MemSource { data: data.to_vec(), d },
            scratch: (0..threads).map(|_| ExclusiveCell::new(StagedScratch::new())).collect(),
        };
        (run(&direct), run(&staged))
    }

    /// The module's core promise: a staged plane and a direct plane over
    /// the same rows walk bitwise-identical trajectories under a
    /// deterministic scheduler — for full scans and for MTI.
    #[test]
    fn staged_and_direct_planes_are_bitwise_identical() {
        let mut data = Vec::new();
        for i in 0..300 {
            let c = (i % 5) as f64 * 6.0;
            data.push(c + (i as f64 * 0.13).sin());
            data.push(-c + (i as f64 * 0.29).cos());
            data.push((i as f64 * 0.07).sin() * 2.0);
        }
        for pruning in [Pruning::None, Pruning::Mti, Pruning::Yinyang] {
            for kernel in [KernelKind::Scalar, KernelKind::Tiled] {
                for threads in [1usize, 2] {
                    let (direct, staged) = run_planes(&data, 300, 3, 12, pruning, kernel, threads);
                    assert_eq!(
                        direct.assignments, staged.assignments,
                        "pruning={pruning:?} kernel={kernel:?} threads={threads}"
                    );
                    assert_eq!(
                        direct.centroids, staged.centroids,
                        "pruning={pruning:?} kernel={kernel:?} threads={threads}"
                    );
                    assert_eq!(direct.iters.len(), staged.iters.len());
                    for (a, b) in direct.iters.iter().zip(&staged.iters) {
                        assert_eq!(a.reassigned, b.reassigned, "iter {}", a.iter);
                        assert_eq!(a.rows_accessed, b.rows_accessed, "iter {}", a.iter);
                        assert_eq!(a.prune.clause1_rows, b.prune.clause1_rows, "iter {}", a.iter);
                        assert_eq!(
                            a.prune.dist_computations, b.prune.dist_computations,
                            "iter {}",
                            a.iter
                        );
                        // Only the staged plane skips fetches; its skip
                        // tally can never exceed the shared clause-1 rows.
                        assert_eq!(a.prune.io_skip_rows, 0, "iter {}", a.iter);
                        assert!(b.prune.io_skip_rows <= b.prune.clause1_rows, "iter {}", a.iter);
                    }
                }
            }
        }
    }

    /// NUMA replication composes with the staged plane (knors's access
    /// shape): node-local reads through `drain_queue_staged` must not move
    /// the trajectory by a bit.
    #[test]
    fn staged_plane_replication_is_bitwise_identical() {
        let mut data = Vec::new();
        for i in 0..300 {
            let c = (i % 5) as f64 * 6.0;
            data.push(c + (i as f64 * 0.13).sin());
            data.push(-c + (i as f64 * 0.29).cos());
            data.push((i as f64 * 0.07).sin() * 2.0);
        }
        let (n, d, k, threads) = (300usize, 3usize, 12usize, 2usize);
        for pruning in [Pruning::None, Pruning::Mti, Pruning::Yinyang] {
            let run = |replication: bool| {
                let cfg = DriverConfig {
                    k,
                    d,
                    n,
                    nthreads: threads,
                    max_iters: 40,
                    tol: 0.0,
                    pruning,
                    task_size: 16,
                    kernel: KernelKind::Tiled,
                    tiles: None,
                    row_offset: 0,
                    replication,
                    trace: None,
                };
                let init = Centroids::from_matrix(&knor_matrix::DMatrix::from_vec(
                    data[..k * d].to_vec(),
                    k,
                    d,
                ));
                let topo = Topology::synthetic(2, 1);
                let placement = Placement::new(&topo, n, threads);
                let queue = TaskQueue::new(SchedulerKind::Static, &placement);
                let staged = StagedTestPlane {
                    src: MemSource { data: data.to_vec(), d },
                    scratch: (0..threads)
                        .map(|_| ExclusiveCell::new(StagedScratch::new()))
                        .collect(),
                };
                run_lloyd(&cfg, init, &placement, &queue, &PlaneBackend(&staged))
            };
            let off = run(false);
            let on = run(true);
            assert_eq!(off.assignments, on.assignments, "pruning={pruning:?}");
            assert_eq!(off.centroids, on.centroids, "pruning={pruning:?}");
            assert_eq!(off.iters.len(), on.iters.len());
        }
    }
}
