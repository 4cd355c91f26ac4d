//! Distance-pruning state: MTI (the paper's scheme) and Yinyang group
//! bounds.
//!
//! MTI keeps per point only an upper bound `u(x) >= d(x, assigned(x))`
//! (`O(n)` memory) and per iteration an `O(k²)` centroid–centroid distance
//! matrix with per-centroid `s(c) = ½·min_{c'≠c} d(c, c')`. After each
//! centroid update the bounds are *loosened* by the assigned centroid's
//! drift `f(c) = d(c^t, c^{t-1})` — the triangle inequality guarantees the
//! loosened bound still dominates the true distance. The three clauses are
//! applied by the engines (in-memory and SEM) through [`MtiIterState`].
//!
//! Yinyang (Ding et al., ICML'15) trades `O(n·t)` memory for stronger
//! bounds: centroids are clustered once into `t = max(1, k/10)` groups
//! ([`YinyangState::group`]), every point keeps a per-*group* lower bound
//! next to the global upper bound, and each iteration loosens the group
//! bounds by the group's maximum drift. The global filter skips the whole
//! row (and, on the SEM plane, the row's I/O); the group filter skips
//! whole groups of candidates. Both schemes are exact — trajectories match
//! the unpruned path bit for bit.

use crate::centroids::Centroids;
use crate::distance::{centroid_distances, dist, sqdist, MIRROR_MAX_K};
use crate::kernel::sqdist_candidates;

/// Which pruning scheme an engine applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pruning {
    /// No pruning: every point computes all `k` distances each iteration
    /// (the `-` suffix modules: knori-, knors-, knord-).
    None,
    /// Minimal triangle inequality (the paper's contribution).
    #[default]
    Mti,
    /// Yinyang group bounds: `t = max(1, k/10)` per-row lower bounds plus
    /// the global upper bound (`O(n·t)` memory, `O(k + t)` shared state).
    Yinyang,
}

impl Pruning {
    /// True when any pruning scheme is enabled.
    pub fn enabled(&self) -> bool {
        !matches!(self, Pruning::None)
    }

    /// Parse a CLI spelling (`none | mti | yinyang`).
    pub fn parse(s: &str) -> Option<Pruning> {
        match s {
            "none" => Some(Pruning::None),
            "mti" => Some(Pruning::Mti),
            "yinyang" => Some(Pruning::Yinyang),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Pruning::None => "none",
            Pruning::Mti => "mti",
            Pruning::Yinyang => "yinyang",
        }
    }
}

/// Number of Yinyang centroid groups for `k` clusters (`max(1, k/10)`,
/// the ratio from the Yinyang paper).
pub fn yinyang_groups(k: usize) -> usize {
    (k / 10).max(1)
}

/// Shared Yinyang state: the one-time centroid grouping plus the
/// per-iteration drift vectors, rebuilt by the coordinator after every
/// centroid update and read-only during the compute super-phase.
#[derive(Debug, Clone)]
pub struct YinyangState {
    /// Group id of each centroid (`len k`).
    pub group_of: Vec<u32>,
    /// CSR offsets into [`Self::group_members`] (`len t + 1`).
    group_start: Vec<u32>,
    /// Centroid ids sorted by group, ascending within each group.
    group_members: Vec<u32>,
    /// Drift `f(c) = d(c^t, c^{t-1})` per centroid (`len k`).
    pub drift: Vec<f64>,
    /// Max drift over each group's members (`len t`) — the per-group
    /// loosening amount, and the only Yinyang quantity knord puts on the
    /// wire beyond the shared accumulator payload.
    pub group_drift: Vec<f64>,
}

impl YinyangState {
    /// Zero-size placeholder for runs where Yinyang is off.
    pub fn empty() -> Self {
        Self {
            group_of: Vec::new(),
            group_start: vec![0],
            group_members: Vec::new(),
            drift: Vec::new(),
            group_drift: Vec::new(),
        }
    }

    /// Cluster the initial centroids into `t = max(1, k/10)` groups (five
    /// serial Lloyd iterations on the centers themselves, as the Yinyang
    /// paper prescribes). Deterministic in `init`, so every knord rank
    /// derives the identical grouping with zero wire traffic.
    pub fn group(init: &Centroids) -> Self {
        let k = init.k();
        let t = yinyang_groups(k);
        let group_of: Vec<u32> = if t == 1 {
            vec![0; k]
        } else {
            let r = crate::serial::lloyd_serial(
                &init.to_matrix(),
                t,
                &crate::init::InitMethod::Forgy,
                1,
                5,
                0.0,
            );
            r.assignments
        };
        let mut group_start = vec![0u32; t + 1];
        for &g in &group_of {
            group_start[g as usize + 1] += 1;
        }
        for g in 0..t {
            group_start[g + 1] += group_start[g];
        }
        let mut cursor = group_start.clone();
        let mut group_members = vec![0u32; k];
        for (c, &g) in group_of.iter().enumerate() {
            group_members[cursor[g as usize] as usize] = c as u32;
            cursor[g as usize] += 1;
        }
        Self {
            group_of,
            group_start,
            group_members,
            drift: vec![0.0; k],
            group_drift: vec![0.0; t],
        }
    }

    /// Number of groups `t` (0 for [`Self::empty`]).
    pub fn t(&self) -> usize {
        self.group_drift.len()
    }

    /// Centroid ids of group `g`, ascending.
    #[inline]
    pub fn members(&self, g: usize) -> &[u32] {
        &self.group_members[self.group_start[g] as usize..self.group_start[g + 1] as usize]
    }

    /// Fold the per-centroid drifts into per-group maxima. The coordinator
    /// calls this after the drift pass; knord then max-allreduces the
    /// result (bitwise a no-op — every rank computed identical values).
    pub fn update_group_drift(&mut self) {
        self.group_drift.fill(0.0);
        for (c, &g) in self.group_of.iter().enumerate() {
            let g = g as usize;
            if self.drift[c] > self.group_drift[g] {
                self.group_drift[g] = self.drift[c];
            }
        }
    }

    /// Heap bytes of the shared state (`O(k + t)` — the per-row bounds are
    /// accounted separately as `n·(t+1)·8`).
    pub fn heap_bytes(&self) -> u64 {
        ((self.group_of.len() + self.group_start.len() + self.group_members.len()) * 4
            + (self.drift.len() + self.group_drift.len()) * 8) as u64
    }
}

/// Per-iteration global MTI state, rebuilt by the coordinator after every
/// centroid update and read-only during the compute super-phase.
#[derive(Debug, Clone)]
pub struct MtiIterState {
    /// Full `k x k` centroid–centroid distances (symmetric).
    pub ccdist: Vec<f64>,
    /// `s(c) = ½·min_{c'≠c} d(c, c')` per centroid (Clause 1 threshold).
    pub half_min: Vec<f64>,
    /// Drift `f(c) = d(c^t, c^{t-1})` per centroid.
    pub drift: Vec<f64>,
    k: usize,
}

impl MtiIterState {
    /// Zeroed state for `k` centroids.
    pub fn new(k: usize) -> Self {
        Self { ccdist: vec![0.0; k * k], half_min: vec![0.0; k], drift: vec![0.0; k], k }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Recompute the distance matrix and thresholds for `next`, and the
    /// drifts from `prev` to `next`. (The driver writes drifts inline from
    /// its fused drift/convergence loop and calls [`Self::rebuild`] — or
    /// fills the triangle in parallel and calls [`Self::finalize_half_min`]
    /// — instead; this convenience wrapper serves tests and baselines.)
    pub fn update(&mut self, prev: &Centroids, next: &Centroids) {
        debug_assert_eq!(prev.k(), self.k);
        for c in 0..self.k {
            self.drift[c] = dist(prev.mean(c), next.mean(c));
        }
        self.rebuild(next);
    }

    /// Recompute the centroid–centroid distance matrix and thresholds for
    /// `cents`, serially.
    pub fn rebuild(&mut self, cents: &Centroids) {
        centroid_distances(&cents.means, self.k, cents.d, &mut self.ccdist, &mut self.half_min);
    }

    /// Derive `half_min` from an already-filled `ccdist` upper triangle.
    /// The driver calls this after its workers filled disjoint row slices
    /// of the triangle in parallel (large-`k` runs).
    pub fn finalize_half_min(&mut self) {
        let k = self.k;
        for x in self.half_min.iter_mut() {
            *x = f64::INFINITY;
        }
        for i in 0..k {
            for j in (i + 1)..k {
                let dij = self.ccdist[i * k + j];
                if dij < self.half_min[i] {
                    self.half_min[i] = dij;
                }
                if dij < self.half_min[j] {
                    self.half_min[j] = dij;
                }
            }
        }
        for x in self.half_min.iter_mut() {
            *x *= 0.5;
            if !x.is_finite() {
                *x = 0.0;
            }
        }
    }

    /// `½·d(a, c)` — the Clause 2/3 threshold for candidate `c` against
    /// current assignment `a`. Looks up `ccdist[min*k + max]` so it works
    /// whether or not the matrix was mirrored (it is not for
    /// `k > `[`crate::distance::MIRROR_MAX_K`]).
    #[inline]
    pub fn half_cc(&self, a: usize, c: usize) -> f64 {
        let (lo, hi) = if a < c { (a, c) } else { (c, a) };
        0.5 * self.ccdist[lo * self.k + hi]
    }

    /// Set bit `c % 64` of `mask[c / 64]` for every `c ≠ a` with
    /// `½·d(a, c) < t`, clear every other bit, and return how many are set.
    /// Reads the entries [`Self::half_cc`] reads: row `a` in one contiguous
    /// pass, except that an unmirrored table (`k > MIRROR_MAX_K`) holds the
    /// `c < a` entries in column `a`.
    pub(crate) fn mark_below(&self, a: usize, t: f64, mask: &mut [u64]) -> usize {
        let k = self.k;
        debug_assert_eq!(mask.len(), k.div_ceil(64));
        mask.fill(0);
        let split = if k <= MIRROR_MAX_K { 0 } else { a };
        for c in 0..split {
            mask[c / 64] |= u64::from(0.5 * self.ccdist[c * k + a] < t) << (c % 64);
        }
        let row = &self.ccdist[a * k + split..(a + 1) * k];
        for (c, &x) in (split..k).zip(row) {
            mask[c / 64] |= u64::from(0.5 * x < t) << (c % 64);
        }
        mask[a / 64] &= !(1 << (a % 64));
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes held (`O(k²)` of Table 1's knori/knord rows).
    pub fn heap_bytes(&self) -> u64 {
        ((self.ccdist.len() + self.half_min.len() + self.drift.len()) * 8) as u64
    }
}

/// Outcome counters for pruning effectiveness (reported per iteration).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneCounters {
    /// Rows skipped entirely by Clause 1 (no data access / no I/O).
    pub clause1_rows: u64,
    /// Candidates pruned by Clause 2: `ub ≤ ½·d(a, c)` for the row's
    /// drift-loosened upper bound `ub`.
    pub clause2_prunes: u64,
    /// Candidates that passed Clause 2 but are pruned by Clause 3: the same
    /// test against the bound tightened to the exact `d(v, a)`.
    pub clause3_prunes: u64,
    /// Exact distance computations performed (under MTI: one tighten per
    /// row that Clause 2 left a candidate for, plus every scored
    /// candidate).
    pub dist_computations: u64,
    /// Rows whose *fetch* a staged (SEM) plane skipped because the row was
    /// bound-pruned before its data was needed. A subset of
    /// [`Self::clause1_rows`] — distance-pruning and I/O-avoidance are
    /// reported separately.
    pub io_skip_rows: u64,
}

impl PruneCounters {
    /// Merge counters from another worker.
    pub fn merge(&mut self, o: &PruneCounters) {
        self.clause1_rows += o.clause1_rows;
        self.clause2_prunes += o.clause2_prunes;
        self.clause3_prunes += o.clause3_prunes;
        self.dist_computations += o.dist_computations;
        self.io_skip_rows += o.io_skip_rows;
    }

    /// Total pruned candidate computations (clauses 2+3).
    pub fn pruned_candidates(&self) -> u64 {
        self.clause2_prunes + self.clause3_prunes
    }
}

/// One worker's MTI candidate buffers, reused across rows and iterations.
/// Grow-only: sized to `k` on the first pruned row, then never reallocated.
#[derive(Debug, Default)]
pub struct MtiScratch {
    /// Clause-2 survivors as a bitset (`⌈k/64⌉` words).
    mask: Vec<u64>,
    /// Candidate centroid ids that survived both clause sweeps.
    cand: Vec<u32>,
    /// Squared distances of the scored candidates.
    scores: Vec<f64>,
}

/// Evaluate one point under MTI against the current centroids.
///
/// `a` is the current assignment, `ub` the (already drift-loosened) upper
/// bound. Returns the new `(assignment, upper_bound)`; `counters` records
/// pruning outcomes. The caller has already decided Clause 1 did not fire
/// (Clause 1 is checked *before* the row data is fetched — that is where
/// knors saves its I/O).
///
/// Two branchless sweeps select the candidates. The Clause 2 sweep marks
/// every `c ≠ a` with `½·d(a, c) < ub` in one pass over `a`'s row of the
/// centroid table (`MtiIterState::mark_below`). If none is marked, the
/// row keeps `(a, ub)` untightened. Otherwise one exact distance tightens
/// the bound to `u = d(v, a)`, and the Clause 3 sweep compacts the marked
/// ids with `½·d(a, c) < u` into a list. The list is scored in one
/// `kernel::sqdist_candidates` call, and the argmin over `a` and the scored
/// candidates follows [`crate::distance::nearest`]'s rule: smallest squared
/// distance, lowest index among equal minima. A pruned `c` has
/// `d(v, c) ≥ d(a, c) − d(v, a) ≥ d(v, a)`, so the winner is the exact
/// nearest centroid and the returned bound is exactly its distance.
#[inline]
pub fn mti_assign(
    v: &[f64],
    cents: &Centroids,
    state: &MtiIterState,
    a: usize,
    ub: f64,
    scratch: &mut MtiScratch,
    counters: &mut PruneCounters,
) -> (usize, f64) {
    let k = cents.k();
    let words = k.div_ceil(64);
    if scratch.cand.len() < k {
        scratch.mask.resize(words, 0);
        scratch.cand.resize(k, 0);
        scratch.scores.resize(k, 0.0);
    }
    let mask = &mut scratch.mask[..words];
    let n = state.mark_below(a, ub, mask);
    counters.clause2_prunes += (k - 1 - n) as u64;
    if n == 0 {
        return (a, ub);
    }
    // U(u_t): fully tighten the upper bound with one exact distance.
    let mut best_sq = sqdist(v, cents.mean(a));
    let u = best_sq.sqrt();
    // Clause 3 sweep: store every marked id, advance past the kept ones.
    let cand = &mut scratch.cand;
    let mut m = 0;
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let c = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            cand[m] = c as u32;
            m += usize::from(state.half_cc(a, c) < u);
        }
    }
    counters.clause3_prunes += (n - m) as u64;
    counters.dist_computations += 1 + m as u64;
    let scores = &mut scratch.scores[..m];
    sqdist_candidates(v, &cents.means, &cand[..m], scores);
    let mut best = a;
    for (&c, &s) in cand[..m].iter().zip(scores.iter()) {
        let c = c as usize;
        if s < best_sq || (s == best_sq && c < best) {
            best = c;
            best_sq = s;
        }
    }
    (best, best_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::nearest;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_centroids(k: usize, d: usize, rng: &mut impl Rng) -> Centroids {
        let mut c = Centroids::zeros(k, d);
        for x in c.means.iter_mut() {
            *x = rng.gen_range(-5.0..5.0);
        }
        c
    }

    #[test]
    fn mti_matches_exact_nearest() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let k = 8;
        let d = 6;
        let prev = random_centroids(k, d, &mut rng);
        let mut cents = prev.clone();
        // Perturb slightly to create non-zero drift.
        for x in cents.means.iter_mut() {
            *x += rng.gen_range(-0.1..0.1);
        }
        let mut state = MtiIterState::new(k);
        state.update(&prev, &cents);
        let mut scratch = MtiScratch::default();

        for _ in 0..500 {
            let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-6.0..6.0)).collect();
            // Simulate a prior assignment against prev with valid bound.
            let (a_prev, d_prev) = nearest(&v, &prev.means, k);
            let ub = d_prev + state.drift[a_prev]; // loosened bound
            let mut counters = PruneCounters::default();
            let (a_new, ub_new) =
                mti_assign(&v, &cents, &state, a_prev, ub, &mut scratch, &mut counters);
            let (a_exact, d_exact) = nearest(&v, &cents.means, k);
            let d_new = dist(&v, cents.mean(a_new));
            assert!(
                (d_new - d_exact).abs() < 1e-10,
                "MTI picked a non-nearest centroid: {d_new} vs {d_exact}"
            );
            assert_eq!(a_new, a_exact);
            // Upper bound invariant.
            assert!(ub_new + 1e-10 >= d_new, "bound {ub_new} below true {d_new}");
        }
    }

    #[test]
    fn clause1_threshold_is_safe() {
        // If ub <= half_min[a], a must be the exact nearest.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let k = 6;
        let d = 4;
        let cents = random_centroids(k, d, &mut rng);
        let mut state = MtiIterState::new(k);
        state.update(&cents.clone(), &cents);
        let mut checked = 0;
        for _ in 0..2000 {
            let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let (a, da) = nearest(&v, &cents.means, k);
            if da <= state.half_min[a] {
                checked += 1;
                // Verify no other centroid is nearer.
                for c in 0..k {
                    assert!(dist(&v, cents.mean(c)) + 1e-12 >= da);
                }
            }
        }
        assert!(checked > 0, "test never exercised clause 1");
    }

    #[test]
    fn counters_account_for_all_candidates() {
        // Every one of the k − 1 candidates is pruned by clause 2, pruned
        // by clause 3 or scored; a row clause 2 left a candidate for also
        // pays exactly one tighten distance.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let k = 10;
        let d = 4;
        let cents = random_centroids(k, d, &mut rng);
        let mut state = MtiIterState::new(k);
        state.update(&cents.clone(), &cents);
        let mut scratch = MtiScratch::default();
        let (mut untightened, mut tightened, mut clause3) = (0, 0, 0);
        for i in 0..400 {
            let a = i % k;
            // Rows near centroid `a` with bounds from tight to very loose.
            let v: Vec<f64> = cents.mean(a).iter().map(|x| x + rng.gen_range(-1.0..1.0)).collect();
            let ub = dist(&v, cents.mean(a)) * rng.gen_range(1.0..3.0);
            let mut c = PruneCounters::default();
            let _ = mti_assign(&v, &cents, &state, a, ub, &mut scratch, &mut c);
            let tighten = u64::from(c.clause2_prunes < (k - 1) as u64);
            assert_eq!(
                c.clause2_prunes + c.clause3_prunes + c.dist_computations - tighten,
                (k - 1) as u64,
                "counters {c:?}"
            );
            if tighten == 0 {
                assert_eq!(c.dist_computations, 0, "counters {c:?}");
                untightened += 1;
            } else {
                tightened += 1;
            }
            clause3 += c.clause3_prunes;
        }
        assert!(untightened > 0 && tightened > 0, "{untightened} / {tightened}");
        assert!(clause3 > 0, "the tightened bound never pruned a candidate");
    }

    #[test]
    fn mti_exact_beyond_mirror_cutoff() {
        // k > MIRROR_MAX_K stores only the upper triangle; the ordered
        // half_cc lookup must keep every clause exact.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let k = crate::distance::MIRROR_MAX_K + 8;
        let d = 4;
        let prev = random_centroids(k, d, &mut rng);
        let mut cents = prev.clone();
        for x in cents.means.iter_mut() {
            *x += rng.gen_range(-0.05..0.05);
        }
        let mut state = MtiIterState::new(k);
        state.update(&prev, &cents);
        let mut scratch = MtiScratch::default();
        for _ in 0..200 {
            let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-6.0..6.0)).collect();
            let (a_prev, d_prev) = nearest(&v, &prev.means, k);
            let ub = d_prev + state.drift[a_prev];
            let mut counters = PruneCounters::default();
            let (a_new, _) =
                mti_assign(&v, &cents, &state, a_prev, ub, &mut scratch, &mut counters);
            let (a_exact, _) = nearest(&v, &cents.means, k);
            assert_eq!(a_new, a_exact);
        }
    }

    #[test]
    fn finalize_half_min_matches_serial_rebuild() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for k in [1usize, 2, 9, crate::distance::MIRROR_MAX_K + 3] {
            let cents = random_centroids(k, 5, &mut rng);
            let mut serial = MtiIterState::new(k);
            serial.rebuild(&cents);
            // Simulate the parallel path: fill only the upper triangle,
            // then finalize.
            let mut par = MtiIterState::new(k);
            for i in 0..k {
                for j in (i + 1)..k {
                    par.ccdist[i * k + j] = dist(cents.mean(i), cents.mean(j));
                }
            }
            par.finalize_half_min();
            assert_eq!(par.half_min, serial.half_min, "k = {k}");
        }
    }

    #[test]
    fn pruning_parse_name_roundtrip() {
        for p in [Pruning::None, Pruning::Mti, Pruning::Yinyang] {
            assert_eq!(Pruning::parse(p.name()), Some(p));
        }
        assert_eq!(Pruning::parse("banana"), None);
        assert!(!Pruning::None.enabled());
        assert!(Pruning::Mti.enabled());
        assert!(Pruning::Yinyang.enabled());
    }

    #[test]
    fn yinyang_grouping_is_a_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for k in [1usize, 7, 10, 25, 64] {
            let cents = random_centroids(k, 4, &mut rng);
            let yy = YinyangState::group(&cents);
            assert_eq!(yy.t(), (k / 10).max(1));
            assert_eq!(yy.group_of.len(), k);
            // CSR members cover every centroid exactly once, ascending
            // within each group, and agree with group_of.
            let mut seen = vec![false; k];
            for g in 0..yy.t() {
                let m = yy.members(g);
                assert!(m.windows(2).all(|w| w[0] < w[1]), "k={k} g={g}");
                for &c in m {
                    assert_eq!(yy.group_of[c as usize] as usize, g);
                    assert!(!seen[c as usize]);
                    seen[c as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "k={k}: member lists must cover all centroids");
        }
    }

    #[test]
    fn group_drift_is_member_max() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cents = random_centroids(23, 3, &mut rng);
        let mut yy = YinyangState::group(&cents);
        for (c, d) in yy.drift.iter_mut().enumerate() {
            *d = c as f64 * 0.5;
        }
        yy.update_group_drift();
        for g in 0..yy.t() {
            let want = yy.members(g).iter().map(|&c| yy.drift[c as usize]).fold(0.0, f64::max);
            assert_eq!(yy.group_drift[g], want);
        }
    }

    #[test]
    fn update_computes_drift() {
        let prev = Centroids { means: vec![0.0, 0.0, 3.0, 0.0], counts: vec![1, 1], d: 2 };
        let next = Centroids { means: vec![0.0, 4.0, 3.0, 0.0], counts: vec![1, 1], d: 2 };
        let mut s = MtiIterState::new(2);
        s.update(&prev, &next);
        assert!((s.drift[0] - 4.0).abs() < 1e-12);
        assert_eq!(s.drift[1], 0.0);
        // ccdist between (0,4) and (3,0) is 5.
        assert!((s.half_cc(0, 1) - 2.5).abs() < 1e-12);
        assert_eq!(s.half_min, vec![2.5, 2.5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The candidate pass is exact against `nearest` on random data:
        /// `d % 4 ≠ 0`, k = 1, k = 2 and k = 65 (above `MIRROR_MAX_K`, so
        /// only the upper triangle of the table is filled), with duplicated
        /// centroids for exact ties. A duplicate of `a` is never pruned
        /// (`½·d(a, c) = 0 < ub`), so ties reach the argmin.
        #[test]
        fn mti_assign_and_nearest_are_exact(
            ki in 0usize..3,
            d in 1usize..11,
            seed in 0u64..u64::MAX,
        ) {
            let k = [1usize, 2, crate::distance::MIRROR_MAX_K + 1][ki];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let prev = random_centroids(k, d, &mut rng);
            let mut cents = prev.clone();
            for x in cents.means.iter_mut() {
                *x += rng.gen_range(-0.1..0.1);
            }
            // Duplicate pairs (a higher copy of a lower index).
            for c in [k - 1, k / 2, k / 3] {
                let src = rng.gen_range(0..=c);
                let row = cents.mean(src).to_vec();
                cents.means[c * d..(c + 1) * d].copy_from_slice(&row);
            }
            let mut state = MtiIterState::new(k);
            state.update(&prev, &cents);
            let mut scratch = MtiScratch::default();
            let mut sq = vec![0.0; k];
            for _ in 0..40 {
                let near = cents.mean(rng.gen_range(0..k)).to_vec();
                let v: Vec<f64> = near.iter().map(|x| x + rng.gen_range(-0.5..0.5)).collect();

                // nearest: the lowest index among equal minimal squares.
                let all: Vec<u32> = (0..k as u32).collect();
                sqdist_candidates(&v, &cents.means, &all, &mut sq);
                for (c, s) in sq.iter().enumerate() {
                    prop_assert_eq!(s.to_bits(), sqdist(&v, cents.mean(c)).to_bits());
                }
                let min = sq.iter().copied().fold(f64::INFINITY, f64::min);
                let first = sq.iter().position(|&s| s == min).unwrap();
                let (a_exact, d_exact) = nearest(&v, &cents.means, k);
                prop_assert_eq!(a_exact, first);
                prop_assert_eq!(d_exact.to_bits(), min.sqrt().to_bits());

                // A gathered list with repeats and every length mod 4.
                let list: Vec<u32> =
                    (0..rng.gen_range(0..2 * k + 4)).map(|_| rng.gen_range(0..k as u32)).collect();
                let mut got = vec![f64::NAN; list.len()];
                sqdist_candidates(&v, &cents.means, &list, &mut got);
                for (&c, g) in list.iter().zip(&got) {
                    prop_assert_eq!(g.to_bits(), sq[c as usize].to_bits());
                }

                // Any current assignment with a valid bound: tight, a
                // little loose, or so loose that nothing is pruned.
                let a = if rng.gen_bool(0.5) { nearest(&v, &prev.means, k).0 } else { rng.gen_range(0..k) };
                let slack = [0.0, rng.gen_range(0.0..0.5), 100.0][rng.gen_range(0..3usize)];
                let ub = dist(&v, cents.mean(a)) + slack;
                let mut counters = PruneCounters::default();
                let (a_new, ub_new) =
                    mti_assign(&v, &cents, &state, a, ub, &mut scratch, &mut counters);
                prop_assert_eq!(a_new, a_exact);
                prop_assert!(ub_new >= d_exact, "bound {} below {}", ub_new, d_exact);
                let tighten = u64::from(counters.clause2_prunes < (k - 1) as u64);
                prop_assert_eq!(
                    counters.clause2_prunes + counters.clause3_prunes + counters.dist_computations
                        - tighten,
                    (k - 1) as u64
                );
                if counters.dist_computations > 0 {
                    prop_assert_eq!(ub_new.to_bits(), d_exact.to_bits());
                } else {
                    prop_assert_eq!(ub_new.to_bits(), ub.to_bits());
                }
            }
        }
    }
}
