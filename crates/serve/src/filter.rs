//! The one-byte code filter in front of an exact rerank, shared by the
//! exact scan ([`ModelSnapshot::top_k`]) and the IVF rerank
//! ([`crate::ivf`]): the scalar-quantised "refine" step of IVF-SQ indexes
//! (Jégou, Douze & Schmid, TPAMI 2011).
//!
//! A **coded run** is a run of item rows coded on one grid around an
//! offset `c`: an IVF posting list around its centroid, or a block of the
//! exact scan's contiguous rows around zero.  The grid is a per-coordinate
//! `lo` and step `s = (max − min)/255` over the rows' residuals `h_j − c`;
//! each row keeps its code `q_j` (`k` bytes, stored a coordinate at a time
//! across the run) and a radius `ρ_j ≥ ‖h_j − ĥ_j‖`, `ĥ_j = c + lo + s ⊙
//! q_j`, rounded up to an `f32`.  With `proxy` the computed `⟨w, c⟩` (a
//! centroid's probe score, 0 for a block), the estimate
//!
//! ```text
//! est_j = (proxy + ⟨w, lo⟩)  +  Σ_d f32(w_d·s[d])·q_jd     (f64 + f32)
//! ```
//!
//! is within `‖w‖·ρ_j` of the computed score, because `ρ_j` also carries
//! every rounding term that scales with `‖w‖`: `(k + 4)·ε_f32·‖s ⊙ q_j‖`
//! for the `f32` products and sum (any summation order), and `(2k +
//! 16)·ε_f64·(‖h_j‖ + ‖c‖ + ‖lo‖ + ‖s ⊙ q_j‖)` for the three `f64` dots,
//! the sums and the residual; a relative `2⁻²⁰` covers the product
//! `‖w‖·ρ_j` and `‖w‖`'s rounding, an absolute `(k + 1)·f32::MIN_POSITIVE`
//! any underflow.  A row is scored only if `ub_j = est_j + ‖w‖·ρ_j`
//! (rounded up) is not strictly below the bar: the k-th score once the
//! heap is full, before that the k-th largest `lb_j = est_j − ‖w‖·ρ_j` of
//! the run's unseen rows, formed only then: while the heap is not full, in
//! a run of at least `k` rows.  A run's rows are read a tile of `TILE` at
//! a time, each tile only if a branch-free test finds one of its upper
//! bounds reaching the bar.  A NaN never skips; a row that is not finite
//! or past `FILTER_CAP` gets `ρ_j = +∞`; a query or run whose terms could
//! leave the `f32` range filters nothing.  The survivors alone are checked
//! against `seen`, then scored with the pinned `dot` into the heap under
//! `ranks_higher`: after every run the heap is the top `k` of the rows of
//! the runs so far, bit for bit.  How the compiler vectorises the code sum
//! moves how many rows are scored, never an answer.

use std::collections::BinaryHeap;

use nomad_linalg::vec_ops::{prefetch_row, Kernels};
use nomad_matrix::Idx;

use crate::snapshot::{ranks_higher, ModelSnapshot, Recommendation, Weakest};

/// Norm past which a row gets `ρ = +∞` and a user filters nothing: below
/// it no product or sum of the bound comes near overflow.
pub(crate) const FILTER_CAP: f64 = 1e90;

/// Relative slack on `ρ_j` for `‖w‖`'s rounding and the product `‖w‖·ρ_j`.
const RHO_SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// Rows whose upper bounds are tested against the bar at once.
const TILE: usize = 32;

#[cfg(test)]
thread_local! {
    /// Rows the reranks on this thread exact-scored, summed.
    pub(crate) static ROWS_SCORED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The grid a run is coded on: offset `c`, `lo` and step, and the norms.
pub(crate) struct Grid<'a> {
    pub(crate) offset: &'a [f64],
    pub(crate) offset_norm: f64,
    pub(crate) lo: &'a [f64],
    pub(crate) step: &'a [f64],
    pub(crate) lo_norm: f64,
}

impl Grid<'_> {
    /// Writes coordinate `d` of `row`'s code (the nearest grid point,
    /// clamped) to `code[d·stride]` and returns its `ρ` (module docs), `+∞`
    /// where a residual is not finite or `‖row‖` passes `FILTER_CAP`.
    pub(crate) fn encode(&self, row: &[f64], code: &mut [u8], stride: usize) -> f32 {
        let k = row.len();
        let (mut off2, mut grid2) = (0.0, 0.0);
        for d in 0..k {
            let (lo, step) = (self.lo[d], self.step[d]);
            let r = row[d] - self.offset[d];
            // `+ 0.5` and the cast's truncation (`round` is a library call
            // on baseline x86_64); a NaN residual casts to 0, `ρ` is ∞ then.
            let q = if step > 0.0 {
                ((r - lo) / step + 0.5).clamp(0.0, 255.0) as u8
            } else {
                0
            };
            code[d * stride] = q;
            let g = step * f64::from(q);
            let e = r - (lo + g);
            off2 += e * e;
            grid2 += g * g;
        }
        let h_norm = nomad_linalg::dot(row, row).sqrt();
        if !(off2.is_finite() && h_norm <= FILTER_CAP) {
            return f32::INFINITY;
        }
        let up = 1.0 + (k + 4) as f64 * f64::EPSILON;
        let off = (off2 * up + f64::MIN_POSITIVE).sqrt() * up;
        let grid = grid2.sqrt();
        let norms = h_norm + self.offset_norm + self.lo_norm + grid;
        let rounding = (2 * k + 16) as f64 * f64::EPSILON * norms
            + (k + 4) as f64 * f64::from(f32::EPSILON) * grid;
        round_up((off + rounding) * (1.0 + RHO_SLACK))
    }
}

/// Widens a run's residual range per coordinate, least in `lo` and
/// greatest in `hi` (from `±∞`), to `row`'s residual around `offset` if
/// the row is codable: every residual finite and `‖row‖ ≤ FILTER_CAP`.
pub(crate) fn widen(lo: &mut [f64], hi: &mut [f64], row: &[f64], offset: &[f64]) {
    let codable = row.iter().zip(offset).all(|(h, c)| (h - c).is_finite())
        && nomad_linalg::dot(row, row).sqrt() <= FILTER_CAP;
    if codable {
        for (((lo, hi), &h), &m) in lo.iter_mut().zip(hi).zip(row).zip(offset) {
            *lo = lo.min(h - m);
            *hi = hi.max(h - m);
        }
    }
}

/// Fits grids to the ranges [`widen`] collected: the step, written over
/// `hi`, is the range over 255; a coordinate with no codable row, or a
/// range that overflows, is all code 0.
pub(crate) fn fit(lo: &mut [f64], hi: &mut [f64]) {
    for (lo, step) in lo.iter_mut().zip(hi) {
        let fit = (*step - *lo) / 255.0;
        (*lo, *step) = if fit.is_finite() {
            (*lo, fit)
        } else {
            (0.0, 0.0)
        };
    }
}

/// A run's grid, codes (byte `d·len + i` is coordinate `d` of row `i`), `ρ`s.
pub(crate) struct CodedRun<'a> {
    pub(crate) grid: Grid<'a>,
    pub(crate) codes: &'a [u8],
    pub(crate) rho: &'a [f32],
}

/// One query's rerank: the top-`k` heap its coded runs feed, and the
/// scratch their bounds are computed in.
pub(crate) struct Rerank<'a> {
    wu: &'a [f64],
    /// `‖w‖`, rounded up past the underflow of the squares.
    pub(crate) w_norm: f64,
    k: usize,
    seen: &'a [Idx],
    /// Reverse rank order ([`Weakest`]): the peek is the weakest kept.
    heap: BinaryHeap<Weakest>,
    /// A run's `f32(w_d·s_d)`, then two bounds a row of the longest run.
    scratch: Vec<f32>,
}

impl<'a> Rerank<'a> {
    /// A rerank of `wu`'s top `k` outside `seen` (sorted, or it panics) in
    /// a catalog of `items` rows, in runs of at most `longest` rows.
    #[inline(always)]
    pub(crate) fn new<K: Kernels>(
        kernels: K,
        wu: &'a [f64],
        k: usize,
        seen: &'a [Idx],
        items: usize,
        longest: usize,
    ) -> Self {
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "seen must be sorted ascending without duplicates"
        );
        Self {
            wu,
            w_norm: (kernels.dot(wu, wu) + f64::MIN_POSITIVE).sqrt(),
            k,
            seen,
            heap: BinaryHeap::with_capacity(k.min(items) + 1),
            scratch: vec![0.0; wu.len() + 2 * longest],
        }
    }

    /// The k-th score, once the heap holds `k` candidates.
    #[inline(always)]
    pub(crate) fn kth(&self) -> Option<f64> {
        let full = self.heap.len() == self.k;
        self.heap.peek().filter(|_| full).map(|kth| kth.0.score)
    }

    /// Offers the rows of `run`, the items `items` of `snap` in order,
    /// whose offset the user scores `proxy`: exact-scores only the rows
    /// whose bound is not strictly below the bar (module docs).
    #[inline(always)]
    pub(crate) fn scan<K: Kernels>(
        &mut self,
        kernels: K,
        snap: &ModelSnapshot,
        run: &CodedRun,
        proxy: f64,
        items: impl Iterator<Item = Idx> + Clone,
    ) {
        let (k, len, full, seen) = (self.k, run.rho.len(), self.kth(), self.seen);
        if k == 0 || len == 0 {
            return;
        }
        let (wq, bounds) = self.scratch.split_at_mut(self.wu.len());
        let (ubs, lbs) = bounds.split_at_mut(bounds.len() / 2);
        let (ubs, lbs) = (&mut ubs[..len], &mut lbs[..len]);
        // Each row's `est ± ‖w‖·ρ`, rounded outwards, a NaN `lb` as `−∞`.
        let base = proxy + kernels.dot(self.wu, run.grid.lo);
        let mut mass = 0.0;
        for ((q, &w), &s) in wq.iter_mut().zip(self.wu).zip(run.grid.step) {
            *q = (w * s) as f32;
            mass += f64::from(q.abs());
        }
        // With `|base|` under a quarter of `f32::MAX` and the code sum under
        // half of it, `est` stays inside the `f32` range: an upper bound can
        // round to `+∞` and a lower one to `−∞`, never the other way.
        let bounded = self.w_norm <= FILTER_CAP
            && base.abs() <= f64::from(f32::MAX) / 4.0
            && mass * 255.0 <= f64::from(f32::MAX) / 2.0;
        // Lower bounds are formed only where they set the bar (module docs).
        let lower = bounded && full.is_none() && len >= k;
        if bounded {
            let tiny = (wq.len() + 1) as f64 * f64::from(f32::MIN_POSITIVE);
            // Element-wise loops, vectorised in the query's kernel form.
            ubs.fill(0.0);
            for (&w, column) in wq.iter().zip(run.codes.chunks_exact(len)) {
                for (sum, &q) in ubs.iter_mut().zip(column) {
                    *sum += w * f32::from(q);
                }
            }
            if lower {
                for ((lb, &sum), &r) in lbs.iter_mut().zip(&*ubs).zip(run.rho) {
                    let est = base + f64::from(sum);
                    let low = -round_up(self.w_norm * f64::from(r) + tiny - est);
                    *lb = if low.is_nan() { f32::NEG_INFINITY } else { low };
                }
            }
            for (ub, &r) in ubs.iter_mut().zip(run.rho) {
                let est = base + f64::from(*ub);
                *ub = round_up(est + (self.w_norm * f64::from(r) + tiny));
            }
        } else {
            ubs.fill(f32::INFINITY);
        }
        let mut bar = match full {
            Some(kth) => kth,
            None if lower => {
                if !seen.is_empty() {
                    for (lb, item) in lbs.iter_mut().zip(items.clone()) {
                        if seen.binary_search(&item).is_ok() {
                            *lb = f32::NEG_INFINITY;
                        }
                    }
                }
                let (_, kth, _) = lbs.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
                f64::from(*kth)
            }
            None => f64::NEG_INFINITY,
        };
        // A tile is read only if one of its rows reaches the bar, a
        // branch-free test; its survivors are a gather over `H`, all asked
        // for before the first is scored.
        for (t, tile) in ubs.chunks(TILE).enumerate() {
            if !tile.iter().fold(false, |any, &ub| any | !skips(ub, bar)) {
                continue;
            }
            let rows = items.clone().skip(t * TILE);
            for (&ub, item) in tile.iter().zip(rows.clone()) {
                if !skips(ub, bar) {
                    prefetch_row(snap.item_factor(item));
                }
            }
            for (&ub, item) in tile.iter().zip(rows) {
                if skips(ub, bar) || (!seen.is_empty() && seen.binary_search(&item).is_ok()) {
                    continue;
                }
                #[cfg(test)]
                ROWS_SCORED.with(|n| n.set(n.get() + 1));
                let score = kernels.dot(self.wu, snap.item_factor(item));
                let cand = Recommendation { item, score };
                if self.heap.len() < k {
                    self.heap.push(Weakest(cand));
                } else if ranks_higher(&cand, &self.heap.peek().expect("k > 0").0) {
                    self.heap.pop();
                    self.heap.push(Weakest(cand));
                } else {
                    continue;
                }
                if self.heap.len() == k {
                    // Both bars hold for the rest of the run; a NaN k-th
                    // leaves the other.
                    bar = bar.max(self.heap.peek().expect("k > 0").0.score);
                }
            }
        }
    }

    /// The kept candidates in rank order (ascending `Weakest`), best first.
    pub(crate) fn into_recs(self) -> Vec<Recommendation> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|w| w.0)
            .collect()
    }
}

/// Whether a row whose score is at most `ub` cannot reach the top `k`
/// once `bar` is known to be reachable: `ub < bar` strictly, so a tie is
/// scored and a NaN on either side never skips.
#[inline(always)]
fn skips(ub: f32, bar: f64) -> bool {
    f64::from(ub) < bar
}

/// An `f32` at or above `x`: `x` widened by one `f32` ulp of itself and
/// the least normal `f32`, then rounded to nearest.  `+∞` past `f32::MAX`;
/// NaN for a NaN or `−∞` `x`, which never skips.  Branch-free: a hot loop
/// rounds two bounds a row, and a data-dependent branch mispredicts.
#[inline(always)]
fn round_up(x: f64) -> f32 {
    (x + x.abs() * f64::from(f32::EPSILON) + f64::from(f32::MIN_POSITIVE)) as f32
}
