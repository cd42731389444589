//! The approximate top-k path: a cluster-pruned IVF shortlist index.
//!
//! An [`IvfIndex`] partitions the item catalog with a seeded k-means over
//! the item factor rows and keeps one posting list per centroid.  A query
//! scores the user against every *centroid* (cheap: `n_centroids ≈
//! √items`), probes the `nprobe` nearest centroids' posting lists, and
//! exact-reranks the resulting shortlist with the same blocked
//! [`nomad_linalg::dot`] kernel and the same strict total order
//! (`snapshot::ranks_higher`) the brute-force scan uses.
//!
//! # Skipping lists that cannot reach the top-k
//!
//! Each list also keeps a radius `r_c ≥ max ‖h_j − c‖` over its rows
//! (rounded up; `+∞` if a row is non-finite) and its centroid's norm
//! `‖c‖`.  By Cauchy–Schwarz every row of list `c` scores at most
//! `⟨w, c⟩ + ‖w‖·r_c`, so once the heap holds `k` items a list whose
//! bound, plus a margin for the rounding of the computed dots (order
//! `k·ε·‖w‖·(‖c‖ + r_c)`, plus an absolute underflow term), is strictly
//! below the current k-th score is skipped unscanned (the ball bound of
//! Koenigstein, Ram & Shavitt, CIKM 2012).  A NaN or ∞ anywhere makes the
//! test false, so such a list is scanned.  The heap keeps the top `k`
//! under a strict total order, so skipping a list none of whose rows can
//! rank at or above the k-th changes nothing: answers are bit-identical
//! to scanning every probed list in full.
//!
//! # Filtering rows by their codes
//!
//! Inside a scanned list the same argument runs per row, from a
//! one-byte-per-coordinate code (the scalar-quantised "refine" step of
//! IVF-SQ indexes, Jégou, Douze & Schmid, TPAMI 2011).  Each list keeps a
//! per-coordinate offset `lo_c` and step `s_c = (max − min)/255` over its
//! rows' residuals `h_j − c`; each row keeps its code `q_j` (`k` bytes,
//! stored a coordinate at a time across the list, so the code pass below
//! is element-wise) and a radius `ρ_j ≥ ‖h_j − ĥ_j‖`, `ĥ_j = c + lo_c +
//! s_c ⊙ q_j`, rounded up to an `f32`.  Since `⟨w, h_j⟩ = ⟨w, c⟩ + ⟨w, lo_c⟩ +
//! Σ_d w_d·s_c[d]·q_jd + ⟨w, h_j − ĥ_j⟩`, the estimate
//!
//! ```text
//! est_j = (proxy + ⟨w, lo_c⟩)  +  Σ_d f32(w_d·s_c[d])·q_jd     (f64 + f32)
//! ```
//!
//! is within `‖w‖·ρ_j` of the computed score, because `ρ_j` also carries
//! every rounding term that scales with `‖w‖`: `(k + 4)·ε_f32·‖s_c ⊙ q_j‖`
//! for the `f32` products and sum (any summation order), and `(2k +
//! 16)·ε_f64·(‖h_j‖ + ‖c‖ + ‖lo_c‖ + ‖s_c ⊙ q_j‖)` for the three `f64` dots,
//! the sums and the residual itself; a relative `2⁻²⁰` on top covers the
//! product `‖w‖·ρ_j` and `‖w‖`'s own rounding, and an absolute `(k +
//! 1)·f32::MIN_POSITIVE` any underflow.  A row is scored only if `ub_j =
//! est_j + ‖w‖·ρ_j` (rounded up) is not strictly below the bar: the k-th
//! score once the heap is full, and before that the k-th largest `lb_j =
//! est_j − ‖w‖·ρ_j` over the list's unseen rows (`k` rows score at least
//! that).  A NaN never skips; a row that is not finite, or whose norm
//! passes `FILTER_CAP`, gets `ρ_j = +∞`; a query or list whose terms
//! could leave the `f32` range (`‖w‖` past the cap, `proxy + ⟨w, lo_c⟩`
//! past a quarter of `f32::MAX` or an `f32` product sum past half of
//! it) filters nothing, so every estimate stays inside the `f32` range.
//! The survivors are prefetched together, then scored with the same `dot` and heap, so after every
//! list the heap is the top `k` of all rows of the lists visited so far,
//! as before.  The codes cost `items·k` bytes plus 4 bytes a row, and
//! `2·n_centroids·k` `f64`s for the grids.  Scored work drops from
//! `items·k` `f64` products to `n_centroids·k` of them for the probe,
//! `scanned·k` one-byte products for the codes (`scanned` being the
//! rows of the probed lists not skipped), and `k` per surviving row.
//!
//! The bounds describe the rows of one snapshot.  The index records that
//! snapshot's `(epoch, updates_at)` stamp, and a query against any other
//! snapshot panics, like one whose dimensions do not match.  A served
//! index travels with its snapshot ([`ModelSnapshot::ivf`]), so one
//! `latest()` pin yields a matching pair.
//!
//! # The equivalence contract
//!
//! Every item is assigned to exactly one centroid, so with
//! `nprobe == n_centroids` the shortlist *is* the whole catalog and the
//! rerank visits the same candidates under the same total order as
//! [`ModelSnapshot::top_k`] — the answer is **bit-identical** (scores and
//! tie order), regardless of how good the clustering is.  With a smaller
//! `nprobe` the answer is a subset selection: every returned score is a
//! real `⟨w_user, h_item⟩` (never an estimate), so approximation can only
//! *miss* items, never mis-score them.  The `ivf_approx` test suite pins
//! both properties.
//!
//! # Freshness under live training
//!
//! The index is built from one published snapshot and patched forward
//! from epoch deltas by the publisher, its one maintainer, when the first
//! approximate query of an epoch asks: [`IvfIndex::refresh`] re-assigns
//! only the item rows whose update clock advanced (see
//! [`crate::SnapshotPublisher::changed_items_since`]), moving each
//! between posting lists in place.  Centroids are *not* re-fit on a
//! patch — they drift from the data until a refresh decides the churn
//! (or a dimension change) warrants a full rebuild.  Stale centroids
//! degrade only recall, never correctness: the rerank always scores
//! against the *current* snapshot's rows, and a patch raises the radius
//! of each changed row's list to cover it (radii only grow on a patch;
//! a rebuild recomputes them).  A patched row is re-encoded on its
//! list's existing grid, its code and `ρ_j` moving with its posting
//! entry; a residual off the grid clamps, and its `ρ_j` grows to match.
//!
//! # Work bound
//!
//! A query scores `n_centroids` centroids, then at most one exact rerank
//! dot per item: the postings partition the catalog, so even probing
//! every list scores each item once, the exact scan's work.  An empty
//! catalog has no centroids, and every query answers it with no items.

use std::collections::BinaryHeap;

#[cfg(target_arch = "x86_64")]
use nomad_linalg::vec_ops::Avx2;
use nomad_linalg::vec_ops::{prefetch_row, Kernels, Portable};
use nomad_linalg::SmallRng64;
use nomad_matrix::Idx;

use crate::snapshot::{ranks_higher, ModelSnapshot, Recommendation, TopK, Weakest};

/// Lloyd iterations for a (re)build.  k-means quality saturates fast on
/// factor rows, and the index only needs *locality*, not optimality.
const KMEANS_ITERS: usize = 4;

/// A [`IvfIndex::refresh`] whose changed set exceeds this fraction of
/// the catalog rebuilds from scratch instead of patching: past this
/// point, patching costs as much as rebuilding and leaves drifted
/// centroids behind.
const REBUILD_FRACTION: f64 = 0.5;

/// Norm past which a row gets `ρ = +∞` and a user filters nothing: below
/// it every product `‖w‖·‖h‖` and every sum of the bound stays far from
/// overflow, which the rounding analysis needs.
const FILTER_CAP: f64 = 1e90;

/// Relative slack on `ρ_j`: covers `‖w‖`'s rounding and the product
/// `‖w‖·ρ_j` (a few `f64` ulps), with room to spare.
const RHO_SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// Build parameters for the IVF index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of k-means centroids; `0` picks `≈ √items` automatically.
    pub n_centroids: usize,
    /// Seed for the k-means initialization (deterministic builds).
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            n_centroids: 0,
            seed: 0x1f5,
        }
    }
}

impl IvfParams {
    /// The centroid count for an `items`-row catalog: the explicit
    /// setting, or `≈ √items` (the classic IVF balance point between
    /// centroid-scan and posting-scan work), at least 1 and at most
    /// `items` (so 0 for an empty catalog).
    pub fn centroids_for(&self, items: usize) -> usize {
        let want = if self.n_centroids > 0 {
            self.n_centroids
        } else {
            (items as f64).sqrt().ceil() as usize
        };
        want.max(1).min(items)
    }
}

/// A cluster-pruned shortlist index over one snapshot's item rows (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct IvfIndex {
    /// Latent dimension of the indexed rows.
    k: usize,
    /// Catalog size the index was built for.
    items: usize,
    params: IvfParams,
    /// Centroid rows, `n_centroids × k`, row-major.
    centroids: Vec<f64>,
    /// `assign[j]` = centroid owning item `j`.
    assign: Vec<u32>,
    /// Per-centroid posting lists, each sorted ascending by item — the
    /// sort makes patches deterministic and keeps the full-probe rerank
    /// order independent of update history.
    postings: Vec<Vec<Idx>>,
    /// Per-centroid `‖c‖`.
    centroid_norms: Vec<f64>,
    /// Per-centroid radius: an upper bound on `‖h_j − c‖` over the list.
    radii: Vec<f64>,
    /// Per-centroid code offset `lo_c`, `n_centroids × k`.
    lo: Vec<f64>,
    /// Per-centroid code step `s_c`, `n_centroids × k`.
    steps: Vec<f64>,
    /// Per-centroid `‖lo_c‖`.
    lo_norms: Vec<f64>,
    /// Per-centroid codes, coordinate-major: byte `d·len + i` of list
    /// `c` is coordinate `d` of the code of `postings[c][i]`.
    codes: Vec<Vec<u8>>,
    /// Per-centroid `ρ_j` of each row in posting order (module docs).
    row_radii: Vec<Vec<f32>>,
    /// `(epoch, updates_at)` of the snapshot the bounds describe.
    stamp: (u64, u64),
}

impl IvfIndex {
    /// Builds the index from a published snapshot's item rows with a
    /// seeded k-means (deterministic for a given snapshot + params).  An
    /// empty catalog gets no centroids, so k-means has nothing to move.
    pub fn build(snap: &ModelSnapshot, params: IvfParams) -> Self {
        let items = snap.num_items();
        let k = snap.k();
        let n = params.centroids_for(items);
        let mut rng = SmallRng64::new(params.seed);
        // Seeded init: n distinct rows, chosen by a partial Fisher-Yates
        // over the item indices.
        let mut order: Vec<usize> = (0..items).collect();
        for i in 0..n {
            let j = i + rng.next_below(items - i);
            order.swap(i, j);
        }
        let mut centroids = vec![0.0; n * k];
        for (c, &j) in order[..n].iter().enumerate() {
            centroids[c * k..(c + 1) * k].copy_from_slice(snap.item_factor(j as Idx));
        }
        let mut index = Self {
            k,
            items,
            params,
            centroids,
            assign: vec![0; items],
            postings: vec![Vec::new(); n],
            centroid_norms: vec![0.0; n],
            radii: vec![0.0; n],
            lo: vec![0.0; n * k],
            steps: vec![0.0; n * k],
            lo_norms: vec![0.0; n],
            codes: vec![Vec::new(); n],
            row_radii: vec![Vec::new(); n],
            stamp: (snap.epoch(), snap.updates_at()),
        };
        for _ in 0..KMEANS_ITERS {
            index.assign_items(snap, 0..items as Idx);
            index.refit_centroids(snap);
        }
        index.assign_items(snap, 0..items as Idx);
        index.rebuild_postings(snap);
        index
    }

    /// Number of centroids (the `nprobe` ceiling).
    #[inline]
    pub fn n_centroids(&self) -> usize {
        self.postings.len()
    }

    /// `(epoch, updates_at)` of the snapshot the index describes.
    #[inline]
    pub fn stamp(&self) -> (u64, u64) {
        self.stamp
    }

    /// Catalog size the index currently covers.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.items
    }

    /// Brings the index up to date with `snap`: re-assigns exactly the
    /// `changed` item rows, moving each between posting lists in place
    /// with its code and `ρ_j`, re-encoded on its new list's grid, and
    /// raising its list's radius to cover it.  `changed` must name
    /// every row that differs from the snapshot the index describes.
    /// Falls back to a full rebuild when the dimensions changed, the
    /// churn exceeds `REBUILD_FRACTION` (half the catalog), or `snap` is
    /// older than that snapshot (a change set only runs forward).
    /// Returns `true` when it rebuilt.
    pub fn refresh(&mut self, snap: &ModelSnapshot, changed: &[Idx]) -> bool {
        if (self.items, self.k) != (snap.num_items(), snap.k())
            || changed.len() as f64 > self.items as f64 * REBUILD_FRACTION
            || snap.updates_at() < self.stamp.1
        {
            *self = Self::build(snap, self.params);
            return true;
        }
        debug_assert!(changed.iter().all(|&j| (j as usize) < self.items));
        let before: Vec<u32> = changed.iter().map(|&j| self.assign[j as usize]).collect();
        self.assign_items(snap, changed.iter().copied());
        self.stamp = (snap.epoch(), snap.updates_at());
        let mut code = vec![0; self.k];
        for (&j, old_c) in changed.iter().zip(before) {
            let (old_c, new_c) = (old_c as usize, self.assign[j as usize] as usize);
            let row = snap.item_factor(j);
            let r = radius_bound(row, self.centroid(new_c));
            self.radii[new_c] = self.radii[new_c].max(r);
            if new_c != old_c {
                if let Ok(pos) = self.postings[old_c].binary_search(&j) {
                    remove_code(&mut self.codes[old_c], self.postings[old_c].len(), pos);
                    self.postings[old_c].remove(pos);
                    self.row_radii[old_c].remove(pos);
                }
            }
            let rho = self.encode_row(new_c, row, &mut code);
            let len = self.postings[new_c].len();
            match self.postings[new_c].binary_search(&j) {
                Ok(pos) => {
                    set_code(&mut self.codes[new_c], len, pos, &code);
                    self.row_radii[new_c][pos] = rho;
                }
                Err(pos) => {
                    insert_code(&mut self.codes[new_c], len, pos, &code);
                    self.postings[new_c].insert(pos, j);
                    self.row_radii[new_c].insert(pos, rho);
                }
            }
        }
        false
    }

    /// Approximate top-k with a full exact rerank of the shortlist.
    /// With `nprobe >= n_centroids` this is bit-identical to
    /// [`ModelSnapshot::top_k`] (see the module docs).
    ///
    /// `seen` must be sorted ascending without duplicates, exactly as
    /// for the exact scan.
    ///
    /// # Panics
    /// Panics if `user` is out of bounds, `seen` is unsorted, or the
    /// index does not match the snapshot's dimensions.
    pub fn top_k(
        &self,
        snap: &ModelSnapshot,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
    ) -> TopK {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            // SAFETY: `avx2` is the proof that this CPU has the feature.
            return unsafe { self.top_k_avx2(avx2, snap, user, k, nprobe, seen) };
        }
        self.top_k_on(Portable, snap, user, k, nprobe, seen)
    }

    /// [`Self::top_k_on`] compiled with AVX2 enabled, so the wide
    /// `dot` inlines into the centroid scoring and the rerank.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn top_k_avx2(
        &self,
        avx2: Avx2,
        snap: &ModelSnapshot,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
    ) -> TopK {
        self.top_k_on(avx2, snap, user, k, nprobe, seen)
    }

    /// The probe and rerank behind [`Self::top_k`], over the kernel
    /// form `kernels`.
    #[inline(always)]
    fn top_k_on<K: Kernels>(
        &self,
        kernels: K,
        snap: &ModelSnapshot,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
    ) -> TopK {
        assert!(
            (self.items, self.k) == (snap.num_items(), snap.k()),
            "index over {}×{} queried against a {}×{} snapshot",
            self.items,
            self.k,
            snap.num_items(),
            snap.k()
        );
        assert_eq!(
            self.stamp,
            (snap.epoch(), snap.updates_at()),
            "index bounds over snapshot (epoch, updates_at) {:?} queried against another",
            self.stamp
        );
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "seen must be sorted ascending without duplicates"
        );
        let wu = snap.user_factor(user);
        let probes = self.probe_order(kernels, wu, nprobe);
        let mut heap: BinaryHeap<Weakest> = BinaryHeap::with_capacity(k.min(self.items) + 1);
        // `‖w‖`, rounded up past the underflow of the squares; the skip
        // test's relative slack, in units of `‖w‖·(‖c‖ + r_c)` (see the
        // module docs).
        let w_norm = (kernels.dot(wu, wu) + f64::MIN_POSITIVE).sqrt();
        let slack = (2 * self.k + 8) as f64 * f64::EPSILON;
        // The query's one scratch buffer: the scanned list's `f32(w_d·s_d)`,
        // then an upper and a lower bound per row of the longest list.
        let longest = probes
            .iter()
            .map(|&(_, c)| self.postings[c].len())
            .max()
            .unwrap_or(0);
        let mut scratch = vec![0.0f32; self.k + 2 * longest];
        let (wq, bounds) = scratch.split_at_mut(self.k);
        let (ubs, lbs) = bounds.split_at_mut(longest);
        for &(proxy, c) in &probes {
            if heap.len() == k {
                let Some(kth) = heap.peek() else { break };
                let (norm, r) = (self.centroid_norms[c], self.radii[c]);
                // Past `f64::MAX / 4` a dot over this list could overflow,
                // and a NaN or ∞ fails the first test: scan the list.
                let scale = w_norm * (norm + r);
                if scale < f64::MAX / 4.0
                    && proxy + w_norm * r + scale * slack + f64::MIN_POSITIVE < kth.0.score
                {
                    continue;
                }
            }
            let posting = &self.postings[c];
            let (ubs, lbs) = (&mut ubs[..posting.len()], &mut lbs[..posting.len()]);
            self.bound_rows(kernels, c, wu, w_norm, proxy, wq, ubs, lbs);
            // A row whose upper bound is strictly below `bar` cannot reach
            // the top `k` (module docs): the k-th score, or until the heap
            // is full, the k-th largest lower bound of the list's unseen
            // rows.
            let mut bar = f64::NEG_INFINITY;
            match heap.peek() {
                Some(kth) if heap.len() == k => bar = kth.0.score,
                _ if k > 0 && posting.len() >= k => {
                    if !seen.is_empty() {
                        for (lb, item) in lbs.iter_mut().zip(posting) {
                            if seen.binary_search(item).is_ok() {
                                *lb = f32::NEG_INFINITY;
                            }
                        }
                    }
                    let (_, kth, _) = lbs.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
                    bar = f64::from(*kth);
                }
                _ => {}
            }
            // A posting lists items in index order, so scoring it is a
            // gather over `H`: ask for every surviving row before the first
            // is needed.
            for (&item, &ub) in posting.iter().zip(&*ubs) {
                if !skips(ub, bar) {
                    prefetch_row(snap.item_factor(item));
                }
            }
            for (&item, &ub) in posting.iter().zip(&*ubs) {
                if skips(ub, bar) || (!seen.is_empty() && seen.binary_search(&item).is_ok()) {
                    continue;
                }
                #[cfg(test)]
                tests::ROWS_SCORED.with(|n| n.set(n.get() + 1));
                let score = kernels.dot(wu, snap.item_factor(item));
                let cand = Recommendation { item, score };
                if heap.len() < k {
                    heap.push(Weakest(cand));
                } else if k > 0 && ranks_higher(&cand, &heap.peek().expect("k > 0").0) {
                    heap.pop();
                    heap.push(Weakest(cand));
                } else {
                    continue;
                }
                if let Some(kth) = heap.peek().filter(|_| heap.len() == k) {
                    // Both bars hold for the rest of the list; a NaN k-th
                    // leaves the other.
                    bar = bar.max(kth.0.score);
                }
            }
        }
        let recs = heap.into_sorted_vec().into_iter().map(|w| w.0).collect();
        TopK {
            epoch: snap.epoch(),
            updates_at: snap.updates_at(),
            recs,
        }
    }

    /// Fills `ubs[i]` and `lbs[i]` with an upper and a lower bound on the
    /// computed score of row `i` of list `c`, from its code alone: `est_i
    /// ± ‖w‖·ρ_i`, rounded outwards to `f32` (module docs).  A lower
    /// bound that is NaN is `−∞`.  Where the analysis does not
    /// hold (`‖w‖` past `FILTER_CAP`, an `f32` sum that could overflow, a
    /// base past a quarter of `f32::MAX` or not finite), every row is
    /// `±∞`: nothing is filtered.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn bound_rows<K: Kernels>(
        &self,
        kernels: K,
        c: usize,
        wu: &[f64],
        w_norm: f64,
        proxy: f64,
        wq: &mut [f32],
        ubs: &mut [f32],
        lbs: &mut [f32],
    ) {
        let k = self.k;
        let base = proxy + kernels.dot(wu, &self.lo[c * k..(c + 1) * k]);
        let mut mass = 0.0;
        for ((q, &w), &s) in wq.iter_mut().zip(wu).zip(&self.steps[c * k..(c + 1) * k]) {
            *q = (w * s) as f32;
            mass += f64::from(q.abs());
        }
        // With `|base|` under a quarter of `f32::MAX` and the code sum under
        // half of it, `est` stays inside the `f32` range: an upper bound can
        // round to `+∞` and a lower one to `−∞`, never the other way.
        if !(k > 0
            && !ubs.is_empty()
            && w_norm <= FILTER_CAP
            && base.abs() <= f64::from(f32::MAX) / 4.0
            && mass * 255.0 <= f64::from(f32::MAX) / 2.0)
        {
            ubs.fill(f32::INFINITY);
            lbs.fill(f32::NEG_INFINITY);
            return;
        }
        let tiny = (k + 1) as f64 * f64::from(f32::MIN_POSITIVE);
        // The code sums first, one coordinate at a time across the list's
        // rows (the codes are stored that way), then the bounds: two loops
        // of element-wise arithmetic, which the compiler vectorises in the
        // query's kernel form.  Each row's sum runs in coordinate order,
        // one of the orders `ρ_j` allows for.
        ubs.fill(0.0);
        for (&w, column) in wq.iter().zip(self.codes[c].chunks_exact(ubs.len())) {
            for (sum, &q) in ubs.iter_mut().zip(column) {
                *sum += w * f32::from(q);
            }
        }
        let rho = &self.row_radii[c][..ubs.len()];
        for ((ub, lb), &r) in ubs.iter_mut().zip(lbs.iter_mut()).zip(rho) {
            let est = base + f64::from(*ub);
            let reach = w_norm * f64::from(r) + tiny;
            *ub = round_up(est + reach);
            let low = -round_up(reach - est);
            *lb = if low.is_nan() { f32::NEG_INFINITY } else { low };
        }
    }

    /// The centroids to probe for this user, best first: descending
    /// proxy score `⟨w_user, centroid⟩`, ties broken by ascending
    /// centroid index (total order via `total_cmp`).
    #[inline(always)]
    fn probe_order<K: Kernels>(&self, kernels: K, wu: &[f64], nprobe: usize) -> Vec<(f64, usize)> {
        let n = self.n_centroids();
        // A loop, not `map`: the wide `dot` can only inline into code
        // compiled with its target feature, which a closure here is not.
        let mut scored = Vec::with_capacity(n);
        for c in 0..n {
            let cent = self.centroid(c);
            scored.push((kernels.dot(wu, cent), c));
        }
        let best_first =
            |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        let m = nprobe.max(1);
        if m < n {
            scored.select_nth_unstable_by(m - 1, best_first);
            scored.truncate(m);
        }
        scored.sort_unstable_by(best_first);
        scored
    }

    /// The k-means assignment step: `assign[j] ←` the centroid nearest to
    /// item `j`'s row, for each `j` of `items`.  Postings are the caller's
    /// to bring in line.
    fn assign_items(&mut self, snap: &ModelSnapshot, items: impl Iterator<Item = Idx>) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            // SAFETY: `avx2` is the proof that this CPU has the feature.
            return unsafe { self.assign_items_avx2(avx2, snap, items) };
        }
        self.assign_items_on(Portable, snap, items)
    }

    /// [`Self::assign_items_on`] compiled with AVX2 enabled, so the wide
    /// `dot` inlines into the items × centroids loop.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn assign_items_avx2(
        &mut self,
        avx2: Avx2,
        snap: &ModelSnapshot,
        items: impl Iterator<Item = Idx>,
    ) {
        self.assign_items_on(avx2, snap, items)
    }

    /// The loop behind [`Self::assign_items`], over the kernel form
    /// `kernels`.  Nearest in L2, ties to the lowest index:
    /// `argmin ‖row − c‖²` = `argmin ‖c‖² − 2⟨row, c⟩` (the `‖row‖²` term
    /// is constant across centroids), with each `‖c‖²` computed once for
    /// the whole batch — the centroids do not move during an assignment.
    #[inline(always)]
    fn assign_items_on<K: Kernels>(
        &mut self,
        kernels: K,
        snap: &ModelSnapshot,
        items: impl Iterator<Item = Idx>,
    ) {
        let n = self.n_centroids();
        let mut norms = Vec::with_capacity(n);
        for c in 0..n {
            let cent = self.centroid(c);
            norms.push(kernels.dot(cent, cent));
        }
        for j in items {
            let row = snap.item_factor(j);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, norm) in norms.iter().enumerate() {
                let cent = self.centroid(c);
                let d = norm - 2.0 * kernels.dot(row, cent);
                if d.total_cmp(&best_d) == std::cmp::Ordering::Less {
                    best_d = d;
                    best = c;
                }
            }
            self.assign[j as usize] = best as u32;
        }
    }

    /// Lloyd update: each centroid moves to the mean of its assigned
    /// rows; an empty centroid keeps its position (it may capture rows
    /// in a later iteration).
    fn refit_centroids(&mut self, snap: &ModelSnapshot) {
        let n = self.n_centroids();
        let mut sums = vec![0.0; n * self.k];
        let mut counts = vec![0usize; n];
        for j in 0..self.items {
            let c = self.assign[j] as usize;
            counts[c] += 1;
            let row = snap.item_factor(j as Idx);
            for (s, &v) in sums[c * self.k..(c + 1) * self.k].iter_mut().zip(row) {
                *s += v;
            }
        }
        for c in 0..n {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in self.centroids[c * self.k..(c + 1) * self.k]
                    .iter_mut()
                    .zip(&sums[c * self.k..(c + 1) * self.k])
                {
                    *dst = s * inv;
                }
            }
        }
    }

    /// Rebuilds the posting lists from `assign` (ascending item order by
    /// construction — the scan visits items in order), and with them each
    /// list's radius, centroid norm, code grid and row codes over `snap`'s
    /// rows.  Two passes over `H` in item order, which the hardware
    /// prefetches: one for the postings, radii and residual ranges, one
    /// for the codes.
    fn rebuild_postings(&mut self, snap: &ModelSnapshot) {
        let k = self.k;
        for p in &mut self.postings {
            p.clear();
        }
        self.radii.fill(0.0);
        // Each list's least and (in `steps`, until the steps are fitted)
        // greatest residual per coordinate, over the rows `codable` keeps.
        self.lo.fill(f64::INFINITY);
        self.steps.fill(f64::NEG_INFINITY);
        for j in 0..self.items {
            let c = self.assign[j] as usize;
            self.postings[c].push(j as Idx);
            let span = c * k..(c + 1) * k;
            let (row, cent) = (snap.item_factor(j as Idx), &self.centroids[span.clone()]);
            self.radii[c] = self.radii[c].max(radius_bound(row, cent));
            if codable(row, cent) {
                for (((lo, hi), &h), &m) in self.lo[span.clone()]
                    .iter_mut()
                    .zip(&mut self.steps[span])
                    .zip(row)
                    .zip(cent)
                {
                    *lo = lo.min(h - m);
                    *hi = hi.max(h - m);
                }
            }
        }
        // Fit the grids: the step is the range over 255, and a coordinate
        // with no codable row, or a range that overflows, is all code 0.
        for (lo, step) in self.lo.iter_mut().zip(&mut self.steps) {
            let fit = (*step - *lo) / 255.0;
            (*lo, *step) = if fit.is_finite() {
                (*lo, fit)
            } else {
                (0.0, 0.0)
            };
        }
        for c in 0..self.n_centroids() {
            let (cent, lo) = (self.centroid(c), &self.lo[c * k..(c + 1) * k]);
            self.centroid_norms[c] = nomad_linalg::dot(cent, cent).sqrt();
            self.lo_norms[c] = nomad_linalg::dot(lo, lo).sqrt();
        }
        let mut codes: Vec<Vec<u8>> = self.postings.iter().map(|p| vec![0; p.len() * k]).collect();
        let mut row_radii: Vec<Vec<f32>> = self
            .postings
            .iter()
            .map(|p| Vec::with_capacity(p.len()))
            .collect();
        let mut code = vec![0; k];
        for j in 0..self.items {
            let c = self.assign[j] as usize;
            let i = row_radii[c].len();
            let rho = self.encode_row(c, snap.item_factor(j as Idx), &mut code);
            set_code(&mut codes[c], self.postings[c].len(), i, &code);
            row_radii[c].push(rho);
        }
        self.codes = codes;
        self.row_radii = row_radii;
        self.stamp = (snap.epoch(), snap.updates_at());
    }

    /// Writes `row`'s code on list `c`'s grid (the nearest grid point,
    /// clamped to it) into `code`, and returns its `ρ`: `‖row − ĥ‖` and
    /// the rounding allowances of the module docs, rounded up, or `+∞`
    /// where a residual is not finite or `‖row‖` passes `FILTER_CAP`.
    fn encode_row(&self, c: usize, row: &[f64], code: &mut [u8]) -> f32 {
        let k = self.k;
        let (cent, lo, step) = (
            self.centroid(c),
            &self.lo[c * k..(c + 1) * k],
            &self.steps[c * k..(c + 1) * k],
        );
        let (mut off2, mut grid2) = (0.0, 0.0);
        for d in 0..k {
            let r = row[d] - cent[d];
            // Nearest grid point, clamped: `+ 0.5` then the cast's
            // truncation (no `round`, a library call on baseline x86_64).
            // A NaN residual casts to code 0, and `ρ` is ∞ then.
            code[d] = if step[d] > 0.0 {
                ((r - lo[d]) / step[d] + 0.5).clamp(0.0, 255.0) as u8
            } else {
                0
            };
            let g = step[d] * f64::from(code[d]);
            let e = r - (lo[d] + g);
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
        let norms = h_norm + self.centroid_norms[c] + self.lo_norms[c] + grid;
        let rounding = (2 * k + 16) as f64 * f64::EPSILON * norms
            + (k + 4) as f64 * f64::from(f32::EPSILON) * grid;
        round_up((off + rounding) * (1.0 + RHO_SLACK))
    }

    /// Centroid `c`'s row.
    fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c * self.k..(c + 1) * self.k]
    }
}

/// Whether a row whose score is at most `ub` cannot reach the top `k`
/// once `bar` is known to be reachable: `ub < bar` strictly, so a tie is
/// scored and a NaN on either side never skips.
#[inline(always)]
fn skips(ub: f32, bar: f64) -> bool {
    f64::from(ub) < bar
}

/// Whether `row` has a say in the grid around `cent`: every residual
/// finite and `‖row‖ ≤ FILTER_CAP`.  Other rows get `ρ = +∞`.
fn codable(row: &[f64], cent: &[f64]) -> bool {
    row.iter().zip(cent).all(|(h, c)| (h - c).is_finite())
        && nomad_linalg::dot(row, row).sqrt() <= FILTER_CAP
}

/// An `f32` at or above `x`: `x` widened by one `f32` ulp of itself and
/// the least normal `f32`, then rounded to nearest, which moves it by at
/// most half that.  `+∞` past `f32::MAX`; NaN for a NaN or `−∞` `x`, which
/// as an upper bound never skips.  Branch-free: a hot loop rounds two
/// bounds a row, and a data-dependent branch there mispredicts half the
/// time.
#[inline(always)]
fn round_up(x: f64) -> f32 {
    (x + x.abs() * f64::from(f32::EPSILON) + f64::from(f32::MIN_POSITIVE)) as f32
}

/// Writes `code` as row `pos` of a list's codes, stored coordinate-major
/// (see [`IvfIndex`]'s `codes`) for `len` rows.
fn set_code(codes: &mut [u8], len: usize, pos: usize, code: &[u8]) {
    for (column, &q) in codes.chunks_exact_mut(len).zip(code) {
        column[pos] = q;
    }
}

/// Inserts `code` as row `pos` of a list's codes, which held `len` rows.
fn insert_code(codes: &mut Vec<u8>, len: usize, pos: usize, code: &[u8]) {
    let old = std::mem::replace(codes, Vec::with_capacity((len + 1) * code.len()));
    for (d, &q) in code.iter().enumerate() {
        let column = &old[d * len..(d + 1) * len];
        codes.extend_from_slice(&column[..pos]);
        codes.push(q);
        codes.extend_from_slice(&column[pos..]);
    }
}

/// Removes row `pos` of a list's codes, which held `len` rows.
fn remove_code(codes: &mut Vec<u8>, len: usize, pos: usize) {
    let mut at = 0;
    codes.retain(|_| {
        at += 1;
        (at - 1) % len != pos
    });
}

/// An upper bound on `‖row − c‖`: the computed distance rounded up past
/// its own rounding and the underflow of its squares, or `+∞` if it is
/// not finite.
fn radius_bound(row: &[f64], c: &[f64]) -> f64 {
    let d2: f64 = row.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
    if !d2.is_finite() {
        return f64::INFINITY;
    }
    let up = 1.0 + (row.len() + 4) as f64 * f64::EPSILON;
    (d2 * up + f64::MIN_POSITIVE).sqrt() * up
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_sgd::{FactorMatrix, FactorModel};
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Rows the reranks on this thread scored, summed.
        pub(super) static ROWS_SCORED: Cell<usize> = const { Cell::new(0) };
    }

    fn snap(users: usize, items: usize, k: usize, seed: u64) -> ModelSnapshot {
        ModelSnapshot::from_model(&FactorModel::init(users, items, k, seed), 1, 100)
    }

    /// Users and items scattered around `clusters` shared Gaussian centres:
    /// the catalogs on which whole lists fall below a user's top-k.
    fn clustered(users: usize, items: usize, k: usize, clusters: usize, seed: u64) -> FactorModel {
        let mut rng = SmallRng64::new(seed);
        let centres: Vec<f64> = (0..clusters * k)
            .map(|_| 2.0 * rng.next_gaussian())
            .collect();
        let mut place = |rows: usize, spread: f64| {
            let mut m = FactorMatrix::zeros(rows, k);
            for r in 0..rows {
                let c = rng.next_below(clusters);
                for (d, v) in m.row_mut(r).iter_mut().enumerate() {
                    *v = centres[c * k + d] + spread * rng.next_gaussian();
                }
            }
            m
        };
        FactorModel {
            w: place(users, 0.3),
            h: place(items, 0.2),
        }
    }

    /// The reference for a pruned query: the top `k` of every list the
    /// index probes for `user`, each scanned in full, as `(item, score
    /// bits)`.
    fn scan_probed(
        idx: &IvfIndex,
        s: &ModelSnapshot,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
    ) -> Vec<(Idx, u64)> {
        let mut all: Vec<Recommendation> = idx
            .probe_order(Portable, s.user_factor(user), nprobe)
            .iter()
            .flat_map(|&(_, c)| idx.postings[c].iter().copied())
            .filter(|j| seen.binary_search(j).is_err())
            .map(|item| Recommendation {
                item,
                score: s.score(user, item),
            })
            .collect();
        all.sort_by_key(|r| Weakest(*r));
        all.iter()
            .take(k)
            .map(|r| (r.item, r.score.to_bits()))
            .collect()
    }

    fn bits(top: &TopK) -> Vec<(Idx, u64)> {
        top.recs
            .iter()
            .map(|r| (r.item, r.score.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Skipping lists by their radius bound answers bit for bit like
        /// scanning every probed list: on clustered catalogs, with a block
        /// of duplicate rows spread over the lists (so the k-th score ties
        /// across lists), `0.0` and `-0.0` rows and users, a NaN row, `k`
        /// from 0 past the catalog size, and seen lists.
        #[test]
        fn pruned_probes_answer_like_scanning_every_probed_list(
            items in 1usize..300,
            dim in 1usize..9,
            clusters in 1usize..9,
            centroids in 1usize..17,
            top in 0usize..14,
            dupes in 0usize..14,
            nan_row in any::<bool>(),
            seed in any::<u64>(),
            seen_raw in proptest::collection::vec(any::<u32>(), 0..12),
        ) {
            // 13 asks for more than any catalog here holds.
            let top = if top == 13 { 400 } else { top };
            let mut m = clustered(6, items, dim, clusters, seed);
            m.w.set_row(4, &vec![0.0; dim]);
            m.w.set_row(5, &vec![-0.0; dim]);
            let dup: Vec<f64> = m.w.row(0).iter().map(|v| 3.0 * v).collect();
            let dup_rows: Vec<usize> = (0..dupes).map(|i| (i * 7919 + 3) % items).collect();
            for &j in &dup_rows {
                m.h.set_row(j, &dup);
            }
            m.h.set_row(0, &vec![0.0; dim]);
            if items > 1 {
                m.h.set_row(1, &vec![-0.0; dim]);
            }
            if nan_row && items > 2 {
                m.h.row_mut(items - 1)[0] = f64::NAN;
            }
            let s = ModelSnapshot::from_model(&m, 3, 300);
            let mut idx = IvfIndex::build(&s, params(centroids));
            // Spread the duplicates over the lists by hand.
            let n = idx.n_centroids();
            for (i, &j) in dup_rows.iter().enumerate() {
                idx.assign[j] = (i % n) as u32;
            }
            idx.rebuild_postings(&s);
            let mut seen: Vec<Idx> = seen_raw.iter().map(|&j| j % items as u32).collect();
            seen.sort_unstable();
            seen.dedup();
            for user in 0..6 {
                for nprobe in 1..=n {
                    for seen in [&[][..], &seen[..]] {
                        let got = idx.top_k(&s, user, top, nprobe, seen);
                        let want = scan_probed(&idx, &s, user, top, nprobe, seen);
                        prop_assert_eq!(bits(&got), want, "user {} nprobe {}", user, nprobe);
                    }
                }
            }
        }
    }

    #[test]
    fn clustered_catalogs_skip_lists_and_still_answer_exactly() {
        // Not vacuous: on a clustered catalog a full probe scores well
        // under the whole catalog per user, and still returns what the
        // exact scan returns.
        let s = ModelSnapshot::from_model(&clustered(40, 2_000, 8, 16, 17), 1, 100);
        let idx = IvfIndex::build(&s, params(32));
        let before = ROWS_SCORED.with(Cell::get);
        for user in 0..40 {
            let exact = s.top_k(user, 10, &[]);
            assert_eq!(idx.top_k(&s, user, 10, 32, &[]), exact, "user {user}");
        }
        let scored = ROWS_SCORED.with(Cell::get) - before;
        assert!(
            scored < 40 * 2_000 / 2,
            "{scored} rows scored for 40 full probes of 2,000 items"
        );
    }

    #[test]
    #[should_panic(expected = "queried against another")]
    fn a_query_against_another_snapshot_panics() {
        let s = snap(2, 30, 4, 11);
        let idx = IvfIndex::build(&s, params(5));
        let later = ModelSnapshot::from_model(&s.to_model(), 2, 200);
        let _ = idx.top_k(&later, 0, 5, 5, &[]);
    }

    fn params(n: usize) -> IvfParams {
        IvfParams {
            n_centroids: n,
            ..IvfParams::default()
        }
    }

    #[test]
    fn every_item_lands_in_exactly_one_posting() {
        let s = snap(3, 57, 5, 7);
        let idx = IvfIndex::build(&s, params(8));
        let mut all: Vec<Idx> = idx.postings.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..57).collect::<Vec<Idx>>());
        for p in &idx.postings {
            assert!(p.windows(2).all(|w| w[0] < w[1]), "postings stay sorted");
        }
    }

    #[test]
    fn full_probe_is_bit_identical_to_exact() {
        for seed in 0..5u64 {
            let s = snap(4, 40, 6, seed);
            let idx = IvfIndex::build(&s, params(6));
            for user in 0..4 {
                let exact = s.top_k(user, 10, &[]);
                let approx = idx.top_k(&s, user, 10, idx.n_centroids(), &[]);
                assert_eq!(exact.recs.len(), approx.recs.len());
                for (e, a) in exact.recs.iter().zip(&approx.recs) {
                    assert_eq!(e.item, a.item, "seed {seed} user {user}");
                    assert_eq!(e.score.to_bits(), a.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn postings_at_the_edges_of_the_seed_rank_like_the_exact_scan() {
        // A list seeds its bar from its own rows' lower bounds only when
        // it holds `top` unseen rows.  Postings one row short of `top`,
        // exactly that long with one row seen, one longer with the
        // catalog's last item at its end: at every nprobe each answers
        // like scanning the probed lists, and probing all of them, like
        // the exact scan, `seen` filter included.
        let top = 10;
        let s = snap(3, 200, 64, 5);
        let mut idx = IvfIndex::build(&s, params(4));
        for j in 0..200 {
            idx.assign[j] = match j {
                _ if j < top - 1 => 0,
                _ if j < 2 * top - 1 => 1,
                _ if j >= 200 - (top + 1) => 2,
                _ => 3,
            };
        }
        idx.rebuild_postings(&s);
        let lens: Vec<usize> = idx.postings.iter().map(Vec::len).collect();
        assert_eq!(lens, [top - 1, top, top + 1, 200 - 3 * top]);
        assert_eq!(idx.postings[2].last(), Some(&199));
        let seen = [0, 12, 57, 198];
        for user in 0..3 {
            for nprobe in 1..=4 {
                let got = idx.top_k(&s, user, top, nprobe, &seen);
                let want = scan_probed(&idx, &s, user, top, nprobe, &seen);
                assert_eq!(bits(&got), want, "user {user} nprobe {nprobe}");
            }
            let exact = s.top_k(user, top, &seen);
            let approx = idx.top_k(&s, user, top, 4, &seen);
            assert_eq!(exact, approx, "user {user}");
            assert!(approx.recs.iter().all(|r| !seen.contains(&r.item)));
        }
    }

    #[test]
    fn both_kernel_forms_probe_to_the_same_answer() {
        // `top_k` runs the widest form this CPU has; `top_k_on(Portable)`
        // keeps the other instantiation tested there.  Probing everything,
        // both are the exact scan.  k = 6 is one chunk and a tail, k = 32
        // chunks only.
        for k in [6, 32] {
            let s = snap(3, 90, k, 13);
            let idx = IvfIndex::build(&s, params(7));
            let seen = [4, 40, 89];
            for user in 0..3 {
                let exact = s.top_k(user, 10, &seen);
                let wide = idx.top_k(&s, user, 10, 7, &seen);
                let portable = idx.top_k_on(Portable, &s, user, 10, 7, &seen);
                assert_eq!(wide, exact, "k {k} user {user}");
                assert_eq!(portable, exact, "k {k} user {user}");
            }
            // The assignment loop likewise: same centroids, same postings.
            let mut portable = idx.clone();
            portable.assign_items_on(Portable, &s, 0..90);
            assert_eq!(portable.assign, idx.assign, "k {k}");
        }
        // On a clustered catalog the code filter really drops rows, and
        // both forms still answer like scanning every probed list, each
        // scoring fewer rows than those lists hold.  k = 12 is one chunk
        // of eight codes and a tail.
        let s = ModelSnapshot::from_model(&clustered(20, 2_000, 12, 16, 3), 1, 100);
        let idx = IvfIndex::build(&s, params(32));
        let seen = [7, 300, 1_999];
        let (mut wide_rows, mut portable_rows, mut probed_rows) = (0, 0, 0);
        for user in 0..20 {
            let want = scan_probed(&idx, &s, user, 10, 4, &seen);
            let before = ROWS_SCORED.with(Cell::get);
            let wide = idx.top_k(&s, user, 10, 4, &seen);
            let mid = ROWS_SCORED.with(Cell::get);
            let portable = idx.top_k_on(Portable, &s, user, 10, 4, &seen);
            portable_rows += ROWS_SCORED.with(Cell::get) - mid;
            wide_rows += mid - before;
            assert_eq!(bits(&wide), want, "user {user}");
            assert_eq!(bits(&portable), want, "user {user}");
            probed_rows += idx
                .probe_order(Portable, s.user_factor(user), 4)
                .iter()
                .map(|&(_, c)| idx.postings[c].len())
                .sum::<usize>();
        }
        assert!(
            wide_rows < probed_rows && portable_rows < probed_rows,
            "scored {wide_rows} (widest form) and {portable_rows} (portable) of {probed_rows} probed rows"
        );
    }

    /// Every list's codes and `ρ_j` are those a fresh encoding of its rows
    /// on its grid gives, in posting order.
    /// The code of `postings[c][i]`, gathered from its list's columns.
    fn code_of(idx: &IvfIndex, c: usize, i: usize) -> Vec<u8> {
        let len = idx.postings[c].len();
        (0..idx.k).map(|d| idx.codes[c][d * len + i]).collect()
    }

    fn assert_codes_in_step(idx: &IvfIndex, s: &ModelSnapshot) {
        let k = idx.k;
        let mut code = vec![0; k];
        for (c, posting) in idx.postings.iter().enumerate() {
            assert_eq!(idx.codes[c].len(), posting.len() * k, "list {c}");
            assert_eq!(idx.row_radii[c].len(), posting.len(), "list {c}");
            for (i, &j) in posting.iter().enumerate() {
                let rho = idx.encode_row(c, s.item_factor(j), &mut code);
                assert_eq!(code_of(idx, c, i), code, "list {c} row {j}");
                assert_eq!(
                    idx.row_radii[c][i].to_bits(),
                    rho.to_bits(),
                    "list {c} row {j}"
                );
            }
        }
    }

    #[test]
    fn near_ties_below_one_quantisation_step_answer_like_scanning_every_probed_list() {
        // Rows placed exactly on their list's grid (centres, offsets and
        // steps are powers of two apart), so their residual is 0 and only
        // the rounding allowance of `ρ_j` keeps a row whose code estimate
        // rounds below the k-th score.  A shared palette makes exact
        // duplicates within and across lists (ties at every rank), and
        // around them: rows 1 ulp apart, `±0.0` rows, a row with one
        // coordinate 10⁶× the rest (a coarse step in list 2), a NaN row
        // and an ∞ row.  11 coordinates: one chunk of eight codes and a
        // tail.
        let (dim, lists, per) = (11, 4, 40);
        let items = lists * per;
        let step = 1.0 / 128.0;
        let centre = |c: usize| 0.5 + c as f64 / 8.0;
        for seed in 0..12u64 {
            let mut rng = SmallRng64::new(seed);
            let mut m = FactorModel {
                w: FactorMatrix::zeros(8, dim),
                h: FactorMatrix::zeros(items, dim),
            };
            for u in 0..6 {
                let row: Vec<f64> = (0..dim).map(|_| rng.next_gaussian()).collect();
                m.w.set_row(u, &row);
            }
            m.w.set_row(7, &vec![-0.0; dim]);
            // `−1/2 + p/128` is on every list's grid, at code `p − 16c`.
            let on_grid =
                |p: &[u32]| -> Vec<f64> { p.iter().map(|&p| -0.5 + f64::from(p) * step).collect() };
            let palette: Vec<Vec<f64>> = (0..6)
                .map(|_| {
                    let p: Vec<u32> = (0..dim).map(|_| 49 + rng.next_below(206) as u32).collect();
                    on_grid(&p)
                })
                .collect();
            for c in 0..lists {
                for i in 0..per {
                    let row = match i {
                        // The two anchors span the grid: codes 0 and 255.
                        0 | 1 => on_grid(&vec![16 * c as u32 + 255 * i as u32; dim]),
                        _ => palette[rng.next_below(palette.len())].clone(),
                    };
                    m.h.set_row(c * per + i, &row);
                }
            }
            m.h.set_row(2, &vec![0.0; dim]);
            m.h.set_row(3, &vec![-0.0; dim]);
            for (j, twin, up) in [(per + 2, per + 3, true), (per + 4, 3 * per + 5, false)] {
                let mut row = m.h.row(twin).to_vec();
                row[j % dim] = if up {
                    row[j % dim].next_up()
                } else {
                    row[j % dim].next_down()
                };
                m.h.set_row(j, &row);
            }
            m.h.row_mut(2 * per + 2)[0] = 1e6 * m.h.row(2 * per + 2)[1];
            m.h.row_mut(3 * per + 2)[1] = f64::NAN;
            m.h.row_mut(3 * per + 3)[2] = f64::INFINITY;
            let s = ModelSnapshot::from_model(&m, 1, 10);
            let mut idx = IvfIndex::build(&s, params(lists));
            for c in 0..lists {
                idx.centroids[c * dim..(c + 1) * dim].fill(centre(c));
            }
            for (j, a) in idx.assign.iter_mut().enumerate() {
                *a = (j / per) as u32;
            }
            idx.rebuild_postings(&s);
            // The grids are the ones the rows sit on (list 2's coarse
            // coordinate aside), and an on-grid row's `ρ_j` is far below
            // one step.
            for c in [0, 1, 3] {
                assert!(idx.lo[c * dim..(c + 1) * dim].iter().all(|&l| l == -1.0));
                assert!(idx.steps[c * dim..(c + 1) * dim].iter().all(|&s| s == step));
            }
            assert!(idx.row_radii[0][2..]
                .iter()
                .all(|&r| f64::from(r) < step / 100.0));
            assert_codes_in_step(&idx, &s);
            let seen: Vec<Idx> = (0..items as Idx).filter(|j| j % 7 == 3).collect();
            for user in 0..8 {
                for top in [1, 2, 5, 10, 41] {
                    for nprobe in 1..=lists {
                        for seen in [&[][..], &seen[..]] {
                            let want = scan_probed(&idx, &s, user, top, nprobe, seen);
                            let got = idx.top_k(&s, user, top, nprobe, seen);
                            let portable = idx.top_k_on(Portable, &s, user, top, nprobe, seen);
                            let at = format!("seed {seed} user {user} top {top} nprobe {nprobe}");
                            assert_eq!(bits(&got), want, "{at}");
                            assert_eq!(bits(&portable), want, "{at}, portable");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scores_past_the_f32_range_answer_like_scanning_every_probed_list() {
        // Users and rows of norm ~1e21 score about ±1e42, past `f32::MAX`,
        // while every norm stays under `FILTER_CAP` and each list's rows
        // sit close enough together that its code sum stays small.  An
        // estimate there has no `f32` bound: an upper bound of `−∞` would
        // drop every row scored after the heap fills.  Users 0–2 score
        // every row below `−f32::MAX`, users 3–5 above `f32::MAX`.
        let (dim, items, lists) = (10, 160, 4);
        let mut rng = SmallRng64::new(0xF32);
        let centres: Vec<f64> = (0..lists * dim).map(|_| rng.next_gaussian()).collect();
        let mut m = FactorModel {
            w: FactorMatrix::zeros(6, dim),
            h: FactorMatrix::zeros(items, dim),
        };
        for u in 0..6 {
            let sign = if u < 3 { -1.0 } else { 1.0 };
            let row: Vec<f64> = (0..dim)
                .map(|_| sign * 1e21 * (1.0 + 0.01 * rng.next_gaussian()))
                .collect();
            m.w.set_row(u, &row);
        }
        for j in 0..items {
            let c = rng.next_below(lists);
            let row: Vec<f64> = (0..dim)
                .map(|d| 1e20 + 1e15 * centres[c * dim + d] + 1e13 * rng.next_gaussian())
                .collect();
            m.h.set_row(j, &row);
        }
        let s = ModelSnapshot::from_model(&m, 1, 10);
        for u in 0..6 {
            for j in 0..items as Idx {
                assert!(
                    s.score(u, j).abs() > f64::from(f32::MAX),
                    "user {u} item {j}"
                );
            }
        }
        let idx = IvfIndex::build(&s, params(lists));
        let seen: Vec<Idx> = (0..items as Idx).filter(|j| j % 5 == 1).collect();
        for user in 0..6 {
            for top in [1, 3, 10] {
                for nprobe in 1..=idx.n_centroids() {
                    for seen in [&[][..], &seen[..]] {
                        let want = scan_probed(&idx, &s, user, top, nprobe, seen);
                        let got = idx.top_k(&s, user, top, nprobe, seen);
                        let portable = idx.top_k_on(Portable, &s, user, top, nprobe, seen);
                        let at = format!("user {user} top {top} nprobe {nprobe}");
                        assert_eq!(bits(&got), want, "{at}");
                        assert_eq!(bits(&portable), want, "{at}, portable");
                    }
                }
            }
        }
    }

    #[test]
    fn partial_probe_returns_real_scores_bounded_by_the_winner() {
        let s = snap(4, 64, 6, 3);
        let idx = IvfIndex::build(&s, params(8));
        let exact = s.top_k(1, 5, &[]);
        let winner = exact.recs[0].score;
        let approx = idx.top_k(&s, 1, 5, 2, &[]);
        for r in &approx.recs {
            assert_eq!(r.score.to_bits(), s.score(1, r.item).to_bits());
            assert!(r.score.total_cmp(&winner) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn refresh_patches_changed_rows_between_postings() {
        let s = snap(2, 30, 4, 11);
        let mut idx = IvfIndex::build(&s, params(5));
        // A "trained" snapshot with a few rows replaced wholesale.
        let mut m = s.to_model();
        for &j in &[3usize, 17, 28] {
            let row: Vec<f64> = m.h.row(j).iter().map(|v| v * -3.0 + 1.0).collect();
            m.h.set_row(j, &row);
        }
        let s2 = ModelSnapshot::from_model(&m, 2, 200);
        let rebuilt = idx.refresh(&s2, &[3, 17, 28]);
        assert!(!rebuilt, "small churn patches in place");
        // Patched index answers full-probe queries bit-identically.
        let exact = s2.top_k(0, 8, &[]);
        let approx = idx.top_k(&s2, 0, 8, idx.n_centroids(), &[]);
        assert_eq!(exact.recs, approx.recs);
        // And the assignment matches a from-scratch assignment pass.
        let mut fresh = idx.clone();
        fresh.assign_items(&s2, 0..30);
        for &j in &[3u32, 17, 28] {
            assert_eq!(idx.assign[j as usize], fresh.assign[j as usize]);
            let c = idx.assign[j as usize] as usize;
            assert!(idx.postings[c].binary_search(&j).is_ok());
        }

        // Rows moved far away, some staying in their list and some moving
        // to another: the patched radii must cover them, so every pruned
        // probe still answers like a full scan of the probed lists.  Row
        // `c + t·u` stays nearest to `c` when `c` maximises `⟨u, c⟩`.
        let s = ModelSnapshot::from_model(&clustered(12, 400, 6, 8, 5), 1, 100);
        let mut idx = IvfIndex::build(&s, params(8));
        let mut m = s.to_model();
        let mut placed: Vec<(Idx, usize)> = Vec::new();
        for (i, (d, sign)) in (0..6).flat_map(|d| [(d, 1.0), (d, -1.0)]).enumerate() {
            let c = (0..8)
                .max_by(|&a, &b| {
                    (sign * idx.centroid(a)[d]).total_cmp(&(sign * idx.centroid(b)[d]))
                })
                .expect("8 centroids");
            let mut row = idx.centroid(c).to_vec();
            row[d] += sign * 20.0;
            // Even targets take a row of list `c` (it stays), odd ones a
            // row of another list (it moves).
            let j = (0..400)
                .map(|j| j as Idx)
                .find(|&j| {
                    (idx.assign[j as usize] as usize == c) == (i % 2 == 0)
                        && placed.iter().all(|&(p, _)| p != j)
                })
                .expect("a free row");
            m.h.set_row(j as usize, &row);
            placed.push((j, c));
        }
        let before: Vec<u32> = placed
            .iter()
            .map(|&(j, _)| idx.assign[j as usize])
            .collect();
        // Beside them: a row that turns NaN, and two nudged by far less
        // than a step, which stay on their list's grid.
        let free = |placed: &[(Idx, usize)], from: Idx| {
            (from..400)
                .find(|&j| placed.iter().all(|&(p, _)| p != j))
                .expect("a free row")
        };
        let nan_row = free(&placed, 0);
        m.h.row_mut(nan_row as usize)[3] = f64::NAN;
        let mut changed: Vec<Idx> = placed.iter().map(|&(j, _)| j).collect();
        changed.push(nan_row);
        for from in [nan_row + 1, 200] {
            let j = free(&placed, from);
            m.h.row_mut(j as usize)[1] += 1e-3;
            changed.push(j);
        }
        changed.sort_unstable();
        let s2 = ModelSnapshot::from_model(&m, 2, 200);
        assert!(!idx.refresh(&s2, &changed));
        for (i, (&(j, c), old)) in placed.iter().zip(before).enumerate() {
            assert_eq!(idx.assign[j as usize] as usize, c, "row {j}");
            assert_eq!(old as usize == c, i % 2 == 0, "row {j} stays or moves");
            // 20 past the centroid is far off the list's grid: the code
            // clamps, and `ρ_j` takes up the rest.
            let pos = idx.postings[c].binary_search(&j).expect("posted");
            let code = code_of(&idx, c, pos);
            assert!(code.contains(&255) || code.contains(&0), "row {j}");
            assert!(idx.row_radii[c][pos] > 1.0, "row {j}");
        }
        let c = idx.assign[nan_row as usize] as usize;
        let pos = idx.postings[c].binary_search(&nan_row).expect("posted");
        assert_eq!(idx.row_radii[c][pos], f32::INFINITY);
        assert_codes_in_step(&idx, &s2);
        let seen: Vec<Idx> = (0..400).filter(|j| j % 5 == 1).collect();
        let fresh = IvfIndex::build(&s2, params(8));
        for user in 0..12 {
            for nprobe in 1..=8 {
                for seen in [&[][..], &seen[..]] {
                    let got = idx.top_k(&s2, user, 5, nprobe, seen);
                    let want = scan_probed(&idx, &s2, user, 5, nprobe, seen);
                    assert_eq!(bits(&got), want, "user {user} nprobe {nprobe}");
                }
            }
            // At full probe the patched index is the freshly built one (and
            // both the exact scan; bits, since the NaN row ranks first).
            let full = bits(&idx.top_k(&s2, user, 5, 8, &seen));
            assert_eq!(
                full,
                bits(&fresh.top_k(&s2, user, 5, 8, &seen)),
                "user {user}"
            );
            assert_eq!(full, bits(&s2.top_k(user, 5, &seen)), "user {user}");
        }
        // A change set only runs forward: handed the older snapshot back,
        // the index rebuilds over it.
        assert!(idx.refresh(&s, &changed));
        assert_eq!(idx.top_k(&s, 0, 5, 8, &[]), s.top_k(0, 5, &[]));
    }

    #[test]
    fn refresh_rebuilds_on_grow() {
        let s = snap(2, 20, 4, 1);
        let mut idx = IvfIndex::build(&s, params(4));
        let bigger = snap(2, 33, 4, 2);
        assert!(idx.refresh(&bigger, &[]));
        assert_eq!(idx.num_items(), 33);
    }

    #[test]
    fn auto_centroids_scale_with_the_catalog() {
        let p = IvfParams::default();
        assert_eq!(p.centroids_for(1), 1);
        assert_eq!(p.centroids_for(100), 10);
        assert_eq!(p.centroids_for(16384), 128);
        assert_eq!(params(9).centroids_for(4), 4, "clamped to the catalog");
        assert_eq!(p.centroids_for(0), 0, "an empty catalog has no centroids");
    }
}
