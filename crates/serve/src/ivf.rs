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
//! to scanning every probed list in full.  Scored work drops from
//! `items·k` to `(n_centroids + scanned)·k`, `scanned` being the rows of
//! the probed lists that were not skipped.
//!
//! The bounds describe the rows of one snapshot.  The index records that
//! snapshot's `(epoch, updates_at)` stamp, and a query against any other
//! snapshot panics, like one whose dimensions do not match.
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
//! from epoch deltas: [`IvfIndex::refresh`] re-assigns only the item rows
//! whose update clock advanced (see
//! [`crate::SnapshotPublisher::changed_items_since`]), moving each
//! between posting lists in place.  Centroids are *not* re-fit on a
//! patch — they drift from the data until a refresh decides the churn
//! (or a dimension change) warrants a full rebuild.  Stale centroids
//! degrade only recall, never correctness: the rerank always scores
//! against the *current* snapshot's rows, and a patch raises the radius
//! of each changed row's list to cover it (radii only grow on a patch;
//! a rebuild recomputes them).
//!
//! # Deadline fallback
//!
//! [`IvfIndex::top_k_within`] enforces a per-query rerank budget: when
//! the deadline trips mid-rerank, the query falls back to the **raw
//! shortlist** — candidates ordered by their centroid's proxy score
//! (probe order, ascending item within a centroid), each reported with
//! the centroid proxy score instead of an exact dot.  The fallback is a
//! strictly-bounded amount of work (`n_centroids` dots plus a k-item
//! copy), so a query always resolves inside its budget.

use std::collections::BinaryHeap;
use std::time::Instant;

#[cfg(target_arch = "x86_64")]
use nomad_linalg::vec_ops::Avx2;
use nomad_linalg::vec_ops::{prefetch_row, prefetch_rows_ahead, Kernels, Portable};
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

/// Deadline-check stride during the rerank (an `Instant::now` per
/// candidate would dominate small dot products).
const DEADLINE_STRIDE: usize = 64;

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
    /// centroid-scan and posting-scan work), at least 1.
    pub fn centroids_for(&self, items: usize) -> usize {
        let want = if self.n_centroids > 0 {
            self.n_centroids
        } else {
            (items as f64).sqrt().ceil() as usize
        };
        want.clamp(1, items.max(1))
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
    /// `(epoch, updates_at)` of the snapshot the bounds describe.
    stamp: (u64, u64),
}

impl IvfIndex {
    /// Builds the index from a published snapshot's item rows with a
    /// seeded k-means (deterministic for a given snapshot + params).
    ///
    /// # Panics
    /// Panics if the snapshot has no items.
    pub fn build(snap: &ModelSnapshot, params: IvfParams) -> Self {
        let items = snap.num_items();
        assert!(items > 0, "cannot index an empty catalog");
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

    /// Catalog size the index currently covers.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.items
    }

    /// `true` when the index no longer fits the snapshot's dimensions
    /// (a `grow` happened) and must be rebuilt rather than patched.
    pub fn dims_mismatch(&self, snap: &ModelSnapshot) -> bool {
        self.items != snap.num_items() || self.k != snap.k()
    }

    /// Brings the index up to date with `snap`: re-assigns exactly the
    /// `changed` item rows, moving each between posting lists in place
    /// and raising its list's radius to cover it.  `changed` must name
    /// every row that differs from the snapshot the index describes.
    /// Falls back to a full rebuild when the dimensions changed, the
    /// churn exceeds `REBUILD_FRACTION` (half the catalog), or `snap` is
    /// older than that snapshot (a change set only runs forward).
    /// Returns `true` when it rebuilt.
    pub fn refresh(&mut self, snap: &ModelSnapshot, changed: &[Idx]) -> bool {
        if self.dims_mismatch(snap)
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
        for (&j, old_c) in changed.iter().zip(before) {
            let new_c = self.assign[j as usize];
            let r = radius_bound(snap.item_factor(j), self.centroid(new_c as usize));
            self.radii[new_c as usize] = self.radii[new_c as usize].max(r);
            if new_c != old_c {
                let old = &mut self.postings[old_c as usize];
                if let Ok(pos) = old.binary_search(&j) {
                    old.remove(pos);
                }
                let new = &mut self.postings[new_c as usize];
                if let Err(pos) = new.binary_search(&j) {
                    new.insert(pos, j);
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
        self.top_k_within(snap, user, k, nprobe, seen, None).0
    }

    /// [`IvfIndex::top_k`] with an optional rerank deadline.  Returns
    /// `(answer, reranked)`: `reranked == false` means the deadline
    /// tripped and the answer is the raw shortlist with centroid proxy
    /// scores (see the module docs on the fallback contract).
    ///
    /// # Panics
    /// Same conditions as [`IvfIndex::top_k`].
    pub fn top_k_within(
        &self,
        snap: &ModelSnapshot,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
        deadline: Option<Instant>,
    ) -> (TopK, bool) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            // SAFETY: `avx2` is the proof that this CPU has the feature.
            return unsafe { self.top_k_within_avx2(avx2, snap, user, k, nprobe, seen, deadline) };
        }
        self.top_k_within_on(Portable, snap, user, k, nprobe, seen, deadline)
    }

    /// [`Self::top_k_within_on`] compiled with AVX2 enabled, so the wide
    /// `dot` inlines into the centroid scoring and the rerank.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn top_k_within_avx2(
        &self,
        avx2: Avx2,
        snap: &ModelSnapshot,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
        deadline: Option<Instant>,
    ) -> (TopK, bool) {
        self.top_k_within_on(avx2, snap, user, k, nprobe, seen, deadline)
    }

    /// The probe and rerank behind [`Self::top_k_within`], over the kernel
    /// form `kernels`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn top_k_within_on<K: Kernels>(
        &self,
        kernels: K,
        snap: &ModelSnapshot,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
        deadline: Option<Instant>,
    ) -> (TopK, bool) {
        assert!(
            !self.dims_mismatch(snap),
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
        let mut scored = 0usize;
        // `‖w‖`, rounded up past the underflow of the squares; the skip
        // test's relative slack, in units of `‖w‖·(‖c‖ + r_c)` (see the
        // module docs).
        let w_norm = (kernels.dot(wu, wu) + f64::MIN_POSITIVE).sqrt();
        let slack = (2 * self.k + 8) as f64 * f64::EPSILON;
        // A posting lists items in index order, so scoring it is a gather
        // over `H`; tell the cache which row comes a fixed distance on.
        let ahead = prefetch_rows_ahead(self.k);
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
            for (at, &item) in posting.iter().enumerate() {
                if let Some(&next) = posting.get(at + ahead) {
                    prefetch_row(snap.item_factor(next));
                }
                if !seen.is_empty() && seen.binary_search(&item).is_ok() {
                    continue;
                }
                if let Some(at) = deadline {
                    if scored.is_multiple_of(DEADLINE_STRIDE) && Instant::now() >= at {
                        return (self.raw_shortlist(snap, k, &probes, seen), false);
                    }
                }
                scored += 1;
                let score = kernels.dot(wu, snap.item_factor(item));
                let cand = Recommendation { item, score };
                if heap.len() < k {
                    heap.push(Weakest(cand));
                } else if k > 0 && ranks_higher(&cand, &heap.peek().expect("k > 0").0) {
                    heap.pop();
                    heap.push(Weakest(cand));
                }
            }
        }
        #[cfg(test)]
        tests::ROWS_SCORED.with(|n| n.set(n.get() + scored));
        let recs = heap.into_sorted_vec().into_iter().map(|w| w.0).collect();
        (
            TopK {
                epoch: snap.epoch(),
                updates_at: snap.updates_at(),
                recs,
            },
            true,
        )
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
        let m = nprobe.clamp(1, n);
        if m < n {
            scored.select_nth_unstable_by(m - 1, best_first);
            scored.truncate(m);
        }
        scored.sort_unstable_by(best_first);
        scored
    }

    /// The deadline-fallback answer: the first `k` unseen shortlist
    /// candidates in probe order, scored with their centroid's proxy.
    fn raw_shortlist(
        &self,
        snap: &ModelSnapshot,
        k: usize,
        probes: &[(f64, usize)],
        seen: &[Idx],
    ) -> TopK {
        let mut recs = Vec::with_capacity(k);
        'outer: for &(proxy, c) in probes {
            for &item in &self.postings[c] {
                if !seen.is_empty() && seen.binary_search(&item).is_ok() {
                    continue;
                }
                recs.push(Recommendation { item, score: proxy });
                if recs.len() == k {
                    break 'outer;
                }
            }
        }
        TopK {
            epoch: snap.epoch(),
            updates_at: snap.updates_at(),
            recs,
        }
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
    /// list's radius and centroid norm over `snap`'s rows.
    fn rebuild_postings(&mut self, snap: &ModelSnapshot) {
        for p in &mut self.postings {
            p.clear();
        }
        self.radii.fill(0.0);
        for j in 0..self.items {
            let c = self.assign[j] as usize;
            self.postings[c].push(j as Idx);
            let r = radius_bound(snap.item_factor(j as Idx), self.centroid(c));
            self.radii[c] = self.radii[c].max(r);
        }
        for c in 0..self.n_centroids() {
            let cent = self.centroid(c);
            self.centroid_norms[c] = nomad_linalg::dot(cent, cent).sqrt();
        }
        self.stamp = (snap.epoch(), snap.updates_at());
    }

    /// Centroid `c`'s row.
    fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c * self.k..(c + 1) * self.k]
    }
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
    fn postings_at_the_edges_of_the_prefetch_distance_rank_like_the_exact_scan() {
        // Postings one row short of the prefetch distance, exactly that
        // long, and longer with the catalog's last item at the end: the
        // look-ahead must stop at each posting's end and, probing them
        // all, rank exactly what the scan ranks, `seen` filter included.
        let s = snap(3, 200, 64, 5);
        let ahead = prefetch_rows_ahead(64);
        let mut idx = IvfIndex::build(&s, params(4));
        for j in 0..200 {
            idx.assign[j] = match j {
                _ if j < ahead - 1 => 0,
                _ if j < 2 * ahead - 1 => 1,
                _ if j >= 200 - (ahead + 1) => 2,
                _ => 3,
            };
        }
        idx.rebuild_postings(&s);
        let lens: Vec<usize> = idx.postings.iter().map(Vec::len).collect();
        assert_eq!(lens, [ahead - 1, ahead, ahead + 1, 200 - 3 * ahead]);
        assert_eq!(idx.postings[2].last(), Some(&199));
        let seen = [0, 57, 198];
        for user in 0..3 {
            let exact = s.top_k(user, 10, &seen);
            let (approx, reranked) = idx.top_k_within(&s, user, 10, 4, &seen, None);
            assert!(reranked);
            assert_eq!(exact, approx, "user {user}");
            assert!(approx.recs.iter().all(|r| !seen.contains(&r.item)));
        }
    }

    #[test]
    fn both_kernel_forms_probe_to_the_same_answer() {
        // `top_k_within` runs the widest form this CPU has;
        // `top_k_within_on(Portable)` keeps the other instantiation tested
        // there.  Probing everything, both are the exact scan.  k = 6 is
        // one chunk and a tail, k = 32 chunks only.
        for k in [6, 32] {
            let s = snap(3, 90, k, 13);
            let idx = IvfIndex::build(&s, params(7));
            let seen = [4, 40, 89];
            for user in 0..3 {
                let exact = s.top_k(user, 10, &seen);
                let wide = idx.top_k_within(&s, user, 10, 7, &seen, None);
                let portable = idx.top_k_within_on(Portable, &s, user, 10, 7, &seen, None);
                assert_eq!(wide, (exact.clone(), true), "k {k} user {user}");
                assert_eq!(portable, (exact, true), "k {k} user {user}");
            }
            // The assignment loop likewise: same centroids, same postings.
            let mut portable = idx.clone();
            portable.assign_items_on(Portable, &s, 0..90);
            assert_eq!(portable.assign, idx.assign, "k {k}");
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
        let mut changed: Vec<Idx> = placed.iter().map(|&(j, _)| j).collect();
        changed.sort_unstable();
        let s2 = ModelSnapshot::from_model(&m, 2, 200);
        assert!(!idx.refresh(&s2, &changed));
        for (i, (&(j, c), old)) in placed.iter().zip(before).enumerate() {
            assert_eq!(idx.assign[j as usize] as usize, c, "row {j}");
            assert_eq!(old as usize == c, i % 2 == 0, "row {j} stays or moves");
        }
        for user in 0..12 {
            for nprobe in 1..=8 {
                let got = idx.top_k(&s2, user, 5, nprobe, &[]);
                let want = scan_probed(&idx, &s2, user, 5, nprobe, &[]);
                assert_eq!(bits(&got), want, "user {user} nprobe {nprobe}");
            }
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
    fn expired_deadline_falls_back_to_the_raw_shortlist() {
        let s = snap(2, 50, 4, 9);
        let idx = IvfIndex::build(&s, params(5));
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let (top, reranked) = idx.top_k_within(&s, 0, 5, 3, &[], Some(past));
        assert!(!reranked);
        assert_eq!(top.recs.len(), 5);
        // Fallback still respects the seen filter.
        let seen: Vec<Idx> = (0..50).filter(|j| j % 2 == 0).collect();
        let (top, _) = idx.top_k_within(&s, 0, 5, 5, &seen, Some(past));
        assert!(top.recs.iter().all(|r| r.item % 2 == 1));
    }

    #[test]
    fn auto_centroids_scale_with_the_catalog() {
        let p = IvfParams::default();
        assert_eq!(p.centroids_for(1), 1);
        assert_eq!(p.centroids_for(100), 10);
        assert_eq!(p.centroids_for(16384), 128);
        assert_eq!(params(9).centroids_for(4), 4, "clamped to the catalog");
    }
}
