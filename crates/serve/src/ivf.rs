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
//! Inside a scanned list the same argument runs per row: each list is a
//! coded run around its centroid (the bound is in `filter.rs`), whose
//! grid, codes and `ρ_j` are rebuilt and patched with the postings.
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
//! # Building the index
//!
//! A build is `KMEANS_ITERS` Lloyd iterations and a last assignment, and
//! the assignment passes, every row against every centroid, are nearly all
//! of its work.  One routine runs them, for a build and for a refresh's
//! changed rows alike.  It copies the centroids into blocks of four, each
//! block transposed so that a coordinate of its four centroids is four
//! adjacent `f64`s, and walks the rows in tiles of 32: a block scores
//! every row of the tile before the next block is read, so it stays in L1
//! where a row at a time streamed every centroid from L2.  A block's four
//! dots with a row are the four lanes of one vector per partial sum `s_l`,
//! and each lane runs [`nomad_linalg::dot`]'s operations in `dot`'s order:
//! the chunks of four coordinates in order, `(s0 + s1) + (s2 + s3)`, then
//! the scalar tail, each step a multiply and then an add, never fused.  So
//! every dot has the bits `dot` gives, the `n % 4` centroids past the last
//! block go through `dot` itself, and a row meets the centroids in
//! ascending order under the same strict `total_cmp` test: it keeps the
//! centroid a row-at-a-time scan keeps.  A row's nearest centroid depends
//! on that row alone, so contiguous chunks of rows go to scoped threads,
//! one a core, each writing its own slice of the answer; a pass too small
//! to pay for a spawn runs on the caller.  The index is the same bit for
//! bit on any number of cores and in either kernel form.
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

#[cfg(target_arch = "x86_64")]
use nomad_linalg::vec_ops::Avx2;
use nomad_linalg::vec_ops::{Kernels, Portable};
use nomad_linalg::SmallRng64;
use nomad_matrix::Idx;

use crate::filter::{fit, widen, CodedRun, Grid, Rerank};
use crate::snapshot::{ModelSnapshot, TopK};

/// Lloyd iterations for a (re)build.  k-means quality saturates fast on
/// factor rows, and the index only needs *locality*, not optimality.
const KMEANS_ITERS: usize = 4;

/// A [`IvfIndex::refresh`] whose changed set exceeds this fraction of
/// the catalog rebuilds from scratch instead of patching, which leaves
/// drifted centroids behind.  On cost alone patching wins further out:
/// on `serve-static`'s catalog (65,536 × 32, 256 lists, 2 cores) a
/// rebuild costs 4.5 µs a row (0.30 s) and a patch 2.5 µs a changed row
/// (15.8 ms for 9.5% of the rows), so patching the whole catalog would
/// still cost 0.6 of a rebuild.  ROADMAP item 13 chooses the fraction on
/// a training workload's churn.
const REBUILD_FRACTION: f64 = 0.5;

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
    /// seeded k-means (deterministic for a given snapshot + params, and
    /// bit for bit the same on any number of cores).  Each assignment
    /// pass runs in the widest kernel form this CPU has, split over every
    /// core (module docs, "Building the index").  An empty catalog gets no
    /// centroids, so k-means has nothing to move.
    pub fn build(snap: &ModelSnapshot, params: IvfParams) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            return Self::build_on(avx2, snap, params, cores());
        }
        Self::build_on(Portable, snap, params, cores())
    }

    /// [`Self::build`] with its assignment passes in the kernel form
    /// `kernels`, on at most `threads` threads.
    fn build_on<K: AssignForm>(
        kernels: K,
        snap: &ModelSnapshot,
        params: IvfParams,
        threads: usize,
    ) -> Self {
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
            index.assign_rows(kernels, snap, None, threads);
            index.refit_centroids(snap);
        }
        index.assign_rows(kernels, snap, None, threads);
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
    /// The changed rows go through a build's assignment routine
    /// (`assign_rows`, on every core), so each lands on the
    /// centroid a build's last pass over these centroids would give it.
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
            let rho = self.run(new_c).grid.encode(row, &mut code, 1);
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
        let wu = snap.user_factor(user);
        let probes = self.probe_order(kernels, wu, nprobe);
        let longest = probes
            .iter()
            .map(|&(_, c)| self.postings[c].len())
            .max()
            .unwrap_or(0);
        let mut rerank = Rerank::new(kernels, wu, k, seen, self.items, longest);
        // The skip test's relative slack, in units of `‖w‖·(‖c‖ + r_c)`
        // (see the module docs).
        let slack = (2 * self.k + 8) as f64 * f64::EPSILON;
        for &(proxy, c) in &probes {
            if let Some(kth) = rerank.kth() {
                let (norm, r, w_norm) = (self.centroid_norms[c], self.radii[c], rerank.w_norm);
                // Past `f64::MAX / 4` a dot over this list could overflow,
                // and a NaN or ∞ fails the first test: scan the list.
                let scale = w_norm * (norm + r);
                if scale < f64::MAX / 4.0
                    && proxy + w_norm * r + scale * slack + f64::MIN_POSITIVE < kth
                {
                    continue;
                }
            }
            let posting = self.postings[c].iter().copied();
            rerank.scan(kernels, snap, &self.run(c), proxy, posting);
        }
        TopK {
            epoch: snap.epoch(),
            updates_at: snap.updates_at(),
            recs: rerank.into_recs(),
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
    /// item `j`'s row, for each `j` of `items`, in the widest kernel form
    /// this CPU has, on every core.  Postings are the caller's to bring in
    /// line.
    fn assign_items(&mut self, snap: &ModelSnapshot, items: impl IntoIterator<Item = Idx>) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            return self.assign_items_on(avx2, snap, items);
        }
        self.assign_items_on(Portable, snap, items)
    }

    /// [`Self::assign_items`] in the kernel form `kernels`.
    fn assign_items_on<K: AssignForm>(
        &mut self,
        kernels: K,
        snap: &ModelSnapshot,
        items: impl IntoIterator<Item = Idx>,
    ) {
        let rows: Vec<Idx> = items.into_iter().collect();
        self.assign_rows(kernels, snap, Some(&rows), cores());
    }

    /// The one assignment routine behind [`Self::build`] and
    /// [`Self::refresh`]: `assign[j] ←` the centroid nearest to item `j`'s
    /// row for each `j` of `rows`, or of every item if `rows` is `None`, in
    /// the kernel form `kernels` on at most `threads` threads
    /// ([`nearest_split`]).  Nearest in L2, ties to the lowest index:
    /// `argmin ‖row − c‖²` = `argmin ‖c‖² − 2⟨row, c⟩` (the `‖row‖²` term
    /// is constant across centroids), each `‖c‖²` computed once per call —
    /// the centroids do not move during an assignment.  Over every item the
    /// threads write `assign` itself; over a subset, a scratch copied in.
    fn assign_rows<K: AssignForm>(
        &mut self,
        kernels: K,
        snap: &ModelSnapshot,
        rows: Option<&[Idx]>,
        threads: usize,
    ) {
        let table = CentroidBlocks::new(kernels, &self.centroids, self.n_centroids(), self.k);
        let Some(rows) = rows else {
            let every = |i: usize| i as Idx;
            return nearest_split(kernels, &table, snap, &every, &mut self.assign, threads);
        };
        let mut nearest = vec![0; rows.len()];
        nearest_split(kernels, &table, snap, &|i| rows[i], &mut nearest, threads);
        for (&j, c) in rows.iter().zip(nearest) {
            self.assign[j as usize] = c;
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
        // greatest residual per coordinate.
        self.lo.fill(f64::INFINITY);
        self.steps.fill(f64::NEG_INFINITY);
        for j in 0..self.items {
            let c = self.assign[j] as usize;
            self.postings[c].push(j as Idx);
            let span = c * k..(c + 1) * k;
            let (row, cent) = (snap.item_factor(j as Idx), &self.centroids[span.clone()]);
            self.radii[c] = self.radii[c].max(radius_bound(row, cent));
            widen(&mut self.lo[span.clone()], &mut self.steps[span], row, cent);
        }
        fit(&mut self.lo, &mut self.steps);
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
        for j in 0..self.items {
            let (c, row) = (self.assign[j] as usize, snap.item_factor(j as Idx));
            let (i, len) = (row_radii[c].len(), self.postings[c].len());
            row_radii[c].push(self.run(c).grid.encode(row, &mut codes[c][i..], len));
        }
        self.codes = codes;
        self.row_radii = row_radii;
        self.stamp = (snap.epoch(), snap.updates_at());
    }

    /// List `c` as a coded run: its centroid, grid, codes and `ρ_j`.
    fn run(&self, c: usize) -> CodedRun<'_> {
        let span = c * self.k..(c + 1) * self.k;
        let grid = Grid {
            offset: self.centroid(c),
            offset_norm: self.centroid_norms[c],
            lo: &self.lo[span.clone()],
            step: &self.steps[span],
            lo_norm: self.lo_norms[c],
        };
        let (codes, rho) = (&self.codes[c], &self.row_radii[c]);
        CodedRun { grid, codes, rho }
    }

    /// Centroid `c`'s row.
    fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c * self.k..(c + 1) * self.k]
    }
}

/// Rows an assignment scores against one block of four centroids before
/// moving to the next: the block (`4·k` `f64`s, 1 KiB at k = 32) is
/// loaded once a tile and stays in L1 while the tile's rows (8 KiB at
/// k = 32) do too, where a row at a time streams every centroid from L2.
const TILE: usize = 32;

/// Least assignment work a thread takes (rows × centroids × k
/// multiplies), as for `QueryEngine::batch_top_k`: below it a spawn and
/// join costs more than the thread saves.
const SPAWN_WORK: usize = 1 << 18;

/// The cores this process may run on, at least 1.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The centroids as an assignment pass reads them: in blocks of four,
/// each block transposed so that a coordinate of its four centroids is
/// four adjacent `f64`s (`blocks[4·(b·k + d) + l]` is coordinate `d` of
/// centroid `4b + l`), plus every centroid's `‖c‖²` through `dot`.  The
/// `n % 4` centroids past the last block are read from `centroids`.
struct CentroidBlocks<'a> {
    k: usize,
    centroids: &'a [f64],
    blocks: Vec<f64>,
    norms: Vec<f64>,
}

impl<'a> CentroidBlocks<'a> {
    fn new(kernels: impl Kernels, centroids: &'a [f64], n: usize, k: usize) -> Self {
        let mut blocks = vec![0.0; 4 * k * (n / 4)];
        for (b, block) in blocks.chunks_exact_mut(4 * k.max(1)).enumerate() {
            for l in 0..4 {
                let c = &centroids[(4 * b + l) * k..(4 * b + l + 1) * k];
                for (d, &v) in c.iter().enumerate() {
                    block[4 * d + l] = v;
                }
            }
        }
        let norms = (0..n)
            .map(|c| {
                let c = &centroids[c * k..(c + 1) * k];
                kernels.dot(c, c)
            })
            .collect();
        Self {
            k,
            centroids,
            blocks,
            norms,
        }
    }
}

/// Which item an assignment pass scores at a position of its answer.
type RowOf<'a> = dyn Fn(usize) -> Idx + Sync + 'a;

/// `out[i] ←` the centroid nearest to row `item(i)`, in the kernel form
/// `kernels`.  A row's nearest centroid depends on that row alone, so
/// `out` is cut into contiguous chunks, one a thread of at most `threads`
/// scoped threads, each writing its own slice; a pass with under
/// `SPAWN_WORK` multiplies a thread runs on the caller.
fn nearest_split<K: AssignForm>(
    kernels: K,
    table: &CentroidBlocks,
    snap: &ModelSnapshot,
    item: &RowOf,
    out: &mut [u32],
    threads: usize,
) {
    let work = out.len() * table.norms.len() * table.k;
    let threads = threads.min(out.len()).min((work / SPAWN_WORK).max(1));
    if threads <= 1 {
        return kernels.nearest(table, snap, item, 0, out);
    }
    let chunk = out.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, out) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || kernels.nearest(table, snap, item, c * chunk, out));
        }
    });
}

/// A kernel form that runs its share of an assignment pass compiled for
/// itself: [`Portable`] as written, [`Avx2`] inside a wrapper that enables
/// the feature, where the blocked loops of [`nearest_on`] compile to
/// four-lane vectors and the wide `dot` inlines.
trait AssignForm: Kernels + Send + Sync {
    /// `out[i] ←` the centroid nearest to row `item(first + i)`
    /// ([`nearest_on`]).
    fn nearest(
        self,
        table: &CentroidBlocks,
        snap: &ModelSnapshot,
        item: &RowOf,
        first: usize,
        out: &mut [u32],
    );
}

impl AssignForm for Portable {
    fn nearest(
        self,
        table: &CentroidBlocks,
        snap: &ModelSnapshot,
        item: &RowOf,
        first: usize,
        out: &mut [u32],
    ) {
        nearest_on(self, table, snap, item, first, out);
    }
}

#[cfg(target_arch = "x86_64")]
impl AssignForm for Avx2 {
    fn nearest(
        self,
        table: &CentroidBlocks,
        snap: &ModelSnapshot,
        item: &RowOf,
        first: usize,
        out: &mut [u32],
    ) {
        // SAFETY: `self` is the proof that this CPU has the feature.
        unsafe { nearest_avx2(self, table, snap, item, first, out) }
    }
}

/// [`nearest_on`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2 — `avx2` is the proof.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nearest_avx2(
    avx2: Avx2,
    table: &CentroidBlocks,
    snap: &ModelSnapshot,
    item: &RowOf,
    first: usize,
    out: &mut [u32],
) {
    nearest_on(avx2, table, snap, item, first, out);
}

/// `out[i] ←` the centroid nearest to row `item(first + i)`, over the
/// kernel form `kernels`.  Tile by tile of `TILE` rows, each block of four
/// centroids scores every row of the tile ([`block_dots`]), then the
/// centroids past the last block score them through `kernels.dot`.  A row
/// still meets the centroids in ascending order and keeps the first whose
/// `‖c‖² − 2⟨row, c⟩` is strictly least under `total_cmp`, with every dot
/// the bits `dot` returns, so the answer is the per-row scan's, bit for
/// bit.
#[inline(always)]
fn nearest_on<K: Kernels>(
    kernels: K,
    table: &CentroidBlocks,
    snap: &ModelSnapshot,
    item: &RowOf,
    first: usize,
    out: &mut [u32],
) {
    let k = table.k;
    let n = table.norms.len();
    for (t, out) in out.chunks_mut(TILE).enumerate() {
        let mut tile_rows: [&[f64]; TILE] = [&[]; TILE];
        let tile_rows = &mut tile_rows[..out.len()];
        for (i, row) in tile_rows.iter_mut().enumerate() {
            *row = snap.item_factor(item(first + t * TILE + i));
        }
        let mut best = [(f64::INFINITY, 0u32); TILE];
        let best = &mut best[..out.len()];
        let blocks = table.blocks.chunks_exact(4 * k.max(1));
        for (b, (block, norms)) in blocks.zip(table.norms.chunks_exact(4)).enumerate() {
            // Two rows at a time share each load of the block.
            let mut pairs = tile_rows.chunks_exact(2);
            let mut bests = best.chunks_exact_mut(2);
            for (pair, best) in (&mut pairs).zip(&mut bests) {
                let [dots0, dots1] = block_dots([pair[0], pair[1]], block);
                offer(&mut best[0], 4 * b, norms, dots0);
                offer(&mut best[1], 4 * b, norms, dots1);
            }
            if let ([row], [best]) = (pairs.remainder(), bests.into_remainder()) {
                let [dots] = block_dots([*row], block);
                offer(best, 4 * b, norms, dots);
            }
        }
        for c in 4 * (n / 4)..n {
            let cent = &table.centroids[c * k..(c + 1) * k];
            for (&row, best) in tile_rows.iter().zip(best.iter_mut()) {
                offer(best, c, &table.norms[c..=c], [kernels.dot(row, cent)]);
            }
        }
        for (o, &(_, c)) in out.iter_mut().zip(&*best) {
            *o = c;
        }
    }
}

/// Offers a row the centroids `first, first + 1, …` in order, at the
/// squared norms `norms` and the dots `dots`: each becomes the row's
/// `best` if its `‖c‖² − 2⟨row, c⟩` is strictly below the best distance so
/// far under `total_cmp`, so ties go to the lowest index.
#[inline(always)]
fn offer<const L: usize>(best: &mut (f64, u32), first: usize, norms: &[f64], dots: [f64; L]) {
    for (l, (&norm, dot)) in norms.iter().zip(dots).enumerate() {
        let d = norm - 2.0 * dot;
        if d.total_cmp(&best.0) == std::cmp::Ordering::Less {
            *best = (d, (first + l) as u32);
        }
    }
}

/// `dot(row, c)` for each row of `rows` and each of the four centroids `c`
/// of one transposed block, each lane the bits [`nomad_linalg::dot`]
/// returns: the vector `s[r][l]` holds partial sum `s_l` of row `r` and all
/// four centroids, so each lane adds `row[4i + l]·c[4i + l]` chunk by chunk
/// in order, the lanes reduce as `(s0 + s1) + (s2 + s3)` and the `k % 4`
/// tail coordinates are added one at a time after — `dot`'s association,
/// and a multiply then an add (never fused) at every step.  Two rows at a
/// time share each load of the block and keep eight sums in flight.
#[inline(always)]
fn block_dots<const R: usize>(rows: [&[f64]; R], block: &[f64]) -> [[f64; 4]; R] {
    debug_assert!(rows.iter().all(|row| 4 * row.len() == block.len()));
    let mut s = [[[0.0f64; 4]; 4]; R];
    let mut ts = block.chunks_exact(16);
    let mut xs = rows.map(|row| row.chunks_exact(4));
    for t in &mut ts {
        for (s, xs) in s.iter_mut().zip(&mut xs) {
            let x = xs.next().expect("a row chunk per block chunk");
            for (l, s) in s.iter_mut().enumerate() {
                for (m, s) in s.iter_mut().enumerate() {
                    *s += x[l] * t[4 * l + m];
                }
            }
        }
    }
    let mut acc = [[0.0f64; 4]; R];
    for ((acc, s), xs) in acc.iter_mut().zip(&s).zip(&xs) {
        for (m, acc) in acc.iter_mut().enumerate() {
            *acc = (s[0][m] + s[1][m]) + (s[2][m] + s[3][m]);
        }
        for (&x, t) in xs.remainder().iter().zip(ts.remainder().chunks_exact(4)) {
            for (acc, &t) in acc.iter_mut().zip(t) {
                *acc += x * t;
            }
        }
    }
    acc
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
pub(crate) mod tests {
    use super::*;
    use crate::filter::ROWS_SCORED;
    use crate::snapshot::{Recommendation, Weakest};
    use nomad_sgd::{FactorMatrix, FactorModel};
    use proptest::prelude::*;
    use std::cell::Cell;

    fn snap(users: usize, items: usize, k: usize, seed: u64) -> ModelSnapshot {
        ModelSnapshot::from_model(&FactorModel::init(users, items, k, seed), 1, 100)
    }

    /// Users and items scattered around `clusters` shared Gaussian centres:
    /// the catalogs on which whole lists fall below a user's top-k.
    pub(crate) fn clustered(
        users: usize,
        items: usize,
        k: usize,
        clusters: usize,
        seed: u64,
    ) -> FactorModel {
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
                let rho = idx.run(c).grid.encode(s.item_factor(j), &mut code, 1);
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

    /// FNV-1a over the bits of every field of `idx`, list lengths
    /// included, so two indexes hash equal only if they are equal bit for
    /// bit.
    fn index_hash(idx: &IvfIndex) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(idx.k as u64);
        eat(idx.items as u64);
        idx.assign.iter().for_each(|&a| eat(a.into()));
        for p in &idx.postings {
            eat(p.len() as u64);
            p.iter().for_each(|&j| eat(j.into()));
        }
        for field in [
            &idx.centroids,
            &idx.centroid_norms,
            &idx.radii,
            &idx.lo,
            &idx.steps,
            &idx.lo_norms,
        ] {
            field.iter().for_each(|v| eat(v.to_bits()));
        }
        for (codes, rho) in idx.codes.iter().zip(&idx.row_radii) {
            eat(codes.len() as u64);
            codes.iter().for_each(|&q| eat(q.into()));
            rho.iter().for_each(|r| eat(r.to_bits().into()));
        }
        eat(idx.stamp.0);
        eat(idx.stamp.1);
        h
    }

    /// The catalogs the build pins cover, as `(n_centroids, k, model)`:
    /// k ∈ {7, 30, 32, 100}; centroid counts that leave 2, 3, 2, 2 and 0
    /// centroids past a multiple of 4, one centroid, and one per item;
    /// item counts off the 32-row tile and off every thread split; two
    /// catalogs whose assignment work sits below the spawn threshold (`n =
    /// 1` and `n = items`); one with NaN rows, which sort above every
    /// distance; and one with ±∞ rows, whose sums make the negative NaN
    /// x86 produces for `∞ − ∞`, which sorts below every distance (both
    /// through `total_cmp`, and both turn centroids non-finite).  Every
    /// NaN of a catalog has one sign, so no sum of two NaNs leaves the
    /// compiler a choice of bits.
    fn pinned_catalogs() -> Vec<(usize, usize, FactorModel)> {
        let mut nan = clustered(2, 1_500, 32, 10, 41);
        nan.h.set_row(5, &[f64::NAN; 32]);
        nan.h.row_mut(17)[3] = f64::NAN;
        nan.h.row_mut(1_499)[31] = f64::NAN;
        let mut inf = clustered(2, 1_203, 32, 10, 43);
        inf.h.row_mut(40)[0] = f64::INFINITY;
        inf.h.set_row(41, &[f64::NEG_INFINITY; 32]);
        inf.h.row_mut(99)[7] = f64::INFINITY;
        inf.h.row_mut(99)[8] = f64::NEG_INFINITY;
        inf.h.row_mut(300)[2] = -f64::NAN;
        vec![
            (30, 7, FactorModel::init(2, 3_001, 7, 1)),
            (0, 30, clustered(2, 1_200, 30, 12, 2)),
            (1, 32, FactorModel::init(2, 3_001, 32, 3)),
            (45, 100, FactorModel::init(2, 45, 100, 4)),
            (26, 32, nan),
            (22, 32, inf),
            (64, 32, clustered(2, 1_031, 32, 24, 6)),
        ]
    }

    /// `m` with every 20th item row (5% of the catalog) moved to the
    /// midpoint of two of `idx`'s centroids, where the two distances
    /// differ by rounding alone, and the `changed` set a refresh of it
    /// takes.  Which of the two a row joins turns on the last bits of its
    /// dots.
    fn perturbed(m: &FactorModel, idx: &IvfIndex) -> (FactorModel, Vec<Idx>) {
        let mut m = m.clone();
        let n = idx.n_centroids();
        let changed: Vec<Idx> = (7..m.h.rows() as Idx).step_by(20).collect();
        for (i, &j) in changed.iter().enumerate() {
            let (a, b) = (idx.centroid(i % n), idx.centroid((7 * i + 1) % n));
            for ((v, &a), &b) in m.h.row_mut(j as usize).iter_mut().zip(a).zip(b) {
                *v = 0.5 * (a + b);
            }
        }
        (m, changed)
    }

    #[test]
    fn builds_and_refreshes_hash_to_their_pins() {
        // Recorded before the assignment was tiled and split over
        // threads: the index of every catalog, then the same index
        // patched by one refresh, is the one the per-row loop built.
        const PINS: [(u64, u64); 7] = [
            (0xbafe_829c_23dc_609b, 0x33e2_6221_e083_58e3),
            (0x08b1_5d88_ca70_0263, 0x8903_05d7_3a52_8854),
            (0xeeff_bffe_549c_b204, 0x8ce9_3e90_508a_e289),
            (0x38c4_c781_3d5a_ae71, 0xf8c3_d3d2_361e_f2fe),
            (0xf820_54da_c1fa_0ca6, 0x0bd1_7ab3_6800_e2cd),
            (0x0b7a_475b_0a90_f9fa, 0x6138_344d_6dd5_7515),
            (0x4d0d_35a5_c00a_9bca, 0xae71_8332_6b7b_da9b),
        ];
        let mut got = Vec::new();
        for (n, _, m) in pinned_catalogs() {
            let s = ModelSnapshot::from_model(&m, 1, 100);
            let mut idx = IvfIndex::build(&s, params(n));
            let built = index_hash(&idx);
            let (m2, changed) = perturbed(&m, &idx);
            let s2 = ModelSnapshot::from_model(&m2, 2, 200);
            assert!(!idx.refresh(&s2, &changed), "5% churn patches");
            got.push((built, index_hash(&idx)));
        }
        let shown: Vec<String> = got
            .iter()
            .map(|(b, r)| format!("(0x{b:016x}, 0x{r:016x})"))
            .collect();
        assert_eq!(got, PINS, "{}", shown.join(",\n"));
    }

    #[test]
    fn both_kernel_forms_build_the_same_index_on_any_number_of_threads() {
        // Each form on one thread, and on three (chunks of uneven length,
        // and more threads than this box may have cores), builds the index
        // the portable form builds on one, bit for bit.
        for (i, (n, _, m)) in pinned_catalogs().into_iter().enumerate() {
            let s = ModelSnapshot::from_model(&m, 1, 100);
            let want = index_hash(&IvfIndex::build_on(Portable, &s, params(n), 1));
            let portable = IvfIndex::build_on(Portable, &s, params(n), 3);
            assert_eq!(index_hash(&portable), want, "catalog {i}, 3 threads");
            #[cfg(target_arch = "x86_64")]
            if let Some(avx2) = Avx2::detect() {
                for threads in [1, 3] {
                    let wide = IvfIndex::build_on(avx2, &s, params(n), threads);
                    assert_eq!(
                        index_hash(&wide),
                        want,
                        "catalog {i}, {threads} threads, AVX2"
                    );
                }
            }
        }
    }
}
