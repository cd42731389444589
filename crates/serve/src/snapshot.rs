//! The compact, read-optimized model copy that queries score against.
//!
//! A [`ModelSnapshot`] is an immutable-once-published copy of a
//! [`FactorModel`] laid out for sequential scoring: both factor matrices are
//! flat `rows × k` `f64` buffers with **no** per-row cache-line padding —
//! the opposite trade-off from the training-side
//! `nomad_core::FactorSlab`, whose padding exists to keep concurrent
//! *writers* off each other's cache lines.  A top-k query touches one user
//! row and then streams every item row exactly once, so the read path wants
//! maximum density, not isolation.
//!
//! Scoring reuses the 4-accumulator [`nomad_linalg::dot`] kernel with its
//! pinned `(s0 + s1) + (s2 + s3)` association — the scan in whichever of
//! its two bit-identical forms the CPU has ([`nomad_linalg::vec_ops`]) —
//! which is what makes the workspace-wide bit-identity checks possible: a
//! quiesced snapshot scores every `(user, item)` pair to exactly the same
//! bits as [`FactorModel::predict`] on the assembled model.
//!
//! # Interior mutability and the publish contract
//!
//! The factor buffers sit behind [`UnsafeCell`] so that the publisher can
//! build a snapshot *in place* (several worker threads copying disjoint
//! rows concurrently, or a recycled buffer being overwritten without a
//! fresh allocation).  The safety contract is enforced by
//! [`crate::SnapshotPublisher`], the only code that ever mutates one:
//!
//! * a snapshot is only written while it is **unreachable by readers** —
//!   either freshly allocated, or a recycled buffer whose `Arc` strong
//!   count is 1 (the publisher holds the only reference);
//! * concurrent writers during a cooperative build touch **disjoint rows**
//!   (the NOMAD token/ownership argument, re-used verbatim);
//! * once published, a snapshot's rows are never written again.
//!
//! Beside its rows a snapshot holds at most one [`IvfIndex`], set once by
//! the epoch's first approximate reader; a recycled buffer drops it.

use std::cell::UnsafeCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

#[cfg(target_arch = "x86_64")]
use nomad_linalg::vec_ops::Avx2;
use nomad_linalg::vec_ops::{Kernels, Portable};
use nomad_matrix::Idx;
use nomad_sgd::{FactorMatrix, FactorModel};

use crate::ivf::IvfIndex;

/// One recommended item with its predicted score `⟨w_user, h_item⟩`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The recommended item.
    pub item: Idx,
    /// The predicted rating.
    pub score: f64,
}

/// The answer to one top-k query, tagged with the snapshot it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Publish epoch of the snapshot that answered the query.
    pub epoch: u64,
    /// Cumulative SGD-update count when that snapshot was initiated — the
    /// query's freshness stamp (see
    /// [`crate::SnapshotPublisher::staleness`]).
    pub updates_at: u64,
    /// The recommendations, highest score first; ties broken by ascending
    /// item index, so the result is fully deterministic.
    pub recs: Vec<Recommendation>,
}

/// A flat `f64` buffer mutable only through the publisher's contract
/// (see the module docs).
///
/// Stored as per-element [`UnsafeCell`]s so that concurrent cooperative
/// builders writing *disjoint rows* never materialize aliasing `&mut`
/// references over the whole allocation — every store goes through its own
/// element's cell, which is exactly the aliasing story Rust's model
/// permits (a single whole-buffer `UnsafeCell<Box<[f64]>>` would force
/// writers to conjure overlapping exclusive references even for disjoint
/// ranges).
struct FrozenBuf(Box<[UnsafeCell<f64>]>);

// SAFETY: the buffer is only mutated while unreachable by readers, and
// concurrent build-time writers touch disjoint elements; see the module
// docs.
unsafe impl Sync for FrozenBuf {}
// SAFETY: plain `f64` data.
unsafe impl Send for FrozenBuf {}

impl FrozenBuf {
    fn zeroed(len: usize) -> Self {
        Self((0..len).map(|_| UnsafeCell::new(0.0)).collect())
    }

    #[inline]
    fn read(&self) -> &[f64] {
        // SAFETY: `UnsafeCell<f64>` is `repr(transparent)` over `f64`, and
        // readers only exist once the snapshot is published — a published
        // snapshot is never written (publisher contract).
        unsafe { &*(std::ptr::from_ref::<[UnsafeCell<f64>]>(&self.0) as *const [f64]) }
    }

    /// # Safety
    /// Caller must hold the publisher's mutation contract for the elements
    /// `offset..offset + src.len()`: the snapshot is unreachable by
    /// readers, and no other writer touches these indices concurrently.
    #[inline]
    unsafe fn write(&self, offset: usize, src: &[f64]) {
        debug_assert!(offset + src.len() <= self.0.len());
        // Element-wise through each cell: no `&mut` over the allocation
        // ever exists, so disjoint-range writers cannot alias.  The loop
        // is plain `f64` stores and vectorizes.
        for (cell, &v) in self.0[offset..offset + src.len()].iter().zip(src) {
            *cell.get() = v;
        }
    }
}

/// A compact, read-optimized, immutable-once-published copy of a factor
/// model, stamped with its publish epoch and freshness.
///
/// Obtained from [`crate::SnapshotPublisher::latest`]; every accessor is a
/// plain read with no synchronization — the snapshot an `Arc` hands out can
/// never change underneath the reader, which is the whole point of
/// epoch-published serving.
pub struct ModelSnapshot {
    users: usize,
    items: usize,
    k: usize,
    /// Publish epoch (stamped by the publisher just before insertion).
    epoch: AtomicU64,
    /// Cumulative update count at snapshot initiation.
    updates_at: AtomicU64,
    /// User factors, `users × k`, row-major.
    w: FrozenBuf,
    /// Item factors, `items × k`, row-major and dense — the sequential
    /// scoring layout.
    h: FrozenBuf,
    /// The IVF index over these rows, stamped with this snapshot (shared
    /// with the publisher, which patches the next epoch's from it).
    pub(crate) ivf: OnceLock<Arc<IvfIndex>>,
}

impl ModelSnapshot {
    /// An all-zero snapshot of the given dimensions (publisher-internal;
    /// filled before it is ever published).
    pub(crate) fn alloc(users: usize, items: usize, k: usize) -> Self {
        assert!(k > 0, "latent dimension k must be positive");
        Self {
            users,
            items,
            k,
            epoch: AtomicU64::new(0),
            updates_at: AtomicU64::new(0),
            w: FrozenBuf::zeroed(users * k),
            h: FrozenBuf::zeroed(items * k),
            ivf: OnceLock::new(),
        }
    }

    /// Builds a snapshot directly from an assembled model (used by the
    /// quiesce publish path and by tests).
    pub fn from_model(model: &FactorModel, epoch: u64, updates_at: u64) -> Self {
        let snap = Self::alloc(model.num_users(), model.num_items(), model.k());
        // SAFETY: `snap` is local — unreachable by any reader.
        unsafe { snap.fill_from_model(model) };
        snap.stamp(epoch, updates_at);
        snap
    }

    /// Number of users in the snapshot.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.users
    }

    /// Number of items in the snapshot.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.items
    }

    /// Latent dimension `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Publish epoch (monotone per publisher, starting at 1).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(AtomicOrdering::Acquire)
    }

    /// Cumulative SGD-update count when the snapshot was initiated.  A
    /// query answered from this snapshot is at most
    /// `now_updates - updates_at()` updates stale.
    #[inline]
    pub fn updates_at(&self) -> u64 {
        self.updates_at.load(AtomicOrdering::Acquire)
    }

    /// The IVF index over this snapshot, once an approximate query has
    /// asked for it (see [`crate::publisher`]).
    #[inline]
    pub fn ivf(&self) -> Option<&IvfIndex> {
        self.ivf.get().map(|index| &**index)
    }

    /// User factor row `i`.
    ///
    /// # Panics
    /// Panics if `user` is out of bounds.
    #[inline]
    pub fn user_factor(&self, user: Idx) -> &[f64] {
        let i = user as usize;
        assert!(i < self.users, "user {i} out of bounds ({})", self.users);
        &self.w.read()[i * self.k..(i + 1) * self.k]
    }

    /// Item factor row `j`.
    ///
    /// # Panics
    /// Panics if `item` is out of bounds.
    #[inline]
    pub fn item_factor(&self, item: Idx) -> &[f64] {
        let j = item as usize;
        assert!(j < self.items, "item {j} out of bounds ({})", self.items);
        &self.h.read()[j * self.k..(j + 1) * self.k]
    }

    /// Predicted rating `⟨w_user, h_item⟩` — bit-identical to
    /// [`FactorModel::predict`] on the model the snapshot copies, because
    /// both go through the same [`nomad_linalg::dot`] kernel.
    #[inline]
    pub fn score(&self, user: Idx, item: Idx) -> f64 {
        nomad_linalg::dot(self.user_factor(user), self.item_factor(item))
    }

    /// Exact brute-force top-k: scores every item the user has not seen and
    /// returns the `k` best, highest score first, ties broken by ascending
    /// item index (via `f64::total_cmp`, so the order is total and
    /// deterministic even for pathological floats).
    ///
    /// `seen` must be sorted ascending with no duplicates
    /// ([`crate::UserQuery::with_seen`] produces exactly that); items it
    /// contains are excluded from the candidates (the classic "don't
    /// recommend what the user already rated" filter).  Fewer than `k`
    /// results are returned when fewer unseen items exist.
    ///
    /// # Panics
    /// Panics if `user` is out of bounds or `seen` is not sorted — an
    /// unsorted filter would *silently* leak already-rated items (binary
    /// search misses them), so the O(len) precondition check is enforced
    /// in release builds too; it is noise next to the O(items·k) scan.
    pub fn top_k(&self, user: Idx, k: usize, seen: &[Idx]) -> TopK {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            // SAFETY: `avx2` is the proof that this CPU has the feature.
            return unsafe { self.top_k_avx2(avx2, user, k, seen) };
        }
        self.top_k_on(Portable, user, k, seen)
    }

    /// [`Self::top_k_on`] compiled with AVX2 enabled, so the wide `dot`
    /// inlines into the scan.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn top_k_avx2(&self, avx2: Avx2, user: Idx, k: usize, seen: &[Idx]) -> TopK {
        self.top_k_on(avx2, user, k, seen)
    }

    /// The scan behind [`Self::top_k`], over the kernel form `kernels`.
    #[inline(always)]
    fn top_k_on<K: Kernels>(&self, kernels: K, user: Idx, k: usize, seen: &[Idx]) -> TopK {
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "seen must be sorted ascending without duplicates"
        );
        let wu = self.user_factor(user);
        let h = self.h.read();
        // Bounded selection via a std BinaryHeap whose `Ord` is the
        // *reverse* rank ([`Weakest`]): the peek is the weakest kept
        // candidate, and a scanned item replaces it only if it ranks
        // higher.
        let mut heap: BinaryHeap<Weakest> = BinaryHeap::with_capacity(k.min(self.items) + 1);
        for j in 0..self.items {
            let item = j as Idx;
            if !seen.is_empty() && seen.binary_search(&item).is_ok() {
                continue;
            }
            let score = kernels.dot(wu, &h[j * self.k..(j + 1) * self.k]);
            let cand = Recommendation { item, score };
            if heap.len() < k {
                heap.push(Weakest(cand));
            } else if k > 0 && ranks_higher(&cand, &heap.peek().expect("k > 0").0) {
                heap.pop();
                heap.push(Weakest(cand));
            }
        }
        // Ascending `Weakest` order is exactly rank order, best first.
        let recs = heap.into_sorted_vec().into_iter().map(|w| w.0).collect();
        TopK {
            epoch: self.epoch(),
            updates_at: self.updates_at(),
            recs,
        }
    }

    /// Copies the snapshot back into a dense [`FactorModel`] (bit-identity
    /// checks and tests; the serving path never needs this).
    pub fn to_model(&self) -> FactorModel {
        let mut w = FactorMatrix::zeros(self.users, self.k);
        let mut h = FactorMatrix::zeros(self.items, self.k);
        for i in 0..self.users {
            w.set_row(i, self.user_factor(i as Idx));
        }
        for j in 0..self.items {
            h.set_row(j, self.item_factor(j as Idx));
        }
        FactorModel { w, h }
    }

    /// `true` when the snapshot's buffers fit a `users × k` / `items × k`
    /// model (the recycling check).
    pub(crate) fn dims_match(&self, users: usize, items: usize, k: usize) -> bool {
        self.users == users && self.items == items && self.k == k
    }

    /// Stamps the publish metadata (publisher-internal, called while the
    /// snapshot is still unreachable by readers).
    pub(crate) fn stamp(&self, epoch: u64, updates_at: u64) {
        self.epoch.store(epoch, AtomicOrdering::Release);
        self.updates_at.store(updates_at, AtomicOrdering::Release);
    }

    /// Copies a whole model into the buffers.
    ///
    /// # Safety
    /// Publisher mutation contract: the snapshot must be unreachable by
    /// readers and no other writer may be active.
    pub(crate) unsafe fn fill_from_model(&self, model: &FactorModel) {
        assert!(self.dims_match(model.num_users(), model.num_items(), model.k()));
        self.w.write(0, model.w.as_slice());
        self.h.write(0, model.h.as_slice());
    }

    /// Copies a contiguous block of user rows starting at `first_row`
    /// (cooperative build: each training worker copies its own block).
    ///
    /// # Safety
    /// Publisher mutation contract, and no concurrent writer for these
    /// rows — guaranteed because each worker owns a disjoint user block.
    pub(crate) unsafe fn copy_user_block(&self, first_row: usize, rows: &FactorMatrix) {
        debug_assert_eq!(rows.k(), self.k);
        debug_assert!(first_row + rows.rows() <= self.users);
        self.w.write(first_row * self.k, rows.as_slice());
    }

    /// Copies one item row (cooperative build: the worker currently owning
    /// token `j` copies row `j`).
    ///
    /// # Safety
    /// Publisher mutation contract, and the caller must own token `item` —
    /// NOMAD's invariant that a token is in exactly one place makes row
    /// writers disjoint.
    pub(crate) unsafe fn copy_item_row(&self, item: Idx, row: &[f64]) {
        debug_assert_eq!(row.len(), self.k);
        debug_assert!((item as usize) < self.items);
        self.h.write(item as usize * self.k, row);
    }
}

impl fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("users", &self.users)
            .field("items", &self.items)
            .field("k", &self.k)
            .field("epoch", &self.epoch())
            .field("updates_at", &self.updates_at())
            .finish()
    }
}

/// `true` when `a` ranks strictly higher than `b`: higher score first,
/// equal scores broken by ascending item index.  Built on `total_cmp`, so
/// this is a strict total order over all candidates.  Shared with the IVF
/// rerank ([`crate::ivf`]) — using one ordering everywhere is what makes
/// "probe everything" bit-identical to the exact scan.
#[inline]
pub(crate) fn ranks_higher(a: &Recommendation, b: &Recommendation) -> bool {
    match a.score.total_cmp(&b.score) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a.item < b.item,
    }
}

/// Reverse-rank ordering for the bounded top-k heap: `Greater` means
/// "ranks lower", so a max-[`BinaryHeap`] of `Weakest` peeks the weakest
/// kept candidate and `into_sorted_vec` yields rank order (best first).
/// Total because [`ranks_higher`] is built on `total_cmp`.
pub(crate) struct Weakest(pub(crate) Recommendation);

impl Ord for Weakest {
    fn cmp(&self, other: &Self) -> Ordering {
        // Delegates to `ranks_higher` so the ordering contract lives in
        // exactly one place.
        if ranks_higher(&self.0, &other.0) {
            Ordering::Less
        } else if ranks_higher(&other.0, &self.0) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
}

impl PartialOrd for Weakest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Weakest {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Weakest {}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_sgd::InitStrategy;

    fn model(users: usize, items: usize, k: usize, seed: u64) -> FactorModel {
        FactorModel::init(users, items, k, seed)
    }

    /// Reference top-k: full sort with the same deterministic order.
    fn naive_top_k(m: &FactorModel, user: Idx, k: usize, seen: &[Idx]) -> Vec<Recommendation> {
        let mut all: Vec<Recommendation> = (0..m.num_items() as Idx)
            .filter(|j| seen.binary_search(j).is_err())
            .map(|j| Recommendation {
                item: j,
                score: m.predict(user, j),
            })
            .collect();
        all.sort_unstable_by(|a, b| {
            if ranks_higher(a, b) {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        });
        all.truncate(k);
        all
    }

    #[test]
    fn snapshot_round_trips_the_model_bit_for_bit() {
        let m = model(7, 5, 9, 42);
        let snap = ModelSnapshot::from_model(&m, 3, 1000);
        assert_eq!(snap.to_model(), m);
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.updates_at(), 1000);
        for i in 0..7 {
            for j in 0..5 {
                assert_eq!(snap.score(i, j).to_bits(), m.predict(i, j).to_bits());
            }
        }
    }

    #[test]
    fn top_k_matches_the_naive_reference() {
        let m = model(6, 40, 8, 7);
        let snap = ModelSnapshot::from_model(&m, 1, 0);
        for user in 0..6 {
            for k in [0, 1, 3, 8, 40, 100] {
                let got = snap.top_k(user, k, &[]).recs;
                assert_eq!(got, naive_top_k(&m, user, k, &[]), "user {user} k {k}");
            }
        }
    }

    #[test]
    fn top_k_breaks_ties_by_ascending_item() {
        // A constant model scores every item identically.
        let m = FactorModel::init_with(2, 10, 4, InitStrategy::Constant { value: 0.5 }, 0);
        let snap = ModelSnapshot::from_model(&m, 1, 0);
        let top = snap.top_k(0, 4, &[]);
        let items: Vec<Idx> = top.recs.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![0, 1, 2, 3]);
    }

    #[test]
    fn top_k_filters_seen_items() {
        let m = model(3, 12, 4, 9);
        let snap = ModelSnapshot::from_model(&m, 1, 0);
        let unfiltered = snap.top_k(1, 12, &[]).recs;
        let seen: Vec<Idx> = vec![unfiltered[0].item, unfiltered[2].item];
        let mut seen_sorted = seen.clone();
        seen_sorted.sort_unstable();
        let filtered = snap.top_k(1, 12, &seen_sorted);
        assert_eq!(filtered.recs.len(), 10);
        assert!(filtered.recs.iter().all(|r| !seen.contains(&r.item)));
        assert_eq!(filtered.recs, naive_top_k(&m, 1, 12, &seen_sorted));
    }

    #[test]
    fn both_kernel_forms_scan_to_the_same_answer() {
        // `top_k` runs the widest form this CPU has; `top_k_on(Portable)`
        // keeps the other instantiation tested there.  k = 6 is one chunk
        // and a tail, k = 32 chunks only.
        for k in [6, 32] {
            let m = model(3, 50, k, 21);
            let snap = ModelSnapshot::from_model(&m, 1, 0);
            let seen = [2, 17, 49];
            for user in 0..3 {
                let top = snap.top_k(user, 10, &seen);
                assert_eq!(top, snap.top_k_on(Portable, user, 10, &seen));
                assert_eq!(top.recs, naive_top_k(&m, user, 10, &seen));
                for r in &top.recs {
                    assert_eq!(r.score.to_bits(), m.predict(user, r.item).to_bits());
                }
            }
        }
    }

    #[test]
    fn top_k_returns_fewer_when_items_run_out() {
        let m = model(2, 3, 4, 1);
        let snap = ModelSnapshot::from_model(&m, 1, 0);
        assert_eq!(snap.top_k(0, 10, &[]).recs.len(), 3);
        assert_eq!(snap.top_k(0, 10, &[0, 1, 2]).recs.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_user_panics() {
        let snap = ModelSnapshot::from_model(&model(2, 2, 2, 0), 1, 0);
        let _ = snap.top_k(2, 1, &[]);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_seen_panics_instead_of_silently_leaking() {
        let snap = ModelSnapshot::from_model(&model(2, 5, 2, 0), 1, 0);
        let _ = snap.top_k(0, 3, &[4, 1]);
    }
}
