//! The compact, read-optimized model copy that queries score against.
//!
//! A [`ModelSnapshot`] is an immutable-once-published copy of a
//! [`FactorModel`] laid out for sequential scoring: both factor matrices are
//! flat `rows × k` `f64` buffers with **no** per-row cache-line padding —
//! the opposite trade-off from the training-side
//! `nomad_core::FactorSlab`, whose padding exists to keep concurrent
//! *writers* off each other's cache lines.  The read path wants maximum
//! density, not isolation.
//!
//! Scoring reuses the 4-accumulator [`nomad_linalg::dot`] kernel with its
//! pinned `(s0 + s1) + (s2 + s3)` association — the scan in whichever of
//! its two bit-identical forms the CPU has ([`nomad_linalg::vec_ops`]) —
//! which is what makes the workspace-wide bit-identity checks possible: a
//! quiesced snapshot scores every `(user, item)` pair to exactly the same
//! bits as [`FactorModel::predict`] on the assembled model.
//!
//! # The exact scan reads one byte a coordinate
//!
//! Streaming every `f64` item row per query is bound by the bytes, so a
//! snapshot also codes its item rows in one byte a coordinate: blocks of
//! `BLOCK` rows, each a coded run around zero (see `filter.rs`).  A query
//! scores only the rows their codes cannot rule out of the top `k`, and
//! answers as the full scan does, bit for bit.
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
//! Beside its rows a snapshot holds its codes, set before it is published,
//! and at most one [`IvfIndex`], set once by the epoch's first approximate
//! reader; a recycled buffer drops both.

use std::cell::UnsafeCell;
use std::cmp::Ordering;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

#[cfg(target_arch = "x86_64")]
use nomad_linalg::vec_ops::Avx2;
use nomad_linalg::vec_ops::{Kernels, Portable};
use nomad_matrix::Idx;
use nomad_sgd::{FactorMatrix, FactorModel};

use crate::filter::{fit, widen, CodedRun, Grid, Rerank};
use crate::ivf::IvfIndex;

/// Rows a block of the exact scan's codes holds ([`ScanCodes`]).
const BLOCK: usize = 1024;

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
    /// The exact scan's codes of these rows (module docs).
    pub(crate) codes: OnceLock<ScanCodes>,
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
            codes: OnceLock::new(),
        }
    }

    /// Builds a snapshot directly from an assembled model (used by the
    /// quiesce publish path and by tests).
    pub fn from_model(model: &FactorModel, epoch: u64, updates_at: u64) -> Self {
        let snap = Self::alloc(model.num_users(), model.num_items(), model.k());
        // SAFETY: `snap` is local — unreachable by any reader.
        unsafe { snap.fill_from_model(model) };
        snap.stamp(epoch, updates_at);
        snap.fill_codes(None);
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

    /// Exact top-k: the `k` best items the user has not seen, highest score
    /// first, ties broken by ascending item index (via `f64::total_cmp`, so
    /// the order is total and deterministic even for pathological floats),
    /// scoring only the items their codes cannot rule out (module docs).
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
    /// in release builds too.
    pub fn top_k(&self, user: Idx, k: usize, seen: &[Idx]) -> TopK {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            // SAFETY: `avx2` is the proof that this CPU has the feature.
            return unsafe { self.top_k_avx2(avx2, user, k, seen) };
        }
        self.top_k_on(Portable, user, k, seen)
    }

    /// [`Self::top_k_on`] compiled with AVX2 enabled, so the wide `dot`
    /// inlines into the scan and the code pass vectorises eight wide.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn top_k_avx2(&self, avx2: Avx2, user: Idx, k: usize, seen: &[Idx]) -> TopK {
        self.top_k_on(avx2, user, k, seen)
    }

    /// The scan behind [`Self::top_k`], over the kernel form `kernels`: the
    /// blocks in item order, each a coded run around zero (`proxy` 0).
    #[inline(always)]
    fn top_k_on<K: Kernels>(&self, kernels: K, user: Idx, k: usize, seen: &[Idx]) -> TopK {
        let wu = self.user_factor(user);
        let codes = self.codes.get().expect("coded before it is reachable");
        let mut rerank = Rerank::new(kernels, wu, k, seen, self.items, BLOCK.min(self.items));
        for b in 0..codes.lo_norms.len() {
            rerank.scan(kernels, self, &codes.run(b), 0.0, (b * BLOCK) as Idx..);
        }
        TopK {
            epoch: self.epoch(),
            updates_at: self.updates_at(),
            recs: rerank.into_recs(),
        }
    }

    /// Codes the rows for the exact scan, in `spare`'s storage where given:
    /// the publisher and [`Self::from_model`] do before a snapshot is
    /// reachable, so a query only reads the codes.
    pub(crate) fn fill_codes(&self, spare: Option<ScanCodes>) {
        self.codes
            .get_or_init(|| ScanCodes::encode(self.h.read(), self.k, spare));
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

    /// Copies a contiguous block of user rows, given row-major, starting at
    /// `first_row` (cooperative build: each training worker copies its own
    /// block).
    ///
    /// # Safety
    /// Publisher mutation contract, and no concurrent writer for rows
    /// `first_row..first_row + rows.len() / k` — guaranteed because each
    /// worker's block is a disjoint range of rows.
    pub(crate) unsafe fn copy_user_block(&self, first_row: usize, rows: &[f64]) {
        debug_assert_eq!(rows.len() % self.k, 0);
        debug_assert!(first_row * self.k + rows.len() <= self.users * self.k);
        self.w.write(first_row * self.k, rows);
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

/// The exact scan's one-byte codes of every item row: the catalog in
/// blocks of `BLOCK` contiguous rows (the last one shorter), each a coded
/// run around zero ([`crate::filter`]).
#[derive(Default)]
pub(crate) struct ScanCodes {
    /// `k` zeros (every block's offset); per block the grid's `lo` and step
    /// (`k` each) and `‖lo‖`; block `b`'s codes from byte `b·BLOCK·k`,
    /// coordinate-major within the block; every row's `ρ`.
    zero: Vec<f64>,
    lo: Vec<f64>,
    steps: Vec<f64>,
    lo_norms: Vec<f64>,
    codes: Vec<u8>,
    rho: Vec<f32>,
}

impl ScanCodes {
    /// Codes the `k`-wide rows of `h` a block at a time, grid then rows, in
    /// `old`'s storage where given: a steady-state publish allocates nothing.
    fn encode(h: &[f64], k: usize, old: Option<Self>) -> Self {
        let mut s = old.unwrap_or_default();
        for v in [&mut s.zero, &mut s.lo, &mut s.steps, &mut s.lo_norms] {
            v.clear();
        }
        s.codes.clear();
        s.rho.clear();
        s.rho.reserve(h.len() / k);
        s.zero.resize(k, 0.0);
        s.codes.resize(h.len(), 0);
        for (rows, codes) in h.chunks(BLOCK * k).zip(s.codes.chunks_mut(BLOCK * k)) {
            let (at, len) = (s.lo.len(), rows.len() / k);
            s.lo.resize(at + k, f64::INFINITY);
            s.steps.resize(at + k, f64::NEG_INFINITY);
            let (lo, step) = (&mut s.lo[at..], &mut s.steps[at..]);
            for row in rows.chunks_exact(k) {
                widen(lo, step, row, &s.zero);
            }
            fit(lo, step);
            let lo_norm = nomad_linalg::dot(lo, lo).sqrt();
            s.lo_norms.push(lo_norm);
            let (offset, lo, step) = (&s.zero[..], &*lo, &*step);
            let grid = Grid {
                offset,
                offset_norm: 0.0,
                lo,
                step,
                lo_norm,
            };
            for (i, row) in rows.chunks_exact(k).enumerate() {
                s.rho.push(grid.encode(row, &mut codes[i..], len));
            }
        }
        s
    }

    /// Block `b` as a coded run.
    fn run(&self, b: usize) -> CodedRun<'_> {
        let k = self.zero.len();
        let rows = b * BLOCK..(b * BLOCK + BLOCK).min(self.rho.len());
        CodedRun {
            grid: Grid {
                offset: &self.zero,
                offset_norm: 0.0,
                lo: &self.lo[b * k..(b + 1) * k],
                step: &self.steps[b * k..(b + 1) * k],
                lo_norm: self.lo_norms[b],
            },
            codes: &self.codes[rows.start * k..rows.end * k],
            rho: &self.rho[rows],
        }
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
    use crate::filter::ROWS_SCORED;
    use crate::ivf::tests::clustered;
    use nomad_linalg::SmallRng64;
    use nomad_sgd::InitStrategy;
    use std::cell::Cell;

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
        // Under one block, one block, and two blocks and a row (the last a
        // run of its own), `k` from 0 past the catalog.  k = 6 is one chunk
        // of the dot and a tail, k = 32 chunks only.
        for (items, k) in [(1, 6), (5, 32), (BLOCK, 6), (2 * BLOCK + 1, 32)] {
            assert_scans_like_the_full_sort(&model(3, items, k, 4), &[0, 1, 10, items, items + 3]);
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
    fn top_k_returns_fewer_when_items_run_out() {
        let m = model(2, 3, 4, 1);
        let snap = ModelSnapshot::from_model(&m, 1, 0);
        assert_eq!(snap.top_k(0, 10, &[]).recs.len(), 3);
        assert_eq!(snap.top_k(0, 10, &[0, 1, 2]).recs.len(), 0);
    }

    fn bits(recs: &[Recommendation]) -> Vec<(Idx, u64)> {
        recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
    }

    /// Every user's top `k` for each of `ks`, with no `seen` list and a long
    /// one, is the full sort's bit for bit, in both kernel forms: `top_k`
    /// runs the widest this CPU has, `top_k_on(Portable)` the other.
    fn assert_scans_like_the_full_sort(m: &FactorModel, ks: &[usize]) {
        let snap = ModelSnapshot::from_model(m, 1, 0);
        let seen: Vec<Idx> = (0..m.num_items() as Idx).filter(|j| j % 3 == 1).collect();
        for user in 0..m.num_users() as Idx {
            for (&k, seen) in ks.iter().flat_map(|k| [(k, &[][..]), (k, &seen[..])]) {
                let (want, at) = (bits(&naive_top_k(m, user, k, seen)), (user, k, seen.len()));
                assert_eq!(bits(&snap.top_k(user, k, seen).recs), want, "{at:?}");
                let portable = snap.top_k_on(Portable, user, k, seen).recs;
                assert_eq!(bits(&portable), want, "{at:?}, portable");
            }
        }
    }

    #[test]
    fn non_finite_rows_and_rows_past_the_cap_scan_like_the_full_sort() {
        // Seven +∞ rows make the k-th score +∞ for a positive user, and a
        // later +NaN row, its upper bound +∞ too, ranks above it: only a
        // strict skip test keeps it.  Beside them −∞, −NaN and all-NaN
        // rows, rows past `FILTER_CAP`, a user past it and a mixed one.
        let mut m = model(5, 2 * BLOCK + 1, 8, 5);
        for j in [3, 40, 41, 42, 43, 900, BLOCK + 7] {
            m.h.row_mut(j)[j % 8] = f64::INFINITY;
        }
        m.h.row_mut(BLOCK + 600)[2] = f64::NAN;
        m.h.row_mut(700)[1] = -f64::NAN;
        m.h.row_mut(5)[0] = f64::NEG_INFINITY;
        m.h.set_row(2 * BLOCK, &[f64::NAN; 8]);
        m.h.set_row(10, &[2e90; 8]);
        m.h.set_row(BLOCK + 1, &[-3e90; 8]);
        m.w.set_row(3, &[1e91; 8]);
        m.w.set_row(4, &[1.0, -0.5, 1.0, -0.5, 1.0, -0.5, 1.0, -0.5]);
        assert_scans_like_the_full_sort(&m, &[1, 3, 10]);
    }

    #[test]
    fn near_ties_below_one_quantisation_step_scan_like_the_full_sort() {
        // Two anchor rows a block pin its grid to `lo = −1/2`, step `1/128`,
        // and the rest come from a palette on it: residuals 0, and ties at
        // every rank.  In the second block each row sits 1 ulp off its
        // palette row, so a row just above the k-th comes after it, and
        // only `ρ`'s rounding allowance keeps one whose estimate rounds
        // below.  Beside them ±0.0 rows and a −0.0 user; 11 coordinates.
        let (dim, items) = (11, 2 * BLOCK + 1);
        let on_grid = |p: usize| -0.5 + p as f64 / 128.0;
        for seed in 0..4 {
            let mut rng = SmallRng64::new(seed);
            let mut m = FactorModel::init(6, items, dim, seed);
            let palette: Vec<Vec<f64>> = (0..5)
                .map(|_| (0..dim).map(|_| on_grid(1 + rng.next_below(254))).collect())
                .collect();
            for j in 0..items {
                let mut row = match j % BLOCK {
                    0 | 1 => vec![on_grid(255 * (j % BLOCK)); dim],
                    _ => palette[rng.next_below(palette.len())].clone(),
                };
                if j / BLOCK == 1 && j % BLOCK > 1 {
                    let v = &mut row[j % dim];
                    *v = [v.next_up(), v.next_down()][j % 2];
                }
                m.h.set_row(j, &row);
            }
            m.h.set_row(12, &vec![0.0; dim]);
            m.h.set_row(13, &vec![-0.0; dim]);
            m.w.set_row(5, &vec![-0.0; dim]);
            let snap = ModelSnapshot::from_model(&m, 1, 0);
            let codes = snap.codes.get().expect("coded");
            let grids = codes.lo[..2 * dim].iter().zip(&codes.steps);
            assert!(grids.into_iter().all(|g| g == (&-0.5, &(1.0 / 128.0))));
            assert!(codes.rho[14..BLOCK]
                .iter()
                .all(|&r| f64::from(r) < 0.01 / 128.0));
            assert_scans_like_the_full_sort(&m, &[1, 2, 5, 10, 41]);
        }
    }

    #[test]
    fn the_exact_scan_scores_a_sliver_of_the_catalog() {
        // A clustered catalog like `serve-static`'s, then an unclustered
        // one: under 1% of the rows are scored (84 and 53 a query when
        // this was written).
        let items = 65_536;
        for m in [
            clustered(16, items, 32, 64, 9),
            FactorModel::init(16, items, 32, 9),
        ] {
            let snap = ModelSnapshot::from_model(&m, 1, 0);
            let before = ROWS_SCORED.with(Cell::get);
            for user in 0..16 {
                assert_eq!(snap.top_k(user, 10, &[]).recs.len(), 10);
            }
            let scored = (ROWS_SCORED.with(Cell::get) - before) / 16;
            assert!(scored < items / 100, "{scored} rows a query of {items}");
        }
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
