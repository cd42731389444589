//! Epoch-based snapshot publication: lock-free readers, non-blocking
//! trainers.
//!
//! The publisher owns a small ring of [`ModelSnapshot`] slots.  Publishing
//! epoch `e` writes slot `e % SLOTS` and then advances the epoch counter;
//! [`SnapshotPublisher::latest`] pins a slot with a reader count, re-checks
//! the epoch, and clones the slot's `Arc` — a handful of atomic operations,
//! no mutex, and never a lock any training thread contends on.  A reader
//! that loses the race (the publisher lapped it) unpins and retries; a
//! publisher that finds stragglers pinning its target slot spins for the
//! few instructions the reader needs to fail its own re-check.
//!
//! **Reclamation** is reference-counted: readers hold `Arc` clones, so an
//! old epoch's memory lives exactly until its last reader drops.  When the
//! ring displaces an epoch whose `Arc` turns out to be unshared, the
//! allocation is recycled through a spare pool and the next snapshot is
//! built in place — steady-state publishing allocates nothing, which is
//! what lets the training engines publish without breaking their
//! allocation-free hot path (asserted by `nomad-core`'s counting-allocator
//! test).
//!
//! # Cooperative builds (threaded engine)
//!
//! A mid-run snapshot of the threaded engine cannot be taken by any single
//! thread: slab row `j` may only be read by the worker currently holding
//! token `j`.  So the snapshot is built **cooperatively**, by the same
//! ownership argument the trainer itself uses: when a build is in flight,
//! each worker copies item row `j` into the build buffer the first time it
//! processes token `j` during that build, and copies its own user block the
//! first time it notices the build.  A generation counter per row makes
//! "first time this build" an O(1) check with no reset pass, and the last
//! contribution publishes the snapshot.  The per-hop cost when **no** build
//! is in flight is two relaxed atomic loads — the hot path stays
//! allocation-free and lock-free.
//!
//! The resulting snapshot is *asynchronously consistent*: row `j` holds the
//! value it had when token `j` first passed a worker during the build —
//! exactly the consistency NOMAD's own updates see.  At every quiesce point
//! the engines force-publish the assembled model, so a quiesced snapshot is
//! bit-identical to the `FactorModel` the run returns.
//!
//! # The IVF index
//!
//! The publisher maintains the [`IvfIndex`] approximate queries probe, one
//! per queried epoch, in the snapshot's `OnceLock` ([`ModelSnapshot::ivf`]).
//! Publishing does no index work: an epoch's first approximate query
//! patches the run's newest index with the rows changed since (first in a
//! run, it builds one), and later queries of the epoch only read it.
//!
//! It does code the rows for the exact scan before the epoch is reachable;
//! a recycled buffer drops its codes, whose storage the next publish uses.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use nomad_matrix::Idx;
use nomad_sgd::FactorModel;

use crate::ivf::{IvfIndex, IvfParams};
use crate::snapshot::{ModelSnapshot, ScanCodes};

/// Ring capacity.  Readers may lag the publisher by up to `SLOTS - 2`
/// epochs before they are forced to retry; old snapshots stay alive beyond
/// that through their readers' `Arc` clones.
const SLOTS: usize = 4;

/// One ring slot.
struct Slot {
    /// Readers currently inside the pin/re-check/clone window.
    pins: AtomicUsize,
    /// The published snapshot for the slot's current epoch.
    snap: UnsafeCell<Option<Arc<ModelSnapshot>>>,
}

/// The epoch ring (see the module docs for the protocol).
struct Ring {
    /// Latest published epoch; 0 means nothing published yet.
    epoch: AtomicU64,
    slots: [Slot; SLOTS],
}

impl Ring {
    fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            slots: std::array::from_fn(|_| Slot {
                pins: AtomicUsize::new(0),
                snap: UnsafeCell::new(None),
            }),
        }
    }

    /// The lock-free reader: pin, re-check, clone.
    fn latest(&self) -> Option<Arc<ModelSnapshot>> {
        loop {
            let e = self.epoch.load(Ordering::SeqCst);
            if e == 0 {
                return None;
            }
            let slot = &self.slots[(e % SLOTS as u64) as usize];
            slot.pins.fetch_add(1, Ordering::SeqCst);
            let e2 = self.epoch.load(Ordering::SeqCst);
            // Slot `e % SLOTS` is next rewritten while epoch `e + SLOTS` is
            // being published, which can only start once `e + SLOTS - 1` is
            // current — so the pinned snapshot is safe to clone as long as
            // the publisher is at most `SLOTS - 2` epochs ahead.
            if e2 >= e && e2 - e < SLOTS as u64 - 1 {
                // SAFETY: the pin plus the epoch re-check above guarantee
                // the publisher is not rewriting this slot (it spins on
                // `pins` before doing so), so the Option is stable.
                let arc = unsafe { (*slot.snap.get()).clone() };
                slot.pins.fetch_sub(1, Ordering::SeqCst);
                debug_assert!(arc.is_some(), "published epoch with empty slot");
                return arc;
            }
            slot.pins.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Publishes the next epoch (single publisher at a time — the
    /// publisher-side contract).  Returns the displaced snapshot, if any,
    /// for recycling.
    fn publish(&self, snap: Arc<ModelSnapshot>) -> Option<Arc<ModelSnapshot>> {
        let e = self.epoch.load(Ordering::SeqCst) + 1;
        let slot = &self.slots[(e % SLOTS as u64) as usize];
        // Stragglers pinning this slot loaded an epoch that is now
        // `SLOTS - 1` behind; their re-check is guaranteed to fail, so the
        // wait is normally a few instructions per straggler.  A straggler
        // *preempted* inside its pin window can hold the pin for a whole
        // scheduling quantum though, so after a short spin, yield the core
        // to it instead of burning a trainer's timeslice.
        let mut spins = 0u32;
        while slot.pins.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: no reader can validly pin this slot until the epoch
        // advances below, and the pin spin above flushed stragglers.
        let displaced = unsafe { (*slot.snap.get()).replace(snap) };
        self.epoch.store(e, Ordering::SeqCst);
        displaced
    }
}

/// Cooperative-build state (threaded engine only; see module docs).
struct CoopBuild {
    /// Generation of the in-flight build, 0 when none.  Stored *after* the
    /// build buffer and counters are initialized (release), loaded by
    /// workers on every hop (acquire).
    active_gen: AtomicU64,
    /// Monotone build counter (generation source).
    gen: AtomicU64,
    /// Claim flag covering prepare → finalize/abort, so builds and the
    /// threshold check never race.
    building: AtomicBool,
    /// Update-count threshold for the next build/publish.
    next_at: AtomicU64,
    /// Contributions still missing from the in-flight build
    /// (`items + workers`); the decrement to zero finalizes.
    remaining: AtomicUsize,
    /// Update clock at build initiation — the published freshness stamp.
    updates_at: AtomicU64,
    /// The buffer being built.  Written by the initiator before
    /// `active_gen` is set; taken by the finalizer after `remaining` hits
    /// zero; partially-filled buffers are recycled on abort.
    buf: UnsafeCell<Option<Arc<ModelSnapshot>>>,
    /// Per-item-row build generation: row `j` has been copied for build `g`
    /// iff `rows_gen[j] == g`.  Only the worker holding token `j` touches
    /// entry `j`.  Replaced only at quiesce (`begin_run`/`grow`).
    rows_gen: UnsafeCell<Box<[AtomicU64]>>,
    /// Per-worker build generation for the user-block copy; only worker
    /// `q` touches entry `q`.
    workers_gen: UnsafeCell<Box<[AtomicU64]>>,
    /// Per-item-row **update clock**: the update count at the last hop
    /// that (may have) changed row `j`.  This is what delta publishing
    /// reads — a consumer holding the snapshot published at `u` needs
    /// only the rows with `row_clocks[j] >= u` to advance to the next
    /// epoch (see [`SnapshotPublisher::changed_items_since`]).  Written
    /// by the worker holding token `j` (one relaxed `fetch_max` per
    /// hop) and by the exact-publish content diff; replaced only at
    /// quiesce under the `shared` lock.
    row_clocks: UnsafeCell<Box<[AtomicU64]>>,
}

/// Dimensions of the model being trained, bound at [`SnapshotPublisher::begin_run`].
#[derive(Clone, Copy)]
struct Dims {
    users: usize,
    items: usize,
    k: usize,
    workers: usize,
}

/// State shared between the rare publisher-side operations (prepare,
/// finalize, quiesce publish, begin/grow).  Readers touch it only for the
/// row clocks and once per queried epoch; never per query or per hop.
struct PubShared {
    dims: Option<Dims>,
    /// A displaced, unshared snapshot whose allocation the next publish
    /// reuses.
    spare: Option<Arc<ModelSnapshot>>,
    /// The scan codes a recycled snapshot dropped, whose storage the next
    /// publish codes its rows in.
    spare_codes: Option<ScanCodes>,
    /// The newest IVF index derived this run: the next queried epoch's
    /// base, whose params are the run's.
    ivf: Option<Arc<IvfIndex>>,
    /// First epoch of the current run (the row clocks restart with it).
    run_epoch: u64,
}

/// Publishes epoch snapshots of a live-training model to concurrent,
/// lock-free readers.
///
/// One publisher serves one training run at a time (an engine binds it with
/// [`SnapshotPublisher::begin_run`]); queries keep working across runs —
/// the epoch counter is monotone for the publisher's lifetime.
///
/// See the module docs for the full protocol and safety argument.
pub struct SnapshotPublisher {
    publish_every: u64,
    ring: Ring,
    shared: Mutex<PubShared>,
    coop: CoopBuild,
    /// Snapshots published since `begin_run` (or construction).
    published: AtomicU64,
    /// `updates_at` of the most recent publish.
    last_updates_at: AtomicU64,
    /// Largest gap between consecutive published `updates_at` stamps —
    /// the measured freshness bound.
    max_gap: AtomicU64,
    /// Debug guard for the single-publisher contract.
    #[cfg(debug_assertions)]
    publishing: AtomicBool,
}

// SAFETY: all interior mutability is protected by the protocols documented
// on the fields and in the module docs — the ring by pin counts + epoch
// re-checks, the build buffer by the generation/remaining protocol, the
// generation arrays by per-index ownership, and `shared` by its mutex.
unsafe impl Sync for SnapshotPublisher {}
// SAFETY: owned data; all of it may move between threads.
unsafe impl Send for SnapshotPublisher {}

impl SnapshotPublisher {
    /// Creates a publisher that targets one snapshot every `publish_every`
    /// SGD updates.
    ///
    /// # Panics
    /// Panics if `publish_every == 0`.
    pub fn new(publish_every: u64) -> Self {
        assert!(publish_every > 0, "publish interval must be positive");
        Self {
            publish_every,
            ring: Ring::new(),
            shared: Mutex::new(PubShared {
                dims: None,
                spare: None,
                spare_codes: None,
                ivf: None,
                run_epoch: 0,
            }),
            coop: CoopBuild {
                active_gen: AtomicU64::new(0),
                gen: AtomicU64::new(0),
                building: AtomicBool::new(false),
                next_at: AtomicU64::new(publish_every),
                remaining: AtomicUsize::new(0),
                updates_at: AtomicU64::new(0),
                buf: UnsafeCell::new(None),
                rows_gen: UnsafeCell::new(Box::new([])),
                workers_gen: UnsafeCell::new(Box::new([])),
                row_clocks: UnsafeCell::new(Box::new([])),
            },
            published: AtomicU64::new(0),
            last_updates_at: AtomicU64::new(0),
            max_gap: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            publishing: AtomicBool::new(false),
        }
    }

    /// The configured publish interval (the freshness target), in updates.
    pub fn publish_every(&self) -> u64 {
        self.publish_every
    }

    /// The most recently published snapshot, or `None` before the first
    /// publish.  Lock-free: a handful of atomic operations, never a lock.
    pub fn latest(&self) -> Option<Arc<ModelSnapshot>> {
        self.ring.latest()
    }

    /// The latest published epoch (0 before the first publish).
    pub fn epoch(&self) -> u64 {
        self.ring.epoch.load(Ordering::SeqCst)
    }

    /// Snapshots published since the last [`SnapshotPublisher::begin_run`].
    pub fn snapshots_published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// The largest observed gap (in updates) between consecutive published
    /// snapshots this run — the measured freshness bound.  Tests assert
    /// this stays within `publish_every` plus the engines' documented
    /// overshoot.
    pub fn max_publish_gap(&self) -> u64 {
        self.max_gap.load(Ordering::SeqCst)
    }

    /// How stale the latest snapshot is, given the current update clock;
    /// `None` before the first publish.
    pub fn staleness(&self, now_updates: u64) -> Option<u64> {
        self.latest()
            .map(|s| now_updates.saturating_sub(s.updates_at()))
    }

    /// The item rows whose update clock reached `since` or later — the
    /// **delta set**: a consumer holding the snapshot published at
    /// update count `since` needs only these rows (plus its own user-row
    /// bookkeeping) to reproduce the latest snapshot's item matrix.
    ///
    /// The comparison is inclusive (`>=`) and the clocks are stamped at
    /// or after the hop that changed a row, so the set **over**-
    /// approximates: it may name rows whose bits did not change (the
    /// consumer re-ships identical bits — harmless), but never misses a
    /// row that did.  The `delta_equiv` suite pins that soundness
    /// invariant against interleaved train/publish/grow histories.
    ///
    /// Ascending item order.  Empty before anything was published or
    /// bound (no clocks exist to compare).  The clocks last one run:
    /// [`SnapshotPublisher::begin_run`] restarts them at 0, so `since`
    /// must come from a snapshot of the current run.
    pub fn changed_items_since(&self, since: u64) -> Vec<Idx> {
        let shared = self.shared.lock().expect("publisher state poisoned");
        self.changed_under(&shared, since)
    }

    /// [`SnapshotPublisher::changed_items_since`] for a caller that holds
    /// the `shared` lock.
    fn changed_under(&self, _shared: &PubShared, since: u64) -> Vec<Idx> {
        // SAFETY: the clock array is only replaced under the `shared`
        // lock the caller holds (`begin_run`/`grow`/lazy sizing); element
        // reads are atomic.
        let clocks = unsafe { &*self.coop.row_clocks.get() };
        clocks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Ordering::Relaxed) >= since)
            .map(|(j, _)| j as Idx)
            .collect()
    }

    /// The latest snapshot with its IVF index attached; `None` before the
    /// first publish.  The epoch's first request derives the index (see
    /// the module docs) while the epoch's other readers wait, and a pin a
    /// publish overtook first re-pins, so an index is patched only forward.
    /// The run's first request fixes the params; later ones share its index.
    pub(crate) fn latest_with_ivf(&self, params: IvfParams) -> Option<Arc<ModelSnapshot>> {
        loop {
            let snap = self.latest()?;
            if snap.ivf().is_none() && snap.epoch() < self.epoch() {
                continue;
            }
            snap.ivf.get_or_init(|| self.derive_ivf(&snap, params));
            return Some(snap);
        }
    }

    /// `snap`'s index (see [`SnapshotPublisher::latest_with_ivf`]), which
    /// becomes the run's base if it is the newest.  An index is patched
    /// only forward and only within a run: the row clocks restart with it.
    fn derive_ivf(&self, snap: &ModelSnapshot, params: IvfParams) -> Arc<IvfIndex> {
        let shared = self.shared.lock().expect("publisher state poisoned");
        let in_run = snap.epoch() >= shared.run_epoch;
        let base = (shared.ivf.clone()).filter(|base| in_run && base.stamp().0 < snap.epoch());
        let changed = base
            .as_ref()
            .map(|b| self.changed_under(&shared, b.stamp().1));
        drop(shared);
        let index = Arc::new(match (base, changed) {
            (Some(base), Some(changed)) => {
                let mut index = IvfIndex::clone(&base);
                index.refresh(snap, &changed);
                index
            }
            _ => IvfIndex::build(snap, params),
        });
        let mut shared = self.shared.lock().expect("publisher state poisoned");
        let newest = (shared.ivf.as_ref()).is_none_or(|base| base.stamp().0 < snap.epoch());
        if snap.epoch() >= shared.run_epoch && newest {
            shared.ivf = Some(Arc::clone(&index));
        }
        index
    }

    // ------------------------------------------------------------------
    // Engine-side API.  Everything below is called by the training
    // engines, never by query threads.
    // ------------------------------------------------------------------

    /// Binds the publisher to a training run: records the model dimensions,
    /// sizes the cooperative-build generation arrays, and resets the
    /// publish threshold and freshness statistics (the update clock starts
    /// at 0 every run).  So do the row clocks, which therefore last one
    /// run; the run's IVF index goes with them, so each run starts unasked
    /// and its first approximate query builds afresh, with its own params.
    ///
    /// Contract: called from the engine before any worker starts, with no
    /// build in flight and no concurrent engine-side call.  (Queries may
    /// run concurrently — they only touch the ring.)
    pub fn begin_run(&self, users: usize, items: usize, k: usize, workers: usize) {
        let mut shared = self.shared.lock().expect("publisher state poisoned");
        assert!(
            !self.coop.building.load(Ordering::SeqCst),
            "begin_run with a build in flight"
        );
        shared.dims = Some(Dims {
            users,
            items,
            k,
            workers,
        });
        // SAFETY: contract above — no workers running, so nobody reads the
        // generation arrays concurrently; the `shared` lock held here
        // excludes `changed_items_since` readers from the clock array.
        unsafe {
            *self.coop.rows_gen.get() = (0..items).map(|_| AtomicU64::new(0)).collect();
            *self.coop.workers_gen.get() = (0..workers).map(|_| AtomicU64::new(0)).collect();
            *self.coop.row_clocks.get() = (0..items).map(|_| AtomicU64::new(0)).collect();
        }
        shared.ivf = None;
        shared.run_epoch = self.epoch() + 1;
        self.coop
            .next_at
            .store(self.publish_every, Ordering::SeqCst);
        self.published.store(0, Ordering::SeqCst);
        self.last_updates_at.store(0, Ordering::SeqCst);
        self.max_gap.store(0, Ordering::SeqCst);
    }

    /// Grows the bound dimensions after an online ingestion (quiesce point:
    /// no workers running, no build in flight).
    pub fn grow(&self, users: usize, items: usize) {
        let mut shared = self.shared.lock().expect("publisher state poisoned");
        assert!(
            !self.coop.building.load(Ordering::SeqCst),
            "grow with a build in flight"
        );
        let dims = shared.dims.as_mut().expect("begin_run before grow");
        dims.users = users;
        dims.items = items;
        // Every row counts as changed after a grow (the old clocks are
        // gone and the catalog itself moved), so stamp the fresh array
        // one past the last publish — any `since` a consumer could hold.
        let stamp = self.last_updates_at.load(Ordering::SeqCst) + 1;
        // SAFETY: quiesce contract, as in `begin_run`.  Generation marks
        // only matter during a build, so fresh zeros are fine.
        unsafe {
            *self.coop.rows_gen.get() = (0..items).map(|_| AtomicU64::new(0)).collect();
            *self.coop.row_clocks.get() = (0..items).map(|_| AtomicU64::new(stamp)).collect();
        }
    }

    /// Publishes an exact copy of an assembled model (quiesce path and
    /// serial engine).  Reuses a recycled buffer when one fits.
    ///
    /// Contract: single publisher at a time — no cooperative build in
    /// flight (call [`SnapshotPublisher::abort_build`] first at a threaded
    /// quiesce) and no concurrent `publish_model`.
    pub fn publish_model(&self, model: &FactorModel, updates: u64) {
        self.stamp_changed_rows(model, updates);
        let buf = self.obtain_buffer(model.num_users(), model.num_items(), model.k());
        // SAFETY: `obtain_buffer` returns a snapshot unreachable by readers
        // (fresh, or recycled with a strong count of 1).
        unsafe { buf.fill_from_model(model) };
        self.do_publish(buf, updates);
    }

    /// Publishes the model if the update clock has crossed the next publish
    /// threshold (the serial engine's per-token hook; one relaxed load when
    /// not due).
    pub fn publish_model_if_due(&self, model: &FactorModel, updates: u64) {
        if updates >= self.coop.next_at.load(Ordering::Relaxed) {
            self.publish_model(model, updates);
        }
    }

    /// The threaded workers' per-hop hook.
    ///
    /// With no build in flight this is two relaxed atomic loads (and, when
    /// the publish threshold was crossed, one worker claims initiation).
    /// During a build the worker contributes its user block once and the
    /// item row it currently owns once; the last contribution publishes.
    ///
    /// `item` is `Some((j, row))` when the worker just processed token `j`
    /// (and therefore still owns slab row `j`), `None` from the idle loop.
    ///
    /// Contract: `worker` and `user_offset`/`users` describe this worker's
    /// static block (`users` holds its rows, row-major, starting at global
    /// row `user_offset`), [`SnapshotPublisher::begin_run`] has been called
    /// with the current dimensions, and the caller owns token `j` when
    /// passing `item`.
    #[inline]
    pub fn coop_tick(
        &self,
        worker: usize,
        updates_now: u64,
        user_offset: usize,
        users: &[f64],
        item: Option<(Idx, &[f64])>,
    ) {
        if let Some((j, _)) = item {
            // Delta clock: the hop that just processed token `j` may have
            // changed row `j`.  One relaxed RMW on a line only this
            // worker writes (token ownership), so the hot path stays
            // contention-free.
            // SAFETY: the clock array is only replaced at quiesce
            // (begin_run/grow contract), never while workers tick.
            let clocks = unsafe { &*self.coop.row_clocks.get() };
            clocks[j as usize].fetch_max(updates_now, Ordering::Relaxed);
        }
        let mut g = self.coop.active_gen.load(Ordering::Acquire);
        if g == 0 {
            if updates_now < self.coop.next_at.load(Ordering::Relaxed) {
                return;
            }
            // Threshold crossed: claim initiation (losers keep training and
            // participate once `active_gen` is visible).
            if self.coop.building.swap(true, Ordering::AcqRel) {
                return;
            }
            g = self.prepare_build(updates_now);
        }
        self.participate(g, worker, user_offset, users, item);
    }

    /// `true` while a cooperative build is in flight.
    pub fn build_in_flight(&self) -> bool {
        self.coop.building.load(Ordering::SeqCst)
    }

    /// Abandons an in-flight cooperative build (threaded quiesce: workers
    /// have joined, so nobody is contributing).  The partial buffer is
    /// recycled; the quiesce path then publishes the exact model instead.
    pub fn abort_build(&self) {
        if !self.coop.building.load(Ordering::SeqCst) {
            return;
        }
        self.coop.active_gen.store(0, Ordering::SeqCst);
        // SAFETY: workers joined (contract), so the buffer has no writer.
        let partial = unsafe { (*self.coop.buf.get()).take() };
        if let Some(buf) = partial {
            self.recycle(buf);
        }
        self.coop.building.store(false, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Sets up the build buffer and counters, then makes the build visible.
    /// Returns the new generation.  Called with the `building` claim held.
    fn prepare_build(&self, updates_now: u64) -> u64 {
        let dims = {
            let shared = self.shared.lock().expect("publisher state poisoned");
            shared.dims.expect("begin_run before coop_tick")
        };
        let buf = self.obtain_buffer(dims.users, dims.items, dims.k);
        // SAFETY: the `building` claim is held and `active_gen` is still 0,
        // so no worker reads the buffer slot concurrently.
        unsafe { *self.coop.buf.get() = Some(buf) };
        let g = self.coop.gen.fetch_add(1, Ordering::Relaxed) + 1;
        self.coop.updates_at.store(updates_now, Ordering::Relaxed);
        self.coop
            .remaining
            .store(dims.items + dims.workers, Ordering::Release);
        self.coop.active_gen.store(g, Ordering::Release);
        g
    }

    /// One worker's contributions to build `g`.
    #[inline]
    fn participate(
        &self,
        g: u64,
        worker: usize,
        user_offset: usize,
        users: &[f64],
        item: Option<(Idx, &[f64])>,
    ) {
        // SAFETY: the generation arrays are only replaced at quiesce
        // (begin_run/grow contract), never while workers run.
        let workers_gen = unsafe { &*self.coop.workers_gen.get() };
        let rows_gen = unsafe { &*self.coop.rows_gen.get() };
        if workers_gen[worker].load(Ordering::Relaxed) != g {
            workers_gen[worker].store(g, Ordering::Relaxed);
            // SAFETY: a pending contribution (ours) keeps `remaining` above
            // zero, so the buffer cannot be finalized from under us; only
            // worker `worker` writes this user block (disjoint rows).
            unsafe {
                let buf = (*self.coop.buf.get()).as_ref().expect("build buffer set");
                buf.copy_user_block(user_offset, users);
            }
            self.contribution_done();
        }
        if let Some((j, row)) = item {
            if rows_gen[j as usize].load(Ordering::Relaxed) != g {
                rows_gen[j as usize].store(g, Ordering::Relaxed);
                // SAFETY: as above, plus the caller owns token `j`, so row
                // writers are disjoint.
                unsafe {
                    let buf = (*self.coop.buf.get()).as_ref().expect("build buffer set");
                    buf.copy_item_row(j, row);
                }
                self.contribution_done();
            }
        }
    }

    /// Counts down one contribution; the last one finalizes and publishes.
    fn contribution_done(&self) {
        if self.coop.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // SAFETY: `remaining` reached zero, so every contribution is in
            // and no worker will touch the buffer for this generation.
            let buf = unsafe { (*self.coop.buf.get()).take() }.expect("build buffer set");
            let updates = self.coop.updates_at.load(Ordering::Relaxed);
            self.coop.active_gen.store(0, Ordering::Release);
            self.do_publish(buf, updates);
            self.coop.building.store(false, Ordering::Release);
        }
    }

    /// Advances the item-row update clocks for an exact publish: a
    /// content diff against the previous published snapshot stamps
    /// **only the rows whose bits changed** at `updates`.  A quiesced
    /// re-publish of an untouched model therefore advances no clocks —
    /// the property that makes steady-state deltas empty.  With no
    /// previous snapshot (or after a dimension change) every row is
    /// stamped.
    ///
    /// Engine-side (single-publisher contract), so the clock array
    /// cannot be concurrently replaced; the `shared` lock excludes
    /// `changed_items_since` readers while it is resized.
    fn stamp_changed_rows(&self, model: &FactorModel, updates: u64) {
        let items = model.num_items();
        let k = model.k();
        let prev = self.latest();
        let _shared = self.shared.lock().expect("publisher state poisoned");
        // SAFETY: lock held (readers excluded) + single-publisher
        // contract (no concurrent coop ticks while `publish_model` runs).
        let clocks = unsafe { &mut *self.coop.row_clocks.get() };
        if clocks.len() != items {
            *clocks = (0..items).map(|_| AtomicU64::new(updates)).collect();
            return;
        }
        match prev {
            Some(p) if p.dims_match(model.num_users(), items, k) => {
                for (j, clock) in clocks.iter().enumerate() {
                    let same = model
                        .h
                        .row(j)
                        .iter()
                        .zip(p.item_factor(j as Idx))
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        clock.fetch_max(updates, Ordering::Relaxed);
                    }
                }
            }
            _ => {
                for clock in clocks.iter() {
                    clock.fetch_max(updates, Ordering::Relaxed);
                }
            }
        }
    }

    /// A buffer of the given dimensions that is unreachable by readers:
    /// the recycled spare when it fits and is unshared, a fresh allocation
    /// otherwise.
    fn obtain_buffer(&self, users: usize, items: usize, k: usize) -> Arc<ModelSnapshot> {
        let mut shared = self.shared.lock().expect("publisher state poisoned");
        if let Some(spare) = shared.spare.take() {
            if spare.dims_match(users, items, k) && Arc::strong_count(&spare) == 1 {
                return spare;
            }
            // Wrong shape or still referenced somewhere: let it go.
        }
        drop(shared);
        Arc::new(ModelSnapshot::alloc(users, items, k))
    }

    /// Stamps, publishes, updates the freshness statistics and the next
    /// threshold, and recycles the displaced epoch.
    fn do_publish(&self, buf: Arc<ModelSnapshot>, updates: u64) {
        #[cfg(debug_assertions)]
        {
            assert!(
                !self.publishing.swap(true, Ordering::SeqCst),
                "two concurrent publishers: the single-publisher contract was broken"
            );
        }
        let epoch = self.ring.epoch.load(Ordering::SeqCst) + 1;
        buf.stamp(epoch, updates);
        // The exact scan's codes, before any reader can reach the rows.
        let spare = self.shared.lock().map(|mut s| s.spare_codes.take());
        buf.fill_codes(spare.expect("publisher state poisoned"));
        let displaced = self.ring.publish(buf);
        let prev = self.last_updates_at.swap(updates, Ordering::SeqCst);
        if self.published.fetch_add(1, Ordering::SeqCst) > 0 {
            self.max_gap
                .fetch_max(updates.saturating_sub(prev), Ordering::SeqCst);
        }
        self.coop
            .next_at
            .store(updates + self.publish_every, Ordering::SeqCst);
        if let Some(old) = displaced {
            self.recycle(old);
        }
        #[cfg(debug_assertions)]
        self.publishing.store(false, Ordering::SeqCst);
    }

    /// Keeps a displaced snapshot, index and codes dropped, as the spare
    /// build buffer when nobody else references it (otherwise its readers'
    /// `Arc`s reclaim it); its codes' storage goes to the next publish.
    fn recycle(&self, mut old: Arc<ModelSnapshot>) {
        if let Some(snap) = Arc::get_mut(&mut old) {
            snap.ivf.take();
            let codes = snap.codes.take();
            let mut shared = self.shared.lock().expect("publisher state poisoned");
            if shared.spare.is_none() {
                shared.spare = Some(old);
            }
            if shared.spare_codes.is_none() {
                shared.spare_codes = codes;
            }
        }
    }
}

impl std::fmt::Debug for SnapshotPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPublisher")
            .field("publish_every", &self.publish_every)
            .field("epoch", &self.epoch())
            .field("published", &self.snapshots_published())
            .field("max_gap", &self.max_publish_gap())
            .field("build_in_flight", &self.build_in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_sgd::FactorMatrix;

    fn model(users: usize, items: usize, k: usize, seed: u64) -> FactorModel {
        FactorModel::init(users, items, k, seed)
    }

    #[test]
    fn latest_is_none_before_first_publish() {
        let p = SnapshotPublisher::new(100);
        assert!(p.latest().is_none());
        assert_eq!(p.epoch(), 0);
        assert_eq!(p.staleness(50), None);
    }

    #[test]
    fn publish_model_round_trips_and_stamps() {
        let p = SnapshotPublisher::new(100);
        let m = model(5, 4, 3, 1);
        p.publish_model(&m, 250);
        let snap = p.latest().expect("published");
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.updates_at(), 250);
        assert_eq!(snap.to_model(), m);
        assert_eq!(p.staleness(300), Some(50));
        assert_eq!(p.snapshots_published(), 1);
    }

    #[test]
    fn epochs_are_monotone_and_ring_recycles() {
        let p = SnapshotPublisher::new(10);
        // More publishes than slots: forces displacement and recycling.
        for e in 1..=10u64 {
            let m = model(3, 3, 2, e);
            p.publish_model(&m, e * 10);
            let snap = p.latest().unwrap();
            assert_eq!(snap.epoch(), e);
            assert_eq!(snap.to_model(), m, "epoch {e} content");
        }
        assert_eq!(p.epoch(), 10);
        assert_eq!(p.snapshots_published(), 10);
        // Every gap was exactly 10 updates.
        assert_eq!(p.max_publish_gap(), 10);
    }

    #[test]
    fn a_recycled_buffer_answers_from_its_own_codes() {
        // A new model each epoch and no reader keeps one: from epoch 6 on
        // a publish fills a recycled buffer, which must filter on its new
        // rows' codes.
        let p = SnapshotPublisher::new(10);
        for e in 1..=9u64 {
            let m = model(4, 600, 6, e);
            p.publish_model(&m, e * 10);
            let snap = p.latest().expect("published");
            assert!(snap.codes.get().is_some(), "epoch {e} coded when published");
            let fresh = ModelSnapshot::from_model(&m, e, e * 10);
            for user in 0..4 {
                let want = fresh.top_k(user, 10, &[]);
                assert_eq!(snap.top_k(user, 10, &[]), want, "epoch {e}");
            }
        }
    }

    #[test]
    fn readers_keep_old_epochs_alive() {
        let p = SnapshotPublisher::new(10);
        p.publish_model(&model(3, 3, 2, 0), 10);
        let pinned = p.latest().unwrap();
        assert_eq!(pinned.epoch(), 1);
        for e in 2..=9u64 {
            p.publish_model(&model(3, 3, 2, e), e * 10);
        }
        // The old epoch's content is untouched even though its ring slot
        // was reused several times (its buffer was never recycled because
        // this reader still holds it).
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.to_model(), model(3, 3, 2, 0));
        assert_eq!(p.latest().unwrap().epoch(), 9);
    }

    #[test]
    fn publish_model_if_due_respects_the_threshold() {
        let p = SnapshotPublisher::new(100);
        let m = model(3, 3, 2, 0);
        p.publish_model_if_due(&m, 99);
        assert!(p.latest().is_none());
        p.publish_model_if_due(&m, 100);
        assert_eq!(p.epoch(), 1);
        // Next threshold moved to 200.
        p.publish_model_if_due(&m, 150);
        assert_eq!(p.epoch(), 1);
        p.publish_model_if_due(&m, 205);
        assert_eq!(p.epoch(), 2);
        assert_eq!(p.max_publish_gap(), 105);
    }

    #[test]
    fn cooperative_build_publishes_when_all_parts_arrive() {
        let p = SnapshotPublisher::new(50);
        let m = model(6, 4, 3, 9);
        p.begin_run(6, 4, 3, 2);
        // Split users into two blocks as the threaded engine would.
        let mut w0 = FactorMatrix::zeros(3, 3);
        let mut w1 = FactorMatrix::zeros(3, 3);
        for i in 0..3 {
            w0.set_row(i, m.w.row(i));
            w1.set_row(i, m.w.row(i + 3));
        }
        // Below threshold: nothing happens.
        p.coop_tick(0, 10, 0, w0.as_slice(), Some((0, m.h.row(0))));
        assert!(!p.build_in_flight());
        // Crossing the threshold starts a build; contributions trickle in.
        p.coop_tick(0, 55, 0, w0.as_slice(), Some((0, m.h.row(0))));
        assert!(p.build_in_flight());
        assert!(p.latest().is_none(), "incomplete build must not publish");
        p.coop_tick(0, 56, 0, w0.as_slice(), Some((1, m.h.row(1))));
        p.coop_tick(1, 57, 3, w1.as_slice(), Some((2, m.h.row(2))));
        // Re-processing an already-copied row contributes nothing new.
        p.coop_tick(1, 58, 3, w1.as_slice(), Some((2, m.h.row(2))));
        assert!(p.latest().is_none());
        p.coop_tick(0, 59, 0, w0.as_slice(), Some((3, m.h.row(3))));
        // All 4 item rows + both worker blocks are in: published.
        assert!(!p.build_in_flight());
        let snap = p.latest().expect("build completed");
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.updates_at(), 55, "stamped at initiation");
        assert_eq!(snap.to_model(), m);
        assert!(snap.codes.get().is_some(), "coded before it was published");
    }

    #[test]
    fn abort_build_recycles_and_allows_quiesce_publish() {
        let p = SnapshotPublisher::new(50);
        let m = model(4, 3, 2, 3);
        p.begin_run(4, 3, 2, 1);
        p.coop_tick(0, 60, 0, m.w.as_slice(), Some((0, m.h.row(0))));
        assert!(p.build_in_flight());
        p.abort_build();
        assert!(!p.build_in_flight());
        assert!(p.latest().is_none());
        p.publish_model(&m, 70);
        assert_eq!(p.latest().unwrap().to_model(), m);
    }

    #[test]
    fn idle_tick_contributes_the_user_block_only() {
        let p = SnapshotPublisher::new(10);
        let m = model(2, 2, 2, 4);
        p.begin_run(2, 2, 2, 1);
        // Initiation from the idle loop (no token owned).
        p.coop_tick(0, 15, 0, m.w.as_slice(), None);
        assert!(p.build_in_flight());
        assert!(p.latest().is_none());
        // The item rows arrive as the worker processes tokens.
        p.coop_tick(0, 16, 0, m.w.as_slice(), Some((1, m.h.row(1))));
        p.coop_tick(0, 17, 0, m.w.as_slice(), Some((0, m.h.row(0))));
        assert_eq!(p.latest().unwrap().to_model(), m);
    }

    #[test]
    fn grow_resizes_the_build_arrays() {
        let p = SnapshotPublisher::new(10);
        p.begin_run(2, 2, 2, 1);
        let bigger = model(3, 5, 2, 8);
        p.grow(3, 5);
        let mut w = FactorMatrix::zeros(3, 2);
        for i in 0..3 {
            w.set_row(i, bigger.w.row(i));
        }
        p.coop_tick(0, 15, 0, w.as_slice(), None);
        for j in 0..5 {
            p.coop_tick(
                0,
                16 + j as u64,
                0,
                w.as_slice(),
                Some((j, bigger.h.row(j as usize))),
            );
        }
        assert_eq!(p.latest().unwrap().to_model(), bigger);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = SnapshotPublisher::new(0);
    }
}
