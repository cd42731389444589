//! The driver: partitions the data, launches the ranks, coordinates the
//! stop/drain protocol, and gathers the shards back into one
//! [`FactorModel`].
//!
//! The driver is *not* on the training path — tokens only ever move
//! between ranks.  It does exactly four things:
//!
//! 1. **Scatter**: compute the global initialization
//!    (`FactorModel::init`, the same call every other engine makes, so a
//!    distributed run starts from bit-identical factors), cut the users
//!    into contiguous shards with [`RowPartition`], and ship each rank its
//!    [`SetupPayload`]; then mint the initial tokens — item `j` starts at
//!    rank [`token_home`]`(seed, j, ranks)`, the same engine-independent
//!    hash the online engines use — carrying their initial factor rows.
//! 2. **Clock**: collect `Progress` reports and broadcast `Drain` once the
//!    summed update count reaches the budget (the distributed analogue of
//!    the threaded engine's shared atomic counter; reports lag reality, so
//!    runs overshoot the budget slightly, exactly like a threaded worker
//!    overshooting on its last token).
//! 3. **Gather**: wait for every *active* rank's [`ShardPayload`].
//! 4. **Verify**: re-assemble the model, asserting token conservation —
//!    every item in exactly one shard, every user row in exactly one
//!    segment, and tickets minus passes equal to the pass debt recorded
//!    by evictions (see below) — the same invariant
//!    `ThreadedNomad`'s `gather_items` asserts at every quiesce, extended
//!    to survive membership changes.
//!
//! ## Membership arbitration
//!
//! The driver is also the failure arbiter and the admission gate:
//!
//! * **Eviction** — a rank is declared dead when the driver's own
//!   silence timer for it expires, when the transport has hard evidence
//!   ([`Transport::peer_down`]), or when a peer's [`Message::Suspect`]
//!   corroborates a half-expired timer.  The driver broadcasts
//!   [`Message::Evict`], the survivors run the census described in
//!   [`crate::rank`], and the driver collects one [`Message::Inventory`]
//!   per survivor.  Items in *nobody's* inventory were lost with the
//!   corpse (its queue, plus tokens on the wire to it); the driver
//!   re-mints them at pass 0 with deterministic fresh factors
//!   ([`fresh_item_rows`]) and homes them with the same [`token_home`]
//!   hash over the surviving ranks.  Every ticket the dead rank drew and
//!   every pass on a lost token vanishes from the conservation ledger;
//!   the census exposes exactly that quantity as `Σ survivor tickets − Σ
//!   inventoried passes`, which the driver accumulates as a signed *pass
//!   debt* and re-asserts at gather: `tickets − passes == debt`.  The
//!   dead rank's user rows are re-materialized from the driver's copy of
//!   the data (fresh factors, same ratings) on the survivor owning the
//!   fewest rows.  One census runs at a time; failures detected during a
//!   census queue behind it.
//!
//!   Deaths *after* the drain broadcast run the same census with two
//!   twists.  A survivor whose shard already arrived has quiesced and
//!   cannot inventory — its shard **is** its inventory, so the driver
//!   folds the shard's tickets and token passes into the census directly
//!   (a shard landing mid-census from a still-needed survivor folds the
//!   same way).  And because survivors are draining, nothing is re-minted
//!   or transferred to them: the driver itself holds the lost items and
//!   the corpse's user segments and synthesizes them as fresh rows
//!   (zero tickets, zero passes) at gather, which keeps both the
//!   exactly-once assertion and the debt equation intact.
//! * **Join** — a [`Message::Join`] (or a TCP `Hello` the transport
//!   surfaces as one) admits a new rank mid-run: the driver ships it an
//!   empty-shard `Setup`, broadcasts [`Message::AddRank`] (no barrier —
//!   adding a routing destination is always safe), and rebalances half of
//!   the largest segment of the most-loaded rank to it via
//!   [`Message::Rebalance`].  Joins after drain are rejected with a
//!   best-effort `Evict` so the newcomer exits cleanly.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use nomad_core::online::token_home;
use nomad_core::NomadConfig;
use nomad_matrix::{RatingMatrix, RowPartition};
use nomad_sgd::{fresh_item_rows, fresh_user_rows, FactorMatrix, FactorModel};

use nomad_serve::ModelSnapshot;
use nomad_telemetry::{
    names, CounterHandle, EventKind, EventRing, HistogramHandle, Registry, TelemetrySnapshot,
};

use crate::rank::{assert_capacity, bit};
use crate::serve_router::{Route, RouterBackend, ServeRouter};
use crate::transport::{Loopback, NetError, Transport};
use crate::wire::{
    Message, ReplicaDeltaPayload, ReplicaPayload, SetupPayload, ShardPayload, ShardTransferPayload,
    WireCols, WireSegment, WireToken,
};

/// Hard deadline for a distributed run; a mesh that cannot finish a test
/// or bench workload in this window is wedged, and erroring beats hanging.
const DRIVER_DEADLINE: Duration = Duration::from_secs(600);

/// Hard deadline for one eviction census: every survivor must inventory
/// within this window or the run is declared wedged.
const CENSUS_DEADLINE: Duration = Duration::from_secs(60);

/// Default peer-silence threshold before eviction.  Generous on purpose:
/// it must sit far above worst-case comm-thread lag (the sched-fuzz
/// controller parks comm threads for tens of milliseconds) so that a
/// slow rank is never confused with a dead one by default.
pub const DEFAULT_HEARTBEAT_TIMEOUT_MS: u32 = 10_000;

/// How long hard down-evidence (TCP EOF, send failure) must persist
/// before it evicts, *once drain has started*.  A rank that quiesces
/// cleanly sends its final frames — telemetry, then its shard — and
/// exits immediately, so the reader thread can flag the EOF while
/// those frames still sit unprocessed in the driver's inbox.
/// Evicting on the raw flag would discard the shard of a rank that
/// did everything right; waiting one grace period lets the settled
/// frames drain (processing the shard then exempts the rank from
/// eviction for good).  Before drain no rank exits on purpose, so the
/// grace does not apply there: a pre-drain corpse keeps attracting
/// tokens, and every token it eats is a re-mint of a fresh factor row,
/// so prompt eviction is what keeps the surviving model trained.
const EOF_EVICT_GRACE: Duration = Duration::from_millis(250);

/// The longest the driver loop sleeps in `recv_timeout` with nothing to
/// do, and so the granularity of everything it decides *by the clock*:
/// heartbeat-silence and settled-EOF eviction and the census and run
/// deadlines, hence how soon the router re-routes a query whose owner
/// was evicted (a query's own deadline is its caller's to keep).  It is
/// not a latency term: work that *arrives* — a frame, a submitted
/// query, a peer's EOF — wakes the receive at once.
const DRIVER_TICK: Duration = Duration::from_millis(10);

/// Configuration of a distributed run: the shared NOMAD configuration
/// plus the transport-level knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// The algorithm configuration (hyper-parameters, routing, seed,
    /// message batch, update budget).  The stop condition must carry an
    /// update budget; wall-clock budgets are not reproducible across
    /// machines.
    pub nomad: NomadConfig,
    /// Updates between a rank's progress reports to the driver; `0`
    /// derives a default from the budget (~64 reports per rank per run).
    pub progress_every: u64,
    /// Peer-silence threshold in milliseconds before the driver evicts a
    /// rank; `0` disables failure detection entirely (pre-elastic
    /// behavior: a dead rank hangs the run until the driver deadline).
    pub heartbeat_timeout_ms: u32,
    /// Ranks active at startup; `0` means every mesh slot.  Slots
    /// `initial_ranks..capacity` stay empty until a [`Message::Join`]
    /// claims them.
    pub initial_ranks: usize,
    /// Chaos knob: this rank's `Setup` carries `abort_after_updates`, so
    /// a re-exec'd child kills its whole process mid-run (the
    /// kill-a-rank regression's deterministic `SIGKILL` stand-in).
    pub abort_rank: Option<u32>,
    /// Chaos knob: local update count at which `abort_rank` dies.
    pub abort_after_updates: u64,
    /// Serving: each rank publishes a [`nomad_serve`] snapshot of its
    /// shard roughly every this many local updates and mirrors it to the
    /// driver as a stale replica; `0` disables serving entirely (no
    /// publisher, no replica traffic).
    pub serve_publish_every: u64,
    /// Serving: answer rank-side queries through the approximate IVF
    /// shortlist index, probing this many centroid posting lists per
    /// query; `0` keeps the exact brute-force scan.  Clamped to the
    /// index's centroid count (where the answer is bit-identical to the
    /// scan), so any large value degrades gracefully to exact.
    pub serve_nprobe: u32,
}

impl NetConfig {
    /// Wraps a NOMAD configuration with default transport knobs.
    pub fn new(nomad: NomadConfig) -> Self {
        Self {
            nomad,
            progress_every: 0,
            heartbeat_timeout_ms: DEFAULT_HEARTBEAT_TIMEOUT_MS,
            initial_ranks: 0,
            abort_rank: None,
            abort_after_updates: 0,
            serve_publish_every: 0,
            serve_nprobe: 0,
        }
    }

    fn effective_progress_every(&self, budget: u64) -> u64 {
        if self.progress_every > 0 {
            self.progress_every
        } else {
            (budget / 64).max(1024)
        }
    }
}

/// Execution metrics of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetStats {
    /// Total SGD updates across the ranks that survived to gather.
    pub updates: u64,
    /// Total token-processing events (tickets) across surviving ranks.
    pub tokens_processed: u64,
    /// Tokens that crossed an address-space boundary.
    pub remote_sends: u64,
    /// Wall-clock seconds from scatter to the last gathered shard.
    pub wall_seconds: f64,
    /// Per-rank update counts (index = mesh slot; evicted and
    /// never-joined slots read 0).
    pub per_rank_updates: Vec<u64>,
    /// Per-rank ticket counts (index = mesh slot).
    pub per_rank_tickets: Vec<u64>,
    /// Ranks evicted during the run, in eviction order.
    pub evicted: Vec<u32>,
    /// Ranks that joined mid-run, in admission order.
    pub joined: Vec<u32>,
    /// Tokens re-minted after evictions (lost with dead ranks).
    pub reminted: u64,
    /// Worst per-rank serving staleness (updates applied beyond the
    /// latest published snapshot) over the ranks alive at gather, from
    /// their final progress reports; `u64::MAX` when serving was off or
    /// a rank never published.
    pub max_staleness: u64,
    /// Worst per-rank gap between consecutive snapshot publishes, in
    /// updates, over the ranks alive at gather; `0` when serving was off.
    pub max_publish_gap: u64,
    /// Latest cumulative telemetry snapshot per mesh slot (`None` = the
    /// slot never reported).  Evicted ranks stay frozen at their last
    /// report — the driver drops post-eviction frames — so each rank's
    /// totals enter the fleet fold exactly once.
    pub rank_telemetry: Vec<Option<TelemetrySnapshot>>,
    /// The driver's own scope: membership arbitration counters
    /// (`net.evictions`, `net.joins`) and the scatter stage
    /// (`net.driver.scatter_us`).
    pub driver_telemetry: TelemetrySnapshot,
    /// Driver-scope event trace (`kind@a@b@t<micros>` lines, oldest
    /// first): evictions, censuses, joins, replica publishes.
    pub events: Vec<String>,
}

impl NetStats {
    /// The fleet-wide telemetry fold: every rank's latest cumulative
    /// snapshot plus the driver's own scope, each merged exactly once.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut fleet = self.driver_telemetry.clone();
        for snap in self.rank_telemetry.iter().flatten() {
            fleet.merge(snap);
        }
        fleet
    }
}

/// Output of a distributed run.
#[derive(Debug, Clone)]
pub struct DistOutput {
    /// The reassembled model.
    pub model: FactorModel,
    /// Execution metrics.
    pub stats: NetStats,
}

/// An in-progress eviction census, driver side.
struct Census {
    epoch: u64,
    dead: usize,
    /// Bitmap of survivors whose [`Message::Inventory`] is outstanding.
    need: u64,
    started: Instant,
    /// Σ survivor tickets reported at the cut.
    tickets: u64,
    /// Σ passes on inventoried tokens.
    passes: u64,
    /// Which items some survivor holds (duplicates are a protocol bug).
    seen: Vec<bool>,
}

/// Everything the driver tracks while clocking a run.
struct DriverState {
    capacity: usize,
    active: u64,
    evicted: u64,
    epoch: u64,
    /// User-row segments owned per mesh slot, mirrored from the
    /// setups/transfers the driver itself ordered.
    owned: Vec<Vec<(usize, usize)>>,
    latest: Vec<u64>,
    last_heard: Vec<Instant>,
    /// When hard down-evidence (EOF / send failure) was first observed
    /// per slot; eviction on that evidence waits [`EOF_EVICT_GRACE`] so
    /// a cleanly-exited rank's final frames get processed first.
    down_since: Vec<Option<Instant>>,
    /// Peers some rank has reported silent (any reporter sets the bit).
    suspected: u64,
    census: Option<Census>,
    pending_evictions: VecDeque<usize>,
    pending_joins: VecDeque<usize>,
    drained: bool,
    /// Signed pass debt recorded by the latest census (see module docs).
    debt: i128,
    /// Items lost to a post-drain death, synthesized at gather (no
    /// survivor can absorb new tokens once draining).
    held_items: Vec<u32>,
    /// User segments of post-drain corpses, synthesized at gather.
    held_segments: Vec<(usize, usize)>,
    reminted: u64,
    evicted_list: Vec<u32>,
    joined_list: Vec<u32>,
    shards: Vec<Option<ShardPayload>>,
    telemetry: DriverTelemetry,
}

/// The driver's own telemetry scope plus the per-rank snapshot store the
/// fleet fold is built from.
struct DriverTelemetry {
    registry: Registry,
    evictions: CounterHandle,
    joins: CounterHandle,
    /// Rows applied from [`Message::ReplicaDelta`] frames
    /// ([`names::SNAPSHOT_DELTA_ROWS`]).
    delta_rows: CounterHandle,
    /// Driver entry → last initial `Setup` handed to the transport, once
    /// per run ([`names::DRIVER_SCATTER_US`]).
    scatter_us: HistogramHandle,
    events: EventRing,
    /// Latest `(seq, snapshot)` accepted per mesh slot.  Frames are
    /// cumulative, so keeping only the highest `seq` per rank — and
    /// relying on the recv loop's evicted-sender guard to freeze dead
    /// ranks at their last report — folds every rank exactly once.
    rank_snaps: Vec<Option<(u64, TelemetrySnapshot)>>,
}

impl DriverTelemetry {
    fn new(capacity: usize) -> Self {
        let registry = Registry::new();
        let evictions = registry.counter(names::EVICTIONS);
        let joins = registry.counter(names::JOINS);
        let delta_rows = registry.counter(names::SNAPSHOT_DELTA_ROWS);
        let scatter_us = registry.histogram(names::DRIVER_SCATTER_US);
        Self {
            registry,
            evictions,
            joins,
            delta_rows,
            scatter_us,
            events: EventRing::new(256),
            rank_snaps: (0..capacity).map(|_| None).collect(),
        }
    }
}

impl DriverState {
    fn new(capacity: usize, initial: usize) -> Self {
        Self {
            capacity,
            active: (0..initial).map(bit).fold(0, |a, b| a | b),
            evicted: 0,
            epoch: 0,
            owned: vec![Vec::new(); capacity],
            latest: vec![0; capacity],
            last_heard: vec![Instant::now(); capacity],
            down_since: vec![None; capacity],
            suspected: 0,
            census: None,
            pending_evictions: VecDeque::new(),
            pending_joins: VecDeque::new(),
            drained: false,
            debt: 0,
            held_items: Vec::new(),
            held_segments: Vec::new(),
            reminted: 0,
            evicted_list: Vec::new(),
            joined_list: Vec::new(),
            shards: (0..capacity).map(|_| None).collect(),
            telemetry: DriverTelemetry::new(capacity),
        }
    }

    fn is_active(&self, r: usize) -> bool {
        r < self.capacity && self.active & bit(r) != 0
    }

    fn active_ranks(&self) -> Vec<usize> {
        (0..self.capacity).filter(|&r| self.is_active(r)).collect()
    }

    fn progress_sum(&self) -> u64 {
        (0..self.capacity)
            .filter(|&r| self.is_active(r))
            // A shard-less rank with hard down-evidence either crashed
            // (its updates died with it) or is mid-quiesce (drain has
            // already fired, so its progress is moot).  Excluding it
            // keeps a corpse's stale progress from satisfying the drain
            // budget during the [`EOF_EVICT_GRACE`] window.
            .filter(|&r| self.down_since[r].is_none() || self.shards[r].is_some())
            .map(|r| self.latest[r])
            .sum()
    }

    fn gather_complete(&self) -> bool {
        (0..self.capacity)
            .filter(|&r| self.is_active(r))
            .all(|r| self.shards[r].is_some())
    }
}

/// Driver-held serving state: the stale replica queries fail over to
/// during evictions, plus the fleet freshness piggybacked on progress
/// reports.
struct ServeState {
    /// Stale replica of the whole model.  Starts as the scatter-time
    /// initialization (so it can answer from update zero) and is
    /// refreshed shard-by-shard from [`Message::Replica`] frames.
    replica: FactorModel,
    /// Per-user-row update clock of the replica: the publishing rank's
    /// update count when the row's snapshot was initiated (0 = still the
    /// initialization).  Exact staleness bookkeeping for stale answers.
    row_updates_at: Vec<u64>,
    /// Ranks whose first replica has arrived.  This is the serving
    /// routing-table gate: a mid-run joiner (or a slow starter) is
    /// answered from the replica until its first publish lands.
    ready: u64,
    /// Lazily rebuilt snapshot over `replica`; invalidated by merges.
    snap: Option<ModelSnapshot>,
    /// Per-rank serving staleness from the latest progress report.
    staleness: Vec<u64>,
    /// Per-rank worst publish gap from the latest progress report.
    publish_gap: Vec<u64>,
    /// Per-rank epoch of the last frame applied (full or delta).  A
    /// [`Message::ReplicaDelta`] applies only on top of the exact epoch
    /// it was diffed against ([`ReplicaDeltaPayload::base_epoch`]); any
    /// gap — a dropped frame under chaos, a fresh driver — drops the
    /// delta and waits for the rank's next periodic full frame.
    replica_epoch: Vec<u64>,
}

impl ServeState {
    fn new(init: &FactorModel, nrows: usize, capacity: usize) -> Self {
        Self {
            replica: init.clone(),
            row_updates_at: vec![0; nrows],
            ready: 0,
            snap: None,
            staleness: vec![u64::MAX; capacity],
            publish_gap: vec![0; capacity],
            replica_epoch: vec![0; capacity],
        }
    }

    /// Merges one rank's published snapshot into the replica.
    fn merge(&mut self, p: &ReplicaPayload, k: usize) -> Result<(), NetError> {
        let (nrows, ncols) = (self.row_updates_at.len(), self.replica.h.rows());
        if p.k as usize != k {
            return Err(NetError::Protocol(format!(
                "replica k {} from rank {} does not match run k {k}",
                p.k, p.rank
            )));
        }
        if p.items.len() != ncols * k {
            return Err(NetError::Protocol(format!(
                "replica item matrix has {} values, expected {}",
                p.items.len(),
                ncols * k
            )));
        }
        for seg in &p.segments {
            if seg.rows.len() % k != 0 {
                return Err(NetError::Protocol(
                    "replica segment rows must be whole rows".into(),
                ));
            }
            let start = seg.row_start as usize;
            if start + seg.rows.len() / k > nrows {
                return Err(NetError::Protocol(format!(
                    "replica segment at row {start} overruns {nrows} users"
                )));
            }
        }
        for seg in &p.segments {
            let start = seg.row_start as usize;
            let count = seg.rows.len() / k;
            for local in 0..count {
                self.replica
                    .w
                    .set_row(start + local, &seg.rows[local * k..(local + 1) * k]);
                self.row_updates_at[start + local] = p.updates_at;
            }
        }
        // A published snapshot's item matrix is complete (a build only
        // finishes once every item has visited the rank), so the whole
        // replica H advances to this publish.
        for j in 0..ncols {
            self.replica.h.set_row(j, &p.items[j * k..(j + 1) * k]);
        }
        self.ready |= bit(p.rank as usize);
        self.replica_epoch[p.rank as usize] = p.epoch;
        self.snap = None;
        Ok(())
    }

    /// Merges one rank's **delta** publish into the replica.
    ///
    /// Returns `Ok(false)` (frame dropped, replica untouched) when the
    /// delta does not chain onto the last applied epoch for this rank —
    /// either the rank has never published here or an intermediate frame
    /// was lost.  The rank's periodic full [`Message::Replica`] resyncs
    /// self-heal that state, so a drop is not an error.  H rows are
    /// last-writer-wins across ranks, exactly like the full-frame H
    /// overwrite; the `delta_equiv` suite pins that a chain of deltas
    /// from one rank reproduces full-frame merging bit-for-bit.
    fn merge_delta(&mut self, p: &ReplicaDeltaPayload, k: usize) -> Result<bool, NetError> {
        let (nrows, ncols) = (self.row_updates_at.len(), self.replica.h.rows());
        if p.k as usize != k {
            return Err(NetError::Protocol(format!(
                "replica delta k {} from rank {} does not match run k {k}",
                p.k, p.rank
            )));
        }
        if self.ready & bit(p.rank as usize) == 0
            || self.replica_epoch[p.rank as usize] != p.base_epoch
        {
            return Ok(false);
        }
        for (rows, bound, what) in [(&p.w_rows, nrows, "user"), (&p.h_rows, ncols, "item")] {
            for row in rows.iter() {
                if row.factors.len() != k {
                    return Err(NetError::Protocol(format!(
                        "replica delta {what} row {} carries {} values, expected {k}",
                        row.row,
                        row.factors.len()
                    )));
                }
                if row.row as usize >= bound {
                    return Err(NetError::Protocol(format!(
                        "replica delta {what} row {} overruns {bound}",
                        row.row
                    )));
                }
            }
        }
        for row in &p.w_rows {
            self.replica.w.set_row(row.row as usize, &row.factors);
            self.row_updates_at[row.row as usize] = p.updates_at;
        }
        for row in &p.h_rows {
            self.replica.h.set_row(row.row as usize, &row.factors);
        }
        self.replica_epoch[p.rank as usize] = p.epoch;
        self.snap = None;
        Ok(true)
    }

    /// Answers a query from the replica: `(updates_at, staleness, recs)`
    /// with staleness bounded against the live fleet update clock.
    fn stale_answer(
        &mut self,
        fleet_updates: u64,
        user: u32,
        k: u32,
        seen: &[u32],
    ) -> (u64, u64, Vec<(u32, f64)>) {
        let snap = self
            .snap
            .get_or_insert_with(|| ModelSnapshot::from_model(&self.replica, 0, 0));
        let top = snap.top_k(user, k as usize, seen);
        let updates_at = self.row_updates_at[user as usize];
        let recs = top.recs.iter().map(|r| (r.item, r.score)).collect();
        (updates_at, fleet_updates.saturating_sub(updates_at), recs)
    }
}

/// The driver's view handed to [`ServeRouter::pump`]: shard ownership and
/// liveness for routing, the replica for stale answers.
struct DriverBackend<'a> {
    st: &'a DriverState,
    serve: &'a mut ServeState,
}

impl RouterBackend for DriverBackend<'_> {
    fn route(&mut self, user: u32) -> Route {
        let u = user as usize;
        if u >= self.serve.row_updates_at.len() {
            return Route::Unknown;
        }
        for r in 0..self.st.capacity {
            if !self.st.is_active(r) || !self.st.owned[r].iter().any(|&(s, c)| u >= s && u < s + c)
            {
                continue;
            }
            if self.st.shards[r].is_some() {
                // The owner quiesced and its shard is gathered: live
                // serving of this user is over for good.
                return Route::RunOver;
            }
            return if self.serve.ready & bit(r) != 0 {
                Route::Owner(r)
            } else {
                Route::Stale
            };
        }
        // No live owner: the rank died (census in progress, takeover not
        // yet effective) or the driver holds the segment post-drain.
        Route::Stale
    }

    fn serve_stale(
        &mut self,
        user: u32,
        k: u32,
        seen: &mut Vec<u32>,
    ) -> (u64, u64, Vec<(u32, f64)>) {
        seen.sort_unstable();
        seen.dedup();
        self.serve
            .stale_answer(self.st.progress_sum(), user, k, seen)
    }
}

/// Runs the driver over an already-connected mesh: scatter, clock,
/// arbitrate membership, gather, verify.  `transport` must be the driver
/// endpoint; the mesh capacity is `transport.ranks()` and
/// `cfg.initial_ranks` of those slots start active.
///
/// # Errors
/// Fails on transport errors, protocol violations, the census deadline,
/// or the global deadline.
///
/// # Panics
/// Panics if the mesh capacity exceeds the 64 slots the membership
/// bitmaps can track, if the stop condition has no update budget, or if
/// gather detects a token-conservation violation (an engine bug, not an
/// input error).
pub fn run_driver<T: Transport>(
    transport: &T,
    data: &RatingMatrix,
    cfg: &NetConfig,
) -> Result<DistOutput, NetError> {
    run_driver_serving(transport, data, cfg, None)
}

/// [`run_driver`] plus a serving front-end: the driver pumps `router`
/// at the top of every loop iteration — and `router` wakes the driver's
/// endpoint on every submission, so a query is routed when it arrives,
/// not at the next tick — answers [`Message::QueryReply`] traffic, and
/// maintains the stale failover replica from [`Message::Replica`] frames.
/// With `router = None` (or `cfg.serve_publish_every == 0`) this is
/// exactly [`run_driver`].
///
/// # Errors
/// Same failure modes as [`run_driver`].
///
/// # Panics
/// Same panics as [`run_driver`].
pub fn run_driver_serving<T: Transport>(
    transport: &T,
    data: &RatingMatrix,
    cfg: &NetConfig,
    router: Option<&ServeRouter>,
) -> Result<DistOutput, NetError> {
    if let Some(router) = router {
        router.attach(transport.waker());
    }
    let out = run_driver_impl(transport, data, cfg, router);
    // The run is over — cleanly or not, nothing will answer queries
    // anymore: resolve everything in flight (and everything submitted
    // later) as `RunOver` so no caller is left waiting on a dead mesh.
    if let Some(router) = router {
        router.finish();
    }
    out
}

fn run_driver_impl<T: Transport>(
    transport: &T,
    data: &RatingMatrix,
    cfg: &NetConfig,
    router: Option<&ServeRouter>,
) -> Result<DistOutput, NetError> {
    let entered = Instant::now();
    let capacity = transport.ranks();
    assert_eq!(
        transport.id(),
        capacity,
        "run_driver needs the driver endpoint"
    );
    assert_capacity(capacity);
    let initial = if cfg.initial_ranks == 0 {
        capacity
    } else {
        cfg.initial_ranks
    };
    assert!(
        initial <= capacity,
        "initial_ranks {initial} exceeds mesh capacity {capacity}"
    );
    let nomad = &cfg.nomad;
    let budget = nomad
        .stop
        .updates()
        .expect("distributed NOMAD requires an update budget in the stop condition");
    let params = nomad.params;
    let k = params.k;
    let start = Instant::now();
    let mut st = DriverState::new(capacity, initial);

    // Scatter: shards first (per-edge FIFO keeps Setup ahead of tokens).
    let init = FactorModel::init(data.nrows(), data.ncols(), k, nomad.seed);
    // The serving failover replica starts as that same initialization:
    // degraded-but-valid answers exist from update zero.
    let mut serve = ServeState::new(&init, data.nrows(), capacity);
    let partition = RowPartition::contiguous(data.nrows(), initial);
    let active_ranks: Vec<u32> = (0..initial as u32).collect();
    for r in 0..initial {
        let members = partition.members(r);
        let row_start = members.first().map_or(0, |&i| i as usize);
        let rows = row_start..row_start + members.len();
        if !members.is_empty() {
            st.owned[r].push((row_start, members.len()));
        }
        let setup = make_setup(cfg, data, budget, r, capacity, &active_ranks, 0);
        let setup = SetupPayload {
            row_start: row_start as u64,
            row_count: members.len() as u64,
            w_rows: init.w.as_slice()[rows.start * k..rows.end * k].to_vec(),
            cols: WireCols::cut(data.by_cols(), rows),
            ..setup
        };
        transport.send(r, &Message::Setup(Box::new(setup)))?;
    }
    st.telemetry
        .scatter_us
        .record(entered.elapsed().as_micros() as u64);

    // Mint the initial tokens in ascending item order per home rank (at
    // one rank this reproduces the serial engine's initial queue order).
    let mut pending: Vec<Vec<WireToken>> = (0..initial).map(|_| Vec::new()).collect();
    for j in 0..data.ncols() {
        let home = token_home(nomad.seed, j as u32, initial);
        pending[home].push(WireToken {
            item: j as u32,
            pass: 0,
            factor: init.h.row(j).to_vec(),
        });
        if pending[home].len() >= nomad.message_batch {
            let tokens = std::mem::take(&mut pending[home]);
            transport.send(home, &Message::TokenBatch { qlen: 0, tokens })?;
        }
    }
    for (home, tokens) in pending.into_iter().enumerate() {
        if !tokens.is_empty() {
            transport.send(home, &Message::TokenBatch { qlen: 0, tokens })?;
        }
    }

    // Clock + arbitrate + gather.
    if budget == 0 {
        st.drained = true;
        st.telemetry.events.record(EventKind::Drain, st.epoch, 0);
        for r in st.active_ranks() {
            transport.send(r, &Message::Drain)?;
        }
    }
    let hb_timeout = (cfg.heartbeat_timeout_ms > 0)
        .then(|| Duration::from_millis(cfg.heartbeat_timeout_ms as u64));
    loop {
        if st.gather_complete() && st.census.is_none() {
            break;
        }
        if start.elapsed() > DRIVER_DEADLINE {
            let missing: Vec<usize> = st
                .active_ranks()
                .into_iter()
                .filter(|&r| st.shards[r].is_none())
                .collect();
            return Err(NetError::Protocol(format!(
                "driver deadline: shards missing from ranks {missing:?} after {DRIVER_DEADLINE:?}"
            )));
        }
        if let Some(census) = &st.census {
            if census.started.elapsed() > CENSUS_DEADLINE {
                return Err(NetError::Protocol(format!(
                    "census for epoch {} incomplete after {CENSUS_DEADLINE:?}",
                    census.epoch
                )));
            }
        }

        // Failure detection: the driver's own evidence, cross-checked
        // against peer reports.  One census at a time.  A rank whose
        // shard has arrived is done, not dead — it has every right to
        // exit and go silent — but everyone else stays evictable even
        // after drain: a corpse in the fin-wait wedges all survivors.
        if let Some(timeout) = hb_timeout {
            let now = Instant::now();
            for r in st.active_ranks() {
                if st.shards[r].is_some() {
                    continue;
                }
                let silent = now.duration_since(st.last_heard[r]);
                // Before drain no rank exits on purpose, so hard
                // evidence is conclusive — evict promptly (a corpse
                // keeps eating tokens, and every token it eats is a
                // re-mint).  After drain a clean quiesce's final
                // frames (telemetry, shard) may still be queued
                // behind the EOF that produced the flag, so the
                // evidence only counts once it has settled.
                let down_settled = if transport.peer_down(r) {
                    let since = *st.down_since[r].get_or_insert(now);
                    !st.drained || now.duration_since(since) >= EOF_EVICT_GRACE
                } else {
                    st.down_since[r] = None;
                    false
                };
                let dead = down_settled
                    || silent > timeout
                    || (st.suspected & bit(r) != 0 && silent > timeout / 2);
                if dead {
                    start_eviction(transport, &mut st, data, cfg, budget, r)?;
                }
            }
        }

        // Serving pump: route fresh submissions, re-route queries whose
        // owner changed, fail evicted owners over to the replica.  A
        // submission does not wait for the receive below to time out:
        // `ServeRouter::query` wakes this endpoint, the receive
        // returns `None`, and the loop comes back here.  The pump takes
        // the router's state mutex and sends to rank inboxes under it;
        // our own inbox mutex is only ever taken in `recv_timeout`, with
        // the router's released.
        if let Some(router) = router {
            let mut backend = DriverBackend {
                st: &st,
                serve: &mut serve,
            };
            router.pump(transport, &mut backend)?;
        }

        let Some((src, msg)) = transport.recv_timeout(DRIVER_TICK)? else {
            continue;
        };
        // A dead rank's messages are dropped wholesale: its inventory
        // contribution was re-minted, so counting anything it says would
        // double-mint.
        if src < capacity && st.evicted & bit(src) != 0 {
            continue;
        }
        if src < capacity {
            st.last_heard[src] = Instant::now();
        }
        match msg {
            Message::Progress {
                rank,
                updates,
                staleness,
                publish_gap,
            } => {
                let r = rank as usize;
                if r >= capacity || r != src {
                    return Err(NetError::Protocol(format!(
                        "progress for rank {r} from endpoint {src}"
                    )));
                }
                st.latest[r] = st.latest[r].max(updates);
                serve.staleness[r] = staleness;
                serve.publish_gap[r] = publish_gap;
                maybe_drain(transport, &mut st, budget)?;
            }
            Message::Ping { .. } => {}
            Message::Replica(payload) => {
                let r = payload.rank as usize;
                if r >= capacity || r != src {
                    return Err(NetError::Protocol(format!(
                        "replica for rank {r} from endpoint {src}"
                    )));
                }
                st.telemetry.events.record(
                    EventKind::Publish,
                    payload.rank as u64,
                    payload.updates_at,
                );
                serve.merge(&payload, k)?;
            }
            Message::ReplicaDelta(payload) => {
                let r = payload.rank as usize;
                if r >= capacity || r != src {
                    return Err(NetError::Protocol(format!(
                        "replica delta for rank {r} from endpoint {src}"
                    )));
                }
                if serve.merge_delta(&payload, k)? {
                    st.telemetry.events.record(
                        EventKind::Publish,
                        payload.rank as u64,
                        payload.updates_at,
                    );
                    st.telemetry
                        .delta_rows
                        .add((payload.w_rows.len() + payload.h_rows.len()) as u64);
                }
            }
            Message::QueryReply {
                id,
                status,
                epoch,
                updates_at,
                staleness,
                recs,
            } => {
                // A reply with no router (or for an id the router already
                // resolved) is a straggler: drop it.
                if let Some(router) = router {
                    router.on_reply(id, status, epoch, updates_at, staleness, recs);
                }
            }
            Message::Suspect { rank, peer } => {
                let (r, p) = (rank as usize, peer as usize);
                if r != src || p >= capacity {
                    return Err(NetError::Protocol(format!(
                        "suspect report for {p} from endpoint {src} claiming rank {r}"
                    )));
                }
                st.suspected |= bit(p);
            }
            Message::Inventory {
                epoch,
                rank,
                tickets,
                held,
            } => {
                handle_inventory(
                    transport, &mut st, data, cfg, budget, src, epoch, rank, tickets, held,
                )?;
            }
            Message::Join { rank } => {
                let r = rank as usize;
                if r >= capacity || r != src {
                    return Err(NetError::Protocol(format!(
                        "join for slot {r} from endpoint {src}"
                    )));
                }
                request_join(transport, &mut st, data, cfg, budget, r)?;
            }
            Message::Shard(shard) => {
                let r = shard.rank as usize;
                if r >= capacity || r != src {
                    return Err(NetError::Protocol(format!(
                        "shard for rank {r} from endpoint {src}"
                    )));
                }
                if st.shards[r].is_some() {
                    return Err(NetError::Protocol(format!("duplicate shard from rank {r}")));
                }
                // A shard landing mid-census from a still-needed survivor
                // means it quiesced before the eviction notice reached
                // it; the shard stands in for its inventory.
                if let Some(census) = &mut st.census {
                    if census.need & bit(r) != 0 {
                        fold_shard_into_census(census, &shard)?;
                        census.need &= !bit(r);
                    }
                }
                st.shards[r] = Some(*shard);
                census_try_finish(transport, &mut st, data, cfg, budget)?;
            }
            Message::Telemetry(payload) => {
                let r = payload.rank as usize;
                if r >= capacity || r != src {
                    return Err(NetError::Protocol(format!(
                        "telemetry for rank {r} from endpoint {src}"
                    )));
                }
                // Frames are cumulative; keep only the newest per rank.
                // (Evicted senders never reach here — the drop guard
                // above freezes them at their last accepted report.)
                let slot = &mut st.telemetry.rank_snaps[r];
                if slot.as_ref().is_none_or(|(seq, _)| payload.seq > *seq) {
                    *slot = Some((payload.seq, payload.snapshot));
                }
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "driver got unexpected {other:?} from {src}"
                )))
            }
        }
    }
    let wall_seconds = start.elapsed().as_secs_f64();

    // Quiesce serving before gather bookkeeping: queries submitted from
    // here on resolve immediately as `RunOver`.
    if let Some(router) = router {
        router.finish();
    }

    // Farewell to slots that never joined: a joiner waking up after the
    // run is over finds a rejection waiting instead of 30s of silence.
    for r in 0..capacity {
        if !st.is_active(r) && st.evicted & bit(r) == 0 {
            let _ = transport.send(
                r,
                &Message::Evict {
                    epoch: st.epoch,
                    rank: r as u32,
                },
            );
        }
    }

    let mut gathered: Vec<ShardPayload> = Vec::new();
    let mut per_rank_updates = vec![0u64; capacity];
    let mut per_rank_tickets = vec![0u64; capacity];
    for r in 0..capacity {
        if let Some(shard) = st.shards[r].take() {
            per_rank_updates[r] = shard.updates;
            per_rank_tickets[r] = shard.tickets;
            gathered.push(shard);
        }
    }
    // Post-drain deaths left items and user segments in the driver's
    // hands (no survivor could absorb them); synthesize one extra shard
    // of fresh rows.  Zero tickets and zero passes keep the debt
    // equation intact.
    if !st.held_items.is_empty() || !st.held_segments.is_empty() {
        let tokens = st
            .held_items
            .iter()
            .map(|&j| WireToken {
                item: j,
                pass: 0,
                factor: fresh_item_rows(1, k, j as usize, nomad.seed)
                    .row(0)
                    .to_vec(),
            })
            .collect();
        let segments = st
            .held_segments
            .iter()
            .map(|&(start, count)| {
                let fresh = fresh_user_rows(count, k, start, nomad.seed);
                let mut rows = Vec::with_capacity(count * k);
                for local in 0..count {
                    rows.extend_from_slice(fresh.row(local));
                }
                WireSegment {
                    row_start: start as u64,
                    rows,
                }
            })
            .collect();
        gathered.push(ShardPayload {
            rank: capacity as u32,
            k: k as u32,
            segments,
            tokens,
            tickets: 0,
            updates: 0,
            remote_sends: 0,
        });
    }
    let model = assemble_model(data.nrows(), data.ncols(), k, &gathered, st.debt);
    let max_staleness = st
        .active_ranks()
        .iter()
        .map(|&r| serve.staleness[r])
        .max()
        .unwrap_or(u64::MAX);
    let max_publish_gap = st
        .active_ranks()
        .iter()
        .map(|&r| serve.publish_gap[r])
        .max()
        .unwrap_or(0);
    let stats = NetStats {
        updates: gathered.iter().map(|s| s.updates).sum(),
        tokens_processed: gathered.iter().map(|s| s.tickets).sum(),
        remote_sends: gathered.iter().map(|s| s.remote_sends).sum(),
        wall_seconds,
        per_rank_updates,
        per_rank_tickets,
        evicted: st.evicted_list,
        joined: st.joined_list,
        reminted: st.reminted,
        max_staleness,
        max_publish_gap,
        rank_telemetry: st
            .telemetry
            .rank_snaps
            .into_iter()
            .map(|slot| slot.map(|(_, snap)| snap))
            .collect(),
        driver_telemetry: st.telemetry.registry.snapshot(),
        events: st.telemetry.events.dump_lines(),
    };
    Ok(DistOutput { model, stats })
}

/// Builds the configuration half of a `Setup` (shard fields zeroed; the
/// caller fills them in).
fn make_setup(
    cfg: &NetConfig,
    data: &RatingMatrix,
    budget: u64,
    rank: usize,
    capacity: usize,
    active_ranks: &[u32],
    epoch: u64,
) -> SetupPayload {
    let nomad = &cfg.nomad;
    let abort_after = match cfg.abort_rank {
        Some(victim) if victim as usize == rank => cfg.abort_after_updates,
        _ => 0,
    };
    SetupPayload {
        rank: rank as u32,
        ranks: capacity as u32,
        nrows: data.nrows() as u64,
        ncols: data.ncols() as u64,
        row_start: 0,
        row_count: 0,
        k: nomad.params.k as u32,
        seed: nomad.seed,
        lambda: nomad.params.lambda,
        alpha: nomad.params.alpha,
        beta: nomad.params.beta,
        routing: nomad.routing,
        budget,
        message_batch: nomad.message_batch as u32,
        progress_every: cfg.effective_progress_every(budget),
        heartbeat_timeout_ms: cfg.heartbeat_timeout_ms,
        abort_after_updates: abort_after,
        serve_publish_every: cfg.serve_publish_every,
        serve_nprobe: cfg.serve_nprobe,
        epoch,
        active_ranks: active_ranks.to_vec(),
        w_rows: Vec::new(),
        cols: WireCols::default(),
    }
}

/// Broadcasts `Drain` once the summed progress reaches the budget —
/// deferred while a census runs (survivors are parked and could not
/// quiesce anyway; evictions and drain must not interleave).
fn maybe_drain<T: Transport>(
    transport: &T,
    st: &mut DriverState,
    budget: u64,
) -> Result<(), NetError> {
    if st.drained || st.census.is_some() || st.progress_sum() < budget {
        return Ok(());
    }
    st.drained = true;
    st.telemetry
        .events
        .record(EventKind::Drain, st.epoch, st.progress_sum());
    for r in st.active_ranks() {
        send_lenient(transport, r, &Message::Drain)?;
    }
    Ok(())
}

/// Sends to a rank, tolerating `PeerGone` — the failure detector owns
/// dead peers, a broadcast must not die on one.
fn send_lenient<T: Transport>(transport: &T, dest: usize, msg: &Message) -> Result<(), NetError> {
    match transport.send(dest, msg) {
        Err(NetError::PeerGone(_)) => Ok(()),
        other => other.map(|_| ()),
    }
}

/// Starts (or queues) the eviction of `dead`.
fn start_eviction<T: Transport>(
    transport: &T,
    st: &mut DriverState,
    data: &RatingMatrix,
    cfg: &NetConfig,
    budget: u64,
    dead: usize,
) -> Result<(), NetError> {
    if !st.is_active(dead) || st.shards[dead].is_some() {
        return Ok(());
    }
    if st.census.is_some() {
        if !st.pending_evictions.contains(&dead) {
            st.pending_evictions.push_back(dead);
        }
        return Ok(());
    }
    st.epoch += 1;
    st.active &= !bit(dead);
    st.evicted |= bit(dead);
    st.suspected &= !bit(dead);
    st.evicted_list.push(dead as u32);
    st.telemetry.evictions.inc();
    st.telemetry
        .events
        .record(EventKind::Eviction, dead as u64, st.progress_sum());
    // The corpse's updates no longer count toward the budget: survivors
    // must finish the work themselves.
    st.latest[dead] = 0;
    let epoch = st.epoch;
    let notice = Message::Evict {
        epoch,
        rank: dead as u32,
    };
    // Best-effort notice to the evictee itself, so a slow-but-alive rank
    // exits cleanly instead of haunting a mesh that stopped listening.
    let _ = transport.send(dead, &notice);
    transport.close_peer(dead);
    let survivors = st.active_ranks();
    if survivors.is_empty() {
        return Err(NetError::Protocol(
            "every rank is dead; nothing left to run the census".into(),
        ));
    }
    for &r in &survivors {
        send_lenient(transport, r, &notice)?;
    }
    let mut census = Census {
        epoch,
        dead,
        need: 0,
        started: Instant::now(),
        tickets: 0,
        passes: 0,
        seen: vec![false; data.ncols()],
    };
    for &r in &survivors {
        match &st.shards[r] {
            // A quiesced survivor cannot answer — its gathered shard
            // already says everything an inventory would.
            Some(shard) => fold_shard_into_census(&mut census, shard)?,
            None => census.need |= bit(r),
        }
    }
    st.census = Some(census);
    census_try_finish(transport, st, data, cfg, budget)
}

/// Folds a quiesced survivor's shard into the census: the shard *is* its
/// inventory — tickets are final and its queue tokens are the shard's.
fn fold_shard_into_census(census: &mut Census, shard: &ShardPayload) -> Result<(), NetError> {
    census.tickets += shard.tickets;
    for token in &shard.tokens {
        let j = token.item as usize;
        if j >= census.seen.len() {
            return Err(NetError::Protocol(format!("shard item {j} out of range")));
        }
        assert!(
            !census.seen[j],
            "item {j} held by two survivors: token conservation violated"
        );
        census.seen[j] = true;
        census.passes += token.pass;
    }
    Ok(())
}

/// Completes the census once every needed survivor has answered (by
/// inventory or by shard), then runs whatever stacked up behind it.
fn census_try_finish<T: Transport>(
    transport: &T,
    st: &mut DriverState,
    data: &RatingMatrix,
    cfg: &NetConfig,
    budget: u64,
) -> Result<(), NetError> {
    match &st.census {
        Some(census) if census.need == 0 => {}
        _ => return Ok(()),
    }
    finish_census(transport, st, data, cfg)?;
    while let Some(dead) = st.pending_evictions.pop_front() {
        start_eviction(transport, st, data, cfg, budget, dead)?;
        if st.census.is_some() {
            return Ok(());
        }
    }
    while let Some(joiner) = st.pending_joins.pop_front() {
        request_join(transport, st, data, cfg, budget, joiner)?;
    }
    maybe_drain(transport, st, budget)?;
    Ok(())
}

/// Folds one survivor's inventory into the census; completes the census
/// when the last one arrives.
#[allow(clippy::too_many_arguments)]
fn handle_inventory<T: Transport>(
    transport: &T,
    st: &mut DriverState,
    data: &RatingMatrix,
    cfg: &NetConfig,
    budget: u64,
    src: usize,
    epoch: u64,
    rank: u32,
    tickets: u64,
    held: Vec<(u32, u64)>,
) -> Result<(), NetError> {
    let r = rank as usize;
    let Some(census) = &mut st.census else {
        return Err(NetError::Protocol(format!(
            "inventory from rank {r} with no census running"
        )));
    };
    if r != src || epoch != census.epoch || census.need & bit(r) == 0 {
        return Err(NetError::Protocol(format!(
            "inventory from endpoint {src} claiming rank {r} epoch {epoch} (census epoch {})",
            census.epoch
        )));
    }
    census.need &= !bit(r);
    census.tickets += tickets;
    for &(item, pass) in &held {
        let j = item as usize;
        if j >= census.seen.len() {
            return Err(NetError::Protocol(format!(
                "inventoried item {j} out of range"
            )));
        }
        assert!(
            !census.seen[j],
            "item {j} inventoried by two survivors: token conservation violated"
        );
        census.seen[j] = true;
        census.passes += pass;
    }
    census_try_finish(transport, st, data, cfg, budget)
}

/// All inventories are in: re-mint the lost tokens, record the pass
/// debt, re-materialize the dead rank's user shard on a survivor, and
/// release the mesh with `Reconfigure`.
fn finish_census<T: Transport>(
    transport: &T,
    st: &mut DriverState,
    data: &RatingMatrix,
    cfg: &NetConfig,
) -> Result<(), NetError> {
    let census = st.census.take().expect("census in progress");
    let nomad = &cfg.nomad;
    let k = nomad.params.k;
    let epoch = census.epoch;
    let survivors = st.active_ranks();

    // Conservation bookkeeping: the tickets the corpse drew and the
    // passes riding on lost tokens both left the ledger; the census cut
    // measures their net effect exactly (see the module docs).  The cut
    // totals *replace* the previous debt — `Σ tickets − Σ passes` is
    // constant in time between membership events, so the latest cut
    // already reflects every earlier one.
    st.debt = census.tickets as i128 - census.passes as i128;
    st.telemetry
        .events
        .record(EventKind::Census, epoch, st.debt.unsigned_abs() as u64);

    if st.drained {
        // Post-drain, survivors must not absorb new work: the driver
        // itself keeps the lost items and the corpse's user rows and
        // synthesizes them as fresh rows at gather.  Reconfigure still
        // goes out so survivors parked in the census can quiesce.
        for j in 0..data.ncols() {
            if !census.seen[j] {
                st.reminted += 1;
                st.held_items.push(j as u32);
            }
        }
        let segments = std::mem::take(&mut st.owned[census.dead]);
        st.held_segments.extend(segments);
        for &r in &survivors {
            send_lenient(transport, r, &Message::Reconfigure { epoch })?;
        }
        return Ok(());
    }

    // Re-mint every item no survivor holds, homed by the same hash the
    // scatter used, over the surviving ranks.
    let mut pending: Vec<Vec<WireToken>> = survivors.iter().map(|_| Vec::new()).collect();
    for j in 0..data.ncols() {
        if census.seen[j] {
            continue;
        }
        st.reminted += 1;
        let slot = token_home(nomad.seed, j as u32, survivors.len());
        let factor = fresh_item_rows(1, k, j, nomad.seed).row(0).to_vec();
        pending[slot].push(WireToken {
            item: j as u32,
            pass: 0,
            factor,
        });
        if pending[slot].len() >= nomad.message_batch {
            let tokens = std::mem::take(&mut pending[slot]);
            send_lenient(
                transport,
                survivors[slot],
                &Message::TokenBatch { qlen: 0, tokens },
            )?;
        }
    }
    for (slot, tokens) in pending.into_iter().enumerate() {
        if !tokens.is_empty() {
            send_lenient(
                transport,
                survivors[slot],
                &Message::TokenBatch { qlen: 0, tokens },
            )?;
        }
    }

    // Takeover: the dead rank's user rows go to the least-loaded
    // survivor with fresh factors (the live ones died with the rank) and
    // the ratings re-cut from the driver's copy of the data.
    let segments = std::mem::take(&mut st.owned[census.dead]);
    if !segments.is_empty() {
        let taker = *survivors
            .iter()
            .min_by_key(|&&r| st.owned[r].iter().map(|&(_, c)| c).sum::<usize>())
            .expect("at least one survivor");
        for (start, count) in segments {
            let rows = fresh_user_rows(count, k, start, nomad.seed)
                .as_slice()
                .to_vec();
            send_lenient(
                transport,
                taker,
                &Message::ShardTransfer(Box::new(ShardTransferPayload {
                    row_start: start as u64,
                    k: k as u32,
                    rows,
                    cols: WireCols::cut(data.by_cols(), start..start + count),
                })),
            )?;
            st.owned[taker].push((start, count));
        }
    }

    for &r in &survivors {
        send_lenient(transport, r, &Message::Reconfigure { epoch })?;
    }
    Ok(())
}

/// Admits (or queues, or rejects) a mid-run join for mesh slot `joiner`.
fn request_join<T: Transport>(
    transport: &T,
    st: &mut DriverState,
    data: &RatingMatrix,
    cfg: &NetConfig,
    budget: u64,
    joiner: usize,
) -> Result<(), NetError> {
    if st.is_active(joiner) {
        return Err(NetError::Protocol(format!(
            "rank {joiner} is already active and asked to join"
        )));
    }
    if st.drained || st.evicted & bit(joiner) != 0 {
        // Too late (or a dead slot trying to return): reject so the
        // newcomer's wait-for-setup exits cleanly.
        let _ = transport.send(
            joiner,
            &Message::Evict {
                epoch: st.epoch,
                rank: joiner as u32,
            },
        );
        return Ok(());
    }
    if st.census.is_some() {
        if !st.pending_joins.contains(&joiner) {
            st.pending_joins.push_back(joiner);
        }
        return Ok(());
    }
    st.epoch += 1;
    st.active |= bit(joiner);
    st.last_heard[joiner] = Instant::now();
    st.down_since[joiner] = None;
    st.joined_list.push(joiner as u32);
    st.telemetry.joins.inc();
    st.telemetry
        .events
        .record(EventKind::Join, joiner as u64, st.progress_sum());
    let epoch = st.epoch;
    let actives: Vec<u32> = st.active_ranks().iter().map(|&r| r as u32).collect();

    // The newcomer starts with an empty shard; rows arrive by rebalance.
    let setup = make_setup(cfg, data, budget, joiner, st.capacity, &actives, epoch);
    transport.send(joiner, &Message::Setup(Box::new(setup)))?;
    for r in st.active_ranks() {
        if r != joiner {
            send_lenient(
                transport,
                r,
                &Message::AddRank {
                    epoch,
                    rank: joiner as u32,
                },
            )?;
        }
    }

    // Rebalance: the most-loaded rank donates the top half of its
    // largest segment.  FIFO on the driver→donor edge puts `AddRank`
    // before `Rebalance`, so the donor knows the destination exists.
    let donor = st
        .active_ranks()
        .into_iter()
        .filter(|&r| r != joiner)
        .max_by_key(|&r| st.owned[r].iter().map(|&(_, c)| c).sum::<usize>());
    if let Some(donor) = donor {
        let largest = st.owned[donor]
            .iter()
            .enumerate()
            .max_by_key(|(_, &(_, c))| c)
            .map(|(i, &(s, c))| (i, s, c));
        if let Some((idx, seg_start, seg_count)) = largest {
            if seg_count >= 2 {
                let keep = seg_count / 2;
                let give_start = seg_start + keep;
                let give_count = seg_count - keep;
                send_lenient(
                    transport,
                    donor,
                    &Message::Rebalance {
                        epoch,
                        to: joiner as u32,
                        row_start: give_start as u64,
                        row_count: give_count as u64,
                    },
                )?;
                st.owned[donor][idx] = (seg_start, keep);
                st.owned[joiner].push((give_start, give_count));
            }
        }
    }
    Ok(())
}

/// Reassembles the factor model from the gathered shards, asserting token
/// conservation — the distributed mirror of the threaded engine's
/// `assemble_model` invariant, extended with the eviction pass debt.
fn assemble_model(
    nrows: usize,
    ncols: usize,
    k: usize,
    shards: &[ShardPayload],
    debt: i128,
) -> FactorModel {
    let mut model = FactorModel {
        w: FactorMatrix::zeros(nrows, k),
        h: FactorMatrix::zeros(ncols, k),
    };
    let mut user_seen = vec![false; nrows];
    let mut seen = vec![false; ncols];
    let mut total_passes = 0u64;
    let mut total_tickets = 0u64;
    for shard in shards {
        assert_eq!(shard.k as usize, k, "shard k mismatch");
        for seg in &shard.segments {
            assert_eq!(seg.rows.len() % k, 0, "segment rows must be whole rows");
            let count = seg.rows.len() / k;
            for local in 0..count {
                let row = seg.row_start as usize + local;
                assert!(
                    row < nrows && !user_seen[row],
                    "user row {row} owned by two ranks at quiesce"
                );
                user_seen[row] = true;
                model.w.set_row(row, &seg.rows[local * k..(local + 1) * k]);
            }
        }
        for token in &shard.tokens {
            let j = token.item as usize;
            assert!(
                j < ncols && !seen[j],
                "item {j} owned by two ranks: token conservation violated"
            );
            seen[j] = true;
            total_passes += token.pass;
            model.h.set_row(j, &token.factor);
        }
        total_tickets += shard.tickets;
    }
    assert!(
        user_seen.iter().all(|&s| s),
        "every user row must be in exactly one rank's shard at quiesce"
    );
    assert!(
        seen.iter().all(|&s| s),
        "every item must be in exactly one rank's shard at quiesce"
    );
    assert_eq!(
        total_tickets as i128 - total_passes as i128,
        debt,
        "tickets minus passes must equal the eviction pass debt"
    );
    model
}

/// The distributed NOMAD engine: one driver plus up to `capacity` ranks,
/// each with a worker thread and a communication thread, connected by a
/// pluggable transport.
#[derive(Debug, Clone)]
pub struct DistributedNomad {
    cfg: NetConfig,
    ranks: usize,
}

impl DistributedNomad {
    /// Creates the engine with every mesh slot active from the start.
    ///
    /// # Panics
    /// Panics if `ranks == 0` or `ranks` exceeds the 64 slots the
    /// membership bitmaps can track.
    pub fn new(nomad: NomadConfig, ranks: usize) -> Self {
        Self::with_config(NetConfig::new(nomad), ranks)
    }

    /// Creates the engine from a full [`NetConfig`] with a mesh capacity
    /// of `capacity` slots (`cfg.initial_ranks` of them start active).
    ///
    /// # Panics
    /// Panics if `capacity == 0`, if `capacity` exceeds the 64 slots the
    /// membership bitmaps can track, or if `cfg.initial_ranks > capacity`.
    pub fn with_config(cfg: NetConfig, capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one rank");
        assert_capacity(capacity);
        assert!(
            cfg.initial_ranks <= capacity,
            "initial_ranks exceeds capacity"
        );
        Self {
            cfg,
            ranks: capacity,
        }
    }

    /// Overrides the progress-report cadence.
    pub fn with_progress_every(mut self, every: u64) -> Self {
        self.cfg.progress_every = every;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Number of mesh slots.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Runs the engine with every rank on a thread of this process and
    /// the in-memory [`Loopback`] transport — no sockets, same engine.
    ///
    /// # Errors
    /// Propagates transport/protocol failures from any endpoint.
    pub fn run_loopback(&self, data: &RatingMatrix) -> Result<DistOutput, NetError> {
        self.run_loopback_elastic(data, &[])
    }

    /// Runs the engine on the loopback transport with scripted joiners:
    /// each `(rank, delay)` pair spawns a thread that sleeps `delay`,
    /// then joins the running mesh as `rank` via [`crate::rank::join_rank`].
    /// The joined slots must lie in `initial_ranks..capacity`.
    ///
    /// # Errors
    /// Propagates transport/protocol failures from any endpoint.
    pub fn run_loopback_elastic(
        &self,
        data: &RatingMatrix,
        joiners: &[(usize, Duration)],
    ) -> Result<DistOutput, NetError> {
        self.run_loopback_inner(data, joiners, None)
    }

    /// Runs the loopback engine while serving top-k queries through
    /// `router`: query threads block in [`ServeRouter::query`] and the
    /// driver answers them concurrently with training.  Joiners behave
    /// as in [`Self::run_loopback_elastic`].  The configuration should
    /// set [`NetConfig::serve_publish_every`], or every query will be a
    /// stale-replica answer.
    ///
    /// # Errors
    /// Propagates transport/protocol failures from any endpoint.
    pub fn run_loopback_serving(
        &self,
        data: &RatingMatrix,
        joiners: &[(usize, Duration)],
        router: &ServeRouter,
    ) -> Result<DistOutput, NetError> {
        self.run_loopback_inner(data, joiners, Some(router))
    }

    fn run_loopback_inner(
        &self,
        data: &RatingMatrix,
        joiners: &[(usize, Duration)],
        router: Option<&ServeRouter>,
    ) -> Result<DistOutput, NetError> {
        let initial = if self.cfg.initial_ranks == 0 {
            self.ranks
        } else {
            self.cfg.initial_ranks
        };
        let (driver, mut endpoints) = Loopback::mesh(self.ranks);
        // Claim the join endpoints before the initial ones consume the vec.
        let mut join_eps: Vec<(Loopback, Duration)> = Vec::new();
        for &(rank, delay) in joiners {
            assert!(
                rank >= initial && rank < self.ranks,
                "joiner slot {rank} must be an initially-empty mesh slot"
            );
            join_eps.push((
                std::mem::replace(&mut endpoints[rank], Loopback::mesh(1).0),
                delay,
            ));
        }
        endpoints.truncate(initial);
        std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    scope.spawn(move || {
                        let ep = ep;
                        crate::rank::run_rank(&ep)
                    })
                })
                .collect();
            let join_handles: Vec<_> = join_eps
                .into_iter()
                .map(|(ep, delay)| {
                    scope.spawn(move || {
                        let ep = ep;
                        std::thread::sleep(delay);
                        // A turned-away joiner (the run drained or even
                        // finished first) is a clean outcome; the caller
                        // reads `stats.joined` for who actually made it.
                        crate::rank::join_rank(&ep).map(|_| ())
                    })
                })
                .collect();
            let out = run_driver_serving(&driver, data, &self.cfg, router);
            for handle in handles.into_iter().chain(join_handles) {
                handle.join().expect("rank thread panicked")?;
            }
            out
        })
    }

    /// Runs the engine with every rank on a thread of this process but
    /// over real localhost TCP sockets — the full wire path without
    /// process spawning.
    ///
    /// # Errors
    /// Propagates socket/protocol failures from any endpoint.
    pub fn run_tcp_threads(&self, data: &RatingMatrix) -> Result<DistOutput, NetError> {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let ranks = self.ranks;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ranks)
                .map(|r| {
                    scope.spawn(move || -> Result<(), NetError> {
                        let ep = crate::tcp::TcpTransport::connect_rank(&addr, r)?;
                        let run = crate::rank::run_rank(&ep);
                        ep.linger();
                        run
                    })
                })
                .collect();
            let driver = crate::tcp::TcpTransport::accept_ranks(listener, ranks)?;
            let out = run_driver(&driver, data, &self.cfg);
            // Closing the driver's side ends the ranks' linger.
            drop(driver);
            for handle in handles {
                handle.join().expect("rank thread panicked")?;
            }
            out
        })
    }

    /// Runs the engine with every rank in its **own re-exec'd process**
    /// over localhost TCP — real address-space separation.
    ///
    /// The current executable is re-spawned once per rank; the binary's
    /// `main` must call [`crate::process::child_entry`] before anything
    /// else, which diverts the child into the rank loop.
    ///
    /// # Errors
    /// Propagates spawn/socket/protocol failures; a child exiting
    /// non-zero is reported as a protocol error unless that child was
    /// evicted mid-run (a killed child cannot exit cleanly).
    pub fn run_processes(&self, data: &RatingMatrix) -> Result<DistOutput, NetError> {
        crate::process::run_processes(&self.cfg, data, self.ranks, None)
    }

    /// [`Self::run_processes`] with a serving front-end: the parent
    /// process drives `router` while the re-exec'd rank children answer
    /// queries — the full kill-a-serving-rank path with real address
    /// spaces.
    ///
    /// # Errors
    /// Same failure modes as [`Self::run_processes`].
    pub fn run_processes_serving(
        &self,
        data: &RatingMatrix,
        router: &ServeRouter,
    ) -> Result<DistOutput, NetError> {
        crate::process::run_processes(&self.cfg, data, self.ranks, Some(router))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireDeltaRow;
    use nomad_sgd::FactorModel;

    const K: usize = 3;

    fn serve_state(nrows: usize, ncols: usize, capacity: usize) -> ServeState {
        ServeState::new(&FactorModel::init(nrows, ncols, K, 7), nrows, capacity)
    }

    /// A full frame from `rank` covering rows `[start, start+count)`,
    /// with every value derived from `epoch` so frames are distinguishable.
    fn full_frame(
        rank: u32,
        epoch: u64,
        start: usize,
        count: usize,
        ncols: usize,
    ) -> ReplicaPayload {
        let val = |row: usize, c: usize| (epoch * 1000 + row as u64 * 10 + c as u64) as f64;
        ReplicaPayload {
            rank,
            k: K as u32,
            epoch,
            updates_at: epoch * 100,
            segments: vec![WireSegment {
                row_start: start as u64,
                rows: (start..start + count)
                    .flat_map(|r| (0..K).map(move |c| val(r, c)))
                    .collect(),
            }],
            items: (0..ncols)
                .flat_map(|j| (0..K).map(move |c| -val(j, c)))
                .collect(),
        }
    }

    fn delta_row(row: usize, vals: [f64; K]) -> WireDeltaRow {
        WireDeltaRow {
            row: row as u64,
            factors: vals.to_vec(),
        }
    }

    /// A delta applied on a matching base advances exactly the carried
    /// rows and leaves everything else bit-identical — the unit-scale
    /// version of what the `delta_equiv` suite pins end-to-end.
    #[test]
    fn delta_on_matching_base_applies_carried_rows_only() {
        let mut st = serve_state(6, 4, 2);
        st.merge(&full_frame(0, 1, 0, 3, 4), K).unwrap();
        let before = st.replica.clone();
        let delta = ReplicaDeltaPayload {
            rank: 0,
            k: K as u32,
            epoch: 2,
            base_epoch: 1,
            updates_at: 250,
            w_rows: vec![delta_row(1, [9.0, 8.0, 7.0])],
            h_rows: vec![delta_row(3, [-1.5, 2.5, -3.5])],
        };
        assert!(st.merge_delta(&delta, K).unwrap());
        assert_eq!(st.replica.w.row(1), &[9.0, 8.0, 7.0]);
        assert_eq!(st.replica.h.row(3), &[-1.5, 2.5, -3.5]);
        assert_eq!(st.row_updates_at[1], 250);
        for r in [0usize, 2, 3, 4, 5] {
            assert_eq!(
                st.replica.w.row(r),
                before.w.row(r),
                "user row {r} must not move"
            );
        }
        for j in [0usize, 1, 2] {
            assert_eq!(
                st.replica.h.row(j),
                before.h.row(j),
                "item row {j} must not move"
            );
        }
        assert_eq!(st.replica_epoch[0], 2);
        assert!(
            st.snap.is_none(),
            "merge must invalidate the cached snapshot"
        );
    }

    /// A delta whose base epoch does not match the last applied frame —
    /// a lost frame, or a rank that never published here — is dropped
    /// whole, and the next full frame re-chains the rank.
    #[test]
    fn delta_with_broken_chain_is_dropped_until_full_resync() {
        let mut st = serve_state(4, 3, 2);
        let orphan = ReplicaDeltaPayload {
            rank: 1,
            k: K as u32,
            epoch: 5,
            base_epoch: 4,
            updates_at: 10,
            w_rows: vec![delta_row(0, [1.0, 2.0, 3.0])],
            h_rows: vec![],
        };
        // Never published: dropped (the ready bit is down).
        assert!(!st.merge_delta(&orphan, K).unwrap());
        assert_eq!(st.ready, 0);

        st.merge(&full_frame(1, 2, 2, 2, 3), K).unwrap();
        let before = st.replica.clone();
        // Chains onto epoch 4, but the last applied frame is epoch 2.
        assert!(!st.merge_delta(&orphan, K).unwrap());
        assert_eq!(
            st.replica.w.row(0),
            before.w.row(0),
            "dropped delta must not touch the replica"
        );
        assert_eq!(st.replica_epoch[1], 2);

        // The periodic full frame self-heals: after it, deltas chain again.
        st.merge(&full_frame(1, 4, 2, 2, 3), K).unwrap();
        assert!(st.merge_delta(&orphan, K).unwrap());
        assert_eq!(st.replica.w.row(0), &[1.0, 2.0, 3.0]);
    }

    /// Malformed deltas — wrong k, out-of-range rows, ragged factor rows
    /// — are protocol errors, not silent corruption.
    #[test]
    fn malformed_deltas_are_protocol_errors() {
        let mut st = serve_state(4, 3, 1);
        st.merge(&full_frame(0, 1, 0, 4, 3), K).unwrap();
        let base = ReplicaDeltaPayload {
            rank: 0,
            k: K as u32,
            epoch: 2,
            base_epoch: 1,
            updates_at: 10,
            w_rows: vec![],
            h_rows: vec![],
        };
        let bad_k = ReplicaDeltaPayload {
            k: K as u32 + 1,
            ..base.clone()
        };
        assert!(st.merge_delta(&bad_k, K).is_err());
        let bad_user = ReplicaDeltaPayload {
            w_rows: vec![delta_row(4, [0.0; K])],
            ..base.clone()
        };
        assert!(st.merge_delta(&bad_user, K).is_err());
        let bad_item = ReplicaDeltaPayload {
            h_rows: vec![delta_row(3, [0.0; K])],
            ..base.clone()
        };
        assert!(st.merge_delta(&bad_item, K).is_err());
        let ragged = ReplicaDeltaPayload {
            h_rows: vec![WireDeltaRow {
                row: 0,
                factors: vec![1.0],
            }],
            ..base.clone()
        };
        assert!(st.merge_delta(&ragged, K).is_err());
        // The replica survived every rejected frame and still chains.
        assert!(st.merge_delta(&base, K).unwrap());
    }

    /// Chains are per rank: rank A's deltas keep applying while rank B
    /// waits for its resync, and an applied chain equals re-merging the
    /// same rows as full frames.
    #[test]
    fn delta_chains_are_independent_per_rank() {
        let mut st = serve_state(6, 2, 2);
        st.merge(&full_frame(0, 1, 0, 3, 2), K).unwrap();
        st.merge(&full_frame(1, 7, 3, 3, 2), K).unwrap();
        let delta0 = ReplicaDeltaPayload {
            rank: 0,
            k: K as u32,
            epoch: 2,
            base_epoch: 1,
            updates_at: 300,
            w_rows: vec![delta_row(2, [4.0, 5.0, 6.0])],
            h_rows: vec![],
        };
        let stale1 = ReplicaDeltaPayload {
            rank: 1,
            base_epoch: 6,
            ..delta0.clone()
        };
        assert!(st.merge_delta(&delta0, K).unwrap());
        assert!(!st.merge_delta(&stale1, K).unwrap());
        assert_eq!(st.replica_epoch[0], 2);
        assert_eq!(st.replica_epoch[1], 7);
    }
}
