//! The per-rank engine: one worker thread on the PR-3 hot path, one
//! dedicated communication thread on the transport.
//!
//! Each rank owns a set of user-row segments (contiguous at setup, a
//! *list* once evictions and joins move rows around), a [`FactorSlab`]
//! with a slot for *every* item factor (only the rows whose tokens the
//! rank currently holds are live), and one [`Inbox`] of `(item, pass)`
//! tokens.  The worker runs the same hop as
//! `ThreadedNomad`'s workers — [`nomad_core::hop::HopKernel::hop`]: pop a
//! token, sweep the local rating slice through
//! [`FactorSlab::owner_row_mut`], route it onward — over its own
//! [`HopContext`], so the two loops share their decision points by
//! construction rather than by convention.  A token routed to *this* rank is pushed straight back onto the local
//! queue; a token routed to another rank is handed to the communication
//! thread together with a copy of its factor row (Section 2.3 of the
//! paper: the factor travels with the token across address spaces).
//!
//! The communication thread batches outbound tokens into
//! [`Message::TokenBatch`] frames of `message_batch` tokens (Section 3.5),
//! injects inbound tokens by writing the carried factor into the slab row
//! *before* pushing the token onto the worker queue (the push is the
//! ownership hand-off, exactly as in the threaded engine), reports
//! progress to the driver, and executes the quiesce protocol (`Drain` →
//! flush → `Fin` per edge → gather the queue into a [`ShardPayload`]).
//!
//! Neither thread polls, spins or sleeps: an idle worker waits on its
//! token queue, and the comm thread in [`Transport::recv_timeout`] until
//! a frame, its next heartbeat action or the worker's [`Waker`] (DESIGN.md
//! "What wakes a worker / the comm thread" lists every wake).
//!
//! ## Elastic membership
//!
//! On top of the PR-5 protocol this file implements the failure-model
//! half of the paper's "machines join and leave" claim:
//!
//! * **Heartbeats** — every received frame refreshes the sender's
//!   silence timer; an edge idle for a quarter of the heartbeat timeout
//!   gets an explicit [`Message::Ping`].  A peer silent for the full
//!   timeout (or whose stream the transport reports down) is reported to
//!   the driver via [`Message::Suspect`]; the *driver* decides evictions.
//! * **Eviction census** — on [`Message::Evict`] the comm thread parks
//!   the worker at a hop boundary, re-injects every token staged for the
//!   dead rank back into the local queue (staged tokens are recoverable;
//!   only tokens already on the wire to the corpse are lost), flushes
//!   outbound traffic to the survivors and sends each a
//!   [`Message::CensusMark`].  Once every survivor's mark has arrived,
//!   per-edge FIFO guarantees every pre-eviction token has been
//!   delivered, so the local queue is a consistent cut: its `(item,
//!   pass)` contents go to the driver as a [`Message::Inventory`].  The
//!   worker stays parked until the driver's [`Message::Reconfigure`]
//!   confirms the global census is complete — resuming earlier could
//!   double-count a token still in flight between two other survivors.
//! * **Joins** — [`Message::AddRank`] just widens the routing membership
//!   (adding a destination needs no barrier); [`Message::Rebalance`]
//!   makes this rank a donor: at its next hop boundary the worker carves
//!   the requested rows out of its shard (live factors + ratings) and
//!   ships them to the newcomer as a [`Message::ShardTransfer`].
//!   Inbound transfers (takeover or rebalance) are queued as worker
//!   commands and merged at a hop boundary: the transferred columns are
//!   merged into the local ones and `item_passes` is left as it is, so
//!   the step-size schedule is unperturbed.
//!
//! Ratings arrive as the columns the worker sweeps ([`WireCols`]), are
//! checked once (`Shape::adopt`) and kept as they came: a membership
//! change is one [`CscMatrix::extract_rows`] or [`CscMatrix::add_rows`].

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nomad_core::hop::{HopContext, HopKernel, Token};
use nomad_core::online::token_home;
use nomad_core::queue::Inbox;
use nomad_core::slab::FactorSlab;
use nomad_core::worker::WorkerData;
use nomad_matrix::{CscMatrix, Idx};
use nomad_serve::{ModelSnapshot, QueryEngine, ServeError, SnapshotPublisher};
use nomad_sgd::{FactorMatrix, HyperParams};

use nomad_telemetry::{names, CounterHandle, GaugeHandle, HistogramHandle, Registry};

use crate::transport::{NetError, Transport, Waker};
use crate::wire::{
    Message, ReplicaDeltaPayload, ReplicaPayload, SetupPayload, ShardPayload, ShardTransferPayload,
    TelemetryPayload, WireCols, WireDeltaRow, WireSegment, WireToken, QUERY_NOT_READY, QUERY_OK,
    QUERY_RUN_OVER, QUERY_UNKNOWN_USER,
};

/// Ship a full replica frame after this many consecutive delta frames
/// even when a delta would do.  A delta lost to a chaos partition leaves
/// the driver's chain broken (it drops every delta whose `base_epoch`
/// does not match); the periodic full frame bounds how long that state
/// can last without any explicit ack traffic.
const DELTA_RESYNC_EVERY: u32 = 8;

/// Largest mesh capacity the `u64` membership bitmaps (see [`bit`]) track.
const MAX_CAPACITY: usize = 64;

/// Refuses a mesh the membership bitmaps cannot track: past
/// [`MAX_CAPACITY`], [`bit`] would alias rank 64 onto rank 0.
pub(crate) fn assert_capacity(capacity: usize) {
    assert!(
        capacity <= MAX_CAPACITY,
        "mesh capacity {capacity} exceeds the {MAX_CAPACITY} ranks the membership bitmaps track"
    );
}

/// A token leaving the rank: destination plus the factor row that must
/// travel with it across the address-space boundary.
struct Outbound {
    dest: usize,
    token: WireToken,
}

/// Membership changes applied by the worker at a hop boundary, where no
/// token is mid-update.
enum WorkerCmd {
    /// Merge a transferred segment (takeover or rebalance receipt),
    /// already checked by [`Shape::adopt`].
    AddRows {
        segment: Range<usize>,
        rows: Vec<f64>,
        cols: CscMatrix,
    },
    /// Carve out a segment and ship it to `to` (rebalance donation).
    ShipRows {
        to: usize,
        row_start: usize,
        row_count: usize,
    },
}

/// Bit-exact row comparison: the replica chain promises *bit* identity,
/// so `-0.0`/`0.0` and NaN payloads must count as differences where
/// `==` on floats would not.
fn rows_differ(a: &[f64], b: &[f64]) -> bool {
    a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// The owned user rows and the candidate item rows of `snap` that differ
/// from `prev`, or `None` once they reach 70% of the rows a full frame
/// would carry — a delta that large saves nothing.
///
/// Rows are found before any is copied, and the search stops at the
/// threshold: under heavy churn most publishes end in a full frame, and
/// the comm thread (with queries queued behind it) should learn that from
/// a row count, not from a delta it builds and throws away.
fn changed_rows(
    snap: &ModelSnapshot,
    prev: &ModelSnapshot,
    owned: &[(usize, usize)],
    candidates: &[Idx],
) -> Option<(Vec<usize>, Vec<Idx>)> {
    let full_rows = owned.iter().map(|&(_, c)| c).sum::<usize>() + snap.num_items();
    if full_rows == 0 {
        return None;
    }
    let mostly_changed = |changed: usize| changed * 10 >= full_rows * 7;
    let mut users = Vec::new();
    for &(start, count) in owned {
        for r in start..start + count {
            if rows_differ(snap.user_factor(r as Idx), prev.user_factor(r as Idx)) {
                users.push(r);
                if mostly_changed(users.len()) {
                    return None;
                }
            }
        }
    }
    let mut items = Vec::new();
    for &j in candidates {
        if rows_differ(snap.item_factor(j), prev.item_factor(j)) {
            items.push(j);
            if mostly_changed(users.len() + items.len()) {
                return None;
            }
        }
    }
    Some((users, items))
}

/// Assembles a full replica frame: the owned user segments plus the
/// complete item matrix of `snap`.
fn full_replica_frame(
    rank: usize,
    snap: &ModelSnapshot,
    owned: &[(usize, usize)],
) -> ReplicaPayload {
    let k = snap.k();
    let segments = owned
        .iter()
        .map(|&(start, count)| {
            let mut rows = Vec::with_capacity(count * k);
            for r in start..start + count {
                rows.extend_from_slice(snap.user_factor(r as Idx));
            }
            WireSegment {
                row_start: start as u64,
                rows,
            }
        })
        .collect();
    let mut items = Vec::with_capacity(snap.num_items() * k);
    for j in 0..snap.num_items() {
        items.extend_from_slice(snap.item_factor(j as Idx));
    }
    ReplicaPayload {
        rank: rank as u32,
        k: k as u32,
        epoch: snap.epoch(),
        updates_at: snap.updates_at(),
        segments,
        items,
    }
}

/// How many tokens the driver mints at `rank` right behind its `Setup`:
/// the items [`token_home`] places there if the setup is one of the epoch-0
/// initial ones, none for a joiner.  Holding the worker until they are all
/// queued makes a one-rank run start from the serial engine's queue — every
/// token, in item order — whichever thread runs first.
fn initial_tokens(rank: usize, members: u64, setup: &SetupPayload) -> usize {
    if setup.epoch != 0 {
        return 0;
    }
    let ranks = members.count_ones() as usize;
    let home = |j: &Idx| token_home(setup.seed, *j, ranks) == rank;
    (0..setup.ncols as Idx).filter(home).count()
}

/// Rank `r`'s bit in a membership bitmap.
pub(crate) fn bit(r: usize) -> u64 {
    1u64 << r
}

/// The driver's `Setup` plus any messages that raced ahead of it, or
/// `None` if the driver turned this rank away before setup arrived.
type SetupOutcome = Option<(SetupPayload, Vec<(usize, Message)>)>;

/// Waits for the driver's `Setup`, stashing any messages (tokens from
/// faster ranks) that race ahead of it.  There is no deadline: a live
/// driver answers with `Setup` or `Evict`, and one that is gone has closed
/// the mesh ([`crate::launch()`]) or its stream, which ends the wait with
/// [`NetError::Closed`].
fn wait_for_setup<T: Transport>(transport: &T) -> Result<SetupOutcome, NetError> {
    let driver = transport.ranks();
    let mut stashed: Vec<(usize, Message)> = Vec::new();
    loop {
        match transport.recv_timeout(Duration::MAX)? {
            Some((_, Message::Setup(setup))) => return Ok(Some((*setup, stashed))),
            // The driver turned us away (e.g. a join after drain).
            Some((_, Message::Evict { .. })) => return Ok(None),
            Some(other) => stashed.push(other),
            None if transport.peer_down(driver) => return Err(NetError::Closed),
            None => {}
        }
    }
}

/// Runs one rank to completion: handshake-for-setup, train, quiesce,
/// ship the shard.  Returns once the shard has been sent, or `Ok(())`
/// without a shard if the driver evicted this rank (a slow-but-alive
/// rank exits cleanly instead of haunting the mesh).
///
/// # Errors
/// Fails on transport errors or protocol violations (e.g. a second
/// `Setup`), and with [`NetError::Closed`] if the mesh closes before its
/// `Setup` arrives.
pub fn run_rank<T: Transport>(transport: &T) -> Result<(), NetError> {
    let Some((setup, stashed)) = wait_for_setup(transport)? else {
        // Evicted before ever receiving a Setup: nothing to tear down.
        return Err(NetError::Closed);
    };
    run_rank_inner(transport, setup, stashed)
}

/// Joins a running mesh as rank `transport.id()`: announces itself with
/// [`Message::Join`], waits for the driver's `Setup` (an empty shard —
/// rows arrive later via rebalance), then runs the normal rank loop.
///
/// Returns `Ok(true)` if the rank was admitted and ran to completion,
/// `Ok(false)` if the driver turned the join away (run already draining)
/// or the mesh closed first (run finished) — being told "too late" is a
/// normal outcome of elastic membership, not a failure.
///
/// # Errors
/// Fails on transport errors or protocol violations.
pub fn join_rank<T: Transport>(transport: &T) -> Result<bool, NetError> {
    transport.send(
        transport.ranks(),
        &Message::Join {
            rank: transport.id() as u32,
        },
    )?;
    let admitted = match wait_for_setup(transport) {
        Err(NetError::Closed) => None,
        waited => waited?,
    };
    let Some((setup, stashed)) = admitted else {
        return Ok(false);
    };
    run_rank_inner(transport, setup, stashed)?;
    Ok(true)
}

/// The census park handshake (see the module docs): the comm thread
/// raises `requested` and waits for the worker's acknowledgement, which
/// the worker gives at its next hop boundary before waiting on the same
/// condvar until the request is lowered or the rank drains.
#[derive(Default)]
struct Park {
    requested: AtomicBool,
    /// The acknowledgement; an exited worker counts as parked.
    parked: Mutex<bool>,
    changed: Condvar,
}

impl Park {
    fn lock(&self) -> MutexGuard<'_, bool> {
        self.parked.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Comm side: parks the worker, which may be waiting on `queue`, and
    /// returns once it has acknowledged or exited.
    fn request(&self, queue: &Inbox<Token>) {
        self.requested.store(true, Ordering::Release);
        queue.wake();
        let acked = self.changed.wait_while(self.lock(), |parked| !*parked);
        drop(acked.unwrap_or_else(|e| e.into_inner()));
    }

    /// Worker side: acknowledges — at a hop boundary, or for good on exit.
    fn ack(&self) -> MutexGuard<'_, bool> {
        let mut parked = self.lock();
        *parked = true;
        self.changed.notify_all();
        parked
    }

    /// Worker side, at a hop boundary: acknowledges, then waits until the
    /// request is lowered or `drain` is raised.
    fn hold(&self, drain: &AtomicBool) {
        let parked = self.changed.wait_while(self.ack(), |_| {
            self.requested.load(Ordering::Acquire) && !drain.load(Ordering::Acquire)
        });
        *parked.unwrap_or_else(|e| e.into_inner()) = false;
    }

    /// Comm side: lets a parked worker resume.  Taking the lock orders
    /// the notify after the worker's check of the flag.
    fn release(&self) {
        self.requested.store(false, Ordering::Release);
        drop(self.lock());
        self.changed.notify_all();
    }
}

/// Per-rank state shared between the worker and communication threads.
struct Shared {
    /// The worker's tokens; conservation bounds it by `ncols`.
    queue: Inbox<Token>,
    /// Tokens the worker routed to other ranks, for the comm thread.
    outbound: Inbox<Outbound>,
    /// Raised by an idle or exiting worker: send every staging buffer,
    /// half-full ones too.
    flush: AtomicBool,
    slab: FactorSlab,
    drain: AtomicBool,
    worker_exited: AtomicBool,
    local_updates: AtomicU64,
    tickets: AtomicU64,
    /// Piggybacked queue-length estimates for every rank (own entry is
    /// unused; the worker reads its own queue directly).
    qlen_estimates: Vec<AtomicU64>,
    park: Park,
    /// Membership epoch + active-rank bitmap, written by the comm thread
    /// and polled (one relaxed load per hop) by the worker.
    epoch: AtomicU64,
    members: AtomicU64,
    /// Pending membership commands for the worker, applied at hop
    /// boundaries (one relaxed length load per hop).
    cmds: Inbox<WorkerCmd>,
    /// Control messages the worker asks the comm thread to send (it has
    /// no transport access of its own): donated `ShardTransfer`s.
    ctrl_out: Inbox<(usize, Message)>,
    /// The serving snapshot publisher; `None` when the run was
    /// configured without serving (`serve_publish_every == 0`).
    publisher: Option<SnapshotPublisher>,
    /// Mirror of the worker's owned segments so the comm thread can
    /// slice replica frames out of published snapshots without taking
    /// the (worker-held) state lock.
    serve_owned: Mutex<Vec<(usize, usize)>>,
}

impl Shared {
    /// Raises `drain` and wakes the worker wherever it waits.
    fn stop_worker(&self) {
        self.drain.store(true, Ordering::Release);
        self.park.release();
        self.queue.wake();
    }

    /// Queues a membership command for the worker's next hop boundary
    /// and wakes it if it is idle.
    fn queue_cmd(&self, cmd: WorkerCmd) {
        self.cmds.push(cmd);
        self.queue.wake();
    }
}

/// What every shipped segment must fit: the global matrix and the latent
/// dimension, from the rank's `Setup`.
#[derive(Clone, Copy)]
struct Shape {
    nrows: usize,
    ncols: usize,
    k: usize,
}

impl Shape {
    /// Adopts a shipped segment — `row_count` user rows from `row_start`,
    /// their factor rows `w_rows` and their rating columns — or refuses a
    /// frame that does not describe one inside this matrix.  The codec
    /// only lays frames out; this is where their shape is checked, once,
    /// for `Setup` and `ShardTransfer` alike, so a malformed frame ends
    /// the rank with [`NetError::Protocol`] instead of a panic.
    fn adopt(
        &self,
        frame: &str,
        row_start: u64,
        row_count: u64,
        w_rows: &[f64],
        cols: WireCols,
    ) -> Result<(Range<usize>, CscMatrix), NetError> {
        let refuse = |why: &str| NetError::Protocol(format!("{frame} refused: {why}"));
        let end = row_start
            .checked_add(row_count)
            .filter(|&end| end <= self.nrows as u64);
        let segment =
            row_start as usize..end.ok_or_else(|| refuse("rows outside the matrix"))? as usize;
        if w_rows.len() != segment.len() * self.k {
            return Err(refuse("factor values are not k per row"));
        }
        let (counts, rows, values) = (&cols.counts, cols.rows, cols.values);
        CscMatrix::from_cols(
            self.nrows,
            self.ncols,
            counts,
            rows,
            values,
            segment.clone(),
        )
        .map(|cols| (segment, cols))
        .ok_or_else(|| refuse("rating columns are not ascending rows of the segment"))
    }
}

/// The membership a `Setup` for endpoint `rank` of a `capacity`-rank mesh
/// starts from, or its refusal: the frame must be addressed to this rank
/// and this mesh, and its active ranks must lie inside the mesh and
/// include this one.  With [`Shape::adopt`] for its segment, this is the
/// whole check a `Setup` gets.
fn setup_members(setup: &SetupPayload, rank: usize, capacity: usize) -> Result<u64, NetError> {
    let refuse = |why: String| Err(NetError::Protocol(format!("Setup refused: {why}")));
    if setup.rank as usize != rank {
        return refuse(format!("addressed to rank {}, not {rank}", setup.rank));
    }
    if setup.ranks as usize != capacity {
        return refuse(format!("a {}-rank mesh, not {capacity}", setup.ranks));
    }
    if capacity > MAX_CAPACITY {
        return refuse(format!("{capacity} ranks exceed {MAX_CAPACITY}"));
    }
    let mut members = 0;
    for &r in &setup.active_ranks {
        if r as usize >= capacity {
            return refuse(format!("active rank {r} outside the mesh"));
        }
        members |= bit(r as usize);
    }
    if members & bit(rank) == 0 {
        return refuse(format!("rank {rank} is not active"));
    }
    Ok(members)
}

/// The worker's mutable model state, lockable so the comm thread can
/// finish pending segment transfers after the worker has exited.
/// During the run the worker holds the lock for the whole loop — the
/// comm thread only touches it at quiesce, when the worker is gone.
struct WorkerState {
    /// The rating columns as shipped, merged or cut, and the pass counts
    /// (ownership is `owned`; `wd.owned_users` stays empty).
    wd: WorkerData,
    /// Full-height user factors (`nrows x k`); only rows inside `owned`
    /// segments are live.  Full height keeps row indexing global, which
    /// is what lets ownership become non-contiguous without an offset
    /// table on the hot path.
    own: FactorMatrix,
    /// Owned user rows as sorted, disjoint `(start, count)` segments.
    owned: Vec<(usize, usize)>,
    k: usize,
}

impl WorkerState {
    /// The worker's state over the segment [`Shape::adopt`] accepted:
    /// factor rows `w_rows` and rating columns `local_cols`.
    fn new(shape: Shape, segment: Range<usize>, w_rows: &[f64], local_cols: CscMatrix) -> Self {
        let mut state = Self {
            wd: WorkerData {
                worker: 0,
                owned_users: Vec::new(),
                item_passes: vec![0; shape.ncols],
                local_nnz: local_cols.nnz(),
                local_cols,
            },
            own: FactorMatrix::zeros(shape.nrows, shape.k),
            owned: Vec::new(),
            k: shape.k,
        };
        state.set_rows(segment, w_rows);
        state
    }

    /// Makes `segment` owned, with factor rows `rows`, keeping `owned`
    /// sorted with adjacent segments merged.
    fn set_rows(&mut self, segment: Range<usize>, rows: &[f64]) {
        let k = self.k;
        for (r, i) in segment.clone().enumerate() {
            self.own.set_row(i, &rows[r * k..(r + 1) * k]);
        }
        if segment.is_empty() {
            return;
        }
        self.owned.push((segment.start, segment.len()));
        self.owned.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(self.owned.len());
        for &(s, c) in &self.owned {
            match merged.last_mut() {
                Some((ps, pc)) if *ps + *pc >= s => *pc = (*pc).max(s + c - *ps),
                _ => merged.push((s, c)),
            }
        }
        self.owned = merged;
    }

    /// Merges a transferred segment into the shard.
    fn add_rows(&mut self, segment: Range<usize>, rows: &[f64], cols: &CscMatrix) {
        self.set_rows(segment, rows);
        self.wd.local_cols.add_rows(cols);
        self.wd.local_nnz = self.wd.local_cols.nnz();
    }

    /// Carves `segment` out of the shard, returning the live factor rows
    /// and the rating columns that go with them.
    fn extract_rows(&mut self, segment: Range<usize>) -> (Vec<f64>, CscMatrix) {
        let rows = self.own.as_slice()[segment.start * self.k..segment.end * self.k].to_vec();
        let moved = self.wd.local_cols.extract_rows(segment.clone());
        self.wd.local_nnz = self.wd.local_cols.nnz();
        let mut owned = Vec::with_capacity(self.owned.len() + 1);
        for &(s, c) in &self.owned {
            let seg_end = s + c;
            if seg_end <= segment.start || s >= segment.end || segment.is_empty() {
                owned.push((s, c));
                continue;
            }
            if s < segment.start {
                owned.push((s, segment.start - s));
            }
            if seg_end > segment.end {
                owned.push((segment.end, seg_end - segment.end));
            }
        }
        self.owned = owned;
        (rows, moved)
    }

    /// Applies every queued membership command; donations become control
    /// messages for the comm thread to send.
    fn apply_cmds(&mut self, shared: &Shared) {
        while let Some(cmd) = shared.cmds.pop() {
            match cmd {
                WorkerCmd::AddRows {
                    segment,
                    rows,
                    cols,
                } => self.add_rows(segment, &rows, &cols),
                WorkerCmd::ShipRows {
                    to,
                    row_start,
                    row_count,
                } => {
                    let segment = row_start..row_start + row_count;
                    let (rows, moved) = self.extract_rows(segment.clone());
                    let transfer = Message::ShardTransfer(Box::new(ShardTransferPayload {
                        row_start: row_start as u64,
                        k: self.k as u32,
                        rows,
                        cols: WireCols::cut(&moved, segment),
                    }));
                    shared.ctrl_out.push((to, transfer));
                }
            }
        }
        *shared.serve_owned.lock().unwrap_or_else(|e| e.into_inner()) = self.owned.clone();
    }
}

/// Why the comm loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommOutcome {
    /// Normal quiesce: every member's `Fin` arrived, ship the shard.
    Quiesced,
    /// The driver evicted *this* rank; exit without a shard.
    Evicted,
}

fn run_rank_inner<T: Transport>(
    transport: &T,
    mut setup: SetupPayload,
    stashed: Vec<(usize, Message)>,
) -> Result<(), NetError> {
    // `Setup` just came off the inbox: the rank's fixed cost starts here.
    let setup_taken = Instant::now();
    let (rank, capacity) = (transport.id(), transport.ranks());
    let driver = capacity;
    let members = setup_members(&setup, rank, capacity)?;
    let k = setup.k as usize;
    let mut comm = CommState::new(rank, capacity, driver, members, &setup);
    // The shard is checked before anything is built on it; the rank keeps
    // the shipped vectors rather than a copy.
    let (shape, w_rows) = (comm.shape, std::mem::take(&mut setup.w_rows));
    let cols = std::mem::take(&mut setup.cols);
    let (segment, cols) = shape.adopt("Setup", setup.row_start, setup.row_count, &w_rows, cols)?;
    let state = WorkerState::new(shape, segment, &w_rows, cols);

    // Serving is opt-in per run: a publisher only exists when the setup
    // carries a publish cadence, and its single worker slot is this
    // rank's one worker thread.
    let publisher = (setup.serve_publish_every > 0).then(|| {
        let p = SnapshotPublisher::new(setup.serve_publish_every);
        p.begin_run(setup.nrows as usize, setup.ncols as usize, k, 1);
        p
    });
    let ncols = setup.ncols as usize;
    let shared = Shared {
        queue: Inbox::with_capacity(ncols),
        outbound: Inbox::with_capacity(ncols),
        flush: AtomicBool::new(false),
        slab: FactorSlab::zeroed(ncols, k),
        drain: AtomicBool::new(false),
        worker_exited: AtomicBool::new(false),
        local_updates: AtomicU64::new(0),
        tickets: AtomicU64::new(0),
        qlen_estimates: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        // The worker starts parked until its initial tokens are queued.
        park: Park {
            requested: AtomicBool::new(comm.awaiting_tokens > 0),
            ..Park::default()
        },
        epoch: AtomicU64::new(setup.epoch),
        members: AtomicU64::new(members),
        cmds: Inbox::new(),
        ctrl_out: Inbox::new(),
        publisher,
        serve_owned: Mutex::new(state.owned.clone()),
    };
    let state = Mutex::new(state);

    // Tokens that raced ahead of Setup are injected first.
    for (src, msg) in stashed {
        comm.handle(transport, &shared, src, msg)?;
    }

    let mut tickets = 0u64;
    let outcome = std::thread::scope(|scope| -> Result<CommOutcome, NetError> {
        let waker = transport.waker();
        let mut worker = Some(scope.spawn(|| worker_loop(&shared, &state, &setup, waker)));
        comm.telemetry
            .setup_us
            .record(setup_taken.elapsed().as_micros() as u64);
        let run = comm_run(
            transport,
            &mut comm,
            &shared,
            &state,
            &mut worker,
            &mut tickets,
        );
        // Kill switch: whatever ended the comm loop (quiesce, eviction,
        // transport error), the worker must exit or the scope join would
        // hang forever.
        shared.stop_worker();
        if let Some(handle) = worker.take() {
            tickets = handle.join().expect("worker thread panicked");
        }
        run
    })?;

    if outcome == CommOutcome::Evicted {
        return Ok(());
    }

    // Quiesced: every token this rank will ever hold is in the queue, and
    // the worker is gone — reading slab rows races nothing.
    let mut tokens = Vec::new();
    while let Some(token) = shared.queue.pop() {
        tokens.push(WireToken {
            item: token.item,
            pass: token.pass,
            factor: shared.slab.row(token.item as usize).to_vec(),
        });
    }
    let state = state.into_inner().unwrap_or_else(|e| e.into_inner());
    let segments = state
        .owned
        .iter()
        .map(|&(start, count)| {
            let mut rows = Vec::with_capacity(count * state.k);
            for r in start..start + count {
                rows.extend_from_slice(state.own.row(r));
            }
            WireSegment {
                row_start: start as u64,
                rows,
            }
        })
        .collect();
    let shard = ShardPayload {
        rank: rank as u32,
        k: setup.k,
        segments,
        tokens,
        tickets,
        updates: shared.local_updates.load(Ordering::Acquire),
        remote_sends: comm.remote_sends,
    };
    // Final telemetry frame ahead of the shard: per-edge FIFO guarantees
    // the driver folds the complete totals before gather finishes.
    comm.send_telemetry(transport, &shared)?;
    transport.send(driver, &Message::Shard(Box::new(shard)))?;
    Ok(())
}

/// The communication loop, extracted so the caller can guarantee the
/// worker thread is stopped on *every* exit path.
fn comm_run<'scope, T: Transport>(
    transport: &T,
    comm: &mut CommState,
    shared: &Shared,
    state: &Mutex<WorkerState>,
    worker: &mut Option<std::thread::ScopedJoinHandle<'scope, u64>>,
    tickets: &mut u64,
) -> Result<CommOutcome, NetError> {
    loop {
        if comm.awaiting_tokens > 0 && shared.queue.len() >= comm.awaiting_tokens {
            comm.awaiting_tokens = 0;
            shared.park.release();
        }
        comm.flush_ctrl(transport, shared)?;
        comm.flush(transport, shared, false)?;
        comm.report_progress(transport, shared)?;
        comm.replica_tick(transport, shared)?;
        comm.heartbeat_tick(transport)?;

        if comm.evicted_self {
            return Ok(CommOutcome::Evicted);
        }

        if shared.drain.load(Ordering::Acquire)
            && comm.census.is_none()
            && !comm.awaiting_reconfigure
        {
            if let Some(handle) = worker.take() {
                // Draining woke the worker, which re-checks the flag
                // after every hop and every wait, so this join is prompt.
                *tickets = handle.join().expect("worker thread panicked");
                // The worker may have exited with membership commands
                // still queued (e.g. a rebalance donation that arrived
                // just before drain); finish them before Fin so the
                // transfer cannot chase a Fin down the same edge.
                comm.drain_cmds(shared, state);
                comm.flush_ctrl(transport, shared)?;
                comm.flush(transport, shared, true)?;
                comm.send_fins(transport)?;
                comm.report_progress(transport, shared)?;
            }
            if comm.fins_complete() {
                // Late transfers that arrived during the fin wait merge
                // into the shard before it is built.
                comm.drain_cmds(shared, state);
                return Ok(CommOutcome::Quiesced);
            }
        }

        // A schedule controller may oversleep here to model a lagging
        // communication thread (reordered comm wakeups).
        #[cfg(feature = "sched-fuzz")]
        nomad_core::sched::hooks::comm_poll(comm.rank);
        if let Some((src, msg)) = transport.recv_timeout(comm.next_tick())? {
            comm.telemetry.frames_recv.inc();
            comm.note_heard(src);
            comm.handle(transport, shared, src, msg)?;
        }
    }
}

/// The rank's observability plane: a per-rank [`Registry`] whose
/// cumulative snapshot rides to the driver as [`Message::Telemetry`]
/// frames on the progress cadence, plus the typed handles the comm loop
/// feeds.  Worker-owned totals (updates, tickets, publisher state) are
/// mirrored into the registry at report time, so the SGD hot path is
/// untouched by telemetry.
struct RankTelemetry {
    registry: Registry,
    updates: CounterHandle,
    tokens: CounterHandle,
    publishes: CounterHandle,
    publish_gap: GaugeHandle,
    queue_depth: HistogramHandle,
    frames_sent: CounterHandle,
    frames_recv: CounterHandle,
    bytes_sent: CounterHandle,
    /// Token batches re-injected locally after their peer vanished
    /// ([`names::RECOVERED_BATCHES`]).
    recovered_batches: CounterHandle,
    /// Posting lists probed answering queries through the IVF index
    /// ([`names::SERVE_IVF_PROBES`]); stays 0 on the exact path.
    ivf_probes: CounterHandle,
    /// `Query` off the inbox → `QueryReply` handed to the transport
    /// ([`names::SERVE_RANK_SERVICE_US`]).
    rank_service_us: HistogramHandle,
    /// `Setup` off the inbox → worker thread spawned, once per rank
    /// ([`names::RANK_SETUP_US`]).
    setup_us: HistogramHandle,
    /// Report sequence number (first frame is 1); the driver drops
    /// frames arriving out of order.
    seq: u64,
    /// Sync watermarks for the mirrored counters.
    synced_updates: u64,
    synced_tokens: u64,
    synced_publishes: u64,
}

impl RankTelemetry {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            updates: registry.counter(names::UPDATES),
            tokens: registry.counter(names::TOKENS),
            publishes: registry.counter(names::PUBLISHES),
            publish_gap: registry.gauge(names::PUBLISH_GAP),
            queue_depth: registry.histogram(names::QUEUE_DEPTH),
            frames_sent: registry.counter(names::FRAMES_SENT),
            frames_recv: registry.counter(names::FRAMES_RECV),
            bytes_sent: registry.counter(names::BYTES_SENT),
            recovered_batches: registry.counter(names::RECOVERED_BATCHES),
            ivf_probes: registry.counter(names::SERVE_IVF_PROBES),
            rank_service_us: registry.histogram(names::SERVE_RANK_SERVICE_US),
            setup_us: registry.histogram(names::RANK_SETUP_US),
            seq: 0,
            synced_updates: 0,
            synced_tokens: 0,
            synced_publishes: 0,
            registry,
        }
    }

    /// Counts one outbound frame of `bytes` payload bytes.
    fn note_frame(&self, bytes: usize) {
        self.frames_sent.inc();
        self.bytes_sent.add(bytes as u64);
    }

    /// Mirrors worker-owned totals into the registry (called on the
    /// report cadence, never on the hot path).
    fn sync(&mut self, shared: &Shared) {
        let updates = shared.local_updates.load(Ordering::Acquire);
        self.updates.add(updates - self.synced_updates);
        self.synced_updates = updates;
        let tokens = shared.tickets.load(Ordering::Acquire);
        self.tokens.add(tokens - self.synced_tokens);
        self.synced_tokens = tokens;
        self.queue_depth.record(shared.queue.len() as u64);
        if let Some(p) = &shared.publisher {
            let published = p.snapshots_published();
            self.publishes.add(published - self.synced_publishes);
            self.synced_publishes = published;
            self.publish_gap.set_max(p.max_publish_gap() as i64);
        }
    }
}

/// The diff base for [`Message::ReplicaDelta`] frames: the snapshot
/// behind the last shipped replica frame plus the owned user segments it
/// covered.
type ShippedFrame = (Arc<ModelSnapshot>, Vec<(usize, usize)>);

/// An in-progress eviction census (see the module docs).
struct CensusWait {
    epoch: u64,
    /// Bitmap of member peers whose [`Message::CensusMark`] is still
    /// outstanding.
    need: u64,
}

/// The communication thread's bookkeeping.
struct CommState {
    rank: usize,
    capacity: usize,
    /// What an inbound `ShardTransfer` must fit.
    shape: Shape,
    driver: usize,
    message_batch: usize,
    progress_every: u64,
    /// Per-destination staging buffers for outbound tokens.
    buffers: Vec<Vec<WireToken>>,
    /// Bitmap of member peers whose `Fin` has arrived.
    fins_from: u64,
    fins_sent: bool,
    last_reported: u64,
    /// Publisher epoch of the last replica frame shipped to the driver.
    last_replica_epoch: u64,
    /// The snapshot behind that frame plus the owned segments it
    /// covered — the diff base for [`Message::ReplicaDelta`] frames.
    /// `None` until the first (necessarily full) frame ships.
    last_shipped: Option<ShippedFrame>,
    /// Consecutive delta frames since the last full one (see
    /// [`DELTA_RESYNC_EVERY`]).
    replicas_since_full: u32,
    /// Serving knob from setup: probe this many IVF posting lists per
    /// query; `0` answers with the exact scan.
    serve_nprobe: u32,
    remote_sends: u64,
    /// Active-membership bitmap (authoritative copy; mirrored into
    /// `Shared` for the worker).
    members: u64,
    /// Ranks evicted at any point — anything they send after the census
    /// cut is dropped, which is what makes re-minting duplication-free.
    evicted: u64,
    epoch: u64,
    census: Option<CensusWait>,
    /// Census marks that arrived before this rank's own `Evict` (marks
    /// travel rank→rank, the eviction driver→rank — different edges, no
    /// ordering).
    early_marks: Vec<(u64, usize)>,
    /// Inventory sent, `Reconfigure` outstanding: quiescing now would
    /// race the driver's post-census re-mints and shard transfers, so
    /// the drain path stays closed until the mesh is released.
    awaiting_reconfigure: bool,
    evicted_self: bool,
    /// Failure-detection state; `None` when heartbeats are disabled.
    hb: Option<Heartbeat>,
    /// The rank's metric registry + wire-report bookkeeping.
    telemetry: RankTelemetry,
    /// Initial tokens to queue before the parked worker may start; 0 once
    /// it has been released.
    awaiting_tokens: usize,
}

struct Heartbeat {
    timeout: Duration,
    /// Last frame seen from each endpoint (driver at index `capacity`).
    last_heard: Vec<Instant>,
    /// Last frame sent to each endpoint.
    last_sent: Vec<Instant>,
    /// Peers already reported to the driver this epoch.
    suspected: u64,
}

impl CommState {
    fn new(
        rank: usize,
        capacity: usize,
        driver: usize,
        members: u64,
        setup: &SetupPayload,
    ) -> Self {
        let hb = (setup.heartbeat_timeout_ms > 0).then(|| Heartbeat {
            timeout: Duration::from_millis(setup.heartbeat_timeout_ms as u64),
            last_heard: vec![Instant::now(); capacity + 1],
            last_sent: vec![Instant::now(); capacity + 1],
            suspected: 0,
        });
        Self {
            rank,
            capacity,
            shape: Shape {
                nrows: setup.nrows as usize,
                ncols: setup.ncols as usize,
                k: setup.k as usize,
            },
            driver,
            message_batch: (setup.message_batch as usize).max(1),
            progress_every: setup.progress_every.max(1),
            buffers: (0..capacity).map(|_| Vec::new()).collect(),
            fins_from: 0,
            fins_sent: false,
            last_reported: 0,
            last_replica_epoch: 0,
            last_shipped: None,
            replicas_since_full: 0,
            serve_nprobe: setup.serve_nprobe,
            remote_sends: 0,
            members,
            evicted: 0,
            epoch: setup.epoch,
            census: None,
            early_marks: Vec::new(),
            awaiting_reconfigure: false,
            evicted_self: false,
            hb,
            telemetry: RankTelemetry::new(),
            awaiting_tokens: initial_tokens(rank, members, setup),
        }
    }

    fn is_member(&self, r: usize) -> bool {
        r < self.capacity && self.members & bit(r) != 0
    }

    fn member_peers(&self) -> u64 {
        self.members & !bit(self.rank)
    }

    fn fins_complete(&self) -> bool {
        self.fins_from & self.member_peers() == self.member_peers()
    }

    fn note_heard(&mut self, src: usize) {
        if let Some(at) = self.hb.as_mut().and_then(|hb| hb.last_heard.get_mut(src)) {
            *at = Instant::now();
        }
    }

    fn note_sent(&mut self, dest: usize) {
        if let Some(at) = self.hb.as_mut().and_then(|hb| hb.last_sent.get_mut(dest)) {
            *at = Instant::now();
        }
    }

    /// Sends a control message, tolerating an unreachable *peer* (a dead
    /// peer is the failure detector's problem, not ours); driver
    /// unreachability is fatal.
    fn post_ctrl<T: Transport>(
        &mut self,
        t: &T,
        dest: usize,
        msg: &Message,
    ) -> Result<(), NetError> {
        self.note_sent(dest);
        match t.send(dest, msg) {
            Ok(n) => {
                self.telemetry.note_frame(n);
                Ok(())
            }
            Err(NetError::PeerGone(_)) if dest != self.driver => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// How long the comm thread may wait for a frame before heartbeat
    /// work can fall due: a quarter of the timeout, the ping interval.
    /// Without heartbeats it waits for a frame or a wake.
    fn next_tick(&self) -> Duration {
        self.hb.as_ref().map_or(Duration::MAX, |hb| hb.timeout / 4)
    }

    /// Periodic failure-detection work: suspect silent/downed peers to
    /// the driver, ping idle edges so silence stays meaningful.
    fn heartbeat_tick<T: Transport>(&mut self, t: &T) -> Result<(), NetError> {
        let Some(hb) = &self.hb else { return Ok(()) };
        let timeout = hb.timeout;
        let now = Instant::now();
        // Collect first (the borrow of `hb` conflicts with post_ctrl).
        let mut to_suspect: Vec<usize> = Vec::new();
        let mut to_ping: Vec<usize> = Vec::new();
        for peer in 0..self.capacity {
            if peer == self.rank || !self.is_member(peer) {
                continue;
            }
            let silent = now.duration_since(hb.last_heard[peer]) > timeout;
            if (silent || t.peer_down(peer)) && hb.suspected & bit(peer) == 0 {
                to_suspect.push(peer);
            }
            if now.duration_since(hb.last_sent[peer]) > timeout / 4 {
                to_ping.push(peer);
            }
        }
        if now.duration_since(hb.last_sent[self.driver]) > timeout / 4 {
            to_ping.push(self.driver);
        }
        for peer in to_suspect {
            if let Some(hb) = &mut self.hb {
                hb.suspected |= bit(peer);
            }
            let msg = Message::Suspect {
                rank: self.rank as u32,
                peer: peer as u32,
            };
            self.post_ctrl(t, self.driver, &msg)?;
        }
        for dest in to_ping {
            let msg = Message::Ping {
                rank: self.rank as u32,
            };
            self.post_ctrl(t, dest, &msg)?;
        }
        Ok(())
    }

    /// Injects one inbound (or recovered) token: write the carried
    /// factor into the slab row, then push — the push is the ownership
    /// hand-off.
    fn inject(&mut self, shared: &Shared, token: WireToken) -> Result<(), NetError> {
        let item = token.item as usize;
        if item >= shared.slab.rows() || token.factor.len() != shared.slab.k() {
            return Err(NetError::Protocol(format!(
                "token for item {item} with factor length {}",
                token.factor.len()
            )));
        }
        // SAFETY: this rank does not hold the token for `item` (the
        // sender did until it sealed this batch, or the token was staged
        // outbound and never handed off), so no other thread can touch
        // the row; the queue push below is the release edge that hands
        // the row to the worker.
        #[cfg(not(feature = "sched-fuzz"))]
        unsafe { shared.slab.owner_row_mut(token.item) }.copy_from_slice(&token.factor);
        #[cfg(feature = "sched-fuzz")]
        {
            // Comm-thread claims are tagged so a ledger violation names
            // the claimant unambiguously.
            let who = 0x8000_0000 | self.rank as u32;
            shared.slab.claim_row(token.item, who);
            // Mutation point for the fuzz self-test: skipping this write
            // is the seeded ownership bug (the token circulates, its
            // factors were never handed off) that the oracles must catch.
            if !nomad_core::sched::hooks::skip_inject_write(self.rank) {
                // SAFETY: as above — the claim is ours.
                unsafe { shared.slab.owner_row_mut(token.item) }.copy_from_slice(&token.factor);
            }
            shared.slab.release_row(token.item, who);
        }
        shared.queue.push(Token {
            item: token.item,
            pass: token.pass,
        });
        Ok(())
    }

    /// Sends worker-originated control messages (donated transfers).
    fn flush_ctrl<T: Transport>(&mut self, t: &T, shared: &Shared) -> Result<(), NetError> {
        while let Some((dest, msg)) = shared.ctrl_out.pop() {
            self.post_ctrl(t, dest, &msg)?;
        }
        Ok(())
    }

    /// Moves staged worker output into per-destination buffers and sends
    /// every buffer that reached the batch size — and every other
    /// non-empty one when `all` is set or the worker has gone idle or
    /// exited.  Tokens for a rank no longer a member are re-injected.
    fn flush<T: Transport>(&mut self, t: &T, shared: &Shared, all: bool) -> Result<(), NetError> {
        // Taken before the pops: everything staged before the flag was
        // raised is sent below.
        let flush = shared.flush.swap(false, Ordering::AcqRel)
            || all
            || shared.worker_exited.load(Ordering::Acquire);
        while let Some(out) = shared.outbound.pop() {
            let dest = out.dest;
            if !self.is_member(dest) {
                // Raced a membership change: the worker staged this for
                // a rank that is gone.  Re-inject locally — a staged
                // token is never lost, only re-routed.
                self.inject(shared, out.token)?;
                continue;
            }
            self.buffers[dest].push(out.token);
            if self.buffers[dest].len() >= self.message_batch {
                self.send_buffer(t, shared, dest)?;
            }
        }
        if flush {
            self.send_buffers(t, shared)?;
        }
        Ok(())
    }

    /// Sends every non-empty per-destination buffer.
    fn send_buffers<T: Transport>(&mut self, t: &T, shared: &Shared) -> Result<(), NetError> {
        for dest in 0..self.capacity {
            if !self.buffers[dest].is_empty() {
                self.send_buffer(t, shared, dest)?;
            }
        }
        Ok(())
    }

    fn send_buffer<T: Transport>(
        &mut self,
        t: &T,
        shared: &Shared,
        dest: usize,
    ) -> Result<(), NetError> {
        let tokens = std::mem::take(&mut self.buffers[dest]);
        if !self.is_member(dest) {
            for tok in tokens {
                self.inject(shared, tok)?;
            }
            return Ok(());
        }
        let count = tokens.len() as u64;
        self.note_sent(dest);
        let msg = Message::TokenBatch {
            qlen: shared.queue.len() as u64,
            tokens,
        };
        match t.send(dest, &msg) {
            Ok(n) => {
                self.remote_sends += count;
                self.telemetry.note_frame(n);
                Ok(())
            }
            Err(NetError::PeerGone(_)) if dest != self.driver => {
                // The stream died under us: recover the whole batch
                // locally.  The failure detector will evict the peer.
                self.telemetry.recovered_batches.inc();
                if let Message::TokenBatch { tokens, .. } = msg {
                    for tok in tokens {
                        self.inject(shared, tok)?;
                    }
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Reports progress once the worker has crossed a `progress_every`
    /// boundary since the last report (the crossing wakes this thread),
    /// and a last time once it has exited.
    fn report_progress<T: Transport>(&mut self, t: &T, shared: &Shared) -> Result<(), NetError> {
        let updates = shared.local_updates.load(Ordering::Acquire);
        let due = updates / self.progress_every != self.last_reported / self.progress_every
            || (shared.worker_exited.load(Ordering::Acquire) && updates != self.last_reported);
        if due {
            self.last_reported = updates;
            // Piggyback serving freshness on the frame the driver already
            // expects: `u64::MAX` staleness means "serving disabled or
            // nothing published yet" (a real staleness of MAX updates is
            // unreachable — the budget caps updates far below it).
            let (staleness, publish_gap) = match &shared.publisher {
                Some(p) => (
                    p.staleness(updates).unwrap_or(u64::MAX),
                    p.max_publish_gap(),
                ),
                None => (u64::MAX, 0),
            };
            let msg = Message::Progress {
                rank: self.rank as u32,
                updates,
                staleness,
                publish_gap,
            };
            self.post_ctrl(t, self.driver, &msg)?;
            // Telemetry rides the same cadence: one cumulative snapshot
            // frame per progress report.
            self.send_telemetry(t, shared)?;
        }
        Ok(())
    }

    /// Ships a cumulative telemetry snapshot to the driver.  The frame
    /// is monotonic (`seq`) and cumulative, so the driver folds only the
    /// latest one per rank — losing a frame loses resolution, never
    /// counts.
    fn send_telemetry<T: Transport>(&mut self, t: &T, shared: &Shared) -> Result<(), NetError> {
        self.telemetry.sync(shared);
        self.telemetry.seq += 1;
        let msg = Message::Telemetry(Box::new(TelemetryPayload {
            rank: self.rank as u32,
            seq: self.telemetry.seq,
            snapshot: self.telemetry.registry.snapshot(),
        }));
        self.note_sent(self.driver);
        match t.send(self.driver, &msg) {
            // The next frame's byte counters absorb this one's cost.
            Ok(n) => {
                self.telemetry.note_frame(n);
                Ok(())
            }
            Err(NetError::PeerGone(_)) => Ok(()), // driver gone: moot
            Err(e) => Err(e),
        }
    }

    /// Ships the latest published snapshot to the driver whenever the
    /// publisher has advanced an epoch — as a [`Message::ReplicaDelta`]
    /// (only the rows that changed since the previous frame) when a
    /// valid diff base exists, as a full [`Message::Replica`] otherwise.
    /// The driver keeps the newest replica per rank and fails queries
    /// over to it when the rank is dead or mid-census, with a staleness
    /// bound instead of an error.
    fn replica_tick<T: Transport>(&mut self, t: &T, shared: &Shared) -> Result<(), NetError> {
        let Some(publisher) = &shared.publisher else {
            return Ok(());
        };
        if publisher.epoch() == self.last_replica_epoch {
            return Ok(());
        }
        let Some(snap) = publisher.latest() else {
            return Ok(());
        };
        self.last_replica_epoch = snap.epoch();
        let owned = shared
            .serve_owned
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let msg = match self.delta_frame(publisher, &snap, &owned) {
            Some(delta) => {
                self.replicas_since_full += 1;
                Message::ReplicaDelta(Box::new(delta))
            }
            None => {
                self.replicas_since_full = 0;
                Message::Replica(Box::new(full_replica_frame(self.rank, &snap, &owned)))
            }
        };
        self.last_shipped = Some((snap, owned));
        self.post_ctrl(t, self.driver, &msg)
    }

    /// Builds the delta between `snap` and the last shipped frame, or
    /// `None` when a full frame must ship instead: the first publish,
    /// changed dimensions (a `grow`), changed row ownership (eviction
    /// takeover or rebalance — the driver must resync the whole
    /// segment list), the periodic [`DELTA_RESYNC_EVERY`] resync, or a
    /// delta carrying most of the rows anyway.
    ///
    /// The candidate item rows come from the publisher's per-row update
    /// clocks ([`SnapshotPublisher::changed_items_since`]), which
    /// over-approximate (inclusive stamp, clocks keep advancing past the
    /// snapshot); each candidate is refined by an exact bit-compare
    /// against the shipped base so the frame carries only real changes —
    /// and, crucially, never misses one (the `delta_equiv` suite pins
    /// chain-vs-full bit-identity).
    fn delta_frame(
        &self,
        publisher: &SnapshotPublisher,
        snap: &ModelSnapshot,
        owned: &[(usize, usize)],
    ) -> Option<ReplicaDeltaPayload> {
        let (prev, prev_owned) = self.last_shipped.as_ref()?;
        if self.replicas_since_full >= DELTA_RESYNC_EVERY
            || snap.num_users() != prev.num_users()
            || snap.num_items() != prev.num_items()
            || snap.k() != prev.k()
            || prev_owned != owned
        {
            return None;
        }
        let candidates = publisher.changed_items_since(prev.updates_at());
        let (w_changed, h_changed) = changed_rows(snap, prev, owned, &candidates)?;
        let delta_row = |row: usize, factors: &[f64]| WireDeltaRow {
            row: row as u64,
            factors: factors.to_vec(),
        };
        let w_rows = w_changed
            .into_iter()
            .map(|r| delta_row(r, snap.user_factor(r as Idx)))
            .collect();
        let h_rows = h_changed
            .into_iter()
            .map(|j| delta_row(j as usize, snap.item_factor(j)))
            .collect();
        Some(ReplicaDeltaPayload {
            rank: self.rank as u32,
            k: snap.k() as u32,
            epoch: snap.epoch(),
            base_epoch: prev.epoch(),
            updates_at: snap.updates_at(),
            w_rows,
            h_rows,
        })
    }

    /// Answers a routed top-k query from the latest published snapshot
    /// through a [`QueryEngine`] — its IVF path (the index the publisher
    /// keeps with each snapshot) when the setup enabled it
    /// (`serve_nprobe > 0`), the exact scan otherwise.
    /// Every path produces a reply — the router's deadline accounting
    /// depends on a quiesced or not-yet-published rank *saying so*
    /// rather than going silent — and every IVF answer is exactly
    /// reranked: its work is bounded like the exact scan's (at most one
    /// dot per item), and the router's deadline bounds the caller's wait.
    fn answer_query(&self, shared: &Shared, id: u64, user: u32, k: u32, seen: Vec<u32>) -> Message {
        let empty = |status: u8| Message::QueryReply {
            id,
            status,
            epoch: 0,
            updates_at: 0,
            staleness: 0,
            recs: Vec::new(),
        };
        // A drained rank will never publish again: tell the router the
        // run is over (terminal — the gathered model supersedes this
        // shard) instead of letting the edge-final `Fin` surface as a
        // transport error.
        if shared.drain.load(Ordering::Acquire) && shared.worker_exited.load(Ordering::Acquire) {
            return empty(QUERY_RUN_OVER);
        }
        let Some(publisher) = &shared.publisher else {
            return empty(QUERY_NOT_READY);
        };
        let engine = QueryEngine::new(publisher, 1);
        let answer = if self.serve_nprobe > 0 {
            let nprobe = self.serve_nprobe as usize;
            engine
                .top_k_approx(user, k as usize, nprobe, &seen)
                .inspect(|top| {
                    // Clamped to the centroid count of the index just
                    // probed, unless a publish has overtaken the query.
                    let pinned = publisher.latest().filter(|snap| snap.epoch() == top.epoch);
                    let index = pinned.as_deref().and_then(ModelSnapshot::ivf);
                    let lists = index.map_or(nprobe, |index| nprobe.min(index.n_centroids()));
                    self.telemetry.ivf_probes.add(lists as u64);
                })
        } else {
            engine.top_k(user, k as usize, &seen)
        };
        let top = match answer {
            Ok(top) => top,
            Err(ServeError::NoSnapshot) => return empty(QUERY_NOT_READY),
            Err(ServeError::UnknownUser { .. }) => return empty(QUERY_UNKNOWN_USER),
        };
        let now = shared.local_updates.load(Ordering::Acquire);
        Message::QueryReply {
            id,
            status: QUERY_OK,
            epoch: top.epoch,
            updates_at: top.updates_at,
            staleness: now.saturating_sub(top.updates_at),
            recs: top.recs.iter().map(|r| (r.item, r.score)).collect(),
        }
    }

    fn send_fins<T: Transport>(&mut self, t: &T) -> Result<(), NetError> {
        if self.fins_sent {
            return Ok(());
        }
        self.fins_sent = true;
        for dest in 0..self.capacity {
            if dest != self.rank && self.is_member(dest) {
                let msg = Message::Fin {
                    rank: self.rank as u32,
                };
                self.post_ctrl(t, dest, &msg)?;
            }
        }
        Ok(())
    }

    /// Applies queued worker commands on the worker's behalf after it
    /// has exited (quiesce path) — the state lock is free then.
    fn drain_cmds(&mut self, shared: &Shared, state: &Mutex<WorkerState>) {
        if shared.cmds.is_empty() {
            return;
        }
        state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .apply_cmds(shared);
    }

    /// Runs the local half of the eviction census for `dead`; see the
    /// module docs for the protocol.
    fn start_census<T: Transport>(
        &mut self,
        t: &T,
        shared: &Shared,
        epoch: u64,
        dead: usize,
    ) -> Result<(), NetError> {
        self.epoch = epoch;
        self.members &= !bit(dead);
        self.evicted |= bit(dead);
        // An evicted peer's Fin (if any) no longer counts toward quiesce.
        self.fins_from &= !bit(dead);
        if let Some(hb) = &mut self.hb {
            hb.suspected &= !bit(dead);
        }
        shared.members.store(self.members, Ordering::Release);
        shared.epoch.store(self.epoch, Ordering::Release);
        t.close_peer(dead);

        // Park the worker so no token is mid-hop while we take stock.
        shared.park.request(&shared.queue);

        // Recover everything staged for (or buffered toward) the corpse —
        // those tokens never left this address space, so the flush
        // re-injects them locally — and send the rest.  Tokens already
        // written to the dead rank's stream are genuinely lost: the driver
        // re-mints them from the inventories.  Then mark every surviving
        // edge: FIFO means a mark bounds all pre-census traffic from here.
        self.flush(t, shared, true)?;
        let peers = self.member_peers();
        for peer in 0..self.capacity {
            if peers & bit(peer) != 0 {
                let msg = Message::CensusMark {
                    epoch,
                    rank: self.rank as u32,
                };
                self.post_ctrl(t, peer, &msg)?;
            }
        }
        // A peer whose `Fin` already arrived has quiesced: it will never
        // answer the mark, and the Fin (sent after its final flush) is
        // edge-final — a strictly stronger bound on its traffic than any
        // mark could be.
        let mut wait = CensusWait {
            epoch,
            need: peers & !self.fins_from,
        };
        // Marks that raced ahead of the eviction notice.
        self.early_marks.retain(|&(e, r)| {
            if e == epoch {
                wait.need &= !bit(r);
                false
            } else {
                true
            }
        });
        self.census = Some(wait);
        self.awaiting_reconfigure = true;
        self.maybe_finish_census(t, shared)
    }

    /// If every survivor's mark has arrived, sends the inventory.  The
    /// worker stays parked until the driver's `Reconfigure`.
    fn maybe_finish_census<T: Transport>(
        &mut self,
        t: &T,
        shared: &Shared,
    ) -> Result<(), NetError> {
        let Some(wait) = &self.census else {
            return Ok(());
        };
        if wait.need != 0 {
            return Ok(());
        }
        let epoch = wait.epoch;
        self.census = None;
        // Consistent cut: inventory the queue (pop + re-push preserves
        // FIFO order).
        let mut held = Vec::with_capacity(shared.queue.len());
        let mut tokens = Vec::with_capacity(shared.queue.len());
        while let Some(tok) = shared.queue.pop() {
            held.push((tok.item, tok.pass));
            tokens.push(tok);
        }
        for tok in tokens {
            shared.queue.push(tok);
        }
        let msg = Message::Inventory {
            epoch,
            rank: self.rank as u32,
            tickets: shared.tickets.load(Ordering::Acquire),
            held,
        };
        self.post_ctrl(t, self.driver, &msg)
    }

    /// A frame's `rank` field as an index, or `Protocol` when it names no
    /// rank of this mesh: its `bit` would overflow the membership bitmaps
    /// or alias another rank.
    fn mesh_rank(&self, what: &str, rank: u32) -> Result<usize, NetError> {
        let r = rank as usize;
        if r >= self.capacity {
            return Err(NetError::Protocol(format!(
                "{what} names rank {rank}, outside the {}-rank mesh",
                self.capacity
            )));
        }
        Ok(r)
    }

    fn handle<T: Transport>(
        &mut self,
        t: &T,
        shared: &Shared,
        src: usize,
        msg: Message,
    ) -> Result<(), NetError> {
        // Nothing an evicted rank says after the census cut may count —
        // a single delivery path for its stale tokens would double-mint.
        if src < self.capacity && self.evicted & bit(src) != 0 {
            return Ok(());
        }
        match msg {
            Message::TokenBatch { qlen, tokens } => {
                if src < self.capacity {
                    shared.qlen_estimates[src].store(qlen, Ordering::Relaxed);
                }
                for token in tokens {
                    self.inject(shared, token)?;
                }
            }
            Message::Drain => shared.stop_worker(),
            Message::Fin { rank } => {
                let r = self.mesh_rank("Fin", rank)?;
                self.fins_from |= bit(r);
                // Mid-census, a Fin doubles as the peer's census mark: it
                // has quiesced, all its traffic to us is already in, and
                // no mark will ever come.
                if let Some(wait) = &mut self.census {
                    wait.need &= !bit(r);
                    self.maybe_finish_census(t, shared)?;
                }
            }
            Message::Ping { .. } => {}
            Message::Evict { epoch, rank } => {
                let dead = self.mesh_rank("Evict", rank)?;
                if dead == self.rank {
                    self.evicted_self = true;
                } else if self.members & bit(dead) != 0 {
                    self.start_census(t, shared, epoch, dead)?;
                }
            }
            Message::CensusMark { epoch, rank } => {
                let r = self.mesh_rank("CensusMark", rank)?;
                match &mut self.census {
                    Some(wait) if wait.epoch == epoch => {
                        wait.need &= !bit(r);
                        self.maybe_finish_census(t, shared)?;
                    }
                    _ => self.early_marks.push((epoch, r)),
                }
            }
            Message::Reconfigure { epoch } => {
                self.epoch = self.epoch.max(epoch);
                shared.epoch.store(self.epoch, Ordering::Release);
                shared.park.release();
                self.awaiting_reconfigure = false;
            }
            Message::AddRank { epoch, rank } => {
                let r = self.mesh_rank("AddRank", rank)?;
                self.epoch = self.epoch.max(epoch);
                self.members |= bit(r);
                shared.members.store(self.members, Ordering::Release);
                shared.epoch.store(self.epoch, Ordering::Release);
                self.note_heard(r);
            }
            Message::Rebalance {
                to,
                row_start,
                row_count,
                ..
            } => shared.queue_cmd(WorkerCmd::ShipRows {
                to: to as usize,
                row_start: row_start as usize,
                row_count: row_count as usize,
            }),
            Message::Query { id, user, k, seen } => {
                let taken = Instant::now();
                let reply = self.answer_query(shared, id, user, k, seen);
                self.post_ctrl(t, self.driver, &reply)?;
                self.telemetry
                    .rank_service_us
                    .record(taken.elapsed().as_micros() as u64);
            }
            Message::ShardTransfer(transfer) => {
                let ShardTransferPayload {
                    row_start,
                    rows,
                    cols,
                    ..
                } = *transfer;
                // Whole factor rows or a refusal: a length that is not a
                // multiple of k fails `adopt`'s length check.
                let count = rows.len().checked_div(self.shape.k).unwrap_or(0);
                let (segment, cols) =
                    self.shape
                        .adopt("ShardTransfer", row_start, count as u64, &rows, cols)?;
                shared.queue_cmd(WorkerCmd::AddRows {
                    segment,
                    rows,
                    cols,
                });
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "rank {} got unexpected {other:?} from {src}",
                    self.rank
                )))
            }
        }
        Ok(())
    }
}

/// The rank worker's side of the hop: one queue, rank-local ticket and
/// update counts mirrored into [`Shared`] for the comm thread, the active
/// membership as the destination set, and remote destinations staged for
/// the communication thread.
struct RankWorker<'a> {
    rank: usize,
    shared: &'a Shared,
    st: &'a mut WorkerState,
    tickets: u64,
    local_updates: u64,
    /// Sorted active ranks — what routing chooses among.
    active: Vec<usize>,
    /// Cuts the comm thread's transport wait short (see the module docs).
    comm: Waker,
    /// Outbound tokens staged since the comm thread was last woken.
    staged: usize,
    message_batch: usize,
    /// The next `progress_every` boundary of `local_updates`.
    next_report: u64,
    progress_every: u64,
}

impl RankWorker<'_> {
    fn wake_comm(&mut self) {
        self.staged = 0;
        self.comm.wake();
    }
}

// SAFETY: the rank queue only receives tokens through `CommState::inject`
// (which checks the item against the slab and writes the row before the
// push) and this `push`; a token staged outbound is never touched again.
unsafe impl HopContext for RankWorker<'_> {
    type Users = FactorMatrix;

    fn pop(&mut self) -> Option<Token> {
        self.shared.queue.pop()
    }

    fn ticket(&mut self, _item: Idx) {
        self.tickets += 1;
        self.shared.tickets.store(self.tickets, Ordering::Release);
    }

    fn shard(&mut self) -> (&mut WorkerData, &mut FactorMatrix) {
        (&mut self.st.wd, &mut self.st.own)
    }

    fn account(&mut self, updates: u64) -> u64 {
        self.local_updates += updates;
        let (done, mirror) = (self.local_updates, &self.shared.local_updates);
        mirror.store(done, Ordering::Release);
        if done >= self.next_report {
            // A progress report is due; the comm thread sends it.
            self.next_report = (done / self.progress_every + 1) * self.progress_every;
            self.wake_comm();
        }
        done
    }

    fn clock(&self) -> u64 {
        self.local_updates
    }

    fn destinations(&self) -> usize {
        self.active.len()
    }

    fn load(&self, choice: usize) -> usize {
        let peer = self.active[choice];
        if peer == self.rank {
            self.shared.queue.len()
        } else {
            self.shared.qlen_estimates[peer].load(Ordering::Relaxed) as usize
        }
    }

    fn resolve(&self, choice: usize) -> usize {
        self.active[choice]
    }

    /// A token routed to this rank goes straight back onto the local
    /// queue; any other destination is staged for the communication
    /// thread together with a copy of its factor row.
    fn push(&mut self, dest: usize, token: Token, h: &[f64]) {
        if dest == self.rank {
            self.shared.queue.push(token);
        } else {
            let token = WireToken {
                item: token.item,
                pass: token.pass,
                factor: h.to_vec(),
            };
            self.shared.outbound.push(Outbound { dest, token });
            self.staged += 1;
            if self.staged >= self.message_batch {
                self.wake_comm();
            }
        }
    }
}

/// The hot loop: this rank's pre-hop checks (drain, budget, census park,
/// membership commands, epoch), then the same [`HopKernel::hop`] the
/// threaded engine's workers run — so the decision points (stop-check
/// before pop, ticket before update, push after update) are identical to
/// `ThreadedNomad`'s by construction.  Returns the local ticket count.
///
/// The worker takes the state lock once and holds it for the whole run —
/// zero per-hop locking cost; the comm thread only needs the lock after
/// the worker has exited.  Membership is one relaxed epoch load per hop.
/// `comm` wakes the comm thread; see the module docs for when.
fn worker_loop(
    shared: &Shared,
    state: &Mutex<WorkerState>,
    setup: &SetupPayload,
    comm: Waker,
) -> u64 {
    let rank = setup.rank as usize;
    let (budget, abort_after) = (setup.budget, setup.abort_after_updates);
    let params = HyperParams {
        k: setup.k as usize,
        lambda: setup.lambda,
        alpha: setup.alpha,
        beta: setup.beta,
    }; // field-by-field so new hyper-parameters force a wire change
    let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
    // The publisher has one contributor slot (0): this rank's one worker.
    let (slab, publisher) = (&shared.slab, shared.publisher.as_ref());
    let mut kernel = HopKernel::new(rank, 0, params, setup.routing, setup.seed, slab, publisher);
    let progress_every = setup.progress_every.max(1);
    let mut worker = RankWorker {
        rank,
        shared,
        st: &mut st,
        tickets: 0,
        local_updates: 0,
        active: members_vec(shared.members.load(Ordering::Acquire)),
        comm,
        staged: 0,
        message_batch: (setup.message_batch as usize).max(1),
        next_report: progress_every,
        progress_every,
    };
    let mut cached_epoch = shared.epoch.load(Ordering::Acquire);
    let mut published = publisher.map_or(0, SnapshotPublisher::epoch);
    loop {
        // Chaos knob: a real spawned child can be told to die abruptly
        // after N updates — the kill-a-rank regression's deterministic
        // SIGKILL stand-in.  Guarded by the child env var so an
        // in-process test can never take the whole suite down.
        if abort_after > 0
            && worker.local_updates >= abort_after
            && std::env::var_os(crate::process::RANK_ENV).is_some()
        {
            let done = worker.local_updates;
            eprintln!("[nomad-net rank {rank}] chaos abort after {done} updates");
            std::process::abort();
        }
        if shared.drain.load(Ordering::Acquire) {
            break;
        }
        // Local hard cap at the *global* budget: any rank that has done
        // the whole budget alone can stop without waiting for the
        // driver's drain — and at one rank this reproduces the serial
        // engine's stop point exactly.
        if worker.local_updates >= budget {
            break;
        }
        // Census park: acknowledge and wait at the hop boundary (no
        // token is held here) until the driver reconfigures the mesh.
        if shared.park.requested.load(Ordering::Acquire) {
            shared.park.hold(&shared.drain);
        }
        // Membership commands (segment transfers in or out) apply here,
        // where no token is mid-update.
        if !shared.cmds.is_empty() {
            worker.st.apply_cmds(shared);
            if !shared.ctrl_out.is_empty() {
                // Donated rows: the comm thread ships them.
                worker.wake_comm();
            }
        }
        let epoch = shared.epoch.load(Ordering::Relaxed);
        if epoch != cached_epoch {
            cached_epoch = epoch;
            worker.active = members_vec(shared.members.load(Ordering::Acquire));
        }
        if kernel.hop(&mut worker).is_none() {
            // Idle: have every staged token sent, then wait for a token
            // or a wake from the comm thread.
            shared.flush.store(true, Ordering::Release);
            worker.wake_comm();
            shared.queue.wait(None);
        } else if let Some(p) = publisher.filter(|p| p.epoch() != published) {
            // The hop completed a publish: the comm thread ships it.
            published = p.epoch();
            worker.wake_comm();
        }
    }
    #[cfg(feature = "sched-fuzz")]
    nomad_core::sched::hooks::done(rank);
    shared.worker_exited.store(true, Ordering::Release);
    drop(shared.park.ack());
    worker.wake_comm();
    worker.tickets
}

/// Expands a membership bitmap into the sorted rank list the routing
/// policies index into.
fn members_vec(members: u64) -> Vec<usize> {
    (0..MAX_CAPACITY)
        .filter(|&r| members & bit(r) != 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_sgd::FactorModel;

    #[test]
    fn extract_then_add_of_a_segment_leaves_the_shard_as_it_was() {
        // 40 users × 9 items, users 8..32 owned, item 4 unrated.
        let (nrows, ncols, k, owned) = (40, 9, 3, 8..32usize);
        let (mut counts, mut rows, mut values) = (Vec::new(), Vec::new(), Vec::new());
        for j in 0..ncols as u32 {
            let col: Vec<u32> = (0..nrows as u32)
                .filter(|&i| j != 4 && (i * 3 + j) % 4 != 1)
                .collect();
            counts.push(col.len() as u32);
            values.extend(col.iter().map(|&i| f64::from(i) + f64::from(j) / 16.0));
            rows.extend(col);
        }
        let data = CscMatrix::from_cols(nrows, ncols, &counts, rows, values, 0..nrows)
            .expect("ascending columns");
        let shape = Shape { nrows, ncols, k };
        let w_rows: Vec<f64> = (0..owned.len() * k).map(|v| v as f64 / 8.0).collect();
        let cols = WireCols::cut(&data, owned.clone());
        let (segment, cols) = shape
            .adopt("Setup", 8, 24, &w_rows, cols)
            .expect("well formed");
        let mut state = WorkerState::new(shape, segment, &w_rows, cols);
        state.wd.item_passes = (0..ncols as u64).map(|j| j * 7 % 5).collect();
        let (wd, own, segments) = (state.wd.clone(), state.own.clone(), state.owned.clone());
        assert_eq!(segments, vec![(owned.start, owned.len())]);
        for segment in [8..9, 31..32, 12..20, 8..32, 20..20] {
            let (rows, moved) = state.extract_rows(segment.clone());
            assert_eq!(moved.nnz() + state.wd.local_nnz, wd.local_nnz);
            let cols = WireCols::cut(&moved, segment.clone());
            let (back, cols) = shape
                .adopt(
                    "ShardTransfer",
                    segment.start as u64,
                    segment.len() as u64,
                    &rows,
                    cols,
                )
                .expect("a donor's own cut is well formed");
            state.add_rows(back, &rows, &cols);
            assert!(state.wd == wd, "columns or passes moved for {segment:?}");
            assert!(state.own == own, "factor rows moved for {segment:?}");
            assert_eq!(state.owned, segments, "{segment:?}");
        }
    }

    /// A 10-user, 10-item snapshot pair in which the given user and item
    /// rows differ (one by a sign-of-zero flip only `to_bits` can see).
    fn pair(users: &[usize], items: &[usize]) -> (ModelSnapshot, ModelSnapshot) {
        let mut base = FactorModel::init(10, 10, 4, 3);
        if let Some(&j) = items.first() {
            base.h.row_mut(j)[1] = 0.0;
        }
        let mut next = base.clone();
        for &r in users {
            next.w.row_mut(r)[0] += 1.0;
        }
        for (n, &j) in items.iter().enumerate() {
            let cell = &mut next.h.row_mut(j)[1];
            *cell = if n == 0 { -0.0 } else { *cell + 1.0 };
        }
        (
            ModelSnapshot::from_model(&next, 2, 200),
            ModelSnapshot::from_model(&base, 1, 100),
        )
    }

    #[test]
    fn changed_rows_are_exactly_the_differing_owned_and_candidate_rows() {
        let (snap, prev) = pair(&[1, 4, 8], &[0, 7]);
        // Rows 0..5 are owned (user 8 is someone else's); item 9 is a
        // candidate by its clock but bit-identical to the base.
        let got = changed_rows(&snap, &prev, &[(0, 5)], &[0, 7, 9]);
        assert_eq!(got, Some((vec![1, 4], vec![0, 7])));
    }

    #[test]
    fn changed_rows_gives_up_at_seventy_percent_of_a_full_frame() {
        // 10 owned + 10 item rows: 13 changed rows is 65%, 14 is 70%.
        let all: Vec<usize> = (0..10).collect();
        let candidates: Vec<Idx> = (0..10).collect();
        let (snap, prev) = pair(&all, &[0, 1, 2]);
        let got = changed_rows(&snap, &prev, &[(0, 10)], &candidates).expect("65% is a delta");
        assert_eq!((got.0.len(), got.1.len()), (10, 3));
        let (snap, prev) = pair(&all, &[0, 1, 2, 3]);
        assert_eq!(changed_rows(&snap, &prev, &[(0, 10)], &candidates), None);
        // Nothing changed is an (empty) delta; a frame with no rows at all
        // has nothing to be a delta of.
        let (snap, prev) = pair(&[], &[]);
        let unchanged = changed_rows(&snap, &prev, &[(0, 10)], &[]);
        assert_eq!(unchanged, Some((vec![], vec![])));
        let empty = ModelSnapshot::from_model(&FactorModel::init(0, 0, 4, 3), 1, 0);
        assert_eq!(changed_rows(&empty, &empty, &[], &[]), None);
    }
}
