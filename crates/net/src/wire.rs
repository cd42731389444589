//! The wire codec: a compact binary format for everything that crosses
//! an address-space boundary.
//!
//! Section 3.5 of the paper batches ~100 `(j, h_j)` pairs into a single
//! network message to amortize latency; this module defines that message
//! (and the control-plane messages around it) as length-prefixed frames of
//! little-endian scalars.  No external serialization crate is involved.
//! The format is described once: a private `Wire` rule lays out each
//! *kind* of value (scalar, sequence, array, tuple, name), and two tables
//! list each payload struct's fields and each message's tag and fields
//! in wire order — the measuring pass, `encode`, `decode`, the stream
//! forms and every pre-allocation bound are generated from those.
//! Decoding is *total*: any truncated or corrupted frame produces a
//! [`WireError`], never a panic or an oversized allocation;
//! `tests/wire_golden.rs` pins the bytes of every message.
//!
//! ## Frame format
//!
//! ```text
//! [u32 payload length (LE)] [payload bytes]
//! payload := [u8 tag] [tag-specific fields, little-endian]
//! ```
//!
//! Variable-length sequences are prefixed with a `u32` element count that
//! is validated against both a hard cap ([`MAX_SEQ_LEN`]) and the number
//! of bytes actually remaining in the frame before any allocation happens.
//!
//! ## Streaming
//!
//! No frame is held whole; memory per edge is one constant.
//! [`Message::write_to`] measures the payload first — every encode-side
//! limit is checked there, so a refused message writes nothing — then
//! writes the length prefix and the fields through the caller's buffered
//! writer, which spills to the stream whenever it fills.
//! [`Message::read_from`] decodes the fields straight off a buffered
//! reader, counting the bytes left in the frame exactly as
//! [`Message::decode`] counts them in a slice: both run one decoder.

use std::io::{self, BufRead, Write};
use std::ops::Range;

use nomad_core::RoutingPolicy;
use nomad_matrix::{CscMatrix, Idx};
use nomad_telemetry::{HistSnapshot, TelemetrySnapshot};

use crate::transport::NetError;

/// Hard cap on the byte length of a single frame payload (64 MiB).
///
/// Anything larger is a protocol violation: the largest legitimate frames
/// are dataset shards, and even the `standard`-scale shards stay well
/// below this.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Hard cap on the element count of any length-prefixed sequence.
pub const MAX_SEQ_LEN: u32 = 1 << 27;

/// Bytes of the one buffer each direction of a stream keeps for its whole
/// life: a frame that fits crosses in one `write`, a larger one in pieces
/// of this size, and neither end ever holds a frame whole.
pub(crate) const STREAM_BUF_BYTES: usize = 64 << 10;

/// Bytes a scalar run is converted in at a time on encode (a stack chunk).
const RUN_BYTES: usize = 256;

/// Decoding / framing failure.  Every malformed input maps to one of
/// these; the codec never panics on attacker-controlled bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced field/frame did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A length prefix exceeds [`MAX_FRAME_LEN`] / [`MAX_SEQ_LEN`] or the
    /// bytes remaining in the frame.
    BadLength(u64),
    /// A fixed-domain field (routing policy, boolean) held an invalid
    /// value.
    BadValue(u64),
    /// The payload decoded cleanly but bytes were left over.
    Trailing(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadLength(n) => write!(f, "length {n} exceeds frame or cap"),
            WireError::BadValue(v) => write!(f, "invalid field value {v}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// One nomadic `(j, h_j)` pair in flight between address spaces: the item
/// index, the token's cumulative processing-pass count (the conservation
/// ledger summed at quiesce), and the item's factor row.
#[derive(Debug, Clone, PartialEq)]
pub struct WireToken {
    /// Item index `j`.
    pub item: Idx,
    /// Total times the token has been processed anywhere.
    pub pass: u64,
    /// The factor row `h_j`.
    pub factor: Vec<f64>,
}

/// A rating slice in the layout a rank sweeps it: the columns of a
/// [`CscMatrix`] restricted to a segment of user rows, laid end to end.
///
/// The codec only lays these out; whether they describe a matrix is the
/// receiver's question, answered once by [`CscMatrix::from_cols`] — the
/// same check whether the slice came from the driver or from a donor rank.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireCols {
    /// Ratings per item, one entry per column; empty means the slice holds
    /// no ratings at all.
    pub counts: Vec<u32>,
    /// Global user rows of every column in turn, ascending within each.
    pub rows: Vec<u32>,
    /// The ratings, parallel to `rows`.
    pub values: Vec<f64>,
}

impl WireCols {
    /// Cuts the user rows `segment` out of `cols`: binary searches find
    /// each column's run, so every vector is allocated at its final length.
    pub fn cut(cols: &CscMatrix, segment: Range<usize>) -> Self {
        let span = |j: usize| {
            let col = cols.col_rows(j);
            let lo = col.partition_point(|&i| (i as usize) < segment.start);
            lo..lo + col[lo..].partition_point(|&i| (i as usize) < segment.end)
        };
        let counts: Vec<u32> = (0..cols.ncols()).map(|j| span(j).len() as u32).collect();
        let total = counts.iter().map(|&c| c as usize).sum();
        let (mut rows, mut values) = (Vec::with_capacity(total), Vec::with_capacity(total));
        for j in 0..cols.ncols() {
            let (col_rows, col_values) = cols.col_slices(j);
            rows.extend_from_slice(&col_rows[span(j)]);
            values.extend_from_slice(&col_values[span(j)]);
        }
        Self {
            counts,
            rows,
            values,
        }
    }
}

/// Everything a rank needs to start working: its shard of the statically
/// partitioned users, the local rating slice, and the run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupPayload {
    /// This rank's index.
    pub rank: u32,
    /// Total number of ranks.
    pub ranks: u32,
    /// Global user count.
    pub nrows: u64,
    /// Global item count.
    pub ncols: u64,
    /// First user row owned by this rank (contiguous shard).
    pub row_start: u64,
    /// Number of user rows owned by this rank.
    pub row_count: u64,
    /// Latent dimension.
    pub k: u32,
    /// RNG seed shared by every rank (routing streams are derived per
    /// rank, token homes via `token_home`).
    pub seed: u64,
    /// Regularization λ.
    pub lambda: f64,
    /// Step-size numerator α (Eq. 11).
    pub alpha: f64,
    /// Step-size decay β (Eq. 11).
    pub beta: f64,
    /// Routing policy.
    pub routing: RoutingPolicy,
    /// Global SGD-update budget; also each rank's local hard cap.
    pub budget: u64,
    /// Tokens per outbound network message (Section 3.5; ~100).
    pub message_batch: u32,
    /// Updates between progress reports to the driver.
    pub progress_every: u64,
    /// Peer-silence threshold before a rank is suspected dead, in
    /// milliseconds; `0` disables failure detection.
    pub heartbeat_timeout_ms: u32,
    /// Chaos knob: after this many local SGD updates the rank aborts the
    /// whole process (`0` = never).  Only honored inside a real spawned
    /// child — the kill-a-rank regression uses it as a deterministic
    /// `SIGKILL` stand-in.
    pub abort_after_updates: u64,
    /// Serving knob: run a `SnapshotPublisher` over the rank's shard,
    /// publishing roughly every this many local updates (`0` = serving
    /// disabled; queries answer `NotReady`).
    pub serve_publish_every: u64,
    /// Serving knob: answer queries through the approximate IVF
    /// shortlist index, probing this many centroid posting lists per
    /// query (`0` = exact brute-force scan).  Clamped to the index's
    /// centroid count, where the answer is bit-identical to the scan.
    pub serve_nprobe: u32,
    /// Membership epoch this setup belongs to (bumped by every eviction
    /// and join).
    pub epoch: u64,
    /// Ranks alive at `epoch`.  `ranks` above is the *mesh capacity*;
    /// this is the subset currently participating.
    pub active_ranks: Vec<u32>,
    /// Initial user-factor rows for the shard, row-major
    /// (`row_count * k` values).
    pub w_rows: Vec<f64>,
    /// The ratings of the shard's users, as the columns the rank sweeps
    /// (every row inside `row_start..row_start + row_count`).
    pub cols: WireCols,
}

/// One contiguous run of user rows and their factors — shards become a
/// *list* of these once eviction takeover and join rebalancing make
/// ownership non-contiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSegment {
    /// First global user row of the segment.
    pub row_start: u64,
    /// Row-major factor values (`count * k`).
    pub rows: Vec<f64>,
}

/// A rank's final state, gathered by the driver at quiesce: owned user
/// rows, every token currently held (with factors and pass counts), and
/// the local slice of the conservation ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPayload {
    /// The reporting rank.
    pub rank: u32,
    /// Latent dimension (for framing segment rows).
    pub k: u32,
    /// Owned user rows, as disjoint contiguous segments.
    pub segments: Vec<WireSegment>,
    /// Every token held by this rank when it quiesced.
    pub tokens: Vec<WireToken>,
    /// Token-processing events performed locally (local tickets).
    pub tickets: u64,
    /// SGD updates performed locally.
    pub updates: u64,
    /// Tokens this rank sent to other ranks over the transport.
    pub remote_sends: u64,
}

/// A rank's published serving snapshot, shipped to the driver so the
/// front-end router can fail over to a **stale replica** of the shard
/// when the owning rank dies or partitions mid-run.  Sent rank → driver
/// after every publisher epoch advance: the owned user rows (from the
/// immutable published snapshot, not the live slab) plus the full item
/// matrix the snapshot froze.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaPayload {
    /// The publishing rank.
    pub rank: u32,
    /// Latent dimension (for framing segment rows and `items`).
    pub k: u32,
    /// Publisher epoch of the snapshot this replica copies.
    pub epoch: u64,
    /// Cumulative update clock when the snapshot was initiated — the
    /// staleness anchor for every answer served from this replica.
    pub updates_at: u64,
    /// Owned user rows, as disjoint contiguous segments.
    pub segments: Vec<WireSegment>,
    /// The snapshot's full item matrix, row-major (`ncols * k` values).
    pub items: Vec<f64>,
}

/// One factor row of a delta frame: a global row index plus its `k`
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDeltaRow {
    /// Global row index (user row for `w_rows`, item row for `h_rows`).
    pub row: u64,
    /// The row's factor values (`k` of them).
    pub factors: Vec<f64>,
}

/// A rank's **incremental** replica publish: only the rows that changed
/// since the last frame the rank shipped, chained to that frame by
/// `base_epoch`.  The receiver applies a delta only when its last
/// applied epoch for the rank equals `base_epoch` — any gap (a dropped
/// frame, a fresh receiver) makes it wait for the next full
/// [`ReplicaPayload`], which the rank sends as the first publish, after
/// ownership changes, when the delta would not be smaller than the full
/// frame, and periodically as a self-healing resync.  Applying the
/// chain is **bit-identical** to applying every full frame (pinned by
/// the `delta_equiv` suite and the driver's merge tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaDeltaPayload {
    /// The publishing rank.
    pub rank: u32,
    /// Latent dimension (for framing the rows).
    pub k: u32,
    /// Publisher epoch of the snapshot this delta advances to.
    pub epoch: u64,
    /// Publisher epoch the delta applies on top of (the epoch of the
    /// previous frame this rank shipped).
    pub base_epoch: u64,
    /// Cumulative update clock when the snapshot was initiated.
    pub updates_at: u64,
    /// Changed user-factor rows (within the rank's owned segments).
    pub w_rows: Vec<WireDeltaRow>,
    /// Changed item-factor rows (update clock advanced *and* bits
    /// actually differ from the previous shipped snapshot).
    pub h_rows: Vec<WireDeltaRow>,
}

/// Hard cap on a metric name's byte length in a `Telemetry` frame.
pub const MAX_METRIC_NAME_LEN: usize = 256;

/// [`Message::Telemetry`] payload: one rank's cumulative metric snapshot.
///
/// Snapshots are **cumulative**, not deltas: the driver keeps only the
/// highest-`seq` frame per rank and folds those into the fleet view, so
/// an evicted rank stays represented by its last report and every
/// counter enters the fleet total exactly once by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryPayload {
    /// The reporting rank.
    pub rank: u32,
    /// Per-rank report sequence number; the driver drops frames that
    /// arrive out of order.
    pub seq: u64,
    /// The frozen metrics (sorted by name, as `Registry::snapshot`
    /// produces them).
    pub snapshot: TelemetrySnapshot,
}

/// `QueryReply::status`: the owning rank answered from its live snapshot.
pub const QUERY_OK: u8 = 0;
/// `QueryReply::status`: the rank has not published a snapshot yet (the
/// router fails over to the driver-held stale replica).
pub const QUERY_NOT_READY: u8 = 1;
/// `QueryReply::status`: the run has drained and the rank has quiesced —
/// a terminal "run over, use the gathered model" answer, not an error.
pub const QUERY_RUN_OVER: u8 = 2;
/// `QueryReply::status`: the queried user is outside the model.
pub const QUERY_UNKNOWN_USER: u8 = 3;

/// User rows in flight between address spaces: eviction takeover (driver
/// re-materializes the dead rank's shard on a survivor) and join
/// rebalancing (a donor ships live rows to the newcomer) both move a
/// segment plus its ratings.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTransferPayload {
    /// First global user row being transferred.
    pub row_start: u64,
    /// Latent dimension (for framing `rows`).
    pub k: u32,
    /// Row-major factor values for the transferred rows.
    pub rows: Vec<f64>,
    /// The ratings of those rows, as columns (every row inside the
    /// segment `rows` covers).
    pub cols: WireCols,
}

/// Every message of the nomad-net protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Rank → driver (TCP handshake): "I am rank `rank`, my peer listener
    /// is on 127.0.0.1:`port`".
    Hello {
        /// The connecting rank.
        rank: u32,
        /// The rank's peer-listener port.
        port: u16,
    },
    /// Rank → rank (TCP handshake): identifies the connecting peer.
    PeerHello {
        /// The connecting rank.
        rank: u32,
    },
    /// Driver → rank (TCP handshake): every rank's peer-listener port,
    /// indexed by rank.
    Peers {
        /// `ports[r]` is rank `r`'s listener port on 127.0.0.1.
        ports: Vec<u16>,
    },
    /// Driver → rank: shard + configuration.
    Setup(Box<SetupPayload>),
    /// A batch of nomadic tokens, plus the sender's current queue length
    /// (piggybacked for the least-loaded routing policy, Section 3.3).
    TokenBatch {
        /// Sender's queue length when the batch was sealed.
        qlen: u64,
        /// The tokens.
        tokens: Vec<WireToken>,
    },
    /// Rank → driver: cumulative local update count, with the rank's
    /// serving freshness piggybacked so the driver can report fleet-wide
    /// staleness without extra frames.
    Progress {
        /// The reporting rank.
        rank: u32,
        /// Its cumulative SGD-update count.
        updates: u64,
        /// Updates since the rank's latest published snapshot was
        /// initiated ([`u64::MAX`] = serving disabled or nothing
        /// published yet).
        staleness: u64,
        /// Largest update gap between the rank's consecutive publishes
        /// so far (`0` until two snapshots exist).
        publish_gap: u64,
    },
    /// Driver → rank: stop processing, flush, quiesce.
    Drain,
    /// Rank → rank: "no more tokens will ever follow on this edge".
    Fin {
        /// The sending rank.
        rank: u32,
    },
    /// Rank → driver: final gathered state.
    Shard(Box<ShardPayload>),
    /// Any → any: liveness beacon, sent only when an edge has been idle
    /// for a fraction of the heartbeat timeout.  Carries no state; its
    /// arrival (like any frame's) refreshes the peer's silence timer.
    Ping {
        /// The sending endpoint's rank.
        rank: u32,
    },
    /// Rank → driver: "I have heard nothing from `peer` for a full
    /// heartbeat timeout".  The driver corroborates with its own timer
    /// before evicting.
    Suspect {
        /// The reporting rank.
        rank: u32,
        /// The silent peer.
        peer: u32,
    },
    /// Driver → ranks: `rank` is dead as of `epoch`; stop listening to
    /// it, park, flush, and run the token census.  Sent to the evicted
    /// rank itself too (best-effort) so a merely-slow rank exits instead
    /// of haunting the mesh.
    Evict {
        /// New membership epoch.
        epoch: u64,
        /// The evicted rank.
        rank: u32,
    },
    /// Rank → rank: census barrier marker.  On a FIFO edge it proves
    /// every pre-eviction token from the sender has been delivered, so
    /// inventories taken after all marks are a consistent cut.
    CensusMark {
        /// The census epoch.
        epoch: u64,
        /// The sending rank.
        rank: u32,
    },
    /// Rank → driver: the tokens this rank holds at the census cut, plus
    /// its ticket count — the driver re-mints whatever item is in
    /// nobody's inventory.
    Inventory {
        /// The census epoch.
        epoch: u64,
        /// The reporting rank.
        rank: u32,
        /// Local tickets drawn so far.
        tickets: u64,
        /// Held tokens as `(item, pass)` pairs (factors stay local).
        held: Vec<(u32, u64)>,
    },
    /// Driver → ranks: the census for `epoch` is complete (lost tokens
    /// re-minted, orphaned shard reassigned); unpark and resume.
    Reconfigure {
        /// The completed epoch.
        epoch: u64,
    },
    /// Newcomer → driver: request to join the mesh as `rank` (loopback
    /// meshes; the TCP path re-runs the `Hello` handshake instead).
    Join {
        /// The joining rank's pre-provisioned slot.
        rank: u32,
    },
    /// Driver → ranks: `rank` joined as of `epoch`; start routing tokens
    /// to it.  No barrier — adding a destination is always safe.
    AddRank {
        /// New membership epoch.
        epoch: u64,
        /// The joined rank.
        rank: u32,
    },
    /// Driver → donor rank: ship `row_count` user rows starting at
    /// `row_start` (live factors + ratings) to rank `to`.
    Rebalance {
        /// Membership epoch of the join.
        epoch: u64,
        /// The receiving rank.
        to: u32,
        /// First user row to give away.
        row_start: u64,
        /// Number of rows to give away.
        row_count: u64,
    },
    /// Driver → survivor (takeover) or donor → newcomer (rebalance):
    /// a segment of user rows changes owner.
    ShardTransfer(Box<ShardTransferPayload>),
    /// Router (via the driver's endpoint) → owning rank: answer a top-k
    /// query for `user` from the rank's live snapshot.
    Query {
        /// Router-assigned query id, echoed in the reply (a re-route to
        /// a new owner reuses the id, first reply wins).
        id: u64,
        /// The queried global user row.
        user: u32,
        /// How many recommendations to return.
        k: u32,
        /// Items to exclude (already rated); any order, duplicates ok —
        /// the rank normalizes before scoring.
        seen: Vec<u32>,
    },
    /// Owning rank → router: the answer (or a typed non-answer) to a
    /// [`Message::Query`].
    QueryReply {
        /// The echoed query id.
        id: u64,
        /// One of [`QUERY_OK`], [`QUERY_NOT_READY`], [`QUERY_RUN_OVER`],
        /// [`QUERY_UNKNOWN_USER`]; any other value is a decode error.
        status: u8,
        /// Publisher epoch of the answering snapshot (0 unless `Ok`).
        epoch: u64,
        /// Update clock the answering snapshot was initiated at.
        updates_at: u64,
        /// The rank's staleness bound at answer time (updates since the
        /// snapshot was initiated).
        staleness: u64,
        /// Recommendations, best first, as `(item, score)` pairs.
        recs: Vec<(u32, f64)>,
    },
    /// Rank → driver: a copy of the rank's latest published snapshot,
    /// kept driver-side as the failover replica for this shard.
    Replica(Box<ReplicaPayload>),
    /// Rank → driver: an incremental replica publish — only the rows
    /// that changed since the rank's previous frame (see
    /// [`ReplicaDeltaPayload`] for the chaining contract).
    ReplicaDelta(Box<ReplicaDeltaPayload>),
    /// Rank → driver: a periodic cumulative telemetry snapshot (see
    /// [`TelemetryPayload`] for the exactly-once fold contract).
    Telemetry(Box<TelemetryPayload>),
}

// ---------------------------------------------------------------------------
// The wire rule: how one value is laid out, and the fewest bytes it takes.

/// Where [`Wire::get`] reads from: the payload of one frame, either a
/// whole `&[u8]` ([`Message::decode`]) or a frame arriving on a buffered
/// stream ([`Message::read_from`]).  `left` counts the frame's unread
/// bytes and every read is checked against it, so both give the same
/// `Truncated`, the same pre-allocation refusal and the same `Trailing`.
struct Source<R> {
    r: R,
    left: usize,
}

impl<R: BufRead> Source<R> {
    /// Fills `out` from the frame, or fails `Truncated` if the frame has
    /// fewer bytes left.
    fn read(&mut self, out: &mut [u8]) -> Result<(), NetError> {
        if out.len() > self.left {
            return Err(WireError::Truncated.into());
        }
        self.left -= out.len();
        Ok(self.r.read_exact(out)?)
    }

    /// Hands `take` up to `max` whole `N`-byte values straight out of the
    /// reader's buffer, consumes them and returns how many there were:
    /// none when the next value straddles the end of the buffer or of the
    /// frame, which the caller then reads with [`Source::read`].
    fn run<const N: usize>(
        &mut self,
        max: usize,
        take: impl FnOnce(&[[u8; N]]),
    ) -> Result<usize, NetError> {
        let buf = self.r.fill_buf()?;
        let (run, _) = buf[..buf.len().min(self.left).min(max * N)].as_chunks::<N>();
        let count = run.len();
        take(run);
        self.left -= count * N;
        self.r.consume(count * N);
        Ok(count)
    }
}

/// How a value crosses the wire.  Implemented once per *kind* of value;
/// every payload struct and message is then a list of fields (the tables).
trait Wire: Sized {
    /// The fewest bytes any value of this type encodes to (for a struct,
    /// the sum over its fields).  A sequence decoder multiplies it by the
    /// announced count and refuses, before allocating, a count the rest
    /// of the frame cannot hold.
    const MIN_BYTES: usize;

    /// The measuring pass: the bytes [`Wire::put`] writes, or the
    /// encode-side limit the value breaks.  Every limit is checked here,
    /// so `put` runs only on a value already known to fit.  The default,
    /// `MIN_BYTES`, is the length of every fixed-size kind.
    fn wire_len(&self) -> Result<usize, WireError> {
        Ok(Self::MIN_BYTES)
    }

    /// Writes the value's bytes.
    fn put<W: Write>(&self, w: &mut W) -> io::Result<()>;

    /// Reads one value off the front of the frame.
    fn get<R: BufRead>(src: &mut Source<R>) -> Result<Self, NetError>;

    /// [`Wire::wire_len`] of a run of values (a sequence's elements).
    fn len_all(vals: &[Self]) -> Result<usize, WireError> {
        vals.iter().map(Wire::wire_len).sum()
    }

    /// [`Wire::put`] of a run of values.
    fn put_all<W: Write>(vals: &[Self], w: &mut W) -> io::Result<()> {
        vals.iter().try_for_each(|v| v.put(w))
    }

    /// [`Wire::get`] of `n` values, which the frame has been checked to
    /// have room for (`n * MIN_BYTES` bytes).
    fn get_all<R: BufRead>(n: usize, src: &mut Source<R>) -> Result<Vec<Self>, NetError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(src)?);
        }
        Ok(out)
    }
}

/// Scalars are little-endian, and a run of them moves in chunks rather
/// than one call per element.
macro_rules! wire_le {
    ($($ty:ty)+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = size_of::<$ty>();

            fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
                w.write_all(&self.to_le_bytes())
            }

            fn get<R: BufRead>(src: &mut Source<R>) -> Result<Self, NetError> {
                let mut bytes = [0; size_of::<$ty>()];
                src.read(&mut bytes)?;
                Ok(<$ty>::from_le_bytes(bytes))
            }

            fn len_all(vals: &[Self]) -> Result<usize, WireError> {
                Ok(vals.len() * Self::MIN_BYTES)
            }

            fn put_all<W: Write>(vals: &[Self], w: &mut W) -> io::Result<()> {
                let mut chunk = [[0; size_of::<$ty>()]; RUN_BYTES / size_of::<$ty>()];
                for run in vals.chunks(chunk.len()) {
                    for (bytes, v) in chunk.iter_mut().zip(run) {
                        *bytes = v.to_le_bytes();
                    }
                    w.write_all(chunk[..run.len()].as_flattened())?;
                }
                Ok(())
            }

            fn get_all<R: BufRead>(n: usize, src: &mut Source<R>) -> Result<Vec<Self>, NetError> {
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let want = n - out.len();
                    let decode = |run: &[[u8; size_of::<$ty>()]]| {
                        out.extend(run.iter().map(|bytes| <$ty>::from_le_bytes(*bytes)))
                    };
                    if src.run(want, decode)? == 0 {
                        out.push(Self::get(src)?);
                    }
                }
                Ok(out)
            }
        }
    )+};
}
wire_le!(u8 u16 u32 u64 i64 f64);

/// A sequence is a `u32` element count, then the elements.  The only
/// place a count is checked: against [`MAX_SEQ_LEN`] both ways, and on
/// decode against the bytes left in the frame.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;

    fn wire_len(&self) -> Result<usize, WireError> {
        if self.len() as u64 > MAX_SEQ_LEN as u64 {
            return Err(WireError::BadLength(self.len() as u64));
        }
        Ok(u32::MIN_BYTES + T::len_all(self)?)
    }

    fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
        (self.len() as u32).put(w)?;
        T::put_all(self, w)
    }

    fn get<R: BufRead>(src: &mut Source<R>) -> Result<Self, NetError> {
        // An element that could take no bytes would leave the allocation
        // below bounded by the cap alone.
        const { assert!(T::MIN_BYTES > 0) };
        let n = u32::get(src)?;
        if n > MAX_SEQ_LEN {
            return Err(WireError::BadLength(n as u64).into());
        }
        let need = (n as usize)
            .checked_mul(T::MIN_BYTES)
            .ok_or(WireError::BadLength(n as u64))?;
        if src.left < need {
            return Err(WireError::Truncated.into());
        }
        T::get_all(n as usize, src)
    }
}

/// A fixed-size array is its elements, no count.
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn wire_len(&self) -> Result<usize, WireError> {
        T::len_all(self)
    }

    fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
        T::put_all(self, w)
    }

    fn get<R: BufRead>(src: &mut Source<R>) -> Result<Self, NetError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::get(src)?;
        }
        Ok(out)
    }
}

/// A tuple is its elements in order.
macro_rules! wire_tuple {
    ($($v:ident: $T:ident),+) => {
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            const MIN_BYTES: usize = 0 $(+ $T::MIN_BYTES)+;

            fn wire_len(&self) -> Result<usize, WireError> {
                let ($($v,)+) = self;
                Ok(0 $(+ $v.wire_len()?)+)
            }

            fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
                let ($($v,)+) = self;
                $($v.put(w)?;)+
                Ok(())
            }

            fn get<R: BufRead>(src: &mut Source<R>) -> Result<Self, NetError> {
                Ok(($($T::get(src)?,)+))
            }
        }
    };
}
wire_tuple!(a: A, b: B);

/// A string is a metric name: a `u16` byte length of at most
/// [`MAX_METRIC_NAME_LEN`], then UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = u16::MIN_BYTES;

    fn wire_len(&self) -> Result<usize, WireError> {
        if self.len() > MAX_METRIC_NAME_LEN {
            return Err(WireError::BadLength(self.len() as u64));
        }
        Ok(u16::MIN_BYTES + self.len())
    }

    fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
        (self.len() as u16).put(w)?;
        w.write_all(self.as_bytes())
    }

    fn get<R: BufRead>(src: &mut Source<R>) -> Result<Self, NetError> {
        let n = u16::get(src)? as usize;
        if n > MAX_METRIC_NAME_LEN {
            return Err(WireError::BadLength(n as u64).into());
        }
        let mut name = vec![0; n];
        src.read(&mut name)?;
        String::from_utf8(name).map_err(|_| WireError::BadValue(n as u64).into())
    }
}

/// A routing policy is one byte — 0 = uniform, 1 = least-loaded,
/// 2 = round-robin — and any other byte is refused where it is read.
impl Wire for RoutingPolicy {
    const MIN_BYTES: usize = u8::MIN_BYTES;

    fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let byte: u8 = match self {
            RoutingPolicy::UniformRandom => 0,
            RoutingPolicy::LeastLoaded => 1,
            RoutingPolicy::RoundRobin => 2,
        };
        byte.put(w)
    }

    fn get<R: BufRead>(src: &mut Source<R>) -> Result<Self, NetError> {
        match u8::get(src)? {
            0 => Ok(RoutingPolicy::UniformRandom),
            1 => Ok(RoutingPolicy::LeastLoaded),
            2 => Ok(RoutingPolicy::RoundRobin),
            other => Err(WireError::BadValue(other as u64).into()),
        }
    }
}

// ---------------------------------------------------------------------------
// The tables, in wire order.  Adding a message is a variant on `Message`
// plus one line here; `tests/wire_golden.rs` pins the bytes of every line.

/// `F::MIN_BYTES` of the field a projection returns, so `wire_structs!`
/// can sum a struct's minimum from its field names alone.
const fn min_bytes_of<S, F: Wire>(_field: fn(&S) -> &F) -> usize {
    F::MIN_BYTES
}

macro_rules! wire_structs {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ min_bytes_of(|s: &$ty| &s.$field))+;

            fn wire_len(&self) -> Result<usize, WireError> {
                Ok(0 $(+ self.$field.wire_len()?)+)
            }

            #[inline] // a token's fields are written in its batch's loop, not behind a call
            fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
                $(self.$field.put(w)?;)+
                Ok(())
            }

            fn get<R: BufRead>(src: &mut Source<R>) -> Result<Self, NetError> {
                Ok($ty { $($field: Wire::get(src)?),+ })
            }
        }
    )+};
}

wire_structs! {
    WireToken { item, pass, factor }
    WireSegment { row_start, rows }
    WireDeltaRow { row, factors }
    WireCols { counts, rows, values }
    HistSnapshot { count, sum, max, buckets }
    TelemetrySnapshot { counters, gauges, hists }
    SetupPayload {
        rank, ranks, nrows, ncols, row_start, row_count, k, seed, lambda, alpha, beta, routing,
        budget, message_batch, progress_every, heartbeat_timeout_ms, abort_after_updates,
        serve_publish_every, serve_nprobe, epoch, active_ranks, w_rows, cols
    }
    ShardPayload { rank, k, segments, tokens, tickets, updates, remote_sends }
    ShardTransferPayload { row_start, k, rows, cols }
    ReplicaPayload { rank, k, epoch, updates_at, segments, items }
    ReplicaDeltaPayload { rank, k, epoch, base_epoch, updates_at, w_rows, h_rows }
    TelemetryPayload { rank, seq, snapshot }
}

/// `tag Variant { fields }`, `tag Variant(boxed payload)` or `tag Variant`;
/// `field <= MAX` refuses a larger value where the field is read.
macro_rules! wire_messages {
    ($(
        $tag:literal $variant:ident
        $({ $($field:ident $(<= $max:ident)?),+ })?
        $(($payload:ident))?
    )+) => {
        impl Message {
            /// The measuring pass over a whole payload (tag byte + fields):
            /// its byte length, or the limit it breaks — [`MAX_SEQ_LEN`],
            /// [`MAX_METRIC_NAME_LEN`] or, for the payload as a whole,
            /// [`MAX_FRAME_LEN`].
            fn payload_len(&self) -> Result<usize, WireError> {
                let len = match self {$(
                    Message::$variant $({ $($field),+ })? $(($payload))? => {
                        1 $($(+ $field.wire_len()?)+)? $(+ $payload.wire_len()?)?
                    }
                )+};
                if len > MAX_FRAME_LEN as usize {
                    return Err(WireError::BadLength(len as u64));
                }
                Ok(len)
            }

            /// Writes the payload of a message that passed
            /// [`Message::payload_len`].
            fn put_payload<W: Write>(&self, w: &mut W) -> io::Result<()> {
                match self {$(
                    Message::$variant $({ $($field),+ })? $(($payload))? => {
                        ($tag as u8).put(w)?;
                        $($($field.put(w)?;)+)?
                        $($payload.put(w)?;)?
                    }
                )+}
                Ok(())
            }

            /// Reads one payload — tag, fields, then "no bytes left over".
            fn get_payload<R: BufRead>(src: &mut Source<R>) -> Result<Message, NetError> {
                let msg = match u8::get(src)? {
                    $($tag => {
                        $($(
                            let $field = Wire::get(src)?;
                            $(if $field > $max {
                                return Err(WireError::BadValue($field as u64).into());
                            })?
                        )+)?
                        $(let $payload = Box::new(Wire::get(src)?);)?
                        Message::$variant $({ $($field),+ })? $(($payload))?
                    })+
                    other => return Err(WireError::BadTag(other).into()),
                };
                match src.left {
                    0 => Ok(msg),
                    left => Err(WireError::Trailing(left).into()),
                }
            }
        }
    };
}

wire_messages! {
    1 Hello { rank, port }
    2 PeerHello { rank }
    3 Peers { ports }
    4 Setup(payload)
    5 TokenBatch { qlen, tokens }
    6 Progress { rank, updates, staleness, publish_gap }
    7 Drain
    8 Fin { rank }
    9 Shard(payload)
    10 Ping { rank }
    11 Suspect { rank, peer }
    12 Evict { epoch, rank }
    13 CensusMark { epoch, rank }
    14 Inventory { epoch, rank, tickets, held }
    15 Reconfigure { epoch }
    16 Join { rank }
    17 AddRank { epoch, rank }
    18 Rebalance { epoch, to, row_start, row_count }
    19 ShardTransfer(payload)
    20 Query { id, user, k, seen }
    21 QueryReply { id, status <= QUERY_UNKNOWN_USER, epoch, updates_at, staleness, recs }
    22 Replica(payload)
    23 Telemetry(payload)
    24 ReplicaDelta(payload)
}

impl Message {
    /// Encodes the message payload (tag byte + fields, no length prefix)
    /// into a buffer allocated once, at the length the measuring pass
    /// found.
    ///
    /// # Errors
    /// Fails only if a sequence exceeds [`MAX_SEQ_LEN`], a metric name
    /// [`MAX_METRIC_NAME_LEN`] or the payload [`MAX_FRAME_LEN`] —
    /// impossible for messages the engine itself builds.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::with_capacity(self.payload_len()?);
        self.put_payload(&mut buf)
            .expect("a Vec<u8> takes every write");
        Ok(buf)
    }

    /// Decodes one payload produced by [`Message::encode`].
    ///
    /// Total: truncated, oversized, or garbage input returns a
    /// [`WireError`]; it never panics and never allocates more than the
    /// input could legitimately describe.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let src = &mut Source {
            r: payload,
            left: payload.len(),
        };
        Message::get_payload(src).map_err(|e| match e {
            NetError::Wire(e) => e,
            // The slice holds every byte `left` counts, so it cannot run
            // dry before the count does.
            _ => WireError::Truncated,
        })
    }

    /// Writes the message as one frame — length prefix, then payload —
    /// through `w` and flushes it, returning the payload's length.  With a
    /// `BufWriter` as `w`, a frame that fits its buffer leaves in one
    /// `write` and a larger one in buffer-sized pieces.
    ///
    /// # Errors
    /// A message [`Message::encode`] refuses fails with
    /// [`NetError::Wire`] before a byte is written, so `w` stays usable;
    /// a failed write is [`NetError::Io`].
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<usize, NetError> {
        let len = self.payload_len()?;
        (len as u32).put(w)?;
        self.put_payload(w)?;
        w.flush()?;
        Ok(len)
    }

    /// Reads one frame off `r`, decoding the payload as it arrives;
    /// `Ok(None)` on a clean end of stream at a frame boundary.
    ///
    /// # Errors
    /// A frame [`Message::decode`] would refuse fails with the same
    /// [`WireError`] (as [`NetError::Wire`]); so does a length prefix
    /// over [`MAX_FRAME_LEN`], before anything is allocated.  A stream
    /// that ends inside a frame, or fails, is [`NetError::Io`].
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Option<Message>, NetError> {
        if r.fill_buf()?.is_empty() {
            return Ok(None);
        }
        let mut len = [0; 4];
        r.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len);
        if len > MAX_FRAME_LEN {
            return Err(WireError::BadLength(len as u64).into());
        }
        let src = &mut Source {
            r,
            left: len as usize,
        };
        Message::get_payload(src).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) {
        let bytes = msg.encode().expect("encode");
        let back = Message::decode(&bytes).expect("decode");
        assert_eq!(*msg, back);
    }

    fn setup() -> SetupPayload {
        SetupPayload {
            rank: 2,
            ranks: 4,
            nrows: 1000,
            ncols: 500,
            row_start: 500,
            row_count: 250,
            k: 8,
            seed: 0xDEAD_BEEF,
            lambda: 0.05,
            alpha: 0.012,
            beta: 0.05,
            routing: RoutingPolicy::LeastLoaded,
            budget: 400_000,
            message_batch: 100,
            progress_every: 4096,
            heartbeat_timeout_ms: 10_000,
            abort_after_updates: 0,
            serve_publish_every: 2_000,
            serve_nprobe: 8,
            epoch: 3,
            active_ranks: vec![0, 1, 3],
            w_rows: vec![0.125; 16],
            cols: WireCols {
                counts: vec![0, 1, 1],
                rows: vec![500, 749],
                values: vec![4.5, 1.0],
            },
        }
    }

    /// The literals are the hand-computed sizes the decoders used to be handed.
    #[test]
    fn derived_min_bytes_match_the_literals_they_replace() {
        use nomad_telemetry::HIST_BUCKETS;
        assert_eq!(WireToken::MIN_BYTES, 16); // item + pass + empty factor
        assert_eq!(WireCols::MIN_BYTES, 12); // three empty sequences
        assert_eq!(WireSegment::MIN_BYTES, 12); // row_start + empty rows
        assert_eq!(WireDeltaRow::MIN_BYTES, 12); // row + empty factors
        assert_eq!(<(u32, u64)>::MIN_BYTES, 12); // a held (item, pass)
        assert_eq!(<(u32, f64)>::MIN_BYTES, 12); // a recommendation
        assert_eq!(<(String, u64)>::MIN_BYTES, 10); // empty name + counter
        assert_eq!(
            <(String, HistSnapshot)>::MIN_BYTES,
            2 + 3 * 8 + 8 * HIST_BUCKETS // empty name + count/sum/max + buckets
        );
    }

    #[test]
    fn control_messages_round_trip() {
        roundtrip(&Message::Hello {
            rank: 3,
            port: 40001,
        });
        roundtrip(&Message::PeerHello { rank: 7 });
        roundtrip(&Message::Peers {
            ports: vec![5000, 5001, 5002],
        });
        roundtrip(&Message::Progress {
            rank: 1,
            updates: u64::MAX,
            staleness: u64::MAX,
            publish_gap: 4096,
        });
        roundtrip(&Message::Drain);
        roundtrip(&Message::Fin { rank: 0 });
    }

    #[test]
    fn token_batch_round_trips() {
        roundtrip(&Message::TokenBatch {
            qlen: 42,
            tokens: vec![
                WireToken {
                    item: 0,
                    pass: 0,
                    factor: vec![],
                },
                WireToken {
                    item: u32::MAX,
                    pass: 17,
                    factor: vec![1.5, -0.25, f64::MIN_POSITIVE, f64::MAX],
                },
            ],
        });
    }

    #[test]
    fn setup_and_shard_round_trip() {
        roundtrip(&Message::Setup(Box::new(setup())));
        roundtrip(&Message::Shard(Box::new(ShardPayload {
            rank: 0,
            k: 2,
            segments: vec![
                WireSegment {
                    row_start: 0,
                    rows: vec![1.0, 2.0, 3.0, 4.0],
                },
                WireSegment {
                    row_start: 700,
                    rows: vec![5.0, 6.0],
                },
            ],
            tokens: vec![WireToken {
                item: 9,
                pass: 3,
                factor: vec![0.5, 0.25],
            }],
            tickets: 12,
            updates: 300,
            remote_sends: 5,
        })));
    }

    #[test]
    fn membership_messages_round_trip() {
        roundtrip(&Message::Ping { rank: 3 });
        roundtrip(&Message::Suspect { rank: 0, peer: 2 });
        roundtrip(&Message::Evict { epoch: 1, rank: 2 });
        roundtrip(&Message::CensusMark { epoch: 1, rank: 0 });
        roundtrip(&Message::Inventory {
            epoch: 1,
            rank: 0,
            tickets: 99,
            held: vec![(7, 12), (u32::MAX, u64::MAX)],
        });
        roundtrip(&Message::Inventory {
            epoch: 2,
            rank: 1,
            tickets: 0,
            held: vec![],
        });
        roundtrip(&Message::Reconfigure { epoch: 1 });
        roundtrip(&Message::Join { rank: 5 });
        roundtrip(&Message::AddRank { epoch: 4, rank: 5 });
        roundtrip(&Message::Rebalance {
            epoch: 4,
            to: 5,
            row_start: 250,
            row_count: 125,
        });
        roundtrip(&Message::ShardTransfer(Box::new(ShardTransferPayload {
            row_start: 250,
            k: 2,
            rows: vec![0.5, 0.25, -1.0, 2.0],
            cols: WireCols {
                counts: vec![1, 0, 1],
                rows: vec![250, 251],
                values: vec![3.0, 5.0],
            },
        })));
    }

    #[test]
    fn serving_messages_round_trip() {
        roundtrip(&Message::Query {
            id: u64::MAX,
            user: 42,
            k: 10,
            seen: vec![3, 1, 1, u32::MAX],
        });
        roundtrip(&Message::Query {
            id: 0,
            user: 0,
            k: 0,
            seen: vec![],
        });
        roundtrip(&Message::QueryReply {
            id: 7,
            status: QUERY_OK,
            epoch: 3,
            updates_at: 10_000,
            staleness: 512,
            recs: vec![(5, 4.5), (0, -0.25), (u32::MAX, f64::MIN_POSITIVE)],
        });
        roundtrip(&Message::QueryReply {
            id: 8,
            status: QUERY_RUN_OVER,
            epoch: 0,
            updates_at: 0,
            staleness: 0,
            recs: vec![],
        });
        roundtrip(&Message::Replica(Box::new(ReplicaPayload {
            rank: 2,
            k: 2,
            epoch: 5,
            updates_at: 9_000,
            segments: vec![
                WireSegment {
                    row_start: 0,
                    rows: vec![1.0, 2.0, 3.0, 4.0],
                },
                WireSegment {
                    row_start: 700,
                    rows: vec![5.0, 6.0],
                },
            ],
            items: vec![0.5, -0.5, 1.5, -1.5],
        })));
        roundtrip(&Message::ReplicaDelta(Box::new(ReplicaDeltaPayload {
            rank: 1,
            k: 2,
            epoch: 6,
            base_epoch: 5,
            updates_at: 11_000,
            w_rows: vec![WireDeltaRow {
                row: 701,
                factors: vec![5.5, 6.5],
            }],
            h_rows: vec![
                WireDeltaRow {
                    row: 0,
                    factors: vec![0.25, -0.25],
                },
                WireDeltaRow {
                    row: u64::from(u32::MAX),
                    factors: vec![f64::MIN_POSITIVE, -0.0],
                },
            ],
        })));
        roundtrip(&Message::ReplicaDelta(Box::new(ReplicaDeltaPayload {
            rank: 0,
            k: 0,
            epoch: 1,
            base_epoch: 0,
            updates_at: 0,
            w_rows: vec![],
            h_rows: vec![],
        })));
    }

    #[test]
    fn telemetry_round_trips() {
        use nomad_telemetry::Registry;
        let reg = Registry::new();
        reg.counter("engine.updates").add(12_345);
        reg.counter("net.frames_sent").add(7);
        reg.gauge("engine.publish_gap").set(4096);
        reg.histogram("serve.latency_us").record(250);
        reg.histogram("serve.latency_us").record(u64::MAX);
        roundtrip(&Message::Telemetry(Box::new(TelemetryPayload {
            rank: 3,
            seq: 9,
            snapshot: reg.snapshot(),
        })));
        roundtrip(&Message::Telemetry(Box::new(TelemetryPayload {
            rank: 0,
            seq: 0,
            snapshot: TelemetrySnapshot::default(),
        })));
    }

    #[test]
    fn oversized_metric_name_fails_encode() {
        let mut snapshot = TelemetrySnapshot::default();
        snapshot
            .counters
            .push(("x".repeat(MAX_METRIC_NAME_LEN + 1), 1));
        let err = Message::Telemetry(Box::new(TelemetryPayload {
            rank: 0,
            seq: 0,
            snapshot,
        }))
        .encode()
        .unwrap_err();
        assert!(matches!(err, WireError::BadLength(_)));
    }

    #[test]
    fn non_utf8_metric_name_is_rejected() {
        let mut bytes = vec![23]; // the Telemetry tag
        bytes.extend_from_slice(&0u32.to_le_bytes()); // rank
        bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one counter
        bytes.extend_from_slice(&1u16.to_le_bytes()); // name length 1
        bytes.push(0xFF); // invalid UTF-8
        bytes.extend_from_slice(&0u64.to_le_bytes()); // counter value
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no gauges
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no histograms
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadValue(_))
        ));
    }

    #[test]
    fn invalid_query_reply_status_is_rejected() {
        let mut bytes = Message::QueryReply {
            id: 1,
            status: QUERY_OK,
            epoch: 0,
            updates_at: 0,
            staleness: 0,
            recs: vec![],
        }
        .encode()
        .unwrap();
        // The status byte sits right after tag + u64 id.
        bytes[1 + 8] = QUERY_UNKNOWN_USER + 1;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::BadValue((QUERY_UNKNOWN_USER + 1) as u64))
        );
    }

    #[test]
    fn truncated_inputs_error_instead_of_panicking() {
        let full = Message::TokenBatch {
            qlen: 1,
            tokens: vec![WireToken {
                item: 1,
                pass: 2,
                factor: vec![1.0, 2.0, 3.0],
            }],
        }
        .encode()
        .unwrap();
        for cut in 0..full.len() {
            assert!(
                Message::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn bad_tag_and_trailing_bytes_are_rejected() {
        assert_eq!(Message::decode(&[0xFF]), Err(WireError::BadTag(0xFF)));
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
        let mut bytes = Message::Drain.encode().unwrap();
        bytes.push(0);
        assert_eq!(Message::decode(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn corrupt_length_prefix_cannot_cause_a_huge_allocation() {
        // A token batch claiming 2^31 tokens in a 16-byte payload.
        let mut bytes = vec![5]; // the TokenBatch tag
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = Message::decode(&bytes).unwrap_err();
        assert!(matches!(
            err,
            WireError::BadLength(_) | WireError::Truncated
        ));
    }

    #[test]
    fn invalid_routing_policy_is_rejected() {
        let mut bytes = Message::Setup(Box::new(setup())).encode().unwrap();
        // The routing byte sits right after tag + 2*u32 + 4*u64 + u32 + u64
        // + 3*f64.
        let routing_off = 1 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 8;
        bytes[routing_off] = 3;
        assert_eq!(Message::decode(&bytes), Err(WireError::BadValue(3)));
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let sent = [
            Message::Setup(Box::new(setup())),
            Message::Drain,
            Message::Fin { rank: 4 },
        ];
        let mut stream = Vec::new();
        for msg in &sent {
            let len = msg.write_to(&mut stream).unwrap();
            assert_eq!(len, msg.encode().unwrap().len());
        }
        let mut r = &stream[..];
        for msg in &sent {
            assert_eq!(Message::read_from(&mut r).unwrap().as_ref(), Some(msg));
        }
        assert!(Message::read_from(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_header_is_rejected_without_allocating() {
        let header = (MAX_FRAME_LEN + 1).to_le_bytes();
        let err = Message::read_from(&mut &header[..]).unwrap_err();
        assert!(
            matches!(err, NetError::Wire(WireError::BadLength(n)) if n == MAX_FRAME_LEN as u64 + 1),
            "got {err:?}"
        );
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut stream = Vec::new();
        Message::Fin { rank: 1 }.write_to(&mut stream).unwrap();
        for cut in 1..stream.len() {
            let err = Message::read_from(&mut &stream[..cut]).unwrap_err();
            assert!(
                matches!(&err, NetError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "{cut}-byte prefix: got {err:?}"
            );
        }
    }
}
