//! `nomad-telemetry`: the observability plane of the NOMAD workspace.
//!
//! Three pieces, each shaped by the same constraint that shaped the
//! engines themselves — the SGD hot path must stay lock-free and
//! allocation-free (asserted by `nomad-core`'s counting-allocator test,
//! which runs **with telemetry recording enabled**):
//!
//! * [`metrics`] — sharded relaxed-atomic [`Counter`]s, a [`Gauge`], and
//!   a fixed-bucket log-scale [`Histogram`] whose p50/p90/p99/max are
//!   computed without allocating.  Recording is one relaxed `fetch_add`;
//!   there is no lock anywhere on the write path.
//! * [`registry`] — a static-friendly [`Registry`] that owns the metrics
//!   by name and hands out cheap typed handles ([`CounterHandle`],
//!   [`GaugeHandle`], [`HistogramHandle`]).  Registration allocates (it
//!   happens once, at setup); recording through a handle never does.
//! * [`events`] — a bounded lock-free [`EventRing`] of compact
//!   [`Event`] records (epoch start/end, publish, eviction, census,
//!   join, drain, query outcomes, shed/hedge/failover) with monotonic
//!   timestamps and a `kind@a@b@t<micros>` replay-friendly dump format,
//!   in the same spirit as the schedule fuzzer's `strategy@seed` pairs.
//!   The ring overwrites its oldest records instead of blocking.
//!
//! A [`Registry::snapshot`] freezes everything into a
//! [`TelemetrySnapshot`] — the unit of aggregation: ranks of the
//! distributed engine ship snapshots to the driver as periodic
//! `Telemetry` wire frames, the driver folds them (latest frame per
//! rank, evicted ranks frozen at their last report) into a fleet
//! snapshot, and [`render_jsonl_line`] renders any scope as one line of
//! a `nomad-telemetry-v1` dump (schema [`SCHEMA`]).  The simulated engines emit the *same* schema
//! through `nomad_cluster::SimMetrics::to_telemetry`, so a simulated
//! trace and a real trace are diffable line by line.
//!
//! ```
//! use nomad_telemetry::{Registry, names};
//!
//! let registry = Registry::new();
//! let updates = registry.counter(names::UPDATES);
//! let latency = registry.histogram(names::SERVE_LATENCY_US);
//!
//! updates.add(3);          // one relaxed fetch_add on a sharded atomic
//! latency.record(250);     // one fetch_add into a log-scale bucket
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter(names::UPDATES), Some(3));
//! let line = nomad_telemetry::render_jsonl_line("rank-0", &snap, None);
//! assert!(line.contains("nomad-telemetry-v1"));
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod jsonl;
pub mod metrics;
pub mod registry;

pub use events::{Event, EventKind, EventRing};
pub use jsonl::{render_jsonl_line, validate_jsonl_line, SCHEMA};
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, HIST_BUCKETS};
pub use registry::{CounterHandle, GaugeHandle, HistogramHandle, Registry, TelemetrySnapshot};

/// The shared metric-name schema: every engine (serial, threaded,
/// simulated, distributed) and the serving tier register under these
/// names, so snapshots from different execution modes merge and diff
/// cleanly.
pub mod names {
    /// SGD updates applied (counter).
    pub const UPDATES: &str = "engine.updates";
    /// Item tokens processed (counter).
    pub const TOKENS: &str = "engine.tokens";
    /// Observed local queue depth at token pop (log-scale histogram).
    pub const QUEUE_DEPTH: &str = "engine.queue_depth";
    /// Largest gap between consecutive snapshot publishes, in updates
    /// (gauge; the publisher's measured freshness bound).
    pub const PUBLISH_GAP: &str = "engine.publish_gap";
    /// Snapshot epochs published (counter).
    pub const PUBLISHES: &str = "engine.publishes";

    /// Wire frames sent (counter).
    pub const FRAMES_SENT: &str = "net.frames_sent";
    /// Wire frames received (counter).
    pub const FRAMES_RECV: &str = "net.frames_recv";
    /// Encoded bytes put on the wire (counter).
    pub const BYTES_SENT: &str = "net.bytes_sent";
    /// Sends retried or re-injected locally after a peer vanished
    /// (counter).
    pub const RETRIES: &str = "net.retries";
    /// Ranks evicted by the failure detector (counter; driver scope).
    pub const EVICTIONS: &str = "net.evictions";
    /// Ranks admitted mid-run (counter; driver scope).
    pub const JOINS: &str = "net.joins";
    /// Rank-side fixed cost of a run: microseconds from the comm thread
    /// taking `Setup` off its inbox to the worker thread being spawned
    /// (log-scale histogram; rank scope, one sample per rank).
    pub const RANK_SETUP_US: &str = "net.rank.setup_us";
    /// Driver-side fixed cost of a run: microseconds from entering the
    /// driver to the last initial `Setup` handed to the transport
    /// (log-scale histogram; driver scope, one sample per run).
    pub const DRIVER_SCATTER_US: &str = "net.driver.scatter_us";

    /// Queries submitted to the serve router (counter).
    pub const SERVE_SUBMITTED: &str = "serve.submitted";
    /// Fresh answers from the owning rank (counter).
    pub const SERVE_FRESH: &str = "serve.fresh";
    /// Stale answers from the driver replica (counter).
    pub const SERVE_STALE: &str = "serve.stale";
    /// Run-over notices (counter).
    pub const SERVE_RUN_OVER: &str = "serve.run_over";
    /// Queries shed by admission control (counter).
    pub const SERVE_SHED: &str = "serve.shed";
    /// Queries that exhausted their deadline (counter).
    pub const SERVE_TIMEOUT: &str = "serve.timeout";
    /// Queries answered via stale-replica failover (counter).
    pub const SERVE_FAILOVER: &str = "serve.failover";
    /// Per-query retransmissions (counter).
    pub const SERVE_RETRIES: &str = "serve.retries";
    /// Hedge transmissions (counter).
    pub const SERVE_HEDGES: &str = "serve.hedges";
    /// End-to-end query latency in microseconds (log-scale histogram;
    /// successful answers only).
    pub const SERVE_LATENCY_US: &str = "serve.latency_us";
    /// First stage of [`SERVE_LATENCY_US`]: microseconds from a query's
    /// submission to the first router pump that sends or resolves it
    /// (log-scale histogram; router scope).
    pub const SERVE_ADMISSION_WAIT_US: &str = "serve.admission_wait_us";
    /// Rank-side stage of [`SERVE_LATENCY_US`]: microseconds from the
    /// comm thread taking a `Query` off its inbox to the `QueryReply`
    /// being handed to the transport (log-scale histogram; rank scope).
    pub const SERVE_RANK_SERVICE_US: &str = "serve.rank_service_us";
    /// Centroid posting lists probed by approximate (IVF) top-k answers
    /// (counter; `nprobe` per IVF-served query).
    pub const SERVE_IVF_PROBES: &str = "serve.ivf_probes";
    /// Queries whose approximate answer was sampled against the exact
    /// scan for recall measurement (counter; bench scope).
    pub const SERVE_RECALL_SAMPLES: &str = "serve.recall_samples";
    /// Factor rows shipped in `ReplicaDelta` frames instead of full
    /// replica copies (counter).
    pub const SNAPSHOT_DELTA_ROWS: &str = "snapshot.delta_rows";
}
