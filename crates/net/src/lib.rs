//! `nomad-net`: real multi-process distributed NOMAD over localhost TCP.
//!
//! This crate closes the repository's biggest fidelity gap with the paper:
//! Section 2.3's *distributed* NOMAD — asynchronous token passing across
//! machines with a dedicated communication thread per machine batching
//! `(j, h_j)` messages — previously existed only as the virtual-clock
//! simulator in `nomad-cluster`.  Here the SGD arithmetic stays byte-for-
//! byte the PR-3 hot path (the shared [`nomad_core::FactorSlab`] arena,
//! [`nomad_core::queue::Inbox`] token queues, `sgd_pair_update` kernels),
//! and only the transport underneath it changes: tokens that leave a rank
//! travel as length-prefixed binary frames over `std::net` TCP, carrying
//! their factor row with them.
//!
//! Layers, bottom to top:
//!
//! * [`wire`] — the table-driven binary codec: framed messages, total
//!   decoding (garbage in, `WireError` out — never a panic), streamed on
//!   and off a socket without holding a frame whole.
//! * [`transport`] — the [`Transport`] trait (per-edge FIFO message
//!   passing between `ranks + 1` endpoints) and the in-memory
//!   [`Loopback`] mesh that makes the whole engine unit-testable without
//!   sockets.
//! * [`tcp`] — the same trait over real localhost sockets, with the
//!   Hello/Peers/PeerHello mesh handshake.
//! * [`rank`] — the per-rank engine: the untouched worker hot loop plus
//!   the communication thread (outbound batching, inbound injection,
//!   progress, quiesce).
//! * [`driver`] — scatter (shards + initial tokens via
//!   [`nomad_core::online::token_home`]), the drain clock, gather, and the
//!   token-conservation assertion ([`driver::run_driver`]); [`DistributedNomad`]'s
//!   one [`run`](DistributedNomad::run) starts a run in a [`Deployment`].
//! * [`launch`](mod@launch) — the one in-process launcher: rank threads
//!   (and mid-run joiners) over [`Loopback`] or TCP, the driver on the
//!   caller's thread, and a mesh that closes when the driver is done, so
//!   a failed driver releases its ranks at once.
//! * [`process`] — re-exec'd rank children ([`child_entry`]) for true
//!   address-space separation.
//! * [`chaos`] — deterministic fault injection ([`ChaosTransport`]):
//!   seeded crashes and partitions at the transport boundary, driving
//!   the fault-tolerance protocol (heartbeat detection, census-based
//!   eviction, token re-minting, shard takeover, mid-run joins) that
//!   [`rank`] and [`driver`] implement.
//! * [`serve_router`] — the resilient serving front-end: deadline-routed
//!   top-k queries over the training mesh, sent once per owning rank,
//!   with admission control and stale-replica failover during evictions
//!   (each rank runs a [`nomad_serve::SnapshotPublisher`] over its
//!   shard; the driver keeps a stale replica per rank for failover).
//!
//! The correctness anchor is the same one the threaded and simulated
//! engines carry: at one rank with a fixed seed, the engine reassembles a
//! `FactorModel` **bit-identical** to `SerialNomad` (asserted by the
//! integration tests and by the repo benchmark's checks), and at every
//! quiesce the token pass counts sum to the tickets drawn across all
//! ranks.

#![warn(missing_docs)]

pub mod chaos;
pub mod driver;
pub mod fuzz;
pub mod launch;
pub mod process;
pub mod rank;
pub mod serve_router;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosPlan, ChaosTransport};
pub use driver::{
    Deployment, DistOutput, DistributedNomad, NetConfig, NetStats, DEFAULT_HEARTBEAT_TIMEOUT_MS,
};
pub use fuzz::{
    fuzz_loopback, fuzz_loopback_chaos, fuzz_loopback_serving, NetChaosStats, NetFuzzStats,
    ServeChaosStats,
};
pub use launch::launch;
pub use process::{child_entry, CHILD_FAILURE_EXIT, DRIVER_ENV, RANK_ENV};
pub use rank::{join_rank, run_rank};
pub use serve_router::{Answer, RouterConfig, RouterStats, ServeError, ServeRouter};
pub use tcp::TcpTransport;
pub use transport::{Loopback, NetError, Transport, Waker};
pub use wire::{
    Message, ReplicaDeltaPayload, ReplicaPayload, SetupPayload, ShardPayload, ShardTransferPayload,
    TelemetryPayload, WireCols, WireDeltaRow, WireError, WireSegment, WireToken, QUERY_NOT_READY,
    QUERY_OK, QUERY_RUN_OVER, QUERY_UNKNOWN_USER,
};
