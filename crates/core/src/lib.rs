//! NOMAD: Non-locking, stOchastic, Multi-machine, Asynchronous and
//! Decentralized matrix completion (Yun et al., VLDB 2014).
//!
//! This crate implements the paper's contribution itself.  The key idea
//! (Section 3): user factors `w_i` are statically partitioned across
//! workers and never move; item factors `h_j` are *nomadic* — each
//! `(j, h_j)` pair is owned by exactly one worker at any time, sits in that
//! worker's queue, is processed against the worker's locally stored ratings
//! `Ω̄_j^{(q)}` (owner-computes, hence no locks), and is then forwarded to
//! another worker chosen uniformly at random or by queue length (dynamic
//! load balancing, Section 3.3).  Because the variables a worker touches
//! are always exclusively owned, the resulting update sequence is
//! serializable: there is an equivalent serial ordering of the updates
//! (Section 1), which this crate's tests verify explicitly.
//!
//! The hop itself — pop a token, sweep the local column, pass it on
//! (Algorithm 1, lines 12–22) — is written once, in [`hop`], and scheduled
//! four ways.  Three of the schedulers live in this crate:
//!
//! * [`serial::SerialNomad`] — Algorithm 1 on one thread, `p` virtual
//!   workers taking turns; the ground truth for serializability tests.
//! * [`threaded::ThreadedNomad`] — a real multi-threaded implementation on
//!   `crossbeam` lock-free queues, one queue per worker thread, exactly as
//!   the paper's shared-memory implementation uses Intel TBB's concurrent
//!   queue (Section 3.5).  Its workers run [`hop::HopKernel::hop`].
//! * [`sim::SimNomad`] — a deterministic discrete-event implementation that
//!   runs the identical arithmetic on the cluster simulator from
//!   `nomad-cluster`, reproducing the multi-machine (Sections 5.3–5.5) and
//!   hybrid (Section 3.4) configurations: per-machine intra-circulation,
//!   two reserved communication threads, message batching (Section 3.5),
//!   and both uniform and load-balanced token routing.
//!
//! The fourth is the `nomad-net` rank worker — real processes over TCP —
//! running the same [`hop::HopKernel::hop`] over its own context.
//!
//! Every engine additionally has an **online mode** (`run_online`) that
//! accepts mid-run ingestion of new ratings, users and items from an
//! [`nomad_matrix::ArrivalTrace`]: new items mint fresh nomadic tokens, new
//! users extend the static partition, and the serializability invariant is
//! re-verified under arrivals — see [`online`].
//!
//! The serial and threaded engines (batch and online) also come in
//! `_serving` variants ([`SerialNomad::run_serving`],
//! [`ThreadedNomad::run_serving`], and their `run_online_serving`
//! counterparts) that publish epoch snapshots of the live model through a
//! `nomad_serve::SnapshotPublisher`, so top-k recommendation queries can be
//! answered concurrently with training — lock-free for the readers and
//! allocation-free for the trainers.

#![warn(missing_docs)]

pub mod config;
pub mod hop;
pub mod online;
pub mod routing;
pub mod sched;
pub mod serial;
pub mod sim;
pub mod slab;
pub mod telemetry;
pub mod threaded;
pub mod worker;

pub use config::{NomadConfig, StopCondition};
pub use online::{replay_online, token_home, OnlineOutput};
pub use routing::RoutingPolicy;
pub use sched::{FaultPlan, FuzzCase, FuzzController, ScheduleController, Strategy};
pub use serial::SerialNomad;
pub use sim::SimNomad;
pub use slab::FactorSlab;
pub use telemetry::EngineTelemetry;
pub use threaded::ThreadedNomad;
pub use worker::WorkerData;
