//! Discrete-event cluster simulation substrate.
//!
//! The paper's evaluation runs on two physical platforms we do not have —
//! a Stampede HPC cluster (32–64 nodes, MVAPICH2 over InfiniBand) and an
//! AWS commodity cluster (m1.xlarge, ~1 Gb/s Ethernet).  Following the
//! substitution policy in `DESIGN.md`, every *distributed-memory*
//! experiment in this workspace runs on the simulator built from the
//! primitives in this crate: algorithms execute their real floating-point
//! arithmetic, while the time axis is a deterministic virtual clock driven
//! by two cost models that correspond exactly to the constants `a`
//! (seconds per SGD update, Section 3.2) and `c` (seconds to communicate a
//! `(j, h_j)` pair) of the paper's own complexity analysis.
//!
//! What this crate provides:
//!
//! * [`SimTime`] — virtual time,
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   (ties broken by insertion sequence, so identical seeds give identical
//!   traces),
//! * [`ComputeModel`] — per-update compute cost,
//! * [`NetworkModel`] — latency/bandwidth message cost, with presets for
//!   the HPC interconnect, the 1 Gb/s commodity network and intra-machine
//!   (shared-memory) transfers,
//! * [`ClusterTopology`] — machines × threads and the worker/machine
//!   mapping, including how many threads per machine do computation versus
//!   communication (NOMAD and DSGD++ reserve two threads for networking;
//!   Section 5.4),
//! * [`SimMetrics`] — counters (updates, messages, bytes, busy time) from
//!   which the throughput figures of the paper (updates/core/sec) are
//!   derived.

#![warn(missing_docs)]

pub mod compute;
pub mod event;
pub mod metrics;
pub mod network;
pub mod time;
pub mod topology;
pub mod trace;

pub use compute::ComputeModel;
pub use event::{EventQueue, QueuedEvent};
pub use metrics::SimMetrics;
pub use network::NetworkModel;
pub use time::SimTime;
pub use topology::{ClusterTopology, WorkerId};
pub use trace::{RunTrace, TracePoint};
