//! Deterministic schedule exploration for the concurrent engines.
//!
//! The paper's correctness story rests on one invariant: a `(j, h_j)`
//! token lives in exactly one queue at a time, so every interleaving of
//! owner-computes updates is serializable (Section 1).  Ordinary tests
//! only exercise the handful of schedules the OS scheduler happens to
//! produce; this module makes the schedule itself an input.
//!
//! The pieces:
//!
//! * [`ScheduleController`] — a trait with injection points in the
//!   threaded worker loop and the `nomad-net` comm path.  The hook
//!   *call-sites* are compiled only under the `sched-fuzz` feature, so
//!   the zero-allocation hot path is untouched in normal builds
//!   (re-proven by `tests/alloc_free.rs`); the types here always
//!   compile, so harnesses and tests build either way.
//! * [`FuzzController`] — the seeded adversarial implementation: a
//!   turn-taking scheduler that pauses workers at hop boundaries and
//!   grants turns by strategy ([`Strategy::Pct`] random priorities,
//!   [`Strategy::Starve`] round-robin starvation, [`Strategy::Burst`]
//!   burst/delay patterns), plus routing bias and comm-thread delays.
//!   Every explored schedule is replayable from its [`FuzzCase`]
//!   `(seed, strategy)` pair, printed on failure.
//! * [`harness::fuzz_threaded`] — runs [`crate::ThreadedNomad`] under a
//!   controller and re-checks the invariant oracles per schedule: token
//!   conservation, single ownership (the [`crate::FactorSlab`] ledger),
//!   p=1 bit-identity vs [`crate::SerialNomad`], and serializability of
//!   the recorded schedule.
//! * [`FuzzTest`] — the one case source of the four fuzz test binaries:
//!   a seed sweep (`NOMAD_FUZZ_SEEDS`) or one replayed case
//!   (`NOMAD_FUZZ_REPLAY`), and the command that replays a failure.

pub mod controller;
pub mod harness;
pub mod strategy;
pub mod sweep;

pub use controller::{hooks, install, Installed, ScheduleController, TransportFault};
pub use harness::{fuzz_threaded, FuzzFailure, FuzzStats};
pub use strategy::{FaultPlan, FuzzCase, FuzzController, Strategy, DEFAULT_PARTITION_OPS};
pub use sweep::{FuzzTest, DEFAULT_SEEDS};
