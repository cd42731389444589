//! The schedule-fuzz harness for the threaded engine: run one seeded
//! case, then re-check every invariant oracle.
//!
//! Oracles per schedule:
//!
//! * **Token conservation** — `gather_items` asserts every item is in
//!   exactly one queue at quiesce and that per-item pass counts sum to
//!   the ticket counter; an interleaving that loses or duplicates a
//!   token panics there, which the harness catches and converts into a
//!   replayable [`FuzzFailure`].
//! * **Single ownership** — under `--features sched-fuzz` the
//!   [`crate::FactorSlab`] ownership ledger panics the moment two
//!   workers hold the same row between hand-offs.
//! * **Serializability** — the recorded schedule is replayed serially
//!   through [`crate::serial::replay_schedule`]; the factors must match
//!   bit for bit.
//! * **p=1 bit-identity** — at one worker the engine must equal
//!   [`crate::SerialNomad`] exactly, whatever the controller did to the
//!   timing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nomad_cluster::ComputeModel;
use nomad_matrix::{RatingMatrix, RowPartition, TripletMatrix};

use super::controller::install;
use super::strategy::{FaultPlan, FuzzCase, FuzzController};
use super::sweep::FuzzTest;
use crate::config::NomadConfig;
use crate::serial::{replay_schedule, SerialNomad};
use crate::threaded::ThreadedNomad;

/// A schedule that violated an invariant, with everything needed to
/// replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The test whose harness found it, which replays it.
    pub test: FuzzTest,
    /// The `(seed, strategy)` pair that deterministically replays the
    /// failing schedule.
    pub case: FuzzCase,
    /// Which oracle fired, or the engine's panic message.
    pub reason: String,
}

impl FuzzFailure {
    /// A failure from an oracle's own description.
    pub fn new(test: FuzzTest, case: FuzzCase, reason: impl Into<String>) -> Self {
        Self {
            test,
            case,
            reason: reason.into(),
        }
    }

    /// A failure from a caught panic payload (conservation asserts,
    /// ownership-ledger violations, poisoned engine internals).
    pub fn from_panic(
        test: FuzzTest,
        case: FuzzCase,
        payload: Box<dyn std::any::Any + Send>,
    ) -> Self {
        let reason = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked with a non-string payload".to_string());
        Self::new(test, case, format!("engine panicked: {reason}"))
    }
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fuzz failure (replay with {}): {}",
            self.test.replay(self.case),
            self.reason
        )
    }
}

impl std::error::Error for FuzzFailure {}

/// What a surviving schedule looked like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzStats {
    /// Tokens processed by the engine (hops).
    pub hops: u64,
    /// Hops observed through the controller hooks — `0` when the
    /// `sched-fuzz` feature is off at the engine's call-sites.
    pub controlled_hops: u64,
    /// Liveness escapes the turnstile took (non-zero weakens replay
    /// determinism; see [`FuzzController::escapes`]).
    pub escapes: u64,
}

/// Runs [`ThreadedNomad`] under the seeded controller for `case` and
/// re-checks the invariant oracles; `Err` carries the replay pair for
/// [`FuzzTest::CoreSchedule`].
///
/// Serializability is checked whenever `cfg` records its schedule, and
/// p=1 bit-identity vs [`SerialNomad`] whenever `workers == 1`.
pub fn fuzz_threaded(
    data: &RatingMatrix,
    test: &TripletMatrix,
    cfg: NomadConfig,
    workers: usize,
    case: FuzzCase,
    fault: FaultPlan,
) -> Result<FuzzStats, FuzzFailure> {
    let controller = Arc::new(FuzzController::new(case, fault));
    let installed = install(controller.clone());
    let run = catch_unwind(AssertUnwindSafe(|| {
        ThreadedNomad::new(cfg).run(data, test, workers, 1)
    }));
    drop(installed);
    let fail = |reason: &str| FuzzFailure::new(FuzzTest::CoreSchedule, case, reason);
    let out = match run {
        Ok(out) => out,
        Err(payload) => {
            return Err(FuzzFailure::from_panic(
                FuzzTest::CoreSchedule,
                case,
                payload,
            ))
        }
    };

    if cfg.record_schedule {
        let partition = RowPartition::contiguous(data.nrows(), workers);
        let replayed = replay_schedule(data, &partition, cfg.params, cfg.seed, &out.schedule);
        if replayed != out.model {
            return Err(fail(
                "serializability violated: replaying the recorded schedule serially \
                 diverged from the threaded factors",
            ));
        }
    }

    if workers == 1 {
        let (serial, _) = SerialNomad::new(cfg).run(data, test, 1, &ComputeModel::hpc_core());
        if serial != out.model {
            return Err(fail(
                "p=1 bit-identity violated: one controlled worker diverged from SerialNomad",
            ));
        }
    }

    Ok(FuzzStats {
        hops: out.trace.metrics.tokens_processed,
        controlled_hops: controller.hops(),
        escapes: controller.escapes(),
    })
}
