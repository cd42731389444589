//! Schedule-fuzzed exploration of the threaded engine.
//!
//! This is deliberately its own integration-test binary: the schedule
//! controller installs process-wide, so fuzz runs must not share a
//! process with unrelated engine tests (the turnstile would intercept
//! their workers too).  Within this binary, concurrent fuzz runs
//! serialize through the exclusive-install lock.
//!
//! Without `--features sched-fuzz` the hook call-sites are not compiled
//! and these runs are ordinary threaded runs — the invariant oracles
//! (conservation, serializability replay, p=1 bit-identity) still apply.
//! With the feature, the seeded turnstile additionally forces
//! adversarial interleavings and the slab ownership ledger arms.
//!
//! The sweep runs `NOMAD_FUZZ_SEEDS` seeds (default 4); a failing case
//! prints its replay command, e.g.
//! `NOMAD_FUZZ_REPLAY=pct@0x0 cargo test -p nomad-core --features sched-fuzz --test sched_fuzz`.

use nomad_core::sched::{fuzz_threaded, FaultPlan, FuzzCase, FuzzTest, Strategy};
use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_sgd::HyperParams;

fn tiny() -> (RatingMatrix, TripletMatrix) {
    let ds = named_dataset("netflix-sim", SizeTier::Tiny)
        .unwrap()
        .build();
    (ds.matrix, ds.test)
}

fn quick_config(k: usize, updates: u64) -> NomadConfig {
    NomadConfig::new(HyperParams::netflix().with_k(k))
        .with_stop(StopCondition::Updates(updates))
        .with_seed(33)
}

/// Every scheduling strategy for each seed of the sweep (or the one
/// replayed case), at three workers and at one worker; an oracle failure
/// panics with the command that replays it.
#[test]
fn fuzzed_schedules_hold_all_invariants() {
    let (data, test) = tiny();
    let every_strategy = |seed| Strategy::ALL.map(|s| FuzzCase::new(seed, s));
    let mut escapes = 0;
    for case in FuzzTest::CoreSchedule.sweep(every_strategy) {
        // Three workers: conservation + ledger + serializability replay.
        let cfg = quick_config(6, 8_000).with_seed(33 ^ case.seed);
        let stats = fuzz_threaded(&data, &test, cfg, 3, case, FaultPlan::default())
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.hops > 0, "{case}: no hops performed");
        escapes += stats.escapes;
        // One worker: p=1 bit-identity vs SerialNomad on top.
        let cfg1 = quick_config(6, 5_000).with_seed(33 ^ case.seed);
        fuzz_threaded(&data, &test, cfg1, 1, case, FaultPlan::default())
            .unwrap_or_else(|f| panic!("{f}"));
    }
    eprintln!("threaded schedule sweep: {escapes} turnstile escapes");
}

/// With the hooks compiled in, the controller genuinely observes and
/// orders the workers' hops (not just rides along).
#[cfg(feature = "sched-fuzz")]
#[test]
fn controller_steers_the_engine_when_hooks_are_compiled() {
    let (data, test) = tiny();
    let case = FuzzCase::new(5, Strategy::Pct);
    let stats = fuzz_threaded(
        &data,
        &test,
        quick_config(4, 6_000),
        2,
        case,
        FaultPlan::default(),
    )
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(
        stats.controlled_hops > 0,
        "hooks compiled in but the controller observed no hops"
    );
}
