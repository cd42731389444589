//! Schedule-fuzzed exploration of the distributed engine, plus the
//! drain-barrier straggler regression.
//!
//! Own integration-test binary on purpose: the schedule controller
//! installs process-wide, so fuzz runs must not share a process with the
//! other distributed tests.  Concurrent fuzz runs in this binary
//! serialize through the exclusive-install lock.
//!
//! The sweep runs in the default suite (the oracles — token conservation
//! at gather, budget completion, p=1 bit-identity — hold with or without
//! the hooks); under `--features sched-fuzz` the same seeds additionally
//! steer the rank workers and comm threads through adversarial
//! interleavings, and the mutation self-test proves the oracles catch a
//! deliberately-seeded ownership bug.  `NOMAD_FUZZ_SEEDS` sets the seed
//! count (default 4); a failing case prints its replay command, e.g.
//! `NOMAD_FUZZ_REPLAY=pct@0x0 cargo test -p nomad-net --features sched-fuzz --test sched_fuzz`.

use std::time::Duration;

use nomad_core::sched::{FaultPlan, FuzzCase, FuzzTest, Strategy};
use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_net::fuzz::fuzz_loopback;
use nomad_net::{launch, ChaosPlan, Loopback, NetConfig};
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
        .with_seed(77)
}

/// Every scheduling strategy for each seed of the sweep (or the one
/// replayed case): a 4-rank mesh checked for conservation and budget
/// completion, and a 1-rank mesh checked for bit-identity vs
/// `SerialNomad`.  Failures panic with the command that replays them.
#[test]
fn fuzzed_seeds_conserve_and_match_serial() {
    let (data, test) = tiny();
    let every_strategy = |seed| Strategy::ALL.map(|s| FuzzCase::new(seed, s));
    let mut escapes = 0;
    for case in FuzzTest::NetSchedule.sweep(every_strategy) {
        let cfg = quick_config(8, 6_000).with_seed(77 ^ case.seed);
        let stats = fuzz_loopback(&data, &test, cfg, 4, case, FaultPlan::default())
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(
            stats.updates >= 6_000,
            "{case}: budget not completed ({} updates)",
            stats.updates
        );
        escapes += stats.escapes;
        let cfg1 = quick_config(8, 4_000).with_seed(77 ^ case.seed);
        fuzz_loopback(&data, &test, cfg1, 1, case, FaultPlan::default())
            .unwrap_or_else(|f| panic!("{f}"));
    }
    eprintln!("loopback schedule sweep: {escapes} turnstile escapes");
}

/// Drain-barrier regression: one rank's comm thread is maximally delayed
/// (every send sleeps 2 ms), and quiesce must still
/// complete with the full budget — a *slow* rank, far under the default
/// heartbeat timeout, must never wedge the barrier or be evicted.
#[test]
fn drain_barrier_completes_with_a_maximally_delayed_comm_thread() {
    let (data, _test) = tiny();
    let cfg = NetConfig::new(quick_config(8, 5_000));
    // A 2ms send delay makes rank 1's comm thread the straggler on every
    // token batch, progress report and Fin.
    let slow = ChaosPlan::send_delay(Duration::from_millis(2));
    let started = std::time::Instant::now();
    let (driver, ranks) = launch(Loopback::mesh(2), &[], &data, &cfg, None, slow.on(1));
    let out = driver.expect("driver survives a straggler");
    let [fast_rank, slow_rank] = <[_; 2]>::try_from(ranks).unwrap();
    slow_rank.expect("slow rank run");
    fast_rank.expect("fast rank run");
    assert!(
        out.stats.updates >= 5_000,
        "straggler run must still complete the budget (got {})",
        out.stats.updates
    );
    // Generous bound: well under the driver's 600s deadline, far above
    // any sane straggler cost — catches a wedged barrier, not jitter.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "drain barrier took {:?} with a delayed comm thread",
        started.elapsed()
    );
}

/// The acceptance gate for the whole harness: a deliberately-seeded
/// ownership bug (skip one slab-row write before a queue push) is caught
/// by the oracles, the failure prints its `(seed, strategy)` pair, and
/// replaying that pair reproduces the same failure deterministically.
#[cfg(feature = "sched-fuzz")]
#[test]
fn seeded_ownership_mutation_is_caught_and_replays_deterministically() {
    let (data, test) = tiny();
    let case = FuzzCase::new(0, Strategy::Pct);
    let fault = FaultPlan {
        skip_inject_write_at: Some(2),
    };
    // One rank: the driver's initial scatter goes through the comm
    // inject path, so the skipped write leaves one item row zeroed and
    // p=1 bit-identity fails regardless of interleaving.
    let cfg = quick_config(8, 3_000);
    let failure = fuzz_loopback(&data, &test, cfg, 1, case, fault)
        .expect_err("skipping a slab-row write must be caught by the oracles");
    let report = failure.to_string();
    assert!(
        report.contains("NOMAD_FUZZ_REPLAY=pct@0x0"),
        "failure report must print the replay pair, got: {report}"
    );
    // Deterministic replay: the same (seed, strategy, fault) triple
    // reproduces the same failure.
    let again = fuzz_loopback(&data, &test, cfg, 1, case, fault)
        .expect_err("replaying the failing case must fail again");
    assert_eq!(failure, again, "replay diverged from the original failure");
}
