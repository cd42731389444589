//! Seeded chaos sweeps over the distributed engine: scripted crashes and
//! partitions at the transport boundary, on the sched-fuzz substrate.
//!
//! Own binary for the same reason as `sched_fuzz.rs`: the schedule
//! controller installs process-wide, so chaos cases must not share a
//! process with the other distributed tests.
//!
//! Every case is a [`FuzzCase`] whose strategy is `crash@<step>` or
//! `partition@<step>`: the victim (derived from the seed) loses its
//! endpoint at transport-operation `step` — killed outright, or
//! partitioned for a window and healed.  The oracles live in
//! [`fuzz_loopback_chaos`]: completion of the full budget, token
//! conservation at gather (pass-debt accounting), eviction of crashed
//! victims, and clean exits for every survivor.  `NOMAD_FUZZ_SEEDS` sets
//! the seed count (default 4).  A failing case prints its replay command,
//! e.g. `NOMAD_FUZZ_REPLAY=crash@7@0x2 cargo test -p nomad-net --features
//! sched-fuzz --test chaos`.
//!
//! Fault steps are kept small on purpose: flushes coalesce aggressively,
//! so a full quick run is on the order of a hundred transport operations
//! per endpoint — a two-digit step lands mid-run on any machine, and the
//! earliest steps kill a victim before it has processed a single token
//! (the takeover-everything edge case).

use nomad_core::sched::{FuzzCase, FuzzTest, Strategy};
use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_matrix::RatingMatrix;
use nomad_net::{fuzz_loopback_chaos, NetConfig};
use nomad_sgd::HyperParams;
use nomad_telemetry::names;

fn tiny() -> RatingMatrix {
    named_dataset("netflix-sim", SizeTier::Tiny)
        .unwrap()
        .build()
        .matrix
}

/// The chaos run configuration: small batches multiply the transport-op
/// count (finer fault granularity), and a short heartbeat timeout keeps
/// eviction — and therefore the sweep — fast.
fn chaos_config(seed: u64) -> NetConfig {
    let nomad = NomadConfig::new(HyperParams::netflix().with_k(8))
        .with_stop(StopCondition::Updates(8_000))
        .with_seed(99 ^ seed)
        .with_message_batch(4);
    let mut cfg = NetConfig::new(nomad);
    cfg.heartbeat_timeout_ms = 300;
    cfg
}

fn run_case(data: &RatingMatrix, case: FuzzCase) {
    let stats = fuzz_loopback_chaos(data, &chaos_config(case.seed), 3, case)
        .unwrap_or_else(|f| panic!("{f}"));
    if matches!(case.strategy, Strategy::Crash(_)) {
        assert!(
            !stats.evicted.is_empty(),
            "{case}: crash case finished without an eviction"
        );
    }
    // Exactly-once telemetry fold: [`fuzz_loopback_chaos`] already
    // asserted that the fleet's `engine.updates` equals the survivors'
    // gather total plus the evicted ranks' frozen reports (counted once,
    // never twice); re-check the eviction counter against the gather
    // list here so the sweep fails loudly if the oracles drift apart.
    assert_eq!(
        stats.fleet.counter(names::EVICTIONS),
        Some(stats.evicted.len() as u64),
        "{case}: fleet eviction counter disagrees with the gather list"
    );
    assert!(
        stats.fleet.counter(names::UPDATES).unwrap_or(0) >= stats.updates,
        "{case}: fleet updates lost survivors' final telemetry frames"
    );
}

/// A crash and a partition for each seed of the sweep (or the one
/// replayed case).  The crash and partition steps vary with the seed so
/// the sweep covers pre-token deaths, mid-run deaths, and partitions that
/// the victim may or may not survive (both outcomes must conserve).
#[test]
fn chaos_seeds_conserve_and_complete() {
    let data = tiny();
    for case in FuzzTest::Chaos.sweep(|seed| {
        [
            FuzzCase::new(seed, Strategy::Crash(2 + 9 * (seed % 5))),
            FuzzCase::new(seed, Strategy::Partition(1 + 7 * (seed % 6))),
        ]
    }) {
        run_case(&data, case);
    }
}
