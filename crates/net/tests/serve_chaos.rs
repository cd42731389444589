//! Seeded chaos sweeps over the *serving* tier: kill or partition the
//! rank being queried mid-run and assert that every concurrent query
//! still resolves within its deadline.
//!
//! Own binary for the same reason as `chaos.rs`: the schedule controller
//! installs process-wide.
//!
//! Each case runs a 3-rank loopback mesh with per-rank snapshot
//! publishers and two query threads hammering the [`ServeRouter`] while
//! the seeded fault (`crash@<step>` / `partition@<step>`) takes out the
//! victim.  The oracles live in
//! [`fuzz_loopback_serving`](nomad_net::fuzz_loopback_serving): on top
//! of the usual chaos invariants (completion, conservation, crash ⇒
//! eviction), **no query may hang or time out** — a query whose owner
//! died must come back as a stale-replica failover with its staleness
//! bound, an explicit shed, or a run-over notice.  `NOMAD_FUZZ_SEEDS` sets
//! the seed count (default 4).  A failing case prints its replay command,
//! e.g. `NOMAD_FUZZ_REPLAY=crash@7@0x2 cargo test -p nomad-net --features
//! sched-fuzz --test serve_chaos`.
//!
//! [`ServeRouter`]: nomad_net::ServeRouter

use nomad_core::sched::{FuzzCase, FuzzTest, Strategy};
use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_matrix::RatingMatrix;
use nomad_net::{fuzz_loopback_serving, NetConfig};
use nomad_sgd::HyperParams;

fn tiny() -> RatingMatrix {
    named_dataset("netflix-sim", SizeTier::Tiny)
        .unwrap()
        .build()
        .matrix
}

/// Same substrate as the plain chaos family — small batches for fine
/// fault granularity, a short heartbeat so evictions (and therefore
/// failovers) happen well inside the query deadline — plus a publish
/// cadence fast enough that fresh answers exist within the first few
/// hundred updates.  Ranks answer through the approximate IVF shortlist
/// (`serve_nprobe`), so the sweep also pins that the approximate path —
/// index refresh across delta-published epochs included — never turns a
/// fault into a hang or a deadline miss.
fn serve_chaos_config(seed: u64) -> NetConfig {
    let nomad = NomadConfig::new(HyperParams::netflix().with_k(8))
        .with_stop(StopCondition::Updates(20_000))
        .with_seed(4242 ^ seed)
        .with_message_batch(4);
    let mut cfg = NetConfig::new(nomad);
    cfg.heartbeat_timeout_ms = 300;
    cfg.serve_publish_every = 500;
    cfg.serve_nprobe = 2;
    cfg
}

fn run_case(data: &RatingMatrix, case: FuzzCase) {
    let stats = fuzz_loopback_serving(data, &serve_chaos_config(case.seed), 3, 2, case)
        .unwrap_or_else(|f| panic!("{f}"));
    if matches!(case.strategy, Strategy::Crash(_)) {
        assert!(
            !stats.evicted.is_empty(),
            "{case}: crash case finished without an eviction"
        );
    }
    assert!(
        stats.queries.successes() > 0,
        "{case}: no query ever succeeded (stats: {:?})",
        stats.queries
    );
}

/// A crash and a partition for each seed of the sweep (or the one
/// replayed case).  The steps differ from the plain chaos family's so the
/// two sweeps explore different fault landing points; the victim still
/// derives from the seed, so queries for its users exercise the failover
/// path in every crash case.
#[test]
fn serving_chaos_seeds_resolve_every_query() {
    let data = tiny();
    for case in FuzzTest::ServeChaos.sweep(|seed| {
        [
            FuzzCase::new(seed, Strategy::Crash(3 + 11 * (seed % 5))),
            FuzzCase::new(seed, Strategy::Partition(2 + 5 * (seed % 6))),
        ]
    }) {
        run_case(&data, case);
    }
}
