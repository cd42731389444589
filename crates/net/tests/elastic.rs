//! Elastic-membership regressions: mid-run joins, eviction of genuinely
//! dead ranks, and — just as important — *non*-eviction of ranks that
//! are merely slow.
//!
//! Everything runs on the loopback transport so the timing knobs are the
//! ones under test (heartbeat timeout vs. transport delay), not socket
//! jitter.  The timing-sensitive cases serialize through a file-local
//! mutex: they share one machine, and a sibling test hogging the cores
//! must not manufacture a false eviction.

use std::sync::Mutex;
use std::time::Duration;

use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_net::{launch, ChaosPlan, Deployment, DistributedNomad, Loopback, NetConfig};
use nomad_sgd::HyperParams;

/// Serializes the tests whose assertions depend on wall-clock margins.
static TIMING: Mutex<()> = Mutex::new(());

fn tiny() -> (RatingMatrix, TripletMatrix) {
    let ds = named_dataset("netflix-sim", SizeTier::Tiny)
        .unwrap()
        .build();
    (ds.matrix, ds.test)
}

fn quick_config(k: usize, updates: u64) -> NomadConfig {
    NomadConfig::new(HyperParams::netflix().with_k(k))
        .with_stop(StopCondition::Updates(updates))
        .with_seed(99)
}

/// A third rank joins a running 2-rank mesh: the driver rebalances user
/// rows onto it, routes it into the token flow, and the final model is
/// as good as a fixed 3-rank run's.
#[test]
fn a_rank_joining_mid_run_is_rebalanced_into_the_flow() {
    let _guard = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (data, test) = tiny();
    // A joiner arriving after drain is turned away cleanly, so wall-clock
    // speed decides whether a given budget outlives the join delay.
    // Start from a budget that comfortably outlives it on today's
    // hardware and escalate if the run outran the joiner anyway.
    let mut budget = 120_000;
    let out = loop {
        let mut cfg = NetConfig::new(quick_config(8, budget));
        cfg.initial_ranks = 2;
        let out = DistributedNomad::with_config(cfg, 3)
            .run(
                &data,
                Deployment::Loopback(&[(2, Duration::from_millis(20))]),
                None,
            )
            .expect("2-rank mesh must absorb a third rank mid-run");
        if !out.stats.joined.is_empty() {
            break out;
        }
        budget *= 4;
        assert!(
            budget <= 50_000_000,
            "joiner was never admitted even with a huge budget — \
             the join path is broken, not the timing"
        );
    };

    assert_eq!(
        out.stats.joined,
        vec![2],
        "the joiner must be admitted (got {:?})",
        out.stats.joined
    );
    assert!(out.stats.evicted.is_empty(), "nobody died in this run");
    assert!(
        out.stats.per_rank_tickets[2] > 0,
        "the joined rank must process tokens routed to it"
    );
    assert!(
        out.stats.per_rank_updates[2] > 0,
        "the joined rank must own rebalanced user rows and update them"
    );
    assert!(out.stats.updates >= budget);
    assert_eq!(out.model.num_users(), data.nrows());
    assert_eq!(out.model.num_items(), data.ncols());

    // Convergence parity with fixed membership: joining mid-run must not
    // cost model quality (the rebalanced rows carry their live factors).
    let fixed = DistributedNomad::new(quick_config(8, budget), 3)
        .run(&data, Deployment::Loopback(&[]), None)
        .expect("fixed 3-rank baseline");
    let rmse_join = nomad_sgd::rmse(&out.model, &test);
    let rmse_fixed = nomad_sgd::rmse(&fixed.model, &test);
    assert!(
        (rmse_join - rmse_fixed).abs() < 0.15,
        "join-run RMSE {rmse_join:.4} strayed from fixed-membership RMSE {rmse_fixed:.4}"
    );
}

/// A slow-but-alive rank — every send delayed, but far under the
/// heartbeat timeout — must never be evicted: slowness is not death.
#[test]
fn a_slow_rank_under_the_heartbeat_timeout_is_not_evicted() {
    let _guard = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (data, _test) = tiny();
    let budget = 6_000;
    let mut cfg = NetConfig::new(quick_config(8, budget));
    // 2ms per send vs a 500ms silence threshold: the idle-edge pings
    // (sent every timeout/4) alone keep the rank comfortably audible.
    cfg.heartbeat_timeout_ms = 500;
    let slow = ChaosPlan::send_delay(Duration::from_millis(2));
    let (driver, ranks) = launch(Loopback::mesh(2), &[], &data, &cfg, None, slow.on(1));
    let out = driver.expect("driver tolerates a slow rank");
    let [s, f] = <[_; 2]>::try_from(ranks).unwrap();
    s.expect("slow rank exits cleanly");
    f.expect("fast rank exits cleanly");
    assert!(
        out.stats.evicted.is_empty(),
        "a rank under the heartbeat timeout was falsely evicted: {:?}",
        out.stats.evicted
    );
    assert!(out.stats.updates >= budget);
}

/// The same slow rank with the delay far *over* the timeout is evicted —
/// and exits cleanly when the (delayed) eviction notice reaches it,
/// while the survivor absorbs its shard and finishes the budget alone.
#[test]
fn a_rank_over_the_heartbeat_timeout_is_evicted_and_survivors_finish() {
    let _guard = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (data, _test) = tiny();
    let budget = 3_000;
    // Large batches bound how many 800ms sends the victim performs
    // before it processes its eviction notice and exits.
    let mut cfg = NetConfig::new(quick_config(8, budget).with_message_batch(1024));
    // 800ms per send vs a 200ms threshold: the driver deterministically
    // declares rank 1 dead before its first frame ever lands.
    cfg.heartbeat_timeout_ms = 200;
    let slow = ChaosPlan::send_delay(Duration::from_millis(800));
    let (driver, ranks) = launch(Loopback::mesh(2), &[], &data, &cfg, None, slow.on(1));
    let out = driver.expect("driver completes with the survivor");
    let [f, s] = <[_; 2]>::try_from(ranks).unwrap();
    s.expect("the evicted rank exits cleanly on its eviction notice");
    f.expect("survivor exits cleanly");
    assert_eq!(
        out.stats.evicted,
        vec![1],
        "the over-timeout rank must be evicted (got {:?})",
        out.stats.evicted
    );
    assert!(
        out.stats.reminted > 0,
        "tokens homed on the evictee must be re-minted"
    );
    assert!(
        out.stats.updates >= budget,
        "the survivor must finish the budget alone (got {})",
        out.stats.updates
    );
    assert_eq!(out.model.num_users(), data.nrows());
    assert_eq!(out.model.num_items(), data.ncols());
}

/// A scripted in-memory kill (no process machinery): the victim's
/// endpoint dies at a fixed operation index, heartbeat silence convicts
/// it, and the 2 survivors conserve and converge.  The op index makes
/// the kill point deterministic even on loopback; when the driver
/// *notices* is not — the survivors can reach the budget inside the
/// heartbeat window — so the test reads the order of the driver's
/// `eviction` and `drain` events and holds each order to its promise:
///
/// * eviction first — the corpse's progress stopped counting
///   (`latest[dead] = 0`), so the survivors alone reach the budget;
/// * drain first — the budget was met counting the corpse's last
///   progress report, and its updates died with it.  Nothing is
///   re-minted after drain, so the run's total is what the survivors
///   did: at least what they had reported when the corpse was evicted.
#[test]
fn a_scripted_transport_kill_is_detected_and_survived() {
    let _guard = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (data, _test) = tiny();
    let budget = 9_000;
    // Batch size 4 multiplies the victim's transport-operation count, so
    // the scripted kill index lands solidly mid-run (a full quick run is
    // on the order of a hundred ops per endpoint — flushes coalesce).
    let mut cfg = NetConfig::new(quick_config(8, budget).with_message_batch(4));
    cfg.heartbeat_timeout_ms = 300;
    let victim = ChaosPlan::kill_at(40);
    let (driver, ranks) = launch(Loopback::mesh(3), &[], &data, &cfg, None, victim.on(1));
    let out = driver.expect("driver survives the scripted kill");
    let [a, v, b] = <[_; 3]>::try_from(ranks).unwrap();
    // The victim's endpoint reports Closed once killed — expected.
    v.expect_err("a killed endpoint cannot exit cleanly");
    a.expect("rank 0 exits cleanly");
    b.expect("rank 2 exits cleanly");
    assert_eq!(
        out.stats.evicted,
        vec![1],
        "the killed rank must be evicted (got {:?})",
        out.stats.evicted
    );
    assert_eq!(out.stats.per_rank_updates[1], 0, "a corpse ships no shard");
    let event = |kind: &str| {
        let found = out.stats.events.iter().enumerate().find_map(|(at, line)| {
            let mut words = line.split('@');
            (words.next() == Some(kind))
                .then(|| (at, words.nth(1).unwrap().parse::<u64>().unwrap()))
        });
        found.unwrap_or_else(|| panic!("no {kind} event in {:?}", out.stats.events))
    };
    let (evicted_at, survivors_clock) = event("eviction");
    let (drained_at, drain_clock) = event("drain");
    assert!(drain_clock >= budget, "drain fired below the budget");
    if evicted_at < drained_at {
        assert!(
            out.stats.updates >= budget,
            "evicted before drain: the survivors must finish the budget ({:?})",
            out.stats
        );
    } else {
        assert!(
            out.stats.updates >= survivors_clock,
            "evicted after drain: the survivors keep what they had reported ({:?})",
            out.stats
        );
    }
    assert_eq!(out.model.num_users(), data.nrows());
    assert_eq!(out.model.num_items(), data.ncols());
}

/// A join request for a slot that is not initially empty is a
/// construction error in the launcher (the driver itself rejects unknown
/// slots over the wire).
#[test]
#[should_panic(expected = "initially-empty mesh slot")]
fn joining_an_active_slot_is_rejected() {
    let (data, _test) = tiny();
    let cfg = NetConfig::new(quick_config(4, 1_000));
    let _ = DistributedNomad::with_config(cfg, 2).run(
        &data,
        Deployment::Loopback(&[(0, Duration::from_millis(1))]),
        None,
    );
}
