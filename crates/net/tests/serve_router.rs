//! Serving-router margin regressions over the real engine, mirroring
//! `elastic.rs`: deadlines comfortably *under* the mesh's answer latency
//! must produce prompt, explicit timeouts, and deadlines comfortably
//! *over* it must produce zero — slow is not the same as failed, in both
//! directions.
//!
//! The timing-sensitive cases serialize through a file-local mutex: they
//! share one machine, and a sibling test hogging the cores must not
//! manufacture a false timeout.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_matrix::RatingMatrix;
use nomad_net::{
    launch, Answer, ChaosPlan, Deployment, DistributedNomad, Loopback, NetConfig, RouterConfig,
    ServeError, ServeRouter,
};
use nomad_sgd::HyperParams;
use nomad_telemetry::names;

/// Serializes the tests whose assertions depend on wall-clock margins.
static TIMING: Mutex<()> = Mutex::new(());

fn tiny() -> RatingMatrix {
    named_dataset("netflix-sim", SizeTier::Tiny)
        .unwrap()
        .build()
        .matrix
}

fn serving_config(updates: u64, publish_every: u64) -> NetConfig {
    let nomad = NomadConfig::new(HyperParams::netflix().with_k(8))
        .with_stop(StopCondition::Updates(updates))
        .with_seed(99);
    let mut cfg = NetConfig::new(nomad);
    cfg.serve_publish_every = publish_every;
    cfg
}

/// Under-deadline margin: with a deadline orders of magnitude above the
/// loopback answer latency, a healthy 2-rank mesh never times out, never
/// fails over for an in-range user, and eventually serves *fresh*
/// snapshot answers; after the run every query resolves instantly as
/// run-over — the terminal "use the gathered model" response, not an
/// error.
#[test]
fn a_generous_deadline_never_times_out_and_goes_fresh() {
    let _guard = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let data = tiny();
    let router = ServeRouter::new(RouterConfig {
        deadline: Duration::from_secs(20),
        ..RouterConfig::default()
    });
    let engine = DistributedNomad::with_config(serving_config(60_000, 300), 2);
    let nrows = data.nrows() as u32;
    let out = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut user = 0u32;
            let mut answers = 0u64;
            loop {
                match router.query(user, 5, vec![]) {
                    Ok(Answer::RunOver) => return answers,
                    Ok(_) => answers += 1,
                    Err(ServeError::Shed { .. }) => {}
                    Err(e) => panic!("healthy mesh failed a query: {e}"),
                }
                user = (user + 1) % nrows;
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = engine
            .run(&data, Deployment::Loopback(&[]), Some(&router))
            .expect("serving run completes");
        let answers = handle.join().expect("query thread");
        assert!(answers > 0, "the query thread must get real answers");
        out
    });
    let stats = router.stats();
    assert_eq!(stats.timeout, 0, "no timeouts under a 20s deadline");
    assert_eq!(stats.failover, 0, "every queried user is in range");
    assert!(
        stats.fresh > 0,
        "publishes must eventually produce fresh answers (stats: {stats:?})"
    );
    // Post-run queries terminate immediately with the run-over notice.
    let before = Instant::now();
    assert_eq!(router.query(0, 5, vec![]).unwrap(), Answer::RunOver);
    assert!(before.elapsed() < Duration::from_millis(100));
    // Satellite freshness: the final progress reports carried finite
    // staleness once ranks were publishing.
    assert!(
        out.stats.max_staleness < u64::MAX,
        "fleet staleness must be reported once serving is on"
    );
    assert!(out.stats.max_publish_gap > 0);
    // Stage attribution: every answered query waited for admission exactly
    // once (router scope), and every fresh answer was timed on its rank —
    // the rank histogram rides the telemetry frames into the fleet fold.
    let answered = stats.fresh + stats.stale;
    let admitted = router
        .telemetry()
        .histogram(names::SERVE_ADMISSION_WAIT_US)
        .map_or(0, |h| h.count);
    assert!(
        (answered..=stats.submitted).contains(&admitted),
        "{admitted} admission samples for {answered} answers of {} submitted",
        stats.submitted
    );
    let served = out
        .stats
        .telemetry()
        .histogram(names::SERVE_RANK_SERVICE_US)
        .map_or(0, |h| h.count);
    assert!(
        served >= stats.fresh,
        "{served} rank-service samples for {} fresh answers",
        stats.fresh
    );
}

/// Over-deadline margin: queries against a rank whose *sends* (so its
/// replies, but also its replica publishes) crawl at 60ms — far over the
/// 5ms deadline — must resolve as explicit timeouts, promptly; an
/// undersized deadline must never hang a caller.  Queries answered from
/// the driver-held replica (before the first publish lands) stay
/// successes: the replica lives with the driver, no slow hop involved.
#[test]
fn an_undersized_deadline_times_out_promptly_instead_of_hanging() {
    let _guard = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let data = tiny();
    let deadline = Duration::from_millis(5);
    let router = ServeRouter::new(RouterConfig {
        deadline,
        ..RouterConfig::default()
    });
    let cfg = serving_config(20_000, 200);
    let nrows = data.nrows() as u32;
    let slow = ChaosPlan::send_delay(Duration::from_millis(60));
    std::thread::scope(|scope| {
        let queries = scope.spawn(|| {
            let mut slowest = Duration::ZERO;
            let mut timeouts = 0u64;
            let mut user = 0u32;
            loop {
                let asked = Instant::now();
                let res = router.query(user, 5, vec![]);
                slowest = slowest.max(asked.elapsed());
                match res {
                    Ok(Answer::RunOver) => return (slowest, timeouts),
                    Ok(_) => {}
                    Err(ServeError::Timeout { .. }) => timeouts += 1,
                    Err(ServeError::Shed { .. }) => {}
                    Err(e) => panic!("unexpected failure: {e}"),
                }
                user = (user + 1) % nrows;
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let (driver, ranks) = launch(
            Loopback::mesh(1),
            &[],
            &data,
            &cfg,
            Some(&router),
            slow.on(0),
        );
        driver.expect("driver completes");
        let [rank] = <[_; 1]>::try_from(ranks).unwrap();
        rank.expect("rank exits cleanly");
        let (slowest, timeouts) = queries.join().expect("query thread");
        assert!(
            timeouts > 0,
            "a 60ms reply path under a 5ms deadline must produce timeouts \
             (stats: {:?})",
            router.stats()
        );
        // Deadline + generous scheduler slack: the promptness bound that
        // makes a timeout different from a hang.
        assert!(
            slowest < deadline + Duration::from_secs(2),
            "a timed-out query took {slowest:?} to resolve"
        );
    });
}

/// A mid-run joiner is only routed to after its first snapshot publish —
/// until then its users are answered from the replica — so a join during
/// a query storm must not produce a single timeout, failover, or hang.
#[test]
fn a_mid_run_joiner_enters_serving_without_disturbing_queries() {
    let _guard = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let data = tiny();
    let router = ServeRouter::new(RouterConfig {
        deadline: Duration::from_secs(20),
        ..RouterConfig::default()
    });
    let mut cfg = serving_config(150_000, 300);
    cfg.initial_ranks = 2;
    let engine = DistributedNomad::with_config(cfg, 3);
    let nrows = data.nrows() as u32;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut user = 0u32;
            loop {
                match router.query(user, 5, vec![user % 7]) {
                    Ok(Answer::RunOver) => return,
                    Ok(_) => {}
                    Err(ServeError::Shed { .. }) => {}
                    Err(e) => panic!("join storm failed a query: {e}"),
                }
                user = (user + 1) % nrows;
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Whether the joiner lands before drain is wall-clock dependent
        // (and a turned-away joiner is a clean outcome); the assertion
        // here is purely that queries never degrade to errors.
        engine
            .run(
                &data,
                Deployment::Loopback(&[(2, Duration::from_millis(20))]),
                Some(&router),
            )
            .expect("serving run with a joiner completes");
        handle.join().expect("query thread");
    });
    let stats = router.stats();
    assert_eq!(
        stats.timeout, 0,
        "join must not cost queries (stats: {stats:?})"
    );
    assert_eq!(stats.failover, 0);
    assert!(stats.successes() > 0);
}
