//! Idle-worker regressions.  A worker with no token waits on its queue, so
//! every event that needs it — the end of a threaded round, a rank's
//! drain, a census park — must wake it.  A lost wake leaves a thread
//! waiting forever; each run here is watched, so that shows up as a
//! failure instead of a hung suite.
//!
//! Every run has more workers than items, so at any instant some worker
//! holds no token.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use nomad_core::{NomadConfig, StopCondition, ThreadedNomad};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_net::driver::run_driver;
use nomad_net::rank::run_rank;
use nomad_net::{ChaosPlan, ChaosTransport, DistributedNomad, Loopback, NetConfig};
use nomad_sgd::HyperParams;
use nomad_telemetry::names;

/// Runs `run` on its own thread and fails if it is still running after
/// thirty seconds.
fn watched<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    let limit = Duration::from_secs(30);
    let (done, finished) = channel();
    let handle = std::thread::spawn(move || {
        let out = run();
        let _ = done.send(());
        out
    });
    if finished.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
        panic!("still running after {limit:?}: a wake was lost");
    }
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// `users` users who rate both of 2 items.
fn two_items(users: u32) -> TripletMatrix {
    let mut t = TripletMatrix::new(users as usize, 2);
    for i in 0..users {
        t.push(i, 0, 1.0 + f64::from(i % 5));
        t.push(i, 1, 5.0 - f64::from(i % 3));
    }
    t
}

fn config(seed: u64) -> NomadConfig {
    NomadConfig::new(HyperParams::netflix().with_k(4))
        .with_stop(StopCondition::Updates(6_000))
        .with_seed(seed)
}

/// Four threaded workers over two items: every round ends only if the
/// worker that raises the stop flag wakes the ones waiting on empty
/// queues.
#[test]
fn idle_workers_are_woken_when_a_round_ends() {
    let out = watched(|| {
        let t = two_items(8);
        let data = RatingMatrix::from_triplets(&t);
        ThreadedNomad::new(config(33)).run(&data, &t, 4, 4)
    });
    assert_eq!(out.trace.points.len(), 4, "one point per round");
    assert!(out.trace.metrics.updates >= 6_000);
}

/// Three ranks over two items: an idle rank's comm thread joins its
/// worker on `Drain`, and only the drain's wake gets the worker out of its
/// queue wait.  The driver asserts token conservation at gather.
#[test]
fn a_rank_without_tokens_is_woken_to_drain() {
    for seed in 0..3 {
        let data = RatingMatrix::from_triplets(&two_items(30));
        let out = watched(move || DistributedNomad::new(config(seed), 3).run_loopback(&data))
            .expect("drains and gathers");
        assert!(out.stats.updates >= 6_000);
        assert_eq!(out.model.num_items(), 2);
        // The rank-side counter of batches re-injected after a failed send
        // is `net.recovered_batches`; nothing a rank reports is a retry.
        for snap in out.stats.rank_telemetry.iter().flatten() {
            assert_eq!(snap.counter(names::RECOVERED_BATCHES), Some(0));
            assert!(snap
                .counters
                .iter()
                .all(|(name, _)| !name.contains("retries")));
        }
    }
}

/// Rank 1 dies on its first transport operation.  The survivors route the
/// tokens homed elsewhere into the corpse until neither holds one, so both
/// workers wait idle when the eviction census parks them: the park request
/// must wake them to acknowledge, and `Reconfigure` to resume.
#[test]
fn a_survivor_parked_idle_completes_its_census() {
    let (out, [first, victim, last]) = watched(|| {
        let mut cfg = NetConfig::new(config(5));
        cfg.heartbeat_timeout_ms = 300;
        let (driver, mut endpoints) = Loopback::mesh(3);
        let ep2 = endpoints.pop().expect("rank 2");
        let plan = ChaosPlan {
            kill_at: Some(0),
            ..ChaosPlan::default()
        };
        let victim = ChaosTransport::scripted(endpoints.pop().expect("rank 1"), plan);
        let ep0 = endpoints.pop().expect("rank 0");
        std::thread::scope(|scope| {
            let ranks = [
                scope.spawn(|| run_rank(&ep0)),
                scope.spawn(|| run_rank(&victim)),
                scope.spawn(|| run_rank(&ep2)),
            ];
            let out = run_driver(&driver, &RatingMatrix::from_triplets(&two_items(30)), &cfg);
            (
                out,
                ranks.map(|rank| rank.join().expect("rank thread panicked")),
            )
        })
    });
    let out = out.expect("the survivors finish the run");
    assert!(victim.is_err(), "a killed endpoint cannot exit cleanly");
    first.expect("rank 0 exits cleanly");
    last.expect("rank 2 exits cleanly");
    assert_eq!(out.stats.evicted, vec![1]);
    assert!(out.stats.reminted > 0, "the corpse's tokens are re-minted");
    assert!(out.stats.updates >= 6_000);
}
