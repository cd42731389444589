//! Serving-over-processes smoke: real re-exec'd rank children answer
//! top-k queries while training, one child dies mid-queries, and not a
//! single query is left hanging.
//!
//! `harness = false` for the same reason as `fault.rs`:
//! [`nomad_net::child_entry`] must be the first call in `main`, because
//! [`Deployment::Processes`] re-execs *this* binary
//! once per rank.
//!
//! The contract under test is the router's no-hang guarantee over real
//! address spaces: a query whose owning process aborted must come back
//! as a stale-replica failover (the replica lives with the driver, in
//! the parent), a shed, or a run-over notice — never a transport error
//! and never a wait past the deadline.  After the run, queries resolve
//! instantly as run-over.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_net::{
    Answer, Deployment, DistributedNomad, NetConfig, RouterConfig, ServeError, ServeRouter,
};
use nomad_sgd::HyperParams;

fn main() {
    // Rank children divert here and never return.
    nomad_net::child_entry();

    let ds = named_dataset("netflix-sim", SizeTier::Tiny)
        .expect("netflix-sim is always registered")
        .build();
    let budget = 40_000;
    let nomad = NomadConfig::new(HyperParams::netflix().with_k(8))
        .with_stop(StopCondition::Updates(budget))
        .with_seed(777);
    let mut cfg = NetConfig::new(nomad);
    cfg.serve_publish_every = 500;
    // Rank 1 aborts its whole process mid-epoch, while the query threads
    // below are live: the closest portable stand-in for SIGKILLing a
    // serving replica.
    cfg.abort_rank = Some(1);
    cfg.abort_after_updates = 3_000;

    let router = ServeRouter::new(RouterConfig {
        // Generous: TCP EOF makes eviction prompt, so queries aimed at
        // the corpse re-route to the stale replica well inside this.
        deadline: Duration::from_secs(10),
        ..RouterConfig::default()
    });
    let nrows = ds.matrix.nrows() as u32;
    let answered = AtomicU64::new(0);

    let started = Instant::now();
    let out = std::thread::scope(|scope| {
        for t in 0..2u32 {
            let router = &router;
            let answered = &answered;
            scope.spawn(move || {
                let mut user = (t * 7919) % nrows;
                loop {
                    match router.query(user, 5, vec![]) {
                        Ok(Answer::RunOver) => return,
                        Ok(_) => {
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Shed { .. }) => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) => panic!("query hung or failed across the kill: {e}"),
                    }
                    user = (user + 1) % nrows;
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        DistributedNomad::with_config(cfg, 2)
            .run(&ds.matrix, Deployment::Processes, Some(&router))
            .expect("2-rank serving run must survive one child dying mid-queries")
        // Scope exit joins the query threads: they terminate on the
        // RunOver the driver's finish() broadcast.
    });

    assert_eq!(
        out.stats.evicted,
        vec![1],
        "exactly the aborted child must be evicted (got {:?})",
        out.stats.evicted
    );
    assert!(
        out.stats.updates >= budget,
        "the survivor must still complete the {budget}-update budget (got {})",
        out.stats.updates
    );
    let stats = router.stats();
    assert_eq!(
        stats.resolved(),
        stats.submitted,
        "every query must resolve — zero hung queries (stats: {stats:?})"
    );
    assert!(
        answered.load(Ordering::Relaxed) > 0,
        "the query threads must get real answers across the kill (stats: {stats:?})"
    );
    assert_eq!(
        stats.timeout, 0,
        "no timeouts under a 10s deadline (stats: {stats:?})"
    );
    // Post-run queries terminate immediately.
    let before = Instant::now();
    assert!(matches!(router.query(0, 5, vec![]), Ok(Answer::RunOver)));
    assert!(before.elapsed() < Duration::from_millis(100));

    eprintln!(
        "serving smoke passed: child 1 aborted mid-queries, {} updates, \
         {} queries resolved ({} fresh / {} stale / {} run-over / {} shed), {:?}",
        out.stats.updates,
        stats.resolved(),
        stats.fresh,
        stats.stale,
        stats.run_over,
        stats.shed,
        started.elapsed()
    );
}
