//! Schedule-fuzz harness for the distributed engine over
//! [`Loopback`].
//!
//! The counterpart of `nomad_core::sched::fuzz_threaded` for real
//! multi-rank runs: install the seeded [`FuzzController`] for a
//! [`FuzzCase`], run [`DistributedNomad::run_loopback`] under it, and
//! convert every violated invariant into a replayable
//! [`FuzzFailure`].  The oracles:
//!
//! * **Token conservation at gather** — the driver's `assemble_model`
//!   asserts every item arrived in exactly one shard and that pass
//!   counts sum to the tickets drawn across all ranks; a violation
//!   panics, which the harness catches.
//! * **Single ownership** — under `--features sched-fuzz` the slab
//!   ledger panics if the comm thread injects a row a worker still
//!   holds (or vice versa).
//! * **p=1 bit-identity** — at one rank the distributed engine must
//!   reproduce [`SerialNomad`] exactly, so a lost or torn factor row
//!   (e.g. the seeded [`FaultPlan`] mutation that skips one slab-row
//!   write before a queue push) is caught deterministically.
//!
//! This module compiles without the `sched-fuzz` feature — the
//! controller simply has no hook call-sites to bite on, so the run is
//! an ordinary loopback run with the same oracles applied.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nomad_cluster::ComputeModel;
use nomad_core::sched::{
    install, FaultPlan, FuzzCase, FuzzController, FuzzFailure, FuzzTest, Strategy,
};
use nomad_core::{NomadConfig, SerialNomad};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_telemetry::{names, TelemetrySnapshot};

use crate::chaos::ChaosTransport;
use crate::driver::{run_driver, run_driver_serving, DistributedNomad, NetConfig};
use crate::serve_router::{Answer, RouterConfig, RouterStats, ServeError, ServeRouter};
use crate::transport::{Loopback, NetError};

/// What a surviving distributed schedule looked like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFuzzStats {
    /// Updates performed across all ranks.
    pub updates: u64,
    /// Liveness escapes the turnstile took (see
    /// [`FuzzController::escapes`]).
    pub escapes: u64,
}

/// Runs a `ranks`-rank loopback mesh under the seeded controller for
/// `case` and re-checks the invariant oracles; `Err` names the
/// `--test sched_fuzz` command that replays the case.
///
/// p=1 bit-identity vs [`SerialNomad`] is checked whenever
/// `ranks == 1`; conservation is checked at every gather.
pub fn fuzz_loopback(
    data: &RatingMatrix,
    test: &TripletMatrix,
    cfg: NomadConfig,
    ranks: usize,
    case: FuzzCase,
    fault: FaultPlan,
) -> Result<NetFuzzStats, FuzzFailure> {
    let controller = Arc::new(FuzzController::new(case, fault));
    let installed = install(controller.clone());
    let run = catch_unwind(AssertUnwindSafe(|| {
        DistributedNomad::new(cfg, ranks).run_loopback(data)
    }));
    drop(installed);
    let fail = |reason: String| FuzzFailure::new(FuzzTest::NetSchedule, case, reason);
    let out = match run {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => return Err(fail(format!("distributed run failed: {e}"))),
        Err(payload) => {
            return Err(FuzzFailure::from_panic(
                FuzzTest::NetSchedule,
                case,
                payload,
            ))
        }
    };

    if ranks == 1 {
        let (serial, _) = SerialNomad::new(cfg).run(data, test, 1, &ComputeModel::hpc_core());
        if serial != out.model {
            return Err(fail(
                "p=1 bit-identity violated: one controlled rank diverged from SerialNomad".into(),
            ));
        }
    }

    Ok(NetFuzzStats {
        updates: out.stats.updates,
        escapes: controller.escapes(),
    })
}

/// What a surviving chaos schedule looked like.
#[derive(Debug, Clone, PartialEq)]
pub struct NetChaosStats {
    /// Updates performed across the surviving ranks.
    pub updates: u64,
    /// Ranks evicted during the run.
    pub evicted: Vec<u32>,
    /// The merged fleet telemetry snapshot at gather (driver scope plus
    /// every rank's last accepted report, evicted ranks frozen).
    pub fleet: TelemetrySnapshot,
}

/// Runs a `ranks`-rank loopback mesh with a seeded transport fault —
/// [`Strategy::Crash`] kills one rank's endpoint at a fixed operation
/// index, [`Strategy::Partition`] holds its traffic for a fixed window —
/// and re-checks the fault-tolerance oracles:
///
/// * the run **completes** despite the fault (no deadline, no wedge);
/// * **token conservation** holds at gather (the driver's
///   `assemble_model` panics otherwise; the panic is converted into a
///   replayable failure);
/// * the surviving ranks still reach the **update budget**;
/// * a crashed victim is actually **evicted** (partitioned victims may
///   be evicted or ride it out, depending on window vs. timeout — both
///   outcomes must conserve).
///
/// The victim is derived from the seed (`seed % ranks`), so a sweep over
/// seeds also sweeps the victim; `Err` names the `--test chaos` command
/// that replays the case.
pub fn fuzz_loopback_chaos(
    data: &RatingMatrix,
    cfg: &NetConfig,
    ranks: usize,
    case: FuzzCase,
) -> Result<NetChaosStats, FuzzFailure> {
    assert!(ranks >= 2, "chaos needs at least one survivor");
    let victim = (case.seed % ranks as u64) as usize;
    let controller =
        Arc::new(FuzzController::new(case, FaultPlan::default()).with_chaos(victim, 0));
    let installed = install(controller.clone());
    let budget = cfg
        .nomad
        .stop
        .updates()
        .expect("chaos harness requires an update budget");
    type RankResults = Vec<Result<(), NetError>>;
    let run = catch_unwind(AssertUnwindSafe(
        || -> Result<(crate::driver::DistOutput, RankResults), NetError> {
            let (driver, endpoints) = Loopback::mesh(ranks);
            std::thread::scope(|scope| {
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .map(|ep| {
                        scope.spawn(move || {
                            let chaotic = ChaosTransport::hooked(ep);
                            crate::rank::run_rank(&chaotic)
                        })
                    })
                    .collect();
                let out = run_driver(&driver, data, cfg)?;
                let results = handles
                    .into_iter()
                    .map(|h| h.join().expect("rank thread panicked"))
                    .collect();
                Ok((out, results))
            })
        },
    ));
    drop(installed);
    let fail = |reason: String| FuzzFailure::new(FuzzTest::Chaos, case, reason);
    let (out, rank_results) = match run {
        Ok(Ok(pair)) => pair,
        Ok(Err(e)) => return Err(fail(format!("chaos run failed: {e}"))),
        Err(payload) => return Err(FuzzFailure::from_panic(FuzzTest::Chaos, case, payload)),
    };

    // A killed victim's endpoint fails with Closed — expected.  Every
    // other rank must exit cleanly.
    for (r, result) in rank_results.iter().enumerate() {
        if let Err(e) = result {
            if r != victim {
                return Err(fail(format!("non-victim rank {r} failed: {e}")));
            }
        }
    }
    if matches!(case.strategy, Strategy::Crash(_)) && !out.stats.evicted.contains(&(victim as u32))
    {
        return Err(fail(format!(
            "crashed rank {victim} was never evicted (evicted: {:?})",
            out.stats.evicted
        )));
    }
    if out.stats.updates < budget {
        return Err(fail(format!(
            "survivors stopped at {} updates, below the {budget} budget",
            out.stats.updates
        )));
    }
    // Telemetry fold oracle: the fleet snapshot counts every rank's
    // last-reported updates **exactly once**.  Survivors' final frames
    // ride the same FIFO edge just ahead of their gather shards, so
    // their telemetry equals the gathered shard totals; an evicted rank
    // stays frozen at its last accepted report (the driver drops frames
    // from evicted senders).  Double-folding a frozen snapshot — or
    // losing one — breaks this equality.
    let fleet = out.stats.telemetry();
    let frozen: u64 = out
        .stats
        .evicted
        .iter()
        .filter_map(|&r| out.stats.rank_telemetry.get(r as usize))
        .flatten()
        .filter_map(|snap| snap.counter(names::UPDATES))
        .sum();
    let expected = out.stats.updates + frozen;
    if fleet.counter(names::UPDATES) != Some(expected) {
        return Err(fail(format!(
            "fleet telemetry counted {:?} updates, expected exactly {expected} \
                 ({} from survivors' gather + {frozen} frozen from evicted ranks)",
            fleet.counter(names::UPDATES),
            out.stats.updates
        )));
    }
    if fleet.counter(names::EVICTIONS) != Some(out.stats.evicted.len() as u64) {
        return Err(fail(format!(
            "fleet telemetry counted {:?} evictions, gather saw {:?}",
            fleet.counter(names::EVICTIONS),
            out.stats.evicted
        )));
    }
    Ok(NetChaosStats {
        updates: out.stats.updates,
        evicted: out.stats.evicted,
        fleet,
    })
}

/// What a surviving serving-chaos schedule looked like.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeChaosStats {
    /// Updates performed across the surviving ranks.
    pub updates: u64,
    /// Ranks evicted during the run.
    pub evicted: Vec<u32>,
    /// Router outcome counters for the query load.
    pub queries: RouterStats,
}

/// Per-query deadline the serving-chaos oracle runs under.  Far above
/// the eviction latency (heartbeat timeout + census) of the chaos
/// configurations, so a query outliving it means serving *lost* a query
/// to the fault rather than failing it over.
const SERVE_FUZZ_DEADLINE: Duration = Duration::from_secs(10);

/// Resolution slack the oracle grants past the deadline: scheduler
/// noise.
const SERVE_FUZZ_SLACK: Duration = Duration::from_secs(2);

/// [`fuzz_loopback_chaos`] with a concurrent query load: `threads`
/// query threads hammer a [`ServeRouter`] (round-robin over the users,
/// taking turns excluding a seen item) while the seeded transport fault
/// kills or partitions the victim rank mid-run.  On top of the chaos
/// oracles (completion, conservation, crash ⇒ eviction, budget), the
/// serving oracles:
///
/// * every query **resolves** within deadline + slack — never a hang;
/// * every outcome is a success (fresh, stale with its staleness bound,
///   run-over) or an explicit [`ServeError::Shed`] — a
///   [`ServeError::Timeout`] means the fault swallowed a query the
///   failover path should have caught, and a [`ServeError::Failover`]
///   is impossible for in-range users;
/// * fresh and stale answers actually carry recommendations.
///
/// `cfg.serve_publish_every` must be non-zero or every answer degrades
/// to the stale replica (legal, but not what the family is testing).
/// `Err` names the `--test serve_chaos` command that replays the case.
pub fn fuzz_loopback_serving(
    data: &RatingMatrix,
    cfg: &NetConfig,
    ranks: usize,
    threads: usize,
    case: FuzzCase,
) -> Result<ServeChaosStats, FuzzFailure> {
    assert!(ranks >= 2, "serving chaos needs at least one survivor");
    assert!(threads >= 1, "need at least one query thread");
    assert!(
        cfg.serve_publish_every > 0,
        "serving chaos requires serve_publish_every > 0"
    );
    let victim = (case.seed % ranks as u64) as usize;
    let controller =
        Arc::new(FuzzController::new(case, FaultPlan::default()).with_chaos(victim, 0));
    let installed = install(controller.clone());
    let budget = cfg
        .nomad
        .stop
        .updates()
        .expect("serving chaos requires an update budget");
    let router = ServeRouter::new(RouterConfig {
        deadline: SERVE_FUZZ_DEADLINE,
        capacity: 64,
    });
    let nrows = data.nrows() as u32;
    let ncols = data.ncols() as u32;

    /// One query thread's verdict: queries issued, first oracle violation
    /// (if any).
    struct QueryLog {
        issued: u64,
        violation: Option<String>,
    }

    type RankResults = Vec<Result<(), NetError>>;
    let run = catch_unwind(AssertUnwindSafe(
        || -> Result<(crate::driver::DistOutput, RankResults, Vec<QueryLog>), NetError> {
            let (driver, endpoints) = Loopback::mesh(ranks);
            std::thread::scope(|scope| {
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .map(|ep| {
                        scope.spawn(move || {
                            let chaotic = ChaosTransport::hooked(ep);
                            crate::rank::run_rank(&chaotic)
                        })
                    })
                    .collect();
                let query_handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let router = &router;
                        scope.spawn(move || {
                            let mut log = QueryLog {
                                issued: 0,
                                violation: None,
                            };
                            // Stagger the threads across the user space.
                            let mut user = (t as u32 * 7919) % nrows;
                            loop {
                                let seen = if log.issued.is_multiple_of(3) {
                                    vec![user % ncols, user % ncols] // dup ok
                                } else {
                                    Vec::new()
                                };
                                let asked = Instant::now();
                                let res = router.query(user, 5, seen);
                                let took = asked.elapsed();
                                log.issued += 1;
                                if took > SERVE_FUZZ_DEADLINE + SERVE_FUZZ_SLACK
                                    && log.violation.is_none()
                                {
                                    log.violation = Some(format!(
                                        "query for user {user} took {took:?}, past \
                                         deadline {SERVE_FUZZ_DEADLINE:?} + slack"
                                    ));
                                }
                                match res {
                                    Ok(Answer::RunOver) => return log,
                                    Ok(Answer::Fresh { recs, .. })
                                    | Ok(Answer::Stale { recs, .. }) => {
                                        if recs.is_empty() && log.violation.is_none() {
                                            log.violation = Some(format!(
                                                "answer for user {user} carried no \
                                                 recommendations"
                                            ));
                                        }
                                    }
                                    Err(ServeError::Shed { .. }) => {
                                        // Explicit overload refusal: legal.
                                        // Back off harder than the usual gap.
                                        std::thread::sleep(Duration::from_millis(5));
                                    }
                                    Err(e) => {
                                        if log.violation.is_none() {
                                            log.violation =
                                                Some(format!("query for user {user} failed: {e}"));
                                        }
                                    }
                                }
                                user = (user + 1) % nrows;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        })
                    })
                    .collect();
                let out = run_driver_serving(&driver, data, cfg, Some(&router));
                // Even on a driver error the router has been finished, so
                // the query threads are guaranteed to wind down.
                let logs = query_handles
                    .into_iter()
                    .map(|h| h.join().expect("query thread panicked"))
                    .collect();
                let results = handles
                    .into_iter()
                    .map(|h| h.join().expect("rank thread panicked"))
                    .collect();
                Ok((out?, results, logs))
            })
        },
    ));
    drop(installed);
    let fail = |reason: String| FuzzFailure::new(FuzzTest::ServeChaos, case, reason);
    let (out, rank_results, logs) = match run {
        Ok(Ok(triple)) => triple,
        Ok(Err(e)) => return Err(fail(format!("serving chaos run failed: {e}"))),
        Err(payload) => return Err(FuzzFailure::from_panic(FuzzTest::ServeChaos, case, payload)),
    };

    for (r, result) in rank_results.iter().enumerate() {
        if let Err(e) = result {
            if r != victim {
                return Err(fail(format!("non-victim rank {r} failed: {e}")));
            }
        }
    }
    if matches!(case.strategy, Strategy::Crash(_)) && !out.stats.evicted.contains(&(victim as u32))
    {
        return Err(fail(format!(
            "crashed rank {victim} was never evicted (evicted: {:?})",
            out.stats.evicted
        )));
    }
    if out.stats.updates < budget {
        return Err(fail(format!(
            "survivors stopped at {} updates, below the {budget} budget",
            out.stats.updates
        )));
    }
    for log in &logs {
        if let Some(violation) = &log.violation {
            return Err(fail(violation.clone()));
        }
        if log.issued == 0 {
            return Err(fail("a query thread never resolved".into()));
        }
    }
    let queries = router.stats();
    if queries.resolved() < queries.submitted {
        return Err(fail(format!(
            "{} of {} queries never resolved",
            queries.submitted - queries.resolved(),
            queries.submitted
        )));
    }
    Ok(ServeChaosStats {
        updates: out.stats.updates,
        evicted: out.stats.evicted,
        queries,
    })
}
