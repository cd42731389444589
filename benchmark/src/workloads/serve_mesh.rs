//! `serve-mesh`: `DistributedNomad::run_processes_serving`, 1 rank,
//! `yahoo-sim` Medium, k=32, a snapshot every 200k updates, with one
//! open-loop generator sending 64 top-10 queries/s through
//! `ServeRouter::query` while the mesh trains.
//!
//! The same `nomad-net` and `nomad-serve` code as the other workloads used
//! differently: request/reply beside token streaming, publisher writes
//! beside reads.  One rank because the box has 2 cores: the rank's worker
//! saturates one, and the driver loop, the rank's comm thread and the
//! generator share the other.  With 2 CPU-bound ranks the query median
//! swung 6.7–72 ms between runs; with 1 it holds within a few percent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{GeneratedDataset, SizeTier};
use nomad_linalg::SmallRng64;
use nomad_net::{Answer, DistOutput, DistributedNomad, NetConfig, RouterConfig, ServeRouter};
use nomad_sgd::HyperParams;
use nomad_telemetry::names;

use crate::checks;
use crate::harness::{recipe, timed_setups, Ctx, Metrics, Outcome, SETUP_REPS};
use crate::json::Value;
use crate::openloop::{self, run_open_loop, OpenLoopLog, WallClock};
use crate::probes;
use crate::stats::{percentile, tail_percentile};

const RANKS: usize = 1;
const K: usize = 32;
const PUBLISH_EVERY: u64 = 200_000;
const QUERIES_PER_S: f64 = 64.0;
const TOP: usize = 10;
/// A query answered later than this after its due time is counted as over
/// its limit (reported in the notes, not as failed: see `OpenLoopLog`).
const QUERY_LIMIT: Duration = Duration::from_millis(100);

struct Sizing {
    tier: SizeTier,
    budget: u64,
}

impl Sizing {
    fn new(ctx: &Ctx) -> Self {
        if ctx.smoke {
            return Self {
                tier: SizeTier::Tiny,
                budget: 3_000_000,
            };
        }
        Self {
            tier: SizeTier::Medium,
            // 13–15M updates/s on the reference box beside the query
            // stream, so the call lasts a little under the window: 25 s is
            // ~21 s and ~1,350 queries, enough for a p99 with ten samples
            // beyond it.
            budget: 12_500_000 * ctx.seconds,
        }
    }
}

struct Call {
    wall_s: f64,
    out: DistOutput,
    /// Latency and lateness samples sorted ascending.
    log: OpenLoopLog,
    /// `staleness` of every `Answer::Fresh`, ascending.
    staleness: Vec<u64>,
    router: ServeRouter,
}

/// One engine call with the generator running beside it.
fn call(
    ctx: &Ctx,
    parent: Option<u64>,
    ds: &GeneratedDataset,
    budget: u64,
) -> Result<Call, String> {
    let nomad = NomadConfig::new(HyperParams::yahoo_music().with_k(K))
        .with_stop(StopCondition::Updates(budget))
        .with_seed(ctx.seed)
        .with_schedule_recording(false);
    let mut cfg = NetConfig::new(nomad);
    cfg.serve_publish_every = PUBLISH_EVERY;
    let engine = DistributedNomad::with_config(cfg, RANKS);
    let router = ServeRouter::new(RouterConfig::default());
    let users = ds.matrix.nrows();

    // The driver marks the router finished when the run ends, and the
    // generator stops at the first `RunOver`; this flag covers a call that
    // fails before the driver ever starts (a rank that cannot spawn).
    let over = AtomicBool::new(false);
    let start = Instant::now();
    let (out, (mut log, mut staleness)) = std::thread::scope(|scope| {
        let (router, over) = (&router, &over);
        let generator = scope.spawn(move || {
            let mut rng = SmallRng64::new(ctx.seed ^ 0x9E4E);
            let mut spans = ctx.tracer.local();
            let mut staleness = Vec::new();
            let clock = WallClock::start();
            let period = Duration::from_secs_f64(1.0 / QUERIES_PER_S);
            let log = run_open_loop(&clock, period, QUERY_LIMIT, |_| {
                if over.load(Ordering::SeqCst) {
                    return openloop::Outcome::Stop;
                }
                let user = rng.next_below(users) as u32;
                let answer = spans.span("net.serve_router.query", parent, |_| {
                    router.query(user, TOP, Vec::new())
                });
                match answer {
                    Ok(Answer::RunOver) => openloop::Outcome::Stop,
                    Ok(Answer::Fresh { staleness: s, .. }) => {
                        staleness.push(s);
                        openloop::Outcome::Ok
                    }
                    // Answered from the driver's replica (before the
                    // rank's first publish): degraded, not failed.
                    Ok(Answer::Stale { .. }) => openloop::Outcome::Ok,
                    Err(e) => {
                        eprintln!("serve-mesh: query failed: {e}");
                        openloop::Outcome::Failed
                    }
                }
            });
            (log, staleness)
        });
        let out = ctx
            .tracer
            .span("net.process.run_processes_serving", parent, |_| {
                engine.run_processes_serving(&ds.matrix, router)
            });
        over.store(true, Ordering::SeqCst);
        (out, generator.join().expect("generator thread panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let out = out.map_err(|e| format!("run_processes_serving failed: {e}"))?;
    // Percentiles are all the caller takes from these.
    log.latency_us.sort_unstable();
    log.late_us.sort_unstable();
    staleness.sort_unstable();
    Ok(Call {
        wall_s,
        out,
        log,
        staleness,
        router,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = Sizing::new(ctx);
    let tr = &ctx.tracer;
    let recipe = recipe("yahoo-sim", size.tier);
    let mut metrics = Metrics::default();

    let (ds, setup_s) = tr.span("harness.setup", None, |p| {
        timed_setups(if ctx.trace { 1 } else { SETUP_REPS }, || {
            tr.span("data.build", p, |_| recipe.build())
        })
    });
    metrics.push("setup_s", setup_s);

    checks::one_rank_equals_serial(ctx, None)?;
    checks::quiesced_snapshot_equals_model(ctx, None)?;

    // Warm-up, discarded.
    call(ctx, None, &ds, size.budget / 40)?;

    // A traced run splits the window between an untraced and a traced call.
    let budget = if ctx.trace {
        size.budget / 2
    } else {
        size.budget
    };
    let measured = call(ctx, None, &ds, budget)?;
    let mut attempted = measured.log.attempted;
    let mut failed = measured.log.failed;
    if measured.log.latency_us.is_empty() || measured.staleness.is_empty() {
        return Err("no query was answered while the mesh trained".into());
    }
    let latency = &measured.log.latency_us;
    let (tail_q, p99) = tail_percentile(latency, 0.99);
    let p50 = percentile(latency, 0.5);
    let updates_per_s = measured.out.stats.updates as f64 / measured.wall_s;
    metrics.push("updates_per_s", updates_per_s);
    metrics.push("query_p50_us", p50 as f64);
    metrics.push("query_p99_us", p99 as f64);
    metrics.push(
        "staleness_p50_updates",
        percentile(&measured.staleness, 0.5) as f64,
    );
    // The bounded pair is the named pair: one call, one sample.  Reading
    // the rank's update clock off the answers in half-second windows and
    // taking their quiet quartile was tried and spread wider (6.0% against
    // 3.5% over ten runs): beside the query stream the trainer's speed
    // moves between plateaus in both directions, not down from one level.
    metrics.push("ops_per_s", updates_per_s);
    metrics.push("latency_ms", p50 as f64 / 1e3);

    if ctx.trace {
        let traced = tr.span("harness.traced_rep", None, |p| call(ctx, p, &ds, budget))?;
        attempted += traced.log.attempted;
        failed += traced.log.failed;
        metrics.push("trace.overhead_share", traced.wall_s / measured.wall_s);

        let stats = traced.router.stats();
        let answered = (stats.fresh + stats.stale).max(1) as f64;
        metrics.push(
            "net.serve_router.fresh_share",
            stats.fresh as f64 / answered,
        );
        metrics.push(
            "net.serve_router.stale_share",
            stats.stale as f64 / answered,
        );
        metrics.push("net.serve_router.retries", stats.retries as f64);
        metrics.push("net.serve_router.hedges", stats.hedges as f64);
        metrics.push("net.serve_router.shed", stats.shed as f64);
        metrics.push("net.serve_router.timeouts", stats.timeout as f64);
        // The router's own histogram runs from submission to answer in
        // power-of-two buckets; the generator's runs from the due time.
        // The gap is what a query waits before the router has it, plus
        // the bucket rounding.
        let router_p50 = traced
            .router
            .latency_percentiles()
            .map_or(0, |(p50, _)| p50) as f64;
        metrics.push("net.serve_router.latency_p50_us", router_p50);
        metrics.push(
            "net.serve_router.admission_gap_us",
            percentile(&traced.log.latency_us, 0.5) as f64 - router_p50,
        );
        metrics.push(
            "net.serve_router.generator_late_p99_us",
            tail_percentile(&traced.log.late_us, 0.99).1 as f64,
        );
        let fleet = traced.out.stats.telemetry();
        metrics.push(
            "serve.publisher.publishes",
            fleet.counter(names::PUBLISHES).unwrap_or(0) as f64,
        );
        metrics.push(
            "serve.publisher.max_publish_gap_updates",
            traced.out.stats.max_publish_gap as f64,
        );

        tr.span("harness.probes", None, |p| -> Result<(), String> {
            probes::common(ctx, p, &mut metrics)?;
            probes::setup_layers(ctx, p, &recipe, &ds, RANKS, &mut metrics);
            let params = HyperParams::yahoo_music().with_k(K);
            probes::epoch_sweep(ctx, p, &ds, params, &mut metrics);
            Ok(())
        })?;
    }

    Ok(Outcome {
        attempted,
        failed,
        metrics,
        repetitions: 1,
        notes: vec![
            ("budget_updates", Value::Num(budget as f64)),
            ("queries_per_s", Value::Num(QUERIES_PER_S)),
            ("answered", Value::Num(latency.len() as f64)),
            ("over_limit", Value::Num(measured.log.over_limit as f64)),
            ("tail_quantile", Value::Num(tail_q)),
        ],
    })
}
