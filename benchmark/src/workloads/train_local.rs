//! `train-local`: `ThreadedNomad::run`, 2 workers, `netflix-sim` Medium,
//! k=100.
//!
//! Kernel-bound by construction: 800k training ratings over 579 items is
//! ~700 updates of ~120 ns per token hop, and `W` is 86,341 × 100 doubles
//! = 69 MB (17× the 4 MiB L2), so `nomad-sgd`/`nomad-linalg` do nearly all
//! the work, the queue is touched once per ~85 µs, and `nomad-net` is not
//! on the path at all.

use std::sync::Arc;
use std::time::Instant;

use nomad_cluster::TracePoint;
use nomad_core::{NomadConfig, StopCondition, ThreadedNomad};
use nomad_data::{GeneratedDataset, SizeTier};
use nomad_sgd::HyperParams;
use nomad_telemetry::{names, Registry};

use crate::harness::{recipe, timed_setups, Ctx, Metrics, Outcome, SETUP_REPS};
use crate::json::Value;
use crate::probes;
use crate::spec::Better;
use crate::stats::{median, quiet_quartile, time_to_rmse};

const WORKERS: usize = 2;
const ROUNDS: usize = 8;
const K: usize = 100;

struct Sizing {
    tier: SizeTier,
    budget: u64,
    reps: usize,
    /// The `time_to_rmse_s` target: crossed about three quarters of the
    /// way through the budget, between two trace points.
    rmse_target: f64,
    /// Ceiling on `final_rmse`: the budget reaches 1.032–1.034 whatever the
    /// seed, so a model over this lost statistical efficiency.
    rmse_ceiling: f64,
}

impl Sizing {
    fn new(ctx: &Ctx) -> Self {
        if ctx.smoke {
            return Self {
                tier: SizeTier::Tiny,
                budget: 200_000,
                reps: 1,
                rmse_target: f64::INFINITY,
                rmse_ceiling: f64::INFINITY,
            };
        }
        Self {
            tier: SizeTier::Medium,
            budget: 40_000_000,
            // ~6 s a repetition on the reference box: four fill the 25 s
            // window.
            reps: ((ctx.seconds as usize * 3 + 10) / 20).max(1),
            rmse_target: 1.045,
            rmse_ceiling: 1.04,
        }
    }
}

fn config(ctx: &Ctx, budget: u64) -> NomadConfig {
    NomadConfig::new(HyperParams::netflix().with_k(K))
        .with_stop(StopCondition::Updates(budget))
        .with_seed(ctx.seed)
        .with_schedule_recording(false)
        // Only `SerialNomad` samples RMSE on a clock; its probe should time
        // training alone.
        .with_snapshot_every(f64::INFINITY)
}

struct Rep {
    wall_s: f64,
    train_s: f64,
    updates: u64,
    final_rmse: f64,
    time_to_rmse_s: Option<f64>,
    /// The same crossing on the update axis: how much work the target
    /// takes, whatever the box's speed.
    updates_to_rmse: Option<f64>,
    /// Updates per training second of each snapshot round.
    round_updates_per_s: Vec<f64>,
}

fn repetition(
    ctx: &Ctx,
    parent: Option<u64>,
    ds: &GeneratedDataset,
    size: &Sizing,
    registry: Option<Arc<Registry>>,
) -> Rep {
    let mut engine = ThreadedNomad::new(config(ctx, size.budget));
    if let Some(registry) = registry {
        engine = engine.with_telemetry(registry);
    }
    let start = Instant::now();
    let out = ctx.tracer.span("core.threaded.run", parent, |_| {
        engine.run(&ds.matrix, &ds.test, WORKERS, ROUNDS)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let points = &out.trace.points;
    let against = |x: &dyn Fn(&TracePoint) -> f64| -> Vec<(f64, f64)> {
        points.iter().map(|p| (x(p), p.test_rmse)).collect()
    };
    let mut round_updates_per_s = Vec::with_capacity(points.len());
    let (mut seconds, mut updates) = (0.0, 0u64);
    for p in points {
        if p.updates > updates && p.seconds > seconds {
            round_updates_per_s.push((p.updates - updates) as f64 / (p.seconds - seconds));
        }
        (seconds, updates) = (p.seconds, p.updates);
    }
    Rep {
        wall_s,
        train_s: out.trace.elapsed(),
        updates: out.trace.metrics.updates,
        final_rmse: out.trace.final_rmse().unwrap_or(f64::NAN),
        time_to_rmse_s: time_to_rmse(&against(&|p| p.seconds), size.rmse_target),
        updates_to_rmse: time_to_rmse(&against(&|p| p.updates as f64), size.rmse_target),
        round_updates_per_s,
    }
}

/// A repetition fails when its model is not good enough: diverged, over
/// the RMSE ceiling, or never at the target.
fn failed(rep: &Rep, size: &Sizing) -> bool {
    rep.final_rmse.is_nan() || rep.final_rmse > size.rmse_ceiling || rep.time_to_rmse_s.is_none()
}

fn named_metrics(reps: &[Rep], out: &mut Metrics) {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    out.push("updates_per_s", med(&|r| r.updates as f64 / r.wall_s));
    // A repetition that never reached the target is already counted as
    // failed; its whole training time stands in so the median exists.
    out.push(
        "time_to_rmse_s",
        med(&|r| r.time_to_rmse_s.unwrap_or(r.train_s)),
    );
    out.push("final_rmse", med(&|r| r.final_rmse));
    let updates_to_rmse = med(&|r| r.updates_to_rmse.unwrap_or(r.updates as f64));
    out.push("updates_to_rmse", updates_to_rmse);

    // The bounded pair.  Throughput: every snapshot round of every
    // repetition is a sample (32 a run, against 4 whole calls), timed by
    // the engine over training alone, and the quiet quartile of them is
    // the speed of the rounds the neighbours left alone.  Latency: the
    // work the target takes at that speed, so the pair splits time-to-RMSE
    // into its statistical and its hardware half and a slow spell on the
    // box reaches neither.  Over ten runs beside two bursty memory hogs
    // the whole-call median spread 12% and the clocked time to RMSE 20%;
    // these spread 5% and 6%.
    let rounds: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.round_updates_per_s.iter().copied())
        .collect();
    let ops_per_s = quiet_quartile(&rounds, Better::Higher);
    out.push("ops_per_s", ops_per_s);
    out.push("latency_ms", updates_to_rmse / ops_per_s * 1e3);
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = Sizing::new(ctx);
    let tr = &ctx.tracer;
    let recipe = recipe("netflix-sim", size.tier);
    let mut metrics = Metrics::default();

    let (ds, setup_s) = tr.span("harness.setup", None, |p| {
        timed_setups(if ctx.trace { 1 } else { SETUP_REPS }, || {
            tr.span("data.build", p, |_| recipe.build())
        })
    });
    metrics.push("setup_s", setup_s);

    // Warm-up, discarded: pages in the binary's hot code and the dataset.
    ThreadedNomad::new(config(ctx, size.budget / 8)).run(&ds.matrix, &ds.test, WORKERS, 1);

    let reps: Vec<Rep> = (0..if ctx.trace { 1 } else { size.reps })
        .map(|_| repetition(ctx, None, &ds, &size, None))
        .collect();
    let mut attempted = reps.len() as u64;
    let mut failures = reps.iter().filter(|r| failed(r, &size)).count() as u64;
    named_metrics(&reps, &mut metrics);

    if ctx.trace {
        let registry = Arc::new(Registry::new());
        let traced = tr.span("harness.traced_rep", None, |p| {
            repetition(ctx, p, &ds, &size, Some(Arc::clone(&registry)))
        });
        attempted += 1;
        failures += u64::from(failed(&traced, &size));
        metrics.push("trace.overhead_share", traced.wall_s / reps[0].wall_s);

        tr.span("harness.probes", None, |p| -> Result<(), String> {
            probes::common(ctx, p, &mut metrics)?;
            probes::setup_layers(ctx, p, &recipe, &ds, WORKERS, &mut metrics);
            let params = HyperParams::netflix().with_k(K);
            let sweep_ns = probes::epoch_sweep(ctx, p, &ds, params, &mut metrics);

            // The plain single-worker run of the same task, at an eighth
            // of the budget.
            let serial_ups =
                probes::serial_updates_per_s(ctx, p, &ds, config(ctx, size.budget / 8));
            metrics.push("core.serial.updates_per_s", serial_ups);

            let r = &traced;
            let telemetry = registry.snapshot();
            let hops = telemetry.counter(names::TOKENS).unwrap_or(0) as f64;
            let ups = r.updates as f64 / r.wall_s;
            metrics.push(
                "core.threaded.scaling_efficiency",
                ups / (WORKERS as f64 * serial_ups),
            );
            metrics.push("core.threaded.train_share", r.train_s / r.wall_s);
            metrics.push("core.threaded.round_overhead_s", r.wall_s - r.train_s);
            metrics.push("core.threaded.hops", hops);
            metrics.push(
                "core.threaded.updates_per_hop",
                r.updates as f64 / hops.max(1.0),
            );
            // Worker-seconds the swept kernel does not explain, per hop:
            // queue, routing, step schedule, idle spins, cache misses the
            // second worker adds.
            metrics.push(
                "core.threaded.hop_overhead_ns",
                (WORKERS as f64 * r.train_s * 1e9 - r.updates as f64 * sweep_ns) / hops.max(1.0),
            );
            metrics.push(
                "core.threaded.queue_depth_p50",
                telemetry
                    .histogram(names::QUEUE_DEPTH)
                    .and_then(|h| h.p50())
                    .unwrap_or(0) as f64,
            );
            probes::hop_bound_scaling(ctx, p, &mut metrics);
            Ok(())
        })?;
    }

    if failures > 0 {
        return Err(format!(
            "{failures} of {attempted} repetitions ended over test RMSE {} or never reached {}",
            size.rmse_ceiling, size.rmse_target
        ));
    }
    Ok(Outcome {
        attempted,
        failed: failures,
        metrics,
        repetitions: reps.len() as u64,
        notes: vec![
            ("budget_updates", Value::Num(size.budget as f64)),
            ("rmse_target", Value::Num(size.rmse_target)),
            ("rmse_ceiling", Value::Num(size.rmse_ceiling)),
            (
                "round_updates_per_s",
                Value::nums(
                    &reps
                        .iter()
                        .flat_map(|r| r.round_updates_per_s.iter().copied())
                        .collect::<Vec<_>>(),
                ),
            ),
        ],
    })
}
