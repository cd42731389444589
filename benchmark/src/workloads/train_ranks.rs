//! `train-ranks`: `DistributedNomad::run_processes`, 2 re-exec'd ranks over
//! localhost TCP, `yahoo-sim` Medium, k=8.
//!
//! Hop- and transport-sensitive by construction: 800k ratings over 3,953
//! items at 2 ranks is ~100 updates (~1.6 µs of kernel) per hop, and with
//! uniform routing every other hop leaves the rank, so the per-hop cost of
//! queue, hop loop, wire codec, TCP and the drain barrier is a first-order
//! term.  This is the workload `nomad-net` does the most work on.

use std::time::Instant;

use nomad_core::{NomadConfig, StopCondition, ThreadedNomad};
use nomad_data::{GeneratedDataset, SizeTier};
use nomad_net::{DistOutput, DistributedNomad, NetError};
use nomad_sgd::HyperParams;
use nomad_telemetry::names;

use crate::checks;
use crate::harness::{recipe, timed_setups, Ctx, Metrics, Outcome, SETUP_REPS};
use crate::json::Value;
use crate::probes;
use crate::spec::Better;
use crate::stats::{median, quiet_quartile};

const RANKS: usize = 2;
const K: usize = 8;
/// Repetitions of the minimal job behind `net.process.fixed_cost_s`
/// (~60 ms each; the median of seven still moved 8% between runs, and the
/// quiet quartile of fifteen 12% beside two memory hogs).
const FIXED_COST_REPS: usize = 30;

struct Sizing {
    tier: SizeTier,
    budget: u64,
    reps: usize,
    /// `yahoo-sim` ratings span 0–100; the trained model sits near 22.5.
    rmse_ceiling: f64,
}

impl Sizing {
    fn new(ctx: &Ctx) -> Self {
        if ctx.smoke {
            return Self {
                tier: SizeTier::Tiny,
                budget: 200_000,
                reps: 1,
                rmse_ceiling: f64::INFINITY,
            };
        }
        Self {
            tier: SizeTier::Medium,
            budget: 160_000_000,
            // ~2 s a repetition on the reference box: ten short ones give
            // the quiet quartile more to choose from than five long ones,
            // and the fixed cost is still only ~3% of each.
            reps: (ctx.seconds as usize * 2 / 5).max(1),
            rmse_ceiling: 23.0,
        }
    }
}

fn config(ctx: &Ctx, budget: u64) -> NomadConfig {
    NomadConfig::new(HyperParams::yahoo_music().with_k(K))
        .with_stop(StopCondition::Updates(budget))
        .with_seed(ctx.seed)
        .with_schedule_recording(false)
        .with_snapshot_every(f64::INFINITY)
}

struct Rep {
    wall_s: f64,
    final_rmse: f64,
    out: DistOutput,
}

fn repetition(
    ctx: &Ctx,
    parent: Option<u64>,
    ds: &GeneratedDataset,
    budget: u64,
) -> Result<Rep, NetError> {
    let engine = DistributedNomad::new(config(ctx, budget), RANKS);
    let start = Instant::now();
    let out = ctx.tracer.span("net.process.run_processes", parent, |_| {
        engine.run_processes(&ds.matrix)
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    let final_rmse = ctx.tracer.span("sgd.rmse", parent, |_| {
        nomad_sgd::rmse(&out.model, &ds.test)
    });
    Ok(Rep {
        wall_s,
        final_rmse,
        out,
    })
}

/// Timed repetitions with failures counted: an `Err`, a model over the
/// RMSE ceiling, or any eviction or re-mint (the mesh lost a rank or a
/// token, so the run did different work).
struct Tally {
    reps: Vec<Rep>,
    attempted: u64,
    failed: u64,
    bad_model: bool,
}

impl Tally {
    fn record(&mut self, size: &Sizing, rep: Result<Rep, NetError>) {
        self.attempted += 1;
        match rep {
            Err(e) => {
                eprintln!("train-ranks: repetition failed: {e}");
                self.failed += 1;
            }
            Ok(rep) => {
                let bad_model = rep.final_rmse.is_nan() || rep.final_rmse > size.rmse_ceiling;
                self.bad_model |= bad_model;
                let stats = &rep.out.stats;
                if bad_model || !stats.evicted.is_empty() || stats.reminted > 0 {
                    self.failed += 1;
                }
                self.reps.push(rep);
            }
        }
    }
}

/// `reps` calls of `run_processes` at the smallest budget: spawn,
/// handshake, scatter, drain and gather with next to no training in
/// between.  Returns the seconds each took.
fn minimal_jobs(
    ctx: &Ctx,
    parent: Option<u64>,
    ds: &GeneratedDataset,
    reps: usize,
) -> Result<Vec<f64>, String> {
    let mut seconds = Vec::with_capacity(reps);
    for _ in 0..reps {
        let engine = DistributedNomad::new(config(ctx, 1), RANKS);
        let start = Instant::now();
        ctx.tracer
            .span("net.process.run_processes", parent, |_| {
                engine.run_processes(&ds.matrix)
            })
            .map_err(|e| format!("minimal-budget run_processes failed: {e}"))?;
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok(seconds)
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

    // Warm-up, discarded: the first spawn pages the binary in for the
    // children.
    repetition(ctx, None, &ds, size.budget / 16).map_err(|e| format!("warm-up failed: {e}"))?;

    let mut tally = Tally {
        reps: Vec::new(),
        attempted: 0,
        failed: 0,
        bad_model: false,
    };
    // The minimal jobs take turns with the training calls, a few after
    // each, so both sample the whole window and a slow spell of the box
    // cannot fall on all of either.
    let reps = if ctx.trace { 1 } else { size.reps };
    let jobs_per_rep = if ctx.smoke {
        1
    } else {
        FIXED_COST_REPS.div_ceil(reps)
    };
    let mut fixed = Vec::with_capacity(reps * jobs_per_rep);
    for _ in 0..reps {
        tally.record(&size, repetition(ctx, None, &ds, size.budget));
        fixed.extend(minimal_jobs(ctx, None, &ds, jobs_per_rep)?);
    }
    if tally.reps.is_empty() {
        return Err("every repetition failed".into());
    }
    let each = |f: &dyn Fn(&Rep) -> f64| tally.reps.iter().map(f).collect::<Vec<_>>();
    let updates_per_s = each(&|r| r.out.stats.updates as f64 / r.wall_s);
    metrics.push("updates_per_s", median(&updates_per_s));
    metrics.push("final_rmse", median(&each(&|r| r.final_rmse)));
    let fixed_s = median(&fixed);
    metrics.push("net.process.fixed_cost_s", fixed_s);
    // The bounded pair: the quiet quartile of the same samples.
    metrics.push("ops_per_s", quiet_quartile(&updates_per_s, Better::Higher));
    metrics.push("latency_ms", quiet_quartile(&fixed, Better::Lower) * 1e3);
    let repetitions = tally.reps.len() as u64;

    if ctx.trace {
        let untraced_wall = tally.reps[0].wall_s;
        let traced = tr.span("harness.traced_rep", None, |p| {
            repetition(ctx, p, &ds, size.budget)
        });
        tally.record(&size, traced);
        let rep = tally.reps.last().expect("at least the untraced repetition");
        metrics.push("trace.overhead_share", rep.wall_s / untraced_wall);

        let stats = &rep.out.stats;
        let fleet = stats.telemetry();
        let updates = stats.updates as f64;
        let frames = fleet.counter(names::FRAMES_SENT).unwrap_or(0) as f64;
        let bytes = fleet.counter(names::BYTES_SENT).unwrap_or(0) as f64;
        let sends = stats.remote_sends as f64;
        metrics.push(
            "net.driver.steady_updates_per_s",
            updates / (rep.wall_s - fixed_s).max(1e-9),
        );
        metrics.push("net.remote_sends", sends);
        metrics.push("net.updates_per_remote_send", updates / sends.max(1.0));
        metrics.push("net.frames_sent", frames);
        metrics.push("net.tokens_per_frame", sends / frames.max(1.0));
        metrics.push("net.bytes_sent", bytes);
        metrics.push("net.bytes_per_update", bytes / updates.max(1.0));
        // Drain waits for the slowest rank.
        let max = stats.per_rank_updates.iter().copied().max().unwrap_or(0) as f64;
        let min = stats.per_rank_updates.iter().copied().min().unwrap_or(0) as f64;
        metrics.push("net.rank_imbalance", max / min.max(1.0));
        metrics.push(
            "net.overshoot_share",
            (updates - size.budget as f64) / size.budget as f64,
        );
        metrics.push("net.reminted", stats.reminted as f64);
        metrics.push("net.evicted", stats.evicted.len() as f64);
        let process_ups = updates / rep.wall_s;

        tr.span("harness.probes", None, |p| -> Result<(), String> {
            probes::common(ctx, p, &mut metrics)?;
            probes::setup_layers(ctx, p, &recipe, &ds, RANKS, &mut metrics);
            let params = HyperParams::yahoo_music().with_k(K);
            probes::epoch_sweep(ctx, p, &ds, params, &mut metrics);

            // The same data and k through the other two deployments, at a
            // quarter of the budget: threads over the in-memory transport
            // (no sockets, no processes) and `ThreadedNomad` (no transport
            // at all).
            let cfg = config(ctx, size.budget / 4);
            let start = Instant::now();
            let loopback = tr
                .span("net.driver.run_loopback", p, |_| {
                    DistributedNomad::new(cfg, RANKS).run_loopback(&ds.matrix)
                })
                .map_err(|e| format!("run_loopback failed: {e}"))?;
            let loopback_ups = loopback.stats.updates as f64 / start.elapsed().as_secs_f64();
            metrics.push("net.process_over_loopback", process_ups / loopback_ups);
            let start = Instant::now();
            let threaded = tr.span("core.threaded.run", p, |_| {
                ThreadedNomad::new(cfg).run(&ds.matrix, &ds.test, RANKS, 1)
            });
            let threaded_ups =
                threaded.trace.metrics.updates as f64 / start.elapsed().as_secs_f64();
            metrics.push("net.mesh_over_threaded", process_ups / threaded_ups);

            metrics.push(
                "core.serial.updates_per_s",
                probes::serial_updates_per_s(ctx, p, &ds, config(ctx, size.budget / 8)),
            );
            probes::hop_bound_scaling(ctx, p, &mut metrics);
            Ok(())
        })?;
    }

    if tally.bad_model {
        return Err(format!(
            "a repetition's final test RMSE is over the ceiling {}",
            size.rmse_ceiling
        ));
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        repetitions,
        notes: vec![
            ("budget_updates", Value::Num(size.budget as f64)),
            ("rmse_ceiling", Value::Num(size.rmse_ceiling)),
            ("call_updates_per_s", Value::nums(&updates_per_s)),
            ("minimal_job_s", Value::nums(&fixed)),
        ],
    })
}
