//! Correctness before numbers: the repo's bit-identity anchors, re-proved
//! through this binary at a small size.  A failed check aborts the run
//! before any result is written.

use nomad_cluster::ComputeModel;
use nomad_core::{NomadConfig, SerialNomad, StopCondition, ThreadedNomad};
use nomad_data::SizeTier;
use nomad_net::DistributedNomad;
use nomad_serve::{QueryEngine, SnapshotPublisher};
use nomad_sgd::HyperParams;

use crate::harness::{recipe, Ctx};

const CHECK_BUDGET: u64 = 30_000;

fn small_config(seed: u64) -> NomadConfig {
    NomadConfig::new(HyperParams::netflix().with_k(8))
        .with_stop(StopCondition::Updates(CHECK_BUDGET))
        .with_seed(seed)
        .with_schedule_recording(false)
}

/// One re-exec'd rank must reassemble `SerialNomad`'s factors bit for bit.
/// Also proves rank children can re-exec this binary at all.
pub fn one_rank_equals_serial(ctx: &Ctx, parent: Option<u64>) -> Result<(), String> {
    ctx.tracer
        .span("check.one_rank_equals_serial", parent, |_| {
            let ds = recipe("netflix-sim", SizeTier::Tiny).build();
            let cfg = small_config(ctx.seed);
            let (serial, _) =
                SerialNomad::new(cfg).run(&ds.matrix, &ds.test, 1, &ComputeModel::hpc_core());
            let out = DistributedNomad::new(cfg, 1)
                .run_processes(&ds.matrix)
                .map_err(|e| format!("1-rank run_processes failed: {e}"))?;
            if out.model != serial {
                return Err("1-rank run_processes differs from SerialNomad".into());
            }
            Ok(())
        })
}

/// After a serving run returns, the latest published snapshot must be the
/// returned model, bit for bit.
pub fn quiesced_snapshot_equals_model(ctx: &Ctx, parent: Option<u64>) -> Result<(), String> {
    ctx.tracer
        .span("check.quiesced_snapshot_equals_model", parent, |_| {
            let ds = recipe("netflix-sim", SizeTier::Tiny).build();
            let publisher = SnapshotPublisher::new(5_000);
            let out = ThreadedNomad::new(small_config(ctx.seed))
                .run_serving(&ds.matrix, &ds.test, 2, 2, &publisher);
            let snap = publisher
                .latest()
                .ok_or("serving run published no snapshot")?;
            if snap.to_model() != out.model {
                return Err("quiesced snapshot differs from the returned model".into());
            }
            Ok(())
        })
}

/// Probing every centroid must give the exact scan's answer: same items,
/// same scores, same order.
pub fn full_probe_equals_exact(
    ctx: &Ctx,
    parent: Option<u64>,
    engine: &QueryEngine<'_>,
    users: usize,
    top: usize,
) -> Result<(), String> {
    ctx.tracer
        .span("check.full_probe_equals_exact", parent, |_| {
            let centroids = engine.ivf_centroids().map_err(|e| e.to_string())?;
            let mut rng = nomad_linalg::SmallRng64::new(ctx.seed ^ 0xC4EC);
            for _ in 0..64 {
                let user = rng.next_below(users) as u32;
                let exact = engine.top_k(user, top, &[]).map_err(|e| e.to_string())?;
                let full = engine
                    .top_k_approx(user, top, centroids, &[])
                    .map_err(|e| e.to_string())?;
                if exact != full {
                    return Err(format!(
                    "user {user}: top_k_approx probing all {centroids} centroids differs from top_k"
                ));
                }
            }
            Ok(())
        })
}
