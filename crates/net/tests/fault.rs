//! Kill-a-rank regression: a real child *process* dies mid-epoch and the
//! surviving ranks finish the job.
//!
//! `harness = false`: [`nomad_net::child_entry`] must be the first call
//! in `main`, because [`Deployment::Processes`] re-execs
//! *this* test binary once per rank.  The doomed rank's `Setup` carries
//! `abort_after_updates`, so after that many local updates the child
//! calls `std::process::abort()` — no `Drop`s, no socket shutdown
//! courtesy, the closest portable stand-in for `SIGKILL`.
//!
//! What the survivors must then deliver (all deterministic, no sleeps):
//!
//! * the run **completes the full update budget** — the driver detects
//!   the death (TCP EOF, backstopped by heartbeat silence), evicts the
//!   corpse, re-mints the tokens it took down, and hands its user shard
//!   to a survivor;
//! * **token conservation at gather** — the driver's `assemble_model`
//!   asserts every item row landed in exactly one surviving shard and
//!   that pass counts minus the census debt equal the tickets drawn
//!   (a violated invariant panics the driver, failing this binary);
//! * the reassembled model has **full dimensions** and a trained RMSE —
//!   the takeover shipped the dead rank's user rows, not zeros.

use std::time::Instant;

use nomad_core::{NomadConfig, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_net::{Deployment, DistributedNomad, NetConfig};
use nomad_sgd::HyperParams;

fn main() {
    // Rank children divert here and never return.
    nomad_net::child_entry();

    let ds = named_dataset("netflix-sim", SizeTier::Tiny)
        .expect("netflix-sim is always registered")
        .build();
    let budget = 60_000;
    let nomad = NomadConfig::new(HyperParams::netflix().with_k(8))
        .with_stop(StopCondition::Updates(budget))
        .with_seed(4242);
    let mut cfg = NetConfig::new(nomad);
    // Rank 2 aborts its whole process mid-epoch: well past warm-up, well
    // short of its ~budget/4 share.
    cfg.abort_rank = Some(2);
    cfg.abort_after_updates = 4_000;
    // TCP EOF detection makes eviction prompt; the heartbeat timeout is
    // only the backstop and can stay at its default.

    let started = Instant::now();
    let out = DistributedNomad::with_config(cfg, 4)
        .run(&ds.matrix, Deployment::Processes, None)
        .expect("4-rank run must survive one rank dying mid-epoch");

    assert_eq!(
        out.stats.evicted,
        vec![2],
        "exactly the aborted rank must be evicted (got {:?})",
        out.stats.evicted
    );
    assert!(
        out.stats.updates >= budget,
        "survivors must still complete the {budget}-update budget (got {})",
        out.stats.updates
    );
    assert!(
        out.stats.reminted > 0,
        "a rank that died holding tokens must force re-mints"
    );
    assert_eq!(
        out.stats.per_rank_updates[2], 0,
        "an evicted rank contributes no gathered updates"
    );
    // Full model dimensions prove the takeover shipped the dead rank's
    // user rows (items are re-minted; users travel in the ShardTransfer).
    assert_eq!(out.model.num_users(), ds.matrix.nrows());
    assert_eq!(out.model.num_items(), ds.matrix.ncols());
    let rmse = nomad_sgd::rmse(&out.model, &ds.test);
    assert!(
        rmse < 1.5,
        "post-eviction model RMSE {rmse} is not a trained model"
    );

    eprintln!(
        "kill-a-rank regression passed: rank 2 aborted, {} updates across survivors, \
         {} tokens re-minted, rmse {:.4}, {:?}",
        out.stats.updates,
        out.stats.reminted,
        rmse,
        started.elapsed()
    );
}
