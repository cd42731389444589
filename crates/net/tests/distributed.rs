//! End-to-end tests of the distributed engine over both transports.
//!
//! The anchor invariant is the same one the threaded and simulated
//! engines carry: at one rank with a fixed seed there is a canonical
//! processing order, so the distributed engine must reassemble a
//! `FactorModel` **bit-identical** to `SerialNomad`'s.  Multi-rank runs
//! are genuinely asynchronous (no canonical order), so they are checked
//! against the structural invariants instead: token conservation at
//! gather (asserted inside the driver), full-budget completion, and
//! convergence to a sane RMSE.

use nomad_cluster::ComputeModel;
use nomad_core::{NomadConfig, RoutingPolicy, SerialNomad, StopCondition};
use nomad_data::{named_dataset, SizeTier};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_net::driver::run_driver;
use nomad_net::{Deployment, DistributedNomad, Loopback, NetConfig};
use nomad_sgd::HyperParams;
use nomad_telemetry::{names, TelemetrySnapshot};

fn tiny() -> (RatingMatrix, TripletMatrix) {
    let ds = named_dataset("netflix-sim", SizeTier::Tiny)
        .unwrap()
        .build();
    (ds.matrix, ds.test)
}

fn quick_config(k: usize, updates: u64) -> NomadConfig {
    NomadConfig::new(HyperParams::netflix().with_k(k))
        .with_stop(StopCondition::Updates(updates))
        .with_seed(77)
}

/// One rank, fixed seed: the distributed engine must match the serial
/// engine bit for bit — over the in-memory transport...
#[test]
fn single_rank_loopback_is_bit_identical_to_serial() {
    let (data, test) = tiny();
    let cfg = quick_config(8, 30_000);
    let (serial_model, _) = SerialNomad::new(cfg).run(&data, &test, 1, &ComputeModel::hpc_core());
    let out = DistributedNomad::new(cfg, 1)
        .run(&data, Deployment::Loopback(&[]), None)
        .expect("loopback run");
    assert_eq!(
        out.model, serial_model,
        "distributed p=1 must reassemble the serial engine's factors bit for bit"
    );
    assert!(out.stats.updates >= 30_000);
    assert_eq!(out.stats.remote_sends, 0, "one rank never crosses the wire");
}

/// ...and over real TCP sockets, where every factor row crosses the wire
/// codec during scatter and gather.
#[test]
fn single_rank_tcp_is_bit_identical_to_serial() {
    let (data, test) = tiny();
    let cfg = quick_config(8, 20_000);
    let (serial_model, _) = SerialNomad::new(cfg).run(&data, &test, 1, &ComputeModel::hpc_core());
    let out = DistributedNomad::new(cfg, 1)
        .run(&data, Deployment::TcpThreads, None)
        .expect("tcp run");
    assert_eq!(out.model, serial_model);
}

/// The p=1 identity holds for every latent dimension the bench measures
/// (k=100 exercises multi-cache-line slab rows over the wire).
#[test]
fn single_rank_identity_holds_across_k() {
    let (data, test) = tiny();
    for k in [8, 32, 100] {
        let cfg = quick_config(k, 8_000);
        let (serial_model, _) =
            SerialNomad::new(cfg).run(&data, &test, 1, &ComputeModel::hpc_core());
        let out = DistributedNomad::new(cfg, 1)
            .run(&data, Deployment::Loopback(&[]), None)
            .expect("loopback run");
        assert_eq!(out.model, serial_model, "p=1 identity broken at k={k}");
    }
}

/// Multi-rank loopback: the budget completes, every rank contributes,
/// tokens survive conservation (asserted in the driver's gather), and
/// remote hops actually happen.
#[test]
fn two_and_four_ranks_complete_the_budget_over_loopback() {
    let (data, test) = tiny();
    for ranks in [2, 4] {
        let cfg = quick_config(8, 40_000);
        let out = DistributedNomad::new(cfg, ranks)
            .run(&data, Deployment::Loopback(&[]), None)
            .unwrap_or_else(|e| panic!("{ranks}-rank loopback run failed: {e}"));
        assert!(
            out.stats.updates >= 40_000,
            "{ranks} ranks must finish the budget (got {})",
            out.stats.updates
        );
        assert_eq!(out.stats.per_rank_updates.len(), ranks);
        assert!(
            out.stats.remote_sends > 0,
            "uniform routing across {ranks} ranks must cross the wire"
        );
        assert_eq!(out.model.num_users(), data.nrows());
        assert_eq!(out.model.num_items(), data.ncols());
        let rmse = nomad_sgd::rmse(&out.model, &test);
        assert!(
            rmse < 1.5,
            "{ranks}-rank model RMSE {rmse} is not a trained model"
        );
    }
}

/// The run's fixed cost is attributed stage by stage: every rank times its
/// own setup exactly once (the sample rides its cumulative telemetry frames
/// into the fleet fold), and the driver times its scatter exactly once.
#[test]
fn setup_and_scatter_are_each_timed_once() {
    let (data, _) = tiny();
    let ranks = 3;
    let out = DistributedNomad::new(quick_config(8, 5_000), ranks)
        .run(&data, Deployment::Loopback(&[]), None)
        .expect("loopback run");
    let count = |snap: &TelemetrySnapshot, name| snap.histogram(name).map_or(0, |h| h.count);
    for (r, snap) in out.stats.rank_telemetry.iter().enumerate() {
        let snap = snap.as_ref().expect("every rank reports");
        assert_eq!(count(snap, names::RANK_SETUP_US), 1, "rank {r}");
        assert_eq!(count(snap, names::DRIVER_SCATTER_US), 0, "rank {r}");
    }
    let driver = &out.stats.driver_telemetry;
    assert_eq!(count(driver, names::DRIVER_SCATTER_US), 1);
    assert_eq!(count(driver, names::RANK_SETUP_US), 0);
    let fleet = out.stats.telemetry();
    assert_eq!(count(&fleet, names::RANK_SETUP_US), ranks as u64);
    assert_eq!(count(&fleet, names::DRIVER_SCATTER_US), 1);
}

/// Multi-rank over real sockets: same invariants, full wire path.
#[test]
fn two_ranks_complete_the_budget_over_tcp() {
    let (data, test) = tiny();
    let cfg = quick_config(8, 30_000);
    let out = DistributedNomad::new(cfg, 2)
        .run(&data, Deployment::TcpThreads, None)
        .expect("tcp run");
    assert!(out.stats.updates >= 30_000);
    assert!(out.stats.remote_sends > 0);
    assert!(nomad_sgd::rmse(&out.model, &test) < 1.5);
}

/// Every routing policy quiesces cleanly across ranks (least-loaded uses
/// the piggybacked queue lengths; round-robin is fully deterministic
/// traffic).
#[test]
fn all_routing_policies_quiesce_over_loopback() {
    let (data, _) = tiny();
    for routing in [
        RoutingPolicy::UniformRandom,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::RoundRobin,
    ] {
        let cfg = quick_config(8, 15_000).with_routing(routing);
        let out = DistributedNomad::new(cfg, 3)
            .run(&data, Deployment::Loopback(&[]), None)
            .unwrap_or_else(|e| panic!("{routing:?} failed: {e}"));
        assert!(out.stats.updates >= 15_000, "{routing:?} under budget");
    }
}

/// A tiny message batch forces many partial frames; the engine must not
/// depend on batch boundaries.
#[test]
fn small_message_batches_still_quiesce() {
    let (data, _) = tiny();
    let cfg = quick_config(8, 10_000).with_message_batch(1);
    let out = DistributedNomad::new(cfg, 2)
        .run(&data, Deployment::Loopback(&[]), None)
        .unwrap();
    assert!(out.stats.updates >= 10_000);
}

/// More ranks than convenient: items spread thin, some ranks own few
/// users — gather must still conserve every token.
#[test]
fn many_ranks_with_sparse_shards_quiesce() {
    let (data, _) = tiny();
    let cfg = quick_config(8, 8_000);
    let out = DistributedNomad::new(cfg, 6)
        .run(&data, Deployment::Loopback(&[]), None)
        .unwrap();
    assert!(out.stats.updates >= 8_000);
    assert_eq!(out.model.num_items(), data.ncols());
}

/// Distributed runs require an update budget, like the threaded engine.
#[test]
#[should_panic(expected = "update budget")]
fn wall_clock_budget_is_rejected() {
    let (data, _) = tiny();
    let cfg =
        NomadConfig::new(HyperParams::netflix().with_k(4)).with_stop(StopCondition::Seconds(1.0));
    let _ = DistributedNomad::new(cfg, 1).run_loopback(&data);
}

/// Zero ranks is a construction error.
#[test]
#[should_panic(expected = "at least one rank")]
fn zero_ranks_rejected() {
    let _ = DistributedNomad::new(quick_config(4, 10), 0);
}

/// So is a mesh the `u64` membership bitmaps cannot track: 64 ranks is the
/// largest mesh, and 65 fails where the caller configures it — not as a
/// rank thread panicking mid-handshake, and not by aliasing rank 64 onto
/// rank 0 in the driver's bitmaps.
#[test]
fn sixty_four_ranks_is_the_largest_mesh() {
    let _ = DistributedNomad::new(quick_config(4, 10), 64);
}

#[test]
#[should_panic(expected = "mesh capacity 65 exceeds the 64 ranks")]
fn sixty_five_ranks_rejected_at_construction() {
    let _ = DistributedNomad::new(quick_config(4, 10), 65);
}

/// A caller that builds its own mesh meets the same check at the top of
/// `run_driver`, before any rank has been contacted.
#[test]
#[should_panic(expected = "mesh capacity 65 exceeds the 64 ranks")]
fn run_driver_rejects_a_sixty_five_rank_mesh() {
    let (data, _) = tiny();
    let (driver, _ranks) = Loopback::mesh(65);
    let _ = run_driver(&driver, &data, &NetConfig::new(quick_config(4, 10)), None);
}
