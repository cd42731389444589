//! Anchors for the shared hop kernel (`nomad::core::hop`): every engine
//! runs the same `sweep` and routes through the same `Router`, so
//!
//! * **Golden pins** — 64-bit FNV-1a hashes of the trained factors for
//!   fixed seeds, recorded at the commit *before* the engines were moved
//!   onto the shared kernel.  They cover multi-worker runs under all three
//!   routing policies, which is what proves each engine's RNG draw order
//!   and round-robin cursor sequence survived: the p = 1 anchors cannot
//!   see routing at all, because with one worker every route is 0.
//! * **One worker, same seed ⇒ same bits** across the serial, threaded,
//!   simulated and loopback engines, in one table.

use nomad::cluster::{ClusterTopology, ComputeModel, NetworkModel};
use nomad::core::{
    NomadConfig, RoutingPolicy, SerialNomad, SimNomad, StopCondition, ThreadedNomad,
};
use nomad::data::{named_dataset, stream_split, GeneratedDataset, SizeTier, StreamSplit};
use nomad::net::{Deployment, DistributedNomad};
use nomad::sgd::{FactorModel, HyperParams};

const POLICIES: [RoutingPolicy; 3] = [
    RoutingPolicy::UniformRandom,
    RoutingPolicy::LeastLoaded,
    RoutingPolicy::RoundRobin,
];

fn tiny() -> GeneratedDataset {
    named_dataset("netflix-sim", SizeTier::Tiny)
        .unwrap()
        .build()
}

fn config(routing: RoutingPolicy) -> NomadConfig {
    NomadConfig::new(HyperParams::netflix().with_k(8))
        .with_stop(StopCondition::Updates(20_000))
        .with_routing(routing)
        .with_seed(1234)
}

/// FNV-1a over the bit patterns of `W` then `H`, row-major.
fn fnv64(model: &FactorModel) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for value in model.w.as_slice().iter().chain(model.h.as_slice()) {
        for byte in value.to_bits().to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

fn sim(cfg: NomadConfig, topology: ClusterTopology) -> SimNomad {
    SimNomad::new(cfg, topology, NetworkModel::hpc(), ComputeModel::hpc_core())
}

/// Recorded at the parent of the commit that introduced
/// `nomad::core::hop` (netflix-sim Tiny, k = 8, seed 1234, 20 000 updates).
const GOLDEN: [(&str, u64); 9] = [
    ("serial p=3 UniformRandom", 0x44A9_623E_19D5_C34E),
    ("serial p=3 LeastLoaded", 0xC34D_2D66_AC7B_A9AA),
    ("serial p=3 RoundRobin", 0x0DC9_FF33_4516_DA44),
    ("sim 2x2 UniformRandom", 0xA236_5587_AB77_0A5E),
    ("sim 2x2 LeastLoaded", 0x9B6E_7EDB_905F_962B),
    ("sim 2x2 RoundRobin", 0xA726_1463_9D2F_FDD2),
    ("serial online p=3", 0x1520_AF4A_A4A3_32D6),
    ("threaded p=1", 0x4169_9B6B_B68D_E63B),
    ("loopback 1 rank", 0x4169_9B6B_B68D_E63B),
];

#[test]
fn golden_pins_hold_bit_for_bit() {
    let ds = tiny();
    let compute = ComputeModel::hpc_core();
    let uniform = config(RoutingPolicy::UniformRandom);
    let mut pins = GOLDEN.iter();
    let mut check = |name: &str, model: &FactorModel| {
        let (pinned_name, pinned) = pins.next().expect("more runs than pins");
        assert_eq!(name, *pinned_name);
        let hash = fnv64(model);
        assert_eq!(
            hash, *pinned,
            "{name}: trained factors hash to {hash:#018X}"
        );
    };
    for policy in POLICIES {
        let (model, _) = SerialNomad::new(config(policy)).run(&ds.matrix, &ds.test, 3, &compute);
        check(&format!("serial p=3 {policy:?}"), &model);
    }
    for policy in POLICIES {
        let out = sim(config(policy), ClusterTopology::new(2, 2, 2)).run(&ds.matrix, &ds.test);
        check(&format!("sim 2x2 {policy:?}"), &out.model);
    }
    let (warm, log) = stream_split(&ds.train, &StreamSplit::standard(4));
    let arrivals = log.arrival_trace(4_000.0);
    let online = SerialNomad::new(uniform).run_online(&warm, &ds.test, 3, &compute, &arrivals);
    check("serial online p=3", &online.model);
    let threaded = ThreadedNomad::new(uniform).run(&ds.matrix, &ds.test, 1, 2);
    check("threaded p=1", &threaded.model);
    let loopback =
        DistributedNomad::new(uniform, 1).run(&ds.matrix, Deployment::Loopback(&[]), None);
    check("loopback 1 rank", &loopback.expect("loopback run").model);
    assert!(pins.next().is_none(), "a pinned run was skipped");
}

/// With one worker there is a canonical processing order, and all four
/// engines run the same `sweep` — so the same seed gives the same bits,
/// whichever scheduler drove the hops.
#[test]
fn one_worker_same_seed_same_bits_across_all_four_engines() {
    let ds = tiny();
    let cfg = config(RoutingPolicy::UniformRandom);
    let (serial, _) = SerialNomad::new(cfg).run(&ds.matrix, &ds.test, 1, &ComputeModel::hpc_core());
    let threaded = ThreadedNomad::new(cfg).run(&ds.matrix, &ds.test, 1, 1);
    let simulated = sim(cfg, ClusterTopology::single_machine(1)).run(&ds.matrix, &ds.test);
    let loopback = DistributedNomad::new(cfg, 1).run(&ds.matrix, Deployment::Loopback(&[]), None);
    let engines = [
        ("threaded(1)", threaded.model),
        ("sim(1x1)", simulated.model),
        ("loopback(1 rank)", loopback.expect("loopback run").model),
    ];
    for (name, model) in engines {
        assert_eq!(model, serial, "{name} must match SerialNomad bit for bit");
    }
}
