//! # nomad
//!
//! A full Rust reproduction of *NOMAD: Non-locking, stOchastic,
//! Multi-machine algorithm for Asynchronous and Decentralized matrix
//! completion* (Yun, Yu, Hsieh, Vishwanathan, Dhillon — VLDB 2014).
//!
//! This facade crate re-exports the workspace's public API so that
//! applications (and the `examples/`) can depend on a single crate:
//!
//! * [`matrix`] — sparse rating storage, partitioning, train/test splits,
//! * [`linalg`] — the small dense kernels (dot/axpy, Cholesky),
//! * [`data`] — synthetic dataset generators shaped like Netflix,
//!   Yahoo! Music and Hugewiki, plus loaders for real data,
//! * [`sgd`] — the factor model, objective/RMSE, SGD/ALS/CCD update rules
//!   and step-size schedules,
//! * [`cluster`] — the discrete-event cluster simulator (virtual time,
//!   network and compute cost models, topologies),
//! * [`core`] — the NOMAD algorithm itself: serial reference, real
//!   multi-threaded engine with one token queue per worker, and the simulated
//!   multi-machine/hybrid engine,
//! * [`serve`] — low-latency top-k recommendation serving over
//!   live-training models: epoch-published immutable snapshots, a
//!   lock-free publisher, and an exact brute-force query engine with
//!   batching and seen-item filtering,
//! * [`net`] — real multi-process distributed NOMAD over localhost TCP:
//!   a hand-rolled wire codec, pluggable transports (in-memory loopback,
//!   TCP, re-exec'd rank processes), and a driver that scatters shards
//!   and gathers a token-conserving model,
//! * [`baselines`] — every comparison algorithm from the paper's
//!   evaluation (DSGD, DSGD++, CCD++, FPSGD**, ALS, ASGD, GraphLab-ALS,
//!   serial SGD),
//! * [`eval`] — the experiment harness that regenerates the paper's
//!   figures and tables,
//! * [`telemetry`] — zero-cost metrics (sharded counters, gauges,
//!   log-scale histograms), a bounded lock-free event ring, and the
//!   `nomad-telemetry-v1` JSONL dump format; every engine and the
//!   distributed mesh record into it.
//!
//! ## Quick start
//!
//! ```
//! use nomad::data::{named_dataset, SizeTier};
//! use nomad::core::{NomadConfig, SimNomad, StopCondition};
//! use nomad::eval::ClusterSpec;
//! use nomad::sgd::HyperParams;
//!
//! // A tiny Netflix-shaped synthetic dataset (train/test already split).
//! let dataset = named_dataset("netflix-sim", SizeTier::Tiny).unwrap().build();
//!
//! // NOMAD on a simulated 4-machine HPC cluster, two epochs of updates.
//! let spec = ClusterSpec::hpc(4);
//! let updates = dataset.matrix.nnz() as u64 * 2;
//! let config = NomadConfig::new(HyperParams::netflix().with_k(8))
//!     .with_stop(StopCondition::Updates(updates));
//! let out = SimNomad::new(config, spec.topology, spec.network, spec.compute)
//!     .run(&dataset.matrix, &dataset.test);
//!
//! let first = out.trace.points.first().unwrap().test_rmse;
//! let last = out.trace.final_rmse().unwrap();
//! assert!(last < first, "test RMSE improves: {first} -> {last}");
//! ```
//!
//! ## Online / streaming workloads
//!
//! NOMAD keeps training while ratings — and brand new users and items —
//! arrive.  Hold back part of a dataset as a replayable stream and ingest
//! it mid-run (the same code block is the README's streaming quickstart):
//!
//! ```
//! use nomad::cluster::ComputeModel;
//! use nomad::core::{NomadConfig, SerialNomad, StopCondition};
//! use nomad::data::{named_dataset, stream_split, SizeTier, StreamSplit};
//! use nomad::sgd::HyperParams;
//!
//! let dataset = named_dataset("netflix-sim", SizeTier::Tiny).unwrap().build();
//! // ~80% warm start; ~20% — including unseen users and items — held back
//! // as four timestamped arrival batches.
//! let (warm, log) = stream_split(&dataset.train, &StreamSplit::standard(42));
//! let arrivals = log.arrival_trace(5_000.0); // stream seconds → update clock
//!
//! let config = NomadConfig::new(HyperParams::netflix().with_k(8))
//!     .with_stop(StopCondition::Updates(40_000));
//! let out = SerialNomad::new(config)
//!     .run_online(&warm, &dataset.test, 2, &ComputeModel::hpc_core(), &arrivals);
//!
//! // Every arrival was ingested: the model grew to the full space.
//! assert_eq!(out.model.num_users(), dataset.train.nrows());
//! assert_eq!(out.model.num_items(), dataset.train.ncols());
//! ```
//!
//! The threaded and simulated engines take the same `arrivals` via their
//! own `run_online`; `examples/streaming_recommender.rs` runs all three
//! against a batch retrain.
//!
//! ## Serving top-k recommendations while training runs
//!
//! Training never stops for queries and queries never wait for training:
//! the engines publish **epoch snapshots** of the live model through a
//! [`serve::SnapshotPublisher`] (at most `publish_every` updates apart),
//! and query threads answer exact top-k against the latest epoch with a
//! handful of atomic operations — no lock the trainers contend on (the
//! same code block is the README's serving quickstart):
//!
//! ```
//! use std::sync::Arc;
//! use nomad::cluster::ComputeModel;
//! use nomad::core::{NomadConfig, SerialNomad, StopCondition};
//! use nomad::data::{named_dataset, SizeTier};
//! use nomad::serve::{QueryEngine, SnapshotPublisher};
//! use nomad::sgd::HyperParams;
//!
//! let dataset = named_dataset("netflix-sim", SizeTier::Tiny).unwrap().build();
//! let publisher = Arc::new(SnapshotPublisher::new(10_000));
//!
//! // Train in the background, publishing a snapshot every 10k updates.
//! let trainer = {
//!     let publisher = Arc::clone(&publisher);
//!     let (data, test) = (dataset.matrix.clone(), dataset.test.clone());
//!     std::thread::spawn(move || {
//!         let config = NomadConfig::new(HyperParams::netflix().with_k(8))
//!             .with_stop(StopCondition::Updates(40_000));
//!         SerialNomad::new(config)
//!             .run_serving(&data, &test, 2, &ComputeModel::hpc_core(), &publisher)
//!     })
//! };
//!
//! // Serve exact top-8 recommendations while training runs.
//! let engine = QueryEngine::new(&publisher, 1);
//! while publisher.latest().is_none() {
//!     std::thread::yield_now(); // training hasn't hit the first epoch yet
//! }
//! let top = engine.top_k(0, 8, &[]).unwrap();
//! assert_eq!(top.recs.len(), 8);
//!
//! // After the run quiesces, the served snapshot IS the trained model.
//! let (model, _) = trainer.join().unwrap();
//! assert_eq!(publisher.latest().unwrap().to_model(), model);
//! assert!(engine.top_k(0, 8, &[]).unwrap().updates_at >= 40_000);
//!
//! // Approximate serving: probe only 4 cells of the IVF shortlist index
//! // and exact-rerank — every returned score is still the true ⟨w, h⟩,
//! // so nothing can outscore the exact winner (probing every centroid
//! // would be bit-identical to the exact scan).
//! let exact = engine.top_k(0, 8, &[]).unwrap();
//! let approx = engine.top_k_approx(0, 8, 4, &[]).unwrap();
//! assert!(approx.recs.iter().all(|r| r.score <= exact.recs[0].score));
//! ```
//!
//! The threaded engine serves the same way (`run_serving` /
//! `run_online_serving`); its mid-run snapshots are built cooperatively by
//! the training workers so the hot path stays allocation-free —
//! `examples/live_serving.rs` runs it end to end.  The approximate path
//! ([`serve::QueryEngine::top_k_approx`]) shortlists via seeded k-means
//! posting lists and reranks every answer exactly; `DESIGN.md`
//! § Approximate serving covers the index and the delta-snapshot
//! publishing that keeps it fresh.
//!
//! ## Distributed (multi-process) runs
//!
//! The paper's headline configuration — machines exchanging `(j, h_j)`
//! tokens asynchronously over a network — runs for real via [`net`]: the
//! SGD hot path is byte-for-byte the threaded engine's, and only the
//! transport underneath differs (the same code block is the README's
//! distributed quickstart):
//!
//! ```
//! use nomad::core::{NomadConfig, StopCondition};
//! use nomad::data::{named_dataset, SizeTier};
//! use nomad::net::DistributedNomad;
//! use nomad::sgd::HyperParams;
//!
//! let dataset = named_dataset("netflix-sim", SizeTier::Tiny).unwrap().build();
//! let config = NomadConfig::new(HyperParams::netflix().with_k(8))
//!     .with_stop(StopCondition::Updates(40_000));
//! // Loopback transport: same engine, no sockets — ideal for tests.  Use
//! // `run_tcp_threads` for real sockets, or `run_processes` from a binary
//! // that calls `nomad::net::child_entry()` first (as `benchmark/src/main.rs`
//! // does) for true multi-process ranks.
//! let out = DistributedNomad::new(config, 2).run_loopback(&dataset.matrix).unwrap();
//! assert!(out.stats.updates >= 40_000);
//! ```
//!
//! At one rank with a fixed seed the distributed engine reassembles a
//! model **bit-identical** to [`core::SerialNomad`]'s — the same
//! correctness anchor the threaded and simulated engines carry — and at
//! every quiesce the gathered token pass counts must sum to the tickets
//! drawn across all ranks (token conservation).
//!
//! ## Serving over the distributed mesh
//!
//! The two previous sections compose: with `serve_publish_every` set,
//! every rank runs a [`serve::SnapshotPublisher`] over its user shard and
//! a [`net::ServeRouter`] answers per-user top-k queries against the
//! *training mesh* — with per-query deadlines, one send per owning rank,
//! load shedding, and failover to a driver-held stale replica when the
//! owning rank is evicted mid-run.  Every query resolves: fresh, stale
//! with an explicit staleness bound, shed, or a terminal run-over notice
//! once training has gathered — never a hang (the same code block is the
//! README's distributed-serving quickstart):
//!
//! ```
//! use std::time::Duration;
//! use nomad::core::{NomadConfig, StopCondition};
//! use nomad::data::{named_dataset, SizeTier};
//! use nomad::net::{Answer, DistributedNomad, NetConfig, RouterConfig, ServeError, ServeRouter};
//! use nomad::sgd::HyperParams;
//!
//! let dataset = named_dataset("netflix-sim", SizeTier::Tiny).unwrap().build();
//! let nomad = NomadConfig::new(HyperParams::netflix().with_k(8))
//!     .with_stop(StopCondition::Updates(40_000));
//! let mut config = NetConfig::new(nomad);
//! config.serve_publish_every = 500; // each rank snapshots its shard
//! let router = ServeRouter::new(RouterConfig::default());
//!
//! let engine = DistributedNomad::with_config(config, 2);
//! std::thread::scope(|scope| {
//!     scope.spawn(|| loop {
//!         match router.query(0, 5, vec![]) {
//!             // Run gathered — switch to the returned model.
//!             Ok(Answer::RunOver) => break,
//!             // Fresh from the owner, or Stale with a staleness bound.
//!             Ok(_) => {}
//!             // Overloaded: back off and retry.
//!             Err(ServeError::Shed { .. }) => std::thread::sleep(Duration::from_millis(1)),
//!             Err(e) => panic!("{e}"),
//!         }
//!     });
//!     engine.run_loopback_serving(&dataset.matrix, &[], &router).unwrap();
//! });
//! let stats = router.stats();
//! assert_eq!(stats.resolved(), stats.submitted, "zero hung queries");
//! assert!(stats.successes() > 0);
//! ```
//!
//! `run_processes_serving` does the same over re-exec'd rank processes;
//! the chaos suite kills the rank being queried mid-run and asserts every
//! in-flight query still resolves within its deadline.
//!
//! ## Observability: metrics and fleet telemetry
//!
//! Every engine accepts a [`telemetry::Registry`] via `with_telemetry`.
//! Registration (a lock, a few allocations) happens once at run setup;
//! recording a token hop afterwards is three relaxed atomic operations,
//! so the hot path stays allocation-free — the counting-allocator test
//! re-proves zero heap allocations per steady-state hop *with* telemetry
//! attached.  In the distributed engine each rank streams cumulative
//! snapshots of its registry to the driver, which merges them into a
//! fleet view (`NetStats::telemetry()`); ranks evicted mid-run stay
//! frozen at their last report, so their work is counted exactly once
//! (the same code block is the README's telemetry quickstart):
//!
//! ```
//! use std::sync::Arc;
//! use nomad::core::{NomadConfig, StopCondition, ThreadedNomad};
//! use nomad::data::{named_dataset, SizeTier};
//! use nomad::sgd::HyperParams;
//! use nomad::telemetry::{names, render_jsonl_line, validate_jsonl_line, Registry};
//!
//! let dataset = named_dataset("netflix-sim", SizeTier::Tiny).unwrap().build();
//! let config = NomadConfig::new(HyperParams::netflix().with_k(8))
//!     .with_stop(StopCondition::Updates(20_000));
//!
//! let registry = Arc::new(Registry::new());
//! ThreadedNomad::new(config)
//!     .with_telemetry(Arc::clone(&registry))
//!     .run(&dataset.matrix, &dataset.test, 2, 1);
//!
//! let snap = registry.snapshot();
//! assert!(snap.counter(names::UPDATES).unwrap() >= 20_000);
//! assert!(snap.histogram(names::QUEUE_DEPTH).unwrap().p99().is_some());
//!
//! // One `nomad-telemetry-v1` JSONL line per scope, schema-checked.
//! let line = render_jsonl_line("train", &snap, None);
//! validate_jsonl_line(&line).unwrap();
//! ```
//!
//! The serving router keeps its `serve.*` counters and latency histogram
//! in the same kind of registry, and rebuilds `RouterStats` from it.

/// Sparse rating-matrix substrate (re-export of `nomad-matrix`).
pub use nomad_matrix as matrix;

/// Small dense linear algebra (re-export of `nomad-linalg`).
pub use nomad_linalg as linalg;

/// Dataset generators and loaders (re-export of `nomad-data`).
pub use nomad_data as data;

/// Optimization substrate: model, objective, updates, schedules
/// (re-export of `nomad-sgd`).
pub use nomad_sgd as sgd;

/// Discrete-event cluster simulation substrate (re-export of
/// `nomad-cluster`).
pub use nomad_cluster as cluster;

/// The NOMAD algorithm (re-export of `nomad-core`).
pub use nomad_core as core;

/// Top-k serving over live-training models (re-export of `nomad-serve`).
pub use nomad_serve as serve;

/// Multi-process distributed NOMAD over TCP (re-export of `nomad-net`).
pub use nomad_net as net;

/// Baseline solvers (re-export of `nomad-baselines`).
pub use nomad_baselines as baselines;

/// Experiment harness (re-export of `nomad-eval`).
pub use nomad_eval as eval;

/// Zero-cost metrics, event tracing and fleet telemetry (re-export of
/// `nomad-telemetry`).
pub use nomad_telemetry as telemetry;
