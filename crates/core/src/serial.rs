//! Serial reference implementation of Algorithm 1, plus the schedule-replay
//! primitive used to verify serializability of the parallel engines.
//!
//! NOMAD's central correctness claim is that although updates run fully
//! asynchronously in parallel, "there is an equivalent update ordering in a
//! serial implementation" (Section 1).  The parallel engines in this crate
//! therefore log the order in which `(worker, item)` processing events were
//! linearized; [`replay_schedule`] re-executes exactly that sequence on a
//! single thread.  If NOMAD is serializable — and implemented correctly —
//! the replay produces bit-identical factor matrices, which the integration
//! tests assert.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nomad_cluster::{ComputeModel, RunTrace, SimTime};
use nomad_matrix::{ArrivalTrace, Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_serve::SnapshotPublisher;
use nomad_sgd::{FactorModel, HyperParams};

use nomad_telemetry::Registry;

use crate::config::NomadConfig;
use crate::hop::sweep;
use crate::online::{sample_rmse, OnlineData, OnlineOutput};
use crate::routing::Router;
use crate::telemetry::EngineTelemetry;
use crate::worker::WorkerData;

/// One linearized token-processing event: worker `q` processed item `j`.
///
/// The parallel engines emit these in their serialization order; the serial
/// engine consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingEvent {
    /// The worker that owned the token when it was processed.
    pub worker: usize,
    /// The item the token carries.
    pub item: Idx,
}

/// Serial NOMAD: Algorithm 1 executed on a single thread.
///
/// With `num_workers = 1` this is plain serial SGD over items in nomadic
/// order; with `num_workers > 1` it simulates `p` workers taking turns in
/// round-robin fashion, which preserves the algorithm's structure (static
/// user partition, per-worker queues, token passing) while remaining
/// strictly sequential.  It is the reference against which the simulated
/// and threaded engines are checked.
#[derive(Debug, Clone)]
pub struct SerialNomad {
    config: NomadConfig,
    telemetry: Option<std::sync::Arc<Registry>>,
}

impl SerialNomad {
    /// Creates the solver.
    pub fn new(config: NomadConfig) -> Self {
        Self {
            config,
            telemetry: None,
        }
    }

    /// Attaches a metric registry: every run records `engine.*` metrics
    /// into it (updates, token hops, queue depth, publishes, publish
    /// gap).  Recording never perturbs training — for a fixed seed the
    /// factors are bit-identical with or without telemetry.
    pub fn with_telemetry(mut self, registry: std::sync::Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Runs Algorithm 1 with `num_workers` virtual workers on one thread.
    ///
    /// Returns the trained model and the convergence trace; the trace's
    /// time axis charges every update at the given compute model's rate
    /// (all workers share the single physical core, as in the paper's
    /// single-core baseline configuration).
    pub fn run(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        num_workers: usize,
        compute: &ComputeModel,
    ) -> (FactorModel, RunTrace) {
        let (data, none) = (OnlineData::Batch(data), ArrivalTrace::empty());
        let out = self.run_loop(data, test, num_workers, compute, &none, None);
        (out.model, out.trace)
    }

    /// Like [`SerialNomad::run`], but additionally publishes epoch
    /// snapshots of the live model through `publisher`: one exact copy
    /// every [`SnapshotPublisher::publish_every`] updates (checked at every
    /// token, so the bound holds up to a single token's worth of updates),
    /// plus a final publish at quiesce — after the run returns, the latest
    /// snapshot is bit-identical to the returned model.
    ///
    /// Query threads holding the same publisher serve top-k answers
    /// concurrently and lock-free; the training arithmetic is untouched,
    /// so for a fixed seed this produces exactly the factors
    /// [`SerialNomad::run`] produces.
    pub fn run_serving(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        num_workers: usize,
        compute: &ComputeModel,
        publisher: &SnapshotPublisher,
    ) -> (FactorModel, RunTrace) {
        let (data, none) = (OnlineData::Batch(data), ArrivalTrace::empty());
        let out = self.run_loop(data, test, num_workers, compute, &none, Some(publisher));
        (out.model, out.trace)
    }

    /// Runs Algorithm 1 with mid-run ingestion: starting from the `warm`
    /// ratings, each batch of `arrivals` is applied once the cumulative
    /// update count reaches its arrival clock — new items mint fresh tokens
    /// (placed by [`crate::online::token_home`]), new users extend the last
    /// worker's block, and new ratings join the local slices.
    ///
    /// `test` may be indexed in the final (fully grown) coordinate space;
    /// RMSE snapshots cover the already-arrived entries only.  The returned
    /// schedule segments replay via [`crate::online::replay_online`].
    ///
    /// # Panics
    /// Panics on an empty warm start — the update-count arrival clock
    /// cannot advance without trainable ratings, so a cold start would
    /// never reach the first batch.
    pub fn run_online(
        &self,
        warm: &TripletMatrix,
        test: &TripletMatrix,
        num_workers: usize,
        compute: &ComputeModel,
        arrivals: &ArrivalTrace,
    ) -> OnlineOutput {
        let data = OnlineData::warm(warm);
        self.run_loop(data, test, num_workers, compute, arrivals, None)
    }

    /// Like [`SerialNomad::run_online`], but with live snapshot publication
    /// through `publisher` — the online counterpart of
    /// [`SerialNomad::run_serving`].  Ingested users and items appear in
    /// the served snapshots from the first post-ingestion publish onward.
    pub fn run_online_serving(
        &self,
        warm: &TripletMatrix,
        test: &TripletMatrix,
        num_workers: usize,
        compute: &ComputeModel,
        arrivals: &ArrivalTrace,
        publisher: &SnapshotPublisher,
    ) -> OnlineOutput {
        let data = OnlineData::warm(warm);
        self.run_loop(data, test, num_workers, compute, arrivals, Some(publisher))
    }

    /// The one serial loop behind [`SerialNomad::run`] (batch data, empty
    /// trace, no schedule recording), [`SerialNomad::run_online`] (streamed
    /// data, schedule recorded), and their `_serving` variants (`publisher`
    /// set).
    fn run_loop(
        &self,
        mut data: OnlineData,
        test: &TripletMatrix,
        num_workers: usize,
        compute: &ComputeModel,
        arrivals: &ArrivalTrace,
        serving: Option<&SnapshotPublisher>,
    ) -> OnlineOutput {
        assert!(num_workers > 0, "need at least one worker");
        let record = matches!(data, OnlineData::Stream(_));
        let cfg = &self.config;
        let params = cfg.params;
        let views = data.views();
        let mut model = FactorModel::init(views.nrows(), views.ncols(), params.k, cfg.seed);
        let mut partition = RowPartition::contiguous(views.nrows(), num_workers);
        let mut workers = WorkerData::build_all(views, &partition);
        if let Some(publisher) = serving {
            publisher.begin_run(views.nrows(), views.ncols(), params.k, num_workers);
        }

        let telem = self.telemetry.as_deref().map(EngineTelemetry::register);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5E41A1);
        let mut router = Router::new(cfg.routing);

        // Initial token placement: each item goes to a uniformly random
        // worker's queue (Algorithm 1, lines 7–10).
        let mut queues: Vec<std::collections::VecDeque<Idx>> =
            vec![std::collections::VecDeque::new(); num_workers];
        for j in 0..views.ncols() as Idx {
            let q = rng.gen_range(0..num_workers);
            queues[q].push_back(j);
        }

        let mut trace = RunTrace::new(data.label("NOMAD-serial"), "", 1, 1, num_workers);
        let per_update = compute.sgd_update_time(params.k);
        let per_item = compute.per_item_overhead;
        let mut elapsed = 0.0f64;
        let mut total_updates = 0u64;
        let mut next_snapshot = 0.0f64;
        let mut segments: Vec<Vec<ProcessingEvent>> = vec![Vec::new()];
        let mut next_batch = 0usize;

        // Round-robin over workers: each worker that has a token processes
        // exactly one and forwards it, mirroring Algorithm 1's outer loop.
        'outer: loop {
            let mut any_processed = false;
            for q in 0..num_workers {
                // Ingestion first: apply every batch whose arrival clock has
                // been reached, then check the stop condition — the same
                // per-token decision points every engine uses.
                while next_batch < arrivals.len()
                    && total_updates >= arrivals.batches()[next_batch].at
                {
                    let batch = &arrivals.batches()[next_batch];
                    let delta = crate::online::apply_batch(
                        data.dynamic_mut(),
                        &mut partition,
                        &mut workers,
                        batch,
                        params.k,
                        cfg.seed,
                    );
                    model.w.append_rows(&delta.new_users);
                    model.h.append_rows(&delta.new_items);
                    for offset in 0..batch.new_cols {
                        let j = (delta.first_new_item + offset) as Idx;
                        queues[crate::online::token_home(cfg.seed, j, num_workers)].push_back(j);
                    }
                    if let Some(publisher) = serving {
                        // Serve the grown space from this ingestion onward.
                        publisher.grow(model.num_users(), model.num_items());
                        publisher.publish_model(&model, total_updates);
                    }
                    next_batch += 1;
                    segments.push(Vec::new());
                    sample_rmse(&mut trace, elapsed, total_updates, &model, test);
                }
                if cfg.stop.reached(elapsed, total_updates) {
                    break 'outer;
                }
                let Some(item) = queues[q].pop_front() else {
                    continue;
                };
                any_processed = true;
                let h = model.h.row_mut(item as usize);
                let local_updates = sweep(&mut workers[q], &mut model.w, item, h, &params);
                if record {
                    segments
                        .last_mut()
                        .expect("segments is never empty")
                        .push(ProcessingEvent { worker: q, item });
                }
                total_updates += local_updates;
                elapsed += per_item + local_updates as f64 * per_update;
                trace.metrics.updates += local_updates;
                trace.metrics.tokens_processed += 1;
                if let Some(telem) = &telem {
                    telem.note_hop(local_updates, queues[q].len());
                }
                if let Some(publisher) = serving {
                    // One relaxed atomic load when not due; an exact-copy
                    // publish every `publish_every` updates otherwise.
                    publisher.publish_model_if_due(&model, total_updates);
                }
                trace
                    .metrics
                    .record_busy(q, per_item + local_updates as f64 * per_update);

                let load = |w: usize| queues[w].len();
                let dest = router.next_destination(num_workers, load, |n| rng.gen_range(0..n));
                queues[dest].push_back(item);
                trace.metrics.record_message(0, true);

                if elapsed >= next_snapshot {
                    sample_rmse(&mut trace, elapsed, total_updates, &model, test);
                    next_snapshot = elapsed + cfg.snapshot_every;
                }
            }
            if !any_processed {
                // Every queue empty — cannot happen while tokens exist, but
                // guard against an empty item set.
                break;
            }
        }
        if let Some(publisher) = serving {
            // Quiesce publish: the latest snapshot now mirrors the returned
            // model bit for bit.
            publisher.publish_model(&model, total_updates);
            if let Some(telem) = &telem {
                telem.note_publisher(publisher);
            }
        }
        sample_rmse(&mut trace, elapsed, total_updates, &model, test);
        trace.metrics.finished_at = SimTime::from_secs(elapsed);
        OnlineOutput {
            model,
            trace,
            schedule: record.then_some(segments),
        }
    }
}

/// Re-executes an explicit linearized schedule of token-processing events
/// on a single thread, starting from the model initialization that `seed`
/// and `params` define.
///
/// The schedule must have been produced by an engine that used the same
/// `partition` (worker `q` of an event only touches users in `I_q`); the
/// per-item ratings are processed in ascending-user order, the same order
/// every engine in this crate uses, so a serializable engine's factors are
/// reproduced *bit for bit*.
pub fn replay_schedule(
    data: &RatingMatrix,
    partition: &RowPartition,
    params: HyperParams,
    seed: u64,
    schedule: &[ProcessingEvent],
) -> FactorModel {
    let mut model = FactorModel::init(data.nrows(), data.ncols(), params.k, seed);
    let mut workers = WorkerData::build_all(data, partition);
    for event in schedule {
        let h = model.h.row_mut(event.item as usize);
        sweep(
            &mut workers[event.worker],
            &mut model.w,
            event.item,
            h,
            &params,
        );
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopCondition;
    use nomad_data::{named_dataset, SizeTier};
    use nomad_matrix::PartitionStrategy;

    fn tiny_dataset() -> (RatingMatrix, TripletMatrix) {
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        (ds.matrix, ds.test)
    }

    fn quick_config(k: usize) -> NomadConfig {
        NomadConfig::new(HyperParams::netflix().with_k(k))
            .with_stop(StopCondition::Updates(40_000))
            .with_snapshot_every(1e-3)
            .with_seed(11)
    }

    #[test]
    fn serial_nomad_reduces_test_rmse() {
        let (data, test) = tiny_dataset();
        let solver = SerialNomad::new(quick_config(8));
        let (_, trace) = solver.run(&data, &test, 1, &ComputeModel::hpc_core());
        let first = trace.points.first().unwrap().test_rmse;
        let last = trace.final_rmse().unwrap();
        assert!(
            last < first * 0.95,
            "RMSE should drop: first {first}, last {last}"
        );
        assert!(trace.metrics.updates >= 40_000);
    }

    #[test]
    fn multi_worker_serial_matches_algorithm_structure() {
        let (data, test) = tiny_dataset();
        let solver = SerialNomad::new(quick_config(4));
        let (_, trace) = solver.run(&data, &test, 4, &ComputeModel::hpc_core());
        assert!(trace.metrics.tokens_processed > 0);
        assert!(trace.final_rmse().unwrap().is_finite());
        // All four workers did some work.
        assert!(trace.metrics.busy_time.iter().all(|&b| b > 0.0));
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let (data, test) = tiny_dataset();
        let solver = SerialNomad::new(quick_config(4));
        let (m1, t1) = solver.run(&data, &test, 2, &ComputeModel::hpc_core());
        let (m2, t2) = solver.run(&data, &test, 2, &ComputeModel::hpc_core());
        assert_eq!(m1, m2);
        assert_eq!(t1.points, t2.points);
    }

    #[test]
    fn replay_schedule_is_deterministic_and_touches_only_owned_users() {
        let (data, _) = tiny_dataset();
        let partition = RowPartition::new(data.nrows(), 3, PartitionStrategy::Contiguous);
        let params = HyperParams::netflix().with_k(4);
        // A hand-built schedule that bounces two items around.
        let schedule = vec![
            ProcessingEvent { worker: 0, item: 0 },
            ProcessingEvent { worker: 1, item: 0 },
            ProcessingEvent { worker: 2, item: 1 },
            ProcessingEvent { worker: 0, item: 1 },
            ProcessingEvent { worker: 0, item: 0 },
        ];
        let a = replay_schedule(&data, &partition, params, 5, &schedule);
        let b = replay_schedule(&data, &partition, params, 5, &schedule);
        assert_eq!(a, b);
        // A different schedule ordering changes the result (SGD is order
        // dependent), which is exactly why serializability needs the log.
        let mut reversed = schedule.clone();
        reversed.reverse();
        let c = replay_schedule(&data, &partition, params, 5, &reversed);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_schedule_returns_initial_model() {
        let (data, _) = tiny_dataset();
        let partition = RowPartition::contiguous(data.nrows(), 2);
        let params = HyperParams::netflix().with_k(4);
        let replayed = replay_schedule(&data, &partition, params, 9, &[]);
        let fresh = FactorModel::init(data.nrows(), data.ncols(), 4, 9);
        assert_eq!(replayed, fresh);
    }

    #[test]
    #[should_panic(expected = "non-empty warm start")]
    fn online_rejects_an_empty_warm_start() {
        // A cold start can never advance the update-count arrival clock;
        // every engine rejects it up front instead of spinning.
        let (_, test) = tiny_dataset();
        let _ = SerialNomad::new(quick_config(4)).run_online(
            &nomad_matrix::TripletMatrix::new(100, 50),
            &test,
            2,
            &ComputeModel::hpc_core(),
            &nomad_matrix::ArrivalTrace::empty(),
        );
    }

    #[test]
    fn online_with_empty_trace_matches_the_batch_run() {
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        let solver = SerialNomad::new(quick_config(8));
        let (batch_model, _) = solver.run(&ds.matrix, &ds.test, 2, &ComputeModel::hpc_core());
        let online = solver.run_online(
            &ds.train,
            &ds.test,
            2,
            &ComputeModel::hpc_core(),
            &nomad_matrix::ArrivalTrace::empty(),
        );
        assert_eq!(
            batch_model, online.model,
            "an online run without arrivals must degenerate to the batch run"
        );
        assert_eq!(online.schedule.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn serving_hooks_do_not_perturb_training_and_publish_the_quiesced_model() {
        let (data, test) = tiny_dataset();
        let solver = SerialNomad::new(quick_config(8));
        let (plain, _) = solver.run(&data, &test, 2, &ComputeModel::hpc_core());
        let publisher = nomad_serve::SnapshotPublisher::new(10_000);
        let (served, trace) =
            solver.run_serving(&data, &test, 2, &ComputeModel::hpc_core(), &publisher);
        // Publishing reads the model but never writes it: bit-identical run.
        assert_eq!(plain, served);
        // The quiesced snapshot mirrors the returned model bit for bit.
        let snap = publisher.latest().expect("published at quiesce");
        assert_eq!(snap.to_model(), served);
        assert_eq!(snap.updates_at(), trace.metrics.updates);
        // Freshness: a 40k budget with a 10k interval publishes at least
        // once per interval, and consecutive publishes are never further
        // apart than the interval plus one token's worth of updates.
        assert!(publisher.snapshots_published() >= 4);
        let max_token_updates = (0..data.ncols())
            .map(|j| data.by_cols().col_nnz(j))
            .max()
            .unwrap() as u64;
        assert!(
            publisher.max_publish_gap() <= 10_000 + max_token_updates,
            "gap {} exceeds interval + one token ({max_token_updates})",
            publisher.max_publish_gap()
        );
    }

    #[test]
    fn telemetry_counts_match_the_trace_and_leave_training_untouched() {
        use nomad_telemetry::names;
        let (data, test) = tiny_dataset();
        let solver = SerialNomad::new(quick_config(8));
        let (plain, _) = solver.run(&data, &test, 2, &ComputeModel::hpc_core());
        let registry = std::sync::Arc::new(Registry::new());
        let (model, trace) = solver
            .clone()
            .with_telemetry(std::sync::Arc::clone(&registry))
            .run(&data, &test, 2, &ComputeModel::hpc_core());
        assert_eq!(plain, model, "telemetry must not perturb training");
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::UPDATES), Some(trace.metrics.updates));
        assert_eq!(
            snap.counter(names::TOKENS),
            Some(trace.metrics.tokens_processed)
        );
        assert_eq!(
            snap.histogram(names::QUEUE_DEPTH).unwrap().count,
            trace.metrics.tokens_processed
        );
    }

    #[test]
    fn online_serving_grows_the_served_space() {
        use nomad_data::{stream_split, StreamSplit};
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        let (warm, log) = stream_split(&ds.train, &StreamSplit::standard(4));
        let arrivals = log.arrival_trace(10_000.0);
        let publisher = nomad_serve::SnapshotPublisher::new(5_000);
        let solver = SerialNomad::new(quick_config(8));
        let out = solver.run_online_serving(
            &warm,
            &ds.test,
            2,
            &ComputeModel::hpc_core(),
            &arrivals,
            &publisher,
        );
        let snap = publisher.latest().unwrap();
        assert_eq!(snap.num_users(), ds.train.nrows());
        assert_eq!(snap.num_items(), ds.train.ncols());
        assert_eq!(snap.to_model(), out.model);
    }

    #[test]
    fn online_run_ingests_and_replays() {
        use nomad_data::{stream_split, StreamSplit};
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        let (warm, log) = stream_split(&ds.train, &StreamSplit::standard(4));
        let arrivals = log.arrival_trace(10_000.0);
        let solver = SerialNomad::new(quick_config(8));
        let out = solver.run_online(&warm, &ds.test, 3, &ComputeModel::hpc_core(), &arrivals);
        // The model grew to the full coordinate space.
        assert_eq!(out.model.num_users(), ds.train.nrows());
        assert_eq!(out.model.num_items(), ds.train.ncols());
        // All batches were applied (budget of 40k updates spans the trace).
        let segments = out.schedule.unwrap();
        assert_eq!(segments.len(), arrivals.len() + 1);
        // The serial engine's own linearization replays bit for bit.
        let replayed = crate::online::replay_online(
            &warm,
            &arrivals,
            solver.config.params,
            solver.config.seed,
            3,
            &segments,
        );
        assert_eq!(out.model, replayed);
    }
}
