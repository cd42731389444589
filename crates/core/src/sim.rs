//! Discrete-event NOMAD: the multi-machine / hybrid engine.
//!
//! This engine executes NOMAD's real arithmetic while a deterministic
//! discrete-event loop advances virtual time according to the compute and
//! network cost models of `nomad-cluster`.  It reproduces every structural
//! feature of the paper's distributed implementation:
//!
//! * static user partition, nomadic `(j, h_j)` tokens (Section 3.1),
//! * uniform or queue-length-based token routing (Section 3.3),
//! * the hybrid architecture: a token received from the network visits all
//!   computation threads of the machine (in random order) exactly once
//!   before being sent to another machine, and dedicated communication
//!   threads overlap network transfers with computation (Section 3.4),
//! * message batching — ~100 tokens per network message — which amortizes
//!   latency (Section 3.5),
//! * owner-computes updates, hence a serializable execution: the engine can
//!   log its linearization order and the serial replay reproduces the exact
//!   same factors (verified in integration tests).
//!
//! Because the simulated workers are driven from a single real thread, runs
//! are exactly reproducible for a given seed, regardless of the host
//! machine — which is what the experiment harness needs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nomad_cluster::{ClusterTopology, ComputeModel, EventQueue, NetworkModel, RunTrace, SimTime};
use nomad_matrix::{ArrivalTrace, Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_sgd::FactorModel;

use crate::config::NomadConfig;
use crate::hop::sweep;
use crate::online::{apply_batch, sample_rmse, token_home, OnlineData, OnlineOutput};
use crate::routing::Router;
use crate::serial::ProcessingEvent;
use crate::worker::WorkerData;

/// A token arriving at a worker's queue.
#[derive(Debug, Clone, Copy)]
struct TokenArrival {
    item: Idx,
    worker: usize,
}

/// Output of a simulated NOMAD run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The trained factor model.
    pub model: FactorModel,
    /// Convergence trace and execution metrics.
    pub trace: RunTrace,
    /// The linearized schedule of processing events, present when the run
    /// was started with [`SimNomad::run_with_schedule`].  Replaying it with
    /// [`crate::serial::replay_schedule`] reproduces `model` exactly.
    pub schedule: Option<Vec<ProcessingEvent>>,
}

/// The discrete-event NOMAD engine.
#[derive(Debug, Clone)]
pub struct SimNomad {
    config: NomadConfig,
    topology: ClusterTopology,
    network: NetworkModel,
    compute: ComputeModel,
    /// Relative speed of each worker (1.0 = nominal); used by the dynamic
    /// load-balancing experiments to model stragglers.
    worker_speeds: Vec<f64>,
    dataset_name: String,
}

impl SimNomad {
    /// Creates an engine for the given cluster configuration.
    pub fn new(
        config: NomadConfig,
        topology: ClusterTopology,
        network: NetworkModel,
        compute: ComputeModel,
    ) -> Self {
        Self {
            config,
            topology,
            network,
            compute,
            worker_speeds: vec![1.0; topology.num_workers()],
            dataset_name: String::new(),
        }
    }

    /// Labels the produced traces with a dataset name.
    pub fn with_dataset_name(mut self, name: impl Into<String>) -> Self {
        self.dataset_name = name.into();
        self
    }

    /// Sets per-worker relative speeds (1.0 = nominal, 0.5 = half speed).
    ///
    /// # Panics
    /// Panics if the slice length does not match the number of workers or
    /// any speed is not positive.
    pub fn with_worker_speeds(mut self, speeds: &[f64]) -> Self {
        assert_eq!(
            speeds.len(),
            self.topology.num_workers(),
            "need one speed per worker"
        );
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        self.worker_speeds = speeds.to_vec();
        self
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &NomadConfig {
        &self.config
    }

    /// Runs NOMAD; does not record the linearization schedule.
    pub fn run(&self, data: &RatingMatrix, test: &TripletMatrix) -> SimOutput {
        self.run_batch(data, test, false)
    }

    /// Runs NOMAD and records the linearized processing schedule for
    /// serializability verification.
    pub fn run_with_schedule(&self, data: &RatingMatrix, test: &TripletMatrix) -> SimOutput {
        self.run_batch(data, test, true)
    }

    /// Batch runs are the online loop on frozen data with an empty arrival
    /// trace — one event loop, two entry points.
    fn run_batch(&self, data: &RatingMatrix, test: &TripletMatrix, record: bool) -> SimOutput {
        let out = self.run_loop(
            OnlineData::Batch(data),
            test,
            &ArrivalTrace::empty(),
            record,
        );
        SimOutput {
            model: out.model,
            trace: out.trace,
            // With no arrivals there is exactly one segment: the flat
            // linearization the batch replay tests consume.
            schedule: out.schedule.map(|segments| segments.concat()),
        }
    }

    /// Runs NOMAD with mid-run ingestion on the simulated cluster; does not
    /// record the linearization schedule.
    ///
    /// Starting from the `warm` ratings, each batch of `arrivals` is
    /// applied once the cumulative update count reaches its arrival clock:
    /// new items mint fresh tokens whose arrival events are scheduled
    /// behind everything already queued at their home worker (so the
    /// simulated queue discipline matches the other engines' FIFO push),
    /// new users extend the last worker's block, and the per-worker rating
    /// slices are rebuilt from the grown matrix.
    ///
    /// # Panics
    /// Panics on an empty warm start — the update-count arrival clock
    /// cannot advance without trainable ratings.
    pub fn run_online(
        &self,
        warm: &TripletMatrix,
        test: &TripletMatrix,
        arrivals: &ArrivalTrace,
    ) -> OnlineOutput {
        self.run_loop(OnlineData::warm(warm), test, arrivals, false)
    }

    /// Like [`SimNomad::run_online`], but records the per-segment
    /// linearization schedule so [`crate::online::replay_online`] can
    /// verify serializability under arrivals.
    pub fn run_online_with_schedule(
        &self,
        warm: &TripletMatrix,
        test: &TripletMatrix,
        arrivals: &ArrivalTrace,
    ) -> OnlineOutput {
        self.run_loop(OnlineData::warm(warm), test, arrivals, true)
    }

    /// The one discrete-event loop behind both the batch entry points
    /// (frozen data, empty trace) and the online ones.
    fn run_loop(
        &self,
        mut data: OnlineData,
        test: &TripletMatrix,
        arrivals: &ArrivalTrace,
        record: bool,
    ) -> OnlineOutput {
        let cfg = &self.config;
        let params = cfg.params;
        let p = self.topology.num_workers();
        assert!(p > 0, "topology must have at least one worker");
        let views = data.views();
        assert!(views.ncols() > 0, "cannot start on a dataset with no items");
        let (start_rows, start_cols) = (views.nrows(), views.ncols());

        let mut model = FactorModel::init(start_rows, start_cols, params.k, cfg.seed);
        let mut partition = RowPartition::contiguous(start_rows, p);
        let mut workers = WorkerData::build_all(views, &partition);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x51_4D_4E_44);
        let mut router = Router::new(cfg.routing);

        let mut trace = RunTrace::new(
            data.label("NOMAD"),
            self.dataset_name.clone(),
            self.topology.machines,
            self.topology.cores_per_machine(),
            p,
        );
        let mut segments: Vec<Vec<ProcessingEvent>> = vec![Vec::new()];
        let mut next_batch = 0usize;

        let mut worker_free = vec![SimTime::ZERO; p];
        let mut pending = vec![0usize; p];
        let mut visited = vec![0u64; start_cols];
        let threads_per_machine = self.topology.compute_threads;
        let full_mask: u64 = if threads_per_machine >= 64 {
            u64::MAX
        } else {
            (1u64 << threads_per_machine) - 1
        };

        let mut events: EventQueue<TokenArrival> = EventQueue::new();
        // Latest arrival time scheduled per worker: minted tokens are
        // injected *behind* everything already pending at their home, which
        // reproduces the other engines' push-to-back queue discipline
        // (ties in the event queue break by insertion order).
        let mut last_arrival = vec![SimTime::ZERO; p];
        for j in 0..start_cols as Idx {
            let q = rng.gen_range(0..p);
            pending[q] += 1;
            visited[j as usize] = 1u64 << (self.topology.worker(q).thread as u64);
            events.push(SimTime::ZERO, TokenArrival { item: j, worker: q });
        }

        let token_bytes = NetworkModel::token_bytes(params.k);
        let wire_time = self.network.token_wire_time(params.k, cfg.message_batch);
        let latency = self.network.token_latency(cfg.message_batch);
        let intra_cost = self.network.intra_machine_time(token_bytes);
        let mut nic_free = vec![SimTime::ZERO; self.topology.machines];

        let mut total_updates = 0u64;
        let mut now = SimTime::ZERO;
        let mut next_snapshot = 0.0f64;

        'event_loop: while let Some(event) = events.pop() {
            // Ingestion first, then the stop condition — the same
            // per-token decision order the serial engine uses, so the two
            // engines agree on whether a batch still makes it in.
            while next_batch < arrivals.len() && total_updates >= arrivals.batches()[next_batch].at
            {
                let batch = &arrivals.batches()[next_batch];
                let delta = apply_batch(
                    data.dynamic_mut(),
                    &mut partition,
                    &mut workers,
                    batch,
                    params.k,
                    cfg.seed,
                );
                model.w.append_rows(&delta.new_users);
                model.h.append_rows(&delta.new_items);
                visited.resize(data.views().ncols(), 0);
                for offset in 0..batch.new_cols {
                    let j = (delta.first_new_item + offset) as Idx;
                    let dest = token_home(cfg.seed, j, p);
                    let t_mint = last_arrival[dest].max(event.time);
                    visited[j as usize] = 1u64 << (self.topology.worker(dest).thread as u64);
                    pending[dest] += 1;
                    last_arrival[dest] = t_mint;
                    events.push(
                        t_mint,
                        TokenArrival {
                            item: j,
                            worker: dest,
                        },
                    );
                }
                next_batch += 1;
                segments.push(Vec::new());
                sample_rmse(&mut trace, now.as_secs(), total_updates, &model, test);
            }
            if let Some(budget) = cfg.stop.seconds() {
                if event.time.as_secs() >= budget {
                    break 'event_loop;
                }
            }
            if cfg.stop.updates().is_some_and(|u| total_updates >= u) {
                break 'event_loop;
            }

            let TokenArrival { item, worker: q } = event.event;
            let start = event.time.max(worker_free[q]);

            let h = model.h.row_mut(item as usize);
            let local_updates = sweep(&mut workers[q], &mut model.w, item, h, &params);
            if record {
                segments
                    .last_mut()
                    .expect("segments is never empty")
                    .push(ProcessingEvent { worker: q, item });
            }
            let busy = self
                .compute
                .item_processing_time(params.k, local_updates as usize)
                / self.worker_speeds[q];
            let finish = start + busy;
            worker_free[q] = finish;
            pending[q] -= 1;
            now = now.max(finish);

            total_updates += local_updates;
            trace.metrics.updates += local_updates;
            trace.metrics.tokens_processed += 1;
            trace.metrics.record_busy(q, busy);

            let machine = self.topology.machine_of(q);
            let thread_bit = 1u64 << (self.topology.worker(q).thread as u64);
            visited[item as usize] |= thread_bit;

            let dest = if cfg.intra_machine_circulation
                && self.topology.is_distributed()
                && visited[item as usize] & full_mask != full_mask
            {
                // One draw over the unvisited threads, in worker order.
                let unvisited = || {
                    self.topology.workers_of_machine(machine).filter(|&w| {
                        let bit = 1u64 << (self.topology.worker(w).thread as u64);
                        visited[item as usize] & bit == 0
                    })
                };
                let pick = rng.gen_range(0..unvisited().count());
                unvisited().nth(pick).expect("pick < count")
            } else if self.topology.is_distributed() {
                let dest = loop {
                    let candidate =
                        router.next_destination(p, |w| pending[w], |n| rng.gen_range(0..n));
                    if self.topology.machine_of(candidate) != machine || self.topology.machines == 1
                    {
                        break candidate;
                    }
                };
                visited[item as usize] = 0;
                dest
            } else {
                router.next_destination(p, |w| pending[w], |n| rng.gen_range(0..n))
            };

            let same_machine = self.topology.same_machine(q, dest);
            trace.metrics.record_message(token_bytes, same_machine);
            let arrival = if same_machine {
                visited[item as usize] |= 1u64 << (self.topology.worker(dest).thread as u64);
                finish + intra_cost
            } else {
                visited[item as usize] = 1u64 << (self.topology.worker(dest).thread as u64);
                let send_start = finish.max(nic_free[machine]);
                nic_free[machine] = send_start + wire_time;
                send_start + wire_time + latency
            };
            pending[dest] += 1;
            last_arrival[dest] = last_arrival[dest].max(arrival);
            events.push(arrival, TokenArrival { item, worker: dest });

            if now.as_secs() >= next_snapshot {
                sample_rmse(&mut trace, now.as_secs(), total_updates, &model, test);
                next_snapshot = now.as_secs() + cfg.snapshot_every;
            }
        }

        sample_rmse(&mut trace, now.as_secs(), total_updates, &model, test);
        trace.metrics.finished_at = now;

        OnlineOutput {
            model,
            trace,
            schedule: record.then_some(segments),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopCondition;
    use crate::routing::RoutingPolicy;
    use crate::serial::replay_schedule;
    use nomad_data::{named_dataset, SizeTier};
    use nomad_sgd::HyperParams;

    fn tiny_dataset() -> (RatingMatrix, TripletMatrix) {
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        (ds.matrix, ds.test)
    }

    fn quick_config(k: usize, updates: u64) -> NomadConfig {
        NomadConfig::new(HyperParams::netflix().with_k(k))
            .with_stop(StopCondition::Updates(updates))
            .with_snapshot_every(1e-4)
            .with_seed(21)
    }

    fn engine(machines: usize, cores: usize, updates: u64) -> SimNomad {
        let topology = if machines == 1 {
            ClusterTopology::single_machine(cores)
        } else {
            ClusterTopology::new(machines, cores, 2)
        };
        SimNomad::new(
            quick_config(8, updates),
            topology,
            NetworkModel::hpc(),
            ComputeModel::hpc_core(),
        )
    }

    #[test]
    fn single_machine_run_converges() {
        let (data, test) = tiny_dataset();
        let out = engine(1, 4, 60_000).run(&data, &test);
        let first = out.trace.points.first().unwrap().test_rmse;
        let last = out.trace.final_rmse().unwrap();
        assert!(last < first * 0.95, "RMSE {first} -> {last} should drop");
        assert!(out.trace.metrics.updates >= 60_000);
        assert!(out.trace.metrics.inter_machine_messages == 0);
        assert!(out.schedule.is_none());
    }

    #[test]
    fn multi_machine_run_converges_and_uses_the_network() {
        let (data, test) = tiny_dataset();
        let out = engine(4, 2, 60_000).run(&data, &test);
        let first = out.trace.points.first().unwrap().test_rmse;
        let last = out.trace.final_rmse().unwrap();
        assert!(last < first * 0.95, "RMSE {first} -> {last} should drop");
        assert!(out.trace.metrics.inter_machine_messages > 0);
        assert!(out.trace.metrics.network_bytes > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let (data, test) = tiny_dataset();
        let a = engine(2, 2, 20_000).run(&data, &test);
        let b = engine(2, 2, 20_000).run(&data, &test);
        assert_eq!(a.model, b.model);
        assert_eq!(a.trace.points, b.trace.points);
        assert_eq!(a.trace.metrics, b.trace.metrics);
    }

    #[test]
    fn recorded_schedule_replays_to_identical_factors() {
        // The serializability property (Section 1): the parallel execution
        // has an equivalent serial ordering.  The simulated engine logs its
        // linearization; replaying it serially must reproduce the exact
        // same factors, bit for bit.
        let (data, test) = tiny_dataset();
        let sim = engine(2, 2, 15_000);
        let out = sim.run_with_schedule(&data, &test);
        let schedule = out.schedule.expect("schedule requested");
        let p = 2 * 2;
        let partition = RowPartition::contiguous(data.nrows(), p);
        let replayed = replay_schedule(
            &data,
            &partition,
            sim.config().params,
            sim.config().seed,
            &schedule,
        );
        assert_eq!(out.model, replayed, "serializability violated");
    }

    #[test]
    fn hybrid_circulation_reduces_network_messages() {
        let (data, test) = tiny_dataset();
        let base = quick_config(8, 30_000);
        let topology = ClusterTopology::new(4, 4, 2);
        let with_circ = SimNomad::new(
            base.with_circulation(true),
            topology,
            NetworkModel::commodity_1gbps(),
            ComputeModel::commodity_core(),
        )
        .run(&data, &test);
        let without_circ = SimNomad::new(
            base.with_circulation(false),
            topology,
            NetworkModel::commodity_1gbps(),
            ComputeModel::commodity_core(),
        )
        .run(&data, &test);
        let ratio = |t: &RunTrace| {
            t.metrics.inter_machine_messages as f64
                / (t.metrics.inter_machine_messages + t.metrics.intra_machine_messages).max(1)
                    as f64
        };
        assert!(
            ratio(&with_circ.trace) < ratio(&without_circ.trace),
            "circulation should shift messages onto the intra-machine path: {} vs {}",
            ratio(&with_circ.trace),
            ratio(&without_circ.trace)
        );
    }

    #[test]
    fn batching_messages_reaches_the_budget_sooner_on_a_slow_network() {
        // Section 3.5: ~100 tokens per network message amortize the
        // per-message latency, so on the commodity network the same update
        // budget takes far less virtual time than one token per message.
        let (data, test) = tiny_dataset();
        let topology = ClusterTopology::new(4, 4, 2);
        let elapsed = |batch| {
            SimNomad::new(
                quick_config(8, 30_000).with_message_batch(batch),
                topology,
                NetworkModel::commodity_1gbps(),
                ComputeModel::commodity_core(),
            )
            .run(&data, &test)
            .trace
            .elapsed()
        };
        let (batched, unbatched) = (elapsed(100), elapsed(1));
        assert!(
            batched < unbatched,
            "batch 100 took {batched} s of virtual time, batch 1 {unbatched} s"
        );
    }

    #[test]
    fn load_balanced_routing_helps_with_stragglers() {
        // One of four workers runs at 1/4 speed.  With uniform routing the
        // straggler holds a long queue; with least-loaded routing total
        // progress per unit virtual time is at least as good.
        let (data, test) = tiny_dataset();
        let topology = ClusterTopology::single_machine(4);
        let speeds = [0.25, 1.0, 1.0, 1.0];
        let budget = StopCondition::Seconds(2e-3);
        let mk = |routing| {
            SimNomad::new(
                quick_config(8, u64::MAX)
                    .with_stop(budget)
                    .with_routing(routing),
                topology,
                NetworkModel::shared_memory(),
                ComputeModel::hpc_core(),
            )
            .with_worker_speeds(&speeds)
        };
        let uniform = mk(RoutingPolicy::UniformRandom).run(&data, &test);
        let balanced = mk(RoutingPolicy::LeastLoaded).run(&data, &test);
        assert!(
            balanced.trace.metrics.updates as f64 >= 0.95 * uniform.trace.metrics.updates as f64,
            "least-loaded ({}) should process at least as many updates as uniform ({})",
            balanced.trace.metrics.updates,
            uniform.trace.metrics.updates
        );
    }

    #[test]
    fn worker_speeds_validation() {
        let sim = engine(1, 2, 100);
        let ok = sim.clone().with_worker_speeds(&[1.0, 0.5]);
        assert_eq!(ok.worker_speeds, vec![1.0, 0.5]);
        let result = std::panic::catch_unwind(|| engine(1, 2, 100).with_worker_speeds(&[1.0]));
        assert!(result.is_err());
    }

    fn streamed_tiny() -> (TripletMatrix, TripletMatrix, ArrivalTrace) {
        use nomad_data::{stream_split, StreamSplit};
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        let (warm, log) = stream_split(&ds.train, &StreamSplit::standard(4));
        (warm, ds.test, log.arrival_trace(5_000.0))
    }

    #[test]
    fn online_runs_are_deterministic_and_grow_the_model() {
        let (warm, test, arrivals) = streamed_tiny();
        let sim = engine(2, 2, 30_000);
        let a = sim.run_online(&warm, &test, &arrivals);
        let b = sim.run_online(&warm, &test, &arrivals);
        assert_eq!(a.model, b.model);
        assert_eq!(a.trace.points, b.trace.points);
        assert!(a.schedule.is_none());
        let (rows, cols) = arrivals.final_dims(warm.nrows(), warm.ncols());
        assert_eq!(a.model.num_users(), rows);
        assert_eq!(a.model.num_items(), cols);
        assert!(a.trace.metrics.updates >= 30_000);
    }

    #[test]
    fn online_schedule_replays_to_identical_factors() {
        // Serializability under arrivals: the simulated multi-machine online
        // run is still equivalent to a serial ordering of its updates,
        // interleaved with the ingestion points.
        let (warm, test, arrivals) = streamed_tiny();
        let sim = engine(2, 2, 25_000);
        let out = sim.run_online_with_schedule(&warm, &test, &arrivals);
        let segments = out.schedule.expect("schedule requested");
        let replayed = crate::online::replay_online(
            &warm,
            &arrivals,
            sim.config().params,
            sim.config().seed,
            4,
            &segments,
        );
        assert_eq!(
            out.model, replayed,
            "serializability violated under arrivals"
        );
    }

    #[test]
    fn commodity_network_is_slower_than_hpc_in_virtual_time() {
        // Same update budget; the commodity network must need more virtual
        // seconds (communication is the bottleneck on yahoo-shaped data).
        let ds = named_dataset("yahoo-sim", SizeTier::Tiny).unwrap().build();
        let cfg = quick_config(8, 30_000);
        let topology = ClusterTopology::commodity(4);
        let hpc = SimNomad::new(cfg, topology, NetworkModel::hpc(), ComputeModel::hpc_core())
            .run(&ds.matrix, &ds.test);
        let aws = SimNomad::new(
            cfg,
            topology,
            NetworkModel::commodity_1gbps(),
            ComputeModel::hpc_core(),
        )
        .run(&ds.matrix, &ds.test);
        assert!(
            aws.trace.elapsed() > hpc.trace.elapsed(),
            "commodity {} should be slower than HPC {}",
            aws.trace.elapsed(),
            hpc.trace.elapsed()
        );
    }
}
