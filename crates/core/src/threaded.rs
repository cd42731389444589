//! Real multi-threaded NOMAD on lock-free queues.
//!
//! This is the shared-memory implementation the paper describes in
//! Sections 3.1 and 3.5: one worker thread per core, one concurrent queue
//! per worker (the paper uses Intel TBB's concurrent queue; we use
//! `crossbeam`'s lock-free `SegQueue`), nomadic item tokens, and
//! owner-computes SGD updates on the worker's statically-assigned users —
//! no locks anywhere on the hot path.
//!
//! Since PR 3 the hot path is also **allocation-free**: item factors live
//! in a single flat [`FactorSlab`] arena owned by the engine, and a token
//! is just the `(item, pass)` index pair — popping token `j` *is* taking
//! ownership of slab row `j` (see [`crate::slab`] for the safety
//! argument), so nothing is boxed, copied or locked per hop.  With
//! schedule recording off ([`NomadConfig::record_schedule`]), a steady-
//! state token hop performs zero heap allocations, which an
//! allocation-counting test asserts.
//!
//! The engine also produces the evidence for the paper's serializability
//! claim: every token-processing event draws a ticket from a global atomic
//! counter, and because a worker's own events are sequential and a token is
//! pushed to the next queue only after its processing finished, the ticket
//! order is a valid linearization of the execution.  Replaying that
//! linearization with [`crate::serial::replay_schedule`] reproduces the
//! trained factors bit for bit (asserted in tests).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::queue::SegQueue;
use nomad_telemetry::Registry;

use nomad_cluster::{RunTrace, SimTime};
use nomad_matrix::{ArrivalTrace, Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_serve::SnapshotPublisher;
use nomad_sgd::{FactorMatrix, FactorModel};

use crate::config::NomadConfig;
use crate::hop::{HopContext, HopKernel, Token, UserRows};
use crate::online::{apply_batch, sample_rmse, token_home, OnlineData, OnlineOutput};
use crate::serial::ProcessingEvent;
use crate::slab::FactorSlab;
use crate::telemetry::EngineTelemetry;
use crate::worker::WorkerData;

/// Output of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedOutput {
    /// The trained model (user factors gathered from all workers, item
    /// factors gathered from the slab).
    pub model: FactorModel,
    /// Wall-clock convergence trace (one point per snapshot round).
    pub trace: RunTrace,
    /// The linearized schedule (ticket order), for serializability checks.
    /// Empty when the run was configured with
    /// [`NomadConfig::with_schedule_recording`]`(false)`.
    pub schedule: Vec<ProcessingEvent>,
}

/// The multi-threaded NOMAD engine.
#[derive(Debug, Clone)]
pub struct ThreadedNomad {
    config: NomadConfig,
    telemetry: Option<Arc<Registry>>,
}

impl ThreadedNomad {
    /// Creates the engine.
    pub fn new(config: NomadConfig) -> Self {
        Self {
            config,
            telemetry: None,
        }
    }

    /// Attaches a metric registry: every run records `engine.*` metrics
    /// into it (updates, token hops, queue depth, publishes, publish
    /// gap).  Registration happens once at run setup; the per-hop cost
    /// is three relaxed atomic operations, so the hot path stays
    /// allocation-free (re-proven by `tests/alloc_free.rs`, which runs
    /// with telemetry attached).
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &NomadConfig {
        &self.config
    }

    /// Runs NOMAD on `num_threads` worker threads.
    ///
    /// The total update budget from the stop condition is divided into
    /// `snapshots` rounds; between rounds the workers quiesce so that test
    /// RMSE can be evaluated on a consistent model, which produces the
    /// convergence trace.  `snapshots = 1` measures pure throughput.
    ///
    /// # Panics
    /// Panics if `num_threads == 0`, `snapshots == 0`, or the stop
    /// condition carries no update budget (wall-clock budgets are not
    /// meaningful for reproducible tests, so this engine requires
    /// [`crate::config::StopCondition::Updates`] or `Either`).
    pub fn run(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        num_threads: usize,
        snapshots: usize,
    ) -> ThreadedOutput {
        self.run_batch(data, test, num_threads, snapshots, None)
    }

    /// Like [`ThreadedNomad::run`], but additionally publishes epoch
    /// snapshots of the live model through `publisher` (roughly every
    /// [`SnapshotPublisher::publish_every`] updates) so that concurrent
    /// query threads can serve top-k recommendations while training runs.
    ///
    /// Mid-run snapshots are built **cooperatively** by the worker threads
    /// themselves — each worker copies the item rows it currently owns and
    /// its own user block, reusing NOMAD's token-ownership argument, so the
    /// hot path stays lock-free and allocation-free (the counting-allocator
    /// test runs this entry point).  At every quiesce point the assembled
    /// model is force-published, so after the run returns, the latest
    /// snapshot is bit-identical to the returned model.
    ///
    /// The training arithmetic is untouched: for a fixed seed this produces
    /// exactly the factors [`ThreadedNomad::run`] produces.
    pub fn run_serving(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        num_threads: usize,
        snapshots: usize,
        publisher: &SnapshotPublisher,
    ) -> ThreadedOutput {
        self.run_batch(data, test, num_threads, snapshots, Some(publisher))
    }

    /// Batch runs are the round loop on frozen data with an empty arrival
    /// trace — one round loop, two kinds of entry point.
    fn run_batch(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        num_threads: usize,
        snapshots: usize,
        serving: Option<&SnapshotPublisher>,
    ) -> ThreadedOutput {
        let (data, none) = (OnlineData::Batch(data), ArrivalTrace::empty());
        let out = self.run_rounds(data, test, num_threads, &none, snapshots, serving);
        ThreadedOutput {
            model: out.model,
            trace: out.trace,
            // With no arrivals there is exactly one segment: the flat
            // linearization the batch replay tests consume.
            schedule: out.schedule.unwrap_or_default().concat(),
        }
    }

    /// Runs NOMAD on `num_threads` worker threads with mid-run ingestion.
    ///
    /// Each arrival batch defines a quiesce point: the workers run until
    /// the cumulative update count reaches the batch's arrival clock, drain
    /// to a consistent state, and the batch is applied — new items extend
    /// the factor slab and are minted as fresh tokens, new users extend the
    /// last worker's owned block, and the per-worker rating slices are
    /// rebuilt from the grown [`nomad_matrix::DynamicMatrix`].  A final round then runs
    /// to the update budget.
    ///
    /// The returned per-segment schedules replay via
    /// [`crate::online::replay_online`], which is how the serializability
    /// invariant is re-verified under arrivals.
    ///
    /// # Panics
    /// Panics if `num_threads == 0`, the stop condition carries no update
    /// budget, or the warm start is empty (the update-count arrival clock
    /// cannot advance without trainable ratings, so the workers would spin
    /// forever without reaching the first batch).
    pub fn run_online(
        &self,
        warm: &TripletMatrix,
        test: &TripletMatrix,
        num_threads: usize,
        arrivals: &ArrivalTrace,
    ) -> OnlineOutput {
        self.run_rounds(OnlineData::warm(warm), test, num_threads, arrivals, 1, None)
    }

    /// Like [`ThreadedNomad::run_online`], but with live snapshot
    /// publication through `publisher` — the online counterpart of
    /// [`ThreadedNomad::run_serving`].  Ingested users and items appear in
    /// the served snapshots from the first post-ingestion publish onward
    /// (the publisher's dimensions are grown at the same quiesce point that
    /// grows the factor slab).
    pub fn run_online_serving(
        &self,
        warm: &TripletMatrix,
        test: &TripletMatrix,
        num_threads: usize,
        arrivals: &ArrivalTrace,
        publisher: &SnapshotPublisher,
    ) -> OnlineOutput {
        let data = OnlineData::warm(warm);
        self.run_rounds(data, test, num_threads, arrivals, 1, Some(publisher))
    }

    /// The one spawn-round-quiesce loop behind every entry point: one
    /// round per arrival clock (capped at the budget so the run never
    /// exceeds it), then `snapshots` evenly spaced rounds to the budget.
    /// Every round ends quiesced — workers joined, every token in exactly
    /// one queue — which is where a reached batch is ingested, the exact
    /// model is assembled and published, and test RMSE is sampled.
    fn run_rounds(
        &self,
        mut data: OnlineData,
        test: &TripletMatrix,
        num_threads: usize,
        arrivals: &ArrivalTrace,
        snapshots: usize,
        serving: Option<&SnapshotPublisher>,
    ) -> OnlineOutput {
        assert!(num_threads > 0, "need at least one thread");
        assert!(snapshots > 0, "need at least one snapshot round");
        let cfg = &self.config;
        let params = cfg.params;
        let total_budget = cfg
            .stop
            .updates()
            .expect("ThreadedNomad requires an update budget in the stop condition");

        // Initialize exactly like every other engine so that the replay in
        // the serializability test starts from the same factors.
        let views = data.views();
        let (start_rows, start_cols) = (views.nrows(), views.ncols());
        let mut model = FactorModel::init(start_rows, start_cols, params.k, cfg.seed);
        let mut partition = RowPartition::contiguous(start_rows, num_threads);
        let mut per_worker = WorkerData::build_all(views, &partition);

        // Split the user factors into per-worker owned chunks; the item
        // factors move into the shared slab.
        let mut owned: Vec<OwnedUsers> = (0..num_threads)
            .map(|q| OwnedUsers::from_partition(&model.w, &partition, q))
            .collect();
        let mut slab = FactorSlab::from_factors(&model.h);

        // Queues and the initial token placement (Algorithm 1, lines 7-10).
        let queues: Vec<SegQueue<Token>> = (0..num_threads).map(|_| SegQueue::new()).collect();
        let mut placement_rng = nomad_linalg::SmallRng64::new(cfg.seed ^ 0x7007_BEEF);
        for item in 0..start_cols as Idx {
            let q = placement_rng.next_below(num_threads);
            queues[q].push(Token { item, pass: 0 });
        }

        if let Some(publisher) = serving {
            publisher.begin_run(start_rows, start_cols, params.k, num_threads);
        }

        let telem = self.telemetry.as_deref().map(EngineTelemetry::register);
        let label = data.label("NOMAD-threaded");
        let mut trace = RunTrace::new(label, "", 1, num_threads, num_threads);
        let ticket = AtomicU64::new(0);
        let updates_done = AtomicU64::new(0);
        let mut elapsed_wall = 0.0f64;
        let mut segments: Vec<Vec<ProcessingEvent>> = vec![Vec::new()];

        // A batch is applied only if its arrival clock was actually reached
        // — the workers can overshoot a target by the updates of their last
        // token, which is the same overshoot the serial engine exhibits.
        let batch_rounds = arrivals
            .batches()
            .iter()
            .map(|batch| (batch.at.min(total_budget), Some(batch)));
        let snapshot_rounds =
            (1..=snapshots as u64).map(|round| (total_budget * round / snapshots as u64, None));

        for (round_target, batch) in batch_rounds.chain(snapshot_rounds) {
            let stop_flag = AtomicBool::new(false);
            let round_start = Instant::now();
            let mut round_events: Vec<(u64, ProcessingEvent)> = Vec::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(num_threads);
                for (q, (wd, own)) in per_worker.iter_mut().zip(owned.iter_mut()).enumerate() {
                    let worker = Worker {
                        q,
                        wd,
                        own,
                        queues: &queues,
                        ticket: &ticket,
                        updates_done: &updates_done,
                        events: cfg.record_schedule.then(Vec::new),
                        telem: telem.as_ref(),
                    };
                    let kernel =
                        HopKernel::new(q, q, params, cfg.routing, cfg.seed, &slab, serving);
                    let stop_flag = &stop_flag;
                    handles.push(
                        scope.spawn(move || worker_loop(worker, kernel, stop_flag, round_target)),
                    );
                }
                for handle in handles {
                    round_events.extend(handle.join().expect("worker thread panicked"));
                }
            });
            elapsed_wall += round_start.elapsed().as_secs_f64();
            if let Some(publisher) = serving {
                // A cooperative build interrupted by the round end cannot
                // complete (its contributors have joined); drop it and
                // publish the exact quiesced model instead.
                publisher.abort_build();
            }
            // Tickets are drawn from one counter across rounds, so sorting
            // each round and appending keeps the whole segment in ticket
            // order.
            round_events.sort_by_key(|(stamp, _)| *stamp);
            segments
                .last_mut()
                .expect("segments is never empty")
                .extend(round_events.into_iter().map(|(_, e)| e));

            let done = updates_done.load(Ordering::SeqCst);
            let ingest = batch.filter(|batch| done >= batch.at);
            if let Some(batch) = ingest {
                // Quiesced: every token sits in exactly one queue, every
                // worker has drained — safe to grow all shared state.
                let delta = apply_batch(
                    data.dynamic_mut(),
                    &mut partition,
                    &mut per_worker,
                    batch,
                    params.k,
                    cfg.seed,
                );
                let own_last = owned.last_mut().expect("num_threads > 0");
                if own_last.rows.rows() == 0 && batch.new_rows > 0 {
                    // The last worker owned no users yet; its block now
                    // starts at the first arriving user.
                    own_last.offset = delta.first_new_user;
                }
                own_last.rows.append_rows(&delta.new_users);
                slab.append_rows(&delta.new_items);
                for offset in 0..batch.new_cols {
                    let j = (delta.first_new_item + offset) as Idx;
                    queues[token_home(cfg.seed, j, num_threads)].push(Token { item: j, pass: 0 });
                }
                segments.push(Vec::new());
            }

            let views = data.views();
            model = assemble_model(views.nrows(), &owned, &queues, &slab, &ticket);
            if let Some(publisher) = serving {
                if ingest.is_some() {
                    // Serve the grown space from this quiesce onward.
                    publisher.grow(views.nrows(), views.ncols());
                }
                publisher.publish_model(&model, done);
                if let Some(telem) = &telem {
                    telem.note_publisher(publisher);
                }
            }
            sample_rmse(&mut trace, elapsed_wall, done, &model, test);
            if batch.is_some() && ingest.is_none() {
                // A batch whose arrival clock lies beyond the budget: the
                // budget is spent, stop ingesting.
                break;
            }
        }

        trace.metrics.updates = updates_done.load(Ordering::SeqCst);
        trace.metrics.tokens_processed = ticket.load(Ordering::SeqCst);
        trace.metrics.finished_at = SimTime::from_secs(elapsed_wall.max(0.0));
        OnlineOutput {
            model,
            trace,
            schedule: Some(segments),
        }
    }
}

/// The user-factor rows owned by one worker (a contiguous block, because
/// the partition is contiguous).
#[derive(Debug, Clone)]
struct OwnedUsers {
    /// Global index of the first owned user.
    offset: usize,
    /// The owned rows.
    rows: FactorMatrix,
}

impl OwnedUsers {
    fn from_partition(w: &FactorMatrix, partition: &RowPartition, q: usize) -> Self {
        let members = partition.members(q);
        let offset = members.first().map_or(0, |&i| i as usize);
        assert!(
            members
                .last()
                .is_none_or(|&i| i as usize + 1 == offset + members.len()),
            "worker {q}'s users must be one contiguous block"
        );
        let rows = w.copy_rows(offset..offset + members.len());
        Self { offset, rows }
    }
}

impl UserRows for OwnedUsers {
    #[inline]
    fn user_row_mut(&mut self, user: Idx) -> &mut [f64] {
        self.rows.row_mut(user as usize - self.offset)
    }

    #[inline]
    fn user_row(&self, user: Idx) -> &[f64] {
        self.rows.row(user as usize - self.offset)
    }

    #[inline]
    fn block(&self) -> (usize, &FactorMatrix) {
        (self.offset, &self.rows)
    }
}

/// Gathers the scattered state (per-worker user rows, slab item rows) back
/// into a single [`FactorModel`] without disturbing the queues, checking
/// token conservation and pass accounting on the way.
///
/// Must only be called at a quiesce point (no worker threads running), so
/// that reading the slab cannot race an owner's writes and every token is
/// in exactly one queue.
fn assemble_model(
    nrows: usize,
    owned: &[OwnedUsers],
    queues: &[SegQueue<Token>],
    slab: &FactorSlab,
    ticket: &AtomicU64,
) -> FactorModel {
    let ncols = slab.rows();
    let k = slab.k();
    // The owned blocks are contiguous and in offset order, so `W` is their
    // concatenation: one copy per worker into memory nothing has touched.
    let mut w = FactorMatrix::with_capacity(nrows, k);
    for own in owned {
        assert!(
            own.rows.rows() == 0 || own.offset == w.rows(),
            "owned user blocks must tile the rows in order"
        );
        w.append_rows(&own.rows);
    }
    assert_eq!(w.rows(), nrows, "owned user blocks must cover every row");
    let mut model = FactorModel {
        w,
        h: FactorMatrix::zeros(ncols, k),
    };
    // Drain every queue to check token conservation (every item in exactly
    // one queue, total passes equal to the tickets drawn), then push the
    // tokens back in the same order so the run can continue afterwards.
    let mut seen = vec![false; ncols];
    let mut total_passes = 0u64;
    for queue in queues {
        let mut tokens = Vec::new();
        while let Some(token) = queue.pop() {
            tokens.push(token);
        }
        for token in tokens {
            let j = token.item as usize;
            assert!(
                !seen[j],
                "item {j} owned by two queues: token conservation violated"
            );
            seen[j] = true;
            total_passes += token.pass;
            model.h.set_row(j, slab.row(j));
            queue.push(token);
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "every item must be in exactly one queue when the workers are quiesced"
    );
    assert_eq!(
        total_passes,
        ticket.load(Ordering::SeqCst),
        "token pass counts must sum to the tickets drawn"
    );
    model
}

/// One worker thread's side of the hop: its queue among all the queues,
/// its shard, and the run-wide ticket and update counters.
struct Worker<'a> {
    q: usize,
    wd: &'a mut WorkerData,
    own: &'a mut OwnedUsers,
    queues: &'a [SegQueue<Token>],
    ticket: &'a AtomicU64,
    updates_done: &'a AtomicU64,
    /// `(ticket, event)` log; `None` with schedule recording off, so the
    /// steady state stays allocation-free.
    events: Option<Vec<(u64, ProcessingEvent)>>,
    telem: Option<&'a EngineTelemetry>,
}

// SAFETY: tokens enter the queues once per item (initial placement and
// minting, both at quiesce) and move only by this `push`, so a popped token
// is held by exactly this worker and indexes the run's slab.
unsafe impl HopContext for Worker<'_> {
    type Users = OwnedUsers;

    fn pop(&mut self) -> Option<Token> {
        self.queues[self.q].pop()
    }

    fn ticket(&mut self, item: Idx) {
        // One global counter: ticket order is the linearization the
        // serial replay re-executes.
        let stamp = self.ticket.fetch_add(1, Ordering::SeqCst);
        if let Some(events) = &mut self.events {
            let worker = self.q;
            events.push((stamp, ProcessingEvent { worker, item }));
        }
    }

    fn shard(&mut self) -> (&mut WorkerData, &mut OwnedUsers) {
        (self.wd, self.own)
    }

    fn account(&mut self, updates: u64) -> u64 {
        let done_now = self.updates_done.fetch_add(updates, Ordering::Relaxed) + updates;
        if let Some(telem) = self.telem {
            // Three relaxed atomics — no locks, no allocation (the
            // alloc-counting test runs with telemetry attached).
            telem.note_hop(updates, self.queues[self.q].len());
        }
        done_now
    }

    fn clock(&self) -> u64 {
        self.updates_done.load(Ordering::Relaxed)
    }

    fn destinations(&self) -> usize {
        self.queues.len()
    }

    fn load(&self, choice: usize) -> usize {
        self.queues[choice].len()
    }

    fn push(&mut self, dest: usize, token: Token, _h: &[f64]) {
        self.queues[dest].push(token);
    }
}

/// The per-worker processing loop for one round: the round's stop checks,
/// then one [`HopKernel::hop`].  Returns the worker's `(ticket, event)`
/// log.
fn worker_loop(
    mut worker: Worker<'_>,
    mut kernel: HopKernel<'_>,
    stop_flag: &AtomicBool,
    round_target: u64,
) -> Vec<(u64, ProcessingEvent)> {
    loop {
        if stop_flag.load(Ordering::Relaxed) {
            break;
        }
        if worker.updates_done.load(Ordering::Relaxed) >= round_target {
            stop_flag.store(true, Ordering::Relaxed);
            break;
        }
        if kernel.hop(&mut worker).is_none() {
            std::thread::yield_now();
        }
    }
    #[cfg(feature = "sched-fuzz")]
    crate::sched::hooks::done(worker.q);
    worker.events.unwrap_or_default()
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

    fn quick_config(updates: u64) -> NomadConfig {
        NomadConfig::new(HyperParams::netflix().with_k(8))
            .with_stop(StopCondition::Updates(updates))
            .with_seed(33)
    }

    #[test]
    fn owned_blocks_sweep_like_a_plain_loop_up_to_their_last_row() {
        for parts in [1, 3] {
            crate::hop::tests::check_sweep_at_column_and_block_edges(
                parts,
                OwnedUsers::from_partition,
            );
        }
    }

    #[test]
    fn single_thread_run_converges() {
        let (data, test) = tiny_dataset();
        let out = ThreadedNomad::new(quick_config(40_000)).run(&data, &test, 1, 4);
        let first = out.trace.points.first().unwrap().test_rmse;
        let last = out.trace.final_rmse().unwrap();
        assert!(last < first, "RMSE should improve: {first} -> {last}");
        assert!(out.trace.metrics.updates >= 40_000);
    }

    #[test]
    fn two_threads_converge_and_conserve_tokens() {
        let (data, test) = tiny_dataset();
        let out = ThreadedNomad::new(quick_config(40_000)).run(&data, &test, 2, 2);
        assert!(out.trace.final_rmse().unwrap() < 2.0);
        // assemble_model asserts token conservation internally; reaching
        // here means every item was in exactly one queue and the pass
        // counts summed to the ticket counter.
        assert_eq!(out.model.num_items(), data.ncols());
        assert!(out.trace.metrics.tokens_processed > 0);
    }

    #[test]
    fn threaded_execution_is_serializable() {
        // The heart of the paper's correctness claim: replaying the
        // linearization (ticket order) serially reproduces the parallel
        // run's factors exactly.
        let (data, test) = tiny_dataset();
        let threads = 3;
        let solver = ThreadedNomad::new(quick_config(15_000));
        let out = solver.run(&data, &test, threads, 1);
        let partition = RowPartition::contiguous(data.nrows(), threads);
        let replayed = replay_schedule(
            &data,
            &partition,
            solver.config().params,
            solver.config().seed,
            &out.schedule,
        );
        assert_eq!(
            out.model, replayed,
            "threaded execution must be serializable (bit-identical replay)"
        );
    }

    #[test]
    fn least_loaded_routing_also_serializable() {
        let (data, test) = tiny_dataset();
        let threads = 2;
        let solver =
            ThreadedNomad::new(quick_config(10_000).with_routing(RoutingPolicy::LeastLoaded));
        let out = solver.run(&data, &test, threads, 1);
        let partition = RowPartition::contiguous(data.nrows(), threads);
        let replayed = replay_schedule(
            &data,
            &partition,
            solver.config().params,
            solver.config().seed,
            &out.schedule,
        );
        assert_eq!(out.model, replayed);
    }

    #[test]
    fn recording_off_skips_the_schedule_but_trains_identically() {
        let (data, test) = tiny_dataset();
        let on = ThreadedNomad::new(quick_config(10_000)).run(&data, &test, 1, 1);
        let off = ThreadedNomad::new(quick_config(10_000).with_schedule_recording(false))
            .run(&data, &test, 1, 1);
        assert!(off.schedule.is_empty());
        assert!(!on.schedule.is_empty());
        // With one thread the execution order is deterministic, so the
        // trained factors must be bit-identical either way.
        assert_eq!(on.model, off.model);
    }

    #[test]
    #[should_panic(expected = "update budget")]
    fn wall_clock_budget_is_rejected() {
        let (data, test) = tiny_dataset();
        let cfg = NomadConfig::new(HyperParams::netflix().with_k(4))
            .with_stop(StopCondition::Seconds(1.0));
        let _ = ThreadedNomad::new(cfg).run(&data, &test, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let (data, test) = tiny_dataset();
        let _ = ThreadedNomad::new(quick_config(10)).run(&data, &test, 0, 1);
    }

    fn streamed_tiny() -> (
        nomad_matrix::TripletMatrix,
        TripletMatrix,
        nomad_matrix::ArrivalTrace,
    ) {
        use nomad_data::{stream_split, StreamSplit};
        let ds = nomad_data::named_dataset("netflix-sim", nomad_data::SizeTier::Tiny)
            .unwrap()
            .build();
        let (warm, log) = stream_split(&ds.train, &StreamSplit::standard(4));
        // Uniform profile at 1 batch/s: arrivals at 5k, 10k, 15k, 20k
        // updates — all within the 30k budget used below.
        (warm, ds.test, log.arrival_trace(5_000.0))
    }

    #[test]
    fn online_execution_is_serializable_under_arrivals() {
        let (warm, test, arrivals) = streamed_tiny();
        let threads = 3;
        let solver = ThreadedNomad::new(quick_config(30_000));
        let out = solver.run_online(&warm, &test, threads, &arrivals);
        assert_eq!(
            out.model.num_users(),
            warm.nrows() + arrivals.batches().iter().map(|b| b.new_rows).sum::<usize>()
        );
        let segments = out.schedule.expect("threaded online records its schedule");
        assert_eq!(segments.len(), arrivals.len() + 1);
        let replayed = crate::online::replay_online(
            &warm,
            &arrivals,
            solver.config().params,
            solver.config().seed,
            threads,
            &segments,
        );
        assert_eq!(
            out.model, replayed,
            "mid-run ingestion must preserve serializability (bit-identical replay)"
        );
    }

    #[test]
    fn serving_run_is_deterministic_at_one_thread_and_publishes_quiesced_model() {
        let (data, test) = tiny_dataset();
        let solver = ThreadedNomad::new(quick_config(40_000));
        let plain = solver.run(&data, &test, 1, 1);
        let publisher = SnapshotPublisher::new(10_000);
        let served = solver.run_serving(&data, &test, 1, 1, &publisher);
        // One thread has a deterministic execution order, so the serving
        // hooks (which never write to the model) must be invisible.
        assert_eq!(plain.model, served.model);
        let snap = publisher.latest().expect("published at quiesce");
        assert_eq!(snap.to_model(), served.model);
        // Cooperative publishes fired between quiesce points: a 40k budget
        // with a 10k interval yields the final quiesce publish plus at
        // least the first cooperative builds.
        assert!(
            publisher.snapshots_published() >= 3,
            "published only {}",
            publisher.snapshots_published()
        );
    }

    #[test]
    fn serving_run_bounds_staleness_across_threads() {
        let (data, test) = tiny_dataset();
        let publisher = SnapshotPublisher::new(8_000);
        let out =
            ThreadedNomad::new(quick_config(48_000)).run_serving(&data, &test, 2, 2, &publisher);
        let snap = publisher.latest().unwrap();
        assert_eq!(snap.to_model(), out.model);
        assert_eq!(snap.updates_at(), out.trace.metrics.updates);
        // Freshness: consecutive publishes never drift apart by more than
        // the interval plus the workers' overshoot (each worker can run a
        // token past the threshold before noticing, and a build started
        // near a round end is replaced by the quiesce publish).
        let slack = 4_000;
        assert!(
            publisher.max_publish_gap() <= 8_000 + slack,
            "gap {} exceeds interval + slack",
            publisher.max_publish_gap()
        );
        assert!(publisher.snapshots_published() >= 48_000 / 8_000);
    }

    #[test]
    fn online_serving_grows_the_served_space() {
        let (warm, test, arrivals) = streamed_tiny();
        let publisher = SnapshotPublisher::new(5_000);
        let solver = ThreadedNomad::new(quick_config(30_000));
        let out = solver.run_online_serving(&warm, &test, 2, &arrivals, &publisher);
        let snap = publisher.latest().unwrap();
        assert_eq!(snap.num_users(), out.model.num_users());
        assert_eq!(snap.num_items(), out.model.num_items());
        assert_eq!(snap.to_model(), out.model);
    }

    #[test]
    fn telemetry_mirrors_trace_metrics_without_perturbing_training() {
        use nomad_telemetry::names;
        let (data, test) = tiny_dataset();
        let solver = ThreadedNomad::new(quick_config(20_000));
        let plain = solver.run(&data, &test, 1, 1);
        let registry = Arc::new(Registry::new());
        let publisher = SnapshotPublisher::new(8_000);
        let out = solver
            .clone()
            .with_telemetry(Arc::clone(&registry))
            .run_serving(&data, &test, 1, 1, &publisher);
        // Recording reads nothing the training writes: bit-identical run
        // (one thread, so the execution order is deterministic).
        assert_eq!(plain.model, out.model);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(names::UPDATES),
            Some(out.trace.metrics.updates)
        );
        assert_eq!(
            snap.counter(names::TOKENS),
            Some(out.trace.metrics.tokens_processed)
        );
        assert_eq!(
            snap.counter(names::PUBLISHES),
            Some(publisher.snapshots_published())
        );
        assert_eq!(
            snap.gauge(names::PUBLISH_GAP),
            Some(publisher.max_publish_gap() as i64)
        );
        let depth = snap.histogram(names::QUEUE_DEPTH).unwrap();
        assert_eq!(depth.count, out.trace.metrics.tokens_processed);
    }

    #[test]
    fn online_arrivals_beyond_the_budget_are_dropped() {
        let (warm, test, _) = streamed_tiny();
        let far = nomad_matrix::ArrivalTrace::new(vec![nomad_matrix::ArrivalBatch {
            at: u64::MAX,
            new_rows: 5,
            new_cols: 5,
            entries: vec![],
        }]);
        let out = ThreadedNomad::new(quick_config(5_000)).run_online(&warm, &test, 2, &far);
        // The unreachable batch is never applied: no growth, one segment.
        assert_eq!(out.model.num_users(), warm.nrows());
        assert_eq!(out.model.num_items(), warm.ncols());
        assert_eq!(out.schedule.unwrap().len(), 1);
    }
}
