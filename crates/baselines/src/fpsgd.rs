//! FPSGD**: the shared-memory block-scheduled SGD of Zhuang et al.
//! (RecSys 2013; Section 4.1 of the NOMAD paper).
//!
//! The rating matrix is split into a `g × g` grid of blocks with
//! `g > p` (we use `g = p + 1`, the smallest grid the scheduler needs).  A
//! task-manager hands an idle thread a block whose row-block and
//! column-block are not currently being processed by any other thread,
//! preferring blocks that have been processed the fewest times.  There is
//! no global barrier, but — unlike NOMAD — the unit of work is a coarse
//! block and a central scheduler mediates every hand-off, and the idea does
//! not extend to distributed memory (the paper's critique).
//!
//! The engine below reproduces that scheduler on the virtual clock: worker
//! finish times are simulated with an event queue while the SGD arithmetic
//! inside each block is executed for real.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use nomad_cluster::{ComputeModel, EventQueue, RunTrace, SimTime, TracePoint};
use nomad_matrix::{Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_sgd::schedule::StepSchedule;
use nomad_sgd::{FactorModel, HyperParams};

use crate::common::BaselineStop;

/// Configuration of FPSGD**.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpsgdConfig {
    /// Hyper-parameters.
    pub params: HyperParams,
    /// Stop condition (an epoch is `g²` block passes, i.e. one pass over
    /// the data in expectation).
    pub stop: BaselineStop,
    /// RNG seed.
    pub seed: u64,
}

/// The FPSGD** solver.
#[derive(Debug, Clone)]
pub struct Fpsgd {
    config: FpsgdConfig,
}

/// A block finishing on a worker.
#[derive(Debug, Clone, Copy)]
struct BlockDone {
    worker: usize,
    row_block: usize,
    col_block: usize,
}

impl Fpsgd {
    /// Creates the solver.
    pub fn new(config: FpsgdConfig) -> Self {
        Self { config }
    }

    /// Runs FPSGD** with `threads` worker threads on a single machine.
    pub fn run(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        threads: usize,
        compute: &ComputeModel,
    ) -> (FactorModel, RunTrace) {
        assert!(threads > 0, "need at least one thread");
        let cfg = self.config;
        let params = cfg.params;
        let g = threads + 1; // grid dimension, > number of threads
        let mut model = FactorModel::init(data.nrows(), data.ncols(), params.k, cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF9_5D);
        let schedule = params.nomad_schedule();

        // Assign every training entry to its block.
        let row_blocks = RowPartition::contiguous(data.nrows(), g);
        let col_blocks = RowPartition::contiguous(data.ncols(), g);
        let csr = data.by_rows();
        let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); g * g];
        let mut flat = 0usize;
        for i in 0..data.nrows() {
            let rb = row_blocks.owner_of(i as Idx) as usize;
            for (j, _) in csr.row(i) {
                let cb = col_blocks.owner_of(j) as usize;
                blocks[rb * g + cb].push(flat);
                flat += 1;
            }
        }

        // Scheduler state.
        let mut row_busy = vec![false; g];
        let mut col_busy = vec![false; g];
        let mut passes = vec![0u64; g * g];

        let mut trace = RunTrace::new("FPSGD**", "", 1, threads, threads);
        let mut updates = 0u64;
        let mut elapsed = SimTime::ZERO;
        trace.push(TracePoint {
            seconds: 0.0,
            updates: 0,
            test_rmse: nomad_sgd::rmse(&model, test),
            objective: None,
        });

        let mut events: EventQueue<BlockDone> = EventQueue::new();
        let epoch_updates = data.nnz() as u64;
        let mut next_snapshot = epoch_updates;
        let mut epoch = 0usize;

        // Picks the least-processed block whose row and column are free and
        // starts it on `worker` at `now`; returns false when nothing is free.
        let start_block = |worker: usize,
                           now: SimTime,
                           model: &mut FactorModel,
                           row_busy: &mut Vec<bool>,
                           col_busy: &mut Vec<bool>,
                           passes: &mut Vec<u64>,
                           events: &mut EventQueue<BlockDone>,
                           rng: &mut StdRng,
                           updates: &mut u64|
         -> bool {
            let mut candidates: Vec<(u64, usize, usize)> = Vec::new();
            for rb in 0..g {
                if row_busy[rb] {
                    continue;
                }
                for cb in 0..g {
                    if col_busy[cb] {
                        continue;
                    }
                    candidates.push((passes[rb * g + cb], rb, cb));
                }
            }
            let Some(&(min_pass, _, _)) = candidates.iter().min_by_key(|&&(p, _, _)| p) else {
                return false;
            };
            let least: Vec<(u64, usize, usize)> = candidates
                .into_iter()
                .filter(|&(p, _, _)| p == min_pass)
                .collect();
            let (_, rb, cb) = least[rng.gen_range(0..least.len())];
            row_busy[rb] = true;
            col_busy[cb] = true;

            // Execute the SGD pass over the block's entries (shuffled).
            let mut order = blocks[rb * g + cb].clone();
            order.shuffle(rng);
            let step = schedule.step(passes[rb * g + cb]);
            for &idx in &order {
                let e = csr.entry_at(idx);
                nomad_sgd::sgd_update(model, e.row, e.col, e.value, step, params.lambda);
            }
            passes[rb * g + cb] += 1;
            *updates += order.len() as u64;
            let seconds = compute.item_processing_time(params.k, order.len());
            events.push(
                now + seconds,
                BlockDone {
                    worker,
                    row_block: rb,
                    col_block: cb,
                },
            );
            true
        };

        // Kick off: every worker grabs a block at time zero.
        for worker in 0..threads {
            start_block(
                worker,
                SimTime::ZERO,
                &mut model,
                &mut row_busy,
                &mut col_busy,
                &mut passes,
                &mut events,
                &mut rng,
                &mut updates,
            );
        }

        while let Some(done) = events.pop() {
            elapsed = elapsed.max(done.time);
            row_busy[done.event.row_block] = false;
            col_busy[done.event.col_block] = false;
            trace.metrics.tokens_processed += 1;
            trace.metrics.record_busy(done.event.worker, 0.0);

            if updates >= next_snapshot {
                epoch += 1;
                next_snapshot += epoch_updates;
                trace.metrics.updates = updates;
                trace.push(TracePoint {
                    seconds: elapsed.as_secs(),
                    updates,
                    test_rmse: nomad_sgd::rmse(&model, test),
                    objective: None,
                });
            }
            if cfg.stop.reached(epoch, elapsed.as_secs()) {
                break;
            }
            start_block(
                done.event.worker,
                done.time,
                &mut model,
                &mut row_busy,
                &mut col_busy,
                &mut passes,
                &mut events,
                &mut rng,
                &mut updates,
            );
        }

        trace.metrics.updates = updates;
        trace.metrics.finished_at = elapsed;
        trace.push(TracePoint {
            seconds: elapsed.as_secs(),
            updates,
            test_rmse: nomad_sgd::rmse(&model, test),
            objective: None,
        });
        (model, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_data::{named_dataset, SizeTier};

    fn tiny() -> (RatingMatrix, TripletMatrix) {
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        (ds.matrix, ds.test)
    }

    fn config(epochs: usize) -> FpsgdConfig {
        FpsgdConfig {
            params: HyperParams::netflix().with_k(8),
            stop: BaselineStop::epochs(epochs),
            seed: 8,
        }
    }

    #[test]
    fn fpsgd_converges() {
        let (data, test) = tiny();
        let (_, trace) = Fpsgd::new(config(8)).run(&data, &test, 4, &ComputeModel::hpc_core());
        let first = trace.points.first().unwrap().test_rmse;
        let last = trace.final_rmse().unwrap();
        assert!(last < first * 0.9, "RMSE should drop: {first} -> {last}");
        assert!(trace.metrics.updates >= 8 * data.nnz() as u64 / 2);
    }

    #[test]
    fn fpsgd_is_deterministic() {
        let (data, test) = tiny();
        let run = || Fpsgd::new(config(3)).run(&data, &test, 3, &ComputeModel::hpc_core());
        let (m1, t1) = run();
        let (m2, t2) = run();
        assert_eq!(m1, m2);
        assert_eq!(t1.points, t2.points);
    }

    #[test]
    fn single_thread_degenerates_to_block_cyclic_sgd() {
        let (data, test) = tiny();
        let (_, trace) = Fpsgd::new(config(2)).run(&data, &test, 1, &ComputeModel::hpc_core());
        assert!(trace.final_rmse().unwrap().is_finite());
        assert!(trace.metrics.tokens_processed > 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let (data, test) = tiny();
        let _ = Fpsgd::new(config(1)).run(&data, &test, 0, &ComputeModel::hpc_core());
    }
}
