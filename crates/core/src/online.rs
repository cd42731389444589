//! Online (streaming) NOMAD: shared ingestion machinery for all engines.
//!
//! NOMAD's structure makes mid-run ingestion natural — which the paper
//! points out but never implements: item factors are nomadic tokens owned
//! by exactly one worker, so a *new* item is just a freshly minted token
//! dropped into some queue; user factors are statically partitioned, so a
//! *new* user extends one worker's block; and a *new rating* lands in
//! exactly one worker's local slice.  Nothing about the owner-computes
//! argument changes, so the serializability guarantee survives arrivals —
//! [`replay_online`] verifies that claim the same way
//! [`crate::serial::replay_schedule`] does for batch runs.
//!
//! Arrival batches are keyed by the cumulative SGD-update count
//! ([`ArrivalBatch::at`]), the one monotone clock the serial, threaded and
//! simulated engines share deterministically.  All engine-specific online
//! entry points ([`crate::SerialNomad::run_online`],
//! [`crate::ThreadedNomad::run_online`], [`crate::SimNomad::run_online`])
//! funnel through the helpers here, so for the same seeded
//! [`ArrivalTrace`] they mint the same tokens with the same fresh factors
//! at the same points of the update stream — with a single worker, where a
//! canonical processing order exists, the three engines produce
//! bit-identical factor matrices (asserted by the integration tests).

use nomad_cluster::{RunTrace, TracePoint};
use nomad_matrix::{ArrivalBatch, ArrivalTrace, DynamicMatrix, Idx, RowPartition, TripletMatrix};
use nomad_sgd::{fresh_item_rows, fresh_user_rows, FactorMatrix, FactorModel, HyperParams};

use crate::hop::sweep;
use crate::serial::ProcessingEvent;
use crate::worker::WorkerData;

/// The data a unified engine loop trains on.
///
/// Every in-process engine runs batch and online workloads through one
/// shared loop; this enum is what keeps the batch path zero-overhead —
/// it borrows the caller's prebuilt views and never copies the data, while
/// the streaming variant owns the growable matrix the ingestion block
/// mutates.  The batch variant is always driven with an empty
/// [`ArrivalTrace`], so the ingestion block can never fire on it.
pub(crate) enum OnlineData<'a> {
    /// A frozen, prebuilt batch matrix; never grows.
    Batch(&'a nomad_matrix::RatingMatrix),
    /// A growable matrix seeded from a warm start; grows at ingestion.
    /// Boxed so the enum stays pointer-sized either way.
    Stream(Box<DynamicMatrix>),
}

impl OnlineData<'_> {
    /// The streaming variant, seeded from a warm start that must hold at
    /// least one rating.
    ///
    /// Arrival batches are keyed by the cumulative update count, and
    /// updates only happen when tokens meet local ratings — an empty warm
    /// start can never advance the clock, so the engines would spin
    /// (threaded/serial) or trip an internal assert (simulated) without
    /// ever reaching the first batch.  Failing loudly and uniformly here
    /// is kinder than three different hangs.
    ///
    /// # Panics
    /// Panics if `warm` holds no ratings.
    pub(crate) fn warm(warm: &TripletMatrix) -> OnlineData<'static> {
        assert!(
            warm.nnz() > 0,
            "online runs need a non-empty warm start: the update-count arrival \
             clock cannot advance without trainable ratings"
        );
        OnlineData::Stream(Box::new(DynamicMatrix::from_triplets(warm)))
    }

    /// `solver` for a batch run, `solver-online` for a streaming one.
    pub(crate) fn label(&self, solver: &str) -> String {
        match self {
            OnlineData::Batch(_) => solver.to_string(),
            OnlineData::Stream(_) => format!("{solver}-online"),
        }
    }

    /// The current CSR + CSC views.
    pub(crate) fn views(&self) -> &nomad_matrix::RatingMatrix {
        match self {
            OnlineData::Batch(data) => data,
            OnlineData::Stream(dynamic) => dynamic.views(),
        }
    }

    /// The growable matrix, for the ingestion block.
    ///
    /// # Panics
    /// Panics in batch mode — batch runs are driven with an empty arrival
    /// trace, so reaching the ingestion block there is an engine bug.
    pub(crate) fn dynamic_mut(&mut self) -> &mut DynamicMatrix {
        match self {
            OnlineData::Batch(_) => unreachable!("batch runs never ingest arrivals"),
            OnlineData::Stream(dynamic) => dynamic,
        }
    }
}

/// Output of an online run, shared by every engine.
#[derive(Debug, Clone)]
pub struct OnlineOutput {
    /// The trained model over the fully grown user/item space.
    pub model: FactorModel,
    /// Convergence trace; RMSE snapshots cover only the test entries whose
    /// user and item had arrived at snapshot time (`rmse_known`).
    pub trace: RunTrace,
    /// Per-segment linearizations (segment `s` holds the events between
    /// ingestion point `s-1` and `s`), when the engine records them.
    /// Feeding them to [`replay_online`] reproduces `model` bit for bit.
    pub schedule: Option<Vec<Vec<ProcessingEvent>>>,
}

/// Samples test RMSE into `trace`, over the test entries whose user and
/// item have already arrived.
pub(crate) fn sample_rmse(
    trace: &mut RunTrace,
    seconds: f64,
    updates: u64,
    model: &FactorModel,
    test: &TripletMatrix,
) {
    trace.push(TracePoint {
        seconds,
        updates,
        test_rmse: nomad_sgd::rmse_known(model, test),
        objective: None,
    });
}

/// Deterministic home queue for a token minted for `item` at an ingestion
/// point.
///
/// Every engine uses this same seeded hash (instead of its own RNG stream)
/// so that token minting is engine-independent: splitmix64-style mixing of
/// the seed and item index, reduced to a worker.
pub fn token_home(seed: u64, item: Idx, num_workers: usize) -> usize {
    assert!(num_workers > 0, "cannot mint a token for zero workers");
    let mut z =
        (seed ^ 0x70C0_4E57).wrapping_add((item as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % num_workers as u64) as usize
}

/// Freshly initialized factor rows produced by one ingestion.
#[derive(Debug, Clone)]
pub struct IngestDelta {
    /// Global index of the first user introduced by the batch.
    pub first_new_user: usize,
    /// Global index of the first item introduced by the batch.
    pub first_new_item: usize,
    /// `Uniform(0, 1/√k)` rows for the new users (may be empty).
    pub new_users: FactorMatrix,
    /// `Uniform(0, 1/√k)` rows for the new items (may be empty).
    pub new_items: FactorMatrix,
}

/// Applies one arrival batch to the shared solver state: grows the dynamic
/// matrix (and compacts it), extends the row partition (new users join the
/// last worker's block, keeping existing ownership untouched), rebuilds the
/// per-worker local slices *preserving the per-item pass counts* that feed
/// the step-size schedule, and returns deterministically initialized factor
/// rows for the arrivals.
///
/// The caller integrates the delta into its own representation: the serial
/// and simulated engines append the rows to the dense model, the threaded
/// engine appends the user rows to the last worker's owned block and wraps
/// the item rows into new tokens.
pub fn apply_batch(
    dynamic: &mut DynamicMatrix,
    partition: &mut RowPartition,
    workers: &mut Vec<WorkerData>,
    batch: &ArrivalBatch,
    k: usize,
    seed: u64,
) -> IngestDelta {
    let first_new_user = dynamic.nrows();
    let first_new_item = dynamic.ncols();
    dynamic.apply(batch);
    *partition = partition.extended(batch.new_rows);
    let mut rebuilt = WorkerData::build_all(dynamic.views(), partition);
    for (old, new) in workers.iter().zip(rebuilt.iter_mut()) {
        new.item_passes[..old.item_passes.len()].copy_from_slice(&old.item_passes);
    }
    *workers = rebuilt;
    IngestDelta {
        first_new_user,
        first_new_item,
        new_users: fresh_user_rows(batch.new_rows, k, first_new_user, seed),
        new_items: fresh_item_rows(batch.new_cols, k, first_new_item, seed),
    }
}

/// Re-executes the segmented linearization of an online run on a single
/// thread: replay segment `s`, apply arrival batch `s`, and so on — the
/// streaming extension of [`crate::serial::replay_schedule`].
///
/// If the parallel online execution is serializable — NOMAD's central
/// correctness claim, which ingestion must not break — the replay
/// reproduces the engine's factor matrices bit for bit.
///
/// An engine that stopped before the whole trace arrived returns fewer
/// segments; only the `segments.len() - 1` batches that were actually
/// applied are replayed.
///
/// # Panics
/// Panics if `segments` is empty or has more than `arrivals.len() + 1`
/// entries.
pub fn replay_online(
    warm: &TripletMatrix,
    arrivals: &ArrivalTrace,
    params: HyperParams,
    seed: u64,
    num_workers: usize,
    segments: &[Vec<ProcessingEvent>],
) -> FactorModel {
    assert!(
        !segments.is_empty() && segments.len() <= arrivals.len() + 1,
        "need one schedule segment per applied ingestion interval \
         ({} segments for {} batches)",
        segments.len(),
        arrivals.len()
    );
    let mut dynamic = DynamicMatrix::from_triplets(warm);
    let mut partition = RowPartition::contiguous(warm.nrows(), num_workers);
    let mut workers = WorkerData::build_all(dynamic.views(), &partition);
    let mut model = FactorModel::init(warm.nrows(), warm.ncols(), params.k, seed);
    for (s, segment) in segments.iter().enumerate() {
        for event in segment {
            let (worker, h) = (
                &mut workers[event.worker],
                model.h.row_mut(event.item as usize),
            );
            sweep(worker, &mut model.w, event.item, h, &params);
        }
        if s + 1 < segments.len() {
            let delta = apply_batch(
                &mut dynamic,
                &mut partition,
                &mut workers,
                &arrivals.batches()[s],
                params.k,
                seed,
            );
            model.w.append_rows(&delta.new_users);
            model.h.append_rows(&delta.new_items);
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_matrix::Entry;

    fn warm() -> TripletMatrix {
        let mut t = TripletMatrix::new(4, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 2.0);
        t.push(3, 2, 3.0);
        t
    }

    fn batch() -> ArrivalBatch {
        ArrivalBatch {
            at: 10,
            new_rows: 2,
            new_cols: 1,
            entries: vec![Entry::new(4, 3, 4.0), Entry::new(5, 0, 2.5)],
        }
    }

    #[test]
    fn token_home_is_deterministic_and_in_range() {
        for p in 1..6 {
            for j in 0..40u32 {
                let a = token_home(7, j, p);
                assert!(a < p);
                assert_eq!(a, token_home(7, j, p));
            }
        }
        // The hash actually spreads items over workers.
        let homes: std::collections::HashSet<_> = (0..64u32).map(|j| token_home(7, j, 4)).collect();
        assert_eq!(homes.len(), 4);
        // And depends on the seed.
        assert!((0..64u32).any(|j| token_home(7, j, 4) != token_home(8, j, 4)));
    }

    #[test]
    fn apply_batch_grows_all_shared_state_consistently() {
        let warm = warm();
        let mut dynamic = DynamicMatrix::from_triplets(&warm);
        let mut partition = RowPartition::contiguous(4, 2);
        let mut workers = WorkerData::build_all(dynamic.views(), &partition);
        workers[0].record_pass(1);
        workers[0].record_pass(1);

        let delta = apply_batch(&mut dynamic, &mut partition, &mut workers, &batch(), 3, 9);
        assert_eq!((dynamic.nrows(), dynamic.ncols()), (6, 4));
        assert!(dynamic.is_compacted());
        assert_eq!(partition.num_rows(), 6);
        // New users joined the last worker; existing ownership untouched.
        assert_eq!(partition.owner_of(4), 1);
        assert_eq!(partition.owner_of(5), 1);
        assert_eq!(partition.owner_of(0), 0);
        // Workers were rebuilt over the new data with pass counts kept.
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].item_passes, vec![0, 2, 0, 0]);
        assert_eq!(workers[1].local_count(3), 1); // (4, 3) belongs to worker 1
        assert_eq!(workers[1].local_count(0), 1); // (5, 0) too
                                                  // Fresh factor blocks sized to the arrivals.
        assert_eq!(delta.first_new_user, 4);
        assert_eq!(delta.first_new_item, 3);
        assert_eq!(delta.new_users.rows(), 2);
        assert_eq!(delta.new_items.rows(), 1);
        assert_eq!(delta.new_users.k(), 3);
    }

    #[test]
    fn replay_online_with_empty_trace_matches_batch_replay() {
        let warm = warm();
        let params = HyperParams::netflix().with_k(4);
        let events = vec![
            ProcessingEvent { worker: 0, item: 0 },
            ProcessingEvent { worker: 1, item: 2 },
            ProcessingEvent { worker: 0, item: 0 },
        ];
        let data = nomad_matrix::RatingMatrix::from_triplets(&warm);
        let partition = RowPartition::contiguous(4, 2);
        let batch_replay = crate::serial::replay_schedule(&data, &partition, params, 5, &events);
        let online_replay = replay_online(
            &warm,
            &ArrivalTrace::empty(),
            params,
            5,
            2,
            std::slice::from_ref(&events),
        );
        assert_eq!(batch_replay, online_replay);
    }

    #[test]
    fn replay_online_is_deterministic_across_arrivals() {
        let warm = warm();
        let params = HyperParams::netflix().with_k(4);
        let trace = ArrivalTrace::new(vec![batch()]);
        let segments = vec![
            vec![
                ProcessingEvent { worker: 0, item: 1 },
                ProcessingEvent { worker: 1, item: 2 },
            ],
            vec![
                // Item 3 and users 4/5 exist only after the batch.
                ProcessingEvent { worker: 1, item: 3 },
                ProcessingEvent { worker: 1, item: 0 },
            ],
        ];
        let a = replay_online(&warm, &trace, params, 5, 2, &segments);
        let b = replay_online(&warm, &trace, params, 5, 2, &segments);
        assert_eq!(a, b);
        assert_eq!(a.num_users(), 6);
        assert_eq!(a.num_items(), 4);
        // The post-arrival events touched the arrived data: user 5's factor
        // moved away from its fresh initialization.
        let fresh = fresh_user_rows(2, 4, 4, 5);
        assert_ne!(a.w.row(5), fresh.row(1));
    }

    #[test]
    fn replay_online_truncates_to_applied_batches() {
        // One segment for one batch means the run stopped before the batch
        // arrived: the replay must not grow the model.
        let params = HyperParams::netflix().with_k(2);
        let replayed = replay_online(
            &warm(),
            &ArrivalTrace::new(vec![batch()]),
            params,
            1,
            2,
            &[vec![ProcessingEvent { worker: 0, item: 0 }]],
        );
        assert_eq!(replayed.num_users(), 4);
        assert_eq!(replayed.num_items(), 3);
    }

    #[test]
    #[should_panic(expected = "segment per applied ingestion interval")]
    fn replay_online_rejects_too_many_segments() {
        let _ = replay_online(
            &warm(),
            &ArrivalTrace::empty(),
            HyperParams::netflix().with_k(2),
            1,
            2,
            &[vec![], vec![]],
        );
    }
}
