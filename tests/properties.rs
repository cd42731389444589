//! Property-based tests (proptest) on the core data structures and on the
//! invariants the NOMAD algorithm relies on.

use proptest::prelude::*;

use nomad::core::serial::{replay_schedule, ProcessingEvent};
use nomad::core::worker::{partition_covers_all_ratings, WorkerData};
use nomad::linalg::{Cholesky, DenseMatrix};
use nomad::matrix::{
    train_test_split, CscMatrix, CsrMatrix, Entry, RatingMatrix, RowPartition, SplitConfig,
    TripletMatrix,
};
use nomad::sgd::{FactorModel, HyperParams};

/// Strategy: a random small triplet matrix with unique coordinates.
fn arb_triplets() -> impl Strategy<Value = TripletMatrix> {
    (2usize..20, 2usize..15, 1usize..80, any::<u64>()).prop_map(|(rows, cols, nnz, seed)| {
        let mut t = TripletMatrix::new(rows, cols);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut used = std::collections::HashSet::new();
        for _ in 0..nnz {
            let i = (next() % rows as u64) as u32;
            let j = (next() % cols as u64) as u32;
            if used.insert((i, j)) {
                let value = (next() % 1000) as f64 / 100.0 - 5.0;
                t.push(i, j, value);
            }
        }
        t
    })
}

/// Strategy: triplets on a random shape, with rows and columns left empty
/// and coordinates that repeat, each carrying a distinct value so that the
/// order of a repeated coordinate's triplets shows.
fn arb_triplets_with_repeats() -> impl Strategy<Value = TripletMatrix> {
    (1usize..12, 1usize..12, 0usize..60, any::<u64>()).prop_map(|(rows, cols, nnz, seed)| {
        let mut t = TripletMatrix::new(rows, cols);
        let mut state = seed | 1;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        for k in 0..nnz {
            let (i, j) = (next(rows), next(cols));
            t.push(i, j, k as f64 * 0.5 - 3.0);
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The column view is built by transposing the row view, and must
    /// equal a stable sort of the triplets by `(col, row)`: each column in
    /// ascending row order, a repeated coordinate in triplet order, and
    /// every value bit for bit.
    #[test]
    fn the_transpose_equals_a_stable_sort(t in arb_triplets_with_repeats()) {
        let mut sorted = t.entries().to_vec();
        sorted.sort_by_key(|e| (e.col, e.row));
        let bits = |e: Entry| (e.row, e.col, e.value.to_bits());
        let data = RatingMatrix::from_triplets(&t);
        let csc = data.by_cols();
        prop_assert_eq!((csc.nrows(), csc.ncols()), (t.nrows(), t.ncols()));
        prop_assert_eq!(csc.col_counts(), t.col_counts());
        let built: Vec<_> = csc.iter_entries().map(bits).collect();
        let expected: Vec<_> = sorted.into_iter().map(bits).collect();
        prop_assert_eq!(built, expected);
        prop_assert_eq!(&CscMatrix::from_triplets(&t), csc);
    }

    /// CSR and CSC views built from the same triplets contain exactly the
    /// same set of entries.
    #[test]
    fn csr_and_csc_agree_on_entries(t in arb_triplets()) {
        let csr = CsrMatrix::from_triplets(&t);
        let csc = CscMatrix::from_triplets(&t);
        prop_assert_eq!(csr.nnz(), t.nnz());
        prop_assert_eq!(csc.nnz(), t.nnz());
        let mut from_csr: Vec<_> = csr.iter_entries().map(|e| (e.row, e.col, e.value)).collect();
        let mut from_csc: Vec<_> = csc.iter_entries().map(|e| (e.row, e.col, e.value)).collect();
        from_csr.sort_by(|a, b| a.partial_cmp(b).unwrap());
        from_csc.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(from_csr, from_csc);
    }

    /// `entry_at` enumerates exactly the matrix's entries, in order.
    #[test]
    fn entry_at_covers_all_entries(t in arb_triplets()) {
        let csr = CsrMatrix::from_triplets(&t);
        let listed: Vec<_> = (0..csr.nnz()).map(|i| csr.entry_at(i)).collect();
        let iterated: Vec<_> = csr.iter_entries().collect();
        prop_assert_eq!(listed, iterated);
    }

    /// Every partition strategy produces a disjoint cover of the rows, and
    /// worker-local slices cover every rating exactly once.
    #[test]
    fn partitions_are_disjoint_covers(t in arb_triplets(), parts in 1usize..6) {
        let data = RatingMatrix::from_triplets(&t);
        for partition in [
            RowPartition::contiguous(data.nrows(), parts),
            RowPartition::round_robin(data.nrows(), parts),
            RowPartition::balanced_by_ratings(data.by_rows(), parts),
        ] {
            prop_assert!(partition.validate());
            prop_assert_eq!(partition.part_sizes().iter().sum::<usize>(), data.nrows());
            let workers = WorkerData::build_all(&data, &partition);
            prop_assert!(partition_covers_all_ratings(&workers, &data));
        }
    }

    /// Train/test splits partition the data and are reproducible.
    #[test]
    fn splits_partition_and_are_deterministic(t in arb_triplets(), seed in any::<u64>()) {
        let cfg = SplitConfig { test_fraction: 0.3, seed, keep_user_coverage: false };
        let (tr1, te1) = train_test_split(&t, cfg);
        let (tr2, te2) = train_test_split(&t, cfg);
        prop_assert_eq!(&tr1, &tr2);
        prop_assert_eq!(&te1, &te2);
        prop_assert_eq!(tr1.nnz() + te1.nnz(), t.nnz());
    }

    /// Binary serialization round-trips every dataset exactly.
    #[test]
    fn binary_io_roundtrips(t in arb_triplets()) {
        let bytes = nomad::matrix::io::to_bytes(&t);
        let back = nomad::matrix::io::from_bytes(&bytes).unwrap();
        prop_assert_eq!(t, back);
    }

    /// Cholesky solves SPD systems to high accuracy for random
    /// diagonally-dominant matrices.
    #[test]
    fn cholesky_solves_spd_systems(n in 1usize..8, seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        };
        let mut m = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..=r {
                let v = next() * 0.3;
                m[(r, c)] = v;
                m[(c, r)] = v;
            }
        }
        // Make it strictly diagonally dominant, hence SPD.
        for i in 0..n {
            m[(i, i)] = 2.0 + (0..n).map(|c| m[(i, c)].abs()).sum::<f64>();
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 1.0).collect();
        let b = m.matvec(&x_true);
        let x = Cholesky::factor(&m).unwrap().solve(&b);
        for i in 0..n {
            prop_assert!((x[i] - x_true[i]).abs() < 1e-7);
        }
    }

    /// Replaying any schedule of processing events is deterministic and
    /// only ever touches users owned by the event's worker — the invariant
    /// behind NOMAD's lock-freedom.
    #[test]
    fn schedule_replay_is_deterministic(
        t in arb_triplets(),
        parts in 1usize..4,
        raw_events in proptest::collection::vec((0usize..4, 0u32..15), 0..40),
        seed in any::<u64>(),
    ) {
        let data = RatingMatrix::from_triplets(&t);
        let partition = RowPartition::contiguous(data.nrows(), parts);
        let events: Vec<ProcessingEvent> = raw_events
            .into_iter()
            .map(|(w, j)| ProcessingEvent { worker: w % parts, item: j % data.ncols() as u32 })
            .collect();
        let params = HyperParams::netflix().with_k(4);
        let a = replay_schedule(&data, &partition, params, seed, &events);
        let b = replay_schedule(&data, &partition, params, seed, &events);
        prop_assert_eq!(&a, &b);
        // The replay starts from the seeded initialization; with no events
        // it must equal it.
        let init = FactorModel::init(data.nrows(), data.ncols(), 4, seed);
        let empty = replay_schedule(&data, &partition, params, seed, &[]);
        prop_assert_eq!(empty, init);
    }

    /// A single SGD step on an observed entry never increases that entry's
    /// squared error when the step size is small and regularization is off.
    #[test]
    fn sgd_step_reduces_local_error(
        rating in -5.0f64..5.0,
        seed in any::<u64>(),
    ) {
        let mut model = FactorModel::init(3, 3, 6, seed);
        let before = (rating - model.predict(1, 2)).powi(2);
        nomad::sgd::sgd_update(&mut model, 1, 2, rating, 0.01, 0.0);
        let after = (rating - model.predict(1, 2)).powi(2);
        prop_assert!(after <= before + 1e-12);
    }
}
