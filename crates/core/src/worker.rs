//! Per-worker static data: the user partition and the local rating slices.
//!
//! Section 3.1: worker `q` stores the user factors `w_i` for `i ∈ I_q` and,
//! for every item `j`, the local rating slice
//! `Ω̄_j^{(q)} = {(i, j) ∈ Ω̄_j : i ∈ I_q}`.  The data is distributed once,
//! before the run, and never moves afterwards.

use nomad_matrix::{CscMatrix, Idx, RatingMatrix, RowPartition};

/// Static, per-worker view of the training data.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerData {
    /// Worker index `q`.
    pub worker: usize,
    /// The users this worker owns, `I_q` (ascending).
    pub owned_users: Vec<Idx>,
    /// Full-width CSC matrix containing only the rows in `I_q`; column `j`
    /// is exactly `Ω̄_j^{(q)}`.
    pub local_cols: CscMatrix,
    /// Per-item count of how many times this worker has processed the item.
    /// Together with the fact that processing item `j` updates every local
    /// `(i, j)` exactly once, this provides the per-pair update count `t`
    /// that the step-size schedule of Eq. 11 needs — without storing a
    /// counter per rating.
    pub item_passes: Vec<u64>,
    /// Total ratings stored locally (`Σ_j |Ω̄_j^{(q)}|`).
    pub local_nnz: usize,
}

impl WorkerData {
    /// Builds the per-worker data for all `p` workers of `partition` from
    /// the training matrix.
    pub fn build_all(data: &RatingMatrix, partition: &RowPartition) -> Vec<WorkerData> {
        let slices = data.by_cols().restrict_rows(partition);
        slices
            .into_iter()
            .enumerate()
            .map(|(q, local_cols)| {
                let local_nnz = local_cols.nnz();
                WorkerData {
                    worker: q,
                    owned_users: partition.members(q).to_vec(),
                    item_passes: vec![0; local_cols.ncols()],
                    local_cols,
                    local_nnz,
                }
            })
            .collect()
    }

    /// Number of items in the (global) item space.
    pub fn num_items(&self) -> usize {
        self.local_cols.ncols()
    }

    /// The local ratings for item `j`: `(user, rating)` pairs restricted to
    /// this worker's users.
    pub fn local_ratings(&self, item: Idx) -> impl Iterator<Item = (Idx, f64)> + '_ {
        self.local_cols.col(item as usize)
    }

    /// Number of local ratings for item `j`, `|Ω̄_j^{(q)}|`.
    pub fn local_count(&self, item: Idx) -> usize {
        self.local_cols.col_nnz(item as usize)
    }

    /// Record (and return the pre-increment value of) a processing pass
    /// over item `j`; the returned value is the update count `t` to feed
    /// the step-size schedule.
    pub fn record_pass(&mut self, item: Idx) -> u64 {
        let t = self.item_passes[item as usize];
        self.item_passes[item as usize] += 1;
        t
    }

    /// Total number of passes recorded over all items.
    pub fn total_passes(&self) -> u64 {
        self.item_passes.iter().sum()
    }
}

/// Checks the global invariant that every training rating is present in
/// exactly one worker's local slice.  Used by tests and debug assertions.
pub fn partition_covers_all_ratings(workers: &[WorkerData], data: &RatingMatrix) -> bool {
    let total: usize = workers.iter().map(|w| w.local_nnz).sum();
    total == data.nnz()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_matrix::{PartitionStrategy, TripletMatrix};

    fn toy() -> (RatingMatrix, RowPartition) {
        let mut t = TripletMatrix::new(6, 4);
        // user, item, rating
        let entries = [
            (0, 0, 1.0),
            (1, 0, 2.0),
            (2, 1, 3.0),
            (3, 1, 4.0),
            (4, 2, 5.0),
            (5, 3, 1.5),
            (0, 3, 2.5),
        ];
        for (i, j, v) in entries {
            t.push(i, j, v);
        }
        let data = RatingMatrix::from_triplets(&t);
        let partition = RowPartition::new(6, 3, PartitionStrategy::Contiguous);
        (data, partition)
    }

    #[test]
    fn build_all_creates_one_worker_per_part() {
        let (data, partition) = toy();
        let workers = WorkerData::build_all(&data, &partition);
        assert_eq!(workers.len(), 3);
        for (q, w) in workers.iter().enumerate() {
            assert_eq!(w.worker, q);
            assert_eq!(w.owned_users, partition.members(q));
            assert_eq!(w.num_items(), 4);
            assert_eq!(w.item_passes, vec![0; 4]);
        }
    }

    #[test]
    fn local_slices_cover_every_rating_exactly_once() {
        let (data, partition) = toy();
        let workers = WorkerData::build_all(&data, &partition);
        assert!(partition_covers_all_ratings(&workers, &data));
        // Worker 0 owns users {0, 1}: its ratings are (0,0), (1,0), (0,3).
        assert_eq!(workers[0].local_nnz, 3);
        let col0: Vec<_> = workers[0].local_ratings(0).collect();
        assert_eq!(col0, vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(workers[0].local_count(3), 1);
        // Worker 2 owns users {4, 5}.
        assert_eq!(workers[2].local_count(2), 1);
        assert_eq!(workers[2].local_count(0), 0);
    }

    #[test]
    fn local_ratings_only_contain_owned_users() {
        let (data, partition) = toy();
        let workers = WorkerData::build_all(&data, &partition);
        for w in &workers {
            for item in 0..w.num_items() as Idx {
                for (user, _) in w.local_ratings(item) {
                    assert_eq!(partition.owner_of(user) as usize, w.worker);
                }
            }
        }
    }

    #[test]
    fn record_pass_counts_per_item() {
        let (data, partition) = toy();
        let mut workers = WorkerData::build_all(&data, &partition);
        let w = &mut workers[0];
        assert_eq!(w.record_pass(2), 0);
        assert_eq!(w.record_pass(2), 1);
        assert_eq!(w.record_pass(1), 0);
        assert_eq!(w.item_passes, vec![0, 1, 2, 0]);
        assert_eq!(w.total_passes(), 3);
    }

    #[test]
    fn coverage_check_detects_missing_ratings() {
        let (data, partition) = toy();
        let mut workers = WorkerData::build_all(&data, &partition);
        workers.pop();
        assert!(!partition_covers_all_ratings(&workers, &data));
    }
}
