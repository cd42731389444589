//! Row (user) partitions `I_1, …, I_p` across workers.
//!
//! Section 3.1 of the paper: "the users `{1, …, m}` are split into `p`
//! disjoint sets `I_1, I_2, …, I_p` which are of approximately equal size",
//! with a footnote offering the alternative of splitting so that each set
//! has approximately the same *number of ratings*.  Both strategies are
//! implemented here, together with a random strategy used in tests.

use crate::{CsrMatrix, Idx};

/// How to assign rows to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous blocks of approximately equal row count (the paper's
    /// default).
    Contiguous,
    /// Contiguous blocks balanced by the number of ratings per worker
    /// (the paper's footnote-1 alternative).  Requires rating counts.
    BalancedRatings,
    /// Round-robin assignment (`row i → worker i mod p`); useful when the
    /// row ordering is correlated with activity.
    RoundRobin,
}

/// A disjoint cover of `0..num_rows` by `num_parts` worker-owned sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    num_rows: usize,
    num_parts: usize,
    /// `owner[i]` is the worker that owns row `i`.
    owner: Vec<u32>,
    /// `members[q]` lists the rows owned by worker `q`, ascending.
    members: Vec<Vec<Idx>>,
}

impl RowPartition {
    /// Creates a partition of `num_rows` rows into `num_parts` parts using
    /// a strategy that does not require rating counts.
    ///
    /// # Panics
    /// Panics if `num_parts == 0` or if `PartitionStrategy::BalancedRatings`
    /// is requested (use [`RowPartition::balanced_by_ratings`] for that).
    pub fn new(num_rows: usize, num_parts: usize, strategy: PartitionStrategy) -> Self {
        assert!(num_parts > 0, "partition needs at least one part");
        match strategy {
            PartitionStrategy::Contiguous => Self::contiguous(num_rows, num_parts),
            PartitionStrategy::RoundRobin => Self::round_robin(num_rows, num_parts),
            PartitionStrategy::BalancedRatings => {
                panic!("BalancedRatings requires rating counts; use balanced_by_ratings()")
            }
        }
    }

    /// Contiguous blocks of (approximately) equal row count.  The first
    /// `num_rows % num_parts` workers receive one extra row.
    pub fn contiguous(num_rows: usize, num_parts: usize) -> Self {
        assert!(num_parts > 0, "partition needs at least one part");
        let base = num_rows / num_parts;
        let extra = num_rows % num_parts;
        let mut owner = vec![0u32; num_rows];
        let mut members = vec![Vec::new(); num_parts];
        let mut row = 0usize;
        for (q, part) in members.iter_mut().enumerate() {
            let size = base + usize::from(q < extra);
            for _ in 0..size {
                owner[row] = q as u32;
                part.push(row as Idx);
                row += 1;
            }
        }
        debug_assert_eq!(row, num_rows);
        Self {
            num_rows,
            num_parts,
            owner,
            members,
        }
    }

    /// Round-robin assignment.
    pub fn round_robin(num_rows: usize, num_parts: usize) -> Self {
        assert!(num_parts > 0, "partition needs at least one part");
        let mut owner = vec![0u32; num_rows];
        let mut members = vec![Vec::new(); num_parts];
        for (i, o) in owner.iter_mut().enumerate() {
            let q = i % num_parts;
            *o = q as u32;
            members[q].push(i as Idx);
        }
        Self {
            num_rows,
            num_parts,
            owner,
            members,
        }
    }

    /// Contiguous blocks balanced so each worker owns approximately the
    /// same number of *ratings* (footnote 1 of the paper).  A greedy sweep
    /// closes a block once it reaches the ideal share.
    pub fn balanced_by_ratings(ratings: &CsrMatrix, num_parts: usize) -> Self {
        assert!(num_parts > 0, "partition needs at least one part");
        let num_rows = ratings.nrows();
        let total: usize = ratings.nnz();
        let ideal = (total as f64 / num_parts as f64).max(1.0);
        let mut owner = vec![0u32; num_rows];
        let mut members = vec![Vec::new(); num_parts];
        let mut q = 0usize;
        let mut acc = 0usize;
        for (i, o) in owner.iter_mut().enumerate() {
            // Keep the last worker open so every row gets an owner.
            if q + 1 < num_parts && acc as f64 >= ideal * (q + 1) as f64 {
                q += 1;
            }
            *o = q as u32;
            members[q].push(i as Idx);
            acc += ratings.row_nnz(i);
        }
        Self {
            num_rows,
            num_parts,
            owner,
            members,
        }
    }

    /// Builds a partition from an explicit owner assignment.
    ///
    /// # Panics
    /// Panics if any owner index is `>= num_parts`.
    pub fn from_assignment(owner: Vec<u32>, num_parts: usize) -> Self {
        assert!(num_parts > 0, "partition needs at least one part");
        let num_rows = owner.len();
        let mut members = vec![Vec::new(); num_parts];
        for (i, &q) in owner.iter().enumerate() {
            assert!(
                (q as usize) < num_parts,
                "owner {q} out of range for {num_parts} parts"
            );
            members[q as usize].push(i as Idx);
        }
        Self {
            num_rows,
            num_parts,
            owner,
            members,
        }
    }

    /// Extends the partition with `added` new rows (appended at the end of
    /// the row space), all assigned to the **last** worker.
    ///
    /// This is the growth rule of the streaming engines: existing ownership
    /// never changes (user factors stay where they are, preserving NOMAD's
    /// static-partition invariant mid-run), and a contiguous partition stays
    /// contiguous because only the final block's upper bound moves.  The
    /// trade-off — the last worker accumulates all newly arriving users — is
    /// acceptable while arrivals are a small fraction of the data;
    /// rebalancing at an ingestion barrier is future work.
    pub fn extended(&self, added: usize) -> Self {
        let mut owner = self.owner.clone();
        let mut members = self.members.clone();
        let last = self.num_parts - 1;
        for i in self.num_rows..self.num_rows + added {
            owner.push(last as u32);
            members[last].push(i as Idx);
        }
        Self {
            num_rows: self.num_rows + added,
            num_parts: self.num_parts,
            owner,
            members,
        }
    }

    /// Total number of rows covered.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of parts (workers) `p`.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// The worker that owns row `i`.
    #[inline]
    pub fn owner_of(&self, i: Idx) -> u32 {
        self.owner[i as usize]
    }

    /// Rows owned by worker `q`, in ascending order.
    #[inline]
    pub fn members(&self, q: usize) -> &[Idx] {
        &self.members[q]
    }

    /// Number of rows owned by worker `q`.
    #[inline]
    pub fn part_size(&self, q: usize) -> usize {
        self.members[q].len()
    }

    /// Sizes of all parts.
    pub fn part_sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }

    /// Number of ratings owned by each worker under this partition.
    pub fn ratings_per_part(&self, ratings: &CsrMatrix) -> Vec<usize> {
        let mut out = vec![0usize; self.num_parts];
        for i in 0..self.num_rows.min(ratings.nrows()) {
            out[self.owner[i] as usize] += ratings.row_nnz(i);
        }
        out
    }

    /// Checks the defining invariants: every row has exactly one owner and
    /// the member lists agree with the owner array.  Used by tests and by
    /// debug assertions in solvers.
    pub fn validate(&self) -> bool {
        if self.owner.len() != self.num_rows || self.members.len() != self.num_parts {
            return false;
        }
        let mut seen = vec![false; self.num_rows];
        for (q, rows) in self.members.iter().enumerate() {
            for &i in rows {
                let i = i as usize;
                if i >= self.num_rows || seen[i] || self.owner[i] as usize != q {
                    return false;
                }
                seen[i] = true;
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    #[test]
    fn contiguous_splits_evenly() {
        let p = RowPartition::contiguous(10, 3);
        assert_eq!(p.part_sizes(), vec![4, 3, 3]);
        assert!(p.validate());
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(9), 2);
        assert_eq!(p.members(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn contiguous_with_more_parts_than_rows() {
        let p = RowPartition::contiguous(2, 5);
        assert_eq!(p.part_sizes(), vec![1, 1, 0, 0, 0]);
        assert!(p.validate());
    }

    #[test]
    fn round_robin_interleaves() {
        let p = RowPartition::round_robin(7, 3);
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(1), 1);
        assert_eq!(p.owner_of(2), 2);
        assert_eq!(p.owner_of(3), 0);
        assert_eq!(p.part_sizes(), vec![3, 2, 2]);
        assert!(p.validate());
    }

    #[test]
    fn new_dispatches_strategies() {
        assert_eq!(
            RowPartition::new(6, 2, PartitionStrategy::Contiguous).part_sizes(),
            vec![3, 3]
        );
        assert_eq!(
            RowPartition::new(6, 2, PartitionStrategy::RoundRobin).part_sizes(),
            vec![3, 3]
        );
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_panics() {
        let _ = RowPartition::contiguous(5, 0);
    }

    #[test]
    #[should_panic(expected = "BalancedRatings requires rating counts")]
    fn new_balanced_requires_counts() {
        let _ = RowPartition::new(5, 2, PartitionStrategy::BalancedRatings);
    }

    #[test]
    fn balanced_by_ratings_evens_out_skew() {
        // Rows 0..2 have many ratings, rows 3..9 have one each.
        let mut t = TripletMatrix::new(10, 20);
        for j in 0..10 {
            t.push(0, j, 1.0);
            t.push(1, j, 1.0);
        }
        for i in 2..10u32 {
            t.push(i, 0, 1.0);
        }
        let csr = CsrMatrix::from_triplets(&t);
        let balanced = RowPartition::balanced_by_ratings(&csr, 2);
        assert!(balanced.validate());
        let loads = balanced.ratings_per_part(&csr);
        let naive = RowPartition::contiguous(10, 2);
        let naive_loads = naive.ratings_per_part(&csr);
        let spread = |l: &Vec<usize>| l.iter().max().unwrap() - l.iter().min().unwrap();
        assert!(
            spread(&loads) <= spread(&naive_loads),
            "balanced {loads:?} should not be worse than contiguous {naive_loads:?}"
        );
    }

    #[test]
    fn from_assignment_roundtrips() {
        let owner = vec![1, 0, 1, 2, 0];
        let p = RowPartition::from_assignment(owner.clone(), 3);
        assert!(p.validate());
        for (i, &q) in owner.iter().enumerate() {
            assert_eq!(p.owner_of(i as Idx), q);
        }
        assert_eq!(p.members(1), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_assignment_rejects_bad_owner() {
        let _ = RowPartition::from_assignment(vec![0, 3], 2);
    }

    #[test]
    fn extended_appends_rows_to_the_last_worker() {
        let p = RowPartition::contiguous(6, 3);
        let grown = p.extended(2);
        assert!(grown.validate());
        assert_eq!(grown.num_rows(), 8);
        assert_eq!(grown.num_parts(), 3);
        assert_eq!(grown.part_sizes(), vec![2, 2, 4]);
        assert_eq!(grown.owner_of(6), 2);
        assert_eq!(grown.owner_of(7), 2);
        // Existing ownership is untouched.
        for i in 0..6u32 {
            assert_eq!(grown.owner_of(i), p.owner_of(i));
        }
        // Extending by zero is the identity.
        assert_eq!(p.extended(0), p);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut p = RowPartition::contiguous(4, 2);
        assert!(p.validate());
        p.owner[0] = 1; // members list no longer matches
        assert!(!p.validate());
    }
}
