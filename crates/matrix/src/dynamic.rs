//! Growable sparse storage for streaming/online matrix completion.
//!
//! The batch pipeline freezes a [`TripletMatrix`] into CSR/CSC views once,
//! before a solver starts.  A streaming workload cannot do that: ratings
//! keep arriving, and *new users* (rows) and *new items* (columns) appear
//! mid-run.  [`DynamicMatrix`] is the seam between the two worlds — an
//! append-only rating log with explicit row/column growth that compacts, on
//! demand, into the same [`RatingMatrix`] (CSR + CSC) views every solver in
//! the workspace consumes.  Compacting an interleaved sequence of appends
//! and growth events yields bit-identical views to building the equivalent
//! batch [`TripletMatrix`] up front (a property test asserts this), so the
//! online engines inherit the batch engines' correctness arguments.
//!
//! [`ArrivalBatch`] / [`ArrivalTrace`] describe *when* growth happens: each
//! batch carries the new rows, new columns and new ratings to apply once a
//! solver's monotone clock (NOMAD engines use the total SGD-update count,
//! the one clock all three engines share deterministically) reaches `at`.

use crate::{Entry, Idx, Rating, RatingMatrix, TripletMatrix};

/// When a [`DynamicMatrix`] should fold pending appends into its views.
///
/// Compaction rebuilds the CSR/CSC views from scratch (`O(nnz)`), so doing
/// it on every append would make ingestion quadratic.  The policy instead
/// amortizes: recompact once the pending log is a fixed fraction of the
/// compacted size, but never for fewer than `min_pending` entries, giving
/// each entry `O(log nnz)` amortized compaction cost.  Callers with natural
/// synchronization points (the NOMAD engines quiesce at every ingestion
/// boundary) can also call [`DynamicMatrix::compact`] explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Recompact once `pending_nnz > max_pending_ratio × compacted_nnz`.
    pub max_pending_ratio: f64,
    /// Never recompact for fewer than this many pending entries.
    pub min_pending: usize,
}

impl CompactionPolicy {
    /// The default policy: recompact at 25% pending, at least 1024 entries.
    pub fn amortized() -> Self {
        Self {
            max_pending_ratio: 0.25,
            min_pending: 1024,
        }
    }

    /// `true` once a matrix with the given compacted/pending sizes should
    /// be recompacted under this policy.
    pub fn should_compact(&self, compacted_nnz: usize, pending_nnz: usize) -> bool {
        pending_nnz >= self.min_pending
            && pending_nnz as f64 > self.max_pending_ratio * compacted_nnz as f64
    }
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self::amortized()
    }
}

/// An append-only rating matrix whose dimensions can grow.
///
/// The matrix is a log of [`Entry`] values plus a compacted prefix: the
/// first `compacted_len` entries are materialized as a [`RatingMatrix`]
/// (CSR + CSC) with the dimensions that were current at the last
/// [`DynamicMatrix::compact`] call; everything after them is the *pending*
/// tail.  [`DynamicMatrix::snapshot`] compacts (if necessary) and returns
/// the views, which is how solvers read the data.
///
/// Growth ([`DynamicMatrix::grow_rows`] / [`DynamicMatrix::grow_cols`])
/// only moves the bounds that [`DynamicMatrix::push`] validates against —
/// it allocates nothing until the next compaction, which makes minting a
/// million empty columns free until they receive ratings.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<Entry>,
    compacted_len: usize,
    views: RatingMatrix,
    policy: CompactionPolicy,
}

impl DynamicMatrix {
    /// Creates an empty dynamic matrix with the given starting dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self::from_triplets(&TripletMatrix::new(nrows, ncols))
    }

    /// Seeds a dynamic matrix from a batch triplet matrix (the warm-start
    /// data of a streaming run) and compacts immediately.
    pub fn from_triplets(warm: &TripletMatrix) -> Self {
        Self {
            nrows: warm.nrows(),
            ncols: warm.ncols(),
            entries: warm.entries().to_vec(),
            compacted_len: warm.nnz(),
            views: RatingMatrix::from_triplets(warm),
            policy: CompactionPolicy::amortized(),
        }
    }

    /// Overrides the compaction policy consulted by
    /// [`DynamicMatrix::maybe_compact`].
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Current number of rows (users), including grown ones.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Current number of columns (items), including grown ones.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total number of stored ratings (compacted + pending).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Number of appended ratings not yet folded into the views.
    #[inline]
    pub fn pending_nnz(&self) -> usize {
        self.entries.len() - self.compacted_len
    }

    /// The pending (not yet compacted) tail of the rating log.
    #[inline]
    pub fn pending(&self) -> &[Entry] {
        &self.entries[self.compacted_len..]
    }

    /// `true` when the views cover every stored rating at the current
    /// dimensions.
    pub fn is_compacted(&self) -> bool {
        self.pending_nnz() == 0
            && self.views.nrows() == self.nrows
            && self.views.ncols() == self.ncols
    }

    /// Appends one observed rating; once the pending tail crosses the
    /// configured [`CompactionPolicy`] threshold the views are refolded
    /// automatically, so a standalone append stream stays amortized
    /// without any explicit compaction calls.  (The engines' ingestion
    /// path still compacts unconditionally at its quiesce points via
    /// [`DynamicMatrix::apply`].)
    ///
    /// # Panics
    /// Panics if the coordinates are outside the *current* (grown)
    /// dimensions.
    pub fn push(&mut self, row: Idx, col: Idx, value: Rating) {
        assert!(
            (row as usize) < self.nrows,
            "row {row} out of bounds (nrows = {})",
            self.nrows
        );
        assert!(
            (col as usize) < self.ncols,
            "col {col} out of bounds (ncols = {})",
            self.ncols
        );
        self.entries.push(Entry::new(row, col, value));
        self.maybe_compact();
    }

    /// Grows the row (user) space by `added` rows.
    pub fn grow_rows(&mut self, added: usize) {
        self.nrows += added;
    }

    /// Grows the column (item) space by `added` columns.
    pub fn grow_cols(&mut self, added: usize) {
        self.ncols += added;
    }

    /// Rebuilds the CSR/CSC views so they cover every stored rating at the
    /// current dimensions.
    pub fn compact(&mut self) {
        let mut t = TripletMatrix::with_capacity(self.nrows, self.ncols, self.entries.len());
        for e in &self.entries {
            t.push_entry(*e);
        }
        self.views = RatingMatrix::from_triplets(&t);
        self.compacted_len = self.entries.len();
    }

    /// Compacts only if the configured [`CompactionPolicy`] says the
    /// pending tail has grown large enough; returns whether it did.
    pub fn maybe_compact(&mut self) -> bool {
        if self
            .policy
            .should_compact(self.compacted_len, self.pending_nnz())
        {
            self.compact();
            true
        } else {
            false
        }
    }

    /// The compacted CSR + CSC views.
    ///
    /// # Panics
    /// Panics if appends or growth happened since the last compaction —
    /// call [`DynamicMatrix::snapshot`] (or [`DynamicMatrix::compact`])
    /// first.  The hard failure is deliberate: a solver silently reading a
    /// stale view would drop arrivals.
    pub fn views(&self) -> &RatingMatrix {
        assert!(
            self.is_compacted(),
            "DynamicMatrix::views called with {} pending entries (dims {}×{}, views {}×{}); \
             compact first",
            self.pending_nnz(),
            self.nrows,
            self.ncols,
            self.views.nrows(),
            self.views.ncols()
        );
        &self.views
    }

    /// Compacts if necessary and returns the up-to-date views.
    pub fn snapshot(&mut self) -> &RatingMatrix {
        if !self.is_compacted() {
            self.compact();
        }
        &self.views
    }

    /// Copies the full rating log into a batch [`TripletMatrix`] at the
    /// current dimensions.
    pub fn to_triplets(&self) -> TripletMatrix {
        let mut t = TripletMatrix::with_capacity(self.nrows, self.ncols, self.entries.len());
        for e in &self.entries {
            t.push_entry(*e);
        }
        t
    }

    /// Applies one arrival batch: grows the dimensions, appends the new
    /// ratings, and compacts.
    ///
    /// # Panics
    /// Panics if any entry of the batch lies outside the grown dimensions.
    pub fn apply(&mut self, batch: &ArrivalBatch) {
        self.grow_rows(batch.new_rows);
        self.grow_cols(batch.new_cols);
        for e in &batch.entries {
            self.push(e.row, e.col, e.value);
        }
        self.compact();
    }
}

/// One ingestion event of a streaming run.
///
/// The batch is applied once the consuming solver's monotone clock reaches
/// [`ArrivalBatch::at`].  The NOMAD engines use the cumulative SGD-update
/// count as that clock because it is the only time axis all three engines
/// (serial, threaded, simulated) share deterministically; wall-clock or
/// virtual-time stamps from an event source are converted by
/// `nomad-data`'s `RatingLog::arrival_trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalBatch {
    /// Solver-clock value (total SGD updates, for the NOMAD engines) at
    /// which this batch is applied.
    pub at: u64,
    /// Number of previously unseen rows (users) this batch introduces;
    /// they receive the next `new_rows` row indices.
    pub new_rows: usize,
    /// Number of previously unseen columns (items) this batch introduces;
    /// they receive the next `new_cols` column indices.
    pub new_cols: usize,
    /// The arriving ratings, indexed in the grown coordinate space.
    pub entries: Vec<Entry>,
}

/// A whole streaming run's worth of [`ArrivalBatch`]es, sorted by arrival
/// clock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrivalTrace {
    batches: Vec<ArrivalBatch>,
}

impl ArrivalTrace {
    /// Builds a trace, sorting the batches by [`ArrivalBatch::at`] (stable,
    /// so equal-clock batches keep their given order).
    pub fn new(mut batches: Vec<ArrivalBatch>) -> Self {
        batches.sort_by_key(|b| b.at);
        Self { batches }
    }

    /// A trace with no arrivals: an online run degenerates to a batch run.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The batches, ascending in arrival clock.
    #[inline]
    pub fn batches(&self) -> &[ArrivalBatch] {
        &self.batches
    }

    /// Number of batches.
    #[inline]
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// `true` when the trace holds no batches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total ratings across all batches.
    pub fn total_entries(&self) -> usize {
        self.batches.iter().map(|b| b.entries.len()).sum()
    }

    /// The dimensions a matrix starting at `(nrows, ncols)` reaches after
    /// every batch has been applied.
    pub fn final_dims(&self, nrows: usize, ncols: usize) -> (usize, usize) {
        let r: usize = self.batches.iter().map(|b| b.new_rows).sum();
        let c: usize = self.batches.iter().map(|b| b.new_cols).sum();
        (nrows + r, ncols + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm() -> TripletMatrix {
        let mut t = TripletMatrix::new(3, 2);
        t.push(0, 0, 1.0);
        t.push(2, 1, 2.0);
        t
    }

    #[test]
    fn seeding_from_triplets_is_compacted() {
        let d = DynamicMatrix::from_triplets(&warm());
        assert!(d.is_compacted());
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.pending_nnz(), 0);
        assert_eq!(d.views().nnz(), 2);
        assert_eq!((d.nrows(), d.ncols()), (3, 2));
    }

    #[test]
    fn pushes_are_pending_until_compacted() {
        let mut d = DynamicMatrix::from_triplets(&warm());
        d.push(1, 1, 3.0);
        assert_eq!(d.pending_nnz(), 1);
        assert_eq!(d.pending(), &[Entry::new(1, 1, 3.0)]);
        assert!(!d.is_compacted());
        d.compact();
        assert!(d.is_compacted());
        assert_eq!(d.views().nnz(), 3);
        assert_eq!(d.views().by_cols().col_nnz(1), 2);
    }

    #[test]
    fn growth_extends_bounds_without_allocating() {
        let mut d = DynamicMatrix::new(2, 2);
        d.grow_rows(3);
        d.grow_cols(1);
        assert_eq!((d.nrows(), d.ncols()), (5, 3));
        d.push(4, 2, 1.5); // valid only after growth
        assert_eq!(d.snapshot().nnz(), 1);
        assert_eq!(d.views().nrows(), 5);
        assert_eq!(d.views().ncols(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_outside_grown_bounds_panics() {
        let mut d = DynamicMatrix::new(2, 2);
        d.push(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "compact first")]
    fn stale_views_panic_instead_of_dropping_arrivals() {
        let mut d = DynamicMatrix::from_triplets(&warm());
        d.grow_cols(1);
        let _ = d.views();
    }

    #[test]
    fn compacted_views_match_equivalent_batch_build() {
        let mut d = DynamicMatrix::new(2, 2);
        d.push(0, 1, 1.0);
        d.grow_rows(1);
        d.push(2, 0, 2.0);
        d.grow_cols(2);
        d.push(1, 3, 3.0);
        d.compact();

        let mut batch = TripletMatrix::new(3, 4);
        batch.push(0, 1, 1.0);
        batch.push(2, 0, 2.0);
        batch.push(1, 3, 3.0);
        assert_eq!(d.views(), &RatingMatrix::from_triplets(&batch));
        assert_eq!(d.to_triplets(), batch);
    }

    #[test]
    fn policy_triggers_amortized_compaction_on_push() {
        let policy = CompactionPolicy {
            max_pending_ratio: 0.5,
            min_pending: 2,
        };
        let mut d = DynamicMatrix::from_triplets(&warm()).with_policy(policy);
        d.push(0, 1, 1.0);
        assert_eq!(d.pending_nnz(), 1, "one pending entry is below min_pending");
        d.push(1, 0, 1.0);
        assert!(d.is_compacted(), "2 pending > 0.5 × 2 compacted auto-folds");
        assert_eq!(d.views().nnz(), 4);
        assert!(!d.maybe_compact(), "nothing pending after compaction");
    }

    #[test]
    fn apply_batch_grows_and_compacts() {
        let mut d = DynamicMatrix::from_triplets(&warm());
        d.apply(&ArrivalBatch {
            at: 100,
            new_rows: 1,
            new_cols: 2,
            entries: vec![Entry::new(3, 3, 4.0), Entry::new(0, 2, 5.0)],
        });
        assert!(d.is_compacted());
        assert_eq!((d.nrows(), d.ncols()), (4, 4));
        assert_eq!(d.views().nnz(), 4);
        assert_eq!(d.views().by_rows().get(3, 3), Some(4.0));
    }

    #[test]
    fn trace_sorts_batches_and_reports_final_dims() {
        let trace = ArrivalTrace::new(vec![
            ArrivalBatch {
                at: 200,
                new_rows: 1,
                new_cols: 0,
                entries: vec![],
            },
            ArrivalBatch {
                at: 100,
                new_rows: 0,
                new_cols: 3,
                entries: vec![Entry::new(0, 0, 1.0)],
            },
        ]);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.batches()[0].at, 100);
        assert_eq!(trace.total_entries(), 1);
        assert_eq!(trace.final_dims(5, 5), (6, 8));
        assert!(ArrivalTrace::empty().is_empty());
        assert_eq!(ArrivalTrace::empty().final_dims(2, 3), (2, 3));
    }
}
