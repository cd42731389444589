//! The query side: exact or approximate top-k answers, single or
//! batched, against the latest published snapshot.
//!
//! A [`QueryEngine`] is a thin, `Sync` front over a
//! [`SnapshotPublisher`]: every query grabs the latest epoch once (one
//! lock-free `Arc` clone) and scores against that immutable snapshot, so a
//! batch of queries is answered from a **single consistent epoch** no
//! matter how many times the trainers publish mid-batch — and query
//! threads never take a lock the trainers contend on.
//!
//! The approximate path ([`QueryEngine::top_k_approx`]) maintains a
//! cached [`IvfIndex`] over the served catalog, patched forward across
//! epochs from the publisher's delta clocks
//! ([`SnapshotPublisher::changed_items_since`]) instead of rebuilt from
//! scratch.  The cache sits behind a mutex held for the cache check and,
//! when the epoch advanced, for the patch (or, on first use or a
//! dimension change, the full build) — the probe/rerank runs on `Arc`
//! clones outside it, so concurrent approximate queries between publishes
//! do not serialize.  The cache keeps the snapshot it describes and only
//! moves forward: a query that pinned an older epoch than the cache is
//! answered from the cache's newer snapshot.
//!
//! `seen` lists are normalized (sorted, deduplicated) on entry: callers
//! may pass them in any order, with duplicates.  Pre-sorted input takes
//! an O(len) verification pass and no copy.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nomad_matrix::Idx;

use crate::ivf::{IvfIndex, IvfParams};
use crate::publisher::SnapshotPublisher;
use crate::snapshot::{ModelSnapshot, TopK};

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Nothing has been published yet (training has not reached the first
    /// publish threshold).
    NoSnapshot,
    /// The queried user does not exist in the served snapshot (yet — with
    /// online ingestion a user may arrive later).
    UnknownUser {
        /// The requested user.
        user: Idx,
        /// Number of users in the current snapshot.
        num_users: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoSnapshot => write!(f, "no snapshot published yet"),
            ServeError::UnknownUser { user, num_users } => {
                write!(
                    f,
                    "user {user} not in the served snapshot ({num_users} users)"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One query of a multi-user batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserQuery {
    /// The user to recommend for.
    pub user: Idx,
    /// Items to exclude (already seen/rated).  Any order and duplicates
    /// are fine — the engine normalizes on entry; pre-sorted lists
    /// (e.g. from [`UserQuery::with_seen`]) skip the copy.
    pub seen: Vec<Idx>,
}

impl UserQuery {
    /// A query with no exclusions.
    pub fn new(user: Idx) -> Self {
        Self {
            user,
            seen: Vec::new(),
        }
    }

    /// A query excluding `seen` items (sorts them for the caller).
    pub fn with_seen(user: Idx, mut seen: Vec<Idx>) -> Self {
        seen.sort_unstable();
        seen.dedup();
        Self { user, seen }
    }
}

/// The cached approximate index and the snapshot it was refreshed
/// against.
#[derive(Debug)]
struct IvfState {
    index: Arc<IvfIndex>,
    snap: Arc<ModelSnapshot>,
}

/// Answers top-k recommendation queries from the latest published epoch.
#[derive(Debug)]
pub struct QueryEngine<'p> {
    publisher: &'p SnapshotPublisher,
    query_workers: usize,
    ivf_params: IvfParams,
    ivf: Mutex<Option<IvfState>>,
}

impl<'p> QueryEngine<'p> {
    /// Creates an engine that fans sufficiently large batches over up to
    /// `query_workers` scoped threads (1 answers everything inline; see
    /// [`QueryEngine::batch_top_k`] for when fan-out actually engages).
    /// Approximate queries use [`IvfParams::default`] (≈√items
    /// centroids); see [`QueryEngine::with_ivf_params`] to pin them.
    ///
    /// # Panics
    /// Panics if `query_workers == 0`.
    pub fn new(publisher: &'p SnapshotPublisher, query_workers: usize) -> Self {
        Self::with_ivf_params(publisher, query_workers, IvfParams::default())
    }

    /// [`QueryEngine::new`] with explicit IVF build parameters (tests and
    /// benches pin the centroid count to control `nprobe` sweeps).
    ///
    /// # Panics
    /// Panics if `query_workers == 0`.
    pub fn with_ivf_params(
        publisher: &'p SnapshotPublisher,
        query_workers: usize,
        ivf_params: IvfParams,
    ) -> Self {
        assert!(query_workers > 0, "need at least one query worker");
        Self {
            publisher,
            query_workers,
            ivf_params,
            ivf: Mutex::new(None),
        }
    }

    /// The latest snapshot, or [`ServeError::NoSnapshot`].
    pub fn snapshot(&self) -> Result<Arc<ModelSnapshot>, ServeError> {
        self.publisher.latest().ok_or(ServeError::NoSnapshot)
    }

    /// Exact top-k for one user against the latest epoch.  `seen` items
    /// are excluded; any order and duplicates are fine — the engine
    /// normalizes on entry (sorted input is detected in O(len) and not
    /// copied).
    pub fn top_k(&self, user: Idx, k: usize, seen: &[Idx]) -> Result<TopK, ServeError> {
        let snap = self.snapshot()?;
        check_user(&snap, user)?;
        let seen = normalize_seen(seen);
        Ok(snap.top_k(user, k, &seen))
    }

    /// Approximate top-k via the IVF shortlist index: probes the
    /// `nprobe` nearest centroid posting lists and exact-reranks the
    /// shortlist.  With `nprobe >= ` [`QueryEngine::ivf_centroids`] the
    /// answer is **bit-identical** to [`QueryEngine::top_k`]; smaller
    /// values trade recall for a proportional cut in scoring work (every
    /// returned score is still an exact `⟨w, h⟩`).  `nprobe` is clamped
    /// to `1..=n_centroids`.
    ///
    /// The index is cached across calls and patched forward from the
    /// publisher's delta clocks when the epoch advances.
    pub fn top_k_approx(
        &self,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
    ) -> Result<TopK, ServeError> {
        let (index, snap) = self.ivf_index(self.snapshot()?);
        check_user(&snap, user)?;
        let seen = normalize_seen(seen);
        Ok(index.top_k(&snap, user, k, nprobe, &seen))
    }

    /// [`QueryEngine::top_k_approx`] under a per-query budget: if the
    /// exact rerank cannot finish inside `budget`, the answer falls back
    /// to the raw shortlist (centroid proxy scores, probe order — see
    /// [`crate::ivf`] on the fallback contract).  Returns the answer and
    /// whether it was fully reranked.
    pub fn top_k_approx_within(
        &self,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
        budget: Duration,
    ) -> Result<(TopK, bool), ServeError> {
        let (index, snap) = self.ivf_index(self.snapshot()?);
        check_user(&snap, user)?;
        let seen = normalize_seen(seen);
        let deadline = Instant::now() + budget;
        Ok(index.top_k_within(&snap, user, k, nprobe, &seen, Some(deadline)))
    }

    /// Centroid count of the approximate index over the current catalog
    /// (the `nprobe` value at which [`QueryEngine::top_k_approx`] is
    /// bit-identical to the exact scan).  Builds the index if needed.
    pub fn ivf_centroids(&self) -> Result<usize, ServeError> {
        Ok(self.ivf_index(self.snapshot()?).0.n_centroids())
    }

    /// The cached index and the snapshot it describes, brought up to
    /// `snap`: reused as-is when the cache is at `snap`'s epoch or newer
    /// (the caller then answers from the cache's snapshot — an index is
    /// never patched backwards), patched from the publisher's changed-row
    /// clocks when `snap` is newer, built on first use.  The returned
    /// `Arc`s are probed outside the lock.
    fn ivf_index(&self, snap: Arc<ModelSnapshot>) -> (Arc<IvfIndex>, Arc<ModelSnapshot>) {
        let mut guard = self.ivf.lock().unwrap_or_else(|e| e.into_inner());
        let state = match guard.take() {
            Some(state) if state.snap.epoch() >= snap.epoch() => state,
            Some(state) => {
                let changed = self.publisher.changed_items_since(state.snap.updates_at());
                let mut index = (*state.index).clone();
                index.refresh(&snap, &changed);
                IvfState {
                    index: Arc::new(index),
                    snap,
                }
            }
            None => IvfState {
                index: Arc::new(IvfIndex::build(&snap, self.ivf_params)),
                snap,
            },
        };
        let answer = (Arc::clone(&state.index), Arc::clone(&state.snap));
        *guard = Some(state);
        answer
    }

    /// Exact top-k for a batch of users, all answered from **one**
    /// consistent epoch.
    ///
    /// Large batches fan out across scoped worker threads (up to the
    /// engine's `query_workers`); batches whose total scoring work would
    /// not amortize a thread spawn are answered inline — spawning two
    /// threads to score a handful of microsecond queries would be slower
    /// than just answering them.
    ///
    /// Results come back in query order.  The whole batch fails with
    /// [`ServeError::UnknownUser`] if any query names a user the snapshot
    /// does not have — validated up front, before any scoring work.
    pub fn batch_top_k(&self, queries: &[UserQuery], k: usize) -> Result<Vec<TopK>, ServeError> {
        /// Minimum per-thread scoring work (in factor multiplies,
        /// `queries × items × k`) before fanning out pays for the ~tens of
        /// µs a thread spawn/join costs.
        const SPAWN_WORK: usize = 1 << 18;
        let snap = self.snapshot()?;
        for q in queries {
            check_user(&snap, q.user)?;
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let work = queries.len() * snap.num_items() * snap.k();
        let workers = self
            .query_workers
            .min(queries.len())
            .min((work / SPAWN_WORK).max(1));
        if workers == 1 {
            return Ok(queries
                .iter()
                .map(|q| snap.top_k(q.user, k, &normalize_seen(&q.seen)))
                .collect());
        }
        let chunk = queries.len().div_ceil(workers);
        let mut results: Vec<Vec<TopK>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|part| {
                    let snap = &snap;
                    scope.spawn(move || {
                        part.iter()
                            .map(|q| snap.top_k(q.user, k, &normalize_seen(&q.seen)))
                            .collect::<Vec<TopK>>()
                    })
                })
                .collect();
            for handle in handles {
                results.push(handle.join().expect("query worker panicked"));
            }
        });
        Ok(results.into_iter().flatten().collect())
    }
}

/// The sorted-strict view of a seen list the scoring kernels require:
/// already-normalized input (the common case — [`UserQuery::with_seen`]
/// produces it) is borrowed as-is after an O(len) check; anything else
/// is sorted and deduplicated into an owned copy.  This is the fix for
/// the latent "seen must be pre-sorted" assumption: an unsorted filter
/// would silently *leak* already-rated items past the binary search, so
/// the engine normalizes at the boundary instead of trusting callers.
fn normalize_seen(seen: &[Idx]) -> Cow<'_, [Idx]> {
    if seen.windows(2).all(|w| w[0] < w[1]) {
        Cow::Borrowed(seen)
    } else {
        let mut sorted = seen.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Cow::Owned(sorted)
    }
}

fn check_user(snap: &ModelSnapshot, user: Idx) -> Result<(), ServeError> {
    if (user as usize) < snap.num_users() {
        Ok(())
    } else {
        Err(ServeError::UnknownUser {
            user,
            num_users: snap.num_users(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_sgd::FactorModel;

    fn served(users: usize, items: usize, k: usize, seed: u64) -> SnapshotPublisher {
        let p = SnapshotPublisher::new(100);
        p.publish_model(&FactorModel::init(users, items, k, seed), 100);
        p
    }

    #[test]
    fn empty_publisher_yields_no_snapshot() {
        let p = SnapshotPublisher::new(10);
        let engine = QueryEngine::new(&p, 1);
        assert_eq!(engine.top_k(0, 3, &[]).unwrap_err(), ServeError::NoSnapshot);
        assert_eq!(
            engine.batch_top_k(&[UserQuery::new(0)], 3).unwrap_err(),
            ServeError::NoSnapshot
        );
    }

    #[test]
    fn unknown_user_is_rejected_up_front() {
        let p = served(4, 6, 3, 1);
        let engine = QueryEngine::new(&p, 2);
        let err = engine.top_k(4, 3, &[]).unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownUser {
                user: 4,
                num_users: 4
            }
        );
        assert!(err.to_string().contains("user 4"));
        // One bad query fails the whole batch, before any scoring.
        let batch = vec![UserQuery::new(0), UserQuery::new(9)];
        assert!(matches!(
            engine.batch_top_k(&batch, 3),
            Err(ServeError::UnknownUser { user: 9, .. })
        ));
    }

    #[test]
    fn batch_matches_per_user_queries_across_pool_sizes() {
        let p = served(9, 25, 4, 7);
        let queries: Vec<UserQuery> = (0..9)
            .map(|u| UserQuery::with_seen(u, vec![u % 5, (u + 3) % 25, u % 5]))
            .collect();
        let reference: Vec<TopK> = {
            let engine = QueryEngine::new(&p, 1);
            queries
                .iter()
                .map(|q| engine.top_k(q.user, 6, &q.seen).unwrap())
                .collect()
        };
        for workers in [1, 2, 3, 8] {
            let engine = QueryEngine::new(&p, workers);
            let batched = engine.batch_top_k(&queries, 6).unwrap();
            assert_eq!(batched, reference, "workers={workers}");
        }
    }

    #[test]
    fn large_batches_fan_out_and_still_match_per_user_queries() {
        // 64 queries × 512 items × k=16 crosses the spawn-work threshold,
        // so this exercises the real scoped-thread path (small batches are
        // answered inline).
        let p = served(64, 512, 16, 3);
        let queries: Vec<UserQuery> = (0..64).map(UserQuery::new).collect();
        let inline = QueryEngine::new(&p, 1).batch_top_k(&queries, 10).unwrap();
        let fanned = QueryEngine::new(&p, 2).batch_top_k(&queries, 10).unwrap();
        assert_eq!(inline, fanned);
        assert_eq!(fanned.len(), 64);
    }

    #[test]
    fn with_seen_sorts_and_dedups() {
        let q = UserQuery::with_seen(1, vec![5, 2, 5, 9, 2]);
        assert_eq!(q.seen, vec![2, 5, 9]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let p = served(2, 2, 2, 0);
        let engine = QueryEngine::new(&p, 4);
        assert_eq!(engine.batch_top_k(&[], 3).unwrap(), Vec::<TopK>::new());
    }

    #[test]
    fn a_query_pinned_before_the_cache_never_patches_it_backwards() {
        let mut model = FactorModel::init(5, 60, 4, 21);
        let p = SnapshotPublisher::new(1 << 40);
        p.publish_model(&model, 100);
        let old = p.latest().unwrap();
        for j in [2, 30, 59] {
            let row: Vec<f64> = model.h.row(j).iter().map(|v| v * -4.0 + 1.0).collect();
            model.h.set_row(j, &row);
        }
        p.publish_model(&model, 200);
        let params = IvfParams {
            n_centroids: 6,
            ..IvfParams::default()
        };
        let engine = QueryEngine::with_ivf_params(&p, 1, params);
        let _ = engine.ivf_index(p.latest().unwrap());
        // A query that pinned epoch 1 before the publish reaches the cache
        // after another query moved it to epoch 2.
        let (index, snap) = engine.ivf_index(old);
        assert_eq!(snap.epoch(), 2, "answered from the cache's snapshot");
        let cached = engine.ivf.lock().unwrap().as_ref().unwrap().snap.epoch();
        assert_eq!(cached, 2, "the cache is not relabelled");
        for user in 0..5 {
            let full = index.top_k(&snap, user, 8, index.n_centroids(), &[]);
            assert_eq!(full, snap.top_k(user, 8, &[]), "user {user}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one query worker")]
    fn zero_workers_rejected() {
        let p = served(2, 2, 2, 0);
        let _ = QueryEngine::new(&p, 0);
    }
}
