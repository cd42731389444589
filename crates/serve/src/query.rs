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
//! The approximate path ([`QueryEngine::top_k_approx`]) probes the
//! [`crate::IvfIndex`] attached to the pinned snapshot
//! ([`ModelSnapshot::ivf`]), so the index and its rows come from one pin.
//! The engine keeps no index: the publisher maintains one per queried
//! epoch, derived by its first approximate query ([`crate::publisher`]).
//!
//! `seen` lists are normalized (sorted, deduplicated) on entry: callers
//! may pass them in any order, with duplicates.  Pre-sorted input takes
//! an O(len) verification pass and no copy.

use std::borrow::Cow;
use std::sync::Arc;

use nomad_matrix::Idx;

use crate::ivf::IvfParams;
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

/// Answers top-k recommendation queries from the latest published epoch.
#[derive(Debug)]
pub struct QueryEngine<'p> {
    publisher: &'p SnapshotPublisher,
    query_workers: usize,
    ivf_params: IvfParams,
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
    /// benches pin the centroid count to control `nprobe` sweeps).  The
    /// run's first approximate request on the publisher fixes them; an
    /// engine with others shares that index ([`QueryEngine::ivf_centroids`]).
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
        }
    }

    /// The latest snapshot, or [`ServeError::NoSnapshot`].
    pub fn snapshot(&self) -> Result<Arc<ModelSnapshot>, ServeError> {
        self.publisher.latest().ok_or(ServeError::NoSnapshot)
    }

    /// The latest snapshot with the IVF index the approximate path probes
    /// attached ([`ModelSnapshot::ivf`] is `Some`), derived for the epoch
    /// if no query has asked yet.
    pub fn ivf_snapshot(&self) -> Result<Arc<ModelSnapshot>, ServeError> {
        (self.publisher)
            .latest_with_ivf(self.ivf_params)
            .ok_or(ServeError::NoSnapshot)
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
    pub fn top_k_approx(
        &self,
        user: Idx,
        k: usize,
        nprobe: usize,
        seen: &[Idx],
    ) -> Result<TopK, ServeError> {
        let snap = self.ivf_snapshot()?;
        check_user(&snap, user)?;
        let index = snap.ivf().expect("an IVF snapshot carries its index");
        Ok(index.top_k(&snap, user, k, nprobe, &normalize_seen(seen)))
    }

    /// Centroid count of the approximate index over the current catalog
    /// (the `nprobe` value at which [`QueryEngine::top_k_approx`] is
    /// bit-identical to the exact scan); 0 for an empty catalog, which
    /// every query answers with no items.  Derives the epoch's index if
    /// no query has yet.
    pub fn ivf_centroids(&self) -> Result<usize, ServeError> {
        let snap = self.ivf_snapshot()?;
        let index = snap.ivf().expect("an IVF snapshot carries its index");
        Ok(index.n_centroids())
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
    #[should_panic(expected = "at least one query worker")]
    fn zero_workers_rejected() {
        let p = served(2, 2, 2, 0);
        let _ = QueryEngine::new(&p, 0);
    }
}
