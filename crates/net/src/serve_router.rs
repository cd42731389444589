//! The resilient serving front-end: deadline-routed top-k queries over
//! a live training mesh.
//!
//! A [`ServeRouter`] sits between query threads and the driver loop.
//! Callers block in [`ServeRouter::query`]; the driver *pumps* the
//! router at the top of every loop iteration, which is where every
//! routing decision happens.
//!
//! **The wake contract.**  Nobody waits on a clock for work another
//! party has already produced: for the duration of a run the driver
//! hands the router a [`Waker`] for its own endpoint, and `query`
//! raises it right after inserting into the pending table and before it
//! blocks on its result.  The wake cuts the driver's blocked
//! `recv_timeout` short, the loop comes round, and the pump at its top
//! routes the query — so admission costs a thread hand-off, not a share
//! of the driver's receive timeout.  A wake is never lost (see
//! [`Waker`]): either the pump that follows the insert sees the query,
//! or the receive that follows that pump sees the wake.  The router has
//! no timed events of its own; the driver's tick only bounds how soon an
//! in-flight query sees an owner change the driver decided by the clock
//! (an eviction).
//!
//! **Lock order.**  The router state mutex is always released before
//! the driver's inbox mutex is taken: `query` drops its guard before it
//! wakes, and the pump — which sends to *rank* inboxes under the state
//! mutex — never receives under it, so it never holds both.
//!
//! * **Routing** — a per-user query goes to the rank whose shard owns
//!   the user, over the same [`Transport`] the training traffic uses.
//!   A rank only enters the routing table once its first snapshot
//!   publish has reached the driver (so a mid-run joiner is invisible
//!   to queries until it can actually answer them).
//! * **One send per owner** — a query goes out once, when it is first
//!   routed, and once more only if the driver names a different owner
//!   (an eviction takeover).  The transport is reliable and FIFO per
//!   edge, so a second copy to the same owner could only arrive behind
//!   the first; an unresponsive owner is the failure detector's to
//!   evict, and the deadline bounds the wait meanwhile.
//! * **Deadlines** — every query carries one, and the *caller* enforces
//!   it: a query still unresolved when its wait ends at the deadline
//!   is resolved there as [`ServeError::Timeout`], so a wedged driver
//!   can never hang a query thread.  A reply that lands past the
//!   deadline resolves as a timeout too.
//! * **Admission control** — at most [`RouterConfig::capacity`] queries
//!   are in flight; excess submissions fail *fast* with
//!   [`ServeError::Shed`] instead of queueing behind a collapse (a
//!   bounded queue keeps tail latency bounded; an unbounded one
//!   converts overload into timeouts for everyone).
//! * **Failover** — when a user's owning rank is dead, mid-census, or
//!   not yet publishing, the query is answered from the driver-held
//!   stale replica and marked [`Answer::Stale`] with an explicit
//!   staleness bound — degraded, never an error.
//!
//! The routing decisions need driver state (shard ownership, liveness,
//! the stale replica), so the pump is parameterized by a crate-private
//! `RouterBackend` trait the driver implements; the router itself owns
//! only the query lifecycle.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nomad_telemetry::{names, CounterHandle, HistogramHandle, Registry, TelemetrySnapshot};

use crate::transport::{NetError, Transport, Waker};
use crate::wire::{Message, QUERY_OK, QUERY_RUN_OVER, QUERY_UNKNOWN_USER};

/// Tuning knobs of a [`ServeRouter`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Per-query deadline: every query resolves (answer, shed, or
    /// timeout) within this budget.
    pub deadline: Duration,
    /// Maximum queries in flight; submissions beyond it are shed.
    pub capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(5),
            capacity: 256,
        }
    }
}

/// A resolved query.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Answered by the owning rank from its latest published snapshot.
    Fresh {
        /// Publish epoch of the answering snapshot.
        epoch: u64,
        /// The rank's update clock when the snapshot was initiated.
        updates_at: u64,
        /// Updates the rank had applied beyond the snapshot at answer
        /// time — the freshness bound of the recommendations.
        staleness: u64,
        /// `(item, score)` pairs, best first.
        recs: Vec<(u32, f64)>,
    },
    /// Answered from the driver-held stale replica because the owning
    /// rank was dead, mid-census, or not yet publishing.  Degraded but
    /// explicit: the staleness bound says exactly how degraded.
    Stale {
        /// Update clock of the replica rows that answered.
        updates_at: u64,
        /// Fleet update clock minus `updates_at` — an upper bound on the
        /// updates the answer is missing.
        staleness: u64,
        /// `(item, score)` pairs, best first.
        recs: Vec<(u32, f64)>,
    },
    /// The run has drained and quiesced: live serving is over, the
    /// gathered model is the authoritative place to answer from.
    RunOver,
}

/// Why a query failed.  Every variant is terminal and actionable — the
/// router never converts overload or death into a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The deadline passed with the owning rank alive but unresponsive.
    Timeout {
        /// The queried user.
        user: u32,
        /// The deadline that was missed.
        deadline: Duration,
        /// Sends made: one per owner the query was routed to (0 if it
        /// was never routed).
        attempts: u32,
    },
    /// Admission control refused the query: the in-flight window is
    /// full.  Shedding at submit keeps the queue bounded — the caller
    /// can back off and retry, which an unbounded queue would deny
    /// every query behind the overload.
    Shed {
        /// Queries in flight at submission time.
        in_flight: usize,
        /// The configured window.
        capacity: usize,
    },
    /// The query cannot be routed at all (the user is outside every
    /// shard) — failover has nothing to fail over *to*.
    Failover {
        /// The queried user.
        user: u32,
        /// Why no answer path exists.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Timeout {
                user,
                deadline,
                attempts,
            } => write!(
                f,
                "query for user {user} missed its {deadline:?} deadline after {attempts} \
                 send attempt(s); raise RouterConfig::deadline or check rank health"
            ),
            ServeError::Shed {
                in_flight,
                capacity,
            } => write!(
                f,
                "query shed: {in_flight} queries already in flight (capacity {capacity}); \
                 back off and retry, or raise RouterConfig::capacity"
            ),
            ServeError::Failover { user, reason } => {
                write!(f, "query for user {user} has no answer path: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Cumulative outcome counters, readable at any time via
/// [`ServeRouter::stats`].  Sourced from the router's metric registry —
/// the same `serve.*` counters a telemetry snapshot carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries submitted (admitted or not).
    pub submitted: u64,
    /// Resolved [`Answer::Fresh`].
    pub fresh: u64,
    /// Resolved [`Answer::Stale`].
    pub stale: u64,
    /// Resolved [`Answer::RunOver`].
    pub run_over: u64,
    /// Refused with [`ServeError::Shed`].
    pub shed: u64,
    /// Failed with [`ServeError::Timeout`].
    pub timeout: u64,
    /// Failed with [`ServeError::Failover`].
    pub failover: u64,
    /// Always 0: the router sends a query once per owner and never
    /// re-sends it.  Kept only while the benchmark still reports it.
    pub retries: u64,
    /// Always 0: the router sends no hedged duplicates.  Kept only while
    /// the benchmark still reports it.
    pub hedges: u64,
}

impl RouterStats {
    /// Queries that resolved to some answer (fresh, stale, or run-over).
    pub fn successes(&self) -> u64 {
        self.fresh + self.stale + self.run_over
    }

    /// Every terminal outcome (successes plus errors).
    pub fn resolved(&self) -> u64 {
        self.successes() + self.shed + self.timeout + self.failover
    }
}

/// Where the pump should send a query, as classified by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The user's owning rank is alive and serving.
    Owner(usize),
    /// No live serving owner (dead, mid-census, or not yet published):
    /// answer from the driver-held stale replica.
    Stale,
    /// The owner has quiesced and its shard is gathered: live serving
    /// of this shard is over.
    RunOver,
    /// The user is outside every shard.
    Unknown,
}

/// The driver-side half of the pump: classification and the stale
/// replica.  Both methods take `&mut self` so one backend can hold the
/// driver's mutable replica cache alongside its immutable routing view.
pub(crate) trait RouterBackend {
    /// Classifies a user for routing.
    fn route(&mut self, user: u32) -> Route;

    /// Computes a stale answer `(updates_at, staleness, recs)` from the
    /// driver-held replica; `seen` may be sorted in place.
    fn serve_stale(
        &mut self,
        user: u32,
        k: u32,
        seen: &mut Vec<u32>,
    ) -> (u64, u64, Vec<(u32, f64)>);
}

/// One in-flight query.
struct Pending {
    user: u32,
    k: u32,
    seen: Vec<u32>,
    submitted: Instant,
    deadline: Instant,
    /// Sends so far, one per owner routed to (0 = not yet routed).
    attempts: u32,
    /// The owner the last send went to.
    owner: Option<usize>,
    /// The owner answered "not ready": resolve from the stale replica
    /// at the next pump.
    failover: bool,
}

struct RouterState {
    next_id: u64,
    pending: HashMap<u64, Pending>,
    results: HashMap<u64, Result<Answer, ServeError>>,
    finished: bool,
    /// The pumping driver's endpoint, from [`ServeRouter::attach`] to
    /// [`ServeRouter::finish`].
    waker: Option<Waker>,
}

/// The router's registered metrics: one counter per terminal outcome,
/// the answer-latency histogram, and its admission-wait stage.
struct ServeMetrics {
    submitted: CounterHandle,
    fresh: CounterHandle,
    stale: CounterHandle,
    run_over: CounterHandle,
    shed: CounterHandle,
    timeout: CounterHandle,
    failover: CounterHandle,
    latency_us: HistogramHandle,
    admission_wait_us: HistogramHandle,
}

impl ServeMetrics {
    fn register(registry: &Registry) -> Self {
        Self {
            submitted: registry.counter(names::SERVE_SUBMITTED),
            fresh: registry.counter(names::SERVE_FRESH),
            stale: registry.counter(names::SERVE_STALE),
            run_over: registry.counter(names::SERVE_RUN_OVER),
            shed: registry.counter(names::SERVE_SHED),
            timeout: registry.counter(names::SERVE_TIMEOUT),
            failover: registry.counter(names::SERVE_FAILOVER),
            latency_us: registry.histogram(names::SERVE_LATENCY_US),
            admission_wait_us: registry.histogram(names::SERVE_ADMISSION_WAIT_US),
        }
    }
}

/// The serving front-end; see the module docs.  Clone-free and `Sync`:
/// share it by reference (or `Arc`) between query threads and the
/// driver.
///
/// Every outcome and every completed-query latency is recorded into a
/// [`Registry`] under `serve.*` names: [`stats`](Self::stats) and
/// [`latency_percentiles`](Self::latency_percentiles) read the same
/// counters and `serve.latency_us` histogram callers see in the
/// telemetry snapshot, so there is a single source of truth for serving
/// outcomes and latency.
pub struct ServeRouter {
    cfg: RouterConfig,
    state: Mutex<RouterState>,
    done: Condvar,
    registry: Arc<Registry>,
    metrics: ServeMetrics,
}

impl ServeRouter {
    /// Creates a router with the given knobs and its own private metric
    /// registry.
    pub fn new(cfg: RouterConfig) -> Self {
        Self::with_registry(cfg, Arc::new(Registry::new()))
    }

    /// Creates a router recording its `serve.*` metrics into a shared
    /// registry (so a bench or driver can snapshot serving and engine
    /// metrics together).
    pub fn with_registry(cfg: RouterConfig, registry: Arc<Registry>) -> Self {
        let metrics = ServeMetrics::register(&registry);
        Self {
            cfg,
            state: Mutex::new(RouterState {
                next_id: 0,
                pending: HashMap::new(),
                results: HashMap::new(),
                finished: false,
                waker: None,
            }),
            done: Condvar::new(),
            registry,
            metrics,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The registry the router records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A frozen snapshot of the router's metrics (`serve.*` counters and
    /// the latency histogram), mergeable into a fleet view.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.registry.snapshot()
    }

    fn lock(&self) -> MutexGuard<'_, RouterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Submits a top-k query for `user` (excluding `seen` items, any
    /// order, duplicates allowed) and blocks until it resolves.
    ///
    /// Returns by the deadline regardless of driver health: the caller
    /// ends its own wait there and resolves the timeout itself.
    /// After the run has finished every query resolves immediately as
    /// [`Answer::RunOver`].
    ///
    /// # Errors
    /// [`ServeError::Shed`] when the in-flight window is full,
    /// [`ServeError::Timeout`] when the deadline passes unanswered,
    /// [`ServeError::Failover`] when the user has no answer path.
    pub fn query(&self, user: u32, k: usize, seen: Vec<u32>) -> Result<Answer, ServeError> {
        let now = Instant::now();
        let deadline = now + self.cfg.deadline;
        let (id, waker);
        {
            let mut st = self.lock();
            self.metrics.submitted.inc();
            if st.finished {
                self.metrics.run_over.inc();
                return Ok(Answer::RunOver);
            }
            let in_flight = st.pending.len();
            if in_flight >= self.cfg.capacity {
                self.metrics.shed.inc();
                return Err(ServeError::Shed {
                    in_flight,
                    capacity: self.cfg.capacity,
                });
            }
            id = st.next_id;
            st.next_id += 1;
            st.pending.insert(
                id,
                Pending {
                    user,
                    // Saturate: a top-k past the catalog returns every item.
                    k: u32::try_from(k).unwrap_or(u32::MAX),
                    seen,
                    submitted: now,
                    deadline,
                    attempts: 0,
                    owner: None,
                    failover: false,
                },
            );
            waker = st.waker.clone();
        }
        // Outside the state lock (see the module docs): get the driver
        // out of its receive and into the pump.
        if let Some(waker) = waker {
            waker.wake();
        }
        let mut st = self.lock();
        loop {
            if let Some(res) = st.results.remove(&id) {
                return res;
            }
            let now = Instant::now();
            if now >= deadline {
                // Unanswered at its deadline, whatever the driver is
                // doing: the caller resolves its own timeout, and a reply
                // that comes later finds nothing pending.
                let timeout = self.timeout(&st.pending[&id]);
                self.resolve_locked(&mut st, id, Err(timeout));
                continue;
            }
            let (guard, _) = self
                .done
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Outcome counters so far, read from the registry.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            submitted: self.metrics.submitted.get(),
            fresh: self.metrics.fresh.get(),
            stale: self.metrics.stale.get(),
            run_over: self.metrics.run_over.get(),
            shed: self.metrics.shed.get(),
            timeout: self.metrics.timeout.get(),
            failover: self.metrics.failover.get(),
            retries: 0,
            hedges: 0,
        }
    }

    /// Queries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.lock().pending.len()
    }

    /// `(p50, p99)` answer latency in microseconds from the
    /// `serve.latency_us` histogram (conservative bucket upper bounds),
    /// or `None` before any query completed.
    pub fn latency_percentiles(&self) -> Option<(u64, u64)> {
        let p50 = self.metrics.latency_us.quantile(0.5)?;
        let p99 = self.metrics.latency_us.quantile(0.99)?;
        Some((p50, p99))
    }

    /// The verdict on a pending query that missed its deadline.
    fn timeout(&self, p: &Pending) -> ServeError {
        ServeError::Timeout {
            user: p.user,
            deadline: self.cfg.deadline,
            attempts: p.attempts,
        }
    }

    /// Resolves the pending query `id` and wakes its caller.  Every caller
    /// holds the lock since it saw `id` pending, so it still is.
    fn resolve_locked(&self, st: &mut RouterState, id: u64, result: Result<Answer, ServeError>) {
        let p = st.pending.remove(&id).expect("resolving a pending query");
        match &result {
            Ok(Answer::Fresh { .. }) => self.metrics.fresh.inc(),
            Ok(Answer::Stale { .. }) => self.metrics.stale.inc(),
            Ok(Answer::RunOver) => self.metrics.run_over.inc(),
            Err(ServeError::Timeout { .. }) => self.metrics.timeout.inc(),
            Err(ServeError::Shed { .. }) => self.metrics.shed.inc(),
            Err(ServeError::Failover { .. }) => self.metrics.failover.inc(),
        }
        if matches!(result, Ok(Answer::Fresh { .. }) | Ok(Answer::Stale { .. })) {
            self.metrics
                .latency_us
                .record(p.submitted.elapsed().as_micros() as u64);
        }
        st.results.insert(id, result);
        self.done.notify_all();
    }

    /// Connects the router to the driver about to pump it: from here to
    /// [`finish`](Self::finish), every admitted query wakes `waker`'s
    /// endpoint.  Queries admitted earlier need no wake — the driver
    /// pumps before its first receive.
    pub(crate) fn attach(&self, waker: Waker) {
        self.lock().waker = Some(waker);
    }

    /// One driver-loop pump: routes new queries and serves stale
    /// failovers.  Re-classifies every in-flight query, so one whose
    /// owner is evicted mid-flight is re-sent to the new owner or fails
    /// over instead of timing out.
    pub(crate) fn pump<T: Transport>(
        &self,
        t: &T,
        backend: &mut dyn RouterBackend,
    ) -> Result<(), NetError> {
        let mut st = self.lock();
        // Runs on every frame and every wake: an idle pump is one lock.
        if st.pending.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        let mut ids: Vec<u64> = st.pending.keys().copied().collect();
        ids.sort_unstable(); // deterministic pump order
        for id in ids {
            let p = st.pending.get_mut(&id).expect("pending");
            let (user, k) = (p.user, p.k);
            if p.attempts == 0 {
                // Never sent: this is the first pump to see the query, and
                // every arm below either sends it or resolves it.
                self.metrics
                    .admission_wait_us
                    .record(now.saturating_duration_since(p.submitted).as_micros() as u64);
            }
            let result = match backend.route(user) {
                Route::Unknown => Err(ServeError::Failover {
                    user,
                    reason: format!("user {user} is outside every rank's shard"),
                }),
                Route::RunOver => Ok(Answer::RunOver),
                Route::Owner(owner) if !p.failover => {
                    if p.owner == Some(owner) {
                        // Already sent to this owner: its reply or the
                        // caller's deadline decides.
                        continue;
                    }
                    // First send, or the owner changed under us
                    // (eviction takeover): (re)route.
                    p.owner = Some(owner);
                    p.attempts += 1;
                    let msg = Message::Query {
                        id,
                        user,
                        k,
                        seen: p.seen.clone(),
                    };
                    match t.send(owner, &msg) {
                        // A dead stream is the failure detector's
                        // problem; a pump after the eviction re-routes.
                        Err(NetError::PeerGone(_)) => {}
                        other => {
                            other?;
                        }
                    }
                    continue;
                }
                // No live serving owner, or the owner said "not ready":
                // degrade to the stale replica rather than spin on it.
                Route::Stale | Route::Owner(_) => {
                    let (updates_at, staleness, recs) = backend.serve_stale(user, k, &mut p.seen);
                    Ok(Answer::Stale {
                        updates_at,
                        staleness,
                        recs,
                    })
                }
            };
            self.resolve_locked(&mut st, id, result);
        }
        Ok(())
    }

    /// Feeds a rank's reply back into the query lifecycle.
    pub(crate) fn on_reply(
        &self,
        id: u64,
        status: u8,
        epoch: u64,
        updates_at: u64,
        staleness: u64,
        recs: Vec<(u32, f64)>,
    ) {
        let mut st = self.lock();
        let Some(p) = st.pending.get_mut(&id) else {
            return; // late reply: its caller already timed out
        };
        // Strict deadline semantics: an answer landing past the deadline
        // is an answer nobody is waiting for — it resolves as a timeout,
        // deterministically, rather than racing the caller's own wake.
        let result = if Instant::now() >= p.deadline {
            Err(self.timeout(p))
        } else {
            match status {
                QUERY_OK => Ok(Answer::Fresh {
                    epoch,
                    updates_at,
                    staleness,
                    recs,
                }),
                QUERY_RUN_OVER => Ok(Answer::RunOver),
                QUERY_UNKNOWN_USER => Err(ServeError::Failover {
                    user: p.user,
                    reason: "the owning rank's snapshot does not contain this user".into(),
                }),
                // QUERY_NOT_READY (and anything a future rank might add):
                // fail over to the stale replica at the next pump.
                _ => {
                    p.failover = true;
                    return;
                }
            }
        };
        self.resolve_locked(&mut st, id, result);
    }

    /// The run is over: resolves everything in flight as
    /// [`Answer::RunOver`], makes every later submission resolve the
    /// same way immediately, and lets go of the driver's endpoint.
    pub(crate) fn finish(&self) {
        let mut st = self.lock();
        st.finished = true;
        st.waker = None;
        let ids: Vec<u64> = st.pending.keys().copied().collect();
        for id in ids {
            self.resolve_locked(&mut st, id, Ok(Answer::RunOver));
        }
        self.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Loopback;
    use crate::wire::QUERY_NOT_READY;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::sync::mpsc;

    struct ScriptedBackend {
        route: Route,
    }

    impl RouterBackend for ScriptedBackend {
        fn route(&mut self, _user: u32) -> Route {
            self.route
        }

        fn serve_stale(
            &mut self,
            user: u32,
            _k: u32,
            seen: &mut Vec<u32>,
        ) -> (u64, u64, Vec<(u32, f64)>) {
            seen.sort_unstable();
            (7, 42, vec![(user + 1, 0.5)])
        }
    }

    /// A loop shaped like `run_driver_impl`'s: pump, then block in a
    /// receive far longer than any test may take, feeding replies back.
    /// Reports on `idle` before every receive; a wake with `stop` set ends
    /// it.
    fn drive(
        router: &ServeRouter,
        driver: &Loopback,
        route: Route,
        idle: &mpsc::Sender<()>,
        stop: &AtomicBool,
    ) {
        let mut backend = ScriptedBackend { route };
        router.attach(driver.waker());
        while !stop.load(SeqCst) {
            router.pump(driver, &mut backend).unwrap();
            let _ = idle.send(());
            let Some((_, msg)) = driver.recv_timeout(Duration::from_secs(5)).unwrap() else {
                continue;
            };
            let Message::QueryReply {
                id,
                status,
                epoch,
                updates_at,
                staleness,
                recs,
            } = msg
            else {
                panic!("driver got non-reply");
            };
            router.on_reply(id, status, epoch, updates_at, staleness, recs);
        }
    }

    #[test]
    fn a_submission_wakes_a_driver_blocked_in_its_receive() {
        let (driver, _ranks) = Loopback::mesh(1);
        let router = ServeRouter::new(RouterConfig::default());
        let stop = AtomicBool::new(false);
        let (idle_tx, idle) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| drive(&router, &driver, Route::Stale, &idle_tx, &stop));
            // The driver has pumped an empty router and is in (or about to
            // enter) a five-second receive: only a wake gets it out.
            idle.recv().unwrap();
            let before = Instant::now();
            let got = router.query(6, 3, vec![]);
            let took = before.elapsed();
            stop.store(true, SeqCst);
            driver.waker().wake();
            assert!(matches!(got, Ok(Answer::Stale { staleness: 42, .. })));
            assert!(
                took < Duration::from_secs(1),
                "the query waited out the driver's receive ({took:?})"
            );
        });
    }

    #[test]
    fn concurrent_submitters_all_resolve_through_a_blocking_driver() {
        let (driver, ranks) = Loopback::mesh(1);
        let router = ServeRouter::new(RouterConfig::default());
        let stop = AtomicBool::new(false);
        let (idle_tx, idle) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| drive(&router, &driver, Route::Owner(0), &idle_tx, &stop));
            // The owning rank: answers every query with its own user id.
            scope.spawn(|| {
                while !stop.load(SeqCst) {
                    let Some((_, msg)) = ranks[0].recv_timeout(Duration::from_secs(5)).unwrap()
                    else {
                        continue;
                    };
                    let Message::Query { id, user, .. } = msg else {
                        panic!("rank got non-query");
                    };
                    let reply = Message::QueryReply {
                        id,
                        status: QUERY_OK,
                        epoch: 1,
                        updates_at: 10,
                        staleness: 0,
                        recs: vec![(user, 1.0)],
                    };
                    ranks[0].send(1, &reply).unwrap();
                }
            });
            idle.recv().unwrap();
            let before = Instant::now();
            let submitters: Vec<_> = (0..64u32)
                .map(|user| {
                    let router = &router;
                    scope.spawn(move || router.query(user, 1, vec![]))
                })
                .collect();
            let answers: Vec<_> = submitters
                .into_iter()
                .map(|handle| handle.join().expect("query thread"))
                .collect();
            let took = before.elapsed();
            stop.store(true, SeqCst);
            driver.waker().wake();
            ranks[0].waker().wake();
            for (user, got) in answers.into_iter().enumerate() {
                assert!(
                    matches!(&got, Ok(Answer::Fresh { recs, .. }) if recs[0].0 == user as u32),
                    "user {user} got {got:?}"
                );
            }
            assert!(took < Duration::from_secs(2), "64 queries took {took:?}");
            assert_eq!(router.in_flight(), 0);
            assert_eq!(router.stats().fresh, 64);
        });
    }

    #[test]
    fn zero_capacity_sheds_immediately() {
        let router = ServeRouter::new(RouterConfig {
            capacity: 0,
            ..RouterConfig::default()
        });
        let err = router.query(3, 5, vec![]).unwrap_err();
        assert!(matches!(err, ServeError::Shed { capacity: 0, .. }));
        assert_eq!(router.stats().shed, 1);
    }

    #[test]
    fn finished_router_answers_run_over_immediately() {
        let router = ServeRouter::new(RouterConfig::default());
        router.finish();
        let before = Instant::now();
        assert_eq!(router.query(0, 5, vec![]).unwrap(), Answer::RunOver);
        assert!(before.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn error_messages_are_actionable() {
        let timeout = ServeError::Timeout {
            user: 4,
            deadline: Duration::from_millis(100),
            attempts: 3,
        };
        assert!(timeout.to_string().contains("RouterConfig::deadline"));
        let shed = ServeError::Shed {
            in_flight: 8,
            capacity: 8,
        };
        assert!(shed.to_string().contains("RouterConfig::capacity"));
        let failover = ServeError::Failover {
            user: 2,
            reason: "no shard".into(),
        };
        assert!(failover.to_string().contains("no answer path"));
    }

    #[test]
    fn stale_route_resolves_without_any_rank() {
        let (driver, _ranks) = Loopback::mesh(1);
        let router = ServeRouter::new(RouterConfig::default());
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| router.query(6, 3, vec![9, 1, 1]));
            // Pump until the submission is visible and resolved.
            let mut backend = ScriptedBackend {
                route: Route::Stale,
            };
            for _ in 0..200 {
                router.pump(&driver, &mut backend).unwrap();
                if router.in_flight() == 0 && router.stats().resolved() > 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let got = handle.join().expect("query thread").unwrap();
            assert_eq!(
                got,
                Answer::Stale {
                    updates_at: 7,
                    staleness: 42,
                    recs: vec![(7, 0.5)],
                }
            );
        });
    }

    #[test]
    fn unknown_route_fails_over_with_reason() {
        let (driver, _ranks) = Loopback::mesh(1);
        let router = ServeRouter::new(RouterConfig::default());
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| router.query(99, 3, vec![]));
            let mut backend = ScriptedBackend {
                route: Route::Unknown,
            };
            for _ in 0..200 {
                router.pump(&driver, &mut backend).unwrap();
                if router.stats().resolved() > 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let err = handle.join().expect("query thread").unwrap_err();
            assert!(matches!(err, ServeError::Failover { user: 99, .. }));
        });
    }

    #[test]
    fn owner_reply_roundtrip_resolves_fresh_and_not_ready_degrades() {
        let (driver, ranks) = Loopback::mesh(1);
        let router = ServeRouter::new(RouterConfig::default());
        std::thread::scope(|scope| {
            let fresh = scope.spawn(|| router.query(2, 3, vec![]));
            let degraded = scope.spawn(|| router.query(5, 3, vec![]));
            let mut backend = ScriptedBackend {
                route: Route::Owner(0),
            };
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut resolved = 0;
            while resolved < 2 && Instant::now() < deadline {
                router.pump(&driver, &mut backend).unwrap();
                while let Some((_, msg)) = ranks[0]
                    .recv_timeout(Duration::from_millis(1))
                    .expect("rank recv")
                {
                    let Message::Query { id, user, .. } = msg else {
                        panic!("rank got non-query");
                    };
                    // User 2 answers fresh; user 5 is not ready yet.
                    let (status, recs) = if user == 2 {
                        (QUERY_OK, vec![(11u32, 1.5)])
                    } else {
                        (QUERY_NOT_READY, vec![])
                    };
                    router.on_reply(id, status, 3, 100, 8, recs);
                }
                resolved = router.stats().resolved();
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                fresh.join().expect("query thread").unwrap(),
                Answer::Fresh {
                    epoch: 3,
                    updates_at: 100,
                    staleness: 8,
                    recs: vec![(11, 1.5)],
                }
            );
            assert!(matches!(
                degraded.join().expect("query thread").unwrap(),
                Answer::Stale { staleness: 42, .. }
            ));
        });
        // One admission-wait sample per query, however many pumps (the
        // not-ready one was pumped at least twice) it took to resolve.
        assert_eq!(router.metrics.admission_wait_us.count(), 2);
    }

    #[test]
    fn unanswered_owner_times_out_within_deadline_plus_grace() {
        let (driver, _ranks) = Loopback::mesh(1);
        let cfg = RouterConfig {
            deadline: Duration::from_millis(60),
            ..RouterConfig::default()
        };
        let router = ServeRouter::new(cfg);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let before = Instant::now();
                let res = router.query(1, 3, vec![]);
                (res, before.elapsed())
            });
            let mut backend = ScriptedBackend {
                route: Route::Owner(0),
            };
            let stop = Instant::now() + Duration::from_secs(2);
            while router.stats().resolved() == 0 && Instant::now() < stop {
                router.pump(&driver, &mut backend).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            let (res, took) = handle.join().expect("query thread");
            let err = res.unwrap_err();
            assert!(matches!(err, ServeError::Timeout { attempts, .. } if attempts >= 1));
            assert!(
                took < cfg.deadline + Duration::from_secs(1),
                "timeout resolution must be prompt, took {took:?}"
            );
        });
    }

    #[test]
    fn a_query_is_sent_once_per_owner_and_resolves_at_its_deadline() {
        let (driver, ranks) = Loopback::mesh(2);
        let deadline = Duration::from_millis(150);
        let router = ServeRouter::new(RouterConfig {
            deadline,
            ..RouterConfig::default()
        });
        // Drains the frames waiting at a rank that never answers.
        let sends_to = |r: usize| {
            std::iter::from_fn(|| ranks[r].recv_timeout(Duration::ZERO).unwrap()).count()
        };
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let before = Instant::now();
                (router.query(1, 3, vec![]), before.elapsed())
            });
            let mut backend = ScriptedBackend {
                route: Route::Owner(0),
            };
            while router.in_flight() == 0 {
                std::thread::yield_now();
            }
            // Past the 20 ms a hedge used to wait and the ~50 ms of a
            // first retry.
            let admitted = Instant::now();
            while admitted.elapsed() < Duration::from_millis(100) {
                router.pump(&driver, &mut backend).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(sends_to(0), 1, "one send to the first owner");
            backend.route = Route::Owner(1); // an eviction takeover
            while router.stats().resolved() == 0 {
                router.pump(&driver, &mut backend).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            let (res, took) = handle.join().expect("query thread");
            assert_eq!(
                (sends_to(0), sends_to(1)),
                (0, 1),
                "one send to the new owner"
            );
            assert!(
                matches!(res, Err(ServeError::Timeout { attempts: 2, .. })),
                "got {res:?}"
            );
            assert!(
                took >= deadline && took < deadline + Duration::from_secs(1),
                "took {took:?}"
            );
        });
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_k_past_u32_saturates_instead_of_wrapping_to_zero() {
        let (driver, ranks) = Loopback::mesh(1);
        let router = ServeRouter::new(RouterConfig::default());
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| router.query(1, 1 << 32, vec![]));
            let mut backend = ScriptedBackend {
                route: Route::Owner(0),
            };
            let msg = loop {
                router.pump(&driver, &mut backend).unwrap();
                if let Some((_, msg)) = ranks[0].recv_timeout(Duration::from_millis(1)).unwrap() {
                    break msg;
                }
            };
            router.finish();
            assert_eq!(handle.join().expect("query thread"), Ok(Answer::RunOver));
            assert!(
                matches!(msg, Message::Query { k: u32::MAX, .. }),
                "rank got {msg:?}"
            );
        });
    }

    #[test]
    fn outcome_counters_and_latency_live_in_the_shared_registry() {
        use nomad_telemetry::names;
        let registry = Arc::new(Registry::new());
        let router = ServeRouter::with_registry(
            RouterConfig {
                capacity: 0,
                ..RouterConfig::default()
            },
            Arc::clone(&registry),
        );
        let _ = router.query(1, 3, vec![]).unwrap_err(); // shed
        router.finish();
        let _ = router.query(2, 3, vec![]).unwrap(); // run-over
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::SERVE_SUBMITTED), Some(2));
        assert_eq!(snap.counter(names::SERVE_SHED), Some(1));
        assert_eq!(snap.counter(names::SERVE_RUN_OVER), Some(1));
        // stats() reads the very same counters.
        let stats = router.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.run_over, 1);
        assert_eq!(router.telemetry(), snap);
    }

    #[test]
    fn client_enforces_deadline_even_without_a_pump() {
        let router = ServeRouter::new(RouterConfig {
            deadline: Duration::from_millis(40),
            ..RouterConfig::default()
        });
        let before = Instant::now();
        let err = router.query(1, 3, vec![]).unwrap_err();
        assert!(matches!(err, ServeError::Timeout { .. }));
        let took = before.elapsed();
        assert!(
            took >= Duration::from_millis(40) && took < Duration::from_secs(2),
            "no-pump query must resolve at its deadline, took {took:?}"
        );
    }
}
