//! The [`ScheduleController`] trait and the process-global hook plumbing.
//!
//! Engines cannot carry a controller in [`crate::NomadConfig`] (it is
//! `Copy`), so a controller is *installed* process-wide for
//! the duration of a fuzz run.  Installation is exclusive — a static
//! mutex held by the returned [`Installed`] guard serializes fuzz runs —
//! and the hooks consult a relaxed [`AtomicBool`] first, so when nothing
//! is installed an enabled-but-idle build pays one predicted branch per
//! hook.  With the `sched-fuzz` feature off the call-sites themselves are
//! not compiled at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use nomad_matrix::Idx;

/// A fault the controller asks a chaos transport to inject for one
/// operation (see [`ScheduleController::transport_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// No fault: the operation proceeds normally.
    None,
    /// Partition: the message is held (delayed, never lost) until the
    /// partition heals — TCP semantics, where a cable unplugged and
    /// replugged delivers the backlog.
    Drop,
    /// Crash: the endpoint dies.  Every later send vanishes and every
    /// later receive fails, exactly as if the process took a `SIGKILL`.
    Kill,
}

/// Observes and steers the interleaving decisions of the threaded engine
/// and the `nomad-net` rank loops.
///
/// `who` is the worker/queue index in the threaded engine and the rank
/// index in `nomad-net`.  All methods default to no-ops (and [`route`]
/// to "keep the proposed destination"), so a controller only overrides
/// the decision points it cares about.
///
/// [`route`]: ScheduleController::route
pub trait ScheduleController: Send + Sync {
    /// Called before a worker attempts to pop its queue — the hop
    /// boundary.  A blocking implementation pauses the worker here.
    fn before_pop(&self, who: usize) {
        let _ = who;
    }

    /// Called right after the pop attempt; `got` says whether a token
    /// was obtained.
    fn after_pop(&self, who: usize, got: bool) {
        let _ = (who, got);
    }

    /// May override the routing decision for the token `item` about to
    /// leave worker `who`; `proposed` is the engine's choice among `n`
    /// destinations.  Must return a value `< n`.
    fn route(&self, who: usize, item: Idx, proposed: usize, n: usize) -> usize {
        let _ = (who, item, n);
        proposed
    }

    /// Called just before the token is pushed to `dest`.
    fn before_push(&self, who: usize, dest: usize) {
        let _ = (who, dest);
    }

    /// Called once per comm-thread loop iteration in `nomad-net`, just
    /// before it waits on the transport; a sleeping implementation delays
    /// the comm thread's next receive (straggler comm).
    fn comm_poll(&self, rank: usize) {
        let _ = rank;
    }

    /// Called when a worker leaves its hop loop (drain/stop); the
    /// controller must stop granting it turns.
    fn done(&self, who: usize) {
        let _ = who;
    }

    /// Fault injection for the mutation self-test: when this returns
    /// `true`, the comm path on `rank` skips the slab-row write for the
    /// token it is about to enqueue (the factors are lost but the token
    /// still circulates) — exactly the ownership bug the oracles must
    /// catch.
    fn skip_inject_write(&self, rank: usize) -> bool {
        let _ = rank;
        false
    }

    /// Chaos injection for a transport wrapper: decides the fault for
    /// the `op`-th transport operation (sends and deliveries, counted
    /// per endpoint) at `endpoint`.  Unlike the scheduling hooks this
    /// one is consulted by the *test-layer* `ChaosTransport` wrapper,
    /// which is always compiled — no feature gate — because it never
    /// appears on a production path.
    fn transport_fault(&self, endpoint: usize, op: u64) -> TransportFault {
        let _ = (endpoint, op);
        TransportFault::None
    }
}

/// Fast-path gate: `false` means no controller is installed and every
/// hook returns immediately.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The installed controller, if any.
static CONTROLLER: RwLock<Option<Arc<dyn ScheduleController>>> = RwLock::new(None);

/// Serializes installations: only one fuzz run may hold a controller at
/// a time (a second installer blocks until the first [`Installed`] guard
/// drops).
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard for an installed controller; dropping it uninstalls the
/// controller and releases the exclusive-installation lock.
#[must_use = "dropping the guard immediately uninstalls the controller"]
pub struct Installed {
    _exclusive: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for Installed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Installed")
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *CONTROLLER.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Installs `controller` process-wide until the returned guard drops.
///
/// Blocks while another controller is installed, so concurrent fuzz runs
/// (e.g. `cargo test` threads in one binary) serialize instead of
/// intercepting each other's engines.
pub fn install(controller: Arc<dyn ScheduleController>) -> Installed {
    let exclusive = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    *CONTROLLER.write().unwrap_or_else(|e| e.into_inner()) = Some(controller);
    ACTIVE.store(true, Ordering::SeqCst);
    Installed {
        _exclusive: exclusive,
    }
}

/// Runs `f` against the installed controller, or returns `default` when
/// none is installed.
fn with<R>(default: R, f: impl FnOnce(&dyn ScheduleController) -> R) -> R {
    if !ACTIVE.load(Ordering::Relaxed) {
        return default;
    }
    let guard = CONTROLLER.read().unwrap_or_else(|e| e.into_inner());
    match guard.as_deref() {
        Some(c) => f(c),
        None => default,
    }
}

/// Free-function hook entry points for the engines' hot loops.
///
/// The engines call these (under `#[cfg(feature = "sched-fuzz")]`)
/// instead of touching the registry directly; each forwards to the
/// installed [`ScheduleController`] or falls through when none is
/// installed.
pub mod hooks {
    use super::*;

    /// Forwards [`ScheduleController::before_pop`].
    #[inline]
    pub fn before_pop(who: usize) {
        with((), |c| c.before_pop(who));
    }

    /// Forwards [`ScheduleController::after_pop`].
    #[inline]
    pub fn after_pop(who: usize, got: bool) {
        with((), |c| c.after_pop(who, got));
    }

    /// Forwards [`ScheduleController::route`]; identity when idle.
    #[inline]
    pub fn route(who: usize, item: Idx, proposed: usize, n: usize) -> usize {
        with(proposed, |c| c.route(who, item, proposed, n))
    }

    /// Forwards [`ScheduleController::before_push`].
    #[inline]
    pub fn before_push(who: usize, dest: usize) {
        with((), |c| c.before_push(who, dest));
    }

    /// Forwards [`ScheduleController::comm_poll`].
    #[inline]
    pub fn comm_poll(rank: usize) {
        with((), |c| c.comm_poll(rank));
    }

    /// Forwards [`ScheduleController::done`].
    #[inline]
    pub fn done(who: usize) {
        with((), |c| c.done(who));
    }

    /// Forwards [`ScheduleController::skip_inject_write`]; `false` when
    /// idle.
    #[inline]
    pub fn skip_inject_write(rank: usize) -> bool {
        with(false, |c| c.skip_inject_write(rank))
    }

    /// Forwards [`ScheduleController::transport_fault`];
    /// [`TransportFault::None`] when idle.
    #[inline]
    pub fn transport_fault(endpoint: usize, op: u64) -> TransportFault {
        with(TransportFault::None, |c| c.transport_fault(endpoint, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Counting {
        pops: AtomicUsize,
    }

    impl ScheduleController for Counting {
        fn before_pop(&self, _who: usize) {
            self.pops.fetch_add(1, Ordering::Relaxed);
        }
        fn route(&self, _who: usize, _item: Idx, proposed: usize, n: usize) -> usize {
            (proposed + 1) % n
        }
    }

    #[test]
    fn hooks_are_inert_without_an_installed_controller() {
        hooks::before_pop(0);
        hooks::after_pop(0, true);
        assert_eq!(hooks::route(0, 3, 1, 4), 1);
        assert!(!hooks::skip_inject_write(0));
    }

    #[test]
    fn install_routes_hooks_and_uninstalls_on_drop() {
        let c = Arc::new(Counting {
            pops: AtomicUsize::new(0),
        });
        {
            let _guard = install(c.clone());
            hooks::before_pop(2);
            hooks::before_pop(5);
            assert_eq!(hooks::route(0, 3, 1, 4), 2);
        }
        assert_eq!(c.pops.load(Ordering::Relaxed), 2);
        // Uninstalled: hooks fall through again.
        hooks::before_pop(9);
        assert_eq!(c.pops.load(Ordering::Relaxed), 2);
        assert_eq!(hooks::route(0, 3, 1, 4), 1);
    }
}
