//! Seeded exploration strategies and the [`FuzzController`] that applies
//! them through the [`super::ScheduleController`] injection points.
//!
//! A schedule is identified by a [`FuzzCase`] — a `(seed, strategy)`
//! pair.  The controller is a *turnstile*: workers pause at the
//! `before_pop` hop boundary until granted a turn, hold the turn through
//! the whole hop (pop → update → push), and hand it back at the next
//! boundary — or at an empty pop, after which the worker is out of the
//! rotation until it returns to `before_pop`, because an idle worker waits
//! on its queue.  Which worker the turn goes to is the strategy's decision,
//! driven by a [`SmallRng64`] seeded from the case — so the same case
//! replays the same grant sequence.
//!
//! Liveness guards (both counted, see [`FuzzController::escapes`]):
//! a worker that waits longer than `ESCAPE_TIMEOUT` (50 ms) proceeds without
//! the turn rather than deadlock, and after every registered worker has
//! popped empty in a row the grant falls back to pure round-robin so the
//! actual token holder is reached within one rotation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nomad_linalg::SmallRng64;
use nomad_matrix::Idx;

use super::controller::ScheduleController;

/// Upper bound on distinct `who` indices the turnstile tracks; hooks
/// from larger indices pass through uncontrolled.
const MAX_PARTIES: usize = 64;

/// How long a worker waits for its turn before proceeding anyway.
const ESCAPE_TIMEOUT: Duration = Duration::from_millis(50);

/// Grants between priority re-rolls under [`Strategy::Pct`].
const PCT_RESHUFFLE: u64 = 17;

/// Grants for which the same victim stays starved under
/// [`Strategy::Starve`].
const STARVE_BURST: u64 = 23;

/// Consecutive grants the same worker receives under [`Strategy::Burst`].
const BURST_LEN: u64 = 13;

/// Default length, in transport operations, of a
/// [`Strategy::Partition`] window (override with
/// [`FuzzController::with_chaos`]).  A rank's comm thread wakes only for
/// traffic, its worker or a heartbeat tick, so a victim whose tokens have
/// drained away draws just a few operations per tick (one receive, a ping
/// per peer); a window of a few dozen operations keeps even such a
/// partition under a second.
pub const DEFAULT_PARTITION_OPS: u64 = 24;

/// A seeded interleaving-exploration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// PCT-style random priorities: each worker gets a random priority,
    /// the highest-priority runnable worker is granted; priorities are
    /// re-rolled every few grants (priority change points).
    Pct,
    /// Round-robin starvation: one victim at a time is denied turns for
    /// a stretch while routing biases tokens *toward* its queue, then
    /// the victimhood rotates.
    Starve,
    /// Burst/delay: one worker runs many hops back-to-back while the
    /// others pause, and comm threads are made to oversleep before their
    /// waits.
    Burst,
    /// Chaos: kill the victim endpoint at the given transport operation
    /// (its sends vanish, its receives fail — a process `SIGKILL` as
    /// seen from the mesh).  Scheduling decisions fall back to
    /// [`Strategy::Pct`]; the payload is the 0-based op index.
    Crash(u64),
    /// Chaos: partition the victim endpoint for a window of transport
    /// operations starting at the given op — traffic is *held*, not
    /// lost, and delivered when the partition heals (TCP semantics).
    /// Scheduling decisions fall back to [`Strategy::Pct`].
    Partition(u64),
}

impl Strategy {
    /// All pure scheduling strategies, in sweep order.  The chaos
    /// strategies ([`Strategy::Crash`], [`Strategy::Partition`]) carry a
    /// step payload and are swept by the chaos harnesses instead.
    pub const ALL: [Strategy; 3] = [Strategy::Pct, Strategy::Starve, Strategy::Burst];
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Pct => f.write_str("pct"),
            Strategy::Starve => f.write_str("starve"),
            Strategy::Burst => f.write_str("burst"),
            Strategy::Crash(step) => write!(f, "crash@{step}"),
            Strategy::Partition(step) => write!(f, "partition@{step}"),
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((name, step)) = s.split_once('@') {
            let step: u64 = step
                .parse()
                .map_err(|e| format!("bad step in strategy {s:?}: {e}"))?;
            return match name {
                "crash" => Ok(Strategy::Crash(step)),
                "partition" => Ok(Strategy::Partition(step)),
                other => Err(format!(
                    "unknown stepped strategy {other:?} (expected crash or partition)"
                )),
            };
        }
        match s {
            "pct" => Ok(Strategy::Pct),
            "starve" => Ok(Strategy::Starve),
            "burst" => Ok(Strategy::Burst),
            other => Err(format!(
                "unknown strategy {other:?} (expected pct, starve, burst, crash@N or partition@N)"
            )),
        }
    }
}

/// One replayable schedule: a strategy plus the seed driving all of its
/// random decisions.  Printed on failure as `strategy@0xseed` and parsed
/// back by [`FromStr`](std::str::FromStr) for `NOMAD_FUZZ_REPLAY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuzzCase {
    /// Seed for every random decision the strategy makes.
    pub seed: u64,
    /// The exploration strategy.
    pub strategy: Strategy,
}

impl FuzzCase {
    /// A case from its parts.
    pub fn new(seed: u64, strategy: Strategy) -> Self {
        Self { seed, strategy }
    }
}

impl std::fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{:#x}", self.strategy, self.seed)
    }
}

impl std::str::FromStr for FuzzCase {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // The seed is the *last* `@` field so the stepped chaos
        // strategies round-trip: `crash@12@0x7` is `(crash@12, 0x7)`.
        let (name, seed) = s
            .rsplit_once('@')
            .ok_or_else(|| format!("expected strategy@seed, got {s:?}"))?;
        let strategy: Strategy = name.parse()?;
        let seed = match seed.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => seed.parse(),
        }
        .map_err(|e| format!("bad seed in {s:?}: {e}"))?;
        Ok(FuzzCase { seed, strategy })
    }
}

/// Deliberate fault injection, for proving the oracles can catch the bug
/// class they exist for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Skip the slab-row write for the n-th token (0-based, counted
    /// process-wide) injected by the comm path before it is enqueued —
    /// the canonical ownership bug: the token circulates but its factors
    /// were never handed off.
    pub skip_inject_write_at: Option<u64>,
}

/// Strategy-scheduler state behind the turnstile mutex.
struct Sched {
    rng: SmallRng64,
    present: [bool; MAX_PARTIES],
    priorities: [u64; MAX_PARTIES],
    current: Option<usize>,
    /// Total turns granted.
    grants: u64,
    /// Grant count at the last PCT priority re-roll.
    last_shuffle: u64,
    /// Consecutive empty pops across all workers since the last
    /// successful hop — drives the round-robin fairness fallback.
    dry: usize,
    /// Remaining grants in the current burst ([`Strategy::Burst`]).
    burst_left: u64,
    /// Currently starved party slot ([`Strategy::Starve`]).
    starved: usize,
}

/// The seeded adversarial [`ScheduleController`]: see the module docs
/// for the turnstile protocol and liveness guards.
pub struct FuzzController {
    case: FuzzCase,
    fault: FaultPlan,
    /// Endpoint the chaos strategies victimize; `None` disarms
    /// [`ScheduleController::transport_fault`].
    chaos_victim: Option<usize>,
    /// Length of a [`Strategy::Partition`] window in transport ops.
    partition_ops: u64,
    sched: Mutex<Sched>,
    turn: Condvar,
    /// Comm threads draw delays from their own rng so their (wall-clock
    /// timed, hence nondeterministic) loop cadence cannot perturb the
    /// worker-side decision stream.
    comm_rng: Mutex<SmallRng64>,
    injects: AtomicU64,
    escapes: AtomicU64,
    hops: AtomicU64,
}

impl std::fmt::Debug for FuzzController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuzzController")
            .field("case", &self.case)
            .field("fault", &self.fault)
            .field("hops", &self.hops.load(Ordering::Relaxed))
            .field("escapes", &self.escapes.load(Ordering::Relaxed))
            .finish()
    }
}

impl FuzzController {
    /// A controller for `case`, optionally planting a fault.
    pub fn new(case: FuzzCase, fault: FaultPlan) -> Self {
        let rng = SmallRng64::new(case.seed ^ 0x5EED_FACE_CAFE_F00D);
        let comm_rng = SmallRng64::new(case.seed ^ 0xC033_11AD_0000_7357);
        Self {
            case,
            fault,
            chaos_victim: None,
            partition_ops: DEFAULT_PARTITION_OPS,
            sched: Mutex::new(Sched {
                rng,
                present: [false; MAX_PARTIES],
                priorities: [0; MAX_PARTIES],
                current: None,
                grants: 0,
                last_shuffle: 0,
                dry: 0,
                burst_left: 0,
                starved: 0,
            }),
            turn: Condvar::new(),
            comm_rng: Mutex::new(comm_rng),
            injects: AtomicU64::new(0),
            escapes: AtomicU64::new(0),
            hops: AtomicU64::new(0),
        }
    }

    /// Arms the chaos strategies: `victim` is the endpoint index the
    /// [`Strategy::Crash`]/[`Strategy::Partition`] fault targets, and
    /// `partition_ops` the partition window length in transport
    /// operations (`0` keeps [`DEFAULT_PARTITION_OPS`]).  Without this,
    /// `transport_fault` never fires.
    pub fn with_chaos(mut self, victim: usize, partition_ops: u64) -> Self {
        self.chaos_victim = Some(victim);
        if partition_ops > 0 {
            self.partition_ops = partition_ops;
        }
        self
    }

    /// The case this controller replays.
    pub fn case(&self) -> FuzzCase {
        self.case
    }

    /// Hops observed through the hooks (successful pops).
    pub fn hops(&self) -> u64 {
        self.hops.load(Ordering::Relaxed)
    }

    /// Liveness escapes taken: turns abandoned after
    /// `ESCAPE_TIMEOUT`.  Non-zero means the schedule was not fully
    /// controller-ordered (replay is then best-effort).
    pub fn escapes(&self) -> u64 {
        self.escapes.load(Ordering::Relaxed)
    }

    /// Comm-path token injections observed (only counted when a
    /// [`FaultPlan`] is armed).
    pub fn injects(&self) -> u64 {
        self.injects.load(Ordering::Relaxed)
    }

    fn lock_sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Picks the next turn holder per the strategy and stores it in
    /// `s.current`.  Caller must notify waiters afterwards.
    fn advance(&self, s: &mut Sched) {
        let parties: Vec<usize> = (0..MAX_PARTIES).filter(|&i| s.present[i]).collect();
        if parties.is_empty() {
            s.current = None;
            return;
        }
        s.grants += 1;
        // Fairness fallback: everyone has popped empty since the last
        // real hop, so the strategy's preference is pointing away from
        // wherever the tokens are — rotate round-robin until progress.
        let chosen = if s.dry > parties.len() {
            parties[(s.grants as usize) % parties.len()]
        } else {
            match self.case.strategy {
                // Chaos strategies inject transport faults; their
                // scheduling side is plain PCT.
                Strategy::Pct | Strategy::Crash(_) | Strategy::Partition(_) => {
                    if s.last_shuffle == 0 || s.grants - s.last_shuffle >= PCT_RESHUFFLE {
                        for &p in &parties {
                            s.priorities[p] = s.rng.next_u64();
                        }
                        s.last_shuffle = s.grants;
                    }
                    *parties
                        .iter()
                        .max_by_key(|&&p| s.priorities[p])
                        .expect("parties is non-empty")
                }
                Strategy::Starve => {
                    s.starved = ((s.grants / STARVE_BURST) as usize) % parties.len();
                    let victim = parties[s.starved];
                    if parties.len() == 1 {
                        victim
                    } else {
                        loop {
                            let pick = parties[s.rng.next_below(parties.len())];
                            if pick != victim {
                                break pick;
                            }
                        }
                    }
                }
                Strategy::Burst => {
                    match s.current {
                        // Keep bursting on the same worker while it is
                        // still registered and the burst has budget.
                        Some(cur) if s.burst_left > 0 && s.present[cur] => {
                            s.burst_left -= 1;
                            cur
                        }
                        _ => {
                            s.burst_left = BURST_LEN;
                            parties[s.rng.next_below(parties.len())]
                        }
                    }
                }
            }
        };
        s.current = Some(chosen);
    }
}

impl ScheduleController for FuzzController {
    fn before_pop(&self, who: usize) {
        if who >= MAX_PARTIES {
            return;
        }
        let mut s = self.lock_sched();
        s.present[who] = true;
        if s.current == Some(who) {
            // The worker finished its previous hop — hand the turn over.
            self.advance(&mut s);
            self.turn.notify_all();
        }
        if s.current.is_none() {
            self.advance(&mut s);
            self.turn.notify_all();
        }
        let deadline = Instant::now() + ESCAPE_TIMEOUT;
        while s.current != Some(who) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Liveness escape: proceed without the turn rather than
                // risk deadlock (e.g. the holder is blocked outside the
                // hooks).  Counted — see [`FuzzController::escapes`].
                self.escapes.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let (guard, _timeout) = self
                .turn
                .wait_timeout(s, left)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
        }
    }

    fn after_pop(&self, who: usize, got: bool) {
        if who >= MAX_PARTIES {
            return;
        }
        if got {
            self.hops.fetch_add(1, Ordering::Relaxed);
        }
        let mut s = self.lock_sched();
        if got {
            s.dry = 0;
        } else {
            s.dry += 1;
            // An idle worker leaves the turnstile until its next
            // `before_pop`: it waits on its empty queue, and a turn granted
            // to it there would stall everyone else until the escape.
            s.present[who] = false;
            if s.current == Some(who) {
                // Empty queue: the turn is useless here, pass it on.
                self.advance(&mut s);
                self.turn.notify_all();
            }
        }
    }

    fn route(&self, _who: usize, _item: Idx, proposed: usize, n: usize) -> usize {
        if n <= 1 {
            return proposed;
        }
        let mut s = self.lock_sched();
        match self.case.strategy {
            Strategy::Pct | Strategy::Crash(_) | Strategy::Partition(_) => {
                if s.rng.next_below(4) == 0 {
                    s.rng.next_below(n)
                } else {
                    proposed
                }
            }
            Strategy::Starve => {
                // Pile tokens up behind the paused victim's queue.
                if s.rng.next_below(2) == 0 {
                    s.starved % n
                } else {
                    proposed
                }
            }
            Strategy::Burst => {
                if s.rng.next_below(8) == 0 {
                    s.rng.next_below(n)
                } else {
                    proposed
                }
            }
        }
    }

    fn comm_poll(&self, _rank: usize) {
        if matches!(self.case.strategy, Strategy::Burst | Strategy::Starve) {
            let oversleep = {
                let mut rng = self.comm_rng.lock().unwrap_or_else(|e| e.into_inner());
                rng.next_below(16) == 0
            };
            if oversleep {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
    }

    fn done(&self, who: usize) {
        if who >= MAX_PARTIES {
            return;
        }
        let mut s = self.lock_sched();
        s.present[who] = false;
        if s.current == Some(who) {
            self.advance(&mut s);
        }
        self.turn.notify_all();
    }

    fn skip_inject_write(&self, _rank: usize) -> bool {
        match self.fault.skip_inject_write_at {
            Some(n) => self.injects.fetch_add(1, Ordering::SeqCst) == n,
            None => false,
        }
    }

    fn transport_fault(&self, endpoint: usize, op: u64) -> super::TransportFault {
        use super::TransportFault;
        let Some(victim) = self.chaos_victim else {
            return TransportFault::None;
        };
        if endpoint != victim {
            return TransportFault::None;
        }
        match self.case.strategy {
            Strategy::Crash(step) if op >= step => TransportFault::Kill,
            Strategy::Partition(step) if op >= step && op < step + self.partition_ops => {
                TransportFault::Drop
            }
            _ => TransportFault::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_case_display_parses_back() {
        for strategy in Strategy::ALL {
            for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                let case = FuzzCase::new(seed, strategy);
                let parsed: FuzzCase = case.to_string().parse().unwrap();
                assert_eq!(parsed, case);
            }
        }
        // Decimal seeds parse too.
        let parsed: FuzzCase = "starve@42".parse().unwrap();
        assert_eq!(parsed, FuzzCase::new(42, Strategy::Starve));
        assert!("bogus@1".parse::<FuzzCase>().is_err());
        assert!("pct".parse::<FuzzCase>().is_err());
        assert!("pct@zzz".parse::<FuzzCase>().is_err());
    }

    #[test]
    fn chaos_cases_round_trip_through_replay_strings() {
        for strategy in [Strategy::Crash(12), Strategy::Partition(400)] {
            for seed in [0u64, 7, 0xBEEF] {
                let case = FuzzCase::new(seed, strategy);
                let parsed: FuzzCase = case.to_string().parse().unwrap();
                assert_eq!(parsed, case, "round-trip of {case}");
            }
        }
        assert_eq!(
            "crash@12@0x7".parse::<FuzzCase>().unwrap(),
            FuzzCase::new(7, Strategy::Crash(12))
        );
        assert!("crash@@3".parse::<FuzzCase>().is_err());
        // A lone `@` field is the seed, leaving a step-less `crash`:
        // rejected rather than misread.
        assert!("crash@1".parse::<FuzzCase>().is_err());
    }

    #[test]
    fn transport_fault_fires_only_for_the_armed_victim() {
        use crate::sched::TransportFault;
        let c = FuzzController::new(FuzzCase::new(9, Strategy::Crash(5)), FaultPlan::default())
            .with_chaos(2, 0);
        assert_eq!(c.transport_fault(2, 4), TransportFault::None);
        assert_eq!(c.transport_fault(2, 5), TransportFault::Kill);
        assert_eq!(c.transport_fault(2, 500), TransportFault::Kill);
        assert_eq!(c.transport_fault(1, 500), TransportFault::None);

        let p = FuzzController::new(
            FuzzCase::new(9, Strategy::Partition(10)),
            FaultPlan::default(),
        )
        .with_chaos(0, 4);
        assert_eq!(p.transport_fault(0, 9), TransportFault::None);
        assert_eq!(p.transport_fault(0, 10), TransportFault::Drop);
        assert_eq!(p.transport_fault(0, 13), TransportFault::Drop);
        assert_eq!(p.transport_fault(0, 14), TransportFault::None);

        // Unarmed controller never faults, chaos strategy or not.
        let idle = FuzzController::new(FuzzCase::new(9, Strategy::Crash(0)), FaultPlan::default());
        assert_eq!(idle.transport_fault(0, 99), TransportFault::None);
    }

    #[test]
    fn fault_plan_fires_exactly_once_at_the_requested_injection() {
        let c = FuzzController::new(
            FuzzCase::new(7, Strategy::Pct),
            FaultPlan {
                skip_inject_write_at: Some(2),
            },
        );
        let fired: Vec<bool> = (0..5).map(|_| c.skip_inject_write(0)).collect();
        assert_eq!(fired, [false, false, true, false, false]);
        assert_eq!(c.injects(), 5);
    }

    #[test]
    fn turnstile_grants_rotate_and_done_deregisters() {
        let c = FuzzController::new(FuzzCase::new(3, Strategy::Pct), FaultPlan::default());
        // Single-threaded sanity: a lone registered worker always gets
        // the turn immediately, and after done() the slot is free.
        c.before_pop(0);
        c.after_pop(0, true);
        c.before_pop(0);
        c.after_pop(0, false);
        c.done(0);
        assert_eq!(c.hops(), 1);
        assert_eq!(c.escapes(), 0);
    }
}
