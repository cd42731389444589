//! A min-heap discrete-event executor with heterogeneous per-component
//! clock rates.
//!
//! The simulator in [`crate::event`] already orders events by
//! `(time, seq)` on a binary min-heap; this module layers a *component*
//! abstraction on top of it: each registered [`Component`] ticks at its
//! own period (its clock rate), and the engine interleaves the ticks in
//! exact virtual-time order.  Two components with periods in a 3:1 ratio
//! really do interleave 3:1 — speed ratios a wall clock on a small CI box
//! never produces.  Nothing in the workspace drives it yet: it is the
//! scheduler meant for protocol state machines run on virtual time.
//!
//! Determinism: ties at the same virtual instant break by registration
//! order (the event queue's sequence number), and components receive
//! `&mut self`, so the whole execution is a pure function of the
//! components' own state.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Something that ticks at a fixed virtual-time period.
pub trait Component {
    /// One tick at virtual time `now`.  Return `false` to stop being
    /// scheduled (the component is retired; the engine keeps running).
    fn tick(&mut self, now: SimTime) -> bool;
}

/// One registered component and its clock.
struct Entry {
    component: Box<dyn Component>,
    period: f64,
    live: bool,
}

/// Drives registered [`Component`]s in virtual-time order.
#[derive(Default)]
pub struct ExecEngine {
    entries: Vec<Entry>,
    queue: EventQueue<usize>,
    ticks: u64,
}

impl std::fmt::Debug for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecEngine")
            .field("components", &self.entries.len())
            .field("ticks", &self.ticks)
            .field("now", &self.now())
            .finish()
    }
}

impl ExecEngine {
    /// An engine with no components.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component ticking every `period_seconds` of virtual
    /// time (its first tick lands at `period_seconds`); returns its
    /// index.  Components registered earlier win ties at the same
    /// instant.
    ///
    /// # Panics
    /// Panics if `period_seconds` is not strictly positive and finite.
    pub fn add(&mut self, period_seconds: f64, component: Box<dyn Component>) -> usize {
        assert!(
            period_seconds > 0.0 && period_seconds.is_finite(),
            "component period must be positive and finite, got {period_seconds}"
        );
        let id = self.entries.len();
        self.entries.push(Entry {
            component,
            period: period_seconds,
            live: true,
        });
        self.queue.push(SimTime::from_secs(period_seconds), id);
        id
    }

    /// Number of registered components (live or retired).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no components are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total ticks delivered so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Current virtual time (the timestamp of the last delivered tick).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Runs ticks in virtual-time order until the next tick would land
    /// after `horizon` (inclusive) or every component has retired.
    /// Returns the number of ticks delivered by this call.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let before = self.ticks;
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let fired = self.queue.pop().expect("peeked event exists");
            let (now, id) = (fired.time, fired.event);
            let entry = &mut self.entries[id];
            if !entry.live {
                continue;
            }
            self.ticks += 1;
            if entry.component.tick(now) {
                self.queue.push(now + entry.period, id);
            } else {
                entry.live = false;
            }
        }
        self.ticks - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records its tick times into a shared log.
    struct Probe {
        id: usize,
        log: Rc<RefCell<Vec<(usize, f64)>>>,
        remaining: Option<u64>,
    }

    impl Component for Probe {
        fn tick(&mut self, now: SimTime) -> bool {
            self.log.borrow_mut().push((self.id, now.as_secs()));
            match &mut self.remaining {
                Some(0) => false,
                Some(n) => {
                    *n -= 1;
                    true
                }
                None => true,
            }
        }
    }

    fn probe(
        id: usize,
        log: &Rc<RefCell<Vec<(usize, f64)>>>,
        remaining: Option<u64>,
    ) -> Box<Probe> {
        Box::new(Probe {
            id,
            log: Rc::clone(log),
            remaining,
        })
    }

    #[test]
    fn heterogeneous_clock_rates_interleave_proportionally() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut engine = ExecEngine::new();
        engine.add(1.0, probe(0, &log, None));
        engine.add(3.0, probe(1, &log, None));
        let delivered = engine.run_until(SimTime::from_secs(30.0));
        assert_eq!(delivered, 40, "30 fast ticks + 10 slow ticks");
        let fast = log.borrow().iter().filter(|(id, _)| *id == 0).count();
        let slow = log.borrow().iter().filter(|(id, _)| *id == 1).count();
        assert_eq!((fast, slow), (30, 10));
        assert_eq!(engine.now(), SimTime::from_secs(30.0));
    }

    #[test]
    fn ties_break_by_registration_order_deterministically() {
        let run = || {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut engine = ExecEngine::new();
            engine.add(2.0, probe(0, &log, None));
            engine.add(2.0, probe(1, &log, None));
            engine.add(1.0, probe(2, &log, None));
            engine.run_until(SimTime::from_secs(6.0));
            let events = log.borrow().clone();
            events
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical setups must replay identically");
        // At t=2: component 2 ticked at t=1 first; then 0 before 1.
        let at_two: Vec<usize> = a
            .iter()
            .filter(|(_, t)| *t == 2.0)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(at_two, vec![0, 1, 2]);
    }

    #[test]
    fn retired_components_stop_ticking() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut engine = ExecEngine::new();
        // Retires after its 3rd tick (remaining = 2 more after the first).
        engine.add(1.0, probe(0, &log, Some(2)));
        engine.add(1.0, probe(1, &log, None));
        let delivered = engine.run_until(SimTime::from_secs(10.0));
        assert_eq!(
            delivered, 13,
            "3 ticks from the retiree + 10 from the survivor"
        );
        let more = engine.run_until(SimTime::from_secs(11.0));
        assert_eq!(more, 1, "only the survivor remains");
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_is_rejected() {
        let log = Rc::new(RefCell::new(Vec::new()));
        ExecEngine::new().add(0.0, probe(0, &log, None));
    }
}
