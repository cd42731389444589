//! The open-loop load generator: requests are due on a fixed schedule
//! whatever the system does, and each one's latency runs from its *due*
//! time, so a stall is charged to every request it delays (the wait an
//! independent user would see), not hidden by a generator that politely
//! slows down.
//!
//! The generator is one thread and sends synchronously, so while a slow
//! request is outstanding the next ones go out late; `late_us` records by
//! how much, which tells a reader whether the offered rate was really
//! offered.

use std::time::{Duration, Instant};

/// Time source, so the lateness accounting can be tested on a fake clock.
pub trait Clock {
    /// Time since the generator started.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once if already past).
    fn sleep_until(&self, t: Duration);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.0.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// What one request came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered; counts toward the latency sample.
    Ok,
    /// Shed, timed out or errored.
    Failed,
    /// The system under test has finished; stop generating.  The request
    /// that found this out is not counted.
    Stop,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpenLoopLog {
    pub attempted: u64,
    /// Requests that were shed, timed out or errored.
    pub failed: u64,
    /// Requests answered, but more than the limit after they were due.
    /// Kept apart from `failed`: a late answer on a shared box is as often
    /// the box as the system, so the count moves between runs of the same
    /// code, and the driver compares failure counts between runs.
    pub over_limit: u64,
    /// Due time → answer, per request that was answered (in time or not).
    pub latency_us: Vec<u64>,
    /// Due time → actual send, per request sent.
    pub late_us: Vec<u64>,
}

/// Sends request `i` at `i · period` until `issue` reports [`Outcome::Stop`].
/// A request answered after more than `limit` from its due time is counted
/// in `over_limit` and keeps its place in the latency sample.
pub fn run_open_loop<C: Clock>(
    clock: &C,
    period: Duration,
    limit: Duration,
    mut issue: impl FnMut(u64) -> Outcome,
) -> OpenLoopLog {
    let mut log = OpenLoopLog::default();
    for i in 0u64.. {
        let due = period.mul_f64(i as f64);
        clock.sleep_until(due);
        let sent = clock.now();
        match issue(i) {
            Outcome::Stop => break,
            outcome => {
                let latency = clock.now().saturating_sub(due);
                log.attempted += 1;
                log.late_us
                    .push(sent.saturating_sub(due).as_micros() as u64);
                if outcome == Outcome::Ok {
                    log.latency_us.push(latency.as_micros() as u64);
                    log.over_limit += u64::from(latency > limit);
                } else {
                    log.failed += 1;
                }
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the wake-up
    /// time, and the test's `issue` closure advances it by a service time.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, by: Duration) {
            self.0.set(self.0.get() + by);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_is_recorded() {
        // Period 10 ms; service times 5, 25, 5, 5 ms.  The 25 ms request
        // makes the next two go out late, and their latency includes it.
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let service = [5u32, 25, 5, 5];
        let log = run_open_loop(&clock, 10 * MS, 100 * MS, |i| {
            match service.get(i as usize) {
                Some(&ms) => {
                    clock.advance(ms * MS);
                    Outcome::Ok
                }
                None => Outcome::Stop,
            }
        });
        assert_eq!(log.attempted, 4);
        assert_eq!((log.failed, log.over_limit), (0, 0));
        // due 0 → done 5; due 10 → done 35; due 20, sent 35 → done 40;
        // due 30, sent 40 → done 45.
        assert_eq!(log.latency_us, vec![5_000, 25_000, 20_000, 15_000]);
        assert_eq!(log.late_us, vec![0, 0, 15_000, 10_000]);
    }

    #[test]
    fn failures_and_over_limit_answers_are_counted_apart() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let log = run_open_loop(&clock, 10 * MS, 20 * MS, |i| match i {
            0 => {
                clock.advance(2 * MS);
                Outcome::Ok
            }
            // Shed at once.
            1 => Outcome::Failed,
            // Answered, but 30 ms after it was due.
            2 => {
                clock.advance(30 * MS);
                Outcome::Ok
            }
            _ => Outcome::Stop,
        });
        assert_eq!((log.attempted, log.failed, log.over_limit), (3, 1, 1));
        // The failed request has no latency; the slow one keeps its own.
        assert_eq!(log.latency_us, vec![2_000, 30_000]);
        assert_eq!(log.late_us.len(), 3);
    }

    #[test]
    fn a_stop_on_the_first_request_attempts_nothing() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let log = run_open_loop(&clock, 10 * MS, 20 * MS, |_| Outcome::Stop);
        assert_eq!(log, OpenLoopLog::default());
    }
}
