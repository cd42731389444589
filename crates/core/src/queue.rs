//! The one queue: every worker's token queue, a rank's outbound staging,
//! and every transport endpoint's receive queue.
//!
//! "Non-locking" (Sections 3.1, 3.5) means no factor row is ever locked:
//! holding the token for item `j` entitles a worker to row `j`, and the
//! push that hands the token on hands the row on.  The queue's mutex
//! orders exactly that hand-off — the unlock in `push` and the lock in
//! `pop` are the release/acquire edge [`crate::hop::HopContext`] asks for.
//! A `woken` flag under the same mutex lets any thread cut a consumer's
//! [`Inbox::wait`] short without a lost wake.  Tokens are conserved, so a
//! token queue built [`with_capacity`](Inbox::with_capacity)`(ncols)`
//! never grows and the hop stays allocation-free.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A FIFO queue whose consumer can wait for an item or a wake; see the
/// module docs.
pub struct Inbox<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// `items.len()` as of the last push or pop, for lock-free readers.
    len: AtomicUsize,
}

struct State<T> {
    items: VecDeque<T>,
    /// Raised by [`Inbox::wake`], cleared when a wait returns.  Read and
    /// written only under the mutex: a wake can land before the waiter
    /// checks or after it started waiting, but never between the two.
    woken: bool,
    /// Threads blocked in a wait: a push or wake with nobody waiting
    /// skips the condvar notify (a system call on every push otherwise).
    waiting: usize,
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Inbox<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `capacity` items before it allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                woken: false,
                waiting: 0,
            }),
            ready: Condvar::new(),
            len: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // No critical section below can leave the state half-updated.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `item`, waking the consumer if it is waiting.
    pub fn push(&self, item: T) {
        let mut state = self.lock();
        state.items.push_back(item);
        self.len.store(state.items.len(), Ordering::Relaxed);
        let waiting = state.waiting > 0;
        drop(state);
        if waiting {
            self.ready.notify_one();
        }
    }

    /// Takes the oldest item, if any, without waiting.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        self.take(&mut state)
    }

    /// Takes the oldest item, first waiting up to `timeout` for one as
    /// [`wait`](Self::wait) does.  `None` means the timeout elapsed or a
    /// wake cut the wait short; `n` wakes cost at most one such return,
    /// and a queued item is never skipped or reordered by one.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut state = self.wait_locked(Instant::now().checked_add(timeout));
        self.take(&mut state)
    }

    /// Returns once an item is queued, a wake is pending or `deadline`
    /// passes (`None`: no deadline), consuming the pending wake.  Returns
    /// at once if either already holds.
    pub fn wait(&self, deadline: Option<Instant>) {
        drop(self.wait_locked(deadline));
    }

    /// Makes the current [`wait`](Self::wait) — or, if none is blocked,
    /// the next one — return.  Wakes raised before that return coalesce
    /// into it.
    pub fn wake(&self) {
        let mut state = self.lock();
        state.woken = true;
        let waiting = state.waiting > 0;
        drop(state);
        if waiting {
            self.ready.notify_all();
        }
    }

    /// The number of queued items, read without the lock: exact at
    /// quiesce, a possibly stale estimate while others push and pop.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether [`len`](Self::len) is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn take(&self, state: &mut State<T>) -> Option<T> {
        let item = state.items.pop_front();
        self.len.store(state.items.len(), Ordering::Relaxed);
        item
    }

    fn wait_locked(&self, deadline: Option<Instant>) -> MutexGuard<'_, State<T>> {
        let mut state = self.lock();
        while state.items.is_empty() && !state.woken {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                break;
            }
            state.waiting += 1;
            state = match left {
                None => self.ready.wait(state).unwrap_or_else(|e| e.into_inner()),
                Some(left) => {
                    let waited = self.ready.wait_timeout(state, left);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
            };
            state.waiting -= 1;
        }
        state.woken = false;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Duration = Duration::from_secs(5);
    const PROMPT: Duration = Duration::from_secs(1);

    /// Times one `wait` with a five-second deadline, so a lost wake fails
    /// an elapsed-time check instead of hanging.
    fn timed_wait(queue: &Inbox<u32>) -> Duration {
        let before = Instant::now();
        queue.wait(Some(before + LONG));
        before.elapsed()
    }

    /// Runs `act` on another thread once `queue`'s consumer is blocked
    /// (or about to block) in a wait, and times that wait.
    fn wait_while(queue: &Inbox<u32>, act: impl FnOnce() + Send) -> Duration {
        std::thread::scope(|scope| {
            let (started, go) = std::sync::mpsc::channel();
            let blocked = scope.spawn(move || {
                started.send(()).unwrap();
                timed_wait(queue)
            });
            go.recv().unwrap();
            act();
            blocked.join().unwrap()
        })
    }

    #[test]
    fn items_leave_in_order_and_len_mirrors_the_contents() {
        let queue = Inbox::with_capacity(4);
        assert!(queue.is_empty());
        for n in 0..10 {
            queue.push(n);
            assert_eq!(queue.len(), n as usize + 1);
        }
        for n in 0..10 {
            assert_eq!(queue.pop(), Some(n));
            assert_eq!(queue.len(), 9 - n as usize);
        }
        assert_eq!(
            (queue.pop(), queue.pop_timeout(Duration::ZERO)),
            (None, None)
        );
        assert!(queue.is_empty());
    }

    #[test]
    fn a_wait_returns_on_a_push() {
        let queue = Inbox::new();
        let took = wait_while(&queue, || queue.push(7));
        assert!(
            took < PROMPT,
            "a blocked wait slept through a push ({took:?})"
        );
        assert_eq!(queue.pop(), Some(7));
    }

    #[test]
    fn a_wait_returns_on_a_wake() {
        let queue = Inbox::new();
        let took = wait_while(&queue, || queue.wake());
        assert!(
            took < PROMPT,
            "a blocked wait slept through a wake ({took:?})"
        );
    }

    #[test]
    fn a_wait_returns_at_its_deadline() {
        let queue = Inbox::<u32>::new();
        let nap = Duration::from_millis(30);
        let before = Instant::now();
        queue.wait(Some(before + nap));
        assert!(before.elapsed() >= nap);
        assert_eq!(queue.pop_timeout(nap), None);
        assert!(before.elapsed() >= 2 * nap);
    }

    #[test]
    fn a_wake_raised_before_the_wait_is_not_lost() {
        let queue = Inbox::new();
        queue.wake();
        let took = timed_wait(&queue);
        assert!(took < PROMPT, "a wake raised early was lost ({took:?})");
        // A queued item also returns at once, and is left in place.
        queue.push(3);
        assert!(timed_wait(&queue) < PROMPT);
        assert_eq!(queue.pop(), Some(3));
    }

    #[test]
    fn wakes_coalesce_into_one_return() {
        let queue = Inbox::<u32>::new();
        for _ in 0..5 {
            queue.wake();
        }
        assert!(timed_wait(&queue) < PROMPT);
        let nap = Duration::from_millis(30);
        let before = Instant::now();
        queue.wait(Some(before + nap));
        assert!(before.elapsed() >= nap, "wakes must coalesce");
    }
}
