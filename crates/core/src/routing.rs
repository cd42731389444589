//! Token routing: choosing the next owner of a `(j, h_j)` pair.
//!
//! Algorithm 1 (line 22) samples the recipient uniformly at random.
//! Section 3.3 describes the dynamic load-balancing refinement: prefer
//! workers with shorter queues, using the queue-size payload piggybacked on
//! every message.  Both policies are implemented here, plus a deterministic
//! round-robin policy.

/// Policy for selecting the worker a processed token is sent to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Uniformly random among all workers (Algorithm 1, line 22).
    UniformRandom,
    /// Sample two workers uniformly and send to the one with the shorter
    /// queue ("power of two choices"); degenerates to uniform when queue
    /// lengths are equal.  This implements the dynamic load balancing of
    /// Section 3.3 using only the piggybacked queue sizes.
    LeastLoaded,
    /// Deterministic round-robin; an ablation that removes randomness from
    /// token movement entirely.
    RoundRobin,
}

/// Stateful router: owns the per-policy bookkeeping (round-robin cursor)
/// and the only routing-policy `match` in the workspace.  Callers bring
/// their own RNG, load view and cursor start, so every engine keeps its
/// own draw order.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutingPolicy,
    cursor: usize,
}

impl Router {
    /// Creates a router with the given policy; round-robin starts at
    /// worker 0.
    pub fn new(policy: RoutingPolicy) -> Self {
        Self::starting_at(policy, 0)
    }

    /// Creates a router whose round-robin cycle starts at `cursor` (taken
    /// modulo the destination count at each call) — concurrent workers
    /// stagger their cursors so they do not all target the same queue.
    pub fn starting_at(policy: RoutingPolicy, cursor: usize) -> Self {
        Self { policy, cursor }
    }

    /// The policy in use.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Chooses the next destination among `num_workers` workers.
    ///
    /// * `load` — the sender's (possibly slightly stale) view of a
    ///   worker's queue length; only consulted by
    ///   [`RoutingPolicy::LeastLoaded`], and only for the two drawn
    ///   candidates.
    /// * `draw` — a closure returning a uniform draw in `[0, n)`; the
    ///   caller supplies its own RNG so the choice stays deterministic
    ///   under a fixed seed.
    ///
    /// # Panics
    /// Panics if `num_workers == 0`.
    #[inline]
    pub fn next_destination(
        &mut self,
        num_workers: usize,
        load: impl Fn(usize) -> usize,
        mut draw: impl FnMut(usize) -> usize,
    ) -> usize {
        assert!(num_workers > 0, "cannot route among zero workers");
        match self.policy {
            RoutingPolicy::UniformRandom => draw(num_workers),
            RoutingPolicy::LeastLoaded => {
                let a = draw(num_workers);
                let b = draw(num_workers);
                if load(b) < load(a) {
                    b
                } else {
                    a
                }
            }
            RoutingPolicy::RoundRobin => {
                let dest = self.cursor % num_workers;
                self.cursor = self.cursor.wrapping_add(1);
                dest
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_draws(values: Vec<usize>) -> impl FnMut(usize) -> usize {
        let mut iter = values.into_iter();
        move |n| iter.next().expect("enough scripted draws") % n
    }

    /// Only `LeastLoaded` may look at queue lengths.
    fn no_load(_: usize) -> usize {
        unreachable!("this policy never reads the load")
    }

    #[test]
    fn uniform_uses_a_single_draw_and_never_reads_the_load() {
        let mut r = Router::new(RoutingPolicy::UniformRandom);
        let dest = r.next_destination(4, no_load, fixed_draws(vec![2]));
        assert_eq!(dest, 2);
    }

    #[test]
    fn least_loaded_prefers_the_shorter_queue() {
        let mut r = Router::new(RoutingPolicy::LeastLoaded);
        let lens = [10, 0, 5, 7];
        // Draw workers 0 and 1: queue 0 has 10 pending, queue 1 has 0.
        let dest = r.next_destination(4, |i| lens[i], fixed_draws(vec![0, 1]));
        assert_eq!(dest, 1);
        // Ties go to the first draw.
        let lens_tied = [3, 3, 3, 3];
        let dest = r.next_destination(4, |i| lens_tied[i], fixed_draws(vec![2, 0]));
        assert_eq!(dest, 2);
    }

    #[test]
    fn round_robin_cycles_through_workers() {
        let mut r = Router::new(RoutingPolicy::RoundRobin);
        let seq: Vec<usize> = (0..7)
            .map(|_| r.next_destination(3, no_load, |_| unreachable!("round robin never draws")))
            .collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn policy_accessor() {
        assert_eq!(
            Router::new(RoutingPolicy::LeastLoaded).policy(),
            RoutingPolicy::LeastLoaded
        );
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn zero_workers_panics() {
        let mut r = Router::new(RoutingPolicy::UniformRandom);
        let _ = r.next_destination(0, no_load, |_| 0);
    }

    #[test]
    fn a_staggered_cursor_shifts_the_cycle_and_survives_a_resize() {
        let mut r = Router::starting_at(RoutingPolicy::RoundRobin, 2);
        let mut next = |n| r.next_destination(n, no_load, |_| unreachable!());
        assert_eq!([next(3), next(3), next(3)], [2, 0, 1]);
        // The cursor (now 5) is reduced modulo the *current* count.
        assert_eq!([next(2), next(4)], [1, 2]);
    }

    #[test]
    fn least_loaded_spreads_load_better_than_uniform_under_skew() {
        // Simulate routing many tokens where worker 0 drains slowly: count
        // how many tokens each policy parks on the slow worker.
        use nomad_linalg::SmallRng64;
        let n = 8;
        let tokens = 4000;
        let run = |policy: RoutingPolicy| -> usize {
            let mut router = Router::new(policy);
            let mut rng = SmallRng64::new(99);
            let mut queues = vec![0usize; n];
            let mut sent_to_slow = 0usize;
            for round in 0..tokens {
                let dest = router.next_destination(n, |i| queues[i], |bound| rng.next_below(bound));
                queues[dest] += 1;
                if dest == 0 {
                    sent_to_slow += 1;
                }
                // Fast workers drain their whole queue every round; the slow
                // worker only drains one token every 16 rounds, so under
                // uniform routing its backlog keeps growing.
                for (q, len) in queues.iter_mut().enumerate() {
                    if q == 0 {
                        if round % 16 == 0 {
                            *len = len.saturating_sub(1);
                        }
                    } else {
                        *len = 0;
                    }
                }
            }
            sent_to_slow
        };
        let uniform = run(RoutingPolicy::UniformRandom);
        let balanced = run(RoutingPolicy::LeastLoaded);
        assert!(
            balanced < uniform,
            "least-loaded ({balanced}) should send fewer tokens to the slow worker than uniform ({uniform})"
        );
    }
}
