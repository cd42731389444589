//! Configuration of a NOMAD run.

use nomad_sgd::HyperParams;

use crate::routing::RoutingPolicy;

/// When a NOMAD run stops.
///
/// The paper runs each experiment for a fixed wall-clock budget and plots
/// RMSE against elapsed time; the simulator mirrors that with virtual time,
/// and the threaded engine with wall-clock time.  An update-count budget is
/// also provided for the "RMSE vs. number of updates" figures (6, 10, 15,
/// 18, 19).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Stop once the (virtual or wall-clock) time budget is exhausted.
    Seconds(f64),
    /// Stop once this many SGD updates have been applied in total.
    Updates(u64),
    /// Stop at whichever of the two budgets is hit first.
    Either {
        /// Time budget in seconds.
        seconds: f64,
        /// Update budget.
        updates: u64,
    },
}

impl StopCondition {
    /// The time budget, if one applies.
    pub fn seconds(&self) -> Option<f64> {
        match *self {
            StopCondition::Seconds(s) => Some(s),
            StopCondition::Either { seconds, .. } => Some(seconds),
            StopCondition::Updates(_) => None,
        }
    }

    /// The update budget, if one applies.
    pub fn updates(&self) -> Option<u64> {
        match *self {
            StopCondition::Updates(u) => Some(u),
            StopCondition::Either { updates, .. } => Some(updates),
            StopCondition::Seconds(_) => None,
        }
    }

    /// `true` once either applicable budget is exhausted.
    pub fn reached(&self, elapsed_seconds: f64, total_updates: u64) -> bool {
        let time_done = self.seconds().is_some_and(|s| elapsed_seconds >= s);
        let updates_done = self.updates().is_some_and(|u| total_updates >= u);
        time_done || updates_done
    }
}

/// Full configuration of a NOMAD run (all engines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NomadConfig {
    /// Model hyper-parameters (k, λ, α, β).
    pub params: HyperParams,
    /// How the next owner of a token is chosen (Section 3.3).
    pub routing: RoutingPolicy,
    /// Number of `(j, h_j)` pairs accumulated into a single network message
    /// (Section 3.5; the paper uses ~100).  Only affects inter-machine
    /// transfers; a batch of 1 disables batching.
    pub message_batch: usize,
    /// Whether a token received from the network visits every computation
    /// thread of the machine (in random order) before leaving the machine
    /// again — the hybrid-architecture optimization of Section 3.4.
    pub intra_machine_circulation: bool,
    /// How often (in virtual/wall-clock seconds) the convergence trace
    /// samples test RMSE.
    pub snapshot_every: f64,
    /// Stop condition.
    pub stop: StopCondition,
    /// RNG seed for initialization, initial token placement and routing.
    pub seed: u64,
    /// Whether [`crate::ThreadedNomad`] logs its linearized schedule of
    /// processing events: the flat ticket-ordered schedule of `run` /
    /// `run_serving`, the per-segment one of `run_online` /
    /// `run_online_serving` (segments come back empty with recording off).
    /// No other engine reads this field — the serial engine's `run_online`
    /// always records, the simulated engine has explicit `*_with_schedule`
    /// entry points, the `nomad-net` rank worker never records.  Recording
    /// powers the serializability replay tests but costs one `Vec` push per
    /// token hop ([`crate::hop::HopContext::ticket`]); throughput
    /// measurements turn it off so the steady state stays allocation-free.
    pub record_schedule: bool,
}

impl NomadConfig {
    /// A sensible default configuration for the given hyper-parameters:
    /// uniform routing, batch of 100, hybrid circulation on, snapshot every
    /// 0.5 simulated seconds, 30-second budget.
    pub fn new(params: HyperParams) -> Self {
        Self {
            params,
            routing: RoutingPolicy::UniformRandom,
            message_batch: 100,
            intra_machine_circulation: true,
            snapshot_every: 0.5,
            stop: StopCondition::Seconds(30.0),
            seed: 0x4E4F4D4144, // "NOMAD" in ASCII
            record_schedule: true,
        }
    }

    /// Overrides the stop condition.
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Overrides the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the snapshot interval.
    pub fn with_snapshot_every(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "snapshot interval must be positive");
        self.snapshot_every = seconds;
        self
    }

    /// Overrides the message batch size.
    pub fn with_message_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "message batch must be positive");
        self.message_batch = batch;
        self
    }

    /// Disables or enables the hybrid intra-machine circulation.
    pub fn with_circulation(mut self, enabled: bool) -> Self {
        self.intra_machine_circulation = enabled;
        self
    }

    /// Disables or enables schedule recording in the parallel engines.
    ///
    /// With recording off, [`crate::ThreadedNomad`] returns an empty
    /// schedule (so serializability replays are impossible) but its worker
    /// loop performs zero heap allocations per token hop — the right
    /// setting for throughput benchmarks.
    pub fn with_schedule_recording(mut self, enabled: bool) -> Self {
        self.record_schedule = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_condition_accessors() {
        let s = StopCondition::Seconds(10.0);
        assert_eq!(s.seconds(), Some(10.0));
        assert_eq!(s.updates(), None);
        let u = StopCondition::Updates(500);
        assert_eq!(u.seconds(), None);
        assert_eq!(u.updates(), Some(500));
        let e = StopCondition::Either {
            seconds: 5.0,
            updates: 100,
        };
        assert_eq!(e.seconds(), Some(5.0));
        assert_eq!(e.updates(), Some(100));
    }

    #[test]
    fn stop_condition_reached_logic() {
        let e = StopCondition::Either {
            seconds: 5.0,
            updates: 100,
        };
        assert!(!e.reached(4.9, 99));
        assert!(e.reached(5.0, 0));
        assert!(e.reached(0.0, 100));
        assert!(!StopCondition::Seconds(10.0).reached(9.0, u64::MAX));
        assert!(!StopCondition::Updates(10).reached(f64::MAX, 9));
    }

    #[test]
    fn builder_methods_override_fields() {
        let cfg = NomadConfig::new(HyperParams::netflix())
            .with_stop(StopCondition::Updates(1000))
            .with_routing(RoutingPolicy::LeastLoaded)
            .with_seed(7)
            .with_snapshot_every(0.25)
            .with_message_batch(10)
            .with_circulation(false);
        assert_eq!(cfg.stop.updates(), Some(1000));
        assert_eq!(cfg.routing, RoutingPolicy::LeastLoaded);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.snapshot_every, 0.25);
        assert_eq!(cfg.message_batch, 10);
        assert!(!cfg.intra_machine_circulation);
    }

    #[test]
    fn default_configuration_matches_the_paper() {
        let cfg = NomadConfig::new(HyperParams::netflix());
        assert_eq!(
            cfg.message_batch, 100,
            "paper batches ~100 pairs per message"
        );
        assert!(
            cfg.intra_machine_circulation,
            "hybrid circulation is on by default"
        );
        assert_eq!(cfg.routing, RoutingPolicy::UniformRandom);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        let _ = NomadConfig::new(HyperParams::netflix()).with_message_batch(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_snapshot_rejected() {
        let _ = NomadConfig::new(HyperParams::netflix()).with_snapshot_every(0.0);
    }
}
