//! Shared plumbing for the baseline solvers: stop conditions and the
//! bulk-synchronous virtual clock.

use nomad_cluster::{NetworkModel, SimMetrics, SimTime};

/// When a baseline run stops: after `max_epochs` full passes, or earlier if
/// the optional virtual-time budget runs out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineStop {
    /// Maximum number of epochs (full passes over the training data, or
    /// outer iterations for CCD++/ALS).
    pub max_epochs: usize,
    /// Optional virtual-time budget in seconds.
    pub max_seconds: Option<f64>,
}

impl BaselineStop {
    /// Run for exactly `epochs` epochs.
    pub fn epochs(epochs: usize) -> Self {
        Self {
            max_epochs: epochs,
            max_seconds: None,
        }
    }

    /// Run for at most `epochs` epochs or `seconds` of virtual time,
    /// whichever is reached first.
    pub fn epochs_or_seconds(epochs: usize, seconds: f64) -> Self {
        Self {
            max_epochs: epochs,
            max_seconds: Some(seconds),
        }
    }

    /// `true` once the budget is exhausted.
    pub fn reached(&self, epoch: usize, elapsed_seconds: f64) -> bool {
        epoch >= self.max_epochs || self.max_seconds.is_some_and(|s| elapsed_seconds >= s)
    }
}

/// Virtual clock for bulk-synchronous distributed algorithms.
///
/// A bulk-synchronous epoch alternates compute phases (each machine works
/// independently) and synchronization points (everyone waits for the
/// slowest machine — the "curse of the last reducer" of Section 4.1 —
/// then data is exchanged over the network).  The clock tracks per-machine
/// progress inside a phase and global time across phases, and accumulates
/// the metrics (barrier wait, bytes on the wire) that explain *why* these
/// algorithms lose to NOMAD.
#[derive(Debug, Clone)]
pub struct EpochClock {
    machines: usize,
    /// Global time at the start of the current phase.
    phase_start: f64,
    /// Per-machine compute time accumulated in the current phase.
    phase_compute: Vec<f64>,
    /// Global elapsed time.
    elapsed: f64,
    /// Execution counters (indexed per machine).
    pub metrics: SimMetrics,
}

impl EpochClock {
    /// Creates a clock for `machines` machines.
    pub fn new(machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        Self {
            machines,
            phase_start: 0.0,
            phase_compute: vec![0.0; machines],
            elapsed: 0.0,
            metrics: SimMetrics::new(machines),
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Global elapsed virtual time in seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Adds `seconds` of compute to `machine` within the current phase.
    pub fn compute(&mut self, machine: usize, seconds: f64) {
        assert!(seconds >= 0.0, "compute time must be non-negative");
        self.phase_compute[machine] += seconds;
        self.metrics.record_busy(machine, seconds);
    }

    /// Ends the compute phase with a barrier: global time advances by the
    /// *maximum* per-machine compute time, and every faster machine's slack
    /// is recorded as barrier waiting.
    pub fn barrier(&mut self) {
        let slowest = self.phase_compute.iter().copied().fold(0.0f64, f64::max);
        for (machine, &used) in self.phase_compute.iter().enumerate() {
            self.metrics.record_barrier_wait(machine, slowest - used);
        }
        self.elapsed = self.phase_start + slowest;
        self.phase_start = self.elapsed;
        self.phase_compute.iter_mut().for_each(|c| *c = 0.0);
    }

    /// A communication phase in which every machine simultaneously sends
    /// (and receives) `bytes_per_machine` over the network; global time
    /// advances by the transfer time of one such message (they proceed in
    /// parallel on distinct links).
    pub fn exchange(&mut self, network: &NetworkModel, bytes_per_machine: usize) {
        if self.machines > 1 {
            let transfer = network.inter_machine_time(bytes_per_machine);
            self.elapsed += transfer;
            self.phase_start = self.elapsed;
            for _ in 0..self.machines {
                self.metrics.record_message(bytes_per_machine, false);
            }
        }
    }

    /// Like [`EpochClock::exchange`] but overlapped with the *next* compute
    /// phase (DSGD++): the communication time is remembered and the next
    /// barrier advances time by `max(compute, communication)` instead of
    /// their sum.  Returns the communication time so callers can implement
    /// the overlap.
    pub fn exchange_cost(&mut self, network: &NetworkModel, bytes_per_machine: usize) -> f64 {
        if self.machines > 1 {
            for _ in 0..self.machines {
                self.metrics.record_message(bytes_per_machine, false);
            }
            network.inter_machine_time(bytes_per_machine)
        } else {
            0.0
        }
    }

    /// Ends a phase whose duration is the maximum of the per-machine
    /// compute time and an overlapped communication cost (DSGD++-style).
    pub fn barrier_overlapped(&mut self, comm_seconds: f64) {
        let slowest_compute = self.phase_compute.iter().copied().fold(0.0f64, f64::max);
        let phase = slowest_compute.max(comm_seconds);
        for (machine, &used) in self.phase_compute.iter().enumerate() {
            self.metrics.record_barrier_wait(machine, phase - used);
        }
        self.elapsed = self.phase_start + phase;
        self.phase_start = self.elapsed;
        self.phase_compute.iter_mut().for_each(|c| *c = 0.0);
    }

    /// Finalizes the metrics (records the finish time) and returns them.
    pub fn finish(mut self) -> SimMetrics {
        self.metrics.finished_at = SimTime::from_secs(self.elapsed);
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_conditions() {
        let s = BaselineStop::epochs(5);
        assert!(!s.reached(4, 1e9));
        assert!(s.reached(5, 0.0));
        let t = BaselineStop::epochs_or_seconds(10, 2.0);
        assert!(t.reached(3, 2.5));
        assert!(!t.reached(3, 1.0));
    }

    #[test]
    fn barrier_waits_for_the_slowest_machine() {
        let mut clock = EpochClock::new(3);
        clock.compute(0, 1.0);
        clock.compute(1, 3.0);
        clock.compute(2, 2.0);
        clock.barrier();
        assert_eq!(clock.elapsed(), 3.0);
        // Machine 0 waited 2 s, machine 2 waited 1 s.
        assert_eq!(clock.metrics.barrier_wait_time, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn sequential_phases_accumulate() {
        let mut clock = EpochClock::new(2);
        clock.compute(0, 1.0);
        clock.compute(1, 1.5);
        clock.barrier();
        clock.compute(0, 2.0);
        clock.compute(1, 0.5);
        clock.barrier();
        assert_eq!(clock.elapsed(), 1.5 + 2.0);
    }

    #[test]
    fn exchange_advances_time_only_with_multiple_machines() {
        let net = NetworkModel::commodity_1gbps();
        let mut single = EpochClock::new(1);
        single.exchange(&net, 1_000_000);
        assert_eq!(single.elapsed(), 0.0);

        let mut multi = EpochClock::new(4);
        multi.exchange(&net, 1_000_000);
        assert!(multi.elapsed() > 0.0);
        assert_eq!(multi.metrics.inter_machine_messages, 4);
    }

    #[test]
    fn overlapped_barrier_takes_the_maximum() {
        let mut clock = EpochClock::new(2);
        clock.compute(0, 1.0);
        clock.compute(1, 1.2);
        clock.barrier_overlapped(3.0); // communication dominates
        assert_eq!(clock.elapsed(), 3.0);
        clock.compute(0, 5.0);
        clock.barrier_overlapped(2.0); // compute dominates
        assert_eq!(clock.elapsed(), 8.0);
    }

    #[test]
    fn finish_stamps_the_metrics() {
        let mut clock = EpochClock::new(1);
        clock.compute(0, 0.5);
        clock.barrier();
        let metrics = clock.finish();
        assert_eq!(metrics.finished_at.as_secs(), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_panics() {
        let _ = EpochClock::new(0);
    }
}
