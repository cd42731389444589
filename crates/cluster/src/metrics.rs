//! Counters collected while a simulated algorithm runs.
//!
//! These are the raw numbers behind the paper's secondary figures:
//! updates per core per second (Figures 6, 10, 16), communication volume,
//! and worker idle time (the "curse of the last reducer" that bulk
//! synchronous algorithms suffer from, Section 4.1).

use nomad_telemetry::{names, Registry, TelemetrySnapshot};

use crate::time::SimTime;

/// Aggregated execution metrics of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Total SGD (or equivalent) updates applied.
    pub updates: u64,
    /// Item-column (token) processing events.
    pub tokens_processed: u64,
    /// Messages sent between threads of the same machine.
    pub intra_machine_messages: u64,
    /// Messages sent across the network.
    pub inter_machine_messages: u64,
    /// Bytes sent across the network.
    pub network_bytes: u64,
    /// Per-worker busy time (seconds of virtual compute).
    pub busy_time: Vec<f64>,
    /// Per-worker time spent waiting at barriers (bulk-synchronous
    /// algorithms only; zero for NOMAD).
    pub barrier_wait_time: Vec<f64>,
    /// Virtual time when the run finished.
    pub finished_at: SimTime,
}

impl SimMetrics {
    /// Creates zeroed metrics for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        Self {
            updates: 0,
            tokens_processed: 0,
            intra_machine_messages: 0,
            inter_machine_messages: 0,
            network_bytes: 0,
            busy_time: vec![0.0; num_workers],
            barrier_wait_time: vec![0.0; num_workers],
            finished_at: SimTime::ZERO,
        }
    }

    /// Number of workers being tracked.
    pub fn num_workers(&self) -> usize {
        self.busy_time.len()
    }

    /// Records `seconds` of compute on `worker`.
    pub fn record_busy(&mut self, worker: usize, seconds: f64) {
        self.busy_time[worker] += seconds;
    }

    /// Records `seconds` of barrier waiting on `worker`.
    pub fn record_barrier_wait(&mut self, worker: usize, seconds: f64) {
        self.barrier_wait_time[worker] += seconds;
    }

    /// Records a message of `bytes` bytes; `same_machine` selects the
    /// counter.
    pub fn record_message(&mut self, bytes: usize, same_machine: bool) {
        if same_machine {
            self.intra_machine_messages += 1;
        } else {
            self.inter_machine_messages += 1;
            self.network_bytes += bytes as u64;
        }
    }

    /// Average updates per worker per second of virtual time — the y-axis
    /// of Figures 6 (right), 10 (right) and 16 of the paper.
    pub fn updates_per_worker_per_second(&self) -> f64 {
        let elapsed = self.finished_at.as_secs();
        if elapsed <= 0.0 || self.busy_time.is_empty() {
            return 0.0;
        }
        self.updates as f64 / self.busy_time.len() as f64 / elapsed
    }

    /// Mean worker utilization: busy time divided by elapsed virtual time.
    pub fn mean_utilization(&self) -> f64 {
        let elapsed = self.finished_at.as_secs();
        if elapsed <= 0.0 || self.busy_time.is_empty() {
            return 0.0;
        }
        self.busy_time.iter().sum::<f64>() / (elapsed * self.busy_time.len() as f64)
    }

    /// Fraction of total worker-time lost waiting at barriers; NOMAD's is
    /// zero by construction, the bulk-synchronous baselines' grows with the
    /// number of machines (the "last reducer" effect).
    pub fn barrier_wait_fraction(&self) -> f64 {
        let elapsed = self.finished_at.as_secs();
        if elapsed <= 0.0 || self.barrier_wait_time.is_empty() {
            return 0.0;
        }
        self.barrier_wait_time.iter().sum::<f64>() / (elapsed * self.barrier_wait_time.len() as f64)
    }

    /// Folds these simulation counters into a [`TelemetrySnapshot`] under
    /// the **same metric names the real engines use** (`engine.updates`,
    /// `engine.tokens`, `net.frames_sent`, `net.bytes_sent`), so a
    /// simulated run and a real run share one telemetry schema — the same
    /// JSONL rows, the same fleet-fold arithmetic, directly comparable.
    ///
    /// Network frames count the inter-machine messages only (the real
    /// `net.frames_sent` counts transport frames; intra-machine token
    /// hand-offs are already covered by `engine.tokens`).
    pub fn to_telemetry(&self) -> TelemetrySnapshot {
        let registry = Registry::new();
        registry.counter(names::UPDATES).add(self.updates);
        registry.counter(names::TOKENS).add(self.tokens_processed);
        registry
            .counter(names::FRAMES_SENT)
            .add(self.inter_machine_messages);
        registry.counter(names::BYTES_SENT).add(self.network_bytes);
        registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_metrics_are_zeroed() {
        let m = SimMetrics::new(4);
        assert_eq!(m.num_workers(), 4);
        assert_eq!(m.updates, 0);
        assert_eq!(m.updates_per_worker_per_second(), 0.0);
        assert_eq!(m.mean_utilization(), 0.0);
        assert_eq!(m.barrier_wait_fraction(), 0.0);
    }

    #[test]
    fn message_counters_distinguish_local_and_remote() {
        let mut m = SimMetrics::new(2);
        m.record_message(800, true);
        m.record_message(800, false);
        m.record_message(400, false);
        assert_eq!(m.intra_machine_messages, 1);
        assert_eq!(m.inter_machine_messages, 2);
        assert_eq!(m.network_bytes, 1200);
    }

    #[test]
    fn throughput_and_utilization() {
        let mut m = SimMetrics::new(2);
        m.updates = 1_000_000;
        m.record_busy(0, 0.4);
        m.record_busy(1, 0.5);
        m.finished_at = SimTime::from_secs(0.5);
        // 1M updates / 2 workers / 0.5 s = 1M updates/worker/sec.
        assert!((m.updates_per_worker_per_second() - 1.0e6).abs() < 1.0);
        assert!((m.mean_utilization() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn to_telemetry_shares_the_real_engines_schema() {
        let mut m = SimMetrics::new(2);
        m.updates = 500;
        m.tokens_processed = 40;
        m.record_message(100, true);
        m.record_message(300, false);
        let snap = m.to_telemetry();
        assert_eq!(snap.counter(names::UPDATES), Some(500));
        assert_eq!(snap.counter(names::TOKENS), Some(40));
        assert_eq!(snap.counter(names::FRAMES_SENT), Some(1));
        assert_eq!(snap.counter(names::BYTES_SENT), Some(300));
        // A sim snapshot merges into a real fleet snapshot: one schema.
        let real = Registry::new();
        real.counter(names::UPDATES).add(1_000);
        let mut fleet = real.snapshot();
        fleet.merge(&snap);
        assert_eq!(fleet.counter(names::UPDATES), Some(1_500));
    }

    #[test]
    fn barrier_fraction_reflects_waiting() {
        let mut m = SimMetrics::new(2);
        m.finished_at = SimTime::from_secs(1.0);
        m.record_barrier_wait(0, 0.0);
        m.record_barrier_wait(1, 0.5);
        assert!((m.barrier_wait_fraction() - 0.25).abs() < 1e-12);
    }
}
