//! Network cost model.
//!
//! A message of `b` bytes between two machines costs
//! `latency + b / bandwidth` virtual seconds; intra-machine transfers (a
//! push onto another thread's concurrent queue) cost a fraction of a
//! microsecond.  The two inter-machine presets correspond to the paper's
//! platforms: the Stampede HPC interconnect (MVAPICH2 over InfiniBand) and
//! the ~1 Gb/s AWS commodity network of Section 5.4.

/// Prices message transfers in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way latency between two machines, in seconds.
    pub inter_machine_latency: f64,
    /// Inter-machine bandwidth in bytes per second.
    pub inter_machine_bandwidth: f64,
    /// Latency of handing a message to another thread on the same machine.
    pub intra_machine_latency: f64,
    /// Intra-machine bandwidth in bytes per second (memory bandwidth scale).
    pub intra_machine_bandwidth: f64,
    /// Fixed per-message envelope overhead in bytes (headers, MPI envelope,
    /// and the queue-size payload used for dynamic load balancing —
    /// "a single integer per message", Section 3.3).
    pub per_message_overhead_bytes: usize,
}

impl NetworkModel {
    /// HPC interconnect preset (InfiniBand-class): ~2 µs latency,
    /// ~3 GB/s effective point-to-point bandwidth.
    pub fn hpc() -> Self {
        Self {
            inter_machine_latency: 2.0e-6,
            inter_machine_bandwidth: 3.0e9,
            intra_machine_latency: 1.0e-7,
            intra_machine_bandwidth: 2.0e10,
            per_message_overhead_bytes: 64,
        }
    }

    /// Commodity cloud preset (Section 5.4): ~1 Gb/s Ethernet with
    /// virtualization-inflated latency (~250 µs round-trip scale).
    pub fn commodity_1gbps() -> Self {
        Self {
            inter_machine_latency: 2.5e-4,
            inter_machine_bandwidth: 1.25e8, // 1 Gb/s = 125 MB/s
            intra_machine_latency: 1.0e-7,
            intra_machine_bandwidth: 2.0e10,
            per_message_overhead_bytes: 64,
        }
    }

    /// A "free" network for single-machine simulations: only the
    /// intra-machine queue hop is charged.
    pub fn shared_memory() -> Self {
        Self {
            inter_machine_latency: 0.0,
            inter_machine_bandwidth: f64::INFINITY,
            intra_machine_latency: 1.0e-7,
            intra_machine_bandwidth: 2.0e10,
            per_message_overhead_bytes: 0,
        }
    }

    /// A deliberately degraded network (10× the commodity latency, a tenth
    /// of the bandwidth); used by robustness tests and ablations.
    pub fn degraded() -> Self {
        let base = Self::commodity_1gbps();
        Self {
            inter_machine_latency: base.inter_machine_latency * 10.0,
            inter_machine_bandwidth: base.inter_machine_bandwidth / 10.0,
            ..base
        }
    }

    /// Time for a message of `payload_bytes` between *different* machines.
    #[inline]
    pub fn inter_machine_time(&self, payload_bytes: usize) -> f64 {
        let total = (payload_bytes + self.per_message_overhead_bytes) as f64;
        self.inter_machine_latency + total / self.inter_machine_bandwidth
    }

    /// Time for a message of `payload_bytes` between threads of the *same*
    /// machine.
    #[inline]
    pub fn intra_machine_time(&self, payload_bytes: usize) -> f64 {
        self.intra_machine_latency + payload_bytes as f64 / self.intra_machine_bandwidth
    }

    /// Transfer time picking inter- or intra-machine cost automatically.
    #[inline]
    pub fn transfer_time(&self, payload_bytes: usize, same_machine: bool) -> f64 {
        if same_machine {
            self.intra_machine_time(payload_bytes)
        } else {
            self.inter_machine_time(payload_bytes)
        }
    }

    /// Size in bytes of a `(j, h_j)` token message at latent dimension `k`:
    /// the item index, the queue-size payload and `k` doubles.
    #[inline]
    pub fn token_bytes(k: usize) -> usize {
        8 + 8 + 8 * k
    }

    /// Per-token inter-machine cost when `batch` tokens are sent in one
    /// message (Section 3.5: "we accumulate a fixed number of pairs (e.g.,
    /// 100) before transmitting them over the network").  Latency and the
    /// envelope are amortized over the batch.
    #[inline]
    pub fn batched_token_time(&self, k: usize, batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be positive");
        self.inter_machine_time(Self::token_bytes(k) * batch) / batch as f64
    }

    /// Time one token occupies the sending machine's network link when sent
    /// in a batch of `batch` tokens: its own bytes plus its share of the
    /// message envelope, divided by the link bandwidth.  The simulator
    /// serializes these occupancies per machine, which is what creates the
    /// finite-bandwidth bottleneck on the commodity network (Section 5.4).
    #[inline]
    pub fn token_wire_time(&self, k: usize, batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be positive");
        let bytes =
            Self::token_bytes(k) as f64 + self.per_message_overhead_bytes as f64 / batch as f64;
        bytes / self.inter_machine_bandwidth
    }

    /// The propagation latency charged to one token when `batch` tokens
    /// share a message: the one-way latency amortized over the batch.
    #[inline]
    pub fn token_latency(&self, batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be positive");
        self.inter_machine_latency / batch as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpc_is_faster_than_commodity() {
        let hpc = NetworkModel::hpc();
        let aws = NetworkModel::commodity_1gbps();
        let bytes = NetworkModel::token_bytes(100);
        assert!(hpc.inter_machine_time(bytes) < aws.inter_machine_time(bytes) / 10.0);
    }

    #[test]
    fn intra_machine_is_cheaper_than_inter_machine() {
        for net in [NetworkModel::hpc(), NetworkModel::commodity_1gbps()] {
            let bytes = NetworkModel::token_bytes(100);
            assert!(net.intra_machine_time(bytes) < net.inter_machine_time(bytes));
            assert_eq!(
                net.transfer_time(bytes, true),
                net.intra_machine_time(bytes)
            );
            assert_eq!(
                net.transfer_time(bytes, false),
                net.inter_machine_time(bytes)
            );
        }
    }

    #[test]
    fn token_bytes_scales_with_k() {
        assert_eq!(NetworkModel::token_bytes(100), 8 + 8 + 800);
        assert!(NetworkModel::token_bytes(10) < NetworkModel::token_bytes(100));
    }

    #[test]
    fn batching_amortizes_latency() {
        let net = NetworkModel::commodity_1gbps();
        let single = net.batched_token_time(100, 1);
        let batched = net.batched_token_time(100, 100);
        assert!(
            batched < single / 10.0,
            "batched {batched} should be far below single {single}"
        );
        // Batched cost is still at least the pure bandwidth cost of a token.
        assert!(batched >= NetworkModel::token_bytes(100) as f64 / net.inter_machine_bandwidth);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        NetworkModel::hpc().batched_token_time(100, 0);
    }

    #[test]
    fn wire_time_reflects_bandwidth_only() {
        let net = NetworkModel::commodity_1gbps();
        let wire = net.token_wire_time(100, 100);
        // ~816 bytes + 0.64 overhead bytes at 125 MB/s ≈ 6.5 µs.
        assert!(wire > 6.0e-6 && wire < 7.5e-6, "wire time {wire}");
        // Wire time is independent of latency.
        let degraded_latency = NetworkModel {
            inter_machine_latency: 1.0,
            ..net
        };
        assert!((degraded_latency.token_wire_time(100, 100) - wire).abs() < 1e-12);
    }

    #[test]
    fn token_latency_amortizes_over_batch() {
        let net = NetworkModel::commodity_1gbps();
        assert!((net.token_latency(1) - net.inter_machine_latency).abs() < 1e-15);
        assert!((net.token_latency(100) - net.inter_machine_latency / 100.0).abs() < 1e-15);
    }

    #[test]
    fn shared_memory_charges_nothing_across_machines() {
        let net = NetworkModel::shared_memory();
        assert_eq!(net.inter_machine_time(0), 0.0);
        assert!(net.intra_machine_time(800) > 0.0);
    }

    #[test]
    fn degraded_network_is_much_worse() {
        let aws = NetworkModel::commodity_1gbps();
        let bad = NetworkModel::degraded();
        let bytes = NetworkModel::token_bytes(100);
        assert!(bad.inter_machine_time(bytes) > 5.0 * aws.inter_machine_time(bytes));
    }

    #[test]
    fn commodity_bandwidth_is_one_gigabit() {
        let aws = NetworkModel::commodity_1gbps();
        assert!((aws.inter_machine_bandwidth - 1.25e8).abs() < 1.0);
    }
}
