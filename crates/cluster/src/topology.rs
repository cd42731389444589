//! Cluster topology: machines, threads and the worker ↔ machine mapping.

/// Identifies one compute worker: a thread on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId {
    /// Machine index, `0 .. num_machines`.
    pub machine: u32,
    /// Compute-thread index within the machine, `0 .. compute_threads`.
    pub thread: u32,
}

impl WorkerId {
    /// Convenience constructor.
    pub fn new(machine: u32, thread: u32) -> Self {
        Self { machine, thread }
    }
}

/// The shape of the (simulated) cluster.
///
/// Mirrors the paper's experimental setups:
/// * single machine, 4–30 computation cores (Section 5.2),
/// * HPC cluster, 1–64 machines × 4 computation cores (Section 5.3),
/// * commodity cluster, 32 machines × 4 cores of which NOMAD and DSGD++
///   reserve 2 for network communication (Section 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Number of machines.
    pub machines: usize,
    /// Computation threads per machine (workers that run updates).
    pub compute_threads: usize,
    /// Threads per machine reserved for sending/receiving over the network
    /// (Section 3.4: NOMAD reserves two).  They do not run updates but do
    /// overlap communication with computation.
    pub comm_threads: usize,
}

impl ClusterTopology {
    /// A single machine with `cores` computation threads and no network.
    pub fn single_machine(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self {
            machines: 1,
            compute_threads: cores,
            comm_threads: 0,
        }
    }

    /// The HPC setup of Section 5.3: `machines` nodes using 4 computation
    /// threads each (the paper uses 4 of the 16 available cores) and two
    /// communication threads for the asynchronous algorithms.
    pub fn hpc(machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        Self {
            machines,
            compute_threads: 4,
            comm_threads: 2,
        }
    }

    /// The commodity setup of Section 5.4: quad-core m1.xlarge machines
    /// where the asynchronous algorithms (NOMAD, DSGD++) keep only two
    /// cores for computation because the other two handle communication.
    pub fn commodity(machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        Self {
            machines,
            compute_threads: 2,
            comm_threads: 2,
        }
    }

    /// The commodity setup as used by the *bulk-synchronous* algorithms
    /// (DSGD, CCD++), which use all four cores for computation because they
    /// communicate in a separate phase.
    pub fn commodity_bulk_sync(machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        Self {
            machines,
            compute_threads: 4,
            comm_threads: 0,
        }
    }

    /// An explicit topology.
    pub fn new(machines: usize, compute_threads: usize, comm_threads: usize) -> Self {
        assert!(
            machines > 0 && compute_threads > 0,
            "topology must be non-empty"
        );
        Self {
            machines,
            compute_threads,
            comm_threads,
        }
    }

    /// Total number of computation workers `p = machines × compute_threads`.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.machines * self.compute_threads
    }

    /// Total cores occupied per machine (compute + communication); the
    /// denominator in the paper's "seconds × machines × cores" axes.
    #[inline]
    pub fn cores_per_machine(&self) -> usize {
        self.compute_threads + self.comm_threads
    }

    /// `true` when more than one machine participates (i.e. the network
    /// model matters).
    #[inline]
    pub fn is_distributed(&self) -> bool {
        self.machines > 1
    }

    /// Maps a flat worker index `0 .. num_workers()` to its [`WorkerId`].
    /// Workers are laid out machine-major: machine 0 holds workers
    /// `0 .. compute_threads`, machine 1 the next block, and so on — the
    /// same layout the paper's hybrid architecture implies.
    #[inline]
    pub fn worker(&self, flat: usize) -> WorkerId {
        assert!(flat < self.num_workers(), "worker index out of range");
        WorkerId::new(
            (flat / self.compute_threads) as u32,
            (flat % self.compute_threads) as u32,
        )
    }

    /// Maps a [`WorkerId`] back to its flat index.
    #[inline]
    pub fn flat_index(&self, id: WorkerId) -> usize {
        id.machine as usize * self.compute_threads + id.thread as usize
    }

    /// The machine a flat worker index lives on.
    #[inline]
    pub fn machine_of(&self, flat: usize) -> usize {
        flat / self.compute_threads
    }

    /// `true` when the two flat worker indices are threads of the same
    /// machine (their communication does not use the network).
    #[inline]
    pub fn same_machine(&self, a: usize, b: usize) -> bool {
        self.machine_of(a) == self.machine_of(b)
    }

    /// Flat worker indices belonging to `machine`.
    pub fn workers_of_machine(&self, machine: usize) -> std::ops::Range<usize> {
        let start = machine * self.compute_threads;
        start..start + self.compute_threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let single = ClusterTopology::single_machine(30);
        assert_eq!(single.num_workers(), 30);
        assert!(!single.is_distributed());

        let hpc = ClusterTopology::hpc(32);
        assert_eq!(hpc.num_workers(), 128);
        assert_eq!(hpc.compute_threads, 4);
        assert!(hpc.is_distributed());

        let aws = ClusterTopology::commodity(32);
        assert_eq!(aws.compute_threads, 2);
        assert_eq!(aws.comm_threads, 2);
        assert_eq!(aws.cores_per_machine(), 4);

        let aws_sync = ClusterTopology::commodity_bulk_sync(32);
        assert_eq!(aws_sync.compute_threads, 4);
        assert_eq!(aws_sync.cores_per_machine(), 4);
    }

    #[test]
    fn worker_flat_roundtrip() {
        let t = ClusterTopology::new(3, 4, 2);
        for flat in 0..t.num_workers() {
            let id = t.worker(flat);
            assert_eq!(t.flat_index(id), flat);
            assert_eq!(t.machine_of(flat), id.machine as usize);
        }
    }

    #[test]
    fn same_machine_detection() {
        let t = ClusterTopology::hpc(2); // 2 machines × 4 threads
        assert!(t.same_machine(0, 3));
        assert!(!t.same_machine(3, 4));
        assert_eq!(t.workers_of_machine(1), 4..8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn worker_out_of_range_panics() {
        let t = ClusterTopology::single_machine(2);
        let _ = t.worker(2);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_single_machine_panics() {
        let _ = ClusterTopology::single_machine(0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_topology_panics() {
        let _ = ClusterTopology::new(0, 4, 0);
    }

    #[test]
    fn worker_id_ordering_is_machine_major() {
        let a = WorkerId::new(0, 3);
        let b = WorkerId::new(1, 0);
        assert!(a < b);
    }
}
