//! The lock-free metric primitives: sharded [`Counter`], [`Gauge`], and
//! a fixed-bucket log-scale [`Histogram`].
//!
//! Everything here is built for the engines' hot path: recording is one
//! (or a handful of) relaxed atomic RMW operations, never a lock and
//! never an allocation.  Relaxed ordering suffices because no control
//! flow ever depends on a metric value — metrics are *read* only at
//! snapshot points (progress reports, quiesce), where the reader's own
//! synchronization (channel receive, thread join) already orders the
//! writes it observes; a snapshot racing active writers is allowed to be
//! a moment stale, exactly like any monitoring system's scrape.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of cache-padded shards per counter.  Eight covers the worker
/// counts the engines actually run (the paper's shared-memory
/// experiments top out at 30 threads across two sockets; contention on
/// 8 shards is already below measurement noise in the perf smoke).
const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so two workers bumping the same counter
/// never ping-pong a line between cores.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    /// `const` initialization keeps the thread-local allocation-free.
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Round-robin source for thread shard assignment.
static NEXT_SHARD: AtomicU64 = AtomicU64::new(0);

#[inline]
fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| {
        let got = s.get();
        if got != usize::MAX {
            return got;
        }
        let assigned = (NEXT_SHARD.fetch_add(1, Ordering::Relaxed) as usize) % COUNTER_SHARDS;
        s.set(assigned);
        assigned
    })
}

/// A monotonically increasing event count, sharded across cache lines.
///
/// [`Counter::add`] is one relaxed `fetch_add` on this thread's shard;
/// [`Counter::get`] sums the shards (snapshot-time only).
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self {
            // `AtomicU64::new` is const, but `array::from_fn` is not —
            // spell the shards out.
            shards: [
                PaddedU64(AtomicU64::new(0)),
                PaddedU64(AtomicU64::new(0)),
                PaddedU64(AtomicU64::new(0)),
                PaddedU64(AtomicU64::new(0)),
                PaddedU64(AtomicU64::new(0)),
                PaddedU64(AtomicU64::new(0)),
                PaddedU64(AtomicU64::new(0)),
                PaddedU64(AtomicU64::new(0)),
            ],
        }
    }

    /// Adds `n` to the counter — one relaxed `fetch_add`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all shards (snapshot-time read).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A signed level reading (queue length, lag bound, in-flight count).
///
/// Unlike a counter a gauge can go down; unlike a histogram it keeps
/// only the latest (or largest) value.  When snapshots from several
/// ranks are merged the fleet value is the **maximum** — a gauge reads
/// as "the worst rank right now".
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (relaxed `fetch_max`).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current reading.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Number of histogram buckets: bucket `i` holds values whose bit
/// length is `i` (bucket 0 is exactly zero, bucket 1 is exactly one,
/// bucket `i` covers `[2^(i-1), 2^i)`), so 65 buckets cover all of
/// `u64` at a fixed ~2x resolution — the classic log-scale layout
/// latency histograms use.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log-scale histogram of `u64` samples.
///
/// Recording is three relaxed `fetch_add`s and one `fetch_max`;
/// quantiles are computed by walking the 65 buckets — no allocation on
/// either path, which is what lets the serving router report a live
/// p99 without keeping, cloning or sorting a sample ring.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Bucket index of a sample: its bit length.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound (inclusive) of bucket `i` — the value a quantile query
/// reports for samples that landed in the bucket.  A conservative
/// (over-)estimate, exactly like any bucketed histogram's.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // No const array repeat for non-Copy atomics; the inline const
        // block is re-evaluated per element, which is exactly what we
        // want here (each bucket gets its own fresh atomic).
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample — a handful of relaxed atomic RMWs, no
    /// allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as a conservative upper bound, or
    /// `None` if the histogram is empty.  Walks the fixed buckets —
    /// allocation-free, callable from the hot path.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b.load(Ordering::Relaxed));
            if seen >= target {
                return Some(bucket_upper(i).min(self.max()));
            }
        }
        // Racing writers can leave `count` ahead of the bucket sums for
        // an instant; answer with the worst observed sample.
        Some(self.max())
    }

    /// Freezes the histogram into a plain-data [`HistSnapshot`].
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max())
            .finish()
    }
}

/// A frozen histogram: plain data, mergeable, wire-shippable.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples (wrapping; meaningful while it fits).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// An empty snapshot.
    pub const fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Folds `other` into `self` bucket-wise (counts and sums add, max
    /// takes the larger) — how per-rank histograms become the fleet
    /// histogram.
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.wrapping_add(*src);
        }
    }

    /// The `q`-quantile as a conservative upper bound, `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= target {
                return Some(bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median upper bound.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Mean sample, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

impl std::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistSnapshot")
            .field("count", &self.count)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_shards() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_is_safe_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn gauge_set_add_max() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set_max(10);
        g.set_max(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_conservative_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        // p50 of {1,2,3,100,1000}: the 3rd sample (3) lives in bucket
        // [2,3] whose upper bound is 3.
        assert_eq!(h.quantile(0.5), Some(3));
        // Max is exact, and every quantile is capped by it.
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(1.0), Some(1000));
        let snap = h.snapshot();
        assert_eq!(snap.p50(), Some(3));
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1106);
        // A sample's reported quantile never undershoots its bucket's
        // true members: p99 here is the max bucket's bound, capped to
        // the observed max.
        assert_eq!(snap.p99(), Some(1000));
    }

    #[test]
    fn hist_snapshot_merge_adds_and_maxes() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(5000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.max, 5000);
        assert_eq!(m.sum, 5030);
        assert_eq!(m.quantile(1.0), Some(5000));
    }

    #[test]
    fn quantiles_match_an_exact_oracle_within_one_bucket() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = (0..1000u64).map(|i| (i * 37) % 4096).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5f64, 0.9, 0.99] {
            let idx = ((q * 1000.0).ceil() as usize).max(1) - 1;
            let exact = samples[idx];
            let est = h.quantile(q).unwrap();
            // Log-bucket estimate: never below the exact value, at most
            // one octave above it.
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(
                est <= exact.saturating_mul(2).max(1),
                "q={q}: {est} >> {exact}"
            );
        }
    }
}
