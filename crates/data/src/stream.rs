//! Streaming event sources: replaying a rating log with arrival times.
//!
//! The paper's setting is inherently online — "new ratings, new users and
//! new items keep arriving while the algorithm runs" — but its evaluation
//! (and the batch pipeline in this workspace) freezes the data up front.
//! This module provides the missing ingestion side:
//!
//! * [`StreamBatch`] — a timestamped batch of arriving ratings, possibly
//!   introducing previously unseen users (new rows) and items (new
//!   columns),
//! * [`EventSource`] — anything that yields such batches in arrival order,
//! * [`RatingLog`] — the canonical replayable source: a finite, seeded log
//!   of batches, convertible into the update-count-keyed [`ArrivalTrace`]
//!   the online NOMAD engines consume,
//! * [`ArrivalProfile`] — how batch timestamps are generated: a constant
//!   rate, or a Poisson process (exponential inter-arrival times),
//! * [`stream_split`] — the generator-backed entry point: hold back part of
//!   a batch dataset (including a tail of entirely unseen users and items)
//!   and replay it as a stream against the remaining warm start.
//!
//! Everything is deterministic in the configured seeds, so streaming
//! experiments replay exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nomad_matrix::{ArrivalBatch, ArrivalTrace, Entry, TripletMatrix};

/// A batch of ratings arriving `at_seconds` into the stream.
///
/// New users and items claim the next free indices: if the matrix had `m`
/// rows before this batch, the batch's `new_users` rows are `m..m+new_users`
/// and its `ratings` may reference them (and all earlier rows).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBatch {
    /// Arrival time of the batch, in seconds from the start of the stream.
    pub at_seconds: f64,
    /// Previously unseen users introduced by this batch.
    pub new_users: usize,
    /// Previously unseen items introduced by this batch.
    pub new_items: usize,
    /// The arriving ratings, indexed in the grown coordinate space.
    pub ratings: Vec<Entry>,
}

/// A source of timestamped arrival batches, in non-decreasing time order.
pub trait EventSource {
    /// Returns the next batch, or `None` once the stream is exhausted.
    fn next_batch(&mut self) -> Option<StreamBatch>;

    /// Drains the remaining batches into a vector.
    fn drain(&mut self) -> Vec<StreamBatch> {
        let mut out = Vec::new();
        while let Some(b) = self.next_batch() {
            out.push(b);
        }
        out
    }
}

/// How arrival timestamps are assigned to a sequence of batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProfile {
    /// Constant inter-arrival gap: batch `b` arrives at `(b + 1) / rate`.
    Uniform {
        /// Batches per second.
        rate: f64,
    },
    /// Poisson process: i.i.d. exponential inter-arrival times with mean
    /// `1 / rate`, drawn deterministically from `seed` by inverse-CDF
    /// sampling.  This is the classic model of independent user traffic
    /// and what the streaming benchmark uses for its arrival-rate sweep.
    Poisson {
        /// Expected batches per second.
        rate: f64,
        /// RNG seed for the inter-arrival draws.
        seed: u64,
    },
}

impl ArrivalProfile {
    /// Generates `n` strictly increasing arrival timestamps.
    ///
    /// # Panics
    /// Panics if the rate is not positive.
    pub fn timestamps(&self, n: usize) -> Vec<f64> {
        match *self {
            ArrivalProfile::Uniform { rate } => {
                assert!(rate > 0.0, "arrival rate must be positive");
                (0..n).map(|b| (b + 1) as f64 / rate).collect()
            }
            ArrivalProfile::Poisson { rate, seed } => {
                assert!(rate > 0.0, "arrival rate must be positive");
                let mut rng = StdRng::seed_from_u64(seed ^ 0x0A15_50FF);
                let mut t = 0.0f64;
                (0..n)
                    .map(|_| {
                        // Inverse-CDF exponential draw; 1-u avoids ln(0).
                        let u: f64 = rng.gen_range(0.0..1.0);
                        t += -(1.0 - u).ln() / rate;
                        t
                    })
                    .collect()
            }
        }
    }
}

/// A finite, replayable log of timestamped arrival batches.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingLog {
    batches: Vec<StreamBatch>,
    cursor: usize,
}

impl RatingLog {
    /// Builds a log, sorting batches by arrival time (stable).
    pub fn new(mut batches: Vec<StreamBatch>) -> Self {
        batches.sort_by(|a, b| {
            a.at_seconds
                .partial_cmp(&b.at_seconds)
                .expect("arrival times must not be NaN")
        });
        Self { batches, cursor: 0 }
    }

    /// All batches, ascending in arrival time.
    #[inline]
    pub fn batches(&self) -> &[StreamBatch] {
        &self.batches
    }

    /// Resets replay to the beginning of the log.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Total ratings across all batches.
    pub fn total_ratings(&self) -> usize {
        self.batches.iter().map(|b| b.ratings.len()).sum()
    }

    /// Total previously unseen users introduced over the whole log.
    pub fn total_new_users(&self) -> usize {
        self.batches.iter().map(|b| b.new_users).sum()
    }

    /// Total previously unseen items introduced over the whole log.
    pub fn total_new_items(&self) -> usize {
        self.batches.iter().map(|b| b.new_items).sum()
    }

    /// Converts wall-clock arrival times into the update-count arrival
    /// clock of the online NOMAD engines: a batch arriving at `t` seconds
    /// is applied once `round(t × updates_per_sec)` SGD updates have run.
    ///
    /// The update count is the one monotone clock all three engines
    /// (serial, threaded, simulated) share deterministically, so the same
    /// log produces the same ingestion points everywhere; choose
    /// `updates_per_sec` to match the throughput of the platform being
    /// modeled.
    ///
    /// # Panics
    /// Panics if `updates_per_sec` is not positive.
    pub fn arrival_trace(&self, updates_per_sec: f64) -> ArrivalTrace {
        assert!(updates_per_sec > 0.0, "updates_per_sec must be positive");
        ArrivalTrace::new(
            self.batches
                .iter()
                .map(|b| ArrivalBatch {
                    at: (b.at_seconds * updates_per_sec).round() as u64,
                    new_rows: b.new_users,
                    new_cols: b.new_items,
                    entries: b.ratings.clone(),
                })
                .collect(),
        )
    }
}

impl EventSource for RatingLog {
    fn next_batch(&mut self) -> Option<StreamBatch> {
        let b = self.batches.get(self.cursor).cloned();
        self.cursor += b.is_some() as usize;
        b
    }
}

/// Configuration of [`stream_split`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSplit {
    /// Fraction of the *warm-eligible* ratings (both endpoints already seen
    /// at warm start) that arrive online instead.
    pub holdback: f64,
    /// Fraction of users that are entirely unseen at warm start and arrive
    /// as new rows spread across the batches.
    pub unseen_users: f64,
    /// Fraction of items that are entirely unseen at warm start and arrive
    /// as new columns spread across the batches.
    pub unseen_items: f64,
    /// Number of arrival batches the held-back ratings are spread over.
    pub num_batches: usize,
    /// How batch timestamps are generated.
    pub profile: ArrivalProfile,
    /// Seed for the holdback and batch-assignment draws.
    pub seed: u64,
}

impl StreamSplit {
    /// The protocol of the streaming benchmark: hold back 20% of the
    /// ratings, including 10% entirely unseen users and items, over four
    /// batches arriving at a constant rate of one per second.
    pub fn standard(seed: u64) -> Self {
        Self {
            holdback: 0.2,
            unseen_users: 0.1,
            unseen_items: 0.1,
            num_batches: 4,
            profile: ArrivalProfile::Uniform { rate: 1.0 },
            seed,
        }
    }

    /// Overrides the arrival profile.
    pub fn with_profile(mut self, profile: ArrivalProfile) -> Self {
        self.profile = profile;
        self
    }
}

/// Splits a batch dataset into a warm start and a replayable stream.
///
/// The last `unseen_users` fraction of rows and `unseen_items` fraction of
/// columns are removed from the warm matrix entirely (they are the "new
/// signups" of the stream) and re-introduced in equal index ranges across
/// the `num_batches` batches.  Every rating touching an unseen row/column
/// is routed to the earliest batch whose grown dimensions cover it, or a
/// later one at random; of the remaining ratings, a `holdback` fraction is
/// spread uniformly over all batches.  The warm matrix keeps the rest at
/// the shrunken dimensions, so replaying the whole log against it
/// reconstructs exactly the input data (at full dimensions).
///
/// # Panics
/// Panics if the fractions are outside `[0, 1)` (holdback may be 1), if
/// `num_batches == 0`, or if shrinking would leave no warm rows/columns.
pub fn stream_split(full: &TripletMatrix, cfg: &StreamSplit) -> (TripletMatrix, RatingLog) {
    assert!(
        (0.0..=1.0).contains(&cfg.holdback),
        "holdback must be within [0, 1]"
    );
    assert!(
        (0.0..1.0).contains(&cfg.unseen_users) && (0.0..1.0).contains(&cfg.unseen_items),
        "unseen fractions must be within [0, 1)"
    );
    assert!(cfg.num_batches > 0, "need at least one batch");
    let (m, n) = (full.nrows(), full.ncols());
    let unseen_rows = (m as f64 * cfg.unseen_users).floor() as usize;
    let unseen_cols = (n as f64 * cfg.unseen_items).floor() as usize;
    let (m0, n0) = (m - unseen_rows, n - unseen_cols);
    assert!(m0 > 0 && n0 > 0, "warm start would be empty");

    // Dimension frontier after each batch: batch b grows rows to rows_at[b]
    // and columns to cols_at[b]; the last batch reaches the full dims.
    let b_total = cfg.num_batches;
    let rows_at: Vec<usize> = (0..b_total)
        .map(|b| m0 + unseen_rows * (b + 1) / b_total)
        .collect();
    let cols_at: Vec<usize> = (0..b_total)
        .map(|b| n0 + unseen_cols * (b + 1) / b_total)
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x57BE_A301);
    let mut warm = TripletMatrix::new(m0, n0);
    let mut per_batch: Vec<Vec<Entry>> = vec![Vec::new(); b_total];
    for e in full.entries() {
        let (i, j) = (e.row as usize, e.col as usize);
        if i < m0 && j < n0 {
            // Both endpoints known at warm start: stream only a holdback
            // fraction, spread uniformly over the batches.
            if rng.gen_range(0.0..1.0) < cfg.holdback {
                per_batch[rng.gen_range(0..b_total)].push(*e);
            } else {
                warm.push_entry(*e);
            }
        } else {
            // Touches an unseen user/item: eligible only once both
            // endpoints have been introduced.
            let first = (0..b_total)
                .find(|&b| i < rows_at[b] && j < cols_at[b])
                .expect("the last batch reaches the full dimensions");
            per_batch[rng.gen_range(first..b_total)].push(*e);
        }
    }

    let times = cfg.profile.timestamps(b_total);
    let mut prev_rows = m0;
    let mut prev_cols = n0;
    let batches = per_batch
        .into_iter()
        .enumerate()
        .map(|(b, ratings)| {
            let batch = StreamBatch {
                at_seconds: times[b],
                new_users: rows_at[b] - prev_rows,
                new_items: cols_at[b] - prev_cols,
                ratings,
            };
            prev_rows = rows_at[b];
            prev_cols = cols_at[b];
            batch
        })
        .collect();
    (warm, RatingLog::new(batches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{named_dataset, SizeTier};

    fn full() -> TripletMatrix {
        named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build()
            .train
    }

    #[test]
    fn uniform_profile_spaces_batches_evenly() {
        let ts = ArrivalProfile::Uniform { rate: 2.0 }.timestamps(4);
        assert_eq!(ts, vec![0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn poisson_profile_is_deterministic_and_increasing() {
        let p = ArrivalProfile::Poisson { rate: 4.0, seed: 9 };
        let a = p.timestamps(16);
        let b = p.timestamps(16);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t > 0.0));
        // The mean inter-arrival time should be near 1/rate.
        let mean = a.last().unwrap() / 16.0;
        assert!((0.05..1.0).contains(&mean), "mean gap {mean}");
        let other = ArrivalProfile::Poisson {
            rate: 4.0,
            seed: 10,
        }
        .timestamps(16);
        assert_ne!(a, other);
    }

    #[test]
    fn stream_split_partitions_the_data_exactly() {
        let full = full();
        let (warm, log) = stream_split(&full, &StreamSplit::standard(3));
        assert_eq!(warm.nnz() + log.total_ratings(), full.nnz());
        // Roughly 20% of warm-eligible ratings plus everything touching the
        // unseen tail is streamed.
        let frac = log.total_ratings() as f64 / full.nnz() as f64;
        assert!((0.15..0.55).contains(&frac), "streamed fraction {frac}");
        // Dimensions: the warm matrix shrinks, the log grows it back.
        assert_eq!(warm.nrows() + log.total_new_users(), full.nrows());
        assert_eq!(warm.ncols() + log.total_new_items(), full.ncols());
        assert!(log.total_new_users() > 0 && log.total_new_items() > 0);
    }

    #[test]
    fn stream_split_batches_respect_the_dimension_frontier() {
        let full = full();
        let (warm, log) = stream_split(&full, &StreamSplit::standard(5));
        let mut rows = warm.nrows();
        let mut cols = warm.ncols();
        for batch in log.batches() {
            rows += batch.new_users;
            cols += batch.new_items;
            for e in &batch.ratings {
                assert!((e.row as usize) < rows, "row {} vs frontier {rows}", e.row);
                assert!((e.col as usize) < cols, "col {} vs frontier {cols}", e.col);
            }
        }
        assert_eq!(rows, full.nrows());
        assert_eq!(cols, full.ncols());
    }

    #[test]
    fn stream_split_is_deterministic_in_the_seed() {
        let full = full();
        let cfg = StreamSplit::standard(11);
        let (w1, l1) = stream_split(&full, &cfg);
        let (w2, l2) = stream_split(&full, &cfg);
        assert_eq!(w1, w2);
        assert_eq!(l1.batches(), l2.batches());
        let (w3, _) = stream_split(&full, &StreamSplit::standard(12));
        assert_ne!(w1, w3);
    }

    #[test]
    fn replaying_the_log_reconstructs_the_full_data() {
        let full = full();
        let (warm, mut log) = stream_split(&full, &StreamSplit::standard(7));
        let mut d = nomad_matrix::DynamicMatrix::from_triplets(&warm);
        while let Some(batch) = log.next_batch() {
            d.grow_rows(batch.new_users);
            d.grow_cols(batch.new_items);
            for e in &batch.ratings {
                d.push(e.row, e.col, e.value);
            }
        }
        d.compact();
        // Same entry multiset (order differs) and same dimensions.
        assert_eq!((d.nrows(), d.ncols()), (full.nrows(), full.ncols()));
        let mut a: Vec<_> = d
            .to_triplets()
            .entries()
            .iter()
            .map(|e| (e.row, e.col, e.value.to_bits()))
            .collect();
        let mut b: Vec<_> = full
            .entries()
            .iter()
            .map(|e| (e.row, e.col, e.value.to_bits()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn event_source_drains_in_order_and_rewinds() {
        let (_, mut log) = stream_split(&full(), &StreamSplit::standard(1));
        let first = log.next_batch().unwrap();
        let rest = log.drain();
        assert_eq!(rest.len(), log.batches().len() - 1);
        assert!(log.next_batch().is_none());
        log.rewind();
        assert_eq!(log.next_batch().unwrap(), first);
        assert!(first.at_seconds <= rest[0].at_seconds);
    }

    #[test]
    fn arrival_trace_converts_seconds_to_updates() {
        let (_, log) = stream_split(&full(), &StreamSplit::standard(2));
        let trace = log.arrival_trace(10_000.0);
        assert_eq!(trace.len(), log.batches().len());
        for (a, s) in trace.batches().iter().zip(log.batches()) {
            assert_eq!(a.at, (s.at_seconds * 10_000.0).round() as u64);
            assert_eq!(a.new_rows, s.new_users);
            assert_eq!(a.new_cols, s.new_items);
            assert_eq!(a.entries, s.ratings);
        }
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn zero_batches_rejected() {
        let mut cfg = StreamSplit::standard(0);
        cfg.num_batches = 0;
        let _ = stream_split(&full(), &cfg);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProfile::Uniform { rate: 0.0 }.timestamps(3);
    }
}
