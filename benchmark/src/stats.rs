//! Order statistics and the convergence-time interpolation.

use crate::spec::Better;

/// Median of an unsorted sample (mean of the middle pair for even sizes).
///
/// # Panics
/// Panics on an empty sample or a NaN: every caller has at least one
/// finite measurement, so either is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a measured sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a quarter of the way in from the best of an unsorted sample:
/// the upper quartile of a higher-is-better sample, the lower quartile of a
/// lower-is-better one (the best itself below four samples).
///
/// This is what the bounded speed figures report.  On a shared box other
/// tenants only ever slow a repetition down, so the repetitions nearest
/// the best are the ones nearest the code's own speed, while the median
/// follows however much of the run the neighbours were busy for.  The best
/// itself is an extreme order statistic and wanders; the quartile next to
/// it does not.  A change to the code moves every repetition, so it moves
/// this as much as it moves the median.
///
/// # Panics
/// Panics on an empty sample or a NaN, like [`median`].
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "quartile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a measured sample"));
    let from_best = v.len() / 4;
    match better {
        Better::Higher => v[v.len() - 1 - from_best],
        Better::Lower => v[from_best],
    }
}

/// Run-to-run spread of a sample: the distance between its first and third
/// quartile as a share of its median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the driver's measure).  Zero
/// for a single run, which has no spread to show.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a measured sample"));
    let quartile = |i: usize| {
        // The "exclusive" method: cut point i of 4 sits at position
        // i·(len+1)/4, interpolated between its neighbours.
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v).abs().max(f64::MIN_POSITIVE)
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `q·n` of the sample at or below it.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples that must lie beyond a tail percentile for it to be reported.
const TAIL_SUPPORT: usize = 10;

/// The tail percentile a sample supports: `want` when at least ten samples
/// lie beyond it, otherwise the highest quantile that still has ten
/// beyond, and never below the median.  Returns `(quantile, value)` so the
/// result file can say which quantile a "p99" row really holds.
///
/// # Panics
/// Panics on an empty sample.
pub fn tail_percentile(sorted: &[u64], want: f64) -> (f64, u64) {
    let n = sorted.len();
    assert!(n > 0, "tail percentile of an empty sample");
    let want_rank = ((n as f64 * want).ceil() as usize).clamp(1, n);
    if n - want_rank >= TAIL_SUPPORT {
        return (want, sorted[want_rank - 1]);
    }
    // Work in ranks, not quantiles: `n * (1 - 10/n)` need not round back
    // to `n - 10`.
    let rank = n.saturating_sub(TAIL_SUPPORT).max(n.div_ceil(2));
    (rank as f64 / n as f64, sorted[rank - 1])
}

/// Seconds at which a convergence trace first reaches `target` RMSE,
/// linearly interpolated between the bracketing `(seconds, rmse)` points.
/// A trace whose first point is already at the target returns that point's
/// time (nothing earlier is known); a trace that never reaches it returns
/// `None`.
pub fn time_to_rmse(points: &[(f64, f64)], target: f64) -> Option<f64> {
    let hit = points.iter().position(|&(_, rmse)| rmse <= target)?;
    let (t1, r1) = points[hit];
    if hit == 0 {
        return Some(t1);
    }
    let (t0, r0) = points[hit - 1];
    // r0 > target >= r1, so the denominator is positive.
    Some(t0 + (t1 - t0) * (r0 - target) / (r0 - r1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_quartile_sits_a_quarter_in_from_the_best() {
        let eight = [5.0, 1.0, 8.0, 3.0, 7.0, 2.0, 6.0, 4.0];
        assert_eq!(quiet_quartile(&eight, Better::Higher), 6.0);
        assert_eq!(quiet_quartile(&eight, Better::Lower), 3.0);
        // Four samples: the second best.  Fewer: the best.
        assert_eq!(quiet_quartile(&[4.0, 1.0, 3.0, 2.0], Better::Higher), 3.0);
        assert_eq!(quiet_quartile(&[4.0, 1.0, 3.0, 2.0], Better::Lower), 2.0);
        assert_eq!(quiet_quartile(&[2.0, 9.0, 4.0], Better::Higher), 9.0);
        assert_eq!(quiet_quartile(&[2.0, 9.0, 4.0], Better::Lower), 2.0);
        assert_eq!(quiet_quartile(&[7.0], Better::Lower), 7.0);
        // Neighbours slowing more than half of the repetitions drag the
        // median down with them; this stays with the quiet ones.
        let quiet = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 9.9, 10.0];
        let mut busy = quiet;
        for slowed in busy.iter_mut().take(5) {
            *slowed *= 0.6;
        }
        let held = quiet_quartile(&busy, Better::Higher) / quiet_quartile(&quiet, Better::Higher);
        assert!(held > 0.97, "{held}");
        assert!(median(&busy) < 0.7 * median(&quiet));
    }

    /// Expected values are `(q[2] - q[0]) / median(v)` with
    /// `q = statistics.quantiles(v, n=4)` from Python 3.
    #[test]
    fn quartile_spread_matches_pythons_quantiles() {
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        close(quartile_spread(&ten), 1.0);
        close(quartile_spread(&[10.0, 12.0, 11.0]), 0.18181818181818182);
        close(quartile_spread(&[5.0, 7.0]), 0.5);
        close(
            quartile_spread(&[3.2, 1.5, 9.9, 4.4, 4.5, 6.1, 2.0]),
            0.9318181818181817,
        );
        assert_eq!(quartile_spread(&[4.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[9], 0.99), 9);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 2,000 samples: 20 lie beyond p99, so p99 stands.
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_percentile(&v, 0.99), (0.99, 1980));
        // 1,000 samples: exactly 10 beyond p99.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v, 0.99), (0.99, 990));
        // 600 samples: only 6 beyond p99, so the report drops to the
        // quantile with ten beyond it, 1 - 10/600.
        let v: Vec<u64> = (1..=600).collect();
        let (q, value) = tail_percentile(&v, 0.99);
        assert!((q - (1.0 - 10.0 / 600.0)).abs() < 1e-12);
        assert_eq!(value, 590);
        // Fewer than twenty samples cannot support any tail: the median.
        let v: Vec<u64> = (1..=12).collect();
        assert_eq!(tail_percentile(&v, 0.99), (0.5, 6));
    }

    #[test]
    fn time_to_rmse_interpolates_between_bracketing_points() {
        let trace = [(1.0, 1.10), (2.0, 1.06), (3.0, 1.04), (4.0, 1.03)];
        // 1.045 lies a quarter of the way from 1.04 back to 1.06.
        let t = time_to_rmse(&trace, 1.045).unwrap();
        assert!((t - 2.75).abs() < 1e-12, "{t}");
        // An exact hit returns that point's time.
        assert_eq!(time_to_rmse(&trace, 1.06), Some(2.0));
        // Already converged at the first sample.
        assert_eq!(time_to_rmse(&trace, 1.2), Some(1.0));
        // Never reached.
        assert_eq!(time_to_rmse(&trace, 1.0), None);
        assert_eq!(time_to_rmse(&[], 1.0), None);
    }
}
