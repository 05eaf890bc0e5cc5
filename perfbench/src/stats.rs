//! Summary statistics for timings.
//!
//! A timing is reported as its median plus, where the sample allows it,
//! the highest percentile of [`LADDER`] that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it — a tail read off fewer
//! samples than that is noise, not a tail.

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even counts); NaN when
/// empty. Infinite samples (failed operations) sort last.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    s[rank(s.len(), p) - 1]
}

/// The highest percentile of [`LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its rank, and its value; `None`
/// when even the median has too few samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let p = LADDER
        .into_iter()
        .find(|&p| n >= rank(n, p) + TAIL_MIN_BEYOND)?;
    Some((p, percentile(xs, p)))
}

/// Arithmetic mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `p·n/100` products like 99.9 · 10 000 from rounding
/// up a whole rank).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank(p99) = 990 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9 beyond, so the rule steps down.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // 40 samples: p75 leaves 10 beyond.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 20 samples: only the median qualifies; 19 have no tail at all.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_operations_count_as_missing_every_limit() {
        let mut xs = ramp(999);
        xs.push(f64::INFINITY);
        // The failure sorts last: it widens the tail but never hides.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        assert_eq!(percentile(&xs, 100.0), f64::INFINITY);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
