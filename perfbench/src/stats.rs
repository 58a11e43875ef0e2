//! Summary statistics with the benchmark's percentile rule.
//!
//! A latency percentile is only reported when the sample supports it: the
//! highest percentile of [`LADDER`] (at most the one asked for) that leaves
//! at least [`MIN_BEYOND`] samples ranked above it. So a p99 needs 1,000
//! samples, a p95 200, a p90 100 and a median 20.

/// Percentiles the rule may fall back through, lowest first.
pub const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must rank above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median; the mean of the middle pair for an even count. `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`. `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A reported tail percentile and the sample behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (may be below the one asked for).
    pub percentile: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// Nearest rank (1-based) of percentile `p` in a sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`LADDER`], at most `wanted`, that a sample
/// of `n` supports; `None` when not even the median is supported.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// Percentile `wanted` of `xs` under the percentile rule.
pub fn tail(xs: &[f64], wanted: f64) -> Option<Tail> {
    let p = supported_percentile(xs.len(), wanted)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = rank(p, v.len());
    Some(Tail {
        percentile: p,
        value: v[k - 1],
        n: v.len(),
        beyond: v.len() - k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(999, 99.0), Some(95.0));
        assert_eq!(supported_percentile(200, 99.0), Some(95.0));
        assert_eq!(supported_percentile(199, 99.0), Some(90.0));
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(20, 99.0), Some(50.0));
        assert_eq!(supported_percentile(19, 99.0), None);
        assert_eq!(supported_percentile(0, 50.0), None);
    }

    #[test]
    fn never_reports_above_the_percentile_asked_for() {
        assert_eq!(supported_percentile(100_000, 90.0), Some(90.0));
        assert_eq!(supported_percentile(100_000, 50.0), Some(50.0));
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0).expect("1000 samples support p99");
        assert_eq!(
            (t.percentile, t.value, t.n, t.beyond),
            (99.0, 990.0, 1000, 10)
        );

        let xs: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        let t = tail(&xs, 99.0).expect("250 samples support p95");
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 238.0);
        assert!(t.beyond >= MIN_BEYOND);
        assert_eq!(tail(&xs[..5], 50.0), None);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
    }
}
