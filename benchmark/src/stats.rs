//! Order statistics used by every report: median, percentile, MAD, the
//! median over rounds with its min/max, and the quartile spread `compare`
//! holds a metric's rounds against its bound with.

/// Sorted copy of `values` (NaNs are a bug upstream; `total_cmp` keeps the
/// sort total anyway).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (`0.0..=100.0`) by linear interpolation between
/// closest ranks. Empty input yields NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median (50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// A statistic computed once per round: the reported value is the median
/// over rounds, with the extreme rounds beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverRounds {
    /// Median of the per-round values.
    pub median: f64,
    /// Smallest round.
    pub min: f64,
    /// Largest round.
    pub max: f64,
}

impl OverRounds {
    /// Folds per-round values.
    pub fn of(per_round: &[f64]) -> Self {
        OverRounds {
            median: median(per_round),
            min: per_round.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_round.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), which is how the benchmark's acceptance rule
/// measures spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    let mut out = [f64::NAN; 3];
    if n < 2 {
        return out;
    }
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let v = [10.0, 11.0, 9.0, 10.0, 1000.0];
        assert_eq!(median(&v), 10.0);
        assert_eq!(mad(&v), 1.0);
    }

    #[test]
    fn median_of_rounds_keeps_the_extreme_rounds() {
        let r = OverRounds::of(&[5.0, 3.0, 4.0, 9.0, 4.5]);
        assert_eq!(r.median, 4.5);
        assert_eq!(r.min, 3.0);
        assert_eq!(r.max, 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }
}
