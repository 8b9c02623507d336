//! Time-series metrics recording and summary statistics for experiments.

use crate::error::SimError;
use crate::Result;
use std::collections::btree_map::{BTreeMap, Entry};

/// Summary statistics of a set of samples (used by the paper's Figure 7,
/// which reports median, minimum and maximum over a time window).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (0 for fewer than 2 samples).
    pub std_dev: f64,
}

impl SummaryStats {
    /// Computes summary statistics of a slice of samples.
    ///
    /// Returns `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<SummaryStats> {
        if samples.is_empty() {
            return None;
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        let min = sorted[0];
        let max = sorted[count - 1];
        let std_dev = if count > 1 {
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64).sqrt()
        } else {
            0.0
        };
        Some(SummaryStats {
            count,
            mean,
            median,
            min,
            max,
            std_dev,
        })
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm), used to
/// aggregate per-period envelopes over simulation ensembles without keeping
/// every sample in memory.
///
/// # Examples
///
/// ```
/// use netsim::OnlineStats;
///
/// let mut acc = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), 2.5);
/// assert!((acc.std_dev() - (5.0 / 3.0_f64).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sample into the accumulator.
    pub fn push(&mut self, sample: f64) {
        self.count += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (sample - self.mean);
    }

    /// Folds another accumulator's samples into this one (the pairwise
    /// update of Chan, Golub & LeVeque), as if they had been pushed here.
    /// Merging an empty accumulator changes nothing and merging a
    /// single-sample one is exactly a [`push`](Self::push); a longer one may
    /// differ from pushing its samples one by one in the last ulp.
    pub fn merge(&mut self, other: &OnlineStats) {
        match (self.count, other.count) {
            (_, 0) => {}
            (0, _) => *self = *other,
            (_, 1) => self.push(other.mean),
            (ours, theirs) => {
                let total = (ours + theirs) as f64;
                let delta = other.mean - self.mean;
                self.mean += delta * (theirs as f64 / total);
                self.m2 += other.m2 + delta * delta * (ours as f64 * theirs as f64 / total);
                self.count = ours + theirs;
            }
        }
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (0 for fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        }
    }

    /// Sample standard deviation (0 for fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Records named time series of `(period, value)` samples during a run.
///
/// # Examples
///
/// ```
/// use netsim::MetricsRecorder;
///
/// let mut m = MetricsRecorder::new();
/// for t in 0..10 {
///     m.record("stashers", t, (100 + t) as f64);
/// }
/// assert_eq!(m.series("stashers")?.len(), 10);
/// assert_eq!(m.last("stashers"), Some(109.0));
/// # Ok::<(), netsim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRecorder {
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl MetricsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample to the named series (creating it if needed). Only a
    /// new series allocates its name; observers record every period.
    pub fn record(&mut self, series: &str, period: u64, value: f64) {
        match self.series.get_mut(series) {
            Some(samples) => samples.push((period, value)),
            None => {
                self.series
                    .insert(series.to_string(), vec![(period, value)]);
            }
        }
    }

    /// Increments the last sample of the named series at `period` by `delta`,
    /// or starts it at `delta` if the period has no sample yet. Useful for
    /// counting events (e.g. state transitions) as they happen within a round.
    pub fn add(&mut self, series: &str, period: u64, delta: f64) {
        match self.series.get_mut(series) {
            Some(samples) => match samples.last_mut() {
                Some((p, v)) if *p == period => *v += delta,
                _ => samples.push((period, delta)),
            },
            None => {
                self.series
                    .insert(series.to_string(), vec![(period, delta)]);
            }
        }
    }

    /// The names of all recorded series.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// The raw samples of a series.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSeries`] if the series does not exist.
    pub fn series(&self, name: &str) -> Result<&[(u64, f64)]> {
        self.series
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| SimError::UnknownSeries(name.to_string()))
    }

    /// The most recent value of a series, if any.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.series
            .get(name)
            .and_then(|s| s.last())
            .map(|(_, v)| *v)
    }

    /// Appends a whole series by value: a new name takes ownership of
    /// `samples` without copying them, an existing one is extended.
    pub fn append_series(&mut self, name: String, samples: Vec<(u64, f64)>) {
        match self.series.entry(name) {
            Entry::Vacant(slot) => {
                slot.insert(samples);
            }
            Entry::Occupied(mut slot) => slot.get_mut().extend(samples),
        }
    }

    /// Merges another recorder's series into this one (samples are appended).
    pub fn merge(&mut self, other: &MetricsRecorder) {
        for (name, samples) in &other.series {
            self.series
                .entry(name.clone())
                .or_default()
                .extend(samples.iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_stats_basics() {
        assert!(SummaryStats::of(&[]).is_none());
        let s = SummaryStats::of(&[1.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.std_dev, 0.0);
        let s = SummaryStats::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (5.0 / 3.0_f64).sqrt()).abs() < 1e-12);
        let s = SummaryStats::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn record_and_read_series() {
        let mut m = MetricsRecorder::new();
        for t in 0..100u64 {
            m.record("stashers", t, t as f64);
            m.record("receptives", t, 2.0 * t as f64);
        }
        assert_eq!(m.series_names(), vec!["receptives", "stashers"]);
        assert_eq!(m.series("stashers").unwrap().len(), 100);
        assert!(m.series("nope").is_err());
        assert_eq!(m.last("receptives"), Some(198.0));
        assert_eq!(m.last("nope"), None);
    }

    #[test]
    fn add_accumulates_within_a_period() {
        let mut m = MetricsRecorder::new();
        m.add("transfers", 5, 1.0);
        m.add("transfers", 5, 1.0);
        m.add("transfers", 6, 1.0);
        assert_eq!(m.series("transfers").unwrap(), &[(5, 2.0), (6, 1.0)]);
    }

    #[test]
    fn append_series_moves_new_series_and_extends_existing_ones() {
        let mut m = MetricsRecorder::new();
        m.append_series("x".into(), vec![(0, 1.0), (1, 2.0)]);
        m.append_series("x".into(), vec![(2, 3.0)]);
        m.append_series("y".into(), Vec::new());
        assert_eq!(m.series("x").unwrap(), &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(m.series_names(), vec!["x", "y"]);
    }

    #[test]
    fn online_stats_merge_equals_sequential_pushes() {
        // Counts near 10⁶ with a spread of a few thousand — what an ensemble
        // accumulator holds — cut into uneven parts.
        let mut rng = crate::Rng::seed_from(9);
        let samples: Vec<f64> = (0..1_000)
            .map(|_| 990_000.0 + (rng.next_f64() * 20_000.0).floor())
            .collect();
        let mut sequential = OnlineStats::new();
        samples.iter().for_each(|&x| sequential.push(x));
        for parts in [1usize, 2, 3, 64, 1_000] {
            let mut merged = OnlineStats::new();
            for part in samples.chunks(samples.len().div_ceil(parts)) {
                let mut acc = OnlineStats::new();
                part.iter().for_each(|&x| acc.push(x));
                merged.merge(&acc);
            }
            merged.merge(&OnlineStats::new());
            assert_eq!(merged.count, sequential.count);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
            assert!(close(merged.mean(), sequential.mean()), "{parts} parts");
            assert!(
                close(merged.variance(), sequential.variance()),
                "{parts} parts"
            );
            // One sample per part is a sequence of pushes, exactly.
            if parts == samples.len() {
                assert_eq!(merged, sequential);
            }
        }
    }

    #[test]
    fn merge_combines_recorders() {
        let mut a = MetricsRecorder::new();
        a.record("x", 0, 1.0);
        let mut b = MetricsRecorder::new();
        b.record("x", 1, 2.0);
        b.record("y", 0, 3.0);
        a.merge(&b);
        assert_eq!(a.series("x").unwrap().len(), 2);
        assert_eq!(a.series("y").unwrap().len(), 1);
    }
}
