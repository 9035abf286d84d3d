//! Summary statistics, histograms, CDFs and time series.
//!
//! The paper reports its results as summary statistics (Table II), log-scale
//! histograms (Fig. 3/4), time series (Fig. 5/6) and CDFs (Fig. 7). The types
//! in this module are the shared numeric backbone for all of those analyses.

use std::collections::BTreeMap;

/// Summary statistics over a set of samples: count, sum, mean, median, min,
/// max and selected percentiles.
///
/// # Example
///
/// ```
/// use simclock::Summary;
///
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count, 4);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.median, 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples.
    pub sum: f64,
    /// Arithmetic mean (0 for an empty sample set).
    pub mean: f64,
    /// Median (0 for an empty sample set).
    pub median: f64,
    /// Smallest sample (0 for an empty sample set).
    pub min: f64,
    /// Largest sample (0 for an empty sample set).
    pub max: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes summary statistics over `samples`.
    ///
    /// Non-finite samples are ignored. An empty (or all-non-finite) input
    /// yields an all-zero summary with `count == 0`.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut values: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if values.is_empty() {
            return Summary {
                count: 0,
                sum: 0.0,
                mean: 0.0,
                median: 0.0,
                min: 0.0,
                max: 0.0,
                p90: 0.0,
                p99: 0.0,
            };
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("filtered to finite values"));
        let count = values.len();
        let sum: f64 = values.iter().sum();
        Summary {
            count,
            sum,
            mean: sum / count as f64,
            median: percentile_sorted(&values, 0.5),
            min: values[0],
            max: values[count - 1],
            p90: percentile_sorted(&values, 0.9),
            p99: percentile_sorted(&values, 0.99),
        }
    }
}

/// Computes the `q`-quantile (`0.0 ..= 1.0`) of an **already sorted** slice
/// using linear interpolation between the two nearest ranks.
///
/// Returns `0.0` for an empty slice. `q` is clamped to `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lower = pos.floor() as usize;
    let upper = pos.ceil() as usize;
    if lower == upper {
        sorted[lower]
    } else {
        let frac = pos - lower as f64;
        sorted[lower] * (1.0 - frac) + sorted[upper] * frac
    }
}

/// Computes the median of an unsorted slice (ignoring non-finite values).
pub fn median(samples: &[f64]) -> f64 {
    Summary::from_samples(samples).median
}

/// Computes the arithmetic mean of an unsorted slice (ignoring non-finite
/// values).
pub fn mean(samples: &[f64]) -> f64 {
    Summary::from_samples(samples).mean
}

/// A labelled count histogram (e.g. occurrences per agent-version string).
///
/// Entries are kept in a `BTreeMap` so iteration order — and therefore report
/// output — is deterministic.
///
/// # Example
///
/// ```
/// use simclock::Histogram;
///
/// let mut h = Histogram::new();
/// h.add("go-ipfs/0.11.0");
/// h.add("go-ipfs/0.11.0");
/// h.add("hydra-booster/0.7.4");
/// assert_eq!(h.count("go-ipfs/0.11.0"), 2);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<String, u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Increments the count for `label` by one.
    pub fn add(&mut self, label: impl Into<String>) {
        self.add_count(label, 1);
    }

    /// Increments the count for `label` by `n`.
    pub(crate) fn add_count(&mut self, label: impl Into<String>, n: u64) {
        *self.counts.entry(label.into()).or_insert(0) += n;
    }

    /// The count recorded for `label` (0 if absent).
    pub fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    /// Total count across all labels.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct labels.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(label, count)` pairs in label order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Returns `(label, count)` pairs sorted by descending count (ties broken
    /// by label so the order is deterministic).
    pub fn sorted_by_count(&self) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> =
            self.counts.iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries
    }

    /// Collapses every label whose count is `<= threshold` into a single
    /// `other` bucket, mirroring the presentation of Fig. 3 and Fig. 4.
    pub fn group_small(&self, threshold: u64, other_label: &str) -> Histogram {
        let mut grouped = Histogram::new();
        for (label, count) in self.iter() {
            if count <= threshold {
                grouped.add_count(other_label, count);
            } else {
                grouped.add_count(label, count);
            }
        }
        grouped
    }
}

impl<S: Into<String>> FromIterator<S> for Histogram {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for item in iter {
            h.add(item);
        }
        h
    }
}

impl<S: Into<String>> Extend<S> for Histogram {
    fn extend<I: IntoIterator<Item = S>>(&mut self, iter: I) {
        for item in iter {
            self.add(item);
        }
    }
}

/// An empirical cumulative distribution function.
///
/// # Example
///
/// ```
/// use simclock::Cdf;
///
/// let cdf = Cdf::from_samples(&[10.0, 20.0, 30.0, 40.0]);
/// assert_eq!(cdf.fraction_at_or_below(20.0), 0.5);
/// assert_eq!(cdf.fraction_at_or_below(5.0), 0.0);
/// assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds an empirical CDF from (possibly unsorted) samples.
    ///
    /// Non-finite samples are ignored.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("filtered to finite values"));
        Cdf { sorted }
    }

    /// Number of samples behind the CDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Evaluates the CDF at each of the given points, returning `(x, F(x))`
    /// pairs — the series plotted in Fig. 7.
    pub fn evaluate_at(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&x| (x, self.fraction_at_or_below(x)))
            .collect()
    }

    /// Generates logarithmically spaced evaluation points from `start` to
    /// `end` (inclusive), matching the log-scale x-axes used by the paper.
    pub fn log_points(start: f64, end: f64, per_decade: usize) -> Vec<f64> {
        if start <= 0.0 || end <= start || per_decade == 0 {
            return Vec::new();
        }
        let mut points = Vec::new();
        let decades = (end / start).log10();
        let n = (decades * per_decade as f64).ceil() as usize;
        for i in 0..=n {
            let exp = i as f64 / per_decade as f64;
            let x = start * 10f64.powf(exp);
            if x > end * 1.0000001 {
                break;
            }
            points.push(x);
        }
        if points.last().map(|&l| l < end) == Some(true) {
            points.push(end);
        }
        points
    }
}

/// A time series of `(time-in-seconds, value)` samples, used for the
/// simultaneous-connection plots (Fig. 5) and PID growth (Fig. 6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample. Samples should be appended in time order; the series
    /// keeps whatever order it is given.
    pub fn push(&mut self, time_secs: f64, value: f64) {
        self.points.push((time_secs, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The samples as a slice of `(time, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The maximum value in the series (0 for an empty series).
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// The last value in the series, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Downsamples the series to at most `max_points` samples by keeping every
    /// k-th point (always keeping the final point), for compact reports.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        if max_points == 0 || self.points.len() <= max_points {
            return self.clone();
        }
        let step = self.points.len().div_ceil(max_points);
        let mut points: Vec<(f64, f64)> = self.points.iter().copied().step_by(step).collect();
        if let Some(last) = self.points.last() {
            if points.last() != Some(last) {
                points.push(*last);
            }
        }
        TimeSeries { points }
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        TimeSeries {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_input_is_zeroed() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.median, 0.0);
    }

    #[test]
    fn summary_ignores_non_finite_values() {
        let s = Summary::from_samples(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summary_of_single_value() {
        let s = Summary::from_samples(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.p90, 42.0);
        assert_eq!(s.p99, 42.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        // Out-of-range quantiles are clamped.
        assert_eq!(percentile_sorted(&sorted, 2.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, -1.0), 0.0);
    }

    #[test]
    fn histogram_counts_and_groups() {
        let mut h = Histogram::new();
        for _ in 0..150 {
            h.add("go-ipfs/0.11.0");
        }
        for _ in 0..50 {
            h.add("rare-agent");
        }
        h.add("storm");
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.total(), 201);

        let grouped = h.group_small(100, "other");
        assert_eq!(grouped.count("go-ipfs/0.11.0"), 150);
        assert_eq!(grouped.count("other"), 51);
        assert_eq!(grouped.count("rare-agent"), 0);
        assert_eq!(grouped.total(), h.total());
    }

    #[test]
    fn histogram_sorted_by_count_is_descending_and_deterministic() {
        let mut h = Histogram::new();
        h.add_count("b", 5);
        h.add_count("a", 5);
        h.add_count("c", 10);
        let sorted = h.sorted_by_count();
        assert_eq!(sorted[0].0, "c");
        assert_eq!(sorted[1].0, "a");
        assert_eq!(sorted[2].0, "b");
    }

    #[test]
    fn histogram_collects_and_extends() {
        let a: Histogram = ["x", "y", "y"].into_iter().collect();
        assert_eq!(a.count("x"), 1);
        assert_eq!(a.count("y"), 2);

        let mut c = Histogram::new();
        c.extend(["p", "p"]);
        assert_eq!(c.count("p"), 2);
    }

    #[test]
    fn cdf_fractions_are_monotone_and_bounded() {
        let cdf = Cdf::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 5);
        let mut prev = 0.0;
        for x in [0.0, 1.0, 2.5, 3.0, 10.0] {
            let f = cdf.fraction_at_or_below(x);
            assert!(f >= prev);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert_eq!(cdf.fraction_at_or_below(5.0), 1.0);
    }

    #[test]
    fn cdf_empty_is_safe() {
        let cdf = Cdf::from_samples(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(10.0), 0.0);
    }

    #[test]
    fn log_points_span_the_requested_range() {
        let points = Cdf::log_points(1.0, 1000.0, 2);
        assert!(points.first().copied().unwrap() >= 1.0);
        assert!((points.last().copied().unwrap() - 1000.0).abs() < 1e-6);
        for w in points.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(Cdf::log_points(0.0, 10.0, 2).is_empty());
        assert!(Cdf::log_points(10.0, 1.0, 2).is_empty());
        assert!(Cdf::log_points(1.0, 10.0, 0).is_empty());
    }

    #[test]
    fn timeseries_basics() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(0.0, 1.0);
        ts.push(30.0, 5.0);
        ts.push(60.0, 3.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max_value(), 5.0);
        assert_eq!(ts.last_value(), Some(3.0));
    }

    #[test]
    fn timeseries_downsample_keeps_last_point() {
        let ts: TimeSeries = (0..100).map(|i| (i as f64, i as f64)).collect();
        let ds = ts.downsample(10);
        assert!(ds.len() <= 11);
        assert_eq!(ds.points().last(), Some(&(99.0, 99.0)));
        // Downsampling to more points than exist is the identity.
        assert_eq!(ts.downsample(1000), ts);
        assert_eq!(ts.downsample(0), ts);
    }
}
