//! Counters, running means and utilization helpers used by every component.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use dcl1_common::stats::Counter;
///
/// let mut hits = Counter::default();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Returns this count as a fraction of `total` (0.0 when `total` is 0).
    pub fn ratio_of(self, total: u64) -> f64 {
        ratio(self.0, total)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Computes `num / den`, returning 0.0 for an empty denominator.
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// An online mean with count and min/max, for latency-style statistics
/// and time-series summaries. The mean is a plain `sum / count`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl RunningMean {
    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
        if self.count == 1 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Returns the mean of all observations, or 0.0 if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation, or 0.0 if none were recorded.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0.0 if none were recorded.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another mean into this one (used when aggregating per-node
    /// statistics into machine-level statistics).
    pub fn merge(&mut self, other: &RunningMean) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Geometric mean of a slice of positive ratios.
///
/// The paper reports average speedups; for normalized ratios the geometric
/// mean is the conventional aggregate, and it is what the bench harness
/// prints alongside the arithmetic mean.
///
/// Returns 0.0 for an empty slice. Non-positive entries are clamped to a
/// tiny epsilon so a single degenerate run cannot poison the aggregate.
pub fn geomean(values: &[f64]) -> f64 {
    geomean_counting(values).0
}

/// Like [`geomean`], but also reports how many non-positive entries were
/// clamped to the epsilon — a nonzero count means some run in the
/// aggregate was degenerate (zero or negative ratio) and the geomean is
/// an underestimate rather than a faithful average.
pub fn geomean_counting(values: &[f64]) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let clamped = values.iter().filter(|&&v| v <= 0.0).count();
    let log_sum: f64 = values.iter().map(|&v| v.max(1e-12).ln()).sum();
    ((log_sum / values.len() as f64).exp(), clamped)
}

/// Arithmetic mean of a slice, 0.0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert!((c.ratio_of(20) - 0.5).abs() < 1e-12);
        assert_eq!(c.ratio_of(0), 0.0);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert!((ratio(1, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn running_mean_basics() {
        let mut m = RunningMean::default();
        assert_eq!(m.mean(), 0.0);
        m.record(2.0);
        m.record(4.0);
        assert!((m.mean() - 3.0).abs() < 1e-12);
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn running_mean_merge() {
        let mut a = RunningMean::default();
        a.record(1.0);
        let mut b = RunningMean::default();
        b.record(3.0);
        a.merge(&b);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_mean_min_max() {
        let mut m = RunningMean::default();
        assert_eq!(m.min(), 0.0);
        assert_eq!(m.max(), 0.0);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.record(v);
        }
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
        assert!((m.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn running_mean_handles_negative_min() {
        let mut m = RunningMean::default();
        m.record(-3.0);
        m.record(1.0);
        assert_eq!(m.min(), -3.0);
        assert_eq!(m.max(), 1.0);
    }

    #[test]
    fn merge_matches_single_stream() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0, -1.0, 12.5];
        for split in 0..=data.len() {
            let mut a = RunningMean::default();
            let mut b = RunningMean::default();
            let mut whole = RunningMean::default();
            for (i, &v) in data.iter().enumerate() {
                if i < split {
                    a.record(v);
                } else {
                    b.record(v);
                }
                whole.record(v);
            }
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert!((a.mean() - whole.mean()).abs() < 1e-12, "split {split}");
            assert_eq!(a.min(), whole.min(), "split {split}");
            assert_eq!(a.max(), whole.max(), "split {split}");
        }
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        let v = [2.0, 0.5, 4.0, 0.25];
        assert!((geomean(&v) - 1.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_clamps_nonpositive() {
        let g = geomean(&[0.0, 1.0]);
        assert!(g > 0.0 && g < 1.0);
    }

    #[test]
    fn geomean_counting_reports_clamps() {
        let (g, clamped) = geomean_counting(&[0.0, -2.0, 1.0, 4.0]);
        assert_eq!(clamped, 2);
        assert!(g > 0.0);
        let (g2, clamped2) = geomean_counting(&[2.0, 0.5]);
        assert_eq!(clamped2, 0);
        assert!((g2 - 1.0).abs() < 1e-12);
        assert_eq!(geomean_counting(&[]), (0.0, 0));
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
