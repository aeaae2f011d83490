//! Statistics primitives used throughout the simulator.
//!
//! All statistics are plain data: cheap to create, cheap to merge, and
//! serialisable so experiment runners can dump them as JSON.

use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use chameleon_simkit::stats::Counter;
/// let mut hits = Counter::new();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.0 += other.0;
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming mean/min/max over `f64` samples.
///
/// # Example
///
/// ```
/// use chameleon_simkit::stats::RunningStat;
/// let mut s = RunningStat::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStat {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStat {
    /// Creates an empty statistic.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Geometric mean of a set of strictly positive values.
///
/// The paper reports workload performance as the geometric mean of per-app
/// IPC (Equation 1 uses geometric-mean execution times).
///
/// # Panics
///
/// Panics if any value is not strictly positive.
///
/// # Example
///
/// ```
/// use chameleon_simkit::stats::geometric_mean;
/// let g = geometric_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
        let mut d = Counter::new();
        d.add(8);
        c.merge(&d);
        assert_eq!(c.value(), 50);
        assert_eq!(format!("{c}"), "50");
    }

    #[test]
    fn running_stat_mean_min_max_sum() {
        let mut s = RunningStat::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn running_stat_empty() {
        let s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn geo_mean() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geo_mean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }
}
