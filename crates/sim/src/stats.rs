//! Measurement primitives used across the workspace.
//!
//! Everything here is plain data — no interior mutability, no background
//! threads — so statistics never perturb determinism.

/// Streaming mean/variance/min/max over `f64` observations
/// (Welford's algorithm — numerically stable, O(1) memory).
///
/// # Examples
///
/// ```
/// use iotse_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN — a NaN observation would silently poison every
    /// derived statistic.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by N), or 0 when empty.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample variance (divide by N−1), or 0 with fewer than two samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-bucket histogram over non-negative `f64` values, with an explicit
/// overflow bucket.
///
/// # Examples
///
/// ```
/// use iotse_sim::stats::Histogram;
///
/// let mut h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
/// h.record(0.5);   // bucket 0: < 1
/// h.record(5.0);   // bucket 1: [1, 10)
/// h.record(1e6);   // overflow
/// assert_eq!(h.bucket_counts(), &[1, 1, 0]);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram whose bucket `i` covers `[bounds[i-1], bounds[i])`
    /// (bucket 0 covers everything below `bounds[0]`).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        match self.bounds.iter().position(|&b| x < b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Per-bucket counts (same length as the bounds).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of observations at or above the last bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bucket upper bounds this histogram was built with.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_closed_form() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let mut s = OnlineStats::new();
        xs.iter().for_each(|&x| s.record(x));
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.population_variance() - 1.25).abs() < 1e-12);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.sum(), 10.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for i in 0..50 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn online_stats_rejects_nan() {
        OnlineStats::new().record(f64::NAN);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::with_bounds(&[10.0, 20.0]);
        for x in [5.0, 9.9, 10.0, 19.9, 20.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.bucket_counts(), &[2, 2]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        let _ = Histogram::with_bounds(&[1.0, 1.0]);
    }
}
