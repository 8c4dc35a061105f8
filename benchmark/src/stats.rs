//! Statistics the benchmark reports: nearest-rank percentiles, the
//! quartiles two sets of runs are compared by, and the FNV-1a digest that
//! checks outputs.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Samples a reported tail percentile must leave beyond it.
const TAIL_SAMPLES: usize = 10;

/// FNV-1a 64 of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // lint: n is a sample count, far below 2^53
    #[allow(clippy::cast_precision_loss)]
    let exact = p / 100.0 * n as f64;
    // lint: exact lies in [0, n], so the ceiling fits a usize
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = exact.ceil() as usize;
    r.clamp(1, n)
}

/// The nearest-rank `p`-th percentile: the smallest sample with at least
/// `p` percent of the samples at or below it. `None` for no samples.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(sorted(values)[rank(p, values.len()) - 1])
}

/// The nearest-rank median.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// A tail percentile, refused unless at least [`TAIL_SAMPLES`] samples lie
/// beyond it (so p90 needs 100 samples and p75 needs 40).
///
/// # Errors
///
/// Names the sample count the percentile would need.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let beyond = if n == 0 { 0 } else { n - rank(p, n) };
    if beyond < TAIL_SAMPLES {
        return Err(format!(
            "p{p} needs {TAIL_SAMPLES} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    Ok(sorted(values)[rank(p, n) - 1])
}

/// First quartile, median and third quartile of one set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, so a set of runs reads the same
    /// here as in a script. `None` below two samples.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let n = values.len();
        if n < 2 {
            return None;
        }
        let data = sorted(values);
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            // Negative when the clamp moved `j` up: Python extrapolates
            // from the two lowest points then.
            // lint: sample counts are small, so both products are exact in f64
            #[allow(clippy::cast_precision_loss)]
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Some(Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        })
    }

    /// The distance between the quartiles as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(tail_percentile(&v, 90.0).is_err());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), Ok(90.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 75.0), Ok(30.0));
        assert!(tail_percentile(&v[..39], 75.0).is_err());
        assert!(tail_percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[10.0, 20.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        assert!(Quartiles::of(&[1.0]).is_none());
    }
}
