//! A deterministic metrics registry: named counters, gauges, and
//! fixed-bucket histograms.
//!
//! [`Histogram`] is the raw bucket accumulator; the registry is the layer
//! an observability surface needs on top of it: metrics are
//! registered once by name (`iotse_<crate>_<name>`, enforced by lint rule
//! IOTSE-M09), addressed afterwards by a cheap interned id so the hot path
//! never hashes or allocates, and snapshot into a [`MetricsReport`] whose
//! ordering is stable (sorted by name) so exported text is byte-identical
//! across runs and across `--jobs` settings.
//!
//! Like everything in this crate the registry is plain data: no interior
//! mutability, no globals, no background aggregation. A scenario owns its
//! registry, and the fleet runner merges per-run [`MetricsReport`]s after
//! the fact.
//!
//! # Examples
//!
//! ```
//! use iotse_sim::metrics::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! let reads = reg.counter("iotse_sim_reads_total");
//! let depth = reg.gauge("iotse_sim_queue_depth");
//! let bytes = reg.histogram("iotse_sim_payload_bytes", &[16.0, 256.0, 4096.0]);
//! reg.inc(reads);
//! reg.add(reads, 9);
//! reg.set_gauge(depth, 3.0);
//! reg.observe(bytes, 100.0);
//! let report = reg.snapshot();
//! assert_eq!(report.counters, vec![("iotse_sim_reads_total".to_string(), 10)]);
//! ```

use std::collections::BTreeMap;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HistogramId(u32);

/// A registry of named metrics, addressed by interned ids after
/// registration.
///
/// Registration is idempotent: asking for an existing name returns the
/// original handle (for histograms the bounds must match — two call sites
/// registering the same name with different buckets is a naming bug, and
/// panics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    index: BTreeMap<String, Slot>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram, f64)>, // (name, buckets, sum)
}

/// What a registered name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Counter(u32),
    Gauge(u32),
    Histogram(u32),
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(slot) = self.index.get(name) {
            match slot {
                Slot::Counter(i) => return CounterId(*i),
                // iotse-lint: allow(IOTSE-E04) — kind clash is a naming bug
                _ => panic!("metric `{name}` already registered with another kind"),
            }
        }
        let i = self.counters.len() as u32;
        self.counters.push((name.to_string(), 0));
        self.index.insert(name.to_string(), Slot::Counter(i));
        CounterId(i)
    }

    /// Registers (or looks up) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(slot) = self.index.get(name) {
            match slot {
                Slot::Gauge(i) => return GaugeId(*i),
                // iotse-lint: allow(IOTSE-E04) — kind clash is a naming bug
                _ => panic!("metric `{name}` already registered with another kind"),
            }
        }
        let i = self.gauges.len() as u32;
        self.gauges.push((name.to_string(), 0.0));
        self.index.insert(name.to_string(), Slot::Gauge(i));
        GaugeId(i)
    }

    /// Registers (or looks up) the histogram `name` with the given bucket
    /// upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind or with
    /// different bounds, or if `bounds` is empty / not strictly increasing.
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistogramId {
        if let Some(slot) = self.index.get(name) {
            match slot {
                Slot::Histogram(i) => {
                    assert!(
                        self.histograms[*i as usize].1.bounds() == bounds,
                        "histogram `{name}` re-registered with different bounds"
                    );
                    return HistogramId(*i);
                }
                // iotse-lint: allow(IOTSE-E04) — kind clash is a naming bug
                _ => panic!("metric `{name}` already registered with another kind"),
            }
        }
        let i = self.histograms.len() as u32;
        self.histograms
            .push((name.to_string(), Histogram::with_bounds(bounds), 0.0));
        self.index.insert(name.to_string(), Slot::Histogram(i));
        HistogramId(i)
    }

    /// Adds one to a counter.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize].1 += 1;
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].1 += n;
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0 as usize].1 = value;
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, x: f64) {
        let (_, hist, sum) = &mut self.histograms[id.0 as usize];
        hist.record(x);
        *sum += x;
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].1
    }

    /// Current value of a gauge.
    #[must_use]
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0 as usize].1
    }

    /// Snapshots every metric into a stable-ordered report.
    #[must_use]
    pub fn snapshot(&self) -> MetricsReport {
        let mut counters = self.counters.clone();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .iter()
            .map(|(name, hist, sum)| HistogramSnapshot {
                name: name.clone(),
                bounds: hist.bounds().to_vec(),
                counts: hist.bucket_counts().to_vec(),
                overflow: hist.overflow(),
                count: hist.total(),
                sum: *sum,
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsReport {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (same length as `bounds`).
    pub counts: Vec<u64>,
    /// Observations at or above the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) from the fixed buckets by
    /// linear interpolation inside the bucket holding the target rank.
    ///
    /// The estimate is *biased by the bucket layout*: a bucket's
    /// observations are assumed uniformly spread between its lower edge
    /// (0.0 for the first bucket) and its upper bound, so the true
    /// quantile can be off by up to one bucket width. Ranks landing in
    /// the overflow region clamp to the last bound — the snapshot does
    /// not retain the magnitude of overflowing observations. Returns
    /// `None` for an empty histogram or a `q` outside `0.0..=1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Nearest-rank target, 1-based: ceil(q * count), clamped to >= 1.
        // lint: q in [0, 1] times a tally far below 2^53 — small, non-negative
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, (&bound, &n)) in self.bounds.iter().zip(&self.counts).enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                // Position of the target rank inside this bucket, in (0, 1].
                // lint: both operands are bucket tallies far below 2^53
                #[allow(clippy::cast_precision_loss)]
                let frac = (target - seen) as f64 / n as f64;
                return Some(lower + (bound - lower) * frac);
            }
            seen += n;
        }
        // Target rank lies in the overflow region: clamp to the last bound.
        self.bounds.last().copied()
    }
}

/// A stable-ordered snapshot of a [`MetricsRegistry`] — every list is
/// sorted by metric name, so rendering a report yields byte-identical text
/// for identical runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsReport {
    /// `true` if the report carries no metrics at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Looks up a gauge value by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Looks up a histogram snapshot by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|h| h.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }

    /// Merges `other` into this report: counters, histogram buckets and
    /// sums add; gauges add too (across a fleet a gauge like
    /// `iotse_energy_total_microjoules` reads as a per-scheme total —
    /// callers wanting a mean divide by run count).
    ///
    /// # Panics
    ///
    /// Panics if the same histogram name appears with different bounds —
    /// reports from differently-configured registries cannot be merged.
    pub fn merge(&mut self, other: &MetricsReport) {
        for (name, value) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.counters[i].1 += value,
                Err(i) => self.counters.insert(i, (name.clone(), *value)),
            }
        }
        for (name, value) in &other.gauges {
            match self.gauges.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.gauges[i].1 += value,
                Err(i) => self.gauges.insert(i, (name.clone(), *value)),
            }
        }
        for hist in &other.histograms {
            match self.histograms.binary_search_by(|h| h.name.cmp(&hist.name)) {
                Ok(i) => {
                    let mine = &mut self.histograms[i];
                    assert!(
                        mine.bounds == hist.bounds,
                        "cannot merge histogram `{}`: bucket bounds differ",
                        hist.name
                    );
                    for (a, b) in mine.counts.iter_mut().zip(&hist.counts) {
                        *a += b;
                    }
                    mine.overflow += hist.overflow;
                    mine.count += hist.count;
                    mine.sum += hist.sum;
                }
                Err(i) => self.histograms.insert(i, hist.clone()),
            }
        }
    }
}

/// Fixed-bucket histogram over non-negative `f64` values, with an explicit
/// overflow bucket.
///
/// # Examples
///
/// ```
/// use iotse_sim::metrics::Histogram;
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

    #[test]
    fn registration_is_idempotent() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("iotse_sim_x_total");
        let b = reg.counter("iotse_sim_x_total");
        assert_eq!(a, b);
        let g = reg.gauge("iotse_sim_g");
        assert_eq!(reg.gauge("iotse_sim_g"), g);
        let h = reg.histogram("iotse_sim_h", &[1.0, 2.0]);
        assert_eq!(reg.histogram("iotse_sim_h", &[1.0, 2.0]), h);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_clash_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("iotse_sim_x");
        reg.gauge("iotse_sim_x");
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_clash_panics() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("iotse_sim_h", &[1.0]);
        reg.histogram("iotse_sim_h", &[2.0]);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let mut reg = MetricsRegistry::new();
        let z = reg.counter("iotse_sim_z_total");
        let a = reg.counter("iotse_sim_a_total");
        reg.add(z, 2);
        reg.inc(a);
        let report = reg.snapshot();
        assert_eq!(
            report.counters,
            vec![
                ("iotse_sim_a_total".to_string(), 1),
                ("iotse_sim_z_total".to_string(), 2),
            ]
        );
        assert_eq!(report.counter("iotse_sim_z_total"), Some(2));
        assert_eq!(report.counter("missing"), None);
    }

    #[test]
    fn histogram_snapshot_tracks_sum_and_overflow() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("iotse_sim_bytes", &[10.0, 100.0]);
        reg.observe(h, 5.0);
        reg.observe(h, 50.0);
        reg.observe(h, 500.0);
        let report = reg.snapshot();
        let snap = &report.histograms[0];
        assert_eq!(snap.counts, vec![1, 1]);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 555.0);
    }

    #[test]
    fn merge_sums_counters_gauges_and_buckets() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("iotse_sim_c_total");
        let g = a.gauge("iotse_sim_g");
        let h = a.histogram("iotse_sim_h", &[10.0]);
        a.add(c, 3);
        a.set_gauge(g, 1.5);
        a.observe(h, 5.0);

        let mut b = MetricsRegistry::new();
        let c2 = b.counter("iotse_sim_c_total");
        let g2 = b.gauge("iotse_sim_g");
        let h2 = b.histogram("iotse_sim_h", &[10.0]);
        let only = b.counter("iotse_sim_only_total");
        b.add(c2, 4);
        b.set_gauge(g2, 2.5);
        b.observe(h2, 50.0);
        b.inc(only);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("iotse_sim_c_total"), Some(7));
        assert_eq!(merged.counter("iotse_sim_only_total"), Some(1));
        assert_eq!(merged.gauge("iotse_sim_g"), Some(4.0));
        let snap = &merged.histograms[0];
        assert_eq!(snap.counts, vec![1]);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.sum, 55.0);
        // names still sorted after inserts
        let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn histogram_lookup_by_name() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("iotse_sim_h_ms", &[1.0, 10.0]);
        reg.observe(h, 0.5);
        let report = reg.snapshot();
        assert_eq!(report.histogram("iotse_sim_h_ms").map(|s| s.count), Some(1));
        assert!(report.histogram("missing").is_none());
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("iotse_sim_h_ms", &[10.0, 20.0, 40.0]);
        for _ in 0..8 {
            reg.observe(h, 5.0); // first bucket (0, 10]
        }
        reg.observe(h, 15.0); // second bucket (10, 20]
        reg.observe(h, 30.0); // third bucket (20, 40]
        let snap = report_histogram(&reg);
        // Rank 5 of 10 → 5/8 through the (0, 10] bucket.
        assert_eq!(snap.quantile(0.5), Some(6.25));
        // Rank 9 → sole observation of (10, 20] → its upper bound.
        assert_eq!(snap.quantile(0.9), Some(20.0));
        // Rank 10 → sole observation of (20, 40] → its upper bound.
        assert_eq!(snap.quantile(1.0), Some(40.0));
        // Tiny q clamps to rank 1.
        assert_eq!(snap.quantile(0.0), Some(1.25));
    }

    #[test]
    fn quantile_overflow_clamps_to_last_bound() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("iotse_sim_h_ms", &[10.0]);
        reg.observe(h, 5.0);
        reg.observe(h, 999.0); // overflow — magnitude not retained
        let snap = report_histogram(&reg);
        assert_eq!(snap.quantile(1.0), Some(10.0));
    }

    #[test]
    fn quantile_rejects_empty_and_out_of_range() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("iotse_sim_h_ms", &[10.0]);
        let empty = report_histogram(&reg);
        assert_eq!(empty.quantile(0.5), None);
        reg.observe(h, 1.0);
        let snap = report_histogram(&reg);
        assert_eq!(snap.quantile(-0.1), None);
        assert_eq!(snap.quantile(1.1), None);
        assert_eq!(snap.quantile(f64::NAN), None);
    }

    fn report_histogram(reg: &MetricsRegistry) -> HistogramSnapshot {
        reg.snapshot().histograms[0].clone()
    }

    /// Pins the gauge merge contract: gauges *add* (they are per-run
    /// totals), they do not last-write-win or average. A fleet mean is
    /// `merged / runs`, computed by the caller.
    #[test]
    fn merge_gauges_add_not_overwrite() {
        let mut a = MetricsRegistry::new();
        let g = a.gauge("iotse_sim_total_uj");
        a.set_gauge(g, 10.0);
        let mut b = MetricsRegistry::new();
        let g2 = b.gauge("iotse_sim_total_uj");
        b.set_gauge(g2, 4.0);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged.gauge("iotse_sim_total_uj"), Some(18.0));
        // Order-independence: b+a folds to the same sum as a+b.
        let mut other = b.snapshot();
        other.merge(&a.snapshot());
        assert_eq!(other.gauge("iotse_sim_total_uj"), Some(14.0));
    }

    #[test]
    #[should_panic(expected = "bucket bounds differ")]
    fn merge_mismatched_histogram_bounds_panics() {
        let mut a = MetricsRegistry::new();
        a.histogram("iotse_sim_h_ms", &[1.0, 2.0]);
        let mut b = MetricsRegistry::new();
        b.histogram("iotse_sim_h_ms", &[1.0, 4.0]);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
    }

    #[test]
    fn merge_into_empty_copies_everything() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("iotse_sim_c_total");
        reg.inc(c);
        let mut empty = MetricsReport::default();
        assert!(empty.is_empty());
        empty.merge(&reg.snapshot());
        assert_eq!(empty.counter("iotse_sim_c_total"), Some(1));
        assert!(!empty.is_empty());
    }
}
