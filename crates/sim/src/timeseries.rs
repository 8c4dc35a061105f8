//! Fixed-capacity time series and streaming drift detection.
//!
//! The windowed-telemetry layer samples per-window scalars (energy per
//! routine, QoS slack, …) into [`TimeSeries`] buffers that are
//! **preallocated to the run's window count** — recording a point in the
//! executor's steady state never touches the allocator (lint rule
//! `IOTSE-H13` proves this structurally). On top of the stored points,
//! streaming detectors run *online in sim time*:
//!
//! * [`DriftDetector`] — an EWMA baseline plus a one-sided CUSUM score.
//!   Each window's value `x` updates the score
//!   `s ← max(0, s + (x − μ − k))` against the baseline `μ`; the detector
//!   fires when `s` exceeds `h`, where the slack `k` and threshold `h`
//!   scale with the baseline (`k_rel`, `h_rel`) plus an absolute
//!   [`DetectorConfig::floor`] so that tiny series cannot alarm on noise.
//!   The baseline only tracks `x` while the score is quiet, so a drifting
//!   series is measured against the pre-drift normal.
//! * [`BudgetWatchdog`] — a fixed per-window budget check.
//!
//! Both are **pure folds** over the series: detector state is a function
//! of the observed prefix alone (no clock, no RNG, no allocation), so
//! replaying a recorded series through a fresh detector reproduces the
//! alert stream exactly — the property tests pin this. Alerts are plain
//! [`Alert`] records stamped with the sim-time window boundary that
//! produced them, which makes the whole alert stream byte-stable across
//! runs and `--jobs` levels.

use std::fmt;

use crate::time::SimTime;

/// A bounded, append-only series of `(sim time, value)` points.
///
/// Capacity is fixed at construction; the buffer never grows. Points
/// pushed past the capacity are counted in [`TimeSeries::dropped`] rather
/// than stored, so a misconfigured recorder degrades to a counter instead
/// of reallocating on a hot path. Order is append order (monotone sim
/// time at every call site in this workspace).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: &'static str,
    points: Vec<(SimTime, f64)>,
    dropped: u64,
}

impl TimeSeries {
    /// Creates an empty series holding at most `capacity` points.
    #[must_use]
    pub fn with_capacity(name: &'static str, capacity: usize) -> Self {
        TimeSeries {
            name,
            // lint: one-time construction at scenario setup; the buffer
            // never grows afterwards (see `push`)
            points: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Appends a point, or counts it as dropped once the preallocated
    /// capacity is full. Never allocates.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if self.points.len() < self.points.capacity() {
            self.points.push((at, value));
        } else {
            self.dropped += 1;
        }
    }

    /// The series' static label.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The stored points, in append order.
    #[must_use]
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point has been stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points pushed after the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Left-to-right sum of the stored values — the exact fold the
    /// telescoped energy-stack recorder is tested against.
    #[must_use]
    pub fn fold_sum(&self) -> f64 {
        self.points.iter().fold(0.0, |acc, &(_, v)| acc + v)
    }
}

/// Tuning for one [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// EWMA weight of the newest sample in the baseline (`0 < alpha <= 1`).
    pub alpha: f64,
    /// Samples consumed to seed the baseline before scoring starts.
    pub warmup: u32,
    /// CUSUM slack as a fraction of the baseline magnitude.
    pub k_rel: f64,
    /// Alarm threshold as a multiple of the baseline magnitude.
    pub h_rel: f64,
    /// Absolute floor added to the alarm threshold, in series units. A
    /// relative-only threshold would let a near-zero baseline alarm on
    /// noise; the floor makes "drift" mean *both* statistically and
    /// absolutely significant.
    pub floor: f64,
}

impl Default for DetectorConfig {
    /// `alpha` 0.3, one warmup sample, `k` = 0.25 µ, `h` = 2 µ, no floor.
    fn default() -> Self {
        DetectorConfig {
            alpha: 0.3,
            warmup: 1,
            k_rel: 0.25,
            h_rel: 2.0,
            floor: 0.0,
        }
    }
}

/// Details of one drift alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drift {
    /// The CUSUM score that crossed the threshold.
    pub score: f64,
    /// The EWMA baseline at alarm time.
    pub baseline: f64,
    /// The sample that fired the alarm.
    pub observed: f64,
}

/// EWMA baseline + one-sided (upward) CUSUM drift detector.
///
/// State is three scalars folded over the input series; see the module
/// docs for the update rule and the purity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    cfg: DetectorConfig,
    baseline: f64,
    score: f64,
    seen: u32,
}

impl DriftDetector {
    /// A fresh detector with no observed samples.
    #[must_use]
    pub fn new(cfg: DetectorConfig) -> Self {
        DriftDetector {
            cfg,
            baseline: 0.0,
            score: 0.0,
            seen: 0,
        }
    }

    /// Folds one sample into the detector; returns the alarm, if any.
    ///
    /// On alarm the score resets (re-arming the detector) and the
    /// baseline is left untouched, so a one-window spike produces exactly
    /// one alert and the post-spike samples are judged against the
    /// pre-spike normal.
    pub fn update(&mut self, x: f64) -> Option<Drift> {
        if self.seen < self.cfg.warmup {
            self.baseline = if self.seen == 0 {
                x
            } else {
                self.cfg.alpha * x + (1.0 - self.cfg.alpha) * self.baseline
            };
            self.seen += 1;
            return None;
        }
        self.seen += 1;
        let scale = self.baseline.abs();
        let k = self.cfg.k_rel * scale;
        let h = self.cfg.h_rel * scale + self.cfg.floor;
        self.score = (self.score + (x - self.baseline - k)).max(0.0);
        if self.score > h {
            let fired = Drift {
                score: self.score,
                baseline: self.baseline,
                observed: x,
            };
            self.score = 0.0;
            return Some(fired);
        }
        self.baseline = self.cfg.alpha * x + (1.0 - self.cfg.alpha) * self.baseline;
        None
    }

    /// The current EWMA baseline.
    #[must_use]
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// The current CUSUM score.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }
}

/// Details of one budget breach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breach {
    /// The per-window value that exceeded the budget.
    pub observed: f64,
    /// The configured budget.
    pub budget: f64,
}

/// A per-window budget check: fires whenever a sample exceeds the budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetWatchdog {
    budget: f64,
}

impl BudgetWatchdog {
    /// A watchdog with a fixed per-window budget (series units).
    #[must_use]
    pub fn new(budget: f64) -> Self {
        BudgetWatchdog { budget }
    }

    /// Folds one sample; returns the breach, if any. Stateless beyond the
    /// budget itself, so trivially a pure fold.
    pub fn update(&mut self, x: f64) -> Option<Breach> {
        (x > self.budget).then_some(Breach {
            observed: x,
            budget: self.budget,
        })
    }

    /// The configured budget.
    #[must_use]
    pub fn budget(&self) -> f64 {
        self.budget
    }
}

/// What a telemetry [`Alert`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertKind {
    /// A [`DriftDetector`] alarm.
    Drift(Drift),
    /// A [`BudgetWatchdog`] breach.
    Budget(Breach),
}

/// One deterministic, sim-time-stamped telemetry alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// The window boundary (sim time) the alert was evaluated at.
    pub at: SimTime,
    /// Zero-based index of the window whose sample fired.
    pub window: u32,
    /// Static label of the series the detector watched.
    pub series: &'static str,
    /// Alarm details.
    pub kind: AlertKind,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AlertKind::Drift(d) => write!(
                f,
                "t={:.3}ms window={} {} drift: observed {:.3} vs baseline {:.3} (score {:.3})",
                self.at.as_millis_f64(),
                self.window,
                self.series,
                d.observed,
                d.baseline,
                d.score
            ),
            AlertKind::Budget(b) => write!(
                f,
                "t={:.3}ms window={} {} over budget: observed {:.3} vs budget {:.3}",
                self.at.as_millis_f64(),
                self.window,
                self.series,
                b.observed,
                b.budget
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_is_bounded_and_counts_drops() {
        let mut s = TimeSeries::with_capacity("iotse_sim_test_series", 2);
        assert!(s.is_empty());
        s.push(SimTime::from_millis(1), 1.0);
        s.push(SimTime::from_millis(2), 2.0);
        s.push(SimTime::from_millis(3), 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(
            s.points(),
            &[
                (SimTime::from_millis(1), 1.0),
                (SimTime::from_millis(2), 2.0),
            ]
        );
        assert_eq!(s.fold_sum(), 3.0);
        assert_eq!(s.name(), "iotse_sim_test_series");
    }

    #[test]
    fn series_capacity_never_grows() {
        let mut s = TimeSeries::with_capacity("iotse_sim_test_series", 3);
        let cap = s.points.capacity();
        for i in 0..100 {
            s.push(SimTime::from_millis(i), i as f64);
        }
        assert_eq!(s.points.capacity(), cap, "push must never reallocate");
        assert_eq!(s.dropped(), 97);
    }

    #[test]
    fn detector_is_quiet_on_a_flat_series() {
        let mut d = DriftDetector::new(DetectorConfig::default());
        for _ in 0..50 {
            assert!(d.update(100.0).is_none());
        }
        assert_eq!(d.baseline(), 100.0);
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn detector_fires_once_on_a_spike_and_rearms() {
        let mut d = DriftDetector::new(DetectorConfig::default());
        assert!(d.update(100.0).is_none()); // warmup
        assert!(d.update(100.0).is_none());
        let drift = d.update(100_000.0).expect("spike must alarm");
        assert_eq!(drift.observed, 100_000.0);
        assert_eq!(drift.baseline, 100.0);
        assert!(drift.score > 2.0 * 100.0);
        // Post-spike samples are judged against the pre-spike baseline.
        assert!(d.update(100.0).is_none());
        assert!(d.update(100.0).is_none());
        assert_eq!(d.baseline(), 100.0);
    }

    #[test]
    fn floor_suppresses_small_absolute_drift() {
        let cfg = DetectorConfig {
            floor: 1000.0,
            ..DetectorConfig::default()
        };
        let mut d = DriftDetector::new(cfg);
        // Warmup sets baseline 1.0; then an 80% relative jump whose
        // absolute size is far below the floor.
        assert!(d.update(1.0).is_none());
        for _ in 0..20 {
            assert!(d.update(1.8).is_none(), "sub-floor drift must stay quiet");
        }
        // The same relative jump at floor-dwarfing scale alarms.
        let mut big = DriftDetector::new(cfg);
        assert!(big.update(1.0e6).is_none());
        assert!(big.update(1.8e6).is_none(), "within h_rel of baseline");
        assert!(big.update(4.0e6).is_some(), "3x baseline must alarm");
    }

    #[test]
    fn detector_state_is_a_pure_fold() {
        let cfg = DetectorConfig {
            floor: 10.0,
            ..DetectorConfig::default()
        };
        // A deterministic but wiggly series.
        let series: Vec<f64> = (0..64)
            .map(|i| 100.0 + ((i * 37) % 17) as f64 + if i == 40 { 5000.0 } else { 0.0 })
            .collect();
        let mut live = DriftDetector::new(cfg);
        let live_alerts: Vec<Option<Drift>> = series.iter().map(|&x| live.update(x)).collect();
        let mut replay = DriftDetector::new(cfg);
        let replayed: Vec<Option<Drift>> = series.iter().map(|&x| replay.update(x)).collect();
        assert_eq!(live_alerts, replayed);
        assert_eq!(live, replay, "detector state must be a pure fold");
        assert_eq!(
            live_alerts.iter().flatten().count(),
            1,
            "exactly the injected spike alarms"
        );
    }

    #[test]
    fn watchdog_fires_above_budget_only() {
        let mut w = BudgetWatchdog::new(500.0);
        assert!(w.update(500.0).is_none(), "budget is inclusive");
        let breach = w.update(500.5).expect("over budget");
        assert_eq!(breach.budget, 500.0);
        assert_eq!(breach.observed, 500.5);
        assert_eq!(w.budget(), 500.0);
    }

    #[test]
    fn alerts_render_deterministically() {
        let a = Alert {
            at: SimTime::from_secs(2),
            window: 1,
            series: "iotse_energy_stack_interrupt_microjoules",
            kind: AlertKind::Drift(Drift {
                score: 3.5,
                baseline: 1.0,
                observed: 4.5,
            }),
        };
        assert_eq!(
            a.to_string(),
            "t=2000.000ms window=1 iotse_energy_stack_interrupt_microjoules drift: \
             observed 4.500 vs baseline 1.000 (score 3.500)"
        );
        let b = Alert {
            at: SimTime::from_secs(3),
            window: 2,
            series: "iotse_energy_stack_workload_total_microjoules",
            kind: AlertKind::Budget(Breach {
                observed: 7.0,
                budget: 5.0,
            }),
        };
        assert_eq!(
            b.to_string(),
            "t=3000.000ms window=2 iotse_energy_stack_workload_total_microjoules over budget: \
             observed 7.000 vs budget 5.000"
        );
    }
}
