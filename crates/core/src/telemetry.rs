//! Windowed telemetry: the executor's per-window signal path.
//!
//! When a scenario opts in ([`Scenario::with_telemetry`]), the executor
//! records, at every window boundary, the per-routine energy stack
//! ([`iotse_energy::stacks`]), and feeds every freshly closed window
//! through streaming detectors ([`iotse_sim::timeseries`]) *online, in
//! sim time*: one EWMA+CUSUM [`DriftDetector`] per routine plus an
//! optional energy-budget [`BudgetWatchdog`] over the workload total. The
//! result rides on [`RunResult::telemetry`] as a [`Telemetry`] payload.
//!
//! Each app's per-window latency/QoS series is not recorded a second
//! time: [`APP_SERIES`] derives it from the windows in
//! [`RunResult::apps`].
//!
//! Determinism contract (tested byte-for-byte): telemetry is **off means
//! off** — a run without `with_telemetry()` is bitwise identical to a
//! run on a build without this module (no extra events, no RNG draws, no
//! ledger changes). With telemetry on, every series point and every
//! alert is a pure function of the simulated execution, so the full
//! series + alert stream is byte-identical across repeated runs and
//! across `--jobs 1/4/8`. Alerts are reconstructible offline: folding
//! the recorded series through fresh detectors with the same
//! [`TelemetryConfig`] reproduces the alert stream exactly (the
//! property tests replay this).
//!
//! [`Scenario::with_telemetry`]: crate::executor::Scenario::with_telemetry
//! [`RunResult::telemetry`]: crate::result::RunResult::telemetry
//! [`RunResult::apps`]: crate::result::RunResult::apps

use iotse_energy::attribution::{EnergyLedger, Routine};
use iotse_energy::stacks::{
    stack_series_name, EnergyStacks, RecordedWindow, STACK_ROUTINES, WORKLOAD_TOTAL_SERIES,
};
use iotse_sim::time::{SimDuration, SimTime};
use iotse_sim::timeseries::{Alert, AlertKind, BudgetWatchdog, DetectorConfig, DriftDetector};

use crate::result::WindowOutcome;

/// One value of an app series, read from a completed window.
pub type WindowValue = fn(&WindowOutcome) -> f64;

/// The per-app series of a telemetry run, each a label and its value for
/// one completed window: QoS slack in ms (deadline − completion,
/// saturating at zero) and total processing time in ms. A series has one
/// point per [`WindowOutcome`] of an app, stamped at its completion.
pub const APP_SERIES: [(&str, WindowValue); 2] = [
    ("iotse_core_app_slack_ms", |w| w.slack().as_millis_f64()),
    ("iotse_core_app_processing_ms", |w| {
        w.processing.total().as_millis_f64()
    }),
];

/// Tuning for the executor's windowed telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Drift-detector tuning, shared by all five per-routine detectors.
    /// The [`DetectorConfig::floor`] is in µJ here.
    pub detector: DetectorConfig,
    /// Per-window workload-energy budget in µJ for the watchdog, or
    /// `None` (the default) to run without one.
    pub window_budget_uj: Option<f64>,
}

impl Default for TelemetryConfig {
    /// Default detectors with a 1 mJ absolute drift floor and no budget
    /// watchdog. The floor means "drift" requires at least a
    /// milli-joule-scale per-window shift — an interrupt storm against a
    /// deep-sleeping scheme clears it by three orders of magnitude,
    /// while the same storm absorbed by an already-active CPU (BEAM)
    /// stays under it.
    fn default() -> Self {
        TelemetryConfig {
            detector: DetectorConfig {
                floor: 1000.0,
                ..DetectorConfig::default()
            },
            window_budget_uj: None,
        }
    }
}

/// The windowed-telemetry payload carried on a `RunResult`.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// Per-routine windowed energy stacks (exact; see
    /// [`iotse_energy::stacks`]).
    pub stacks: EnergyStacks,
    /// Every alert the online detectors emitted, in evaluation order
    /// (window-major, [`Routine::ALL`] order within a window, watchdog
    /// last).
    pub alerts: Vec<Alert>,
    /// Detector/watchdog update calls made — the exact-gated bench
    /// counter for the telemetry section.
    pub detector_evals: u64,
}

impl Telemetry {
    /// Number of drift alerts.
    #[must_use]
    pub fn drift_alerts(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::Drift(_)))
            .count()
    }

    /// Number of budget-watchdog alerts.
    #[must_use]
    pub fn budget_alerts(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::Budget(_)))
            .count()
    }

    /// Whether any drift alert fired on `routine`'s energy series.
    #[must_use]
    pub fn routine_drifted(&self, routine: Routine) -> bool {
        let series = stack_series_name(routine);
        self.alerts
            .iter()
            .any(|a| a.series == series && matches!(a.kind, AlertKind::Drift(_)))
    }

    /// Drift-alert count per routine, [`Routine::ALL`] order.
    #[must_use]
    pub fn drift_counts(&self) -> [u64; STACK_ROUTINES] {
        let mut counts = [0u64; STACK_ROUTINES];
        for (i, routine) in Routine::ALL.iter().enumerate() {
            let series = stack_series_name(*routine);
            counts[i] = self
                .alerts
                .iter()
                .filter(|a| a.series == series && matches!(a.kind, AlertKind::Drift(_)))
                .count() as u64;
        }
        counts
    }
}

/// Live recording state inside the executor. Constructed at scenario
/// setup (all buffers preallocated), rolled at tick granularity, closed
/// into a [`Telemetry`] at book-closing time.
pub(crate) struct TelemetryState {
    stacks: EnergyStacks,
    detectors: [DriftDetector; STACK_ROUTINES],
    watchdog: Option<BudgetWatchdog>,
    alerts: Vec<Alert>,
    detector_evals: u64,
}

impl TelemetryState {
    /// Stacks on a `base` grid of `windows` windows.
    pub(crate) fn new(cfg: &TelemetryConfig, base: SimDuration, windows: u32) -> Self {
        // Each detector fires at most once per window, so this capacity
        // is exact and the alert buffer never grows on the hot path.
        let max_alerts = windows as usize * (STACK_ROUTINES + 1);
        TelemetryState {
            stacks: EnergyStacks::new(base, windows),
            detectors: std::array::from_fn(|_| DriftDetector::new(cfg.detector)),
            watchdog: cfg.window_budget_uj.map(BudgetWatchdog::new),
            // lint: one-time construction at scenario setup, sized to the
            // worst-case alert count (one per detector per window)
            alerts: Vec::with_capacity(max_alerts),
            detector_evals: 0,
        }
    }

    /// Records every window boundary at or before `now` and evaluates the
    /// detectors on each freshly closed window. Allocation-free; runs on
    /// the executor's tick hot path.
    // iotse-lint: hot-path
    pub(crate) fn roll(&mut self, now: SimTime, ledger: &EnergyLedger) {
        while let Some(rec) = self.stacks.try_roll(now, ledger) {
            self.evaluate(&rec);
        }
    }

    /// Force-closes every remaining window (the final one with the exact
    /// ulp residual) and seals the payload.
    pub(crate) fn close(mut self, ledger: &EnergyLedger) -> Telemetry {
        while let Some(rec) = self.stacks.try_close(ledger) {
            self.evaluate(&rec);
        }
        Telemetry {
            stacks: self.stacks,
            alerts: self.alerts,
            detector_evals: self.detector_evals,
        }
    }

    fn evaluate(&mut self, rec: &RecordedWindow) {
        for (i, routine) in Routine::ALL.iter().enumerate() {
            self.detector_evals += 1;
            if let Some(drift) = self.detectors[i].update(rec.stack[i]) {
                self.alerts.push(Alert {
                    at: rec.at,
                    window: rec.window,
                    // lint: runs only when a detector raises a drift alert
                    series: stack_series_name(*routine),
                    kind: AlertKind::Drift(drift),
                });
            }
        }
        if let Some(watchdog) = &mut self.watchdog {
            self.detector_evals += 1;
            if let Some(breach) = watchdog.update(rec.workload_total()) {
                self.alerts.push(Alert {
                    at: rec.at,
                    window: rec.window,
                    series: WORKLOAD_TOTAL_SERIES,
                    kind: AlertKind::Budget(breach),
                });
            }
        }
    }
}

impl std::fmt::Debug for TelemetryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryState")
            .field("recorded", &self.stacks.recorded())
            .field("alerts", &self.alerts.len())
            .field("detector_evals", &self.detector_evals)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_energy::attribution::Device;
    use iotse_energy::units::Energy;

    fn state(windows: u32, budget: Option<f64>) -> TelemetryState {
        let cfg = TelemetryConfig {
            window_budget_uj: budget,
            ..TelemetryConfig::default()
        };
        TelemetryState::new(&cfg, SimDuration::from_secs(1), windows)
    }

    #[test]
    fn storm_window_trips_the_interrupt_detector() {
        let mut ledger = EnergyLedger::new();
        let mut tel = state(4, None);
        // Window 0: quiet baseline (one 4 mJ wake).
        ledger.charge(
            Device::Cpu,
            Routine::Interrupt,
            Energy::from_millijoules(4.0),
        );
        tel.roll(SimTime::from_secs(1), &ledger);
        // Window 1: storm — 800 spurious wakes.
        ledger.charge(
            Device::Cpu,
            Routine::Interrupt,
            Energy::from_millijoules(800.0 * 4.0),
        );
        tel.roll(SimTime::from_secs(2), &ledger);
        // Windows 2–3: quiet again.
        ledger.charge(
            Device::Cpu,
            Routine::Interrupt,
            Energy::from_millijoules(4.0),
        );
        tel.roll(SimTime::from_secs(3), &ledger);
        let out = tel.close(&ledger);
        assert!(out.routine_drifted(Routine::Interrupt));
        assert_eq!(
            out.drift_alerts(),
            1,
            "one spike, one alert: {:?}",
            out.alerts
        );
        let alert = &out.alerts[0];
        assert_eq!(alert.window, 1);
        assert_eq!(alert.at, SimTime::from_secs(2));
        assert_eq!(alert.series, stack_series_name(Routine::Interrupt));
    }

    #[test]
    fn sub_floor_relative_drift_stays_quiet() {
        let mut ledger = EnergyLedger::new();
        let mut tel = state(4, None);
        // 250 µJ baseline, then an 80% relative bump of only 200 µJ —
        // well under the 1 mJ floor (the BEAM storm shape).
        ledger.charge(
            Device::Cpu,
            Routine::Interrupt,
            Energy::from_microjoules(250.0),
        );
        tel.roll(SimTime::from_secs(1), &ledger);
        ledger.charge(
            Device::Cpu,
            Routine::Interrupt,
            Energy::from_microjoules(450.0),
        );
        tel.roll(SimTime::from_secs(2), &ledger);
        ledger.charge(
            Device::Cpu,
            Routine::Interrupt,
            Energy::from_microjoules(250.0),
        );
        tel.roll(SimTime::from_secs(3), &ledger);
        let out = tel.close(&ledger);
        assert_eq!(out.drift_alerts(), 0, "{:?}", out.alerts);
    }

    #[test]
    fn watchdog_alerts_on_workload_budget() {
        let mut ledger = EnergyLedger::new();
        let mut tel = state(2, Some(100.0));
        ledger.charge(
            Device::Cpu,
            Routine::AppCompute,
            Energy::from_microjoules(50.0),
        );
        tel.roll(SimTime::from_secs(1), &ledger);
        ledger.charge(
            Device::Cpu,
            Routine::AppCompute,
            Energy::from_microjoules(150.0),
        );
        let out = tel.close(&ledger);
        assert_eq!(out.budget_alerts(), 1);
        assert_eq!(out.alerts[0].series, WORKLOAD_TOTAL_SERIES);
        assert_eq!(out.alerts[0].window, 1);
        // Idle energy must not count against the workload budget.
        assert_eq!(out.drift_alerts(), 0);
    }

    #[test]
    fn evals_and_points_count_exactly() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(Device::Cpu, Routine::Idle, Energy::from_microjoules(1.0));
        let tel = state(3, Some(1e9));
        let out = tel.close(&ledger);
        // 3 windows x (5 detectors + 1 watchdog).
        assert_eq!(out.detector_evals, 18);
        // 3 windows x 5 stack series.
        assert_eq!(out.stacks.points_recorded(), 15);
    }
}
