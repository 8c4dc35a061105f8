//! Results of one scenario run.

use iotse_energy::attribution::{Breakdown, EnergyLedger};
use iotse_energy::monitor::PowerTrace;
use iotse_energy::units::{Energy, Power};
use iotse_sim::time::{SimDuration, SimTime};
use iotse_sim::trace::{FieldValue, Fields, TraceKind, TraceLog};

use crate::cpu::{CpuPhase, CpuStats};
use crate::mcu::{McuPhase, McuStats};
use crate::scheme::Scheme;
use crate::telemetry::APP_SERIES;
use crate::workload::{AppId, AppOutput};

/// Per-routine busy time (the Figure 8 stacked timing bars).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoutineDurations {
    /// Sensor data collection at the MCU.
    pub data_collection: SimDuration,
    /// Interrupt raising + handling.
    pub interrupt: SimDuration,
    /// MCU→CPU data movement.
    pub data_transfer: SimDuration,
    /// App-specific computation (CPU or MCU).
    pub app_compute: SimDuration,
}

impl RoutineDurations {
    /// Sum of the four routines — the "processing time" behind Figure 13's
    /// speedups.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.data_collection + self.interrupt + self.data_transfer + self.app_compute
    }
}

impl std::ops::Add for RoutineDurations {
    type Output = RoutineDurations;
    fn add(self, rhs: RoutineDurations) -> RoutineDurations {
        RoutineDurations {
            data_collection: self.data_collection + rhs.data_collection,
            interrupt: self.interrupt + rhs.interrupt,
            data_transfer: self.data_transfer + rhs.data_transfer,
            app_compute: self.app_compute + rhs.app_compute,
        }
    }
}

impl std::ops::AddAssign for RoutineDurations {
    fn add_assign(&mut self, rhs: RoutineDurations) {
        *self = *self + rhs;
    }
}

/// The effective data flow assigned to one app under a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppFlow {
    /// One interrupt + transfer per sample; compute on CPU.
    PerSample,
    /// Samples buffered at the MCU; one bulk transfer per window.
    Batched,
    /// Kernel runs at the MCU; only results transfer.
    Offloaded,
}

impl std::fmt::Display for AppFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AppFlow::PerSample => "per-sample",
            AppFlow::Batched => "batched",
            AppFlow::Offloaded => "offloaded",
        };
        f.write_str(s)
    }
}

/// One completed window of one app.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// Window index.
    pub window: u32,
    /// The kernel's output.
    pub output: AppOutput,
    /// When the output became available.
    pub completed_at: SimTime,
    /// The QoS deadline (end of the following window).
    pub deadline: SimTime,
    /// Per-routine busy time attributed to this window.
    pub processing: RoutineDurations,
}

impl WindowOutcome {
    /// `true` if the output met its QoS deadline.
    #[must_use]
    pub fn met_qos(&self) -> bool {
        self.completed_at <= self.deadline
    }

    /// How much earlier than the deadline the output arrived (zero when
    /// the deadline was missed).
    #[must_use]
    pub fn slack(&self) -> SimDuration {
        self.deadline.saturating_duration_since(self.completed_at)
    }
}

/// Everything one app did during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRunReport {
    /// Which Table II app.
    pub id: AppId,
    /// Its human name.
    pub name: String,
    /// The flow it was assigned.
    pub flow: AppFlow,
    /// One outcome per completed window.
    pub windows: Vec<WindowOutcome>,
}

impl AppRunReport {
    /// Mean per-window processing time (Figure 8/13 metric).
    #[must_use]
    pub fn mean_processing(&self) -> SimDuration {
        if self.windows.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self.windows.iter().map(|w| w.processing.total()).sum();
        total / self.windows.len() as u64
    }

    /// Mean per-routine processing breakdown.
    #[must_use]
    pub fn mean_routines(&self) -> RoutineDurations {
        if self.windows.is_empty() {
            return RoutineDurations::default();
        }
        let sum = self
            .windows
            .iter()
            .fold(RoutineDurations::default(), |acc, w| acc + w.processing);
        let n = self.windows.len() as u64;
        RoutineDurations {
            data_collection: sum.data_collection / n,
            interrupt: sum.interrupt / n,
            data_transfer: sum.data_transfer / n,
            app_compute: sum.app_compute / n,
        }
    }

    /// Number of windows that missed their QoS deadline.
    #[must_use]
    pub fn qos_violations(&self) -> usize {
        self.windows.iter().filter(|w| !w.met_qos()).count()
    }
}

/// The result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The scheme that ran.
    pub scheme: Scheme,
    /// The experiment seed.
    pub seed: u64,
    /// Scenario length.
    pub duration: SimDuration,
    /// The full energy ledger.
    pub ledger: EnergyLedger,
    /// CPU statistics.
    pub cpu: CpuStats,
    /// MCU statistics.
    pub mcu: McuStats,
    /// Simulation events the engine executed to produce this run — a
    /// deterministic proxy for executor work (the bench suite gates on it;
    /// see `benches/baseline.json`).
    pub events_executed: u64,
    /// MCU→CPU interrupts raised.
    pub interrupts: u64,
    /// Sensor reads performed.
    pub sensor_reads: u64,
    /// Payload bytes moved MCU→CPU.
    pub bytes_transferred: u64,
    /// What the fault plan actually did (all-zero unless the scenario ran
    /// with [`Scenario::faults`](crate::executor::Scenario::faults)).
    pub faults: iotse_sim::faults::FaultStats,
    /// Per-app reports.
    pub apps: Vec<AppRunReport>,
    /// CPU phase timeline, if recording was enabled.
    pub cpu_timeline: Option<Vec<(SimTime, CpuPhase)>>,
    /// MCU phase timeline, if recording was enabled.
    pub mcu_timeline: Option<Vec<(SimTime, McuPhase)>>,
    /// Windowed telemetry — per-routine energy stacks and the
    /// streaming-detector alert stream (`None` unless the scenario ran with
    /// [`Scenario::with_telemetry`](crate::executor::Scenario::with_telemetry)).
    pub telemetry: Option<crate::telemetry::Telemetry>,
    /// The structured execution trace (empty unless the scenario ran with
    /// [`Scenario::with_trace`](crate::executor::Scenario::with_trace)).
    pub trace: iotse_sim::trace::TraceLog,
}

impl RunResult {
    /// Total energy over the whole run (all devices, all routines).
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.ledger.total()
    }

    /// The four-routine breakdown (one stacked bar).
    #[must_use]
    pub fn breakdown(&self) -> Breakdown {
        self.ledger.breakdown()
    }

    /// Average power over the run.
    ///
    /// # Panics
    ///
    /// Panics if the run had zero duration.
    #[must_use]
    pub fn average_power(&self) -> iotse_energy::units::Power {
        self.total_energy().over(self.duration)
    }

    /// Fractional energy saving relative to `baseline` (0.52 = "52% less
    /// energy than baseline").
    #[must_use]
    pub fn savings_vs(&self, baseline: &RunResult) -> f64 {
        1.0 - self.total_energy().ratio_of(baseline.total_energy())
    }

    /// The report for app `id`, if it ran.
    #[must_use]
    pub fn app(&self, id: AppId) -> Option<&AppRunReport> {
        self.apps.iter().find(|a| a.id == id)
    }

    /// Figure 13 speedup of this run relative to `baseline` for app `id`
    /// (ratio of mean per-window processing times).
    ///
    /// Returns `None` if the app is missing from either run or has no
    /// completed window.
    #[must_use]
    pub fn speedup_vs(&self, baseline: &RunResult, id: AppId) -> Option<f64> {
        let ours = self.app(id)?.mean_processing().as_secs_f64();
        let base = baseline.app(id)?.mean_processing().as_secs_f64();
        (ours > 0.0).then(|| base / ours)
    }

    /// Total QoS violations across apps.
    #[must_use]
    pub fn qos_violations(&self) -> usize {
        self.apps.iter().map(AppRunReport::qos_violations).sum()
    }

    /// Completed windows across apps.
    #[must_use]
    pub fn windows_completed(&self) -> usize {
        self.apps.iter().map(|a| a.windows.len()).sum()
    }

    /// Stored telemetry series points: the energy stacks' plus one per
    /// completed window in each of the [`APP_SERIES`] (`None` unless the
    /// scenario ran with
    /// [`Scenario::with_telemetry`](crate::executor::Scenario::with_telemetry)).
    #[must_use]
    pub fn telemetry_points(&self) -> Option<u64> {
        let stacks = self.telemetry.as_ref()?.stacks.points_recorded();
        Some(stacks + (APP_SERIES.len() * self.windows_completed()) as u64)
    }

    /// Payload bytes of each MCU→CPU transfer, in trace order: the `bytes`
    /// field of every `iotse_core_transfer` span (empty unless the scenario
    /// ran with [`Scenario::with_trace`](crate::executor::Scenario::with_trace)).
    pub fn transfer_sizes(&self) -> impl Iterator<Item = u64> + '_ {
        let trace = &self.trace;
        trace
            .spans()
            .iter()
            .filter(|s| s.kind == TraceKind::DataTransfer)
            .filter(|s| trace.label(s.label) == "iotse_core_transfer")
            .filter_map(|s| match field(trace, s.fields, "bytes") {
                Some(FieldValue::U64(bytes)) => Some(bytes),
                _ => None,
            })
    }

    /// QoS slack in ms of each completed window, in completion order: the
    /// `deadline` of every QoS event less the event's time, zero when the
    /// deadline was missed (empty unless the scenario ran with
    /// [`Scenario::with_trace`](crate::executor::Scenario::with_trace)).
    pub fn qos_slack_ms(&self) -> impl Iterator<Item = f64> + '_ {
        let trace = &self.trace;
        trace
            .of_kind(TraceKind::Qos)
            .filter_map(|e| match field(trace, e.fields, "deadline") {
                Some(FieldValue::Time(deadline)) => {
                    Some(deadline.saturating_duration_since(e.time).as_millis_f64())
                }
                _ => None,
            })
    }

    /// Reconstructs the hub's total-power waveform (CPU + MCU envelope)
    /// from the recorded phase timelines — what the paper's Monsoon
    /// monitor would have seen. Returns `None` unless the scenario ran
    /// with [`Scenario::with_timeline`](crate::executor::Scenario::with_timeline).
    #[must_use]
    pub fn power_trace(&self, cal: &crate::calibration::Calibration) -> Option<PowerTrace> {
        let cpu = self.cpu_timeline.as_deref()?;
        let mcu = self.mcu_timeline.as_deref()?;
        let cpu_power = |phase: CpuPhase| -> Power {
            match phase {
                CpuPhase::Busy | CpuPhase::IdleActive => cal.cpu_active,
                CpuPhase::Transition => cal.cpu_transition_power,
                CpuPhase::Sleep => cal.cpu_sleep,
                CpuPhase::DeepSleep => cal.cpu_deep_sleep,
            }
        };
        let mcu_power = |phase: McuPhase| -> Power {
            match phase {
                McuPhase::Busy => cal.mcu_active,
                McuPhase::Idle => cal.mcu_idle,
                McuPhase::Sleep => cal.mcu_sleep,
            }
        };
        let mut events: Vec<(SimTime, bool, usize)> = Vec::with_capacity(cpu.len() + mcu.len());
        events.extend(cpu.iter().enumerate().map(|(i, &(t, _))| (t, true, i)));
        events.extend(mcu.iter().enumerate().map(|(i, &(t, _))| (t, false, i)));
        events.sort_by_key(|&(t, _, _)| t);
        let mut cpu_p = cpu_power(cpu.first()?.1);
        let mut mcu_p = mcu_power(mcu.first()?.1);
        let mut trace = PowerTrace::new(SimTime::ZERO, cpu_p + mcu_p);
        for (t, is_cpu, idx) in events {
            if is_cpu {
                cpu_p = cpu_power(cpu[idx].1);
            } else {
                mcu_p = mcu_power(mcu[idx].1);
            }
            trace.set(t, cpu_p + mcu_p);
        }
        trace.finish(SimTime::ZERO + self.duration);
        Some(trace)
    }
}

/// The value of the field `name` among `fields` of `trace`.
fn field(trace: &TraceLog, fields: Fields, name: &str) -> Option<FieldValue> {
    trace
        .fields(fields)
        .iter()
        .find(|&&(label, _)| trace.label(label) == name)
        .map(|&(_, value)| value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(window: u32, completed_ms: u64, deadline_ms: u64) -> WindowOutcome {
        WindowOutcome {
            window,
            output: AppOutput::Steps(2),
            completed_at: SimTime::from_millis(completed_ms),
            deadline: SimTime::from_millis(deadline_ms),
            processing: RoutineDurations {
                data_collection: SimDuration::from_millis(100),
                interrupt: SimDuration::from_millis(48),
                data_transfer: SimDuration::from_millis(192),
                app_compute: SimDuration::from_micros(2_210),
            },
        }
    }

    #[test]
    fn routine_durations_sum_like_figure8() {
        let p = outcome(0, 500, 2000).processing;
        // 100 + 48 + 192 + 2.21 ≈ 342.21 ms — the paper's Baseline bar.
        assert!((p.total().as_secs_f64() * 1e3 - 342.21).abs() < 0.01);
        let doubled = p + p;
        assert_eq!(doubled.interrupt, SimDuration::from_millis(96));
    }

    #[test]
    fn qos_is_deadline_inclusive() {
        assert!(outcome(0, 2000, 2000).met_qos());
        assert!(!outcome(0, 2001, 2000).met_qos());
    }

    #[test]
    fn slack_measures_headroom_and_clamps_at_zero() {
        assert_eq!(
            outcome(0, 1500, 2000).slack(),
            SimDuration::from_millis(500)
        );
        assert_eq!(outcome(0, 2500, 2000).slack(), SimDuration::ZERO);
    }

    #[test]
    fn app_report_means() {
        let report = AppRunReport {
            id: AppId::A2,
            name: "Step counter".into(),
            flow: AppFlow::PerSample,
            windows: vec![
                outcome(0, 1000, 2000),
                outcome(1, 2100, 3000),
                outcome(2, 5000, 4000),
            ],
        };
        assert_eq!(report.qos_violations(), 1);
        let mean = report.mean_processing();
        assert!((mean.as_secs_f64() * 1e3 - 342.21).abs() < 0.01);
        assert_eq!(
            report.mean_routines().interrupt,
            SimDuration::from_millis(48)
        );
    }

    #[test]
    fn empty_report_is_zero() {
        let report = AppRunReport {
            id: AppId::A9,
            name: "JPEG".into(),
            flow: AppFlow::Offloaded,
            windows: vec![],
        };
        assert_eq!(report.mean_processing(), SimDuration::ZERO);
        assert_eq!(report.qos_violations(), 0);
    }

    #[test]
    fn flow_display() {
        assert_eq!(AppFlow::PerSample.to_string(), "per-sample");
        assert_eq!(AppFlow::Offloaded.to_string(), "offloaded");
    }
}
