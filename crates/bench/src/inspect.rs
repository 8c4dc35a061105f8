//! The observability drill-down behind the `inspect` binary.
//!
//! One scenario, full instrumentation (spans, phase timelines and
//! telemetry), rendered in the format of your choice:
//!
//! * `chrome` — Chrome/Perfetto `trace_event` JSON ([`export::chrome_trace`]).
//! * `folded` — inferno-compatible collapsed energy stacks
//!   ([`iotse_energy::flame`]), pipe into a flamegraph renderer.
//! * `table` — the per-label self/total energy rollup in microjoules.
//! * `metrics` — the Prometheus text exposition ([`export::prometheus`]),
//!   derived from the finished run.
//! * `timeline` — Figure-5-style CPU/MCU power-state strips plus the span
//!   summary, for a terminal-only look at a run.
//!
//! Everything here is a pure function of the request, and the scenario runs
//! through the same [`Fleet`] as the experiment harness, so output is
//! byte-identical across repeated runs and `--jobs` levels (the determinism
//! tests and the CI gate diff these strings directly).
//!
//! [`export::chrome_trace`]: crate::export::chrome_trace
//! [`export::prometheus`]: crate::export::prometheus

use std::fmt::Write as _;

use iotse_core::runner::Fleet;
use iotse_core::{AppId, Calibration, RunResult, Scenario, Scheme};
use iotse_energy::flame;
use iotse_sim::faults::FaultScript;
use iotse_sim::time::SimTime;

use crate::export;
use crate::figures::fig05::{render_strip, Timeline};

/// Which rendering [`inspect`] should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InspectFormat {
    /// Chrome/Perfetto `trace_event` JSON.
    Chrome,
    /// Collapsed energy stacks (inferno `folded` format).
    Folded,
    /// Per-label self/total energy table.
    Table,
    /// Prometheus text exposition of the run's metrics.
    Metrics,
    /// Power-state strips + span summary, for terminals.
    Timeline,
    /// Per-window per-routine energy stack table (windowed telemetry).
    Stacks,
    /// The run's detector alert stream, one line per alert.
    Alerts,
    /// Raw dump of every recorded time series, one line per point.
    Series,
}

impl InspectFormat {
    /// Every format, in CLI listing order.
    pub const ALL: [InspectFormat; 8] = [
        InspectFormat::Chrome,
        InspectFormat::Folded,
        InspectFormat::Table,
        InspectFormat::Metrics,
        InspectFormat::Timeline,
        InspectFormat::Stacks,
        InspectFormat::Alerts,
        InspectFormat::Series,
    ];

    /// Parses a format name (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(name: &str) -> Result<InspectFormat, String> {
        match name.to_ascii_lowercase().as_str() {
            "chrome" => Ok(InspectFormat::Chrome),
            "folded" => Ok(InspectFormat::Folded),
            "table" => Ok(InspectFormat::Table),
            "metrics" => Ok(InspectFormat::Metrics),
            "timeline" => Ok(InspectFormat::Timeline),
            "stacks" => Ok(InspectFormat::Stacks),
            "alerts" => Ok(InspectFormat::Alerts),
            "series" => Ok(InspectFormat::Series),
            other => Err(format!(
                "unknown format '{other}' \
                 (chrome|folded|table|metrics|timeline|stacks|alerts|series)"
            )),
        }
    }

    /// The CLI name of this format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InspectFormat::Chrome => "chrome",
            InspectFormat::Folded => "folded",
            InspectFormat::Table => "table",
            InspectFormat::Metrics => "metrics",
            InspectFormat::Timeline => "timeline",
            InspectFormat::Stacks => "stacks",
            InspectFormat::Alerts => "alerts",
            InspectFormat::Series => "series",
        }
    }
}

/// One fully-instrumented scenario to run and render.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectRequest {
    /// The execution scheme.
    pub scheme: Scheme,
    /// The Table II apps to run together.
    pub apps: Vec<AppId>,
    /// Number of 1-second windows.
    pub windows: u32,
    /// The experiment seed.
    pub seed: u64,
    /// Fleet worker threads (output is identical at any level).
    pub jobs: usize,
    /// Fault scripts to inject (empty by default — a fair-weather run).
    pub faults: Vec<FaultScript>,
}

impl Default for InspectRequest {
    /// Batching × step counter, 4 windows, seed 42, one worker, no faults.
    fn default() -> Self {
        InspectRequest {
            scheme: Scheme::Batching,
            apps: vec![AppId::A2],
            windows: 4,
            seed: 42,
            jobs: 1,
            faults: Vec::new(),
        }
    }
}

/// Runs the request's scenario with spans, phase timelines and telemetry
/// all recording, through a [`Fleet`] of `jobs` workers.
#[must_use]
pub fn run(req: &InspectRequest) -> RunResult {
    let mut scenario = Scenario::new(req.scheme, iotse_apps::catalog::apps(&req.apps, req.seed))
        .windows(req.windows)
        .seed(req.seed)
        .with_trace()
        .with_timeline()
        .with_telemetry();
    if !req.faults.is_empty() {
        scenario = scenario.faults(req.faults.clone());
    }
    let mut results = Fleet::new(req.jobs).run(vec![scenario]);
    // The fleet returns one result per scenario (E04 does not apply to bench).
    results.pop().expect("one scenario in, one result out")
}

/// Renders an instrumented [`RunResult`] in `format`.
#[must_use]
pub fn render(result: &RunResult, format: InspectFormat) -> String {
    match format {
        InspectFormat::Chrome => export::chrome_trace(result, &Calibration::paper()),
        InspectFormat::Folded => flame::fold(&result.trace).folded(),
        InspectFormat::Table => flame::fold(&result.trace).table(),
        InspectFormat::Metrics => export::prometheus(result),
        InspectFormat::Timeline => render_timeline(result),
        InspectFormat::Stacks => render_stacks(result),
        InspectFormat::Alerts => render_alerts(result),
        InspectFormat::Series => render_series(result),
    }
}

/// Runs `req` and renders the result — the whole `inspect` binary in one
/// call, kept as a library function so tests can diff outputs without
/// spawning processes.
#[must_use]
pub fn inspect(req: &InspectRequest, format: InspectFormat) -> String {
    render(&run(req), format)
}

/// The `timeline` rendering: Figure-5-style strips plus the span summary
/// and energy rollup.
fn render_timeline(result: &RunResult) -> String {
    let mut out = String::new();
    let horizon = SimTime::ZERO + result.duration;
    let _ = writeln!(
        out,
        "{} seed={} over {}",
        result.scheme, result.seed, result.duration
    );
    let _ = writeln!(
        out,
        "legend: # busy, . idle-active, t transition, s sleep, z deep-sleep"
    );
    if let (Some(cpu), Some(mcu)) = (&result.cpu_timeline, &result.mcu_timeline) {
        let cpu: Timeline = cpu.iter().map(|&(t, p)| (t, p.name())).collect();
        let mcu: Timeline = mcu.iter().map(|&(t, p)| (t, p.name())).collect();
        let _ = writeln!(out, "CPU : {}", render_strip(&cpu, horizon, 100));
        let _ = writeln!(out, "MCU : {}", render_strip(&mcu, horizon, 100));
    }
    let s = result.trace.summary();
    let _ = writeln!(
        out,
        "spans: {} (depth {}), events: {}, attributed energy: {:.3} uJ",
        s.spans, s.max_depth, s.events, s.total_weight
    );
    out.push_str(&flame::fold(&result.trace).table());
    out
}

/// The `stacks` rendering: one row per window with the five routine
/// deltas (µJ), a workload column, and a totals footer that folds each
/// series — the footer equals the run's per-routine ledger totals bitwise.
fn render_stacks(result: &RunResult) -> String {
    use iotse_energy::attribution::Routine;

    let mut out = String::new();
    let Some(tel) = &result.telemetry else {
        let _ = writeln!(out, "telemetry not recorded (run with with_telemetry)");
        return out;
    };
    let stacks = &tel.stacks;
    let _ = writeln!(
        out,
        "windowed energy stacks (uJ) — {} seed={}, {} x {} windows",
        result.scheme,
        result.seed,
        stacks.windows(),
        stacks.base_window()
    );
    let _ = write!(out, "{:>6} {:>10}", "window", "t_ms");
    for &routine in &Routine::ALL {
        let _ = write!(out, " {:>16}", export::routine_key(routine));
    }
    let _ = writeln!(out, " {:>16}", "workload");
    let series = stacks.all_series();
    for w in 0..stacks.recorded() {
        let (at, _) = series[0].points()[w as usize];
        let _ = write!(out, "{:>6} {:>10.3}", w, at.as_millis_f64());
        let mut workload = 0.0;
        for (i, &routine) in Routine::ALL.iter().enumerate() {
            let v = series[i].points()[w as usize].1;
            if routine != Routine::Idle {
                workload += v;
            }
            let _ = write!(out, " {:>16.3}", v);
        }
        let _ = writeln!(out, " {:>16.3}", workload);
    }
    let _ = write!(out, "{:>6} {:>10}", "total", "");
    let mut workload = 0.0;
    for (i, &routine) in Routine::ALL.iter().enumerate() {
        let total = series[i].fold_sum();
        if routine != Routine::Idle {
            workload += total;
        }
        let _ = write!(out, " {:>16.3}", total);
    }
    let _ = writeln!(out, " {:>16.3}", workload);
    out
}

/// The `alerts` rendering: one line per detector alert, in evaluation
/// order, plus a count header.
fn render_alerts(result: &RunResult) -> String {
    let mut out = String::new();
    let Some(tel) = &result.telemetry else {
        let _ = writeln!(out, "telemetry not recorded (run with with_telemetry)");
        return out;
    };
    let _ = writeln!(
        out,
        "alerts — {} seed={}: {} ({} drift, {} budget) over {} detector evals",
        result.scheme,
        result.seed,
        tel.alerts.len(),
        tel.drift_alerts(),
        tel.budget_alerts(),
        tel.detector_evals
    );
    for alert in &tel.alerts {
        let _ = writeln!(out, "{alert}");
    }
    out
}

/// The `series` rendering: a raw dump of every telemetry time series —
/// stack series first ([`Routine::ALL`] order), then each app's
/// [`APP_SERIES`] read from its windows — one `t_ms value` line per
/// point.
///
/// [`APP_SERIES`]: iotse_core::telemetry::APP_SERIES
fn render_series(result: &RunResult) -> String {
    let mut out = String::new();
    let Some(tel) = &result.telemetry else {
        let _ = writeln!(out, "telemetry not recorded (run with with_telemetry)");
        return out;
    };
    for series in tel.stacks.all_series() {
        let _ = writeln!(
            out,
            "series {} points={} dropped={}",
            series.name(),
            series.len(),
            series.dropped()
        );
        for &(t, v) in series.points() {
            let _ = writeln!(out, "  {:.3} {v:.3}", t.as_millis_f64());
        }
    }
    for app in &result.apps {
        for (series, value) in iotse_core::telemetry::APP_SERIES {
            let points = app.windows.len();
            let _ = writeln!(
                out,
                "series {series} app={} points={points} dropped=0",
                app.name
            );
            for w in &app.windows {
                let t = w.completed_at.as_millis_f64();
                let _ = writeln!(out, "  {t:.3} {:.3}", value(w));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parsing_round_trips() {
        for f in InspectFormat::ALL {
            assert_eq!(InspectFormat::parse(f.name()).unwrap(), f);
            assert_eq!(
                InspectFormat::parse(&f.name().to_ascii_uppercase()).unwrap(),
                f
            );
        }
        assert!(InspectFormat::parse("svg").is_err());
    }

    #[test]
    fn every_format_renders_nonempty() {
        let req = InspectRequest {
            windows: 1,
            ..InspectRequest::default()
        };
        let result = run(&req);
        for f in InspectFormat::ALL {
            assert!(
                !render(&result, f).is_empty(),
                "{} rendered empty",
                f.name()
            );
        }
    }

    #[test]
    fn folded_energy_equals_ledger_total_exactly() {
        let result = run(&InspectRequest::default());
        let graph = flame::fold(&result.trace);
        assert_eq!(
            graph.total_microjoules(),
            result.total_energy().as_microjoules(),
            "span fold must reproduce the ledger bitwise"
        );
    }

    #[test]
    fn timeline_shows_strips_and_summary() {
        let text = inspect(
            &InspectRequest {
                windows: 1,
                ..InspectRequest::default()
            },
            InspectFormat::Timeline,
        );
        assert!(text.contains("CPU : "));
        assert!(text.contains("MCU : "));
        assert!(text.contains("spans: "));
        assert!(text.contains("iotse_core_run"));
    }
}
