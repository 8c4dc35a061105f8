//! The deterministic microbenchmark suite behind the `bench` binary.
//!
//! Ten sections, mirroring the questions the ROADMAP's "fast as the
//! hardware allows" goal keeps asking:
//!
//! * **executor** — full-scenario event throughput per scheme (the
//!   `figures`-equivalent load: real Table II apps through the real
//!   executor).
//! * **queue** — raw event-engine schedule+drain throughput of dense
//!   periodic ticks at 1k/100k/1M pending events (see `iotse_sim::queue`),
//!   buffered as one batch and generated as one run, with the fired-event
//!   count gated exactly.
//! * **kernel** — per-kernel runtime of all eleven Table 2 workloads,
//!   computing over a real sensor window sampled from [`PhysicalWorld`].
//! * **fleet** — scaling of the scenario fleet at 1/2/4/8 worker threads.
//! * **overhead** — the cost of full observability (trace and timelines)
//!   against a bare run of the same scenario.
//! * **compute_cache** — the five-scheme fleet over the two heaviest
//!   memoizable kernels (A4 JPEG, A9 DTW) from a cleared compute cache,
//!   cache on vs off, with deterministic hit/miss counters.
//! * **robustness** — the suite scenario under the committed demo fault
//!   scripts, per scheme, with exact-gated fault counters
//!   (`faults_injected`, `samples_dropped`, `bytes_corrupted`).
//! * **telemetry** — the suite scenario per scheme with windowed
//!   telemetry on under the demo faults, with exact-gated telemetry
//!   counters (`alerts_fired`, `series_points`, `detector_evals`); the
//!   `overhead` section's `telemetry` case prices the recording path's
//!   wall time.
//! * **scenarios** — the committed `scenarios/` corpus swept on a jobs-1
//!   fleet, with exact-gated grading counters (`scenarios_run`,
//!   `expectations_evaluated`, `expectations_failed` — the last pinned at
//!   0: a failing committed scenario is a regression by definition).
//! * **figures** — every target of `figures all` then `figures sweeps` at
//!   the quick configuration through one run memo, with exact-gated
//!   `scenarios_run` (scenarios actually run) and `cache_hits` (results
//!   the memo replayed).
//!
//! Every case reports the deterministic cost counters of [`crate::report`]
//! plus one advisory wall-time sample. Heap counting needs the `bench`
//! binary's `GlobalAlloc` wrapper, which cannot live in this
//! `#![forbid(unsafe_code)]` library — so [`run_suite`] takes the counter
//! as a *probe* closure and stays fully testable without it. [`check`]
//! gates a run against a committed baseline, and refuses a baseline it
//! cannot gate before any case runs.

use std::collections::BTreeMap;

use iotse_apps::catalog;
use iotse_core::runner::Fleet;
use iotse_core::scenario_spec::{run_spec, ScenarioSpec, SpecReport};
use iotse_core::workload::{WindowData, Workload};
use iotse_core::{AppId, RunResult, Scenario, Scheme};
use iotse_sensors::world::{PhysicalWorld, WorldConfig};
use iotse_sim::engine::{Engine, RunOutcome};
use iotse_sim::rng::SeedTree;
use iotse_sim::time::{SimDuration, SimTime};

use crate::report::{BenchEntry, BenchReport, Counters};
use crate::stopwatch;

/// The seed every suite case runs under.
pub const SUITE_SEED: u64 = 42;
/// Windows per scenario case — small enough for CI, large enough to hit
/// every flush/complete path.
pub const SUITE_WINDOWS: u32 = 2;
/// Fleet rungs measured by the `fleet` section.
pub const FLEET_RUNGS: [usize; 4] = [1, 2, 4, 8];
/// The app pair used by scenario cases (shares a sensor under BEAM).
pub const SUITE_APPS: [AppId; 2] = [AppId::A2, AppId::A7];
/// The app pair behind the `compute_cache` section: the two heaviest
/// memoizable Table 2 kernels, where cross-scheme reuse pays most.
pub const CACHE_APPS: [AppId; 2] = [AppId::A4, AppId::A9];
/// Pending-event rungs measured by the `queue` section.
pub const QUEUE_RUNGS: [(usize, &str); 3] = [
    (1_000, "pending-1k"),
    (100_000, "pending-100k"),
    (1_000_000, "pending-1m"),
];
/// Devices sharing each tick instant in the `queue` section — same-instant
/// ties exercise the engine's batched same-tick drain.
const QUEUE_DEVICES: usize = 4;
/// The cases a full baseline must carry: the scratch-engine kernels, whose
/// zero-alloc steady state only the exact alloc gate holds.
pub const REQUIRED_CASES: [&str; 2] = ["kernel/A4/kernel", "kernel/A9/kernel"];

/// Adds the deterministic counters of one scenario run to `out`.
fn record_run(out: &mut Counters, result: &RunResult) {
    let (alerts_fired, detector_evals) = result
        .telemetry
        .as_ref()
        .map_or((0, 0), |t| (t.alerts.len() as u64, t.detector_evals));
    let series_points = result.telemetry_points().unwrap_or(0);
    for (name, v) in [
        ("events", result.events_executed),
        ("bus_bytes", result.bytes_transferred),
        ("faults_injected", result.faults.faults_injected),
        ("samples_dropped", result.faults.samples_dropped),
        ("bytes_corrupted", result.faults.bytes_corrupted),
        ("alerts_fired", alerts_fired),
        ("series_points", series_points),
        ("detector_evals", detector_evals),
    ] {
        out.add(name, v);
    }
}

/// One benchmarkable case.
pub struct Case {
    /// Suite section (`executor`, `queue`, `kernel`, `fleet`, `overhead`,
    /// `compute_cache`, `robustness`, `telemetry`, `scenarios`, `figures`).
    pub section: &'static str,
    /// Workload label.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// `true` if the case runs entirely on the calling thread, so heap
    /// counting is deterministic. Multi-threaded cases record 0 allocations
    /// (worker-thread interleaving would make the count racy).
    pub count_allocs: bool,
    /// Runs the case once, adding its deterministic counters to an empty
    /// map (one with room reserved on the counted run, so recording them
    /// allocates nothing).
    pub run: Box<dyn FnMut(&mut Counters)>,
}

impl Case {
    /// Runs the case once and returns its deterministic counters.
    pub fn counters(&mut self) -> Counters {
        let mut out = Counters::default();
        (self.run)(&mut out);
        out
    }
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Case")
            .field("section", &self.section)
            .field("workload", &self.workload)
            .field("scheme", &self.scheme)
            .field("count_allocs", &self.count_allocs)
            .finish()
    }
}

fn scenario(scheme: Scheme) -> Scenario {
    Scenario::new(scheme, catalog::apps(&SUITE_APPS, SUITE_SEED))
        .windows(SUITE_WINDOWS)
        .seed(SUITE_SEED)
}

/// Samples one real window of `app`'s sensors from a fresh world — the
/// input the kernel cases compute over (same acquisition the executor
/// would do, minus the energy accounting).
fn window_input(app: &dyn Workload, seed: u64) -> WindowData {
    let seeds = SeedTree::new(seed);
    let mut world = PhysicalWorld::new(&seeds, WorldConfig::default());
    let window = app.window();
    let start = SimTime::ZERO;
    let mut data = WindowData {
        window: 0,
        start,
        end: start + window,
        samples: BTreeMap::new(),
    };
    for u in app.sensors() {
        let interval = window / u64::from(u.samples_per_window);
        for i in 0..u.samples_per_window {
            let t = start + interval * u64::from(i);
            let Ok(s) = world.read(u.sensor, t);
            data.samples.entry(s.sensor).or_default().push(s);
        }
    }
    data
}

/// Builds every suite case, in report order.
#[must_use]
pub fn cases() -> Vec<Case> {
    let mut out = Vec::new();

    // (a) Executor event throughput per scheme.
    for scheme in Scheme::ALL {
        out.push(Case {
            section: "executor",
            workload: "A2+A7".into(),
            scheme: scheme.to_string().to_ascii_lowercase(),
            count_allocs: true,
            run: Box::new(move |out| record_run(out, &scenario(scheme).run())),
        });
    }

    // (b) Raw event-engine throughput: schedule + drain n periodic ticks
    // (QUEUE_DEVICES per instant, 1 ms apart — the paper's dominant
    // traffic shape). The engine drains to empty, so `events` is exactly n
    // and the baseline gates it bitwise. Each rung runs twice: `engine`
    // buffers the ticks as one batch, `generated` schedules them as one
    // generated run, whose allocations are the same at every rung.
    fn queue_tick(fired: &mut u64, _: &mut Engine<u64>, _: u64, _: u64) {
        *fired += 1;
    }
    for (n, label) in QUEUE_RUNGS {
        for scheme in ["engine", "generated"] {
            out.push(Case {
                section: "queue",
                workload: label.into(),
                scheme: scheme.into(),
                count_allocs: true,
                run: Box::new(move |out| {
                    let ticks = (0..n).map(|i| {
                        let t = SimTime::ZERO
                            + SimDuration::from_micros(1_000) * ((i / QUEUE_DEVICES) as u64);
                        (t, i as u64, 0)
                    });
                    let mut engine: Engine<u64> = Engine::new();
                    if scheme == "generated" {
                        engine.schedule_call_run("bench_tick", queue_tick, n, ticks);
                    } else {
                        engine.schedule_call_batch("bench_tick", queue_tick, ticks);
                    }
                    let mut fired = 0u64;
                    let outcome = engine.run(&mut fired);
                    assert!(matches!(outcome, RunOutcome::Drained));
                    assert_eq!(fired, n as u64, "queue case lost events");
                    out.add("events", engine.events_executed());
                }),
            });
        }
    }

    // (c) Per-kernel runtimes for all eleven Table 2 workloads.
    for id in AppId::ALL {
        let mut app = catalog::app(id, SUITE_SEED);
        let input = window_input(app.as_ref(), SUITE_SEED);
        out.push(Case {
            section: "kernel",
            workload: id.to_string(),
            scheme: "kernel".into(),
            count_allocs: true,
            run: Box::new(move |_| {
                std::hint::black_box(app.compute(&input));
            }),
        });
    }

    // (d) Fleet scaling: the five-scheme scenario set across worker counts.
    for jobs in FLEET_RUNGS {
        out.push(Case {
            section: "fleet",
            workload: "5-schemes-A2+A7".into(),
            scheme: format!("jobs-{jobs}"),
            count_allocs: jobs == 1, // Fleet(1) runs on the calling thread
            run: Box::new(move |out| {
                let scenarios: Vec<Scenario> = Scheme::ALL.iter().map(|&s| scenario(s)).collect();
                for r in &Fleet::new(jobs).run(scenarios) {
                    record_run(out, r);
                }
            }),
        });
    }

    // (e) Instrumentation overhead: bare vs. fully-observed run, plus the
    // telemetry layer alone — its wall cost is the advisory price of the
    // windowed recording path.
    #[derive(Clone, Copy)]
    enum Instrumentation {
        Bare,
        Full,
        Telemetry,
    }
    for (label, mode) in [
        ("bare", Instrumentation::Bare),
        ("instrumented", Instrumentation::Full),
        ("telemetry", Instrumentation::Telemetry),
    ] {
        out.push(Case {
            section: "overhead",
            workload: "A2+A7@batching".into(),
            scheme: label.into(),
            count_allocs: true,
            run: Box::new(move |out| {
                let s = match mode {
                    Instrumentation::Bare => scenario(Scheme::Batching),
                    Instrumentation::Full => {
                        scenario(Scheme::Batching).with_trace().with_timeline()
                    }
                    Instrumentation::Telemetry => scenario(Scheme::Batching).with_telemetry(),
                };
                record_run(out, &s.run());
            }),
        });
    }

    // (f) Cross-scheme memoization: the five-scheme fleet over the two
    // heaviest memoizable kernels, always from a cleared compute cache so
    // the hit/miss counters are a pure function of the scenario set.
    for (label, cached) in [("on", true), ("off", false)] {
        out.push(Case {
            section: "compute_cache",
            workload: "5-schemes-A4+A9".into(),
            scheme: label.into(),
            count_allocs: true,
            run: Box::new(move |out| {
                iotse_core::compute_cache::clear();
                let scenarios: Vec<Scenario> = Scheme::ALL
                    .iter()
                    .map(|&s| {
                        let s = Scenario::new(s, catalog::apps(&CACHE_APPS, SUITE_SEED))
                            .windows(SUITE_WINDOWS)
                            .seed(SUITE_SEED);
                        if cached {
                            s
                        } else {
                            s.without_compute_cache()
                        }
                    })
                    .collect();
                for r in &Fleet::new(1).run(scenarios) {
                    record_run(out, r);
                }
                let stats = iotse_core::compute_cache::stats();
                out.add("cache_hits", stats.hits);
                out.add("cache_misses", stats.misses);
            }),
        });
    }

    // (g) Robustness: the suite scenario per scheme under the committed
    // demo fault scripts (every fault kind fires). The fault counters are
    // a pure replay of the seeded plan, so the baseline gates them exactly.
    for scheme in Scheme::ALL {
        out.push(Case {
            section: "robustness",
            workload: "A2+A7@demo-faults".into(),
            scheme: scheme.to_string().to_ascii_lowercase(),
            count_allocs: true,
            run: Box::new(move |out| {
                record_run(
                    out,
                    &scenario(scheme)
                        .faults(iotse_core::robustness::demo_scripts())
                        .run(),
                );
            }),
        });
    }

    // (h) Windowed telemetry: the suite scenario per scheme with telemetry
    // on and the demo fault scripts injected, so the interrupt-storm window
    // exercises the CUSUM detectors. Alerts, points and evals are pure
    // folds over the deterministic series — the baseline gates them exactly
    // (COM/BCOM fire on the storm, BEAM stays quiet; see EXPERIMENTS.md).
    for scheme in Scheme::ALL {
        out.push(Case {
            section: "telemetry",
            workload: "A2+A7@demo-faults".into(),
            scheme: scheme.to_string().to_ascii_lowercase(),
            count_allocs: true,
            run: Box::new(move |out| {
                record_run(
                    out,
                    &scenario(scheme)
                        .with_telemetry()
                        .faults(iotse_core::robustness::demo_scripts())
                        .run(),
                );
            }),
        });
    }

    // (i) Scenario corpus: every committed scenarios/*.toml graded on a
    // jobs-1 fleet. The counters are a pure function of the corpus and the
    // model, so the baseline gates them exactly — a scenario that starts
    // failing its own expectations moves expectations_failed off 0 and
    // trips the gate even before the CI `scenarios` job runs. The files
    // are read here, outside the counted run, and each run starts from
    // cleared caches, so its allocations depend neither on the checkout
    // path nor on the sections that ran before it.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let corpus: Vec<String> = crate::scenario::corpus_files(&dir)
        .expect("scenario corpus")
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable scenario file"))
        .collect();
    out.push(Case {
        section: "scenarios",
        workload: "corpus".into(),
        scheme: "check".into(),
        count_allocs: true,
        run: Box::new(move |out| {
            iotse_core::compute_cache::clear();
            iotse_sensors::signal::cache::clear();
            let reports: Vec<SpecReport> = corpus
                .iter()
                .map(|text| {
                    let spec = ScenarioSpec::parse(text).expect("committed scenario parses");
                    run_spec(&spec, &catalog::app, 1)
                })
                .collect();
            let c = crate::scenario::counters(&reports);
            out.add("scenarios_run", c.scenarios_run);
            out.add("expectations_evaluated", c.expectations_evaluated);
            out.add("expectations_failed", c.expectations_failed);
        }),
    });

    // (j) The figures command: every target of `figures all` then
    // `figures sweeps` at the quick configuration, rendered through one
    // fresh configuration, so its run memo spans the targets as one
    // invocation's does. `scenarios_run` counts the scenarios run and
    // `cache_hits` the results the memo replayed; repeats are found before
    // dispatch, so neither depends on the fleet's width.
    out.push(Case {
        section: "figures",
        workload: "all+sweeps".into(),
        scheme: "quick".into(),
        count_allocs: true,
        run: Box::new(|out| {
            let cfg = crate::config::ExperimentConfig::quick();
            for target in crate::targets::ALL
                .into_iter()
                .chain(crate::targets::SWEEPS)
            {
                std::hint::black_box(crate::targets::render(target, &cfg, false));
            }
            let memo = cfg.memo.stats();
            out.add("scenarios_run", memo.misses);
            out.add("cache_hits", memo.hits);
        }),
    });

    out
}

/// Runs every case, or only `section`'s, and assembles the report.
///
/// `probe` returns the process's cumulative `(allocations, bytes)` — the
/// `bench` binary wires its counting allocator in here; tests may pass a
/// constant probe (alloc columns then read 0). Each case runs twice: a
/// warm run, which fills the caches and is the counter source, then a
/// counted run, which is timed once and, when the case counts
/// allocations, brackets the probe.
///
/// # Panics
///
/// Panics if a case's two runs disagree on the deterministic counters —
/// that would mean the simulator itself lost determinism, and no report
/// should be written from such a build.
#[must_use]
pub fn run_suite(probe: &dyn Fn() -> (u64, u64), section: Option<&str>) -> BenchReport {
    let mut report = BenchReport::new();
    for mut case in cases()
        .into_iter()
        .filter(|c| section.is_none_or(|s| c.section == s))
    {
        let mut counters = case.counters();
        let mut counted = Counters::with_capacity(counters.iter().count());
        let (a0, b0) = probe();
        let ((), wall) = stopwatch::time(|| (case.run)(&mut counted));
        let (a1, b1) = probe();
        assert_eq!(
            counted, counters,
            "{}/{}/{}: counters drifted between runs",
            case.section, case.workload, case.scheme
        );
        if case.count_allocs {
            counters.add("allocs", a1 - a0);
            counters.add("alloc_bytes", b1 - b0);
        }
        report.entries.push(BenchEntry {
            section: case.section.to_string(),
            workload: case.workload,
            scheme: case.scheme,
            wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            counters,
        });
    }
    report
}

/// Gates a suite run against the baseline report `text`.
///
/// The baseline is parsed and restricted to `section` first; a full one
/// must carry every [`REQUIRED_CASES`] entry. Only a baseline that passes
/// both is worth a run, so `run` is called after them. Returns the run's
/// report with its counter diffs against the baseline (empty when the
/// gate passes).
///
/// # Errors
///
/// Returns a message, without calling `run`, if the baseline does not
/// parse, has no case in `section`, or lacks a required case.
pub fn check(
    text: &str,
    section: Option<&str>,
    run: impl FnOnce() -> BenchReport,
) -> Result<(BenchReport, Vec<String>), String> {
    let mut baseline = BenchReport::parse(text)?;
    if let Some(s) = section {
        baseline.entries.retain(|e| e.section == s);
        if baseline.entries.is_empty() {
            return Err(format!("no cases in section `{s}`"));
        }
    } else if let Some(id) = REQUIRED_CASES
        .into_iter()
        .find(|id| baseline.entry(id).is_none())
    {
        return Err(format!("lacks the gated case {id}"));
    }
    let report = run();
    let diffs = report.diff_counters(&baseline);
    Ok((report, diffs))
}

/// Renders the report as the human-readable table the binary prints: the
/// case, its wall time, then its nonzero counters as `name=value`.
#[must_use]
pub fn render_table(report: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<18} {:<13} {:>12}  counters",
        "section", "workload", "scheme", "wall_ns"
    );
    for e in &report.entries {
        let _ = write!(
            out,
            "{:<13} {:<18} {:<13} {:>12} ",
            e.section, e.workload, e.scheme, e.wall_ns
        );
        for (name, v) in e.counters.iter() {
            let _ = write!(out, " {name}={v}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_section_scheme_and_app() {
        let cases = cases();
        assert_eq!(
            cases.iter().filter(|c| c.section == "executor").count(),
            Scheme::ALL.len()
        );
        assert_eq!(
            cases.iter().filter(|c| c.section == "queue").count(),
            2 * QUEUE_RUNGS.len()
        );
        assert_eq!(
            cases.iter().filter(|c| c.section == "kernel").count(),
            AppId::ALL.len()
        );
        assert_eq!(
            cases.iter().filter(|c| c.section == "fleet").count(),
            FLEET_RUNGS.len()
        );
        assert_eq!(cases.iter().filter(|c| c.section == "overhead").count(), 3);
        assert_eq!(
            cases
                .iter()
                .filter(|c| c.section == "compute_cache")
                .count(),
            2
        );
        assert_eq!(
            cases.iter().filter(|c| c.section == "robustness").count(),
            Scheme::ALL.len()
        );
        assert_eq!(
            cases.iter().filter(|c| c.section == "telemetry").count(),
            Scheme::ALL.len()
        );
        assert_eq!(cases.iter().filter(|c| c.section == "scenarios").count(), 1);
        assert_eq!(cases.iter().filter(|c| c.section == "figures").count(), 1);
        // Case ids are unique — the baseline gate matches on them.
        let mut ids: Vec<String> = cases
            .iter()
            .map(|c| format!("{}/{}/{}", c.section, c.workload, c.scheme))
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), cases.len());
    }

    #[test]
    fn queue_case_fires_every_scheduled_event() {
        let rung = cases()
            .into_iter()
            .filter(|c| c.section == "queue" && c.workload == "pending-1k");
        let mut schemes = Vec::new();
        for mut case in rung {
            let out = case.counters();
            assert_eq!(out.get("events"), 1_000, "wrong event count");
            assert_eq!(case.counters(), out, "queue case must replay bitwise");
            schemes.push(case.scheme);
        }
        assert_eq!(schemes, ["engine", "generated"]);
    }

    #[test]
    fn kernel_inputs_carry_real_samples() {
        for id in AppId::ALL {
            let app = catalog::app(id, SUITE_SEED);
            let input = window_input(app.as_ref(), SUITE_SEED);
            let expected: usize = app
                .sensors()
                .iter()
                .map(|u| u.samples_per_window as usize)
                .sum();
            let got: usize = input.samples.values().map(Vec::len).sum();
            assert_eq!(got, expected, "{id}: window input incomplete");
        }
    }

    #[test]
    fn compute_cache_cases_agree_on_simulation_traffic() {
        // Exact hit/miss counts are asserted in the end-to-end binary test
        // (tests/bench_suite.rs), where the suite owns the process; here
        // other tests share the global cache counters, so only the
        // cache-independent outputs are checked.
        let mut cached = cases()
            .into_iter()
            .filter(|c| c.section == "compute_cache")
            .collect::<Vec<_>>();
        assert_eq!(cached.len(), 2);
        let on = cached[0].counters();
        let off = cached[1].counters();
        assert_eq!(
            on.get("events"),
            off.get("events"),
            "caching must not change events"
        );
        assert_eq!(on.get("bus_bytes"), off.get("bus_bytes"));
        assert!(on.get("events") > 0, "fleet produced no simulation traffic");
    }

    #[test]
    fn robustness_cases_inject_and_replay_exactly() {
        let mut faulted: Vec<_> = cases()
            .into_iter()
            .filter(|c| c.section == "robustness")
            .collect();
        assert_eq!(faulted.len(), Scheme::ALL.len());
        let out = faulted[0].counters();
        assert!(out.get("faults_injected") > 0, "no faults fired");
        assert!(out.get("samples_dropped") > 0, "dropout never fired");
        assert!(out.get("bytes_corrupted") > 0, "corruption never fired");
        // The seeded plan replays bitwise.
        assert_eq!(faulted[0].counters(), out);
    }

    #[test]
    fn telemetry_cases_record_and_alert_deterministically() {
        let mut tel_cases: Vec<_> = cases()
            .into_iter()
            .filter(|c| c.section == "telemetry")
            .collect();
        assert_eq!(tel_cases.len(), Scheme::ALL.len());
        // scheme order mirrors Scheme::ALL: baseline, batching, com, beam, bcom
        let com = tel_cases
            .iter_mut()
            .find(|c| c.scheme == "com")
            .expect("com case");
        let out = com.counters();
        assert!(out.get("series_points") > 0, "no points recorded");
        assert!(out.get("detector_evals") > 0, "no detector evals");
        assert!(
            out.get("alerts_fired") > 0,
            "the storm must trip COM's detectors"
        );
        // The stream is a pure fold: a second run is identical.
        assert_eq!(com.counters(), out);
        let beam = tel_cases
            .iter_mut()
            .find(|c| c.scheme == "beam")
            .expect("beam case");
        assert_eq!(
            beam.counters().get("alerts_fired"),
            0,
            "BEAM must stay quiet"
        );
    }

    #[test]
    fn scenarios_case_sweeps_the_committed_corpus() {
        let mut case = cases()
            .into_iter()
            .find(|c| c.section == "scenarios")
            .expect("scenarios case");
        let out = case.counters();
        assert!(out.get("scenarios_run") >= 10, "corpus shrank: {out:?}");
        assert!(out.get("expectations_evaluated") > out.get("scenarios_run"));
        assert_eq!(
            out.get("expectations_failed"),
            0,
            "a committed scenario fails"
        );
        // Grading is a pure function of the corpus: a second sweep agrees.
        assert_eq!(case.counters(), out);
    }

    #[test]
    fn section_filter_restricts_the_report() {
        let probe = || (0, 0);
        let r = run_suite(&probe, Some("robustness"));
        assert!(!r.entries.is_empty());
        assert!(r.entries.iter().all(|e| e.section == "robustness"));
    }

    #[test]
    fn check_refuses_an_ungateable_baseline_before_running() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benches/baseline.json");
        let text = std::fs::read_to_string(path).expect("committed baseline");
        let mut pruned = BenchReport::parse(&text).expect("baseline parses");
        pruned.entries.retain(|e| e.case_id() != "kernel/A9/kernel");
        let refuse = |text: &str, section| {
            check(text, section, || panic!("a refused baseline ran the suite"))
                .expect_err("baseline refused")
        };
        let e = refuse(&pruned.to_json(), None);
        assert!(e.contains("kernel/A9/kernel"), "{e}");
        // A section run gates only that section, so it needs no kernel case
        // but must find one of its own.
        let e = refuse(&text, Some("no-such-section"));
        assert!(e.contains("no-such-section"), "{e}");
        assert!(refuse("not json", None).contains("bench report"));
    }

    #[test]
    fn executor_cases_report_simulation_traffic() {
        let mut case = cases().into_iter().next().expect("executor case");
        let out = case.counters();
        assert!(out.get("events") > 0, "no events recorded");
        assert!(out.get("bus_bytes") > 0, "no bus traffic recorded");
        // Determinism: a second run is identical.
        assert_eq!(case.counters(), out);
    }
}
