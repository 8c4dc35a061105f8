//! The timed run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::now_ns;
use crate::layers::{replay_queue, replay_sensors, RunDesc};
use crate::report::{per_layer, Metric, END_TO_END};
use crate::spans::{total_ns, Span, Tracer};
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{Bench, Checked, Kind, Pass, RENDER_SPANS, TARGETS};

/// Timed passes a run makes at least, so `pass_ms.p10` is the second
/// fastest or slower.
pub const MIN_PASSES: usize = 20;

/// Traced rounds a run makes at least.
pub const MIN_ROUNDS: usize = 10;

/// A run stops adding passes after this long, whatever the minimums.
pub const MAX_SECONDS: u64 = 120;

/// Fleet workers of the wide passes the traced run compares one-job passes
/// with (`runner.speedup`). Timed passes use one: on a small shared machine
/// a two-wide pass's time moves with the neighbours' load far more than a
/// one-job pass's does.
pub const FLEET_WIDTH: usize = 2;

/// The outcome of one run: the checked pass count, the metrics, and a
/// human-readable summary.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Passes checked and failed.
    pub checked: Checked,
    /// Every metric of the run's kind, in catalogue order.
    pub metrics: Vec<Metric>,
    /// A few lines for people.
    pub summary: String,
    /// Spans recorded (traced runs only).
    pub spans: Vec<Span>,
}

fn ns_to(ns: u64, per: f64) -> f64 {
    // lint: nanosecond totals of a run stay far below 2^53
    #[allow(clippy::cast_precision_loss)]
    let x = ns as f64 / per;
    x
}

fn count(n: u64) -> f64 {
    // lint: event and call counts stay far below 2^53
    #[allow(clippy::cast_precision_loss)]
    let x = n as f64;
    x
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn keep_going(start: u64, seconds: u64, done: usize, min: usize) -> bool {
    let elapsed = now_ns() - start;
    let wanted = elapsed < seconds * 1_000_000_000 || done < min;
    wanted && elapsed < MAX_SECONDS * 1_000_000_000
}

/// The timed run: one untimed warm-up pass, then one-job passes for
/// `seconds` (and at least [`MIN_PASSES`]), each checked against
/// `reference`.
///
/// The gated pass time is the 10th percentile: on a machine shared with
/// other tenants, a slowed stretch of a run lifts the median and the tail
/// of that run, while the fast tenth still reads what the code costs. The
/// summary prints the median and the highest tail with ten passes beyond
/// it as well.
#[must_use]
pub fn timed(bench: &Bench, reference: &[u64], seconds: u64) -> Outcome {
    let mut checked = Checked::default();
    let mut untraced = Tracer::disabled();
    checked.record(reference, &bench.pass(1, &mut untraced));

    let start = now_ns();
    let mut passes: Vec<Pass> = Vec::new();
    while keep_going(start, seconds, passes.len(), MIN_PASSES) {
        let pass = bench.pass(1, &mut untraced);
        checked.record(reference, &pass);
        passes.push(pass);
    }
    let pass_ms: Vec<f64> = passes.iter().map(|p| ns_to(p.pass_ns, 1e6)).collect();
    let heap_mb: Vec<f64> = passes.iter().map(|p| count(p.peak_bytes) / 1e6).collect();
    let setup_s: Vec<f64> = passes.iter().map(|p| ns_to(p.setup_ns, 1e9)).collect();
    let values = [
        percentile(&pass_ms, 10.0).unwrap_or(0.0),
        median(&heap_mb).unwrap_or(0.0),
        median(&setup_s).unwrap_or(0.0),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect();
    let mut summary = format!(
        "{} seed={}: {} timed passes, {} of {} checked passes failed\n",
        bench.kind.name(),
        bench.seed,
        passes.len(),
        checked.failed,
        checked.attempted
    );
    for m in &metrics {
        let _ = writeln!(summary, "  {:<14} {:>14} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        summary,
        "  {:<14} {:>14.4} ms (not gated)",
        "pass_ms.p50",
        median(&pass_ms).unwrap_or(0.0)
    );
    for p in [90.0, 75.0] {
        if let Ok(tail) = tail_percentile(&pass_ms, p) {
            let _ = writeln!(
                summary,
                "  {:<14} {tail:>14.4} ms (not gated)",
                format!("pass_ms.p{p}")
            );
            break;
        }
    }
    Outcome {
        checked,
        metrics,
        summary,
        spans: Vec::new(),
    }
}

/// Executor-layer measurements of one traced round: the runs the benchmark
/// built itself, their `Scenario::run` time and kernel `(calls, ns)`, and
/// the `(work, ns)` of the sensor and queue replays of the same runs.
struct ExecSample {
    runs: Vec<(RunDesc, u64, u64)>,
    exec_ns: u64,
    kernels: (u64, u64),
    sensors: (u64, u64),
    queue: (u64, u64),
}

/// Measures the executor layers of a traced round whose spans start at
/// index `first`. `long-horizon` runs are already in the traced pass;
/// `inspect-export` runs its bare twins (same `Scenario` settings, recording
/// off) here, outside the pass. Replays follow, marked as such.
fn exec_sample(
    bench: &Bench,
    traced: &Pass,
    first: usize,
    round: u32,
    tr: &mut Tracer,
) -> Option<ExecSample> {
    let (runs, kernels) = match bench.kind {
        Kind::LongHorizon => (traced.runs.clone(), traced.kernels),
        Kind::InspectExport => {
            let k0 = tr.kernels().read();
            let decorator = tr.decorator();
            tr.open("probe.bare_runs");
            let runs = bench
                .run_descs()
                .into_iter()
                .map(|d| {
                    let scenario = d.scenario(&decorator);
                    tr.open("executor.run");
                    let r = scenario.run();
                    tr.close();
                    (d, r.events_executed, r.sensor_reads)
                })
                .collect();
            tr.close();
            let k1 = tr.kernels().read();
            (runs, (k1.0 - k0.0, k1.1 - k0.1))
        }
        Kind::PaperRepro | Kind::CorpusCheck => return None,
    };
    tr.tag(round, true);
    let (mut reads, mut events) = (0, 0);
    for (desc, _, _) in &runs {
        reads += replay_sensors(desc, tr);
        events += replay_queue(desc, tr);
    }
    tr.tag(round, false);
    let spans = &tr.spans()[first..];
    Some(ExecSample {
        runs,
        exec_ns: total_ns(spans, "executor.run"),
        kernels,
        sensors: (reads, total_ns(spans, "replay.sensors")),
        queue: (events, total_ns(spans, "replay.queue")),
    })
}

fn set(m: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    *m.get_mut(name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue")) = value;
}

/// The per-layer values of one traced round, from its traced pass, the
/// untraced one-job pass beside it, and the round's spans. Layers the
/// workload does not reach from outside read 0.
fn round_metrics(
    kind: Kind,
    traced: &Pass,
    serial: &Pass,
    spans: &[Span],
    exec: Option<&ExecSample>,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect();
    let ms = |name: &str| ns_to(total_ns(spans, name), 1e6);
    let (hits, misses) = traced.compute_cache;
    set(&mut m, "compute_cache.hits", count(hits));
    set(&mut m, "compute_cache.misses", count(misses));
    set(
        &mut m,
        "compute_cache.hit_ratio",
        ratio(count(hits), count(hits + misses)),
    );
    set(&mut m, "signal_cache.hits", count(traced.signal_cache.0));
    set(&mut m, "signal_cache.misses", count(traced.signal_cache.1));
    // Allocations come from the untraced pass: span recording allocates.
    set(&mut m, "alloc.count", count(serial.allocs));
    set(&mut m, "alloc.mb", count(serial.alloc_bytes) / 1e6);

    match kind {
        Kind::PaperRepro => {
            for (span, _) in TARGETS {
                set(&mut m, &format!("{span}_ms"), ms(span));
            }
        }
        Kind::CorpusCheck => {
            let run_ms = ms("scenario_spec.run_spec");
            set(&mut m, "scenario_spec.parse_ms", ms("scenario_spec.parse"));
            set(&mut m, "scenario_spec.run_ms", run_ms);
            set(
                &mut m,
                "scenario_spec.render_ms",
                ms("scenario_spec.render"),
            );
            set(
                &mut m,
                "scenario_spec.expectations",
                count(traced.expectations),
            );
            let kernel_ms = ns_to(traced.kernels.1, 1e6);
            set(&mut m, "apps.compute_calls", count(traced.kernels.0));
            set(&mut m, "apps.compute_ms", kernel_ms);
            set(&mut m, "apps.share", ratio(kernel_ms, run_ms));
        }
        Kind::LongHorizon => {}
        Kind::InspectExport => {
            let run_ms = ms("inspect.run");
            let bare_ms = exec.map_or(0.0, |e| ns_to(e.exec_ns, 1e6));
            set(&mut m, "inspect.run_ms", run_ms);
            set(&mut m, "inspect.bare_run_ms", bare_ms);
            set(&mut m, "inspect.record_overhead", ratio(run_ms, bare_ms));
            for (format, span) in iotse_bench::inspect::InspectFormat::ALL
                .into_iter()
                .zip(RENDER_SPANS)
            {
                set(
                    &mut m,
                    &format!("inspect.render_ms.{}", format.name()),
                    ms(span),
                );
            }
        }
    }

    if let Some(e) = exec {
        let exec_ns = count(e.exec_ns);
        let events: u64 = e.runs.iter().map(|r| r.1).sum();
        let reads: u64 = e.runs.iter().map(|r| r.2).sum();
        let (sensors_ns, queue_ns, kernel_ns) =
            (count(e.sensors.1), count(e.queue.1), count(e.kernels.1));
        set(&mut m, "executor.runs", count(e.runs.len() as u64));
        set(&mut m, "executor.events", count(events));
        set(
            &mut m,
            "executor.ns_per_event",
            ratio(exec_ns, count(events)),
        );
        set(
            &mut m,
            "executor.self_share",
            ratio(exec_ns - kernel_ns - sensors_ns - queue_ns, exec_ns),
        );
        set(&mut m, "sensors.reads", count(reads));
        set(
            &mut m,
            "sensors.ns_per_read",
            ratio(sensors_ns, count(e.sensors.0)),
        );
        set(&mut m, "sensors.share", ratio(sensors_ns, exec_ns));
        set(&mut m, "queue.events", count(e.queue.0));
        set(
            &mut m,
            "queue.ns_per_event",
            ratio(queue_ns, count(e.queue.0)),
        );
        set(&mut m, "queue.share", ratio(queue_ns, exec_ns));
        set(&mut m, "apps.compute_calls", count(e.kernels.0));
        set(&mut m, "apps.compute_ms", kernel_ns / 1e6);
        set(&mut m, "apps.share", ratio(kernel_ns, exec_ns));
    }
    m
}

/// The traced run: a warm-up pass, then rounds of three passes — untraced
/// at one job, untraced on a [`FLEET_WIDTH`]-wide fleet, traced at one job
/// — for `seconds` (and at least [`MIN_ROUNDS`]), every pass checked
/// against `reference`. Each per-layer metric is the median over rounds;
/// `runner.speedup` and `trace.overhead` compare the rounds' pass times.
#[must_use]
pub fn traced(bench: &Bench, reference: &[u64], seconds: u64) -> Outcome {
    let mut checked = Checked::default();
    let mut untraced = Tracer::disabled();
    checked.record(reference, &bench.pass(1, &mut untraced));

    let mut tr = Tracer::enabled();
    let mut rounds: Vec<BTreeMap<String, f64>> = Vec::new();
    let (mut wide_ms, mut serial_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = now_ns();
    while keep_going(start, seconds, rounds.len(), MIN_ROUNDS) {
        let round = u32::try_from(rounds.len()).unwrap_or(u32::MAX);
        let serial = bench.pass(1, &mut untraced);
        checked.record(reference, &serial);
        let wide = bench.pass(FLEET_WIDTH, &mut untraced);
        checked.record(reference, &wide);
        let first = tr.spans().len();
        tr.tag(round, false);
        let traced = bench.pass(1, &mut tr);
        checked.record(reference, &traced);
        let exec = exec_sample(bench, &traced, first, round, &mut tr);
        rounds.push(round_metrics(
            bench.kind,
            &traced,
            &serial,
            &tr.spans()[first..],
            exec.as_ref(),
        ));
        wide_ms.push(ns_to(wide.pass_ns, 1e6));
        serial_ms.push(ns_to(serial.pass_ns, 1e6));
        traced_ms.push(ns_to(traced.pass_ns, 1e6));
    }

    let mid = |v: &[f64]| median(v).unwrap_or(0.0);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in per_layer() {
        let per_round: Vec<f64> = rounds.iter().map(|r| r[&name]).collect();
        values.insert(name, mid(&per_round));
    }
    set(
        &mut values,
        "runner.speedup",
        ratio(mid(&serial_ms), mid(&wide_ms)),
    );
    set(
        &mut values,
        "trace.overhead",
        ratio(mid(&traced_ms), mid(&serial_ms)),
    );
    let metrics: Vec<Metric> = per_layer()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values[&name],
            name,
            unit,
        })
        .collect();

    let mut summary = format!(
        "{} seed={}: {} traced rounds (jobs 1 / {FLEET_WIDTH} / 1 traced), {} of {} checked \
         passes failed\n",
        bench.kind.name(),
        bench.seed,
        rounds.len(),
        checked.failed,
        checked.attempted
    );
    for m in metrics.iter().filter(|m| m.value != 0.0) {
        let _ = writeln!(summary, "  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if matches!(bench.kind, Kind::LongHorizon | Kind::InspectExport) {
        let pct = |name: &str| values[name] * 100.0;
        let _ = writeln!(
            summary,
            "  Scenario::run shares: sensors {:.1}% and queue {:.1}% (replay estimates, not \
             in-run measurements), kernels {:.1}%, executor self {:.1}%",
            pct("sensors.share"),
            pct("queue.share"),
            pct("apps.share"),
            pct("executor.self_share"),
        );
    }
    Outcome {
        checked,
        metrics,
        summary,
        spans: tr.spans().to_vec(),
    }
}
