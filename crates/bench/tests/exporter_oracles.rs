//! Reference oracles for the streaming exporters.
//!
//! `export::chrome_trace` writes every event straight into one buffer and
//! `flame::fold` interns stack paths by `(parent path, label)`. The
//! references below are the straightforward forms they replaced: one
//! `format!` per trace event joined at the end, and a fold keyed by each
//! span's `;`-joined path string. Every `chrome`, `folded`, `table` and
//! `timeline` output must match them byte for byte, and the fold's sums
//! must match bit for bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use iotse_bench::export::chrome_trace;
use iotse_bench::figures::fig05::{render_strip, Timeline};
use iotse_bench::inspect::{self, InspectFormat, InspectRequest};
use iotse_core::{robustness, AppId, Calibration, RunResult, Scheme};
use iotse_energy::attribution::Routine;
use iotse_energy::flame;
use iotse_energy::stacks::stack_series_name;
use iotse_sim::time::SimTime;
use iotse_sim::trace::{FieldValue, SpanId, TraceKind, TraceLog};

fn ref_json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn ref_ts_micros(t: SimTime) -> String {
    format!("{:.3}", t.as_nanos() as f64 / 1e3)
}

fn ref_field_value(result: &RunResult, value: FieldValue) -> String {
    match value {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::Str(l) => format!("\"{}\"", ref_json_escape(result.trace.label(l))),
        FieldValue::Time(t) => format!("\"{t}\""),
    }
}

fn ref_routine_key(routine: Routine) -> &'static str {
    stack_series_name(routine)
        .trim_start_matches("iotse_energy_stack_")
        .trim_end_matches("_microjoules")
}

/// The Chrome exporter as one `format!` per event, joined at the end.
fn reference_chrome_trace(result: &RunResult, cal: &Calibration) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{{\"name\":\"iotse {} seed={}\"}}}}",
        ref_json_escape(&result.scheme.to_string()),
        result.seed
    ));
    events.push(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"spans\"}}"
            .to_string(),
    );
    for span in result.trace.spans() {
        let exit = span.exit.unwrap_or(span.enter);
        let mut args = format!("\"energy_self_uj\":{:.3}", span.weight);
        for &(name, value) in result.trace.fields(span.fields) {
            let _ = write!(
                args,
                ",\"{}\":{}",
                ref_json_escape(result.trace.label(name)),
                ref_field_value(result, value)
            );
        }
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{{args}}}}}",
            ref_json_escape(result.trace.label(span.label)),
            span.kind,
            ref_ts_micros(span.enter),
            (exit.as_nanos() - span.enter.as_nanos()) as f64 / 1e3,
        ));
    }
    for event in result.trace.events() {
        let mut args = format!(
            "\"source\":\"{}\"",
            ref_json_escape(result.trace.label(event.source))
        );
        for &(name, value) in result.trace.fields(event.fields) {
            let _ = write!(
                args,
                ",\"{}\":{}",
                ref_json_escape(result.trace.label(name)),
                ref_field_value(result, value)
            );
        }
        let kind = event.kind;
        events.push(format!(
            "{{\"name\":\"{kind}\",\"cat\":\"{kind}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
             \"pid\":1,\"tid\":1,\"args\":{{{args}}}}}",
            ref_ts_micros(event.time),
        ));
    }
    if let Some(power) = result.power_trace(cal) {
        for &(t, p) in power.points() {
            events.push(format!(
                "{{\"name\":\"power_mw\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                 \"args\":{{\"mw\":{:.3}}}}}",
                ref_ts_micros(t),
                p.as_milliwatts()
            ));
        }
        if let Some(end) = power.end() {
            events.push(format!(
                "{{\"name\":\"power_mw\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                 \"args\":{{\"mw\":0.000}}}}",
                ref_ts_micros(end)
            ));
        }
    }
    if let Some(tel) = &result.telemetry {
        let series = tel.stacks.all_series();
        if let Some(first) = series.first() {
            for (w, &(t, _)) in first.points().iter().enumerate() {
                let mut args = String::new();
                for (i, &routine) in Routine::ALL.iter().enumerate() {
                    if i > 0 {
                        args.push(',');
                    }
                    let _ = write!(
                        args,
                        "\"{}\":{:.3}",
                        ref_routine_key(routine),
                        series[i].points()[w].1
                    );
                }
                events.push(format!(
                    "{{\"name\":\"energy_stack_uj\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                     \"args\":{{{args}}}}}",
                    ref_ts_micros(t)
                ));
            }
        }
        for alert in &tel.alerts {
            events.push(format!(
                "{{\"name\":\"telemetry_alert\",\"cat\":\"alert\",\"ph\":\"i\",\"ts\":{},\
                 \"s\":\"g\",\"pid\":1,\"tid\":1,\
                 \"args\":{{\"series\":\"{}\",\"detail\":\"{}\"}}}}",
                ref_ts_micros(alert.at),
                ref_json_escape(alert.series),
                ref_json_escape(&alert.to_string())
            ));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// The fold keyed by each span's `;`-joined path string.
struct ReferenceFold {
    /// `(path, self µJ, spans)`, sorted by path.
    stacks: Vec<(String, f64, usize)>,
    /// `(label, count, self µJ, total µJ)`, sorted by label.
    frames: Vec<(String, usize, f64, f64)>,
}

fn reference_fold(trace: &TraceLog) -> ReferenceFold {
    let spans = trace.spans();
    let weights: Vec<f64> = spans.iter().map(|s| s.weight).collect();
    let mut totals = weights.clone();
    for i in (0..spans.len()).rev() {
        if let Some(p) = spans[i].parent.and_then(SpanId::index) {
            totals[p] += totals[i];
        }
    }
    let mut by_stack: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut by_label: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let entry = by_stack
            .entry(trace.stack(SpanId::from_index(i)))
            .or_insert((0.0, 0));
        entry.0 += weights[i];
        entry.1 += 1;
        let frame = by_label
            .entry(trace.label(span.label).to_string())
            .or_insert((0, 0.0, 0.0));
        frame.0 += 1;
        frame.1 += weights[i];
        frame.2 += totals[i];
    }
    ReferenceFold {
        stacks: by_stack.into_iter().map(|(k, (s, n))| (k, s, n)).collect(),
        frames: by_label
            .into_iter()
            .map(|(k, (n, s, t))| (k, n, s, t))
            .collect(),
    }
}

impl ReferenceFold {
    fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, uj, _) in &self.stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&format!("{}", (uj * 1e3).round().max(0.0) as u64));
            out.push('\n');
        }
        out
    }

    fn table(&self) -> String {
        let mut out =
            String::from("label                        count        self-uJ       total-uJ\n");
        for (label, count, s, t) in &self.frames {
            out.push_str(&format!("{label:<28} {count:>5} {s:>14.3} {t:>14.3}\n"));
        }
        out
    }
}

fn reference_timeline(result: &RunResult) -> String {
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
    let s = result.spans;
    let _ = writeln!(
        out,
        "spans: {} (depth {}), events: {}, attributed energy: {:.3} uJ",
        s.spans, s.max_depth, s.events, s.total_weight
    );
    out.push_str(&reference_fold(&result.trace).table());
    out
}

/// Asserts the streaming fold equals the reference, sums compared by bits.
fn assert_fold_matches(trace: &TraceLog) {
    let graph = flame::fold(trace);
    let reference = reference_fold(trace);
    assert_eq!(graph.stacks().len(), reference.stacks.len());
    for (got, (stack, uj, spans)) in graph.stacks().iter().zip(&reference.stacks) {
        assert_eq!(&got.stack, stack);
        assert_eq!(got.self_microjoules.to_bits(), uj.to_bits(), "{stack}");
        assert_eq!(got.spans, *spans, "{stack}");
    }
    assert_eq!(graph.frames().len(), reference.frames.len());
    for (got, (label, count, s, t)) in graph.frames().iter().zip(&reference.frames) {
        assert_eq!(&got.label, label);
        assert_eq!(got.count, *count, "{label}");
        assert_eq!(got.self_microjoules.to_bits(), s.to_bits(), "{label}");
        assert_eq!(got.total_microjoules.to_bits(), t.to_bits(), "{label}");
    }
    assert_eq!(graph.folded(), reference.folded());
    assert_eq!(graph.table(), reference.table());
}

/// A2 + A7 for 4 windows under every scheme: the `inspect-export` shape.
fn assert_exports_match_references(faults: bool) {
    for scheme in Scheme::ALL {
        let req = InspectRequest {
            scheme,
            apps: vec![AppId::A2, AppId::A7],
            windows: 4,
            seed: 42,
            jobs: 1,
            faults: if faults {
                robustness::demo_scripts()
            } else {
                Vec::new()
            },
        };
        let result = inspect::run(&req);
        let cal = Calibration::paper();
        assert!(
            inspect::render(&result, InspectFormat::Chrome)
                == reference_chrome_trace(&result, &cal),
            "chrome differs for {scheme} (faults: {faults})"
        );
        let reference = reference_fold(&result.trace);
        assert_eq!(
            inspect::render(&result, InspectFormat::Folded),
            reference.folded(),
            "folded differs for {scheme} (faults: {faults})"
        );
        assert_eq!(
            inspect::render(&result, InspectFormat::Table),
            reference.table(),
            "table differs for {scheme} (faults: {faults})"
        );
        assert_eq!(
            inspect::render(&result, InspectFormat::Timeline),
            reference_timeline(&result),
            "timeline differs for {scheme} (faults: {faults})"
        );
        assert_fold_matches(&result.trace);
    }
}

#[test]
fn exports_match_references_without_faults() {
    assert_exports_match_references(false);
}

#[test]
fn exports_match_references_with_demo_faults() {
    assert_exports_match_references(true);
}

/// A log with awkward labels, an unclosed span, and two distinct span
/// paths whose joined strings collide: `a;b` as one label, and `a` then
/// `b` nested.
fn awkward_trace() -> TraceLog {
    let mut log = TraceLog::enabled();
    let ms = SimTime::from_millis;
    let joined = log.enter_span(ms(0), TraceKind::Compute, "a;b");
    log.charge_span(joined, 0.1);
    log.exit_span(joined, ms(1));
    let a = log.enter_span(ms(1), TraceKind::Scheme, "a");
    log.charge_span(a, 0.7);
    let b = log.enter_span(ms(1), TraceKind::Compute, "b");
    log.charge_span(b, 0.2);
    let quoted = log.intern("say \"hi\"\\\u{7}");
    log.span_field(b, "tab\tkey", FieldValue::Str(quoted));
    log.span_field(b, "delta", FieldValue::I64(-3));
    log.event(
        ms(2),
        TraceKind::Qos,
        "src\"\\\u{1};x",
        &[("at", FieldValue::Time(ms(2))), ("n", FieldValue::U64(9))],
    );
    log.exit_span(b, ms(2));
    log.exit_span(a, ms(3));
    let again = log.enter_span(ms(3), TraceKind::Compute, "a;b");
    log.charge_span(again, 0.3);
    log.exit_span(again, ms(4));
    let odd = log.enter_span(ms(4), TraceKind::Compute, "quote\"back\\ctl\u{1f};semi");
    log.charge_span(odd, 1.5);
    let open = log.enter_span(ms(5), TraceKind::DataTransfer, "never closed");
    log.charge_span(open, 0.25);
    log
}

#[test]
fn awkward_trace_folds_like_the_reference() {
    let log = awkward_trace();
    assert_fold_matches(&log);
    let graph = flame::fold(&log);
    let merged = graph
        .stacks()
        .iter()
        .find(|s| s.stack == "a;b")
        .expect("colliding paths fold into one stack");
    assert_eq!(merged.spans, 3);
    let sum: f64 = 0.0 + 0.1 + 0.2 + 0.3;
    assert_eq!(merged.self_microjoules.to_bits(), sum.to_bits());
    assert!(graph
        .stacks()
        .iter()
        .any(|s| s.stack == "quote\"back\\ctl\u{1f};semi;never closed"));
}

#[test]
fn awkward_trace_exports_like_the_reference() {
    let mut result = inspect::run(&InspectRequest {
        windows: 1,
        ..InspectRequest::default()
    });
    result.trace = awkward_trace();
    let cal = Calibration::paper();
    let json = chrome_trace(&result, &cal);
    assert_eq!(json, reference_chrome_trace(&result, &cal));
    assert!(json.contains("\"name\":\"quote\\\"back\\\\ctl\\u001f;semi\""));
    assert!(json.contains("\"name\":\"never closed\",\"cat\":\"data-transfer\",\"ph\":\"X\",\"ts\":5000.000,\"dur\":0.000"));
    assert_eq!(
        inspect::render(&result, InspectFormat::Timeline),
        reference_timeline(&result)
    );
}
