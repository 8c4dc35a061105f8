//! Trace and metrics exporters: Chrome/Perfetto JSON and Prometheus text.
//!
//! Both renderers are pure functions from recorded run data to a `String`,
//! written with deterministic formatting (fixed-precision floats, stable
//! iteration order) so repeated runs — at any `--jobs` level — produce
//! byte-identical output. Neither uses a JSON library: the trace-event
//! format is flat enough that hand-writing it keeps the workspace
//! dependency-free and the bytes fully under our control.
//!
//! * [`chrome_trace`] — the Chrome `trace_event` JSON format (also read by
//!   Perfetto's legacy importer): spans become `"ph":"X"` complete duration
//!   events, point events become `"ph":"i"` instants, and the reconstructed
//!   hub power waveform becomes a `"ph":"C"` counter track.
//! * [`prometheus`] — the Prometheus text exposition format for a run
//!   (counters, gauges, cumulative-bucket histograms and the telemetry
//!   gauges), derived from the [`RunResult`] alone.

use std::fmt::Write as _;

use iotse_core::telemetry::APP_SERIES;
use iotse_core::{Calibration, RunResult, Telemetry};
use iotse_energy::attribution::{Device, Routine};
use iotse_energy::stacks::stack_series_name;
use iotse_sim::trace::{FieldValue, Fields};

/// The short routine key used in exported labels (`interrupt`,
/// `app_compute`, …) — the series name minus its crate prefix and unit
/// suffix.
pub(crate) fn routine_key(routine: Routine) -> &'static str {
    stack_series_name(routine)
        .trim_start_matches("iotse_energy_stack_")
        .trim_end_matches("_microjoules")
}

/// Appends `s` to `out`, escaped for use inside a JSON string literal.
/// Strings with no `"`, `\` or control byte — nearly every span label —
/// are copied in one `push_str`.
fn json_escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
}

/// Appends `v` in decimal, digit by digit, without going through
/// `core::fmt`.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Appends simulated nanoseconds as trace-event microseconds with three
/// decimals: the integer `ns / 1000`, a `.`, then `ns % 1000` padded to
/// three digits.
///
/// This is exact for every `ns`. It prints the same bytes as
/// `format!("{:.3}", ns as f64 / 1e3)` for all `ns < 2^43 * 1000`
/// (about 101.8 simulated days): below that the float quotient is less
/// than half a nanosecond from exact, so rounding to three decimals
/// recovers it. Above it the quotient can be off by almost a whole
/// nanosecond, and the float form may misprint the last digit.
fn write_micros(out: &mut String, ns: u64) {
    write_u64(out, ns / 1000);
    out.push('.');
    let frac = ns % 1000;
    for d in [frac / 100, frac / 10 % 10, frac % 10] {
        out.push(char::from(b'0' + d as u8));
    }
}

/// Appends `x` exactly as `format!("{x:.3}")` would, without going through
/// `core::fmt` for the values a trace holds.
///
/// A finite `x` in `[0, 1e15)` is `m / 2^s` for integers `m < 2^53` and
/// `s ≥ 3`, so `x · 1000` rounded half to even — the rounding `core::fmt`
/// applies to the exact binary value — is an integer shift of `m · 1000`,
/// which fits a `u64`. That integer is then written as its thousands, a
/// `.` and three digits. Negative values, `-0.0`, NaN, the infinities and
/// `x ≥ 1e15` go through `write!` unchanged.
fn write_fixed3(out: &mut String, x: f64) {
    // `-0.0 >= 0.0` holds, so the sign bit is tested on its own.
    if !(0.0..1e15).contains(&x) || x.is_sign_negative() {
        let _ = write!(out, "{x:.3}");
        return;
    }
    let bits = x.to_bits();
    let biased = (bits >> 52) as u32;
    let frac = bits & ((1 << 52) - 1);
    let (m, s) = if biased == 0 {
        (frac, 1074)
    } else {
        (frac | 1 << 52, 1075 - biased)
    };
    let n = m * 1000;
    // Past 63 bits of shift, `n < 2^63` is under half a unit: it rounds to 0.
    let q = if s >= 64 {
        0
    } else {
        let q = n >> s;
        let rem = n & ((1 << s) - 1);
        let half = 1 << (s - 1);
        if rem > half || (rem == half && q & 1 == 1) {
            q + 1
        } else {
            q
        }
    };
    write_u64(out, q / 1000);
    out.push('.');
    let frac = q % 1000;
    for d in [frac / 100, frac / 10 % 10, frac % 10] {
        out.push(char::from(b'0' + d as u8));
    }
}

/// Appends one typed field value as a JSON value.
fn write_field_value(out: &mut String, result: &RunResult, value: FieldValue) {
    match value {
        FieldValue::U64(v) => write_u64(out, v),
        FieldValue::I64(v) => {
            if v < 0 {
                out.push('-');
            }
            write_u64(out, v.unsigned_abs());
        }
        FieldValue::Str(l) => {
            out.push('"');
            json_escape_into(out, result.trace.label(l));
            out.push('"');
        }
        FieldValue::Time(t) => {
            let _ = write!(out, "\"{t}\"");
        }
    }
}

/// Appends `,"name":value` for every typed field of a span or event.
fn write_fields(out: &mut String, result: &RunResult, fields: Fields) {
    for &(name, value) in result.trace.fields(fields) {
        out.push_str(",\"");
        json_escape_into(out, result.trace.label(name));
        out.push_str("\":");
        write_field_value(out, result, value);
    }
}

/// Renders a run's span tree, point events and power waveform as Chrome
/// `trace_event` JSON — load the output into `chrome://tracing` or
/// <https://ui.perfetto.dev> to see the execution visually.
///
/// Spans become `"ph":"X"` complete events on one thread track (the span
/// tree nests by time, which is how the viewers reconstruct the stack);
/// each carries its self-energy in `args.energy_self_uj`. Point events
/// become `"ph":"i"` thread-scoped instants. If the run recorded phase
/// timelines, the hub power waveform from [`RunResult::power_trace`] is
/// emitted as a `power_mw` counter track (`"ph":"C"`).
///
/// The whole document is written into one `String`, pre-sized from the
/// span, event and power-point counts; every event after the first is
/// preceded by `,\n`.
#[must_use]
pub fn chrome_trace(result: &RunResult, cal: &Calibration) -> String {
    let trace = &result.trace;
    let power = result.power_trace(cal);
    let power_points = power.as_ref().map_or(0, |p| p.points().len() + 1);
    let (windows, alerts) = result.telemetry.as_ref().map_or((0, 0), |tel| {
        let windows = tel
            .stacks
            .all_series()
            .first()
            .map_or(0, |s| s.points().len());
        (windows, tel.alerts.len())
    });
    // Typical line lengths, rounded up: a span is ~150 bytes, an instant
    // ~140, a power sample ~78, a stack sample ~188.
    let mut out = String::with_capacity(
        256 + 160 * trace.spans().len()
            + 144 * trace.events().len()
            + 80 * power_points
            + 192 * windows
            + 256 * alerts,
    );

    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"iotse ",
    );
    json_escape_into(&mut out, &result.scheme.to_string());
    let _ = write!(out, " seed={}\"}}}}", result.seed);
    out.push_str(
        ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"spans\"}}",
    );

    for span in trace.spans() {
        let exit = span.exit.unwrap_or(span.enter);
        out.push_str(",\n{\"name\":\"");
        json_escape_into(&mut out, trace.label(span.label));
        out.push_str("\",\"cat\":\"");
        out.push_str(span.kind.as_str());
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        write_micros(&mut out, span.enter.as_nanos());
        out.push_str(",\"dur\":");
        write_micros(&mut out, exit.as_nanos() - span.enter.as_nanos());
        out.push_str(",\"pid\":1,\"tid\":1,\"args\":{\"energy_self_uj\":");
        write_fixed3(&mut out, span.weight);
        write_fields(&mut out, result, span.fields);
        out.push_str("}}");
    }

    for event in trace.events() {
        let kind = event.kind.as_str();
        out.push_str(",\n{\"name\":\"");
        out.push_str(kind);
        out.push_str("\",\"cat\":\"");
        out.push_str(kind);
        out.push_str("\",\"ph\":\"i\",\"ts\":");
        write_micros(&mut out, event.time.as_nanos());
        out.push_str(",\"s\":\"t\",\"pid\":1,\"tid\":1,\"args\":{\"source\":\"");
        json_escape_into(&mut out, trace.label(event.source));
        out.push('"');
        write_fields(&mut out, result, event.fields);
        out.push_str("}}");
    }

    if let Some(power) = &power {
        for &(t, p) in power.points() {
            out.push_str(",\n{\"name\":\"power_mw\",\"ph\":\"C\",\"ts\":");
            write_micros(&mut out, t.as_nanos());
            out.push_str(",\"pid\":1,\"args\":{\"mw\":");
            write_fixed3(&mut out, p.as_milliwatts());
            out.push_str("}}");
        }
        if let Some(end) = power.end() {
            out.push_str(",\n{\"name\":\"power_mw\",\"ph\":\"C\",\"ts\":");
            write_micros(&mut out, end.as_nanos());
            out.push_str(",\"pid\":1,\"args\":{\"mw\":0.000}}");
        }
    }

    if let Some(tel) = &result.telemetry {
        // One stacked counter sample per window boundary carrying all five
        // routine deltas — viewers render this as the run's stacked energy
        // chart, the trace-side twin of the paper's per-routine bars.
        let series = tel.stacks.all_series();
        if let Some(first) = series.first() {
            for (w, &(t, _)) in first.points().iter().enumerate() {
                out.push_str(",\n{\"name\":\"energy_stack_uj\",\"ph\":\"C\",\"ts\":");
                write_micros(&mut out, t.as_nanos());
                out.push_str(",\"pid\":1,\"args\":{");
                for (i, &routine) in Routine::ALL.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(routine_key(routine));
                    out.push_str("\":");
                    write_fixed3(&mut out, series[i].points()[w].1);
                }
                out.push_str("}}");
            }
        }
        // Every detector alert becomes a global instant, visible as a
        // marker at the boundary where it fired.
        for alert in &tel.alerts {
            out.push_str(",\n{\"name\":\"telemetry_alert\",\"cat\":\"alert\",\"ph\":\"i\",\"ts\":");
            write_micros(&mut out, alert.at.as_nanos());
            out.push_str(",\"s\":\"g\",\"pid\":1,\"tid\":1,\"args\":{\"series\":\"");
            json_escape_into(&mut out, alert.series);
            out.push_str("\",\"detail\":\"");
            json_escape_into(&mut out, &alert.to_string());
            out.push_str("\"}}");
        }
    }

    out.push_str("\n]}\n");
    out
}

/// Formats a gauge/sum value: integral floats render without a fraction
/// (`1200` not `1200.0`), everything else uses Rust's shortest round-trip
/// form — both are deterministic functions of the bits.
fn prom_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// A Prometheus text exposition under construction: each family is a
/// `# TYPE` line and its samples. Every method takes the family's name
/// first, as a literal on the call line, so lint rule IOTSE-M09 checks
/// each exported name.
struct Families(String);

impl Families {
    fn counter(&mut self, name: &str, value: u64) {
        let _ = writeln!(self.0, "# TYPE {name} counter\n{name} {value}");
    }

    fn gauge(&mut self, name: &str, value: f64) {
        let _ = writeln!(self.0, "# TYPE {name} gauge\n{name} {}", prom_number(value));
    }

    /// Folds `values` into cumulative `_bucket{le="..."}` samples (a value
    /// counts in the first bucket whose bound exceeds it, or only in
    /// `+Inf`), then `_sum`, added in iteration order, and `_count`.
    fn histogram<const N: usize>(
        &mut self,
        name: &str,
        bounds: [f64; N],
        values: impl Iterator<Item = f64>,
    ) {
        let mut counts = [0u64; N];
        let (mut count, mut sum) = (0u64, 0.0);
        for x in values {
            if let Some(i) = bounds.iter().position(|&b| x < b) {
                counts[i] += 1;
            }
            count += 1;
            sum += x;
        }
        let out = &mut self.0;
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (bound, n) in bounds.iter().zip(counts) {
            cumulative += n;
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                prom_number(*bound)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{name}_sum {}", prom_number(sum));
        let _ = writeln!(out, "{name}_count {count}");
    }
}

/// Renders a run in the Prometheus text exposition format. Counters come
/// from the result's fields, gauges from its ledger (microjoules), the
/// transfer-size histogram from the transfer spans' `bytes` fields and the
/// slack histogram from the QoS events in trace order, so both histograms
/// are empty unless the run was traced. Within each kind the families
/// appear in name order. The fault counters appear only when a fault
/// fired; the telemetry counters, and the telemetry families after the
/// histograms, only when the run recorded telemetry.
// Unformatted so that each family's name stays on its call line, where
// IOTSE-M09 reads it.
#[rustfmt::skip]
#[must_use]
pub fn prometheus(result: &RunResult) -> String {
    let mut w = Families(String::new());
    let faults = (result.faults.faults_injected > 0).then_some(&result.faults);
    if let Some(f) = faults {
        w.counter("iotse_core_bytes_corrupted_total", f.bytes_corrupted);
        w.counter("iotse_core_faults_injected_total", f.faults_injected);
    }
    w.counter("iotse_core_forced_flushes_total", result.mcu.forced_flushes);
    w.counter("iotse_core_interrupts_total", result.interrupts);
    w.counter("iotse_core_qos_misses_total", result.qos_violations() as u64);
    if let Some(f) = faults {
        w.counter("iotse_core_samples_dropped_total", f.samples_dropped);
    }
    w.counter("iotse_core_sensor_reads_total", result.sensor_reads);
    if let (Some(tel), Some(points)) = (&result.telemetry, result.telemetry_points()) {
        w.counter("iotse_core_telemetry_alerts_total", tel.alerts.len() as u64);
        w.counter("iotse_core_telemetry_detector_evals_total", tel.detector_evals);
        w.counter("iotse_core_telemetry_points_total", points);
    }
    w.counter("iotse_core_transfer_bytes_total", result.bytes_transferred);
    w.counter("iotse_core_windows_completed_total", result.windows_completed() as u64);

    let ledger = &result.ledger;
    let device = |d| ledger.device_total(d).as_microjoules();
    let routine = |r| ledger.routine_total(r).as_microjoules();
    w.gauge("iotse_energy_device_cpu_microjoules", device(Device::Cpu));
    w.gauge("iotse_energy_device_link_microjoules", device(Device::Link));
    w.gauge("iotse_energy_device_mcu_microjoules", device(Device::Mcu));
    w.gauge("iotse_energy_device_sensor_microjoules", device(Device::Sensor));
    w.gauge("iotse_energy_routine_app_compute_microjoules", routine(Routine::AppCompute));
    w.gauge("iotse_energy_routine_data_collection_microjoules", routine(Routine::DataCollection));
    w.gauge("iotse_energy_routine_data_transfer_microjoules", routine(Routine::DataTransfer));
    w.gauge("iotse_energy_routine_idle_microjoules", routine(Routine::Idle));
    w.gauge("iotse_energy_routine_interrupt_microjoules", routine(Routine::Interrupt));
    w.gauge("iotse_energy_total_microjoules", ledger.total().as_microjoules());

    let sizes = result.transfer_sizes().map(|bytes| bytes as f64);
    w.histogram("iotse_core_transfer_bytes", [16.0, 256.0, 4096.0, 65536.0], sizes);
    let slack = result.qos_slack_ms();
    w.histogram("iotse_core_window_slack_ms", [250.0, 500.0, 1000.0, 2000.0], slack);

    if let Some(tel) = &result.telemetry {
        write_telemetry(&mut w.0, result, tel);
    }
    w.0
}

/// Escapes a Prometheus label value. The text exposition format allows
/// exactly three escapes — `\\`, `\"` and `\n` — and takes every other
/// character, tabs and other control characters included, literally.
fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Appends a run's windowed telemetry in the Prometheus text exposition
/// format: every stack series point and every window of each of the
/// [`APP_SERIES`] becomes a `{window="N"}`-labeled gauge sample (app
/// series carry an `app` label too), followed by a per-series alert count
/// family. Everything is emitted in fixed order (routine series in
/// [`Routine::ALL`] order, apps in scenario order).
fn write_telemetry(out: &mut String, result: &RunResult, tel: &Telemetry) {
    for series in tel.stacks.all_series() {
        let _ = writeln!(out, "# TYPE {} gauge", series.name());
        for (w, &(_, v)) in series.points().iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{{window=\"{w}\"}} {}",
                series.name(),
                prom_number(v)
            );
        }
    }
    if !result.apps.is_empty() {
        for (series, value) in APP_SERIES {
            let _ = writeln!(out, "# TYPE {series} gauge");
            for app in &result.apps {
                let name = prom_label_escape(&app.name);
                for (w, window) in app.windows.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "{series}{{app=\"{name}\",window=\"{w}\"}} {}",
                        prom_number(value(window))
                    );
                }
            }
        }
    }
    let mut alert_lines = String::new();
    for &routine in &Routine::ALL {
        let name = stack_series_name(routine);
        let n = tel.alerts.iter().filter(|a| a.series == name).count();
        if n > 0 {
            let _ = writeln!(
                alert_lines,
                "iotse_core_telemetry_alerts{{series=\"{name}\"}} {n}"
            );
        }
    }
    let budget = tel.budget_alerts();
    if budget > 0 {
        let _ = writeln!(
            alert_lines,
            "iotse_core_telemetry_alerts{{series=\"{}\"}} {budget}",
            iotse_energy::stacks::WORKLOAD_TOTAL_SERIES
        );
    }
    if !alert_lines.is_empty() {
        let _ = writeln!(out, "# TYPE iotse_core_telemetry_alerts gauge");
        out.push_str(&alert_lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_core::{Scenario, Scheme};

    fn traced_run() -> RunResult {
        Scenario::new(
            Scheme::Batching,
            iotse_apps::catalog::apps(&[iotse_core::AppId::A2], 42),
        )
        .windows(1)
        .seed(42)
        .with_trace()
        .with_timeline()
        .run()
    }

    /// A structural JSON validity check: balanced braces/brackets outside
    /// string literals, correct escape handling. Not a full parser, but it
    /// catches every way hand-written JSON usually breaks.
    fn assert_balanced_json(s: &str) {
        let mut depth = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "closer before opener");
        }
        assert_eq!(depth, 0, "unbalanced braces/brackets");
        assert!(!in_string, "unterminated string");
    }

    #[test]
    fn chrome_trace_is_structurally_valid_json() {
        let result = traced_run();
        let json = chrome_trace(&result, &Calibration::paper());
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(json.contains("\"ph\":\"X\""), "no duration events");
        assert!(json.contains("\"ph\":\"i\""), "no instant events");
        assert!(json.contains("\"ph\":\"C\""), "no counter track");
        assert!(json.contains("\"name\":\"iotse_core_run\""));
        assert!(json.contains("\"name\":\"power_mw\""));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let a = chrome_trace(&traced_run(), &Calibration::paper());
        let b = chrome_trace(&traced_run(), &Calibration::paper());
        assert_eq!(a, b);
    }

    fn json_escape(s: &str) -> String {
        let mut out = String::new();
        json_escape_into(&mut out, s);
        out
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("tab\there\r"), "tab\\there\\r");
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("µJ;ü"), "µJ;ü");
    }

    fn micros(ns: u64) -> String {
        let mut out = String::new();
        write_micros(&mut out, ns);
        out
    }

    #[test]
    fn integers_print_as_display_does() {
        for v in [0, 7, 10, 99, 1_000, 123_456_789, u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    /// Below this many nanoseconds (2^43 µs, about 101.8 simulated days)
    /// the float form `format!("{:.3}", ns as f64 / 1e3)` is exact.
    const FLOAT_EXACT_NS: u64 = (1 << 43) * 1000;

    #[test]
    fn integer_micros_match_the_float_form() {
        use iotse_sim::rng::SimRng;
        let float = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
        for ns in [
            0,
            1,
            999,
            1_000,
            1_001,
            999_999,
            FLOAT_EXACT_NS - 1,
            1 << 53,
        ] {
            assert_eq!(micros(ns), float(ns), "ns = {ns}");
        }
        let mut rng = SimRng::seed_from_u64(0x7153);
        for _ in 0..20_000 {
            // A random bit width first, so every magnitude is drawn.
            let bits = rng.gen_range(1..=53u32);
            let ns = (rng.next_u64() >> (64 - bits)) % FLOAT_EXACT_NS;
            assert_eq!(micros(ns), float(ns), "ns = {ns}");
        }
        // Past the bound the float quotient is no longer exact; the integer
        // form still is.
        assert_eq!(micros(FLOAT_EXACT_NS + 1), "8796093022208.001");
        assert_eq!(float(FLOAT_EXACT_NS + 1), "8796093022208.002");
    }

    /// Checks `write_fixed3` against `format!("{:.3}")` on `x`.
    fn assert_fixed3(x: f64) {
        let mut out = String::new();
        write_fixed3(&mut out, x);
        assert_eq!(
            out,
            format!("{x:.3}"),
            "x = {x:e} (bits {:#x})",
            x.to_bits()
        );
    }

    /// One round of `write_fixed3`'s oracle: ten values drawn from `rng`
    /// across the cases where fixed-point rounding goes wrong.
    fn fixed3_round(rng: &mut iotse_sim::rng::SimRng) {
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        // Any bit pattern: every sign, exponent, NaN payload and infinity.
        assert_fixed3(f64::from_bits(rng.next_u64()));
        // Uniform over [0, 10^k) for every magnitude a trace holds.
        let k = rng.gen_range(0..=15i32);
        assert_fixed3(rng.gen::<f64>() * 10f64.powi(k));
        // Exact binary ties and near-ties: j / 2^p with up to 50 bits of j.
        let p = rng.gen_range(1..=60u32);
        let j = rng.next_u64() >> rng.gen_range(14..=63u32);
        assert_fixed3(j as f64 / (1u64 << p) as f64);
        // One ulp either side of a three-decimal value and of a decimal tie.
        let k = (rng.next_u64() >> rng.gen_range(14..=63u32)) as f64;
        for x in [k / 1000.0, (k + 0.5) / 1000.0] {
            assert_fixed3(x);
            assert_fixed3(ulp_up(x));
            if x > 0.0 {
                assert_fixed3(ulp_down(x));
            }
        }
        // Subnormals.
        assert_fixed3(f64::from_bits(rng.next_u64() & ((1 << 52) - 1)));
    }

    #[test]
    fn fixed3_matches_core_fmt() {
        for x in [
            0.0,
            -0.0,
            -1.5,
            -0.0004,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15,
            f64::from_bits(1e15f64.to_bits() - 1),
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            0.0005,
            0.0015,
            0.0025,
            0.125,
            2.5,
            999.9995,
            1.0 / 3.0,
        ] {
            assert_fixed3(x);
        }
        // About 10^5 values.
        let mut rng = iotse_sim::rng::SimRng::seed_from_u64(0xf13e);
        for _ in 0..10_000 {
            fixed3_round(&mut rng);
        }
    }

    /// The long form of [`fixed3_matches_core_fmt`]: 3×10^7 values. Run it
    /// in release mode with `cargo test --release -p iotse-bench --lib --
    /// --ignored fixed3_sweep`; it fails if a toolchain changes how
    /// `core::fmt` rounds.
    #[test]
    #[ignore = "about a minute in release mode"]
    fn fixed3_sweep() {
        let mut rng = iotse_sim::rng::SimRng::seed_from_u64(0x5eed_f13e);
        for _ in 0..3_000_000 {
            fixed3_round(&mut rng);
        }
    }

    #[test]
    fn prom_label_escape_keeps_tabs_literal() {
        let name = "Step\tcounter \"v2\"\\\n";
        assert_eq!(prom_label_escape(name), "Step\tcounter \\\"v2\\\"\\\\\\n");
        assert_eq!(prom_label_escape("Step counter"), "Step counter");
        let mut result = telemetry_run();
        result.apps[0].name = name.to_string();
        let text = prometheus(&result);
        assert!(text.contains(
            "iotse_core_app_slack_ms{app=\"Step\tcounter \\\"v2\\\"\\\\\\n\",window=\"0\"}"
        ));
        assert!(!text.contains("\\t") && !text.contains("\\u00"));
    }

    #[test]
    fn families_write_cumulative_buckets() {
        let mut w = Families(String::new());
        w.counter("iotse_bench_things_total", 7);
        w.gauge("iotse_bench_level", 2.5);
        // 10.0 is not below the first bound, so it counts in the second.
        let values = [5.0, 10.0, 50.0, 500.0].into_iter();
        w.histogram("iotse_bench_sizes", [10.0, 100.0], values);
        let expected = "\
# TYPE iotse_bench_things_total counter
iotse_bench_things_total 7
# TYPE iotse_bench_level gauge
iotse_bench_level 2.5
# TYPE iotse_bench_sizes histogram
iotse_bench_sizes_bucket{le=\"10\"} 1
iotse_bench_sizes_bucket{le=\"100\"} 3
iotse_bench_sizes_bucket{le=\"+Inf\"} 4
iotse_bench_sizes_sum 565
iotse_bench_sizes_count 4
";
        assert_eq!(w.0, expected);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let result = traced_run();
        let text = prometheus(&result);
        // Counters, then gauges, then histograms, each kind in name order.
        let families: Vec<(&str, &str)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_once(' '))
            .collect();
        let mut sorted = families.clone();
        let rank = |kind: &str| {
            ["counter", "gauge", "histogram"]
                .iter()
                .position(|k| *k == kind)
        };
        sorted.sort_by_key(|&(name, kind)| (rank(kind), name));
        assert_eq!(families, sorted);
        assert_eq!(families.len(), 6 + 10 + 2, "{text}");
        // Counters and gauges read the result; histograms fold its trace.
        for line in [
            format!("iotse_core_interrupts_total {}", result.interrupts),
            format!("iotse_core_sensor_reads_total {}", result.sensor_reads),
            format!(
                "iotse_core_transfer_bytes_total {}",
                result.bytes_transferred
            ),
            "iotse_core_windows_completed_total 1".to_string(),
            format!(
                "iotse_energy_total_microjoules {}",
                prom_number(result.total_energy().as_microjoules())
            ),
            format!("iotse_core_transfer_bytes_sum {}", result.bytes_transferred),
            format!(
                "iotse_core_transfer_bytes_count {}",
                result.transfer_sizes().count()
            ),
            "iotse_core_window_slack_ms_count 1".to_string(),
        ] {
            assert!(text.lines().any(|l| l == line), "no `{line}` in\n{text}");
        }
        assert!(!text.contains("fault"), "no fault fired");
    }

    fn telemetry_run() -> RunResult {
        Scenario::new(
            Scheme::Batching,
            iotse_apps::catalog::apps(&[iotse_core::AppId::A2], 42),
        )
        .windows(2)
        .seed(42)
        .with_trace()
        .with_timeline()
        .with_telemetry()
        .run()
    }

    #[test]
    fn chrome_trace_includes_telemetry_counter_track() {
        let result = telemetry_run();
        let json = chrome_trace(&result, &Calibration::paper());
        assert_balanced_json(&json);
        assert!(json.contains("\"name\":\"energy_stack_uj\""));
        assert!(json.contains("\"interrupt\":"));
        assert!(json.contains("\"idle\":"));
        // A fair-weather run raises no alert instants.
        assert!(!json.contains("telemetry_alert"));
    }

    #[test]
    fn prometheus_telemetry_labels_every_point() {
        let result = telemetry_run();
        let text = prometheus(&result);
        assert!(text.contains("# TYPE iotse_energy_stack_interrupt_microjoules gauge"));
        assert!(text.contains("iotse_energy_stack_idle_microjoules{window=\"1\"}"));
        assert!(text.contains("iotse_core_app_slack_ms{app=\"Step counter\",window=\"0\"}"));
        // Deterministic byte-for-byte.
        assert_eq!(text, prometheus(&telemetry_run()));
    }

    #[test]
    fn prom_numbers_are_stable() {
        assert_eq!(prom_number(1200.0), "1200");
        assert_eq!(prom_number(2.5), "2.5");
        assert_eq!(prom_number(0.0), "0");
    }
}
