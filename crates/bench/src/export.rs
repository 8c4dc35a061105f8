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
//! * [`prometheus`] — the Prometheus text exposition format for a
//!   [`MetricsReport`] (counters, gauges, and cumulative-bucket
//!   histograms).

use std::fmt::Write as _;

use iotse_core::{Calibration, RunResult, Telemetry};
use iotse_energy::attribution::Routine;
use iotse_energy::stacks::stack_series_name;
use iotse_sim::metrics::MetricsReport;
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

/// Renders a [`MetricsReport`] in the Prometheus text exposition format:
/// a `# TYPE` line per family, cumulative `_bucket{le="..."}` series plus
/// `_sum`/`_count` for histograms. Families appear in name order (the
/// report is already stable-sorted).
#[must_use]
pub fn prometheus(report: &MetricsReport) -> String {
    let mut out = String::new();
    for (name, value) in &report.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &report.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", prom_number(*value));
    }
    for hist in &report.histograms {
        let _ = writeln!(out, "# TYPE {} histogram", hist.name);
        let mut cumulative = 0u64;
        for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
            cumulative += count;
            let _ = writeln!(
                out,
                "{}_bucket{{le=\"{}\"}} {cumulative}",
                hist.name,
                prom_number(*bound)
            );
        }
        let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", hist.name, hist.count);
        let _ = writeln!(out, "{}_sum {}", hist.name, prom_number(hist.sum));
        let _ = writeln!(out, "{}_count {}", hist.name, hist.count);
    }
    out
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

/// Renders a run's windowed telemetry in the Prometheus text exposition
/// format, for appending after [`prometheus`]: every stack and app series
/// point becomes a `{window="N"}`-labeled gauge sample (app series carry
/// an `app` label too), followed by a per-series alert count family.
/// Everything is emitted in fixed order (routine series in
/// [`Routine::ALL`] order, apps in scenario order), so the text is
/// byte-identical across runs and `--jobs` levels.
#[must_use]
pub fn prometheus_telemetry(tel: &Telemetry) -> String {
    let mut out = String::new();
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
    if !tel.apps.is_empty() {
        let _ = writeln!(
            out,
            "# TYPE {} gauge",
            iotse_core::telemetry::APP_SLACK_SERIES
        );
        for app in &tel.apps {
            let name = prom_label_escape(&app.name);
            for (w, &(_, v)) in app.slack_ms.points().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{}{{app=\"{name}\",window=\"{w}\"}} {}",
                    iotse_core::telemetry::APP_SLACK_SERIES,
                    prom_number(v)
                );
            }
        }
        let _ = writeln!(
            out,
            "# TYPE {} gauge",
            iotse_core::telemetry::APP_PROCESSING_SERIES
        );
        for app in &tel.apps {
            let name = prom_label_escape(&app.name);
            for (w, &(_, v)) in app.processing_ms.points().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{}{{app=\"{name}\",window=\"{w}\"}} {}",
                    iotse_core::telemetry::APP_PROCESSING_SERIES,
                    prom_number(v)
                );
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_core::{Scenario, Scheme};
    use iotse_sim::metrics::MetricsRegistry;

    fn traced_run() -> RunResult {
        Scenario::new(
            Scheme::Batching,
            iotse_apps::catalog::apps(&[iotse_core::AppId::A2], 42),
        )
        .windows(1)
        .seed(42)
        .with_trace()
        .with_timeline()
        .with_metrics()
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
        let tel = result.telemetry.as_mut().expect("telemetry on");
        tel.apps[0].name = name.to_string();
        let text = prometheus_telemetry(tel);
        assert!(text.contains(
            "iotse_core_app_slack_ms{app=\"Step\tcounter \\\"v2\\\"\\\\\\n\",window=\"0\"}"
        ));
        assert!(!text.contains("\\t") && !text.contains("\\u00"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("iotse_bench_things_total");
        reg.add(c, 7);
        let g = reg.gauge("iotse_bench_level");
        reg.set_gauge(g, 2.5);
        let h = reg.histogram("iotse_bench_sizes", &[10.0, 100.0]);
        reg.observe(h, 5.0);
        reg.observe(h, 50.0);
        reg.observe(h, 500.0);
        let text = prometheus(&reg.snapshot());
        let expected = "\
# TYPE iotse_bench_things_total counter
iotse_bench_things_total 7
# TYPE iotse_bench_level gauge
iotse_bench_level 2.5
# TYPE iotse_bench_sizes histogram
iotse_bench_sizes_bucket{le=\"10\"} 1
iotse_bench_sizes_bucket{le=\"100\"} 2
iotse_bench_sizes_bucket{le=\"+Inf\"} 3
iotse_bench_sizes_sum 555
iotse_bench_sizes_count 3
";
        assert_eq!(text, expected);
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
        let tel = result.telemetry.as_ref().expect("telemetry on");
        let text = prometheus_telemetry(tel);
        assert!(text.contains("# TYPE iotse_energy_stack_interrupt_microjoules gauge"));
        assert!(text.contains("iotse_energy_stack_idle_microjoules{window=\"1\"}"));
        assert!(text.contains("iotse_core_app_slack_ms{app=\"Step counter\",window=\"0\"}"));
        // Deterministic byte-for-byte.
        let again = telemetry_run();
        assert_eq!(
            text,
            prometheus_telemetry(again.telemetry.as_ref().unwrap())
        );
    }

    #[test]
    fn prom_numbers_are_stable() {
        assert_eq!(prom_number(1200.0), "1200");
        assert_eq!(prom_number(2.5), "2.5");
        assert_eq!(prom_number(0.0), "0");
    }
}
