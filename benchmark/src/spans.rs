//! Host-time spans recorded from the benchmark's own files, around its
//! calls into each layer's public functions.
//!
//! Spans are kept in memory (name, start, end, parent, pass id, replay
//! flag) and written out once the run ends, as Chrome `trace_event` JSON
//! and as folded stacks of self time in nanoseconds. A span's self time is
//! its duration minus the union of its children's intervals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use iotse_apps::kernels::json::Json;
use iotse_core::Workload;

use crate::clock::now_ns;
use crate::layers::{KernelClock, Timed};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `executor.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the benchmark's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the benchmark's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass (or traced round) the span belongs to.
    pub pass: u32,
    /// An estimate replayed outside the run, not an in-run measurement.
    pub replay: bool,
}

impl Span {
    /// Wall time the span covers.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The instrumentation a pass runs under: spans plus the kernel-timing
/// decorator. A disabled tracer records nothing and leaves apps unwrapped,
/// so untraced passes run exactly the code a command runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    replay: bool,
    kernels: Arc<KernelClock>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            replay: false,
            kernels: Arc::default(),
        }
    }

    /// A recording tracer.
    #[must_use]
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    /// Tags the spans that follow with `pass`, marking them as replayed
    /// estimates when `replay` is set.
    pub fn tag(&mut self, pass: u32, replay: bool) {
        self.pass = pass;
        self.replay = replay;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
            replay: self.replay,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now_ns();
        }
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The kernel-timing decorator: wraps apps when tracing, passes them
    /// through untouched otherwise.
    #[must_use]
    pub fn decorator(&self) -> Decorator {
        Decorator(self.enabled.then(|| Arc::clone(&self.kernels)))
    }

    /// The clock the decorator charges kernel time to.
    #[must_use]
    pub fn kernels(&self) -> &KernelClock {
        &self.kernels
    }
}

/// Wraps apps in [`Timed`] for a tracing [`Tracer`]; `Sync`, so a fleet's
/// app factory can hold it.
#[derive(Debug, Clone)]
pub struct Decorator(Option<Arc<KernelClock>>);

impl Decorator {
    /// `app`, timed when the tracer that made this decorator records.
    #[must_use]
    pub fn wrap(&self, app: Box<dyn Workload>) -> Box<dyn Workload> {
        match &self.0 {
            Some(clock) => Box::new(Timed::new(app, Arc::clone(clock))),
            None => app,
        }
    }
}

/// Summed duration of the spans named `name` among `spans`.
#[must_use]
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Self time of span `i`: its duration minus the union of the intervals
/// of its children `kids`, clipped to it.
fn self_time(spans: &[Span], i: usize, kids: &[usize]) -> u64 {
    let (lo, hi) = (spans[i].start_ns, spans[i].end_ns);
    let mut cover: Vec<(u64, u64)> = kids
        .iter()
        .map(|&k| (spans[k].start_ns.max(lo), spans[k].end_ns.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    spans[i].duration_ns() - covered
}

/// Folded stacks of self time in host nanoseconds, one `a;b;c ns` line per
/// distinct stack, sorted — the format `inspect --format folded` writes, so
/// the same flamegraph tools draw it. Replayed spans sit under a `replay`
/// root frame.
#[must_use]
pub fn folded(spans: &[Span]) -> String {
    let kids = children(spans);
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..spans.len() {
        let mut frames = vec![spans[i].name];
        let mut at = spans[i].parent;
        while let Some(p) = at {
            frames.push(spans[p].name);
            at = spans[p].parent;
        }
        if spans[i].replay {
            frames.push("replay");
        }
        frames.reverse();
        *stacks.entry(frames.join(";")).or_default() += self_time(spans, i, &kids[i]);
    }
    let mut out = String::new();
    for (stack, ns) in stacks {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// Chrome `trace_event` JSON: one complete (`X`) event per span, in
/// microseconds, with the pass id and the replay flag as arguments.
#[must_use]
pub fn chrome(spans: &[Span]) -> String {
    let us = |ns: u64| {
        // lint: host nanoseconds since process start stay far below 2^53
        #[allow(clippy::cast_precision_loss)]
        let x = ns as f64 / 1_000.0;
        Json::Number(x)
    };
    let events = spans.iter().map(|s| {
        Json::object([
            ("name", Json::String(s.name.to_string())),
            (
                "cat",
                Json::String(if s.replay { "replay" } else { "host" }.to_string()),
            ),
            ("ph", Json::String("X".to_string())),
            ("ts", us(s.start_ns)),
            ("dur", us(s.duration_ns())),
            ("pid", Json::Number(1.0)),
            ("tid", Json::Number(1.0)),
            (
                "args",
                Json::object([
                    ("pass", Json::Number(f64::from(s.pass))),
                    ("replay", Json::Bool(s.replay)),
                ]),
            ),
        ])
    });
    let mut text = Json::object([("traceEvents", Json::array(events))]).to_text();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_ns(spans: &[Span], i: usize) -> u64 {
        self_time(spans, i, &children(spans)[i])
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
            replay: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 70);
        assert_eq!(self_ns(&spans, 1), 12);
        assert_eq!(self_ns(&spans, 2), 10);
        assert_eq!(self_ns(&spans, 3), 8);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' spans overlap in [20, 40) and one spills past the
        // parent's end: the union covers [10, 60) within [0, 60).
        let spans = [
            span("fleet", 0, 60, None),
            span("w0", 10, 40, Some(0)),
            span("w1", 20, 70, Some(0)),
            span("w2", 25, 35, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 10);
    }

    #[test]
    fn folded_stacks_sum_self_time_per_path() {
        let mut spans = vec![
            span("pass", 0, 100, None),
            span("executor.run", 10, 40, Some(0)),
            span("executor.run", 50, 80, Some(0)),
        ];
        let mut replay = span("replay.queue", 100, 110, None);
        replay.replay = true;
        spans.push(replay);
        assert_eq!(
            folded(&spans),
            "pass 40\npass;executor.run 60\nreplay;replay.queue 10\n"
        );
    }

    #[test]
    fn tracer_nests_and_tags_spans() {
        let mut tr = Tracer::enabled();
        tr.tag(3, false);
        tr.open("pass");
        tr.open("setup");
        tr.close();
        tr.close();
        tr.tag(3, true);
        tr.open("replay.sensors");
        tr.close();
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].pass), (Some(0), 3));
        assert!(s[2].replay && s[2].parent.is_none());
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let json = chrome(s);
        assert!(Json::parse(&json).is_ok());
        assert!(json.contains("\"cat\":\"replay\""));

        let mut off = Tracer::disabled();
        off.open("pass");
        off.close();
        assert!(off.spans().is_empty());
    }
}
