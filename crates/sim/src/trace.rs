//! Execution tracing: hierarchical spans, typed events, interned labels.
//!
//! A [`TraceLog`] records what happened and when — sensor reads, interrupts,
//! transfers, power-state changes — and *inside what*: work is organized as
//! a tree of [`Span`]s (enter/exit at [`SimTime`], parent links, a `weight`
//! accumulator the executor charges energy into), with point-in-time
//! [`TraceEvent`]s attached to the innermost open span. Experiments use the
//! log to regenerate the paper's Figure 5 timelines, the flamegraph fold
//! reads span weights, and tests assert exact event sequences.
//!
//! Three design rules keep the hot path honest:
//!
//! 1. **Zero cost when disabled.** Every recording method checks
//!    `enabled` before doing *any* work — no interning, no allocation, no
//!    formatting. Callers pass `&'static str` labels and stack-allocated
//!    field slices, so a disabled log costs one branch per call.
//! 2. **No per-entry heap formatting when enabled.** Labels and field names
//!    are interned once into a [`Label`] table; values are typed
//!    [`FieldValue`]s, not preformatted `String`s. Rendering happens only
//!    at export time.
//! 3. **Determinism.** The log is plain data driven by the simulation
//!    clock; two identical runs produce bitwise-identical logs.
//!
//! The `record(time, kind, source, detail)` API records a [`TraceEvent`]
//! whose detail string is interned as a single `msg` field;
//! [`TraceLog::detail`] and [`TraceLog::label`] render any event back to
//! text at export time.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimTime;

/// The kind of a trace entry. Categories mirror the paper's four sub-tasks
/// plus platform housekeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceKind {
    /// A sensor sample was collected at the MCU (Tasks I–III of §II-B).
    SensorRead,
    /// The MCU raised an interrupt to the CPU.
    Interrupt,
    /// Data moved between the MCU board and the Main board.
    DataTransfer,
    /// App-specific computation ran (on CPU or MCU).
    Compute,
    /// A device changed power state.
    PowerState,
    /// Scheme-level bookkeeping (batch flushed, offload dispatched, …).
    Scheme,
    /// QoS accounting (deadline met/missed).
    Qos,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::SensorRead => "sensor-read",
            TraceKind::Interrupt => "interrupt",
            TraceKind::DataTransfer => "data-transfer",
            TraceKind::Compute => "compute",
            TraceKind::PowerState => "power-state",
            TraceKind::Scheme => "scheme",
            TraceKind::Qos => "qos",
        };
        f.write_str(s)
    }
}

/// An interned string: an index into the log's label table.
///
/// Interning happens once per distinct string; recording a span or event
/// with an already-known label is allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u32);

/// The identity of one span in a [`TraceLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u32);

impl SpanId {
    /// The sentinel returned by [`TraceLog::enter_span`] on a disabled log.
    /// Every span operation on it is a no-op, so callers never need to
    /// branch on whether tracing is live.
    pub const DISABLED: SpanId = SpanId(u32::MAX);

    /// Index into [`TraceLog::spans`], or `None` for the disabled sentinel.
    #[must_use]
    pub fn index(self) -> Option<usize> {
        (self != SpanId::DISABLED).then_some(self.0 as usize)
    }

    /// The id of the span at index `i` of [`TraceLog::spans`] (ids are
    /// dense in enter order). For consumers walking a recorded log.
    #[must_use]
    pub fn from_index(i: usize) -> SpanId {
        SpanId(i as u32)
    }
}

/// A typed field value — recorded raw, formatted only at export time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// An unsigned count (bytes, samples, window index…).
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// An interned string.
    Str(Label),
    /// An instant on the simulated clock.
    Time(SimTime),
}

impl FieldValue {
    /// Renders the value with `labels` resolving interned strings.
    fn render(self, labels: &LabelTable) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::Str(l) => labels.resolve(l).to_string(),
            FieldValue::Time(t) => t.to_string(),
        }
    }
}

/// Inline capacity of a [`FieldList`]. The widest field set any recorder
/// attaches (the QoS event's result/window/deadline triple) fits here, so
/// steady-state tracing allocates for label interning only — once per
/// distinct string, never per span or event.
const FIELDS_INLINE: usize = 3;

/// Padding for unused inline slots (the disabled-intern sentinel label).
const FIELD_PAD: (Label, FieldValue) = (Label(u32::MAX), FieldValue::U64(0));

/// A span/event field list with inline storage for up to [`FIELDS_INLINE`]
/// pairs; longer lists spill to the heap. Dereferences to a
/// `[(Label, FieldValue)]` slice, so consumers iterate and index it like
/// the `Vec` it replaced.
#[derive(Debug, Clone)]
pub struct FieldList(FieldStore);

#[derive(Debug, Clone)]
enum FieldStore {
    /// `len` live pairs; slots past `len` hold [`FIELD_PAD`].
    Inline {
        len: u8,
        buf: [(Label, FieldValue); FIELDS_INLINE],
    },
    /// Spilled storage for lists longer than [`FIELDS_INLINE`].
    Heap(Vec<(Label, FieldValue)>),
}

impl FieldList {
    /// An empty list (allocation-free).
    #[must_use]
    pub fn new() -> Self {
        FieldList(FieldStore::Inline {
            len: 0,
            buf: [FIELD_PAD; FIELDS_INLINE],
        })
    }

    /// Appends a pair, spilling to the heap past the inline capacity.
    pub fn push(&mut self, pair: (Label, FieldValue)) {
        match &mut self.0 {
            FieldStore::Inline { len, buf } => {
                if (*len as usize) < FIELDS_INLINE {
                    buf[*len as usize] = pair;
                    *len += 1;
                } else {
                    // lint: cold spill past the inline capacity (> FIELDS_INLINE pairs)
                    let mut spilled = buf.to_vec();
                    spilled.push(pair);
                    self.0 = FieldStore::Heap(spilled);
                }
            }
            FieldStore::Heap(v) => v.push(pair),
        }
    }

    /// The live pairs as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[(Label, FieldValue)] {
        match &self.0 {
            FieldStore::Inline { len, buf } => &buf[..*len as usize],
            FieldStore::Heap(v) => v,
        }
    }
}

impl Default for FieldList {
    fn default() -> Self {
        FieldList::new()
    }
}

impl std::ops::Deref for FieldList {
    type Target = [(Label, FieldValue)];
    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl PartialEq for FieldList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl FromIterator<(Label, FieldValue)> for FieldList {
    fn from_iter<I: IntoIterator<Item = (Label, FieldValue)>>(iter: I) -> Self {
        let mut list = FieldList::new();
        for pair in iter {
            list.push(pair);
        }
        list
    }
}

impl<'a> IntoIterator for &'a FieldList {
    type Item = &'a (Label, FieldValue);
    type IntoIter = std::slice::Iter<'a, (Label, FieldValue)>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The enclosing span, or `None` for a root.
    pub parent: Option<SpanId>,
    /// Category (drives export lane/color).
    pub kind: TraceKind,
    /// Interned span name (e.g. `iotse_core_transfer`).
    pub label: Label,
    /// When the span was entered.
    pub enter: SimTime,
    /// When the span was exited; `None` while still open.
    pub exit: Option<SimTime>,
    /// Accumulated weight. The unit is the caller's; the `iotse` executor
    /// charges **microjoules** of ledger energy here, so folding weights up
    /// the tree reproduces `EnergyLedger::total()` exactly.
    pub weight: f64,
    /// Typed key/value attachments.
    pub fields: FieldList,
}

/// One point-in-time event, attached to the innermost open span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// What category of thing happened.
    pub kind: TraceKind,
    /// The innermost span open at recording time, if any.
    pub span: Option<SpanId>,
    /// Which component reported it (interned; e.g. `"mcu"`, `"link"`).
    pub source: Label,
    /// Typed key/value attachments.
    pub fields: FieldList,
}

/// Aggregate shape of a recorded span tree — cheap to compare and to carry
/// in a `RunResult` without cloning the whole log.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanSummary {
    /// Number of spans recorded.
    pub spans: usize,
    /// Number of point events recorded.
    pub events: usize,
    /// Deepest nesting level (a root span has depth 1; 0 if no spans).
    pub max_depth: usize,
    /// Sum of every span's own weight (for the executor: microjoules).
    pub total_weight: f64,
}

/// The interned-string table.
#[derive(Debug, Clone, Default, PartialEq)]
struct LabelTable {
    strings: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl LabelTable {
    fn intern(&mut self, s: &str) -> Label {
        if let Some(&i) = self.index.get(s) {
            return Label(i);
        }
        let i = self.strings.len() as u32;
        // lint: interning allocates once per distinct label, then hits the map
        self.strings.push(s.to_string());
        // lint: second owned copy keys the lookup map, same once-per-label cost
        self.index.insert(s.to_string(), i);
        Label(i)
    }

    fn resolve(&self, label: Label) -> &str {
        self.strings
            .get(label.0 as usize)
            .map_or("<unknown-label>", String::as_str)
    }
}

/// An append-only, optionally disabled, in-memory structured trace.
///
/// Tracing is off by default so the hot experiment loops pay nothing; tests
/// and the export harnesses enable it explicitly.
///
/// # Examples
///
/// ```
/// use iotse_sim::trace::{FieldValue, TraceKind, TraceLog};
/// use iotse_sim::time::SimTime;
///
/// let mut log = TraceLog::enabled();
/// let run = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_example");
/// log.event(
///     SimTime::from_millis(1),
///     TraceKind::Interrupt,
///     "mcu",
///     &[("bytes", FieldValue::U64(12))],
/// );
/// log.charge_span(run, 42.0);
/// log.exit_span(run, SimTime::from_millis(2));
/// assert_eq!(log.spans().len(), 1);
/// assert_eq!(log.events().len(), 1);
/// assert_eq!(log.count(TraceKind::Interrupt), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    enabled: bool,
    labels: LabelTable,
    spans: Vec<Span>,
    events: Vec<TraceEvent>,
    /// Stack of currently-open spans (indices into `spans`).
    open: Vec<SpanId>,
}

impl TraceLog {
    /// Creates a disabled (zero-cost) trace.
    #[must_use]
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// Creates an enabled trace.
    #[must_use]
    pub fn enabled() -> Self {
        TraceLog {
            enabled: true,
            ..TraceLog::default()
        }
    }

    /// `true` if spans and events are being kept.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (existing spans and events are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Resolves an interned label back to its string.
    #[must_use]
    pub fn label(&self, label: Label) -> &str {
        self.labels.resolve(label)
    }

    // ------------------------------------------------------------ spans --

    /// Opens a span named `label` at `time`, nested under the innermost
    /// open span. Returns [`SpanId::DISABLED`] (on which every operation is
    /// a no-op) when the log is disabled.
    pub fn enter_span(&mut self, time: SimTime, kind: TraceKind, label: &str) -> SpanId {
        if !self.enabled {
            return SpanId::DISABLED;
        }
        let label = self.labels.intern(label);
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            parent: self.open.last().copied(),
            kind,
            label,
            enter: time,
            exit: None,
            weight: 0.0,
            fields: FieldList::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` at `time`. Spans close LIFO: `id` must be the
    /// innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span, or if `time` precedes
    /// its enter time (both are recording bugs, not data conditions).
    pub fn exit_span(&mut self, id: SpanId, time: SimTime) {
        if !self.enabled || id == SpanId::DISABLED {
            return;
        }
        assert!(
            self.open.last() == Some(&id),
            "spans must exit LIFO (exiting {id:?}, innermost is {:?})",
            self.open.last()
        );
        self.open.pop();
        let span = &mut self.spans[id.0 as usize];
        assert!(
            time >= span.enter,
            "span exit ({time}) precedes enter ({})",
            span.enter
        );
        span.exit = Some(time);
    }

    /// Adds `weight` to span `id` (the executor charges microjoules of
    /// ledger energy). No-op on a disabled log or the disabled sentinel.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative — weights only accumulate.
    pub fn charge_span(&mut self, id: SpanId, weight: f64) {
        if !self.enabled || id == SpanId::DISABLED {
            return;
        }
        assert!(weight >= 0.0, "span weight must be non-negative ({weight})");
        self.spans[id.0 as usize].weight += weight;
    }

    /// Attaches a typed field to span `id`. No-op when disabled.
    pub fn span_field(&mut self, id: SpanId, name: &str, value: FieldValue) {
        if !self.enabled || id == SpanId::DISABLED {
            return;
        }
        let name = self.labels.intern(name);
        self.spans[id.0 as usize].fields.push((name, value));
    }

    /// Interns `s` for use in a [`FieldValue::Str`]. Returns a throwaway
    /// label on a disabled log (no field will ever render it).
    pub fn intern(&mut self, s: &str) -> Label {
        if !self.enabled {
            return Label(u32::MAX);
        }
        self.labels.intern(s)
    }

    /// The recorded spans, in enter order. `SpanId(i)` is `spans()[i]`.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The innermost currently-open span, if any.
    #[must_use]
    pub fn current_span(&self) -> Option<SpanId> {
        self.open.last().copied()
    }

    /// Nesting depth of span `id` (a root has depth 1).
    #[must_use]
    pub fn depth(&self, id: SpanId) -> usize {
        let mut depth = 0;
        let mut cursor = id.index();
        while let Some(i) = cursor {
            depth += 1;
            cursor = self.spans[i].parent.and_then(SpanId::index);
        }
        depth
    }

    /// The `;`-joined label path from the root to span `id` — one stack of
    /// the flamegraph fold.
    #[must_use]
    pub fn stack(&self, id: SpanId) -> String {
        let mut parts: Vec<&str> = Vec::new();
        let mut cursor = id.index();
        while let Some(i) = cursor {
            parts.push(self.labels.resolve(self.spans[i].label));
            cursor = self.spans[i].parent.and_then(SpanId::index);
        }
        parts.reverse();
        parts.join(";")
    }

    /// Aggregate shape of the log (span/event counts, depth, total weight).
    #[must_use]
    pub fn summary(&self) -> SpanSummary {
        let mut max_depth = 0;
        let mut total_weight = 0.0;
        for (i, span) in self.spans.iter().enumerate() {
            max_depth = max_depth.max(self.depth(SpanId(i as u32)));
            total_weight += span.weight;
        }
        SpanSummary {
            spans: self.spans.len(),
            events: self.events.len(),
            max_depth,
            total_weight,
        }
    }

    // ----------------------------------------------------------- events --

    /// Records a typed event attached to the innermost open span. The
    /// `fields` slice lives on the caller's stack; nothing is interned or
    /// allocated when the log is disabled.
    pub fn event(
        &mut self,
        time: SimTime,
        kind: TraceKind,
        source: &str,
        fields: &[(&str, FieldValue)],
    ) {
        if !self.enabled {
            return;
        }
        let source = self.labels.intern(source);
        let fields: FieldList = fields
            .iter()
            .map(|&(name, value)| (self.labels.intern(name), value))
            // lint: runs only when a trace sink is enabled (early return above)
            .collect();
        self.events.push(TraceEvent {
            time,
            kind,
            span: self.open.last().copied(),
            source,
            fields,
        });
    }

    /// Records an event with a free-text detail if enabled. The detail
    /// string still allocates when enabled; hot paths should prefer
    /// [`TraceLog::event`] (typed fields) or [`TraceLog::record_with`]
    /// (lazy detail).
    pub fn record(
        &mut self,
        time: SimTime,
        kind: TraceKind,
        source: impl Into<String>,
        detail: impl Into<String>,
    ) {
        if !self.enabled {
            return;
        }
        let detail: String = detail.into();
        let detail = self.labels.intern(&detail);
        self.event_with_msg(time, kind, &source.into(), detail);
    }

    /// Records an entry whose detail is built only when the log is enabled
    /// — use when the detail genuinely needs formatting (error strings).
    pub fn record_with(
        &mut self,
        time: SimTime,
        kind: TraceKind,
        source: &str,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        let detail = detail();
        let detail = self.labels.intern(&detail);
        self.event_with_msg(time, kind, source, detail);
    }

    fn event_with_msg(&mut self, time: SimTime, kind: TraceKind, source: &str, msg: Label) {
        let source = self.labels.intern(source);
        let name = self.labels.intern("msg");
        let mut fields = FieldList::new();
        fields.push((name, FieldValue::Str(msg)));
        self.events.push(TraceEvent {
            time,
            kind,
            span: self.open.last().copied(),
            source,
            fields,
        });
    }

    /// The recorded events, in recording order (which is time order within
    /// each engine callback, and the engine only moves forward).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders one event's fields as a human-readable detail string: the
    /// bare `msg` value for [`TraceLog::record`] events, `k=v` pairs
    /// otherwise.
    #[must_use]
    pub fn detail(&self, event: &TraceEvent) -> String {
        match event.fields.as_slice() {
            [(name, FieldValue::Str(msg))] if self.labels.resolve(*name) == "msg" => {
                self.labels.resolve(*msg).to_string()
            }
            fields => {
                let mut out = String::new();
                for (i, &(name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(self.labels.resolve(name));
                    out.push('=');
                    out.push_str(&value.render(&self.labels));
                }
                out
            }
        }
    }

    /// Number of events of `kind`.
    #[must_use]
    pub fn count(&self, kind: TraceKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Iterator over events of `kind`.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Drops all spans, events and the open stack (labels stay interned).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.events.clear();
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(SimTime::ZERO, TraceKind::Compute, "cpu", "x");
        log.event(
            SimTime::ZERO,
            TraceKind::Compute,
            "cpu",
            &[("n", FieldValue::U64(1))],
        );
        let span = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_test");
        assert_eq!(span, SpanId::DISABLED);
        log.charge_span(span, 5.0);
        log.exit_span(span, SimTime::from_millis(1));
        assert!(log.events().is_empty());
        assert!(log.spans().is_empty());
        assert!(!log.is_enabled());
        assert_eq!(log.summary(), SpanSummary::default());
    }

    #[test]
    fn enabled_log_keeps_order_and_counts() {
        let mut log = TraceLog::enabled();
        log.record(SimTime::from_millis(1), TraceKind::Interrupt, "mcu", "a");
        log.record(
            SimTime::from_millis(2),
            TraceKind::DataTransfer,
            "link",
            "b",
        );
        log.record(SimTime::from_millis(3), TraceKind::Interrupt, "mcu", "c");
        assert_eq!(log.count(TraceKind::Interrupt), 2);
        assert_eq!(log.count(TraceKind::DataTransfer), 1);
        assert_eq!(log.count(TraceKind::Compute), 0);
        let ints: Vec<String> = log
            .of_kind(TraceKind::Interrupt)
            .map(|e| log.detail(e))
            .collect();
        assert_eq!(ints, vec!["a", "c"]);
    }

    #[test]
    fn toggling_preserves_existing_entries() {
        let mut log = TraceLog::enabled();
        log.record(SimTime::ZERO, TraceKind::Qos, "exec", "kept");
        log.set_enabled(false);
        log.record(SimTime::ZERO, TraceKind::Qos, "exec", "dropped");
        assert_eq!(log.count(TraceKind::Qos), 1);
        log.set_enabled(true);
        log.record(SimTime::ZERO, TraceKind::Qos, "exec", "kept2");
        assert_eq!(log.count(TraceKind::Qos), 2);
    }

    #[test]
    fn display_formats_are_readable() {
        let mut log = TraceLog::enabled();
        log.record(
            SimTime::from_millis(5),
            TraceKind::SensorRead,
            "mcu",
            "S4 sample 12B",
        );
        let e = &log.events()[0];
        assert_eq!(
            format!(
                "[{}] {} {}: {}",
                e.time,
                e.kind,
                log.label(e.source),
                log.detail(e)
            ),
            "[t+5ms] sensor-read mcu: S4 sample 12B"
        );
    }

    #[test]
    fn spans_nest_and_carry_weight() {
        let mut log = TraceLog::enabled();
        let root = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_root");
        let child = log.enter_span(
            SimTime::from_millis(1),
            TraceKind::Compute,
            "iotse_sim_leaf",
        );
        log.charge_span(child, 2.5);
        log.charge_span(child, 0.5);
        log.exit_span(child, SimTime::from_millis(3));
        log.charge_span(root, 1.0);
        log.exit_span(root, SimTime::from_millis(4));
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].weight, 3.0);
        assert_eq!(spans[1].exit, Some(SimTime::from_millis(3)));
        assert_eq!(log.depth(child), 2);
        assert_eq!(log.stack(child), "iotse_sim_root;iotse_sim_leaf");
        let summary = log.summary();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.max_depth, 2);
        assert_eq!(summary.total_weight, 4.0);
    }

    #[test]
    fn events_attach_to_the_innermost_open_span() {
        let mut log = TraceLog::enabled();
        log.event(SimTime::ZERO, TraceKind::Qos, "exec", &[]);
        let root = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_root");
        log.event(
            SimTime::from_millis(1),
            TraceKind::DataTransfer,
            "link",
            &[("bytes", FieldValue::U64(2400))],
        );
        log.exit_span(root, SimTime::from_millis(2));
        log.event(SimTime::from_millis(3), TraceKind::Qos, "exec", &[]);
        let events = log.events();
        assert_eq!(events[0].span, None);
        assert_eq!(events[1].span, Some(root));
        assert_eq!(events[2].span, None);
        assert_eq!(log.detail(&events[1]), "bytes=2400");
    }

    #[test]
    fn field_lists_hold_inline_then_spill() {
        let mut log = TraceLog::enabled();
        let span = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_wide");
        for i in 0..5u64 {
            log.span_field(span, "k", FieldValue::U64(i));
        }
        log.exit_span(span, SimTime::ZERO);
        let k = log.intern("k");
        let fields = &log.spans()[0].fields;
        assert_eq!(fields.len(), 5);
        for (i, &(name, value)) in fields.iter().enumerate() {
            assert_eq!(name, k);
            assert_eq!(value, FieldValue::U64(i as u64));
        }
        // Equality is by contents, inline or spilled.
        let a: FieldList = (0..2u64).map(|i| (k, FieldValue::U64(i))).collect();
        let b: FieldList = (0..2u64).map(|i| (k, FieldValue::U64(i))).collect();
        assert_eq!(a, b);
        assert_ne!(a, FieldList::new());
    }

    #[test]
    fn labels_are_interned_once() {
        let mut log = TraceLog::enabled();
        let a = log.intern("iotse_sim_x");
        let b = log.intern("iotse_sim_x");
        assert_eq!(a, b);
        assert_eq!(log.label(a), "iotse_sim_x");
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_exit_panics() {
        let mut log = TraceLog::enabled();
        let a = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_a");
        let _b = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_b");
        log.exit_span(a, SimTime::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "precedes enter")]
    fn backwards_exit_panics() {
        let mut log = TraceLog::enabled();
        let a = log.enter_span(SimTime::from_millis(5), TraceKind::Scheme, "iotse_sim_a");
        log.exit_span(a, SimTime::from_millis(1));
    }

    #[test]
    fn record_with_is_lazy_when_disabled() {
        let mut log = TraceLog::disabled();
        let mut called = false;
        log.record_with(SimTime::ZERO, TraceKind::SensorRead, "mcu", || {
            called = true;
            "expensive".to_string()
        });
        assert!(!called, "detail closure ran on a disabled log");
        log.set_enabled(true);
        log.record_with(SimTime::ZERO, TraceKind::SensorRead, "mcu", || {
            "built".to_string()
        });
        assert_eq!(log.detail(&log.events()[0]), "built");
    }

    #[test]
    fn clear_drops_data_but_keeps_enablement() {
        let mut log = TraceLog::enabled();
        let s = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_s");
        log.exit_span(s, SimTime::ZERO);
        log.record(SimTime::ZERO, TraceKind::Qos, "exec", "x");
        log.clear();
        assert!(log.spans().is_empty());
        assert!(log.events().is_empty());
        assert!(log.is_enabled());
    }
}
