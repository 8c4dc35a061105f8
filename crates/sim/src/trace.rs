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
//! 2. **Flat storage, no per-entry heap work when enabled.** A log keeps
//!    three growable arrays — spans, events and one field arena they share
//!    — plus its label table. A [`Span`] (56 bytes) and a [`TraceEvent`]
//!    (32 bytes) hold plain data and a [`Fields`] range into the arena, so
//!    recording one only appends. The arrays grow by doubling unless
//!    [`TraceLog::reserve`] sized them up front, and
//!    [`TraceLog::shrink_to_fit`] drops the slack once recording ends.
//!    Labels and field names are interned into a [`Label`] through an
//!    open-addressed FNV-1a index, so a string allocates once, the first
//!    time it is seen; values are typed [`FieldValue`]s, not preformatted
//!    `String`s. Rendering happens only at export time. A hot call site
//!    with fixed strings skips even the lookup: it interns each string
//!    once into a slot ([`TraceLog::intern_once`]) and passes the labels
//!    to the `_label` variants of the recording methods.
//! 3. **Determinism.** The log is plain data driven by the simulation
//!    clock; two identical runs produce bitwise-identical logs. Labels are
//!    numbered in first-use order, and the intern index is only probed,
//!    never iterated.
//!
//! The `record(time, kind, source, detail)` API records a [`TraceEvent`]
//! whose detail string is interned as a single `msg` field;
//! [`TraceLog::detail`] and [`TraceLog::label`] render any event back to
//! text at export time.

use std::fmt;

use crate::hash::{fnv1a, FNV_OFFSET};
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

impl TraceKind {
    /// The kind's display name (`"sensor-read"`, `"interrupt"`, …), which
    /// exporters write as the entry's category.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            TraceKind::SensorRead => "sensor-read",
            TraceKind::Interrupt => "interrupt",
            TraceKind::DataTransfer => "data-transfer",
            TraceKind::Compute => "compute",
            TraceKind::PowerState => "power-state",
            TraceKind::Scheme => "scheme",
            TraceKind::Qos => "qos",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
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

/// Where one span's or event's typed fields sit in its log's field arena:
/// a run of `len` pairs from `start`. Resolve it with [`TraceLog::fields`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fields {
    start: u32,
    len: u32,
}

impl Fields {
    /// Number of fields attached.
    #[must_use]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` if nothing is attached.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
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
    /// Typed key/value attachments, read through [`TraceLog::fields`].
    pub fields: Fields,
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
    /// Typed key/value attachments, read through [`TraceLog::fields`].
    pub fields: Fields,
}

/// Aggregate shape of a recorded span tree, cheap to compare; see
/// [`TraceLog::summary`].
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

/// A free slot of the intern index.
const EMPTY_SLOT: u32 = u32::MAX;

/// The intern index's first size; it doubles whenever it would pass half
/// full.
const INDEX_MIN: usize = 64;

/// The interned-string table: each label's one owned copy, numbered in
/// first-use order, and an open-addressed index over their FNV-1a hashes
/// that maps a string to its number.
#[derive(Debug, Clone, Default, PartialEq)]
struct LabelTable {
    strings: Vec<String>,
    /// Linear-probed slots holding label numbers, or [`EMPTY_SLOT`]. Its
    /// length is zero or a power of two, and it is at most half full.
    index: Box<[u32]>,
}

impl LabelTable {
    /// The slot that holds `s`, or the free slot where it belongs.
    fn probe(&self, s: &str) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = fnv1a(FNV_OFFSET, s.as_bytes()) as usize & mask;
        loop {
            let i = self.index[slot];
            if i == EMPTY_SLOT || self.strings[i as usize] == s {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn intern(&mut self, s: &str) -> Label {
        if 2 * (self.strings.len() + 1) > self.index.len() {
            self.grow();
        }
        let slot = self.probe(s);
        if self.index[slot] == EMPTY_SLOT {
            self.index[slot] = self.strings.len() as u32;
            // lint: interning allocates once per distinct label, then hits the index
            self.strings.push(s.to_string());
        }
        Label(self.index[slot])
    }

    /// Doubles the index and re-inserts every label.
    fn grow(&mut self) {
        let len = (2 * self.index.len()).max(INDEX_MIN);
        // lint: the index doubles only as distinct labels pass half its size
        self.index = vec![EMPTY_SLOT; len].into_boxed_slice();
        for (i, s) in self.strings.iter().enumerate() {
            let slot = self.probe(s);
            self.index[slot] = i as u32;
        }
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
/// let bytes = log.intern("bytes");
/// assert_eq!(
///     log.fields(log.events()[0].fields),
///     &[(bytes, FieldValue::U64(12))]
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    enabled: bool,
    labels: LabelTable,
    spans: Vec<Span>,
    events: Vec<TraceEvent>,
    /// The field arena: every span's and event's fields, each entry's as
    /// one contiguous run that its [`Fields`] names.
    fields: Vec<(Label, FieldValue)>,
    /// The innermost open span. Spans close LIFO, so the spans open
    /// around it are its parent chain.
    current: Option<SpanId>,
}

// A `RunResult` holds its log inline, and every buffer of results pays for
// each byte the log adds.
const _: () = assert!(std::mem::size_of::<TraceLog>() <= 128);

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
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (existing spans and events are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Makes room for `spans` more spans, `events` more events and
    /// `fields` more fields, so a recorder that knows its size up front
    /// fills the log without regrowing it. No-op when disabled.
    pub fn reserve(&mut self, spans: usize, events: usize, fields: usize) {
        if !self.enabled {
            return;
        }
        self.spans.reserve_exact(spans);
        self.events.reserve_exact(events);
        self.fields.reserve_exact(fields);
    }

    /// Releases the spare capacity of the span, event and field arrays —
    /// call it once recording is over, so a kept log holds no growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        self.events.shrink_to_fit();
        self.fields.shrink_to_fit();
    }

    /// Resolves an interned label back to its string.
    #[must_use]
    pub fn label(&self, label: Label) -> &str {
        self.labels.resolve(label)
    }

    /// The typed fields of a span or event of this log, in the order they
    /// were attached.
    #[must_use]
    pub fn fields(&self, fields: Fields) -> &[(Label, FieldValue)] {
        &self.fields[fields.range()]
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
        self.enter_span_label(time, kind, label)
    }

    /// [`TraceLog::enter_span`] with the name already interned, for call
    /// sites that intern their name once (see [`TraceLog::intern_once`]).
    #[inline]
    pub fn enter_span_label(&mut self, time: SimTime, kind: TraceKind, label: Label) -> SpanId {
        if !self.enabled {
            return SpanId::DISABLED;
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            parent: self.current,
            kind,
            label,
            enter: time,
            exit: None,
            weight: 0.0,
            fields: Fields {
                start: self.fields.len() as u32,
                len: 0,
            },
        });
        self.current = Some(id);
        id
    }

    /// Closes span `id` at `time`. Spans close LIFO: `id` must be the
    /// innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span, or if `time` precedes
    /// its enter time (both are recording bugs, not data conditions).
    #[inline]
    pub fn exit_span(&mut self, id: SpanId, time: SimTime) {
        if !self.enabled || id == SpanId::DISABLED {
            return;
        }
        assert!(
            self.current == Some(id),
            "spans must exit LIFO (exiting {id:?}, innermost is {:?})",
            self.current
        );
        let span = &mut self.spans[id.0 as usize];
        assert!(
            time >= span.enter,
            "span exit ({time}) precedes enter ({})",
            span.enter
        );
        span.exit = Some(time);
        self.current = span.parent;
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
    ///
    /// A span's fields stay one run of the arena: if a nested span or an
    /// event has added fields since this span's last one, the span's run is
    /// first copied to the arena's end (the old copy is left unused).
    pub fn span_field(&mut self, id: SpanId, name: &str, value: FieldValue) {
        if !self.enabled || id == SpanId::DISABLED {
            return;
        }
        let name = self.labels.intern(name);
        self.span_field_label(id, name, value);
    }

    /// [`TraceLog::span_field`] with the field name already interned.
    #[inline]
    pub fn span_field_label(&mut self, id: SpanId, name: Label, value: FieldValue) {
        if !self.enabled || id == SpanId::DISABLED {
            return;
        }
        let fields = &mut self.spans[id.0 as usize].fields;
        let run = fields.range();
        if run.end != self.fields.len() {
            fields.start = self.fields.len() as u32;
            self.fields.extend_from_within(run);
        }
        self.fields.push((name, value));
        fields.len += 1;
    }

    /// Interns `s` for use in a [`FieldValue::Str`]. Returns a throwaway
    /// label on a disabled log (no field will ever render it).
    pub fn intern(&mut self, s: &str) -> Label {
        if !self.enabled {
            return Label(u32::MAX);
        }
        self.labels.intern(s)
    }

    /// The label `slot` holds, interning `s` into it first if it is empty:
    /// a call site that records a fixed string keeps its label in a slot
    /// and pays one intern lookup per log instead of one per record. A
    /// slot belongs to one log. On a disabled log this returns a throwaway
    /// label and leaves `slot` untouched.
    #[inline]
    pub fn intern_once(&mut self, slot: &mut Option<Label>, s: &str) -> Label {
        if !self.enabled {
            return Label(u32::MAX);
        }
        // lint: fills the slot once per log; every later call reads it
        *slot.get_or_insert_with(|| self.labels.intern(s))
    }

    /// [`TraceLog::intern_once`] for a string that needs building: `s`
    /// runs only when the log is enabled and `slot` is empty.
    #[inline]
    pub fn intern_once_with(
        &mut self,
        slot: &mut Option<Label>,
        s: impl FnOnce() -> String,
    ) -> Label {
        if !self.enabled {
            return Label(u32::MAX);
        }
        // lint: fills the slot once per log; every later call reads it
        *slot.get_or_insert_with(|| self.labels.intern(&s()))
    }

    /// The recorded spans, in enter order. `SpanId(i)` is `spans()[i]`.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The innermost currently-open span, if any.
    #[must_use]
    pub fn current_span(&self) -> Option<SpanId> {
        self.current
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
        let start = self.fields.len() as u32;
        for &(name, value) in fields {
            let name = self.labels.intern(name);
            self.fields.push((name, value));
        }
        self.push_event(time, kind, source, start);
    }

    /// [`TraceLog::event`] with the source and field names already
    /// interned.
    #[inline]
    pub fn event_label(
        &mut self,
        time: SimTime,
        kind: TraceKind,
        source: Label,
        fields: &[(Label, FieldValue)],
    ) {
        if !self.enabled {
            return;
        }
        let start = self.fields.len() as u32;
        self.fields.extend_from_slice(fields);
        self.push_event(time, kind, source, start);
    }

    /// Records an event with a free-text detail if enabled. Nothing is
    /// formatted; a detail seen before is not copied again.
    pub fn record(&mut self, time: SimTime, kind: TraceKind, source: &str, detail: &str) {
        if !self.enabled {
            return;
        }
        let detail = self.labels.intern(detail);
        let source = self.labels.intern(source);
        self.record_label(time, kind, source, detail);
    }

    /// [`TraceLog::record`] with the source and the detail already
    /// interned.
    #[inline]
    pub fn record_label(&mut self, time: SimTime, kind: TraceKind, source: Label, detail: Label) {
        if !self.enabled {
            return;
        }
        // lint: recording only; a label search outweighs the call
        let name = self.labels.intern("msg");
        let start = self.fields.len() as u32;
        self.fields.push((name, FieldValue::Str(detail)));
        self.push_event(time, kind, source, start);
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
        let source = self.labels.intern(source);
        self.record_label(time, kind, source, detail);
    }

    /// Appends an event whose fields are the arena's run from `start` to
    /// its end.
    #[inline]
    fn push_event(&mut self, time: SimTime, kind: TraceKind, source: Label, start: u32) {
        self.events.push(TraceEvent {
            time,
            kind,
            span: self.current,
            source,
            fields: Fields {
                start,
                len: self.fields.len() as u32 - start,
            },
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
        match self.fields(event.fields) {
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

    /// Drops all spans, events and fields, and closes every open span
    /// without recording an exit (labels stay interned).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.events.clear();
        self.fields.clear();
        self.current = None;
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
    fn wide_field_lists_keep_their_order() {
        let mut log = TraceLog::enabled();
        let span = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_wide");
        for i in 0..5u64 {
            log.span_field(span, "k", FieldValue::U64(i));
        }
        log.exit_span(span, SimTime::ZERO);
        let k = log.intern("k");
        let fields = log.fields(log.spans()[0].fields);
        assert_eq!(fields.len(), 5);
        for (i, &(name, value)) in fields.iter().enumerate() {
            assert_eq!(name, k);
            assert_eq!(value, FieldValue::U64(i as u64));
        }
    }

    #[test]
    fn span_fields_added_after_a_nested_entry_move_to_the_arena_end() {
        let mut log = TraceLog::enabled();
        let root = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_sim_root");
        log.span_field(root, "a", FieldValue::U64(1));
        let child = log.enter_span(SimTime::ZERO, TraceKind::Compute, "iotse_sim_leaf");
        log.span_field(child, "b", FieldValue::U64(2));
        log.event(
            SimTime::ZERO,
            TraceKind::Qos,
            "exec",
            &[("c", FieldValue::U64(3))],
        );
        log.span_field(root, "d", FieldValue::I64(-4));
        log.span_field(child, "e", FieldValue::U64(5));
        log.exit_span(child, SimTime::ZERO);
        log.exit_span(root, SimTime::ZERO);
        let render = |fields: Fields| -> Vec<String> {
            log.fields(fields)
                .iter()
                .map(|&(n, v)| format!("{}={}", log.label(n), v.render(&log.labels)))
                .collect()
        };
        assert_eq!(render(log.spans()[0].fields), ["a=1", "d=-4"]);
        assert_eq!(render(log.spans()[1].fields), ["b=2", "e=5"]);
        assert_eq!(log.detail(&log.events()[0]), "c=3");
    }

    #[test]
    fn interning_numbers_labels_in_first_use_order() {
        let mut log = TraceLog::enabled();
        // Enough distinct labels to grow the index several times.
        let labels: Vec<Label> = (0..500).map(|i| log.intern(&format!("l{i}"))).collect();
        for (i, &l) in labels.iter().enumerate() {
            assert_eq!(l, Label(i as u32));
            assert_eq!(log.intern(&format!("l{i}")), l);
            assert_eq!(log.label(l), format!("l{i}"));
        }
        assert_eq!(log.intern(""), Label(500));
        assert_eq!(log.label(Label(500)), "");
        assert_eq!(log.label(Label(501)), "<unknown-label>");
    }

    /// The same recording made through the string methods and through the
    /// label methods with `intern_once` slots: equal logs, label numbers
    /// included.
    #[test]
    fn label_variants_record_what_the_string_methods_record() {
        let mut by_str = TraceLog::enabled();
        let mut by_label = TraceLog::enabled();
        let mut slots = [None; 6];
        for i in 0..3u64 {
            let t = SimTime::from_millis(i);
            let s = by_str.enter_span(t, TraceKind::SensorRead, "iotse_sim_tick");
            by_str.span_field(s, "window", FieldValue::U64(i));
            by_str.event(
                t,
                TraceKind::Interrupt,
                "mcu",
                &[("bytes", FieldValue::U64(i))],
            );
            by_str.record(t, TraceKind::SensorRead, "mcu", "fault: dropout");
            by_str.record_with(t, TraceKind::SensorRead, "link", || format!("x{i}"));
            by_str.exit_span(s, t);

            let [tick, window, mcu, bytes, dropout, link] = &mut slots;
            let l = &mut by_label;
            let name = l.intern_once(tick, "iotse_sim_tick");
            let s = l.enter_span_label(t, TraceKind::SensorRead, name);
            let field = l.intern_once(window, "window");
            l.span_field_label(s, field, FieldValue::U64(i));
            let source = l.intern_once(mcu, "mcu");
            let field = l.intern_once(bytes, "bytes");
            l.event_label(
                t,
                TraceKind::Interrupt,
                source,
                &[(field, FieldValue::U64(i))],
            );
            let msg = l.intern_once_with(dropout, || "fault: dropout".to_string());
            let source = l.intern_once(mcu, "mcu");
            l.record_label(t, TraceKind::SensorRead, source, msg);
            let msg = l.intern(&format!("x{i}"));
            let source = l.intern_once(link, "link");
            l.record_label(t, TraceKind::SensorRead, source, msg);
            l.exit_span(s, t);
        }
        assert_eq!(by_label, by_str);
        assert_eq!(by_label.detail(&by_label.events()[1]), "fault: dropout");
    }

    #[test]
    fn a_disabled_log_leaves_slots_empty() {
        let mut log = TraceLog::disabled();
        let mut slot = None;
        log.intern_once(&mut slot, "mcu");
        log.intern_once_with(&mut slot, || unreachable!("built on a disabled log"));
        assert_eq!(slot, None);
        let span = log.enter_span_label(SimTime::ZERO, TraceKind::Scheme, Label(0));
        assert_eq!(span, SpanId::DISABLED);
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
        assert!(log.fields.is_empty());
        assert!(log.events().is_empty());
        assert!(log.is_enabled());
    }
}
