//! Energy flamegraphs: fold a span tree's energy charges up the stack.
//!
//! The executor in `iotse-core` attributes every microjoule the
//! [`EnergyLedger`](crate::attribution::EnergyLedger) accrues to the span
//! that caused it (span weights are microjoules — see the `weight` field of
//! [`iotse_sim::trace::Span`]). Folding those weights up the parent links
//! turns a run into the paper's missing visual: *which part of the
//! execution did the energy go to*, stacked hierarchically, exactly the
//! "energy stack" abstraction EStacker argues for.
//!
//! Two renderings are provided:
//!
//! * [`FlameGraph::folded`] — the inferno-/FlameGraph-compatible collapsed
//!   format, one `stack;sub;leaf value` line per distinct stack, weighted
//!   by **nanojoules** (integer, so downstream tooling never sees float
//!   formatting jitter).
//! * [`FlameGraph::table`] — a per-label self/total table in microjoules.
//!
//! # Exactness
//!
//! [`FlameGraph::total_microjoules`] sums span weights left-to-right in
//! span order — bit-for-bit the same float operations the executor used
//! when it attributed the charges — so for an instrumented run it equals
//! `EnergyLedger::total().as_microjoules()` *exactly*, not approximately.
//! Tests assert `==` on it, not a tolerance.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use iotse_sim::trace::{Label, SpanId, TraceLog};

/// One folded stack: every span sharing a root-to-leaf label path
/// aggregates into a single frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedStack {
    /// `;`-joined label path from the root span.
    pub stack: String,
    /// Energy attributed directly to spans with this path, in microjoules.
    pub self_microjoules: f64,
    /// Number of spans that folded into this stack.
    pub spans: usize,
}

/// Aggregated self/total energy for one span label.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTotals {
    /// The span label (e.g. `iotse_core_transfer`).
    pub label: String,
    /// Number of spans with this label.
    pub count: usize,
    /// Energy charged directly to these spans, in microjoules.
    pub self_microjoules: f64,
    /// Self energy plus everything charged inside their subtrees.
    pub total_microjoules: f64,
}

/// The folded energy view of one run's span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FlameGraph {
    /// Raw span weights in span order (microjoules).
    weights: Vec<f64>,
    /// Folded stacks, sorted by stack path.
    stacks: Vec<FoldedStack>,
    /// Per-label self/total rollup, sorted by label.
    frames: Vec<FrameTotals>,
}

/// Folds the span tree of `trace` into a [`FlameGraph`].
///
/// Paths are interned rather than rebuilt per span. Spans with the same
/// `;`-joined path form one *path class*; a span's class is looked up by
/// `(parent's class, label)`, and because parents precede their children
/// in span order one forward pass assigns every class. A new key's joined
/// path is built once and matched against the known paths by string, so
/// two distinct span paths whose strings collide (labels may contain `;`)
/// still merge into one stack. Weights accumulate per class and per label
/// in span order: every sum is the same float operations as a fold keyed
/// by each span's joined string.
#[must_use]
pub fn fold(trace: &TraceLog) -> FlameGraph {
    let spans = trace.spans();
    let weights: Vec<f64> = spans.iter().map(|s| s.weight).collect();

    // Subtree totals, bottom-up. A span's parent always precedes it in the
    // span list (parents are entered first), so a reverse walk sees every
    // child before its parent.
    let mut totals = weights.clone();
    for i in (0..spans.len()).rev() {
        if let Some(p) = spans[i].parent.and_then(SpanId::index) {
            totals[p] += totals[i];
        }
    }

    let mut interned: BTreeMap<(Option<usize>, Label), usize> = BTreeMap::new();
    let mut by_path: BTreeMap<String, usize> = BTreeMap::new();
    let mut paths: Vec<String> = Vec::new();
    let mut sums: Vec<(f64, usize)> = Vec::new();
    let mut span_class: Vec<usize> = Vec::with_capacity(spans.len());
    let mut by_label: BTreeMap<Label, (usize, f64, f64)> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .and_then(SpanId::index)
            .and_then(|p| span_class.get(p).copied());
        let class = if let Some(&class) = interned.get(&(parent, span.label)) {
            class
        } else {
            let label = trace.label(span.label);
            let path =
                parent.map_or_else(|| label.to_string(), |c| format!("{};{label}", paths[c]));
            let class = *by_path.entry(path.clone()).or_insert(paths.len());
            if class == paths.len() {
                paths.push(path);
                sums.push((0.0, 0));
            }
            interned.insert((parent, span.label), class);
            class
        };
        span_class.push(class);
        sums[class].0 += weights[i];
        sums[class].1 += 1;
        let frame = by_label.entry(span.label).or_insert((0, 0.0, 0.0));
        frame.0 += 1;
        frame.1 += weights[i];
        frame.2 += totals[i];
    }

    let mut frames: Vec<FrameTotals> = by_label
        .into_iter()
        .map(|(label, (count, s, t))| FrameTotals {
            label: trace.label(label).to_string(),
            count,
            self_microjoules: s,
            total_microjoules: t,
        })
        .collect();
    frames.sort_by(|a, b| a.label.cmp(&b.label));

    FlameGraph {
        weights,
        stacks: by_path
            .into_iter()
            .map(|(stack, class)| {
                let (self_microjoules, spans) = sums[class];
                FoldedStack {
                    stack,
                    self_microjoules,
                    spans,
                }
            })
            .collect(),
        frames,
    }
}

impl FlameGraph {
    /// The folded stacks, sorted by stack path.
    #[must_use]
    pub fn stacks(&self) -> &[FoldedStack] {
        &self.stacks
    }

    /// The per-label self/total rollup, sorted by label.
    #[must_use]
    pub fn frames(&self) -> &[FrameTotals] {
        &self.frames
    }

    /// Total attributed energy: span weights summed left-to-right in span
    /// order — the exact float operations the instrumented executor
    /// performed, so this equals the run's `EnergyLedger::total()` bitwise.
    #[must_use]
    pub fn total_microjoules(&self) -> f64 {
        let mut acc = 0.0;
        for &w in &self.weights {
            acc += w;
        }
        acc
    }

    /// The inferno-compatible collapsed format: one `path value` line per
    /// distinct stack, sorted by path, weighted by integer nanojoules.
    /// Zero-weight stacks (pure structural spans) are kept so the tree
    /// shape survives even where no energy landed.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            let _ = writeln!(
                out,
                "{} {}",
                s.stack,
                microjoules_to_nanojoules(s.self_microjoules)
            );
        }
        out
    }

    /// A fixed-width self/total table in microjoules, sorted by label.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out =
            String::from("label                        count        self-uJ       total-uJ\n");
        for f in &self.frames {
            let _ = writeln!(
                out,
                "{:<28} {:>5} {:>14.3} {:>14.3}",
                f.label, f.count, f.self_microjoules, f.total_microjoules
            );
        }
        out
    }
}

/// Converts a microjoule weight to integer nanojoules: round-to-nearest,
/// negatives clamped to zero. The single audited float→int site of the
/// folded export — after `.round().max(0.0)` the value is a non-negative
/// integer, and a run's total energy in nanojoules sits far below 2^53,
/// so the cast can neither truncate nor wrap.
fn microjoules_to_nanojoules(uj: f64) -> u64 {
    // iotse-lint: allow(IOTSE-C05) audited conversion helper; see doc comment above
    (uj * 1e3).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_sim::time::SimTime;
    use iotse_sim::trace::{TraceKind, TraceLog};

    fn sample_trace() -> TraceLog {
        let mut log = TraceLog::enabled();
        let root = log.enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_energy_run");
        let a = log.enter_span(SimTime::ZERO, TraceKind::Compute, "iotse_energy_a");
        log.charge_span(a, 10.0);
        log.exit_span(a, SimTime::from_millis(1));
        let b = log.enter_span(
            SimTime::from_millis(1),
            TraceKind::Compute,
            "iotse_energy_b",
        );
        log.charge_span(b, 2.5);
        let leaf = log.enter_span(
            SimTime::from_millis(1),
            TraceKind::DataTransfer,
            "iotse_energy_a",
        );
        log.charge_span(leaf, 0.5);
        log.exit_span(leaf, SimTime::from_millis(2));
        log.exit_span(b, SimTime::from_millis(2));
        log.exit_span(root, SimTime::from_millis(3));
        log
    }

    #[test]
    fn totals_fold_up_the_tree() {
        let graph = fold(&sample_trace());
        assert_eq!(graph.total_microjoules(), 13.0);
        let root = graph
            .frames()
            .iter()
            .find(|f| f.label == "iotse_energy_run")
            .expect("root frame");
        assert_eq!(root.self_microjoules, 0.0);
        assert_eq!(root.total_microjoules, 13.0);
        // "iotse_energy_a" appears twice: a direct child and a nested leaf.
        let a = graph
            .frames()
            .iter()
            .find(|f| f.label == "iotse_energy_a")
            .expect("a frame");
        assert_eq!(a.count, 2);
        assert_eq!(a.self_microjoules, 10.5);
        assert_eq!(a.total_microjoules, 10.5);
    }

    #[test]
    fn folded_lines_are_sorted_and_in_nanojoules() {
        let graph = fold(&sample_trace());
        let folded = graph.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "iotse_energy_run 0",
                "iotse_energy_run;iotse_energy_a 10000",
                "iotse_energy_run;iotse_energy_b 2500",
                "iotse_energy_run;iotse_energy_b;iotse_energy_a 500",
            ]
        );
    }

    #[test]
    fn table_lists_every_label() {
        let graph = fold(&sample_trace());
        let table = graph.table();
        assert!(table.contains("iotse_energy_run"));
        assert!(table.contains("iotse_energy_a"));
        assert!(table.contains("iotse_energy_b"));
    }

    #[test]
    fn empty_trace_folds_to_nothing() {
        let graph = fold(&TraceLog::disabled());
        assert_eq!(graph.total_microjoules(), 0.0);
        assert!(graph.stacks().is_empty());
        assert!(graph.folded().is_empty());
    }
}
