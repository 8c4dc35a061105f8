//! The rule set.
//!
//! Each rule is one module exporting an `ID`, a short `SUMMARY`, and a
//! `check` function. Per-file rules take one [`SourceFile`]; the
//! paper-constant audit ([`table1`]) takes the whole workspace because it
//! joins sources against `specs/table1.toml`; the scenario-corpus audit
//! ([`scenario_files`]) reads `scenarios/*.toml` off the root directly;
//! the call-graph rules
//! ([`memo_purity`], [`seed_streams`], [`hot_path`]) take the
//! [`crate::Analysis`] built from the symbol-table/effect pipeline.
//!
//! | ID | rule |
//! |----|------|
//! | `IOTSE-W01` | no wall-clock reads outside the bench stopwatch |
//! | `IOTSE-D02` | no hash-ordered collections in deterministic crates |
//! | `IOTSE-D03` | no ambient state (`static mut`, thread rng, `std::env`) |
//! | `IOTSE-E04` | no `unwrap`/`expect`/`panic!` in model library code |
//! | `IOTSE-C05` | no bare numeric `as` casts in energy accounting |
//! | `IOTSE-T06` | source constants must match `specs/table1.toml` |
//! | `IOTSE-A07` | every `#[allow]` needs a `// lint:` justification |
//! | `IOTSE-P08` | public items in `core` need doc comments |
//! | `IOTSE-M09` | metric/span labels must match `iotse_<crate>_<name>` |
//! | `IOTSE-K10` | kernel `Vec` allocations need a `// lint:` justification |
//! | `IOTSE-M11` | memoizable kernels must be transitively pure |
//! | `IOTSE-S12` | `SeedTree` split labels must be auditable and disjoint |
//! | `IOTSE-H13` | hot-path functions must be transitively allocation-free |
//! | `IOTSE-F14` | scenario corpus files must pass `ScenarioSpec::parse` |
//!
//! [`SourceFile`]: crate::scan::SourceFile

pub mod allow_inventory;
pub mod ambient;
pub mod casts;
pub mod doc_coverage;
pub mod hash_iter;
pub mod hot_path;
pub mod kernel_alloc;
pub mod memo_purity;
pub mod metric_names;
pub mod scenario_files;
pub mod seed_streams;
pub mod table1;
pub mod unwrap_panic;
pub mod wallclock;

/// Crates whose library code must be deterministic and replayable.
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "sim", "energy", "sensors"];

/// Crates whose library code must not panic (rule `IOTSE-E04`).
pub const NO_PANIC_CRATES: &[&str] = &["core", "sim", "energy"];

/// `(id, summary)` for every rule, in ID order — the `explain` listing.
pub const ALL: &[(&str, &str)] = &[
    (wallclock::ID, wallclock::SUMMARY),
    (hash_iter::ID, hash_iter::SUMMARY),
    (ambient::ID, ambient::SUMMARY),
    (unwrap_panic::ID, unwrap_panic::SUMMARY),
    (casts::ID, casts::SUMMARY),
    (table1::ID, table1::SUMMARY),
    (allow_inventory::ID, allow_inventory::SUMMARY),
    (doc_coverage::ID, doc_coverage::SUMMARY),
    (metric_names::ID, metric_names::SUMMARY),
    (kernel_alloc::ID, kernel_alloc::SUMMARY),
    (memo_purity::ID, memo_purity::SUMMARY),
    (seed_streams::ID, seed_streams::SUMMARY),
    (hot_path::ID, hot_path::SUMMARY),
    (scenario_files::ID, scenario_files::SUMMARY),
];

/// `(id, kind, rationale)` — the catalogue detail behind `rules
/// --markdown`. `kind` names the analysis depth (token scan vs
/// call-graph); `rationale` says what breaks when the rule is violated.
pub const DETAILS: &[(&str, &str, &str)] = &[
    (
        "IOTSE-W01",
        "token scan",
        "`Instant`/`SystemTime` reads outside the bench stopwatch make replays irreproducible; all simulated time flows from `SimTime`.",
    ),
    (
        "IOTSE-D02",
        "token scan",
        "`HashMap`/`HashSet` iteration order varies per process, so any output derived from it breaks bitwise determinism in the model crates; use the `BTree` forms.",
    ),
    (
        "IOTSE-D03",
        "token scan",
        "`static mut`, thread-local RNG, and `std::env` reads smuggle ambient state into runs, so the same seed stops producing the same trace.",
    ),
    (
        "IOTSE-E04",
        "token scan",
        "a panicking library path aborts a fleet run mid-experiment and loses the energy ledger; model crates must return errors instead.",
    ),
    (
        "IOTSE-C05",
        "token scan",
        "bare `as` casts silently saturate or truncate energy quantities; conversions in accounting code must be checked or documented.",
    ),
    (
        "IOTSE-T06",
        "workspace audit",
        "paper constants quoted in code must match `specs/table1.toml`, the single ground truth for Table I, or the reproduction drifts from the paper.",
    ),
    (
        "IOTSE-A07",
        "token scan",
        "every `#[allow(..)]` must carry a `// lint: <reason>` justification so suppressions stay an auditable inventory, not a leak.",
    ),
    (
        "IOTSE-P08",
        "item parse",
        "public API items in `core` need doc comments; effective visibility is computed from the item parse, so `pub(crate)`/`pub(super)` items and `pub` items inside private modules are not counted as public API.",
    ),
    (
        "IOTSE-M09",
        "token scan",
        "metric and span labels must match `iotse_<crate>_<name>` so the observability namespace stays greppable and collision-free.",
    ),
    (
        "IOTSE-K10",
        "token scan",
        "`Vec` allocations in kernel hot paths need a `// lint: <reason>` justification; the scratch-arena work keeps steady-state windows allocation-free.",
    ),
    (
        "IOTSE-M11",
        "call graph",
        "a `Workload` whose `memoizable()` returns `true` must be transitively pure from `compute` — no RNG draws, no `static mut`, no interior-mutability writes, no wall clock — or `compute_cache` replays stale outputs; violations print the call path to the offending primitive.",
    ),
    (
        "IOTSE-S12",
        "call graph",
        "every `SeedTree` split label is resolved statically (literals, `format!` templates with placeholders normalized to `{*}`, `let`/field-traced namespaces); two consuming splits (`stream`/`streams`/`child`) on one full path mean correlated RNG streams and are rejected, as are labels that cannot be audited at all.",
    ),
    (
        "IOTSE-H13",
        "call graph",
        "functions annotated `// iotse-lint: hot-path` must have an allocation-free transitive call graph; deliberate allocations are waived site-by-site with `// lint: <reason>`, turning the bench alloc counters into a structural guarantee.",
    ),
    (
        "IOTSE-F14",
        "workspace audit",
        "every `scenarios/*.toml` must pass `iotse_core::scenario_spec::ScenarioSpec::parse`, the grammar's only definition — sections, keys, explicit seeds, weights, app, scheme, sensor, fault and expectation names, value ranges — so a malformed corpus file fails lint, at the line of its first error, before the slower `scenario check` sweep runs it.",
    ),
];

/// Renders the rule catalogue as the markdown document committed at
/// `crates/lint/RULES.md`. CI regenerates it and fails on drift, so the
/// checked-in file always matches the compiled rule set.
#[must_use]
pub fn catalogue_markdown() -> String {
    let mut out = String::new();
    out.push_str("# iotse-lint rules\n\n");
    out.push_str(
        "Generated by `iotse-lint rules --markdown` — do not edit by hand.\n\
         Regenerate with:\n\n\
         ```sh\n\
         cargo run -p iotse-lint -- rules --markdown > crates/lint/RULES.md\n\
         ```\n\n",
    );
    out.push_str("| ID | analysis | summary |\n|----|----------|---------|\n");
    for (id, summary) in ALL {
        let kind = DETAILS
            .iter()
            .find(|(did, _, _)| did == id)
            .map_or("", |&(_, kind, _)| kind);
        out.push_str(&format!("| `{id}` | {kind} | {summary} |\n"));
    }
    out.push('\n');
    for (id, kind, rationale) in DETAILS {
        let summary = ALL
            .iter()
            .find(|(aid, _)| aid == id)
            .map_or("", |&(_, s)| s);
        out.push_str(&format!(
            "## `{id}` — {summary}\n\n*Analysis:* {kind}.\n\n{rationale}\n\n"
        ));
    }
    // Suppression and justification conventions apply uniformly.
    out.push_str(
        "## Suppressions\n\n\
         Any finding can be waived with `// iotse-lint: allow(<RULE-ID>)` on\n\
         the finding's line or the line above it. Allocation rules\n\
         (`IOTSE-K10`, `IOTSE-H13`) additionally accept a `// lint: <reason>`\n\
         justification at the allocation site itself, which waives the site\n\
         for every caller; `IOTSE-A07` keeps the `#[allow]` inventory honest\n\
         the same way. Hot paths are declared with `// iotse-lint: hot-path`\n\
         above the function (attributes and doc comments may sit between).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn details_cover_every_rule_in_order() {
        assert_eq!(ALL.len(), DETAILS.len());
        for ((aid, _), (did, _, _)) in ALL.iter().zip(DETAILS.iter()) {
            assert_eq!(aid, did);
        }
    }

    #[test]
    fn catalogue_lists_every_rule() {
        let md = catalogue_markdown();
        for (id, _) in ALL {
            assert!(
                md.contains(&format!("| `{id}` |")),
                "{id} missing from table"
            );
            assert!(md.contains(&format!("## `{id}`")), "{id} missing a section");
        }
    }
}
