//! `iotse-lint` — the workspace's in-tree static analyzer.
//!
//! PR 1 made every figure bitwise-deterministic, but only dynamically
//! (golden CSVs, determinism tests). This crate is the static half of that
//! guarantee: ten rules that scan the workspace source for the patterns
//! which historically break replayability (wall-clock reads, hash-ordered
//! iteration, ambient state), erode the energy model (panicking library
//! paths, silent casts), let the paper's Table I constants drift from
//! the code (`specs/table1.toml` audit), fragment the observability
//! namespace (metric/span label naming), or reintroduce per-window heap
//! allocations into the kernel hot paths (`Vec` use without a `// lint:`
//! justification).
//!
//! Run it as `cargo run -p iotse-lint -- check` (add `--json` for machine
//! output). Findings print as `file:line: RULE-ID message`; a finding can
//! be waived in place with `// iotse-lint: allow(RULE-ID)` on its line or
//! the line above. See DESIGN.md's *Static guarantees* section for the
//! rule catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod effects;
pub mod extract;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;

use std::path::{Path, PathBuf};

use scan::SourceFile;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative, `/`-separated path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule ID (`IOTSE-…`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Builds a finding anchored in a scanned source file.
    #[must_use]
    pub fn new(file: &SourceFile, line: usize, rule: &'static str, message: String) -> Finding {
        Finding::at(&file.rel_path, line, rule, message)
    }

    /// Builds a finding anchored at an arbitrary path (e.g. the TOML ground
    /// truth, which is not a scanned Rust file).
    #[must_use]
    pub fn at(path: &str, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: path.to_string(),
            line,
            rule,
            message,
        }
    }
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];
/// The fixture tree ships deliberate violations; the workspace scan must
/// not see them.
const FIXTURES: &str = "crates/lint/tests/fixtures";

/// Errors from walking or reading the tree.
#[derive(Debug)]
pub struct ScanError(pub String);

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScanError {}

/// Collects and parses every `.rs` file under `root` (sorted, so results
/// are deterministic across filesystems), skipping build output, VCS
/// metadata, and the linter's own fixture tree.
///
/// # Errors
///
/// Returns [`ScanError`] if a directory cannot be listed or a file read.
pub fn scan_workspace(root: &Path) -> Result<Vec<SourceFile>, ScanError> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| ScanError(format!("read {rel}: {e}")))?;
        files.push(SourceFile::parse(&rel, &text));
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), ScanError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| ScanError(format!("list {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| ScanError(format!("list {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || rel == FIXTURES {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// The whole-workspace analysis state shared by the call-graph rules:
/// the symbol table, the resolved call graph, and the effect summaries
/// closed to a fixpoint. Built once per check run.
#[derive(Debug)]
pub struct Analysis<'a> {
    /// Symbol table over every parsed file.
    pub syms: symbols::Symbols<'a>,
    /// Resolved call graph, indexed by [`symbols::FnId`].
    pub graph: callgraph::CallGraph,
    /// Per-function effect summaries (local + transitive).
    pub effects: effects::Effects,
}

impl<'a> Analysis<'a> {
    /// Runs the parse → symbols → call-graph → effects pipeline.
    #[must_use]
    pub fn build(root: &Path, files: &'a [SourceFile]) -> Analysis<'a> {
        let syms = symbols::Symbols::build(root, files);
        let graph = callgraph::CallGraph::build(&syms);
        let effects = effects::Effects::analyze(&syms, &graph);
        Analysis {
            syms,
            graph,
            effects,
        }
    }
}

/// Runs every rule over the tree at `root` and returns the surviving
/// findings, sorted by `(file, line, rule, message)` with per-line
/// suppressions already applied.
///
/// # Errors
///
/// Returns [`ScanError`] if the tree cannot be read.
pub fn run_check(root: &Path) -> Result<Vec<Finding>, ScanError> {
    Ok(check_files(root, scan_workspace(root)?))
}

/// Runs every rule over an already-scanned file set. Files are re-sorted
/// by path first, so findings — including call-graph witness paths — are
/// independent of discovery order.
#[must_use]
pub fn check_files(root: &Path, mut files: Vec<SourceFile>) -> Vec<Finding> {
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    let mut findings = Vec::new();
    for file in &files {
        rules::wallclock::check(file, &mut findings);
        rules::hash_iter::check(file, &mut findings);
        rules::ambient::check(file, &mut findings);
        rules::unwrap_panic::check(file, &mut findings);
        rules::casts::check(file, &mut findings);
        rules::allow_inventory::check(file, &mut findings);
        rules::metric_names::check(file, &mut findings);
        rules::kernel_alloc::check(file, &mut findings);
    }
    rules::table1::check(root, &files, &mut findings);
    rules::scenario_files::check(root, &mut findings);

    let analysis = Analysis::build(root, &files);
    rules::memo_purity::check(&analysis, &mut findings);
    rules::seed_streams::check(&files, &mut findings);
    rules::hot_path::check(&analysis, &mut findings);
    rules::inline_path::check(&analysis, &mut findings);

    let by_path: std::collections::BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    findings.retain(|f| {
        by_path
            .get(f.file.as_str())
            .is_none_or(|src| !src.is_suppressed(f.line, f.rule))
    });
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings.dedup();
    findings
}
