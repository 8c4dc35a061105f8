//! # iotse-benchmark — the repository's end-to-end benchmark
//!
//! Four workloads, each a user command run in-process through the library
//! calls its command-line tool makes: `figures all` + `figures sweeps`
//! (`paper-repro`), `scenario check scenarios/` (`corpus-check`), a
//! 60-window two-app run under every scheme (`long-horizon`) and `inspect`
//! in every export format (`inspect-export`). A timed run reports the
//! end-to-end metrics; a traced run times the calls into each layer from
//! these files and reports the per-layer metrics. Every pass is checked
//! against a reference digest made independently of it.
//!
//! See `README.md` beside this crate for the protocol and the metrics.

pub mod alloc;
pub mod clock;
pub mod layers;
pub mod reference;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
