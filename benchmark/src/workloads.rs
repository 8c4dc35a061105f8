//! The four workloads and the pass protocol.
//!
//! Each workload is one user command run in-process through the same
//! public library calls its command-line tool makes. A pass starts from
//! the state a fresh process sees — both global caches cleared — then
//! builds its inputs (the set-up phase), runs, and digests every output the
//! tool would print. Digesting stands in for printing and is left out of
//! the pass time.

use std::fmt::Display;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use iotse_apps::catalog;
use iotse_bench::config::ExperimentConfig;
use iotse_bench::figures::{
    fig01, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig13, tables,
};
use iotse_bench::inspect::{self, InspectFormat, InspectRequest};
use iotse_bench::scenario::{corpus_files, counters, render_text};
use iotse_bench::sweeps::{dma, dvfs, error_rate, mcu_speed, transition};
use iotse_core::scenario_spec::{output_checksum, SpecExpectation};
use iotse_core::{compute_cache, run_spec, AppId, RunResult, ScenarioSpec, Scheme};
use iotse_sensors::signal::cache as signal_cache;

use crate::alloc::COUNTERS;
use crate::clock::now_ns;
use crate::layers::RunDesc;
use crate::spans::Tracer;
use crate::stats::fnv1a;

/// The seed the committed scenario files run at unchanged.
pub const COMMITTED_SEED: u64 = 42;

/// The apps `long-horizon` and `inspect-export` run: the step counter and
/// the earthquake detector, sharing the 1 kHz accelerometer.
pub const PAIR: &[AppId] = &[AppId::A2, AppId::A7];

/// Windows per `long-horizon` run.
pub const LONG_HORIZON_WINDOWS: u32 = 60;

/// Where `corpus-check` reads its scenario files, relative to the root.
pub const CORPUS_DIR: &str = "scenarios";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `figures all` then `figures sweeps`.
    PaperRepro,
    /// `scenario check scenarios/`.
    CorpusCheck,
    /// A2+A7 for 60 windows under each scheme, recording off.
    LongHorizon,
    /// `inspect` on A2+A7 under each scheme, in every export format.
    InspectExport,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::PaperRepro,
        Kind::CorpusCheck,
        Kind::LongHorizon,
        Kind::InspectExport,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperRepro => "paper-repro",
            Kind::CorpusCheck => "corpus-check",
            Kind::LongHorizon => "long-horizon",
            Kind::InspectExport => "inspect-export",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Lists the known names.
    pub fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown workload '{name}' ({})", names.join(", "))
            })
    }
}

fn line(out: &mut String, x: impl Display) {
    let _ = writeln!(out, "{x}");
}

/// Renders one `figures` target exactly as the `figures` binary prints it.
type Render = fn(&ExperimentConfig, &mut String);

/// The targets of `figures all` then `figures sweeps`, in print order,
/// each as its span name (`figures.<target>`) and its renderer.
pub const TARGETS: [(&str, Render); 19] = [
    ("figures.table1", |_, o| line(o, tables::table1())),
    ("figures.table2", |c, o| line(o, tables::table2(c))),
    ("figures.fig1", |c, o| line(o, fig01::run(c))),
    ("figures.fig3", |c, o| line(o, fig03::run(c))),
    ("figures.fig4", |c, o| line(o, fig04::run(c))),
    ("figures.fig5", |c, o| line(o, fig05::run(c))),
    ("figures.fig6", |c, o| line(o, fig06::run(c))),
    ("figures.fig7", |c, o| line(o, fig07::run(c))),
    ("figures.fig8", |c, o| line(o, fig08::run(c))),
    ("figures.fig9", |c, o| line(o, fig09::run(c))),
    ("figures.fig10", |c, o| line(o, fig10::run(c))),
    ("figures.fig11", |c, o| line(o, fig11::run(c))),
    ("figures.fig12", |c, o| line(o, fig12::run(c))),
    ("figures.fig13", |c, o| line(o, fig13::run(c))),
    ("figures.sweep-transition", |c, o| {
        line(o, transition::run(c))
    }),
    ("figures.sweep-mcu", |c, o| {
        for id in [AppId::A2, AppId::A8] {
            line(o, mcu_speed::run(c, id));
        }
    }),
    ("figures.sweep-dma", |c, o| line(o, dma::run(c))),
    ("figures.sweep-dvfs", |c, o| line(o, dvfs::run(c))),
    ("figures.sweep-errors", |c, o| line(o, error_rate::run(c))),
];

/// Span names of the `inspect` renderings, in `InspectFormat::ALL` order.
pub const RENDER_SPANS: [&str; 8] = [
    "inspect.render.chrome",
    "inspect.render.folded",
    "inspect.render.table",
    "inspect.render.metrics",
    "inspect.render.timeline",
    "inspect.render.stacks",
    "inspect.render.alerts",
    "inspect.render.series",
];

/// A workload at one seed, with its inputs read from disk once.
#[derive(Debug, Clone)]
pub struct Bench {
    /// The workload.
    pub kind: Kind,
    /// The seed every input is made from.
    pub seed: u64,
    corpus_dir: PathBuf,
    corpus: Vec<String>,
}

/// What one pass measured and produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Cache clears plus input construction.
    pub setup_ns: u64,
    /// The whole pass, set-up included, digesting excluded.
    pub pass_ns: u64,
    /// Peak live heap above the level after the cache clears.
    pub peak_bytes: u64,
    /// Allocations during the pass.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// One FNV-1a digest per output the command would print, in order.
    pub digests: Vec<u64>,
    /// Scenario expectations graded (`corpus-check`).
    pub expectations: u64,
    /// Scenario expectations that failed (`corpus-check`).
    pub expectations_failed: u64,
    /// `(hits, misses)` of the compute cache during the pass.
    pub compute_cache: (u64, u64),
    /// `(hits, misses)` of the signal cache during the pass.
    pub signal_cache: (u64, u64),
    /// `(calls, ns)` the kernel-timing decorator saw (traced passes).
    pub kernels: (u64, u64),
    /// The runs this pass built and ran itself, with their event and
    /// sensor-read counts (`long-horizon`).
    pub runs: Vec<(RunDesc, u64, u64)>,
}

/// The built inputs of one pass.
enum Input {
    Figures(ExperimentConfig),
    Corpus(Vec<ScenarioSpec>),
    Runs(Vec<(RunDesc, iotse_core::Scenario)>),
    Inspect(Vec<InspectRequest>),
}

/// Collects output digests; the hashing time is kept apart so the pass
/// time leaves it out.
#[derive(Default)]
struct Outputs {
    digests: Vec<u64>,
    hashing_ns: u64,
}

impl Outputs {
    fn emit(&mut self, text: &str) {
        let start = now_ns();
        self.digests.push(fnv1a(text.as_bytes()));
        self.hashing_ns += now_ns() - start;
    }
}

/// Appends the line a long-horizon run is checked by: its totals and a
/// checksum over every kernel output.
pub fn run_line(out: &mut String, r: &RunResult) {
    let _ = writeln!(
        out,
        "{} energy_uj={:016x} events={} reads={} interrupts={} bytes={} outputs={:016x}",
        r.scheme,
        r.total_energy().as_microjoules().to_bits(),
        r.events_executed,
        r.sensor_reads,
        r.interrupts,
        r.bytes_transferred,
        output_checksum(std::slice::from_ref(r)),
    );
}

/// The committed scenario as a different seed sees it: every seed offset by
/// `seed − 42`, and the seed-specific output checksums dropped.
fn reseed(mut spec: ScenarioSpec, seed: u64) -> ScenarioSpec {
    if seed == COMMITTED_SEED {
        return spec;
    }
    let delta = seed.wrapping_sub(COMMITTED_SEED);
    spec.seed = spec.seed.wrapping_add(delta);
    for f in &mut spec.faults {
        f.seed = f.seed.wrapping_add(delta);
    }
    spec.expectations
        .retain(|e| !matches!(e, SpecExpectation::OutputChecksum { .. }));
    spec
}

impl Bench {
    /// The workload at `seed`; `corpus-check` reads its scenario files from
    /// `root/scenarios` here, once.
    ///
    /// # Errors
    ///
    /// Reports an unreadable or empty scenario directory.
    pub fn new(kind: Kind, seed: u64, root: &Path) -> Result<Bench, String> {
        let corpus_dir = root.join(CORPUS_DIR);
        let corpus = if kind == Kind::CorpusCheck {
            corpus_files(&corpus_dir)?
                .iter()
                .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Bench {
            kind,
            seed,
            corpus_dir,
            corpus,
        })
    }

    /// The scenario directory `corpus-check` reads.
    #[must_use]
    pub fn corpus_dir(&self) -> &Path {
        &self.corpus_dir
    }

    /// The runs `long-horizon` makes, or the bare twins of the `inspect`
    /// runs (same `Scenario` settings, recording off).
    #[must_use]
    pub fn run_descs(&self) -> Vec<RunDesc> {
        let (windows, demo_faults) = match self.kind {
            Kind::InspectExport => (InspectRequest::default().windows, true),
            _ => (LONG_HORIZON_WINDOWS, false),
        };
        Scheme::ALL
            .into_iter()
            .map(|scheme| RunDesc {
                scheme,
                apps: PAIR,
                windows,
                seed: self.seed,
                demo_faults,
            })
            .collect()
    }

    /// One pass on a `jobs`-wide fleet, from cleared caches.
    ///
    /// # Panics
    ///
    /// Panics if a committed scenario file no longer parses.
    pub fn pass(&self, jobs: usize, tr: &mut Tracer) -> Pass {
        let (allocs0, bytes0) = COUNTERS.snapshot();
        let kernels0 = tr.kernels().read();
        let start = now_ns();
        tr.open("pass");
        tr.open("setup");
        compute_cache::clear();
        signal_cache::clear();
        let heap_base = COUNTERS.reset_peak();
        let signal0 = signal_cache::stats();
        let input = self.setup(tr);
        tr.close();
        let setup_ns = now_ns() - start;

        let mut pass = Pass {
            setup_ns,
            ..Pass::default()
        };
        let mut outputs = Outputs::default();
        self.execute(input, jobs, tr, &mut outputs, &mut pass);
        tr.close();
        pass.pass_ns = now_ns() - start - outputs.hashing_ns;

        pass.peak_bytes = COUNTERS.peak().saturating_sub(heap_base);
        let (allocs1, bytes1) = COUNTERS.snapshot();
        pass.allocs = allocs1 - allocs0;
        pass.alloc_bytes = bytes1 - bytes0;
        pass.digests = outputs.digests;
        let cc = compute_cache::stats();
        pass.compute_cache = (cc.hits, cc.misses);
        let signal1 = signal_cache::stats();
        pass.signal_cache = (signal1.0 - signal0.0, signal1.1 - signal0.1);
        let kernels1 = tr.kernels().read();
        pass.kernels = (kernels1.0 - kernels0.0, kernels1.1 - kernels0.1);
        pass
    }

    fn setup(&self, tr: &mut Tracer) -> Input {
        match self.kind {
            Kind::PaperRepro => Input::Figures(ExperimentConfig {
                seed: self.seed,
                ..ExperimentConfig::default()
            }),
            Kind::CorpusCheck => Input::Corpus(
                self.corpus
                    .iter()
                    .map(|text| {
                        tr.open("scenario_spec.parse");
                        let spec = ScenarioSpec::parse(text);
                        tr.close();
                        // A committed file that stops parsing is a broken
                        // benchmark input, not a measurement.
                        reseed(spec.expect("committed scenario files parse"), self.seed)
                    })
                    .collect(),
            ),
            Kind::LongHorizon => {
                let decorator = tr.decorator();
                Input::Runs(
                    self.run_descs()
                        .into_iter()
                        .map(|d| {
                            let scenario = d.scenario(&decorator);
                            (d, scenario)
                        })
                        .collect(),
                )
            }
            Kind::InspectExport => Input::Inspect(
                Scheme::ALL
                    .into_iter()
                    .map(|scheme| InspectRequest {
                        scheme,
                        apps: PAIR.to_vec(),
                        seed: self.seed,
                        faults: iotse_core::robustness::demo_scripts(),
                        ..InspectRequest::default()
                    })
                    .collect(),
            ),
        }
    }

    fn execute(
        &self,
        input: Input,
        jobs: usize,
        tr: &mut Tracer,
        outputs: &mut Outputs,
        pass: &mut Pass,
    ) {
        match input {
            Input::Figures(cfg) => {
                let cfg = cfg.with_jobs(jobs);
                let mut text = format!(
                    "# iotse figure reproduction (seed={}, windows={})\n\n",
                    cfg.seed, cfg.windows
                );
                for (span, render) in TARGETS {
                    tr.open(span);
                    render(&cfg, &mut text);
                    tr.close();
                }
                outputs.emit(&text);
            }
            Input::Corpus(specs) => {
                let decorator = tr.decorator();
                let factory = move |id: AppId, seed: u64| decorator.wrap(catalog::app(id, seed));
                let mut reports = Vec::with_capacity(specs.len());
                for spec in &specs {
                    tr.open("scenario_spec.run_spec");
                    reports.push(run_spec(spec, &factory, jobs));
                    tr.close();
                }
                tr.open("scenario_spec.render");
                let text = render_text(&reports);
                tr.close();
                outputs.emit(&text);
                let c = counters(&reports);
                pass.expectations = c.expectations_evaluated;
                pass.expectations_failed = c.expectations_failed;
            }
            Input::Runs(runs) => {
                let mut text = String::new();
                for (desc, scenario) in runs {
                    tr.open("executor.run");
                    let r = scenario.run();
                    tr.close();
                    run_line(&mut text, &r);
                    pass.runs.push((desc, r.events_executed, r.sensor_reads));
                }
                outputs.emit(&text);
            }
            Input::Inspect(requests) => {
                for req in &requests {
                    tr.open("inspect.run");
                    let r = inspect::run(req);
                    tr.close();
                    for (format, span) in InspectFormat::ALL.into_iter().zip(RENDER_SPANS) {
                        tr.open(span);
                        let text = inspect::render(&r, format);
                        tr.close();
                        outputs.emit(&text);
                    }
                }
            }
        }
    }
}

/// Passes checked against the reference, and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// Passes whose output was checked.
    pub attempted: u64,
    /// Passes whose digests differed from the reference, or whose scenario
    /// expectations failed.
    pub failed: u64,
}

impl Checked {
    /// Checks one pass against the reference digests.
    pub fn record(&mut self, reference: &[u64], pass: &Pass) {
        self.attempted += 1;
        if pass.digests != reference || pass.expectations_failed > 0 {
            self.failed += 1;
        }
    }

    /// Failed passes over attempted passes.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        // lint: pass counts stay far below 2^53
        #[allow(clippy::cast_precision_loss)]
        let ratio = self.failed as f64 / self.attempted as f64;
        ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Ok(k));
        }
        assert!(Kind::parse("everything").is_err());
    }

    #[test]
    fn a_doctored_digest_fails_one_pass_in_n() {
        let reference = vec![1, 2, 3];
        let good = Pass {
            digests: reference.clone(),
            ..Pass::default()
        };
        let mut doctored = good.clone();
        doctored.digests[1] ^= 1;
        let mut checked = Checked::default();
        for _ in 0..4 {
            checked.record(&reference, &good);
        }
        checked.record(&reference, &doctored);
        assert_eq!((checked.attempted, checked.failed), (5, 1));
        assert!((checked.fail_ratio() - 1.0 / 5.0).abs() < 1e-12);

        let failing = Pass {
            expectations_failed: 1,
            ..good
        };
        checked.record(&reference, &failing);
        assert_eq!(checked.failed, 2);
    }

    #[test]
    fn reseeding_offsets_every_seed_and_drops_checksums() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios/storm_robustness.toml"),
        )
        .unwrap();
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(reseed(spec.clone(), COMMITTED_SEED), spec);
        let moved = reseed(spec.clone(), 7);
        assert_eq!(moved.seed, spec.seed.wrapping_sub(35));
        for (a, b) in moved.faults.iter().zip(&spec.faults) {
            assert_eq!(a.seed, b.seed.wrapping_sub(35));
        }
        assert!(moved
            .expectations
            .iter()
            .all(|e| !matches!(e, SpecExpectation::OutputChecksum { .. })));
    }
}
