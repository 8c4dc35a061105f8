//! Each workload's pass, called directly, against references made without
//! it: the shipped binaries' output, or the library path its command uses,
//! run on warm caches. Also checks that measuring does not change a run.

use std::path::{Path, PathBuf};

use iotse_bench::config::ExperimentConfig;
use iotse_bench::inspect::{inspect, InspectFormat, InspectRequest};
use iotse_bench::scenario::{check_dir, render_text};
use iotse_benchmark::layers::RunDesc;
use iotse_benchmark::reference;
use iotse_benchmark::run::FLEET_WIDTH;
use iotse_benchmark::spans::Tracer;
use iotse_benchmark::stats::fnv1a;
use iotse_benchmark::workloads::{
    run_line, Bench, Kind, Pass, COMMITTED_SEED, LONG_HORIZON_WINDOWS, PAIR, TARGETS,
};
use iotse_core::Scheme;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn bin_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_figures"))
        .parent()
        .expect("binaries live in a directory")
        .to_path_buf()
}

/// One two-wide pass of `kind` from cleared caches, checked against the
/// shipped binaries' one-job reference digests.
fn cold_pass(kind: Kind) -> Pass {
    let bench = Bench::new(kind, COMMITTED_SEED, &root()).expect("inputs load");
    let pass = bench.pass(FLEET_WIDTH, &mut Tracer::disabled());
    let reference = reference::digests(&bench, &bin_dir()).expect("reference commands run");
    assert_eq!(pass.digests, reference, "{} differs", kind.name());
    assert_eq!(pass.expectations_failed, 0);
    pass
}

#[test]
fn paper_repro_matches_figures_and_warm_caches() {
    let pass = cold_pass(Kind::PaperRepro);
    let cfg = ExperimentConfig::default();
    let mut warm = format!(
        "# iotse figure reproduction (seed={}, windows={})\n\n",
        cfg.seed, cfg.windows
    );
    for (_, render) in TARGETS {
        render(&cfg, &mut warm);
    }
    assert_eq!(pass.digests, vec![fnv1a(warm.as_bytes())]);
}

#[test]
fn corpus_check_matches_scenario_check_and_warm_caches() {
    let pass = cold_pass(Kind::CorpusCheck);
    assert_eq!(pass.expectations, 27);
    let reports = check_dir(&root().join("scenarios"), 1).expect("corpus runs");
    assert_eq!(pass.digests, vec![fnv1a(render_text(&reports).as_bytes())]);
}

#[test]
fn long_horizon_matches_the_experiment_harness_on_warm_caches() {
    let pass = cold_pass(Kind::LongHorizon);
    let cfg = ExperimentConfig {
        windows: LONG_HORIZON_WINDOWS,
        ..ExperimentConfig::default()
    };
    let mut warm = String::new();
    for scheme in Scheme::ALL {
        run_line(&mut warm, &cfg.run(scheme, PAIR));
    }
    assert_eq!(pass.digests, vec![fnv1a(warm.as_bytes())]);
}

#[test]
fn inspect_export_matches_inspect_and_warm_caches() {
    let pass = cold_pass(Kind::InspectExport);
    let mut warm = Vec::new();
    for scheme in Scheme::ALL {
        let req = InspectRequest {
            scheme,
            apps: PAIR.to_vec(),
            faults: iotse_core::robustness::demo_scripts(),
            ..InspectRequest::default()
        };
        for format in InspectFormat::ALL {
            warm.push(fnv1a(inspect(&req, format).as_bytes()));
        }
    }
    assert_eq!(pass.digests, warm);
}

#[test]
fn the_kernel_timing_decorator_changes_no_run() {
    let traced = Tracer::enabled();
    for scheme in Scheme::ALL {
        let desc = RunDesc {
            scheme,
            apps: PAIR,
            windows: LONG_HORIZON_WINDOWS,
            seed: COMMITTED_SEED,
            demo_faults: false,
        };
        let plain = desc.scenario(&Tracer::disabled().decorator()).run();
        let timed = desc.scenario(&traced.decorator()).run();
        assert_eq!(plain, timed, "{scheme}");
    }
    // How many kernel calls the compute cache saves depends on what other
    // tests left in it, so only check that the decorator saw the kernels.
    let (calls, _) = traced.kernels().read();
    assert!(calls > 0);
}
