//! The fault layer's two contracts, end to end.
//!
//! **Off means off:** a scenario with no fault scripts must be bitwise
//! identical to the seed behavior from before the fault layer existed —
//! pinned counters, pinned energy, full-`RunResult` equality at every
//! `--jobs` level. **On means deterministic:** the committed demo fault
//! storm, graded by one one-device scenario spec per scheme, produces
//! byte-identical reports at jobs 1/4/8, every fault kind fires, and the
//! `energy-ratio` expectation splits the schemes — the deep-sleep
//! offloaders (COM/BCOM) blow the energy-under-fault bound that the
//! always-active schemes meet.

use iotse::core::robustness::demo_scripts;
use iotse::core::{compute_cache, run_spec, workload::WindowData, ScenarioSpec, SpecReport};
use iotse::prelude::*;

fn suite_apps(seed: u64) -> Vec<Box<dyn iotse::core::workload::Workload>> {
    catalog::apps(&[AppId::A2, AppId::A7], seed)
}

fn scenario(scheme: Scheme, seed: u64) -> Scenario {
    Scenario::new(scheme, suite_apps(seed))
        .windows(2)
        .seed(seed)
}

/// Counters every scheme produced at the seed commit (captured before the
/// fault layer landed). Any faults-off drift from these is a regression.
const PINNED: [(Scheme, u64, u64, u64, u64, &str); 5] = [
    (Scheme::Baseline, 4000, 4000, 4000, 48000, "11638173.042286"),
    (Scheme::Batching, 4000, 4, 4000, 48000, "5848873.667532"),
    (Scheme::Com, 4000, 4, 4000, 10, "1837791.182961"),
    (Scheme::Beam, 2000, 2000, 2000, 24000, "10936973.413943"),
    (Scheme::Bcom, 4000, 4, 4000, 10, "1837791.182961"),
];

#[test]
fn faults_off_pins_the_seed_behavior() {
    for (scheme, events, interrupts, reads, bytes, energy_uj) in PINNED {
        let r = scenario(scheme, 42).run();
        assert_eq!(r.events_executed, events, "{scheme}: events drifted");
        assert_eq!(r.interrupts, interrupts, "{scheme}: interrupts drifted");
        assert_eq!(r.sensor_reads, reads, "{scheme}: reads drifted");
        assert_eq!(r.bytes_transferred, bytes, "{scheme}: bytes drifted");
        assert_eq!(
            format!("{:.6}", r.total_energy().as_microjoules()),
            energy_uj,
            "{scheme}: energy drifted"
        );
        assert_eq!(r.faults, FaultStats::default(), "{scheme}: phantom faults");
    }
}

#[test]
fn empty_fault_list_is_bitwise_identical_at_every_jobs_level() {
    // `.faults(vec![])` compiles no plan — full-result equality with a
    // scenario that never mentions faults, serial and fleet-parallel.
    let plain = run_fleet(Scheme::ALL.iter().map(|&s| scenario(s, 42)).collect(), 1);
    for jobs in [1, 4, 8] {
        let empty = run_fleet(
            Scheme::ALL
                .iter()
                .map(|&s| scenario(s, 42).faults(vec![]))
                .collect(),
            jobs,
        );
        for (scheme, (p, e)) in Scheme::ALL.iter().zip(plain.iter().zip(&empty)) {
            assert_eq!(p, e, "{scheme}: empty fault list differs at --jobs {jobs}");
        }
    }
}

#[test]
fn faults_off_is_bitwise_identical_with_observability_on() {
    // Trace + timelines must also be untouched by the layer, and the
    // metrics view prints no fault counter for a run where none fired.
    let instrument = |s: Scenario| s.with_trace().with_timeline();
    let plain = instrument(scenario(Scheme::Batching, 42)).run();
    let empty = instrument(scenario(Scheme::Batching, 42).faults(vec![])).run();
    assert_eq!(plain, empty);
    let report = iotse_bench::export::prometheus(&plain);
    assert_eq!(report, iotse_bench::export::prometheus(&empty));
    assert!(report.contains("# TYPE iotse_core_interrupts_total counter"));
    assert!(
        !report.contains("fault") && !report.contains("dropped") && !report.contains("corrupted"),
        "faults-off run printed fault metrics:\n{report}"
    );
}

#[test]
fn faulted_runs_replay_bitwise_and_differ_from_clean_runs() {
    for &scheme in Scheme::ALL.iter() {
        let faulted = |jobs: usize| {
            run_fleet(vec![scenario(scheme, 42).faults(demo_scripts())], jobs)
                .pop()
                .expect("one result")
        };
        let first = faulted(1);
        assert!(
            first.faults.faults_injected > 0,
            "{scheme}: no faults fired"
        );
        for jobs in [1, 4, 8] {
            assert_eq!(first, faulted(jobs), "{scheme}: drifted at --jobs {jobs}");
        }
        assert_ne!(
            first,
            scenario(scheme, 42).run(),
            "{scheme}: demo faults changed nothing"
        );
    }
}

/// One one-device storm spec per scheme: the demo fault pack over A2 + A7,
/// graded on energy under fault (faulted / clean twin ≤ 1.5) and on QoS.
fn storm_spec(scheme: Scheme) -> ScenarioSpec {
    let scheme = scheme.to_string().to_lowercase();
    ScenarioSpec::parse(&format!(
        "[scenario]\nname = \"storm-{scheme}\"\nseed = 42\nwindows = 2\ndevices = 1\n\
         scheme = \"{scheme}\"\nfaults = \"demo\"\n\n[[mix]]\napps = [\"A2\", \"A7\"]\n\n\
         [[expect]]\nkind = \"energy-ratio\"\nmax_ratio = 1.5\n\n\
         [[expect]]\nkind = \"qos\"\nmax_miss_ratio = 0.25\n"
    ))
    .expect("storm spec parses")
}

/// Per scheme: clean-twin µJ, faulted µJ, faulted/clean energy ratio.
const STORM: [(Scheme, &str, &str, &str); 5] = [
    (Scheme::Baseline, "11638173.042", "12534993.086", "1.077058"),
    (Scheme::Batching, "5848873.668", "7379274.260", "1.261657"),
    (Scheme::Com, "1837791.183", "3738852.471", "2.034427"),
    (Scheme::Beam, "10936973.414", "10980977.577", "1.004023"),
    (Scheme::Bcom, "1837791.183", "3738852.471", "2.034427"),
];

fn render(r: &SpecReport) -> String {
    let mut out = format!(
        "{} clean {:.3} faulted {:.3}\n",
        r.name,
        r.clean_total_uj.unwrap_or(f64::NAN),
        r.total_uj
    );
    for c in &r.checks {
        let verdict = if c.passed { "pass" } else { "FAIL" };
        out += &format!(
            "  [{verdict}] {} <= {} (measured {})\n",
            c.name, c.bound, c.measured
        );
    }
    out
}

#[test]
fn demo_report_is_byte_identical_at_every_jobs_level() {
    let report_at = |jobs: usize| -> String {
        STORM
            .iter()
            .map(|&(scheme, ..)| render(&run_spec(&storm_spec(scheme), &catalog::app, jobs)))
            .collect()
    };
    let serial = report_at(1);
    for jobs in [4, 8] {
        assert_eq!(serial, report_at(jobs), "report differs at --jobs {jobs}");
    }
}

#[test]
fn demo_report_splits_the_schemes_on_the_energy_bound() {
    let mut ratios = Vec::new();
    for (scheme, clean_uj, faulted_uj, ratio) in STORM {
        let r = run_spec(&storm_spec(scheme), &catalog::app, 4);
        let clean = r.clean_total_uj.expect("energy-ratio ran the clean twin");
        assert_eq!(format!("{clean:.3}"), clean_uj, "{scheme}: clean energy");
        assert_eq!(
            format!("{:.3}", r.total_uj),
            faulted_uj,
            "{scheme}: faulted"
        );
        let energy = r
            .checks
            .iter()
            .find(|c| c.name == "energy-ratio")
            .expect("energy-ratio graded");
        assert_eq!(energy.measured, ratio, "{scheme}: energy ratio");
        // The acceptance split: spurious interrupts wake COM/BCOM's
        // deep-sleeping CPU (a 4 mJ transition each), blowing the 1.5×
        // energy bound; the always-active schemes shrug them off. No
        // scheme misses a deadline under the storm.
        let deep_sleep = matches!(scheme, Scheme::Com | Scheme::Bcom);
        assert_eq!(energy.passed, !deep_sleep, "{scheme}: energy verdict");
        assert_eq!(r.passed(), !deep_sleep, "{scheme}: overall verdict");
        assert!(
            r.checks.iter().any(|c| c.name == "qos" && c.passed),
            "{scheme}: missed deadlines under the storm"
        );
        ratios.push((scheme, energy.measured.parse::<f64>().expect("ratio")));
    }
    let ratio = |s: Scheme| ratios.iter().find(|(x, _)| *x == s).expect("graded").1;
    assert!(
        ratio(Scheme::Beam) < ratio(Scheme::Com),
        "BEAM must degrade less than COM here"
    );
}

#[test]
fn demo_storm_fires_every_kind_with_pinned_counters() {
    let kinds: Vec<&str> = demo_scripts().iter().map(|s| s.kind.name()).collect();
    assert_eq!(
        kinds,
        [
            "sensor-dropout",
            "sensor-stuck-at",
            "sensor-noise-burst",
            "link-corruption",
            "link-partition",
            "clock-drift",
            "interrupt-storm",
        ]
    );
    // (samples dropped, bytes corrupted, faults injected) per scheme.
    // Dropout is live everywhere; the deep-sleep offloaders move no bytes
    // inside the corruption window.
    let pinned = [
        (Scheme::Baseline, 131, 464, 3196),
        (Scheme::Batching, 131, 600, 2732),
        (Scheme::Com, 131, 0, 2731),
        (Scheme::Beam, 76, 238, 2015),
        (Scheme::Bcom, 131, 0, 2731),
    ];
    for (scheme, dropped, corrupted, injected) in pinned {
        let f = scenario(scheme, 42).faults(demo_scripts()).run().faults;
        assert_eq!(
            (f.samples_dropped, f.bytes_corrupted, f.faults_injected),
            (dropped, corrupted, injected),
            "{scheme}: fault counters drifted"
        );
    }
}

#[test]
fn noise_faulted_windows_produce_different_app_outputs() {
    // With the compute cache on (the default), a faulted window must be
    // recomputed, not served a clean window's memoized output. A noise
    // burst confined to window 1 — after the STA/LTA detector has primed
    // on a quiet window 0 — reads as strong motion and flips A7's quake
    // verdict, proving the corrupted window got its own fingerprint.
    let noisy = scenario(Scheme::Baseline, 42)
        .faults(vec![FaultScript::new(
            FaultKind::SensorNoiseBurst { amplitude: 10.0 },
            SimTime::from_secs(1),
            SimDuration::from_millis(500),
        )
        .seeded(9)])
        .run();
    let base = scenario(Scheme::Baseline, 42).run();
    assert_ne!(noisy.apps, base.apps, "noise changed no window output");
}

#[test]
fn sample_perturbations_change_the_fingerprint_directly() {
    use iotse::sensors::faults::{apply, SampleFault};
    use iotse::sensors::{SampleValue, SensorSample};
    use std::collections::BTreeMap;

    let sample = SensorSample {
        sensor: SensorId::S4,
        seq: 0,
        acquired_at: SimTime::ZERO,
        value: SampleValue::Scalar(1.0),
    };
    let window = |s: SensorSample| {
        let mut samples = BTreeMap::new();
        samples.insert(SensorId::S4, vec![s]);
        WindowData {
            window: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_secs(1),
            samples,
        }
    };
    let clean_fp = compute_cache::fingerprint(&window(sample.clone()));
    let mut noisy = sample.clone();
    apply(&mut noisy, &SampleFault::Noise(0.5));
    assert_ne!(
        compute_cache::fingerprint(&window(noisy)),
        clean_fp,
        "noise-perturbed window kept the clean fingerprint"
    );
    let latched = SampleValue::Scalar(7.5);
    let mut stuck = sample;
    apply(&mut stuck, &SampleFault::StuckAt(&latched));
    assert_ne!(
        compute_cache::fingerprint(&window(stuck)),
        clean_fp,
        "stuck-at window kept the clean fingerprint"
    );
}

#[test]
fn compute_cache_on_and_off_agree_bitwise_in_faulted_runs() {
    // The memoization contract must survive fault injection: cache-on and
    // cache-off faulted fleets are bitwise equal for every scheme at every
    // jobs level. Untargeted sensor faults hit every sensor the A4+A9
    // pair uses; the link faults stress the transfer path too.
    let scripts = || {
        vec![
            FaultScript::new(
                FaultKind::SensorDropout { probability: 0.3 },
                SimTime::ZERO,
                SimDuration::from_millis(700),
            )
            .seeded(11),
            FaultScript::new(
                FaultKind::SensorNoiseBurst { amplitude: 3.0 },
                SimTime::from_millis(700),
                SimDuration::from_millis(700),
            )
            .seeded(12),
            FaultScript::new(
                FaultKind::LinkCorruption { per_byte: 0.1 },
                SimTime::ZERO,
                SimDuration::from_secs(2),
            )
            .seeded(13),
        ]
    };
    let fleet = |cache: bool| -> Vec<Scenario> {
        Scheme::ALL
            .iter()
            .map(|&scheme| {
                let s = Scenario::new(scheme, catalog::apps(&[AppId::A4, AppId::A9], 42))
                    .windows(2)
                    .seed(42)
                    .faults(scripts());
                if cache {
                    s
                } else {
                    s.without_compute_cache()
                }
            })
            .collect()
    };
    let off = run_fleet(fleet(false), 1);
    assert!(
        off.iter().any(|r| r.faults.samples_dropped > 0),
        "dropout never fired on the cache workload"
    );
    for jobs in [1, 4, 8] {
        let on = run_fleet(fleet(true), jobs);
        for (scheme, (o, n)) in Scheme::ALL.iter().zip(off.iter().zip(&on)) {
            assert_eq!(
                o, n,
                "{scheme}: faulted cache-on differs from cache-off at --jobs {jobs}"
            );
        }
    }
}

#[test]
fn a_storm_that_outlasts_the_run_is_clipped_at_the_horizon() {
    // The committed BEAM storm spec with the storm stretched from 400 ms to
    // 2 000 s: the run still ends at its 5 s horizon and reports exactly
    // what a storm declared to end there (1.6 s + 3.4 s) reports.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/clock_drift_storm.toml"
    );
    let text = std::fs::read_to_string(path).expect("committed storm spec");
    let graded = |duration_ms: &str| {
        let stretched = text.replacen(
            "duration_ms = 400",
            &format!("duration_ms = {duration_ms}"),
            1,
        );
        assert_ne!(stretched, text, "storm window not found");
        let spec = ScenarioSpec::parse(&stretched).expect("spec parses");
        let r = run_spec(&spec, &catalog::app, 1);
        let energy = r
            .checks
            .iter()
            .find(|c| c.name == "energy-ratio")
            .expect("energy-ratio graded")
            .measured
            .clone();
        (format!("{:.3}", r.total_uj), energy, r.passed())
    };
    let expected = ("27335872.132".to_string(), "1.001876".to_string(), true);
    assert_eq!(graded("3400"), expected);
    assert_eq!(graded("2000000"), expected);
}
