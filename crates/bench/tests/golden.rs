//! Golden-file tests for the CSV exports, the rendered figures and the
//! sensor samples.
//!
//! Each CSV test renders a figure at the quick configuration (seed 42, two
//! windows) and compares the CSV against a checked-in golden file,
//! byte for byte. The fleet runs at four worker threads precisely so a
//! nondeterministic regression (result reordering, racy signal cache,
//! seed leakage between workers) shows up as a golden mismatch. The
//! figure test digests every target of `figures all sweeps`, and the
//! sensor test every synthesized sample of a fixed read schedule.
//!
//! To update after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p iotse-bench --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use iotse_bench::config::ExperimentConfig;
use iotse_bench::csv;
use iotse_bench::figures::{fig01, fig09, tables};
use iotse_bench::targets;
use iotse_sim::hash::{fnv1a, FNV_OFFSET};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with UPDATE_GOLDEN=1)", name));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig::quick().with_jobs(4)
}

#[test]
fn fig01_csv_matches_golden() {
    check("fig01.csv", &csv::fig01_csv(&fig01::run(&cfg())));
}

#[test]
fn fig09_csv_matches_golden() {
    check("fig09.csv", &csv::fig09_csv(&fig09::run(&cfg())));
}

#[test]
fn table2_csv_matches_golden() {
    check("table2.csv", &csv::table2_csv(&tables::table2(&cfg())));
}

/// One line per `figures all sweeps` target and seed: the FNV-1a digest of
/// the text the `figures` binary prints for it. Every target at both seeds
/// renders through configurations made from one, as `figures all sweeps`
/// and `figures repeatability` do, so anything a configuration carries from
/// one target or seed to the next is covered too.
fn figure_digests() -> String {
    let base = cfg();
    let mut out = String::new();
    for seed in [42u64, 7] {
        let cfg = ExperimentConfig {
            seed,
            ..base.clone()
        };
        for target in targets::ALL.into_iter().chain(targets::SWEEPS) {
            let text = targets::render(target, &cfg, false)
                .expect("a listed target")
                .text;
            let h = fnv1a(FNV_OFFSET, text.as_bytes());
            out.push_str(&format!(
                "seed {seed} {target} bytes {} digest {h:016x}\n",
                text.len()
            ));
        }
    }
    out
}

#[test]
fn figure_digests_match_golden() {
    check("figure_digests.txt", &figure_digests());
}

/// One line per sensor and seed: the FNV-1a digest of every sample's
/// sequence number, acquisition instant and value bits over a fixed read
/// schedule. Nothing else pins the synthesized values (the executor
/// charges energy from profiled durations, not from samples), so a
/// generator change shows here first, as a reviewed golden update.
fn sensor_digests() -> String {
    use iotse_sensors::reading::SampleValue;
    use iotse_sensors::signal::seismic::Quake;
    use iotse_sensors::spec::SensorId;
    use iotse_sensors::world::{PhysicalWorld, WorldConfig};
    use iotse_sim::rng::SeedTree;
    use iotse_sim::time::{SimDuration, SimTime};

    // (sensor, read interval in µs, instants, reads per instant). S4 is
    // read twice per instant, as Baseline's step counter and earthquake
    // detector each read the shared accelerometer.
    const SCHEDULE: [(SensorId, u64, u64, usize); 10] = [
        (SensorId::S1, 100_000, 100, 1),
        (SensorId::S2, 100_000, 100, 1),
        (SensorId::S3, 1_000_000, 8, 1),
        (SensorId::S4, 1_000, 3_000, 2),
        (SensorId::S5, 100_000, 100, 1),
        (SensorId::S6, 20_000, 2_000, 1),
        (SensorId::S7, 100_000, 100, 1),
        (SensorId::S8, 2_500, 16_000, 1),
        (SensorId::S9, 50_000, 200, 1),
        (SensorId::S10, 1_000_000, 4, 1),
    ];
    let mut out = String::new();
    for seed in [42u64, 7] {
        let config = WorldConfig {
            quakes: vec![Quake {
                onset: SimTime::from_millis(1_500),
                duration: SimDuration::from_secs(1),
                peak: 3.0,
            }],
            ..WorldConfig::default()
        };
        let mut world = PhysicalWorld::new(&SeedTree::new(seed), config);
        for (sensor, interval_us, instants, per_instant) in SCHEDULE {
            let mut h = FNV_OFFSET;
            for k in 0..instants {
                let t = SimTime::ZERO + SimDuration::from_micros(k * interval_us);
                for _ in 0..per_instant {
                    let Ok(s) = world.read(sensor, t);
                    h = fnv1a(h, &s.seq.to_le_bytes());
                    h = fnv1a(h, &s.acquired_at.as_nanos().to_le_bytes());
                    match &s.value {
                        SampleValue::Scalar(x) => h = fnv1a(h, &x.to_bits().to_le_bytes()),
                        SampleValue::Triple(v) => {
                            for x in v {
                                h = fnv1a(h, &x.to_bits().to_le_bytes());
                            }
                        }
                        SampleValue::Bytes(b) => h = fnv1a(h, b),
                    }
                }
            }
            let reads = instants * per_instant as u64;
            out.push_str(&format!(
                "seed {seed} {sensor} reads {reads} digest {h:016x}\n"
            ));
        }
    }
    out
}

#[test]
fn sensor_sample_digests_match_golden() {
    check("sensor_digests.txt", &sensor_digests());
}
