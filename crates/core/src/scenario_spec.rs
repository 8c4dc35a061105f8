//! The declarative scenario language: `scenarios/*.toml` → fleets.
//!
//! The paper's experiments are fixed app mixes under five schemes,
//! hand-assembled in Rust. This module turns the whole experiment space
//! into *data*: a scenario file declares a device population, an app mix
//! with **weighted selection and round-robin distribution** across
//! devices, the scheme(s) to run, explicit seeds, window counts, optional
//! fault scripts and telemetry, and a list of pluggable **expectations**
//! graded after the run. [`ScenarioSpec::parse`] reads the file with the
//! shared [`crate::toml_subset`] reader and validates it against the
//! grammar below — this module is the grammar's only definition (the
//! `IOTSE-F14` lint rule calls the same parser),
//! [`ScenarioSpec::runs`] compiles the population deterministically, and
//! [`run_spec`] executes the fleet and folds the results into a
//! [`SpecReport`] whose pass/fail rows a CI gate can sweep.
//!
//! # File format
//!
//! ```toml
//! [scenario]
//! name = "smart-home"          # [a-z0-9_-]+, the report identity
//! seed = 7                     # required — seeds are always explicit
//! windows = 5                  # 1-second windows per device
//! devices = 4                  # population size (per scheme)
//! schemes = ["baseline", "beam"]   # or: scheme = "baseline"
//! distribution = "weighted"    # or "round-robin" (default "weighted")
//! telemetry = false            # optional windowed telemetry recording
//! faults = "demo"              # optional named fault pack
//!
//! [[mix]]                      # one entry per app bundle
//! apps = ["A2", "A7"]
//! weight = 3                   # positive; default 1
//!
//! [[fault]]                    # optional inline fault scripts
//! kind = "interrupt-storm"
//! rate_hz = 2000
//! start_ms = 1600
//! duration_ms = 400
//! seed = 7                     # explicit per-script seed
//! target = "S4"                # sensor kinds only
//!
//! [[expect]]
//! kind = "qos"                 # miss ratio over all app-windows
//! max_miss_ratio = 0.0
//!
//! [[expect]]
//! kind = "energy-budget"       # fleet total energy bound
//! max_total_uj = 2.0e6
//!
//! [[expect]]
//! kind = "energy-ratio"        # faulted / clean twin (needs faults)
//! max_ratio = 1.5
//!
//! [[expect]]
//! kind = "output-checksum"     # FNV-1a 64 over every kernel output
//! checksum = "0x7e0d7a1b2c3d4e5f"
//! ```
//!
//! # Determinism
//!
//! Everything downstream of the parse is a pure function of the file:
//! device→mix assignment is computed before any thread is spawned
//! (smooth weighted round-robin, ties broken by declaration order),
//! per-device seeds derive from the explicit base seed, and the fleet
//! returns results in submission order — so a [`SpecReport`] is
//! byte-identical at any `--jobs` level (pinned by the bench crate's
//! scenario tests and the CI `scenarios` job).

use std::fmt;

use iotse_sim::faults::{FaultKind, FaultScript};
use iotse_sim::hash::{fnv1a, FNV_OFFSET};
use iotse_sim::time::{SimDuration, SimTime};

use crate::executor::Scenario;
use crate::result::RunResult;
use crate::runner::Fleet;
use crate::scheme::Scheme;
use crate::toml_subset::{self, Table, Value};
use crate::workload::{AppId, Workload};

pub use crate::toml_subset::SpecError;

/// Hard cap on the device population of one scenario file — scenario
/// files feed CI sweeps, not the population executor (ROADMAP item 2).
pub const MAX_DEVICES: u32 = 4096;
/// Hard cap on windows per device.
pub const MAX_WINDOWS: u32 = 3600;
/// Hard cap on mix entries.
pub const MAX_MIX_ENTRIES: usize = 256;
/// Hard cap on one mix entry's weight.
pub const MAX_WEIGHT: u64 = 1_000_000;

/// How the mix entries are spread over the device population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Smooth weighted round-robin: entry *j* receives a share of devices
    /// proportional to its weight (within one device of the exact quota),
    /// interleaved rather than blocked. Ties break toward the earlier
    /// declaration.
    Weighted,
    /// Plain round-robin, weights ignored: device *i* gets entry
    /// `i % len`.
    RoundRobin,
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Distribution::Weighted => "weighted",
            Distribution::RoundRobin => "round-robin",
        })
    }
}

/// One `[[mix]]` entry: an app bundle and its traffic weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixEntry {
    /// The Table II apps one device of this cohort runs concurrently.
    pub apps: Vec<AppId>,
    /// Relative share of the device population (positive).
    pub weight: u64,
}

/// One `[[expect]]` entry: a pass/fail check graded after the fleet runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecExpectation {
    /// QoS misses across every app-window of the fleet must stay at or
    /// under this fraction.
    QosMissRatio {
        /// Largest acceptable missed fraction in `[0, 1]`.
        max: f64,
    },
    /// The fleet's total energy (µJ, summed over every device and scheme)
    /// must stay at or under this budget.
    EnergyBudget {
        /// Largest acceptable fleet total, µJ.
        max_total_uj: f64,
    },
    /// With faults configured: total energy of the faulted fleet divided
    /// by its clean twin (same runs, no fault scripts) must stay at or
    /// under this ratio.
    EnergyRatioUnderFault {
        /// Largest acceptable faulted/clean ratio.
        max: f64,
    },
    /// The FNV-1a 64 checksum over every kernel output (see
    /// [`SpecReport::checksum`]) must equal this value — the scenario
    /// pins its own computation results.
    OutputChecksum {
        /// Expected checksum (`scenario run` prints the computed value).
        expected: u64,
    },
}

impl SpecExpectation {
    /// The stable name reports print for this expectation kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SpecExpectation::QosMissRatio { .. } => "qos",
            SpecExpectation::EnergyBudget { .. } => "energy-budget",
            SpecExpectation::EnergyRatioUnderFault { .. } => "energy-ratio",
            SpecExpectation::OutputChecksum { .. } => "output-checksum",
        }
    }
}

/// A parsed, validated scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario identity (`[a-z0-9_-]+`), printed in every report row.
    pub name: String,
    /// Optional free-text description.
    pub description: Option<String>,
    /// The explicit base seed; device *d* runs under `seed + d`.
    pub seed: u64,
    /// 1-second windows per device.
    pub windows: u32,
    /// Device population per scheme.
    pub devices: u32,
    /// Schemes to run, in declaration order; the full population runs
    /// once per scheme.
    pub schemes: Vec<Scheme>,
    /// How mix entries map to devices.
    pub distribution: Distribution,
    /// Whether devices record windowed telemetry.
    pub telemetry: bool,
    /// Fault scripts injected into every device run (named pack +
    /// inline `[[fault]]` entries, in declaration order).
    pub faults: Vec<FaultScript>,
    /// The app mix (at least one entry).
    pub mix: Vec<MixEntry>,
    /// Expectations graded after the fleet runs.
    pub expectations: Vec<SpecExpectation>,
}

struct KeyReader<'a> {
    table: &'a Table,
    section: &'a str,
    line: usize,
}

impl<'a> KeyReader<'a> {
    fn new(table: &'a Table, section: &'a str, line: usize) -> KeyReader<'a> {
        KeyReader {
            table,
            section,
            line,
        }
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (key, (line, _)) in self.table {
            if !allowed.contains(&key.as_str()) {
                return Err(SpecError::new(
                    *line,
                    format!(
                        "unknown key `{key}` in [{}] (allowed: {})",
                        self.section,
                        allowed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&'a (usize, Value)> {
        self.table.get(key)
    }

    fn required(&self, key: &str) -> Result<&'a (usize, Value), SpecError> {
        self.get(key).ok_or_else(|| {
            SpecError::new(
                self.line,
                format!("[{}] is missing required key `{key}`", self.section),
            )
        })
    }

    fn u64_of(&self, key: &str, v: &(usize, Value)) -> Result<u64, SpecError> {
        match &v.1 {
            Value::Int(n) => Ok(*n),
            other => Err(SpecError::new(
                v.0,
                format!(
                    "`{key}` must be a non-negative integer, got {}",
                    other.type_name()
                ),
            )),
        }
    }

    fn f64_of(&self, key: &str, v: &(usize, Value)) -> Result<f64, SpecError> {
        match &v.1 {
            Value::Float(x) => Ok(*x),
            Value::Int(n) => Ok(int_to_f64(*n, v.0, key)?),
            other => Err(SpecError::new(
                v.0,
                format!("`{key}` must be a number, got {}", other.type_name()),
            )),
        }
    }

    fn str_of(&self, key: &str, v: &'a (usize, Value)) -> Result<&'a str, SpecError> {
        match &v.1 {
            Value::Str(s) => Ok(s),
            other => Err(SpecError::new(
                v.0,
                format!("`{key}` must be a string, got {}", other.type_name()),
            )),
        }
    }

    fn bool_of(&self, key: &str, v: &(usize, Value)) -> Result<bool, SpecError> {
        match &v.1 {
            Value::Bool(b) => Ok(*b),
            other => Err(SpecError::new(
                v.0,
                format!("`{key}` must be a boolean, got {}", other.type_name()),
            )),
        }
    }

    fn list_of(&self, key: &str, v: &'a (usize, Value)) -> Result<&'a [String], SpecError> {
        match &v.1 {
            Value::List(items) => Ok(items),
            other => Err(SpecError::new(
                v.0,
                format!("`{key}` must be a string list, got {}", other.type_name()),
            )),
        }
    }
}

/// Counters and medians stay far below 2^53 where `f64` is exact; larger
/// integers in a bound would silently round, so they are rejected.
fn int_to_f64(n: u64, line: usize, key: &str) -> Result<f64, SpecError> {
    if n >= (1 << 53) {
        return Err(SpecError::new(
            line,
            format!("`{key}` = {n} exceeds exact f64 range; write it as a float"),
        ));
    }
    // lint: the range check above makes the cast exact
    #[allow(clippy::cast_precision_loss)]
    Ok(n as f64)
}

fn parse_app_id(s: &str) -> Option<AppId> {
    AppId::ALL.into_iter().find(|id| id.to_string() == s)
}

fn parse_scheme(s: &str) -> Option<Scheme> {
    match s {
        "baseline" => Some(Scheme::Baseline),
        "batching" => Some(Scheme::Batching),
        "com" => Some(Scheme::Com),
        "beam" => Some(Scheme::Beam),
        "bcom" => Some(Scheme::Bcom),
        _ => None,
    }
}

fn parse_sensor(s: &str) -> Option<iotse_sensors::spec::SensorId> {
    use iotse_sensors::spec::SensorId;
    let mut all = SensorId::ALL.to_vec();
    all.push(SensorId::S10Hi);
    all.into_iter().find(|id| id.to_string() == s)
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
}

fn parse_checksum(raw: &str, line: usize) -> Result<u64, SpecError> {
    let digits = raw.strip_prefix("0x").unwrap_or(raw);
    u64::from_str_radix(digits, 16).map_err(|_| {
        SpecError::new(
            line,
            format!("`checksum` must be a hex string like \"0x1a2b…\", got `{raw}`"),
        )
    })
}

fn parse_fault(table: &Table, line: usize) -> Result<FaultScript, SpecError> {
    let r = KeyReader::new(table, "fault", line);
    r.reject_unknown(&[
        "kind",
        "probability",
        "amplitude",
        "per_byte",
        "ppm",
        "rate_hz",
        "start_ms",
        "duration_ms",
        "seed",
        "target",
    ])?;
    let kind_v = r.required("kind")?;
    let kind_name = r.str_of("kind", kind_v)?;
    let param = |key: &str| -> Result<f64, SpecError> {
        let v = r.required(key)?;
        r.f64_of(key, v)
    };
    let int_param = |key: &str| -> Result<u64, SpecError> {
        let v = r.required(key)?;
        r.u64_of(key, v)
    };
    let unit = |key: &str| -> Result<f64, SpecError> {
        let x = param(key)?;
        if (0.0..=1.0).contains(&x) {
            Ok(x)
        } else {
            Err(SpecError::new(
                r.required(key)?.0,
                format!("`{key}` must be in [0, 1], got {x}"),
            ))
        }
    };
    let kind = match kind_name {
        "sensor-dropout" => FaultKind::SensorDropout {
            probability: unit("probability")?,
        },
        "sensor-stuck-at" => FaultKind::SensorStuckAt,
        "sensor-noise-burst" => FaultKind::SensorNoiseBurst {
            amplitude: param("amplitude")?,
        },
        "link-corruption" => FaultKind::LinkCorruption {
            per_byte: unit("per_byte")?,
        },
        "link-partition" => FaultKind::LinkPartition,
        "clock-drift" => {
            let ppm = int_param("ppm")?;
            let ppm = u32::try_from(ppm)
                .map_err(|_| SpecError::new(line, format!("`ppm` = {ppm} does not fit u32")))?;
            FaultKind::ClockDrift { ppm }
        }
        "interrupt-storm" => {
            let hz = int_param("rate_hz")?;
            let hz = u32::try_from(hz)
                .map_err(|_| SpecError::new(line, format!("`rate_hz` = {hz} does not fit u32")))?;
            FaultKind::InterruptStorm { rate_hz: hz }
        }
        other => {
            return Err(SpecError::new(
                kind_v.0,
                format!(
                    "unknown fault kind `{other}` (one of: sensor-dropout, sensor-stuck-at, \
                     sensor-noise-burst, link-corruption, link-partition, clock-drift, \
                     interrupt-storm)"
                ),
            ))
        }
    };
    let start_ms = int_param("start_ms")?;
    let duration_ms = int_param("duration_ms")?;
    let seed = int_param("seed")?;
    let mut script = FaultScript::new(
        kind,
        SimTime::from_millis(start_ms),
        SimDuration::from_millis(duration_ms),
    )
    .seeded(seed);
    if let Some(v) = r.get("target") {
        let name = r.str_of("target", v)?;
        let Some(sensor) = parse_sensor(name) else {
            return Err(SpecError::new(
                v.0,
                format!("unknown sensor `{name}` in `target`"),
            ));
        };
        if !script.kind.is_sensor() {
            return Err(SpecError::new(
                v.0,
                format!("`target` only applies to sensor fault kinds, not `{kind_name}`"),
            ));
        }
        script = script.target(sensor.slot());
    }
    Ok(script)
}

fn parse_expect(table: &Table, line: usize) -> Result<SpecExpectation, SpecError> {
    let r = KeyReader::new(table, "expect", line);
    let kind_v = r.required("kind")?;
    let kind = r.str_of("kind", kind_v)?;
    match kind {
        "qos" => {
            r.reject_unknown(&["kind", "max_miss_ratio"])?;
            let v = r.required("max_miss_ratio")?;
            let max = r.f64_of("max_miss_ratio", v)?;
            if !(0.0..=1.0).contains(&max) {
                return Err(SpecError::new(
                    v.0,
                    format!("`max_miss_ratio` must be in [0, 1], got {max}"),
                ));
            }
            Ok(SpecExpectation::QosMissRatio { max })
        }
        "energy-budget" => {
            r.reject_unknown(&["kind", "max_total_uj"])?;
            let v = r.required("max_total_uj")?;
            let max = r.f64_of("max_total_uj", v)?;
            if max <= 0.0 {
                return Err(SpecError::new(
                    v.0,
                    format!("`max_total_uj` must be positive, got {max}"),
                ));
            }
            Ok(SpecExpectation::EnergyBudget { max_total_uj: max })
        }
        "energy-ratio" => {
            r.reject_unknown(&["kind", "max_ratio"])?;
            let v = r.required("max_ratio")?;
            let max = r.f64_of("max_ratio", v)?;
            if max <= 0.0 {
                return Err(SpecError::new(
                    v.0,
                    format!("`max_ratio` must be positive, got {max}"),
                ));
            }
            Ok(SpecExpectation::EnergyRatioUnderFault { max })
        }
        "output-checksum" => {
            r.reject_unknown(&["kind", "checksum"])?;
            let v = r.required("checksum")?;
            let expected = match &v.1 {
                Value::Str(s) => parse_checksum(s, v.0)?,
                Value::Int(n) => *n,
                other => {
                    return Err(SpecError::new(
                        v.0,
                        format!("`checksum` must be a hex string, got {}", other.type_name()),
                    ))
                }
            };
            Ok(SpecExpectation::OutputChecksum { expected })
        }
        other => Err(SpecError::new(
            kind_v.0,
            format!(
                "unknown expectation kind `{other}` (one of: qos, energy-budget, energy-ratio, \
                 output-checksum)"
            ),
        )),
    }
}

impl ScenarioSpec {
    /// Parses and validates one scenario file.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] carrying the offending line for the first
    /// malformed construct: bad syntax, unknown sections or keys, missing
    /// required keys (seeds are always explicit), out-of-range values,
    /// unknown app/scheme/sensor names, or an `energy-ratio` expectation
    /// without any fault configured.
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let doc = toml_subset::parse(text)?;
        for (name, line) in &doc.section_lines {
            match name.as_str() {
                "scenario" | "mix" | "fault" | "expect" => {}
                other => {
                    return Err(SpecError::new(
                        *line,
                        format!(
                            "unknown section `{other}` (allowed: [scenario], [[mix]], [[fault]], \
                             [[expect]])"
                        ),
                    ))
                }
            }
        }
        for arrayish in ["mix", "fault", "expect"] {
            if let Some((line, _)) = doc.tables.get(arrayish) {
                return Err(SpecError::new(
                    *line,
                    format!("`{arrayish}` must be an array section: [[{arrayish}]]"),
                ));
            }
        }
        if doc.arrays.contains_key("scenario") {
            let line = doc.arrays["scenario"].first().map_or(1, |(l, _)| *l);
            return Err(SpecError::new(
                line,
                "`scenario` must be a single [scenario] table",
            ));
        }
        let Some((scenario_line, scenario)) = doc.tables.get("scenario") else {
            return Err(SpecError::new(1, "missing required [scenario] section"));
        };
        let r = KeyReader::new(scenario, "scenario", *scenario_line);
        r.reject_unknown(&[
            "name",
            "description",
            "seed",
            "windows",
            "devices",
            "scheme",
            "schemes",
            "distribution",
            "telemetry",
            "faults",
        ])?;

        let name_v = r.required("name")?;
        let name = r.str_of("name", name_v)?.to_string();
        if !valid_name(&name) {
            return Err(SpecError::new(
                name_v.0,
                format!("`name` must match [a-z0-9_-]+, got `{name}`"),
            ));
        }
        let description = match r.get("description") {
            Some(v) => Some(r.str_of("description", v)?.to_string()),
            None => None,
        };
        let seed = r.u64_of("seed", r.required("seed")?)?;
        let windows = bounded_u32(&r, "windows", 1, MAX_WINDOWS)?;
        let devices = bounded_u32(&r, "devices", 1, MAX_DEVICES)?;

        let schemes = match (r.get("scheme"), r.get("schemes")) {
            (Some(v), None) => {
                let s = r.str_of("scheme", v)?;
                vec![scheme_or_err(s, v.0)?]
            }
            (None, Some(v)) => {
                let items = r.list_of("schemes", v)?;
                if items.is_empty() {
                    return Err(SpecError::new(v.0, "`schemes` must not be empty"));
                }
                let mut out = Vec::with_capacity(items.len());
                for s in items {
                    let scheme = scheme_or_err(s, v.0)?;
                    if out.contains(&scheme) {
                        return Err(SpecError::new(v.0, format!("duplicate scheme `{s}`")));
                    }
                    out.push(scheme);
                }
                out
            }
            (Some(v), Some(_)) => {
                return Err(SpecError::new(
                    v.0,
                    "use either `scheme` or `schemes`, not both",
                ))
            }
            (None, None) => {
                return Err(SpecError::new(
                    *scenario_line,
                    "[scenario] needs `scheme = \"…\"` or `schemes = [\"…\"]`",
                ))
            }
        };

        let distribution = match r.get("distribution") {
            None => Distribution::Weighted,
            Some(v) => match r.str_of("distribution", v)? {
                "weighted" => Distribution::Weighted,
                "round-robin" => Distribution::RoundRobin,
                other => {
                    return Err(SpecError::new(
                        v.0,
                        format!(
                            "`distribution` must be \"weighted\" or \"round-robin\", got `{other}`"
                        ),
                    ))
                }
            },
        };
        let telemetry = match r.get("telemetry") {
            Some(v) => r.bool_of("telemetry", v)?,
            None => false,
        };

        let mut faults: Vec<FaultScript> = Vec::new();
        if let Some(v) = r.get("faults") {
            match r.str_of("faults", v)? {
                "demo" => faults.extend(crate::robustness::demo_scripts()),
                other => {
                    return Err(SpecError::new(
                        v.0,
                        format!("unknown fault pack `{other}` (only \"demo\" is defined)"),
                    ))
                }
            }
        }
        if let Some(entries) = doc.arrays.get("fault") {
            for (line, table) in entries {
                faults.push(parse_fault(table, *line)?);
            }
        }

        let Some(mix_entries) = doc.arrays.get("mix") else {
            return Err(SpecError::new(1, "missing required [[mix]] section"));
        };
        if mix_entries.len() > MAX_MIX_ENTRIES {
            let line = mix_entries[MAX_MIX_ENTRIES].0;
            return Err(SpecError::new(
                line,
                format!("more than {MAX_MIX_ENTRIES} [[mix]] entries"),
            ));
        }
        let mut mix = Vec::with_capacity(mix_entries.len());
        for (line, table) in mix_entries {
            let mr = KeyReader::new(table, "mix", *line);
            mr.reject_unknown(&["apps", "weight"])?;
            let apps_v = mr.required("apps")?;
            let names = mr.list_of("apps", apps_v)?;
            if names.is_empty() {
                return Err(SpecError::new(apps_v.0, "`apps` must not be empty"));
            }
            let mut apps = Vec::with_capacity(names.len());
            for n in names {
                let Some(id) = parse_app_id(n) else {
                    return Err(SpecError::new(
                        apps_v.0,
                        format!("unknown app `{n}` (Table 2 registry: A1–A11)"),
                    ));
                };
                if apps.contains(&id) {
                    return Err(SpecError::new(apps_v.0, format!("duplicate app `{n}`")));
                }
                apps.push(id);
            }
            let weight = match mr.get("weight") {
                Some(v) => {
                    let w = mr.u64_of("weight", v)?;
                    if w == 0 || w > MAX_WEIGHT {
                        return Err(SpecError::new(
                            v.0,
                            format!("`weight` must be in 1..={MAX_WEIGHT}, got {w}"),
                        ));
                    }
                    w
                }
                None => 1,
            };
            mix.push(MixEntry { apps, weight });
        }

        let mut expectations = Vec::new();
        if let Some(entries) = doc.arrays.get("expect") {
            for (line, table) in entries {
                let e = parse_expect(table, *line)?;
                if matches!(e, SpecExpectation::EnergyRatioUnderFault { .. }) && faults.is_empty() {
                    return Err(SpecError::new(
                        *line,
                        "`energy-ratio` expectation requires the scenario to configure faults",
                    ));
                }
                expectations.push(e);
            }
        }

        Ok(ScenarioSpec {
            name,
            description,
            seed,
            windows,
            devices,
            schemes,
            distribution,
            telemetry,
            faults,
            mix,
            expectations,
        })
    }

    /// The mix index assigned to each device, in device order. Pure and
    /// thread-free: the same spec always yields the same assignment, so
    /// fleet results cannot depend on `--jobs`.
    #[must_use]
    pub fn assignment(&self) -> Vec<usize> {
        let n = self.devices as usize;
        match self.distribution {
            Distribution::RoundRobin => (0..n).map(|i| i % self.mix.len()).collect(),
            Distribution::Weighted => {
                // Smooth weighted round-robin (the nginx algorithm): each
                // step every entry gains its weight; the richest entry is
                // picked and pays the total back. Deterministic, and each
                // entry's share stays within one device of its exact
                // quota. i128 cannot overflow: weights are capped at 1e6
                // and entries at 256.
                let total: i128 = self.mix.iter().map(|m| i128::from(m.weight)).sum();
                let mut current: Vec<i128> = vec![0; self.mix.len()];
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut best = 0usize;
                    for (j, entry) in self.mix.iter().enumerate() {
                        current[j] += i128::from(entry.weight);
                        if current[j] > current[best] {
                            best = j;
                        }
                    }
                    current[best] -= total;
                    out.push(best);
                }
                out
            }
        }
    }

    /// The compiled run list, scheme-major then device order — the fleet
    /// submission order every report folds in.
    #[must_use]
    pub fn runs(&self) -> Vec<CompiledRun> {
        let assignment = self.assignment();
        let mut out = Vec::with_capacity(self.schemes.len() * assignment.len());
        for &scheme in &self.schemes {
            for (device, &mix_index) in assignment.iter().enumerate() {
                let device = device as u32;
                out.push(CompiledRun {
                    scheme,
                    device,
                    mix_index,
                    seed: self.seed.wrapping_add(u64::from(device)),
                });
            }
        }
        out
    }

    /// Builds the executable [`Scenario`] for one compiled run. Core
    /// cannot name `iotse-apps`, so workload construction is delegated to
    /// `factory` (the `scenario` binary passes `iotse_apps::catalog::app`).
    #[must_use]
    pub fn scenario_for(&self, run: &CompiledRun, factory: &AppFactory<'_>) -> Scenario {
        let apps: Vec<Box<dyn Workload>> = self.mix[run.mix_index]
            .apps
            .iter()
            .map(|&id| factory(id, run.seed))
            .collect();
        let mut s = Scenario::new(run.scheme, apps)
            .windows(self.windows)
            .seed(run.seed);
        if self.telemetry {
            s = s.with_telemetry();
        }
        if !self.faults.is_empty() {
            s = s.faults(self.faults.clone());
        }
        s
    }
}

fn scheme_or_err(s: &str, line: usize) -> Result<Scheme, SpecError> {
    parse_scheme(s).ok_or_else(|| {
        SpecError::new(
            line,
            format!("unknown scheme `{s}` (one of: baseline, batching, com, beam, bcom)"),
        )
    })
}

fn bounded_u32(r: &KeyReader<'_>, key: &str, min: u32, max: u32) -> Result<u32, SpecError> {
    let v = r.required(key)?;
    let n = r.u64_of(key, v)?;
    match u32::try_from(n) {
        Ok(n) if n >= min && n <= max => Ok(n),
        _ => Err(SpecError::new(
            v.0,
            format!("`{key}` must be in {min}..={max}, got {n}"),
        )),
    }
}

/// Builds one workload instance; `seed` is the run's device seed.
pub type AppFactory<'a> = dyn Fn(AppId, u64) -> Box<dyn Workload> + Sync + 'a;

/// One device execution of the compiled fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledRun {
    /// The scheme this device runs under.
    pub scheme: Scheme,
    /// Zero-based device index within the population.
    pub device: u32,
    /// Index into [`ScenarioSpec::mix`] chosen by the distribution.
    pub mix_index: usize,
    /// The device's derived seed (`spec.seed + device`).
    pub seed: u64,
}

/// One graded expectation row of a [`SpecReport`]. Measured values and
/// bounds are pre-rendered strings so checksums (u64) and ratios (f64)
/// share one stable, golden-testable shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecCheck {
    /// The expectation's stable name.
    pub name: &'static str,
    /// Whether the fleet met the expectation.
    pub passed: bool,
    /// The measured value, rendered.
    pub measured: String,
    /// The bound it was compared against, rendered.
    pub bound: String,
}

/// The graded result of running one scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecReport {
    /// The scenario's declared name.
    pub name: String,
    /// Device runs executed (schemes × devices; clean twins not counted).
    pub runs: usize,
    /// Devices per scheme.
    pub devices: u32,
    /// Schemes run, in declaration order.
    pub schemes: Vec<Scheme>,
    /// Windows per device.
    pub windows: u32,
    /// Fleet total energy, µJ (folded in submission order).
    pub total_uj: f64,
    /// Total energy of the clean twin fleet, µJ — only computed when an
    /// `energy-ratio` expectation needs it.
    pub clean_total_uj: Option<f64>,
    /// QoS deadline misses across every app-window.
    pub qos_missed: usize,
    /// App-windows graded (apps × windows, summed over every run).
    pub app_windows: usize,
    /// FNV-1a 64 checksum over every kernel output, folded in submission
    /// order as `run|app|window|output` lines.
    pub checksum: u64,
    /// Expectation verdicts, in declaration order.
    pub checks: Vec<SpecCheck>,
}

impl SpecReport {
    /// Whether every expectation passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// FNV-1a 64 over every kernel output of `results`, in submission order.
/// Each output folds as a `run|app|window|output` line so reorderings and
/// omissions cannot collide with the original.
#[must_use]
pub fn output_checksum(results: &[RunResult]) -> u64 {
    use fmt::Write as _;
    let mut acc = FNV_OFFSET;
    let mut line = String::new();
    for (i, r) in results.iter().enumerate() {
        for app in &r.apps {
            for w in &app.windows {
                line.clear();
                let _ = writeln!(line, "{i}|{}|{}|{}", app.id, w.window, w.output);
                acc = fnv1a(acc, line.as_bytes());
            }
        }
    }
    acc
}

fn grade(spec: &ScenarioSpec, results: &[RunResult], clean_total_uj: Option<f64>) -> SpecReport {
    let total_uj: f64 = results
        .iter()
        .map(|r| r.total_energy().as_microjoules())
        .sum();
    let qos_missed: usize = results.iter().map(RunResult::qos_violations).sum();
    let app_windows: usize = results
        .iter()
        .flat_map(|r| r.apps.iter())
        .map(|a| a.windows.len())
        .sum();
    let checksum = output_checksum(results);
    let miss_ratio = if app_windows == 0 {
        0.0
    } else {
        // lint: app_windows is bounded by devices×windows×apps « 2^53
        #[allow(clippy::cast_precision_loss)]
        {
            qos_missed as f64 / app_windows as f64
        }
    };
    let checks = spec
        .expectations
        .iter()
        .map(|e| match e {
            SpecExpectation::QosMissRatio { max } => SpecCheck {
                name: e.name(),
                passed: miss_ratio <= *max,
                measured: format!("{miss_ratio:.6}"),
                bound: format!("{max:.6}"),
            },
            SpecExpectation::EnergyBudget { max_total_uj } => SpecCheck {
                name: e.name(),
                passed: total_uj <= *max_total_uj,
                measured: format!("{total_uj:.3}"),
                bound: format!("{max_total_uj:.3}"),
            },
            SpecExpectation::EnergyRatioUnderFault { max } => {
                let ratio = clean_total_uj.map_or(f64::INFINITY, |clean| {
                    if clean == 0.0 {
                        f64::INFINITY
                    } else {
                        total_uj / clean
                    }
                });
                SpecCheck {
                    name: e.name(),
                    passed: ratio <= *max,
                    measured: format!("{ratio:.6}"),
                    bound: format!("{max:.6}"),
                }
            }
            SpecExpectation::OutputChecksum { expected } => SpecCheck {
                name: e.name(),
                passed: checksum == *expected,
                measured: format!("0x{checksum:016x}"),
                bound: format!("0x{expected:016x}"),
            },
        })
        .collect();
    SpecReport {
        name: spec.name.clone(),
        runs: results.len(),
        devices: spec.devices,
        schemes: spec.schemes.clone(),
        windows: spec.windows,
        total_uj,
        clean_total_uj,
        qos_missed,
        app_windows,
        checksum,
        checks,
    }
}

/// Runs one compiled scenario on a `jobs`-wide fleet and grades its
/// expectations. When an `energy-ratio` expectation is present the clean
/// twin fleet (same runs, fault scripts stripped) runs first so the ratio
/// has a fair-weather denominator.
#[must_use]
pub fn run_spec(spec: &ScenarioSpec, factory: &AppFactory<'_>, jobs: usize) -> SpecReport {
    let runs = spec.runs();
    let needs_clean = !spec.faults.is_empty()
        && spec
            .expectations
            .iter()
            .any(|e| matches!(e, SpecExpectation::EnergyRatioUnderFault { .. }));
    let clean_total_uj = needs_clean.then(|| {
        let mut clean = spec.clone();
        clean.faults.clear();
        let scenarios: Vec<Scenario> = runs
            .iter()
            .map(|r| clean.scenario_for(r, factory))
            .collect();
        Fleet::new(jobs)
            .run(scenarios)
            .iter()
            .map(|r| r.total_energy().as_microjoules())
            .sum()
    });
    let scenarios: Vec<Scenario> = runs.iter().map(|r| spec.scenario_for(r, factory)).collect();
    let results = Fleet::new(jobs).run(scenarios);
    grade(spec, &results, clean_total_uj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppOutput, ResourceProfile, SensorUsage, WindowData};
    use iotse_sensors::spec::SensorId;

    const MINIMAL: &str = "
[scenario]
name = \"probe\"
seed = 9
windows = 1
devices = 3
scheme = \"batching\"

[[mix]]
apps = [\"A2\"]
";

    fn probe_factory(id: AppId, seed: u64) -> Box<dyn Workload> {
        struct Probe(AppId, u64);
        impl Workload for Probe {
            fn id(&self) -> AppId {
                self.0
            }
            fn name(&self) -> &'static str {
                "probe"
            }
            fn window(&self) -> iotse_sim::time::SimDuration {
                iotse_sim::time::SimDuration::from_secs(1)
            }
            fn sensors(&self) -> Vec<SensorUsage> {
                vec![SensorUsage::periodic(SensorId::S4, 50)]
            }
            fn resources(&self) -> ResourceProfile {
                ResourceProfile {
                    heap_bytes: 1_000,
                    stack_bytes: 100,
                    mips: 1.0,
                    cpu_compute: iotse_sim::time::SimDuration::from_micros(100),
                    mcu_compute: iotse_sim::time::SimDuration::from_micros(1_000),
                }
            }
            fn compute(&mut self, data: &WindowData) -> AppOutput {
                // Fold the device seed in so distinct devices produce
                // distinct outputs (the checksum tests rely on it).
                AppOutput::Steps(data.sensor(SensorId::S4).len() as u32 + self.1 as u32)
            }
        }
        Box::new(Probe(id, seed))
    }

    #[test]
    fn minimal_spec_parses() {
        let spec = ScenarioSpec::parse(MINIMAL).expect("parses");
        assert_eq!(spec.name, "probe");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.devices, 3);
        assert_eq!(spec.schemes, vec![Scheme::Batching]);
        assert_eq!(spec.distribution, Distribution::Weighted);
        assert_eq!(spec.mix.len(), 1);
        assert_eq!(spec.mix[0].weight, 1);
        assert!(spec.faults.is_empty());
        assert!(!spec.telemetry);
    }

    #[test]
    fn full_spec_parses() {
        let text = "
[scenario]
name = \"full-demo_1\"
description = \"everything at once\"
seed = 42
windows = 2
devices = 5
schemes = [\"baseline\", \"com\"]
distribution = \"round-robin\"
telemetry = true
faults = \"demo\"

[[mix]]
apps = [\"A2\", \"A7\"]
weight = 3

[[mix]]
apps = [\"A4\"]
weight = 1

[[fault]]
kind = \"interrupt-storm\"
rate_hz = 2000
start_ms = 1600
duration_ms = 400
seed = 7

[[expect]]
kind = \"qos\"
max_miss_ratio = 0.25

[[expect]]
kind = \"energy-ratio\"
max_ratio = 2.5

[[expect]]
kind = \"output-checksum\"
checksum = \"0x0123456789abcdef\"
";
        let spec = ScenarioSpec::parse(text).expect("parses");
        assert_eq!(spec.schemes, vec![Scheme::Baseline, Scheme::Com]);
        assert_eq!(spec.distribution, Distribution::RoundRobin);
        assert!(spec.telemetry);
        // demo pack (7 scripts) + one inline script.
        assert_eq!(spec.faults.len(), 8);
        assert_eq!(spec.mix[0].weight, 3);
        assert_eq!(spec.expectations.len(), 3);
        assert_eq!(
            spec.expectations[2],
            SpecExpectation::OutputChecksum {
                expected: 0x0123_4567_89ab_cdef
            }
        );
    }

    fn err_line(text: &str) -> (usize, String) {
        let e = ScenarioSpec::parse(text).expect_err("must fail");
        (e.line, e.message)
    }

    #[test]
    fn errors_carry_the_offending_line() {
        // Line 3: value garbage.
        let (line, msg) = err_line("[scenario]\nname = \"x\"\nseed = what\n");
        assert_eq!(line, 3);
        assert!(msg.contains("expected a boolean"), "{msg}");

        // Line 1: key outside a section.
        let (line, _) = err_line("seed = 1\n");
        assert_eq!(line, 1);

        // Line 4: unknown key, with the allowed list.
        let (line, msg) =
            err_line("[scenario]\nname = \"x\"\nseed = 1\nwat = 2\nwindows = 1\ndevices = 1\n");
        assert_eq!(line, 4);
        assert!(msg.contains("unknown key `wat`"), "{msg}");

        // Line 2: duplicate key.
        let (line, msg) = err_line("[scenario]\nname = \"x\"\nname = \"y\"\n");
        assert_eq!(line, 3);
        assert!(msg.contains("duplicate key"), "{msg}");

        // Missing seed points at the section header.
        let (line, msg) = err_line(
            "[scenario]\nname = \"x\"\nwindows = 1\ndevices = 1\nscheme = \"com\"\n\n[[mix]]\napps = [\"A1\"]\n",
        );
        assert_eq!(line, 1);
        assert!(msg.contains("missing required key `seed`"), "{msg}");

        // Unknown app, at the apps line.
        let bad_app = MINIMAL.replace("apps = [\"A2\"]", "apps = [\"A99\"]");
        let (line, msg) = err_line(&bad_app);
        assert_eq!(line, 10);
        assert!(msg.contains("unknown app `A99`"), "{msg}");

        // Unknown scheme.
        let bad_scheme = MINIMAL.replace("\"batching\"", "\"warp\"");
        let (_, msg) = err_line(&bad_scheme);
        assert!(msg.contains("unknown scheme `warp`"), "{msg}");

        // Zero weight.
        let zero_w = format!("{MINIMAL}weight = 0\n");
        let (line, msg) = err_line(&zero_w);
        assert_eq!(line, 11);
        assert!(msg.contains("`weight` must be in 1..="), "{msg}");

        // Unknown section.
        let (line, msg) = err_line(&format!("{MINIMAL}\n[[warp]]\nx = 1\n"));
        assert_eq!(line, 12);
        assert!(msg.contains("unknown section `warp`"), "{msg}");

        // energy-ratio without faults.
        let no_faults =
            format!("{MINIMAL}\n[[expect]]\nkind = \"energy-ratio\"\nmax_ratio = 1.5\n");
        let (_, msg) = err_line(&no_faults);
        assert!(
            msg.contains("requires the scenario to configure faults"),
            "{msg}"
        );

        // Bad distribution value.
        let bad_dist = MINIMAL.replace(
            "scheme = \"batching\"",
            "scheme = \"batching\"\ndistribution = \"random\"",
        );
        let (_, msg) = err_line(&bad_dist);
        assert!(msg.contains("`distribution` must be"), "{msg}");
    }

    #[test]
    fn round_robin_assignment_cycles() {
        let text = MINIMAL.replace("devices = 3", "devices = 7")
            + "\n[[mix]]\napps = [\"A4\"]\n\n[[mix]]\napps = [\"A5\"]\n";
        let mut spec = ScenarioSpec::parse(&text).expect("parses");
        spec.distribution = Distribution::RoundRobin;
        assert_eq!(spec.assignment(), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn weighted_assignment_matches_quotas_within_one() {
        // Property: for arbitrary weights and device counts, every entry's
        // device share is within one of its exact quota, and the
        // assignment is a pure function of the spec.
        let mut rng = iotse_sim::rng::SimRng::seed_from_u64(0x5eed);
        for _ in 0..200 {
            let entries = 1 + (rng.next_u64() % 5) as usize;
            let devices = 1 + (rng.next_u64() % 64) as u32;
            let weights: Vec<u64> = (0..entries).map(|_| 1 + rng.next_u64() % 9).collect();
            let mix: Vec<MixEntry> = weights
                .iter()
                .map(|&w| MixEntry {
                    apps: vec![AppId::A2],
                    weight: w,
                })
                .collect();
            let spec = ScenarioSpec {
                name: "p".into(),
                description: None,
                seed: 1,
                windows: 1,
                devices,
                schemes: vec![Scheme::Baseline],
                distribution: Distribution::Weighted,
                telemetry: false,
                faults: Vec::new(),
                mix,
                expectations: Vec::new(),
            };
            let a = spec.assignment();
            assert_eq!(a, spec.assignment(), "assignment must be deterministic");
            assert_eq!(a.len(), devices as usize);
            let total: u64 = weights.iter().sum();
            for (j, &w) in weights.iter().enumerate() {
                let got = a.iter().filter(|&&x| x == j).count() as f64;
                let quota = devices as f64 * w as f64 / total as f64;
                assert!(
                    (got - quota).abs() <= 1.0,
                    "entry {j}: got {got}, quota {quota} (weights {weights:?}, devices {devices})"
                );
            }
        }
    }

    #[test]
    fn weighted_assignment_interleaves() {
        // 3:1 over 8 devices: the light entry appears regularly, not
        // bunched at the end.
        let text = MINIMAL.replace("devices = 3", "devices = 8")
            + "weight = 3\n\n[[mix]]\napps = [\"A4\"]\nweight = 1\n";
        let spec = ScenarioSpec::parse(&text).expect("parses");
        assert_eq!(spec.assignment(), vec![0, 0, 1, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn runs_are_scheme_major_with_derived_seeds() {
        let text = MINIMAL.replace("scheme = \"batching\"", "schemes = [\"baseline\", \"com\"]");
        let spec = ScenarioSpec::parse(&text).expect("parses");
        let runs = spec.runs();
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0].scheme, Scheme::Baseline);
        assert_eq!(runs[3].scheme, Scheme::Com);
        assert_eq!(runs[1].seed, 10); // base 9 + device 1
        assert_eq!(runs[4].device, 1);
    }

    #[test]
    fn run_spec_grades_expectations() {
        let text = format!(
            "{MINIMAL}\n[[expect]]\nkind = \"qos\"\nmax_miss_ratio = 1.0\n\n\
             [[expect]]\nkind = \"energy-budget\"\nmax_total_uj = 1.0\n"
        );
        let spec = ScenarioSpec::parse(&text).expect("parses");
        let report = run_spec(&spec, &probe_factory, 1);
        assert_eq!(report.runs, 3);
        assert_eq!(report.app_windows, 3);
        assert!(report.checks[0].passed, "qos bound of 1.0 cannot fail");
        assert!(
            !report.checks[1].passed,
            "a 1 µJ budget must fail: {}",
            report.checks[1].measured
        );
        assert!(!report.passed());
    }

    #[test]
    fn reports_are_jobs_independent() {
        let text = MINIMAL.replace("devices = 3", "devices = 6");
        let spec = ScenarioSpec::parse(&text).expect("parses");
        let one = run_spec(&spec, &probe_factory, 1);
        let four = run_spec(&spec, &probe_factory, 4);
        let eight = run_spec(&spec, &probe_factory, 8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn checksum_is_order_and_content_sensitive() {
        let spec = ScenarioSpec::parse(MINIMAL).expect("parses");
        let scenarios: Vec<Scenario> = spec
            .runs()
            .iter()
            .map(|r| spec.scenario_for(r, &probe_factory))
            .collect();
        let results = Fleet::new(1).run(scenarios);
        let base = output_checksum(&results);
        assert_eq!(base, output_checksum(&results), "checksum is a pure fold");
        let mut reversed = results.clone();
        reversed.reverse();
        // Devices run distinct seeds; reordering their outputs must not
        // produce the same digest.
        assert_ne!(base, output_checksum(&reversed));
        assert_ne!(base, output_checksum(&results[..2]));
    }

    #[test]
    fn energy_ratio_uses_the_clean_twin() {
        let text = "
[scenario]
name = \"storm\"
seed = 3
windows = 2
devices = 1
scheme = \"baseline\"

[[mix]]
apps = [\"A2\"]

[[fault]]
kind = \"interrupt-storm\"
rate_hz = 500
start_ms = 200
duration_ms = 600
seed = 1

[[expect]]
kind = \"energy-ratio\"
max_ratio = 10.0
";
        let spec = ScenarioSpec::parse(text).expect("parses");
        let report = run_spec(&spec, &probe_factory, 1);
        let clean = report.clean_total_uj.expect("twin ran");
        assert!(clean > 0.0);
        assert!(
            report.total_uj > clean,
            "the storm must cost energy: {} vs {clean}",
            report.total_uj
        );
        assert!(report.checks[0].passed);
    }

    #[test]
    fn telemetry_flag_reaches_the_runs() {
        let text = MINIMAL.replace(
            "scheme = \"batching\"",
            "scheme = \"batching\"\ntelemetry = true",
        );
        let spec = ScenarioSpec::parse(&text).expect("parses");
        let run = &spec.runs()[0];
        let result = spec.scenario_for(run, &probe_factory).run();
        assert!(result.telemetry.is_some());
    }
}
