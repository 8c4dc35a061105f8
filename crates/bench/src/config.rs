//! Shared experiment configuration, and the run memo that lets one
//! invocation run each distinct scenario once.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use iotse_apps::catalog;
use iotse_core::runner::Fleet;
use iotse_core::{AppId, RunResult, Scenario, Scheme};
use iotse_sensors::world::WorldConfig;

/// Configuration shared by every figure/table reproduction.
///
/// A configuration and its clones share one [`RunMemo`], so every target a
/// `figures` invocation renders runs each distinct scenario once. Build a
/// fresh configuration to start from an empty memo.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The experiment seed (printed with every figure for replayability).
    pub seed: u64,
    /// Number of 1-second windows per scenario run.
    pub windows: u32,
    /// Worker threads for fleet execution (1 = fully sequential). Results
    /// are bitwise identical at any level — see `iotse_core::runner`.
    pub jobs: usize,
    /// The results this configuration and its clones have run.
    pub memo: RunMemo,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 42,
            windows: 5,
            jobs: 1,
            memo: RunMemo::default(),
        }
    }
}

impl ExperimentConfig {
    /// A faster configuration for smoke tests and benches.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            windows: 2,
            ..ExperimentConfig::default()
        }
    }

    /// This configuration with `jobs` worker threads.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Builds an un-run scenario for `apps` under `scheme`.
    #[must_use]
    pub fn scenario(&self, scheme: Scheme, apps: &[AppId]) -> Scenario {
        Scenario::new(scheme, catalog::apps(apps, self.seed))
            .windows(self.windows)
            .seed(self.seed)
    }

    /// Builds an un-run scenario for `apps` under `scheme` in `world`.
    #[must_use]
    pub fn scenario_in_world(
        &self,
        scheme: Scheme,
        apps: &[AppId],
        world: WorldConfig,
    ) -> Scenario {
        self.scenario(scheme, apps).world(world)
    }

    /// Runs a fleet of scenarios on `self.jobs` threads through the memo;
    /// results come back in submission order regardless of completion
    /// order. See [`RunMemo::run`].
    #[must_use]
    pub fn run_fleet(&self, scenarios: Vec<Scenario>) -> Vec<RunResult> {
        self.memo.run(Fleet::new(self.jobs), scenarios)
    }

    /// Runs `apps` under `scheme` with this configuration.
    #[must_use]
    pub fn run(&self, scheme: Scheme, apps: &[AppId]) -> RunResult {
        self.run_fleet(vec![self.scenario(scheme, apps)])
            .swap_remove(0)
    }

    /// Runs a batch of `(scheme, apps)` cells on the fleet, one result per
    /// cell in order.
    #[must_use]
    pub fn run_cells(&self, cells: &[(Scheme, &[AppId])]) -> Vec<RunResult> {
        self.run_fleet(
            cells
                .iter()
                .map(|&(scheme, apps)| self.scenario(scheme, apps))
                .collect(),
        )
    }

    /// Runs `apps` under `scheme` with a customized world.
    #[must_use]
    pub fn run_in_world(&self, scheme: Scheme, apps: &[AppId], world: WorldConfig) -> RunResult {
        self.run_fleet(vec![self.scenario_in_world(scheme, apps, world)])
            .swap_remove(0)
    }
}

/// The results of the distinct scenarios run so far, keyed by
/// [`Scenario::fingerprint`], shared by every clone of the handle.
///
/// The memo lives as long as the configuration that owns it: one `figures`
/// invocation, or one benchmark pass. It holds no process-global state.
#[derive(Clone, Default)]
pub struct RunMemo(Arc<Mutex<MemoState>>);

#[derive(Default)]
struct MemoState {
    results: BTreeMap<u128, Box<RunResult>>,
    runs: u64,
    hits: u64,
}

/// What a [`RunMemo`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Scenarios actually run.
    pub runs: u64,
    /// Results handed out from the memo instead of a run.
    pub hits: u64,
    /// Distinct results stored.
    pub entries: usize,
}

impl RunMemo {
    fn state(&self) -> MutexGuard<'_, MemoState> {
        // The lock is never held across a run, so a poisoned memo still
        // holds only complete results.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `scenarios` on `fleet`, each distinct key once, and returns
    /// one result per scenario in submission order.
    ///
    /// A scenario whose [`Scenario::fingerprint`] is already stored, or
    /// appears earlier in the same call, gets a clone of that result.
    /// Every other scenario runs on `fleet`, in submission order, and
    /// keyed results are stored. Repeats are found before dispatch, so the
    /// run and hit counts do not depend on the fleet's width.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any scenario, as [`Fleet::run`] does.
    #[must_use]
    pub fn run(&self, fleet: Fleet, scenarios: Vec<Scenario>) -> Vec<RunResult> {
        let mut fresh = Vec::with_capacity(scenarios.len());
        let mut fresh_keys = Vec::with_capacity(scenarios.len());
        // (submission index, key) of each repeat, in submission order.
        let mut repeats = Vec::new();
        {
            let mut state = self.state();
            let mut claimed = BTreeSet::new();
            for (i, scenario) in scenarios.into_iter().enumerate() {
                let key = scenario.fingerprint();
                match key {
                    Some(k) if claimed.contains(&k) || state.results.contains_key(&k) => {
                        repeats.push((i, k));
                    }
                    _ => {
                        claimed.extend(key);
                        fresh_keys.push(key);
                        fresh.push(scenario);
                    }
                }
            }
            state.runs += fresh.len() as u64;
            state.hits += repeats.len() as u64;
        }
        let mut out = fleet.run(fresh);
        let mut state = self.state();
        for (key, result) in fresh_keys.into_iter().zip(&out) {
            if let Some(k) = key {
                state.results.insert(k, Box::new(result.clone()));
            }
        }
        // Fresh results keep their relative order, so inserting each repeat
        // at its index, in index order, finds every earlier slot filled.
        out.reserve_exact(repeats.len());
        for (i, k) in repeats {
            let stored = state
                .results
                .get(&k)
                .expect("a repeat follows the run that stored its key");
            out.insert(i, RunResult::clone(stored));
        }
        out
    }

    /// Runs, hits and stored results so far.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let state = self.state();
        MemoStats {
            runs: state.runs,
            hits: state.hits,
            entries: state.results.len(),
        }
    }
}

impl std::fmt::Debug for RunMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RunMemo").field(&self.stats()).finish()
    }
}

/// Parses a scheme name (case-insensitive).
///
/// # Errors
///
/// Returns the unknown name.
pub fn parse_scheme(name: &str) -> Result<Scheme, String> {
    match name.to_ascii_lowercase().as_str() {
        "baseline" => Ok(Scheme::Baseline),
        "batching" => Ok(Scheme::Batching),
        "com" => Ok(Scheme::Com),
        "beam" => Ok(Scheme::Beam),
        "bcom" => Ok(Scheme::Bcom),
        other => Err(format!(
            "unknown scheme '{other}' (baseline|batching|com|beam|bcom)"
        )),
    }
}

/// Parses a comma- or plus-separated app list like `"A2,A7"` or `"a2+a11"`.
///
/// # Errors
///
/// Returns the first unknown app id, or an error for an empty list.
pub fn parse_app_list(list: &str) -> Result<Vec<AppId>, String> {
    let mut out = Vec::new();
    for part in list
        .split([',', '+'])
        .map(str::trim)
        .filter(|p| !p.is_empty())
    {
        let upper = part.to_ascii_uppercase();
        let id = AppId::ALL
            .iter()
            .copied()
            .find(|id| id.to_string() == upper)
            .ok_or_else(|| format!("unknown app '{part}' (A1..A11)"))?;
        out.push(id);
    }
    if out.is_empty() {
        return Err("empty app list".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::ScaledMcu;
    use iotse_core::workload::{AppOutput, ResourceProfile, SensorUsage, WindowData, Workload};
    use iotse_core::Calibration;
    use iotse_sim::time::SimDuration;

    /// A workload outside the catalog: it keeps the default fingerprint.
    struct Probe;

    impl Workload for Probe {
        fn id(&self) -> AppId {
            AppId::A3
        }
        fn name(&self) -> &'static str {
            "probe"
        }
        fn window(&self) -> SimDuration {
            SimDuration::from_secs(1)
        }
        fn sensors(&self) -> Vec<SensorUsage> {
            Vec::new()
        }
        fn resources(&self) -> ResourceProfile {
            catalog::app(AppId::A3, 0).resources()
        }
        fn compute(&mut self, _: &WindowData) -> AppOutput {
            AppOutput::Document(String::new())
        }
    }

    fn plain() -> Scenario {
        ExperimentConfig::quick().scenario(Scheme::Batching, &[AppId::A2, AppId::A7])
    }

    #[test]
    fn only_plain_scenarios_have_a_fingerprint() {
        assert!(plain().fingerprint().is_some());
        // Setting a default explicitly keeps the scenario plain.
        let explicit = plain()
            .world(WorldConfig::default())
            .calibration(Calibration::paper())
            .faults(Vec::new());
        assert_eq!(explicit.fingerprint(), plain().fingerprint());

        let mut slow_cpu = Calibration::paper();
        slow_cpu.cpu_transition_time = slow_cpu.cpu_transition_time * 2;
        let quiet_world = WorldConfig {
            utterance_count: 3,
            ..WorldConfig::default()
        };
        let off_path: [(&str, Scenario); 9] = [
            ("world", plain().world(quiet_world)),
            ("calibration", plain().calibration(slow_cpu)),
            (
                "faults",
                plain().faults(iotse_core::robustness::demo_scripts()),
            ),
            ("timeline", plain().with_timeline()),
            ("trace", plain().with_trace()),
            ("metrics", plain().with_metrics()),
            ("telemetry", plain().with_telemetry()),
            (
                "scaled MCU",
                Scenario::new(
                    Scheme::Com,
                    vec![Box::new(ScaledMcu::new(catalog::app(AppId::A2, 42), 1.0))],
                ),
            ),
            (
                "probe",
                Scenario::new(
                    Scheme::Batching,
                    vec![catalog::app(AppId::A2, 42), Box::new(Probe)],
                ),
            ),
        ];
        for (what, scenario) in off_path {
            assert_eq!(scenario.fingerprint(), None, "{what}");
        }
    }

    #[test]
    fn fingerprints_separate_every_folded_setting() {
        use AppId::{A10, A2, A7};
        let cfg = ExperimentConfig::quick();
        let keyed = [
            ("base", plain()),
            ("scheme", cfg.scenario(Scheme::Beam, &[A2, A7])),
            ("windows", plain().windows(3)),
            ("seed", plain().seed(43)),
            ("compute cache", plain().without_compute_cache()),
            ("app order", cfg.scenario(Scheme::Batching, &[A7, A2])),
            ("one app", cfg.scenario(Scheme::Batching, &[A2])),
            ("A10 at 42", cfg.scenario(Scheme::Batching, &[A10])),
            (
                "A10 at 7",
                Scenario::new(Scheme::Batching, catalog::apps(&[A10], 7))
                    .windows(cfg.windows)
                    .seed(cfg.seed),
            ),
            ("no apps", Scenario::new(Scheme::Batching, Vec::new())),
        ];
        let mut seen = BTreeMap::new();
        for (what, scenario) in keyed {
            let key = scenario.fingerprint().expect("a plain scenario");
            if let Some(earlier) = seen.insert(key, what) {
                panic!("{what} shares its key with {earlier}");
            }
        }
        // Rebuilding the same scenario gives the same key.
        assert_eq!(plain().fingerprint(), plain().fingerprint());
    }

    /// The cells the oracle test submits: repeats inside one call, and
    /// keyless scenarios that must always run.
    fn cells(cfg: &ExperimentConfig) -> Vec<Scenario> {
        use AppId::{A10, A2, A7};
        vec![
            cfg.scenario(Scheme::Baseline, &[A2]),
            cfg.scenario(Scheme::Com, &[A2, A7]),
            cfg.scenario(Scheme::Baseline, &[A2]),
            cfg.scenario(Scheme::Baseline, &[A10]).with_trace(),
            cfg.scenario(Scheme::Com, &[A2, A7]),
            cfg.scenario(Scheme::Baseline, &[A10]).with_trace(),
            cfg.scenario(Scheme::Baseline, &[A2]),
        ]
    }

    #[test]
    fn memoized_fleets_match_fresh_runs_at_every_jobs_level() {
        // The oracle: every cell rebuilt and run on its own, no memo.
        let expected: Vec<RunResult> = cells(&ExperimentConfig::quick())
            .into_iter()
            .map(Scenario::run)
            .collect();
        for jobs in [1, 4] {
            let cfg = ExperimentConfig::quick().with_jobs(jobs);
            assert_eq!(
                cfg.run_fleet(cells(&cfg)),
                expected,
                "first call, jobs {jobs}"
            );
            // Two distinct keys ran, plus the two traced runs.
            let first = cfg.memo.stats();
            assert_eq!((first.runs, first.hits, first.entries), (4, 3, 2));
            assert_eq!(
                cfg.run_fleet(cells(&cfg)),
                expected,
                "second call, jobs {jobs}"
            );
            let second = cfg.memo.stats();
            assert_eq!((second.runs, second.hits, second.entries), (6, 8, 2));
            // A clone shares the memo; `run` goes through it too.
            let clone = cfg.clone();
            assert_eq!(clone.run(Scheme::Baseline, &[AppId::A2]), expected[0]);
            assert_eq!(cfg.memo.stats().hits, 9);
        }
    }

    #[test]
    fn default_and_quick_differ_only_in_windows() {
        let d = ExperimentConfig::default();
        let q = ExperimentConfig::quick();
        assert_eq!(d.seed, q.seed);
        assert!(q.windows < d.windows);
    }

    #[test]
    fn run_helper_produces_a_result() {
        let cfg = ExperimentConfig::quick();
        let r = cfg.run(Scheme::Baseline, &[AppId::A2]);
        assert_eq!(r.scheme, Scheme::Baseline);
        assert!(r.total_energy().as_millijoules() > 0.0);
        let in_world = cfg.run_in_world(Scheme::Baseline, &[AppId::A2], WorldConfig::default());
        assert_eq!(in_world, r);
    }

    #[test]
    fn scheme_parsing_accepts_any_case() {
        assert_eq!(parse_scheme("BCOM").unwrap(), Scheme::Bcom);
        assert_eq!(parse_scheme("beam").unwrap(), Scheme::Beam);
        assert!(parse_scheme("turbo").is_err());
    }

    #[test]
    fn app_list_parsing_accepts_both_separators() {
        assert_eq!(parse_app_list("A2,A7").unwrap(), vec![AppId::A2, AppId::A7]);
        assert_eq!(
            parse_app_list("a11+a6+a1").unwrap(),
            vec![AppId::A11, AppId::A6, AppId::A1]
        );
        assert!(parse_app_list("A99").is_err());
        assert!(parse_app_list("").is_err());
    }
}
