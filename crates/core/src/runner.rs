//! The scenario fleet runner: fan independent scenarios across OS threads.
//!
//! Every experiment surface in the workspace — figures, tables, ablation
//! sweeps, repeatability — is a *fleet* of independent [`Scenario`]
//! executions keyed by `(scheme, apps, seed, world)`. Each execution is a
//! self-contained deterministic simulation: its RNG streams derive from its
//! own seed via [`iotse_sim::rng::SeedTree`], and its [`PhysicalWorld`] is
//! constructed inside [`Scenario::run`] on whichever thread runs it. That
//! makes the fleet embarrassingly parallel — and, crucially, makes the
//! *results* independent of scheduling:
//!
//! * **Work distribution** is a single atomic cursor over the submission
//!   order; workers claim the next unstarted scenario. No channels, no
//!   stealing, no allocation in the dispatch path.
//! * **Aggregation** places each [`RunResult`] at its submission index.
//!   Completion order — which varies run to run under load — is never
//!   observable in the output.
//! * **Seeding** never involves the worker: a scenario's RNG is a pure
//!   function of its own key, so `--jobs 1` and `--jobs 8` produce bitwise
//!   identical results (enforced by `tests/determinism.rs`).
//!
//! [`PhysicalWorld`]: iotse_sensors::world::PhysicalWorld
//!
//! # Examples
//!
//! ```no_run
//! use iotse_core::runner::Fleet;
//! use iotse_core::executor::Scenario;
//! use iotse_core::scheme::Scheme;
//!
//! let scenarios: Vec<Scenario> = (0..8)
//!     .map(|seed| Scenario::new(Scheme::Batching, vec![]).seed(seed))
//!     .collect();
//! let results = Fleet::new(4).run(scenarios);
//! assert_eq!(results.len(), 8); // ordered by submission, not completion
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::executor::Scenario;
use crate::result::RunResult;

/// A pool size for scenario execution.
///
/// `Fleet` is a configuration value, not a persistent pool: threads are
/// scoped to each [`Fleet::run`] call, so there is no lifecycle to manage
/// and no state carried between fleets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fleet {
    jobs: usize,
}

impl Default for Fleet {
    /// One worker per available CPU.
    fn default() -> Self {
        Fleet::new(Fleet::available_parallelism())
    }
}

impl Fleet {
    /// A fleet of `jobs` worker threads. `jobs` is clamped to at least 1.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Fleet { jobs: jobs.max(1) }
    }

    /// The number of worker threads this fleet will use.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The machine's available parallelism (1 if it cannot be queried).
    #[must_use]
    pub fn available_parallelism() -> usize {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Runs every scenario and returns results **in submission order**.
    ///
    /// With one job (or one scenario) everything runs on the calling
    /// thread — no pool, identical code path to calling
    /// [`Scenario::run`] in a loop.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any scenario (the remaining scenarios may or
    /// may not have run).
    #[must_use]
    pub fn run(&self, scenarios: Vec<Scenario>) -> Vec<RunResult> {
        let n = scenarios.len();
        if self.jobs == 1 || n <= 1 {
            return scenarios.into_iter().map(Scenario::run).collect();
        }

        // Claimable task slots and submission-indexed result slots. The
        // mutexes are uncontended by construction — the atomic cursor hands
        // each index to exactly one worker — they exist to keep the shared
        // vectors safe without `unsafe` (the crate forbids it).
        let tasks: Vec<Mutex<Option<Scenario>>> =
            scenarios.into_iter().map(|s| Mutex::new(Some(s))).collect();
        let results: Vec<Mutex<Option<RunResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Lock poisoning only happens after another worker
                    // panicked, and Fleet::run's documented panic contract
                    // already propagates that panic; the take() invariant is
                    // enforced by the atomic cursor handing out each index
                    // exactly once.
                    let scenario = tasks[i]
                        .lock()
                        // iotse-lint: allow(IOTSE-E04) poisoning propagates a worker panic
                        .expect("task slot poisoned")
                        .take()
                        // iotse-lint: allow(IOTSE-E04) the cursor claims each index exactly once
                        .expect("each task slot is claimed exactly once");
                    let result = scenario.run();
                    // iotse-lint: allow(IOTSE-E04) poisoning propagates a worker panic
                    *results[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    // iotse-lint: allow(IOTSE-E04) poisoning propagates a worker panic
                    .expect("result slot poisoned")
                    // iotse-lint: allow(IOTSE-E04) the scope joins every worker before this runs
                    .expect("every slot is filled before the scope ends")
            })
            .collect()
    }
}

/// Convenience: run `scenarios` on `jobs` threads, results in submission
/// order.
#[must_use]
pub fn run_fleet(scenarios: Vec<Scenario>, jobs: usize) -> Vec<RunResult> {
    Fleet::new(jobs).run(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use crate::workload::{AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload};
    use iotse_sensors::spec::SensorId;
    use iotse_sim::time::SimDuration;

    /// A tiny deterministic workload so runner tests don't depend on
    /// `iotse-apps`.
    struct Probe;

    impl Workload for Probe {
        fn id(&self) -> AppId {
            AppId::A2
        }
        fn name(&self) -> &'static str {
            "probe"
        }
        fn window(&self) -> SimDuration {
            SimDuration::from_secs(1)
        }
        fn sensors(&self) -> Vec<SensorUsage> {
            vec![SensorUsage::periodic(SensorId::S4, 50)]
        }
        fn resources(&self) -> ResourceProfile {
            ResourceProfile {
                heap_bytes: 1_000,
                stack_bytes: 100,
                mips: 1.0,
                cpu_compute: SimDuration::from_micros(100),
                mcu_compute: SimDuration::from_micros(1_000),
            }
        }
        fn compute(&mut self, data: &WindowData) -> AppOutput {
            AppOutput::Steps(data.sensor(SensorId::S4).len() as u32)
        }
    }

    fn fleet_of(seeds: &[u64]) -> Vec<Scenario> {
        seeds
            .iter()
            .map(|&seed| {
                Scenario::new(Scheme::Batching, vec![Box::new(Probe)])
                    .windows(1)
                    .seed(seed)
            })
            .collect()
    }

    #[test]
    fn empty_fleet_is_empty() {
        assert!(Fleet::new(4).run(Vec::new()).is_empty());
    }

    #[test]
    fn results_are_in_submission_order() {
        let seeds = [9u64, 1, 7, 3, 5, 2, 8, 4];
        let results = Fleet::new(4).run(fleet_of(&seeds));
        assert_eq!(results.len(), seeds.len());
        let reference: Vec<_> = fleet_of(&seeds).into_iter().map(Scenario::run).collect();
        assert_eq!(results, reference);
    }

    #[test]
    fn jobs_levels_agree_bitwise() {
        let seeds: Vec<u64> = (0..10).collect();
        let one = Fleet::new(1).run(fleet_of(&seeds));
        let four = Fleet::new(4).run(fleet_of(&seeds));
        let eight = Fleet::new(8).run(fleet_of(&seeds));
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn more_jobs_than_scenarios_is_fine() {
        let results = Fleet::new(64).run(fleet_of(&[1, 2]));
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Fleet::new(0).jobs(), 1);
        assert!(Fleet::default().jobs() >= 1);
    }
}
