//! Deterministic, scripted fault injection.
//!
//! A [`FaultScript`] declares one fault — *what* goes wrong
//! ([`FaultKind`]), *where* (target slots), *when* (start + duration) and
//! under which `seed` its random decisions replay. A [`FaultPlan`] compiles
//! a list of scripts against the scenario's [`SeedTree`] into per-script
//! random streams and answers the executor's questions at injection points:
//! "does this read survive?", "is the sensor ready for this attempt?",
//! "how long is this transfer really?",
//! "when does the partition lift?".
//!
//! # Determinism contract
//!
//! Fault decisions are a pure function of `(scenario seed, script index,
//! script seed, query order)`. Every injection point consumes its script's
//! stream in simulation-event order, which the engine already fixes, so a
//! faulted run replays bitwise across processes and `--jobs` levels. A
//! scenario with no scripts builds no plan, draws no random numbers and
//! schedules no events: faults *off* is indistinguishable from the layer
//! not existing.
//!
//! The plan also tallies [`FaultStats`] — exact counters (`faults_injected`,
//! `samples_dropped`, `bytes_corrupted`) that the bench suite gates
//! bit-for-bit against its committed baseline.

use crate::rng::{SeedTree, SimRng};
use crate::time::{SimDuration, SimTime};

/// What goes wrong. Sensor kinds act on the sampling path, link kinds on
/// the bus transfer path, and the remaining kinds on the engine itself.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The target sensors stop answering: every Task-I read attempt in the
    /// window fails with probability `probability`, and a sample whose
    /// retries are exhausted is lost.
    SensorDropout {
        /// Chance in `[0, 1]` that a given sampling event is dropped.
        probability: f64,
    },
    /// The target sensors fail §II-B's Task-I availability check: each read
    /// attempt in the window independently finds the ready bit clear with
    /// probability `probability` and is retried. Unlike dropout, the draw
    /// is per attempt, so a sample is lost only if every retry fails.
    SensorUnavailable {
        /// Chance in `[0, 1]` that a given read attempt fails.
        probability: f64,
    },
    /// The target sensors latch: the first value read inside the window is
    /// returned for every subsequent read until the window ends.
    SensorStuckAt,
    /// The target sensors read noisy: a random offset of up to `amplitude`
    /// (engineering units) is added to every value read in the window.
    SensorNoiseBurst {
        /// Peak absolute offset added to scalar/axis values.
        amplitude: f64,
    },
    /// The serial link corrupts roughly `per_byte` of the bytes on the
    /// wire; corrupted bytes are retransmitted, stretching transfer time.
    LinkCorruption {
        /// Expected fraction in `[0, 1]` of payload bytes corrupted.
        per_byte: f64,
    },
    /// The serial link is down: transfers that would start inside the
    /// window wait for it to lift before touching the wire.
    LinkPartition,
    /// The MCU reference clock runs slow: sensor-read overhead inside the
    /// window stretches by `ppm` parts per million.
    ClockDrift {
        /// Drift in parts per million of nominal read overhead.
        ppm: u32,
    },
    /// A misbehaving peripheral raises spurious interrupts at `rate_hz`
    /// for the window's duration, each paid for like a real one.
    InterruptStorm {
        /// Spurious-interrupt rate in events per second.
        rate_hz: u32,
    },
}

impl FaultKind {
    /// Stable kebab-case name, used in reports and traces.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::SensorDropout { .. } => "sensor-dropout",
            FaultKind::SensorUnavailable { .. } => "sensor-unavailable",
            FaultKind::SensorStuckAt => "sensor-stuck-at",
            FaultKind::SensorNoiseBurst { .. } => "sensor-noise-burst",
            FaultKind::LinkCorruption { .. } => "link-corruption",
            FaultKind::LinkPartition => "link-partition",
            FaultKind::ClockDrift { .. } => "clock-drift",
            FaultKind::InterruptStorm { .. } => "interrupt-storm",
        }
    }

    /// Whether this kind acts on the sensor sampling path (and therefore
    /// respects per-sensor target slots).
    #[must_use]
    pub fn is_sensor(&self) -> bool {
        matches!(
            self,
            FaultKind::SensorDropout { .. }
                | FaultKind::SensorUnavailable { .. }
                | FaultKind::SensorStuckAt
                | FaultKind::SensorNoiseBurst { .. }
        )
    }
}

/// One scheduled fault: a kind, the slots it targets, a time window and a
/// seed namespacing its random stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScript {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Sensor slots this fault applies to (positions in the platform's
    /// sensor table). Empty means "all". Ignored by non-sensor kinds.
    pub targets: Vec<u16>,
    /// When the fault begins.
    pub start: SimTime,
    /// How long it lasts. The active window is `[start, start + duration)`.
    pub duration: SimDuration,
    /// Seed for this script's random decisions, mixed with the scenario
    /// seed. Two scripts differing only in seed produce distinct schedules.
    pub seed: u64,
}

impl FaultScript {
    /// Creates a script for `kind` active over `[start, start + duration)`
    /// with seed 0 and no target restriction.
    ///
    /// # Panics
    ///
    /// Panics if the kind carries a probability or fraction outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(kind: FaultKind, start: SimTime, duration: SimDuration) -> Self {
        if let FaultKind::SensorDropout { probability: p }
        | FaultKind::SensorUnavailable { probability: p }
        | FaultKind::LinkCorruption { per_byte: p } = kind
        {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability must be in [0, 1], got {p}"
            );
        }
        FaultScript {
            kind,
            targets: Vec::new(),
            start,
            duration,
            seed: 0,
        }
    }

    /// Restricts the script to one sensor slot (may be chained).
    #[must_use]
    pub fn target(mut self, slot: u16) -> Self {
        self.targets.push(slot);
        self
    }

    /// Sets the script's seed.
    #[must_use]
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the script is active at `t`.
    #[must_use]
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }

    /// The first instant after the fault window.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.start.saturating_add(self.duration)
    }

    /// Whether the script applies to sensor slot `slot` (non-sensor kinds
    /// never do; an empty target list matches every slot).
    #[must_use]
    pub fn targets_slot(&self, slot: u16) -> bool {
        self.kind.is_sensor() && (self.targets.is_empty() || self.targets.contains(&slot))
    }
}

/// Exact counters of what the plan actually did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Individual fault firings: dropped reads, failed read attempts,
    /// stuck/noisy reads, delayed or corrupted transfers, drift-stretched
    /// reads, storm interrupts.
    pub faults_injected: u64,
    /// Sampling events lost to dropout after retry exhaustion.
    pub samples_dropped: u64,
    /// Payload bytes corrupted on the wire (and retransmitted).
    pub bytes_corrupted: u64,
}

/// What a sensor-path fault decided for one sampling event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorDisposition {
    /// The read is lost: every retry fails and the sample never arrives.
    Drop,
    /// The sensor is latched: return the first value read in the window.
    Stick,
    /// Add a noise offset (engineering units) to the value read.
    Noise(f64),
}

/// One script compiled with its random stream.
#[derive(Debug)]
struct ScriptRt {
    script: FaultScript,
    rng: SimRng,
}

/// A compiled fault schedule: scripts plus per-script random streams,
/// queried by the executor at each injection point.
#[derive(Debug)]
pub struct FaultPlan {
    scripts: Vec<ScriptRt>,
    stats: FaultStats,
}

impl FaultPlan {
    /// Compiles `scripts` against the scenario's seed tree. Each script's
    /// stream is derived from the `faults` namespace, its position and its
    /// own seed, so editing one script never perturbs another's draws.
    #[must_use]
    pub fn new(seeds: &SeedTree, scripts: &[FaultScript]) -> Self {
        let ns = seeds.child("faults");
        let compiled = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| ScriptRt {
                script: s.clone(),
                rng: ns
                    .child(&format!("script-{i}"))
                    .stream(&format!("seed-{}", s.seed)),
            })
            .collect();
        FaultPlan {
            scripts: compiled,
            stats: FaultStats::default(),
        }
    }

    /// Whether the plan holds no scripts at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scripts.is_empty()
    }

    /// The counters tallied so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Stable kind names of the scripts in declaration order (duplicates
    /// removed, order preserved).
    #[must_use]
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in &self.scripts {
            let name = s.script.kind.name();
            if !out.contains(&name) {
                out.push(name);
            }
        }
        out
    }

    /// Decides what happens to a sampling event on sensor `slot` at `now`.
    /// The first active script targeting the slot decides; dropout draws
    /// one Bernoulli per query, noise one amplitude per query. `None`
    /// means the read proceeds untouched.
    pub fn sensor_disposition(&mut self, slot: u16, now: SimTime) -> Option<SensorDisposition> {
        for rt in &mut self.scripts {
            if !(rt.script.active_at(now) && rt.script.targets_slot(slot)) {
                continue;
            }
            match rt.script.kind {
                FaultKind::SensorDropout { probability } => {
                    if rt.rng.gen_bool(probability) {
                        self.stats.faults_injected += 1;
                        self.stats.samples_dropped += 1;
                        return Some(SensorDisposition::Drop);
                    }
                    return None;
                }
                FaultKind::SensorStuckAt => {
                    self.stats.faults_injected += 1;
                    return Some(SensorDisposition::Stick);
                }
                FaultKind::SensorNoiseBurst { amplitude } => {
                    let offset = (rt.rng.gen::<f64>() * 2.0 - 1.0) * amplitude;
                    self.stats.faults_injected += 1;
                    return Some(SensorDisposition::Noise(offset));
                }
                _ => {}
            }
        }
        None
    }

    /// Whether one Task-I read attempt on sensor `slot` for the sampling
    /// event at `now` finds the sensor unavailable. Every active
    /// `sensor-unavailable` script targeting the slot draws one Bernoulli
    /// per attempt (the first failure short-circuits); each failed attempt
    /// counts as one injected fault.
    pub fn read_unavailable(&mut self, slot: u16, now: SimTime) -> bool {
        for rt in &mut self.scripts {
            if let FaultKind::SensorUnavailable { probability } = rt.script.kind {
                if rt.script.active_at(now)
                    && rt.script.targets_slot(slot)
                    && rt.rng.gen_bool(probability)
                {
                    self.stats.faults_injected += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Extra sensor-read overhead due to clock drift active at `now`.
    /// Integer ppm arithmetic — no random draws, no rounding drift.
    pub fn drift_extra(&mut self, base: SimDuration, now: SimTime) -> SimDuration {
        let mut extra_ns = 0u64;
        for rt in &mut self.scripts {
            if let FaultKind::ClockDrift { ppm } = rt.script.kind {
                if rt.script.active_at(now) {
                    extra_ns += base.as_nanos().saturating_mul(u64::from(ppm)) / 1_000_000;
                }
            }
        }
        if extra_ns > 0 {
            self.stats.faults_injected += 1;
        }
        SimDuration::from_nanos(extra_ns)
    }

    /// If a transfer ready at `ready` falls inside a link partition,
    /// returns the instant the partition lifts (the latest end among
    /// active partitions); otherwise `None`.
    pub fn partition_release(&mut self, ready: SimTime) -> Option<SimTime> {
        let mut release: Option<SimTime> = None;
        for rt in &self.scripts {
            if matches!(rt.script.kind, FaultKind::LinkPartition) && rt.script.active_at(ready) {
                let end = rt.script.end();
                release = Some(release.map_or(end, |r| r.max(end)));
            }
        }
        if release.is_some() {
            self.stats.faults_injected += 1;
        }
        release
    }

    /// How many of `bytes` payload bytes are corrupted (and retransmitted)
    /// for a transfer starting at `now`. Expected count is `bytes *
    /// per_byte`; the fractional part is settled with one Bernoulli draw
    /// so the counter stays integral and exactly reproducible.
    pub fn corrupted_bytes(&mut self, now: SimTime, bytes: u64) -> u64 {
        let mut corrupted = 0u64;
        for rt in &mut self.scripts {
            if let FaultKind::LinkCorruption { per_byte } = rt.script.kind {
                if rt.script.active_at(now) && bytes > 0 {
                    let expected = bytes as f64 * per_byte;
                    let whole = expected.floor();
                    let frac = expected - whole;
                    let mut n = whole as u64;
                    if frac > 0.0 && rt.rng.gen_bool(frac) {
                        n += 1;
                    }
                    corrupted += n.min(bytes);
                }
            }
        }
        if corrupted > 0 {
            self.stats.faults_injected += 1;
            self.stats.bytes_corrupted += corrupted;
        }
        corrupted
    }

    /// The spurious-interrupt schedule of every interrupt-storm script:
    /// evenly spaced instants inside each window and before the run's
    /// `horizon`, merged and sorted. No random draws — a storm's timing is
    /// part of its declaration. Clipping at the horizon keeps a storm that
    /// outlasts the run from extending it (or from sizing its schedule by
    /// the declared window alone).
    #[must_use]
    pub fn storm_schedule(&self, horizon: SimTime) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self.storm_instants(horizon).collect();
        times.sort_unstable();
        times
    }

    /// How many instants [`FaultPlan::storm_schedule`] holds, counted
    /// without building it.
    #[must_use]
    pub fn storm_count(&self, horizon: SimTime) -> usize {
        self.storm_instants(horizon).count()
    }

    /// Each storm script's instants before `horizon`, script by script.
    fn storm_instants(&self, horizon: SimTime) -> impl Iterator<Item = SimTime> + '_ {
        self.scripts.iter().flat_map(move |rt| {
            let interval_ns = match rt.script.kind {
                FaultKind::InterruptStorm { rate_hz } if rate_hz > 0 => {
                    1_000_000_000u64 / u64::from(rate_hz)
                }
                _ => 0,
            };
            let end = if interval_ns == 0 || rt.script.duration == SimDuration::ZERO {
                rt.script.start
            } else {
                rt.script.end().min(horizon)
            };
            std::iter::successors(Some(rt.script.start), move |&t| {
                Some(t.saturating_add(SimDuration::from_nanos(interval_ns)))
            })
            .take_while(move |&t| t < end)
        })
    }

    /// Records one spurious storm interrupt actually raised.
    pub fn note_storm_interrupt(&mut self) {
        self.stats.faults_injected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dropout(p: f64) -> FaultScript {
        FaultScript::new(
            FaultKind::SensorDropout { probability: p },
            SimTime::from_millis(100),
            SimDuration::from_millis(200),
        )
    }

    #[test]
    fn windows_are_half_open() {
        let s = dropout(1.0);
        assert!(!s.active_at(SimTime::from_millis(99)));
        assert!(s.active_at(SimTime::from_millis(100)));
        assert!(s.active_at(SimTime::from_millis(299)));
        assert!(!s.active_at(SimTime::from_millis(300)));
    }

    #[test]
    fn empty_targets_match_all_sensor_slots() {
        let s = dropout(1.0);
        assert!(s.targets_slot(0));
        assert!(s.targets_slot(9));
        let t = dropout(1.0).target(3);
        assert!(t.targets_slot(3));
        assert!(!t.targets_slot(4));
    }

    #[test]
    fn link_kinds_never_target_sensor_slots() {
        let s = FaultScript::new(
            FaultKind::LinkPartition,
            SimTime::ZERO,
            SimDuration::from_millis(10),
        );
        assert!(!s.targets_slot(0));
    }

    #[test]
    #[should_panic(expected = "fault probability")]
    fn out_of_range_probability_is_rejected() {
        for kind in [
            FaultKind::SensorUnavailable { probability: -0.1 },
            FaultKind::SensorUnavailable { probability: 1.5 },
            FaultKind::LinkCorruption { per_byte: 2.0 },
        ] {
            let name = kind.name();
            let err = std::panic::catch_unwind(|| {
                FaultScript::new(kind, SimTime::ZERO, SimDuration::from_secs(1))
            })
            .expect_err(name);
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("fault probability"), "{name}: {msg}");
        }
        let _ = dropout(1.5);
    }

    fn unavailable(p: f64) -> FaultScript {
        FaultScript::new(
            FaultKind::SensorUnavailable { probability: p },
            SimTime::ZERO,
            SimDuration::MAX,
        )
    }

    #[test]
    fn unavailability_draws_once_per_attempt_and_counts_failures() {
        let mut plan = FaultPlan::new(&SeedTree::new(99), &[unavailable(0.3)]);
        // 1 000 attempts of one sampling event: every attempt draws anew.
        let failed = (0..1000)
            .filter(|_| plan.read_unavailable(0, SimTime::from_millis(5)))
            .count() as u64;
        assert!(
            (250..350).contains(&failed),
            "expected ≈300 failures, got {failed}"
        );
        assert_eq!(plan.stats().faults_injected, failed);
        assert_eq!(plan.stats().samples_dropped, 0);
        // Sampling-event dispositions are untouched by this kind.
        assert_eq!(plan.sensor_disposition(0, SimTime::from_millis(5)), None);
    }

    #[test]
    fn unavailability_respects_targets_windows_and_replays() {
        let scripts = [FaultScript::new(
            FaultKind::SensorUnavailable { probability: 1.0 },
            SimTime::from_millis(100),
            SimDuration::from_millis(200),
        )
        .target(3)
        .seeded(5)];
        let seeds = SeedTree::new(42);
        let mut plan = FaultPlan::new(&seeds, &scripts);
        assert!(plan.read_unavailable(3, SimTime::from_millis(150)));
        assert!(!plan.read_unavailable(4, SimTime::from_millis(150)));
        assert!(!plan.read_unavailable(3, SimTime::from_millis(300)));
        assert_eq!(plan.stats().faults_injected, 1);
        assert!(unavailable(0.0).targets_slot(9), "a sensor kind");
        let mut a = FaultPlan::new(&seeds, &[unavailable(0.5).seeded(7)]);
        let mut b = FaultPlan::new(&seeds, &[unavailable(0.5).seeded(7)]);
        let draws = |p: &mut FaultPlan| {
            (0..256u64)
                .map(|i| p.read_unavailable(0, SimTime::from_millis(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(&mut a), draws(&mut b));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn plans_replay_exactly_for_the_same_seeds() {
        let scripts = vec![dropout(0.5).seeded(7), dropout(0.25).target(2).seeded(8)];
        let seeds = SeedTree::new(42);
        let mut a = FaultPlan::new(&seeds, &scripts);
        let mut b = FaultPlan::new(&seeds, &scripts);
        for i in 0..500u64 {
            let t = SimTime::from_millis(100 + (i % 200));
            assert_eq!(
                a.sensor_disposition((i % 4) as u16, t),
                b.sensor_disposition((i % 4) as u16, t)
            );
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().faults_injected > 0, "p=0.5 over 500 draws");
        assert_eq!(a.stats().faults_injected, a.stats().samples_dropped);
    }

    #[test]
    fn different_script_seeds_give_distinct_schedules() {
        let seeds = SeedTree::new(42);
        let mut a = FaultPlan::new(&seeds, &[dropout(0.5).seeded(1)]);
        let mut b = FaultPlan::new(&seeds, &[dropout(0.5).seeded(2)]);
        let decisions = |p: &mut FaultPlan| {
            (0..256u64)
                .map(|i| p.sensor_disposition(0, SimTime::from_millis(100 + (i % 200))))
                .collect::<Vec<_>>()
        };
        assert_ne!(decisions(&mut a), decisions(&mut b));
    }

    #[test]
    fn stuck_and_noise_fire_without_consuming_shared_streams() {
        let scripts = vec![
            FaultScript::new(
                FaultKind::SensorStuckAt,
                SimTime::ZERO,
                SimDuration::from_secs(1),
            ),
            FaultScript::new(
                FaultKind::SensorNoiseBurst { amplitude: 2.0 },
                SimTime::from_secs(2),
                SimDuration::from_secs(1),
            ),
        ];
        let mut plan = FaultPlan::new(&SeedTree::new(1), &scripts);
        assert_eq!(
            plan.sensor_disposition(0, SimTime::from_millis(10)),
            Some(SensorDisposition::Stick)
        );
        match plan.sensor_disposition(0, SimTime::from_millis(2500)) {
            Some(SensorDisposition::Noise(n)) => assert!(n.abs() <= 2.0),
            other => panic!("expected noise, got {other:?}"),
        }
        assert_eq!(plan.stats().faults_injected, 2);
        assert_eq!(plan.stats().samples_dropped, 0);
    }

    #[test]
    fn drift_is_integer_ppm_of_base() {
        let scripts = vec![FaultScript::new(
            FaultKind::ClockDrift { ppm: 200_000 },
            SimTime::ZERO,
            SimDuration::from_secs(1),
        )];
        let mut plan = FaultPlan::new(&SeedTree::new(1), &scripts);
        let base = SimDuration::from_micros(100);
        assert_eq!(
            plan.drift_extra(base, SimTime::from_millis(5)),
            SimDuration::from_micros(20)
        );
        assert_eq!(
            plan.drift_extra(base, SimTime::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn partitions_release_at_the_latest_active_end() {
        let scripts = vec![
            FaultScript::new(
                FaultKind::LinkPartition,
                SimTime::from_millis(100),
                SimDuration::from_millis(50),
            ),
            FaultScript::new(
                FaultKind::LinkPartition,
                SimTime::from_millis(120),
                SimDuration::from_millis(100),
            ),
        ];
        let mut plan = FaultPlan::new(&SeedTree::new(1), &scripts);
        assert_eq!(
            plan.partition_release(SimTime::from_millis(130)),
            Some(SimTime::from_millis(220))
        );
        assert_eq!(plan.partition_release(SimTime::from_millis(500)), None);
    }

    #[test]
    fn corruption_counts_are_near_expectation_and_capped() {
        let scripts = vec![FaultScript::new(
            FaultKind::LinkCorruption { per_byte: 0.25 },
            SimTime::ZERO,
            SimDuration::from_secs(10),
        )
        .seeded(3)];
        let mut plan = FaultPlan::new(&SeedTree::new(1), &scripts);
        let n = plan.corrupted_bytes(SimTime::from_secs(1), 1000);
        assert!((250..=251).contains(&n), "expected ~250, got {n}");
        assert_eq!(plan.stats().bytes_corrupted, n);
        // Full corruption never exceeds the payload.
        let scripts = vec![FaultScript::new(
            FaultKind::LinkCorruption { per_byte: 1.0 },
            SimTime::ZERO,
            SimDuration::from_secs(10),
        )];
        let mut plan = FaultPlan::new(&SeedTree::new(1), &scripts);
        assert_eq!(plan.corrupted_bytes(SimTime::from_secs(1), 64), 64);
    }

    #[test]
    fn storm_schedule_is_even_sorted_and_bounded() {
        let scripts = vec![FaultScript::new(
            FaultKind::InterruptStorm { rate_hz: 1000 },
            SimTime::from_millis(100),
            SimDuration::from_millis(10),
        )];
        let plan = FaultPlan::new(&SeedTree::new(1), &scripts);
        let times = plan.storm_schedule(SimTime::MAX);
        assert_eq!(times.len(), 10);
        assert_eq!(times[0], SimTime::from_millis(100));
        assert_eq!(times[1], SimTime::from_millis(101));
        assert!(times.iter().all(|t| *t < SimTime::from_millis(110)));
        // A run that ends mid-storm keeps only the instants before its end.
        let clipped = plan.storm_schedule(SimTime::from_micros(104_500));
        assert_eq!(clipped, times[..5]);
        assert_eq!(plan.storm_count(SimTime::MAX), 10);
        assert_eq!(plan.storm_count(SimTime::from_micros(104_500)), 5);
        assert_eq!(plan.storm_count(SimTime::ZERO), 0);
    }

    #[test]
    fn zero_rate_storms_schedule_nothing() {
        let scripts = vec![FaultScript::new(
            FaultKind::InterruptStorm { rate_hz: 0 },
            SimTime::ZERO,
            SimDuration::from_secs(1),
        )];
        assert!(FaultPlan::new(&SeedTree::new(1), &scripts)
            .storm_schedule(SimTime::MAX)
            .is_empty());
    }
}
