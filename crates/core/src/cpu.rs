//! The Main-board CPU model.
//!
//! The CPU is a serial resource with a busy-watermark: tasks (interrupt
//! handling, data transfer, app compute) queue behind each other, and the
//! *gaps* between tasks are where the paper's energy story lives — a gap
//! shorter than the §III-A break-even keeps the CPU spinning in active mode
//! (charged to the data-transfer "stall" routine, per the paper's
//! attribution); a longer gap pays the 4 mJ transition and sleeps; and when
//! the platform knows no data path will need the CPU for a long time (pure
//! COM, or an idle hub), it deep-sleeps.
//!
//! Phase residencies are integer nanoseconds, so [`CpuStats`] is exact.

use iotse_energy::attribution::{Device, EnergyLedger, Routine};
use iotse_energy::units::Energy;
use iotse_sim::time::{SimDuration, SimTime};

use crate::calibration::Calibration;

/// What the CPU was doing in one timeline segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuPhase {
    /// Executing a task.
    Busy,
    /// Awake but waiting (gap below the sleep break-even).
    IdleActive,
    /// Transitioning between sleep and active.
    Transition,
    /// Light sleep (C1): 1.5 W.
    Sleep,
    /// Deep sleep: the idle-hub state.
    DeepSleep,
}

impl CpuPhase {
    /// Display name used in Figure 5 timelines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CpuPhase::Busy => "busy",
            CpuPhase::IdleActive => "idle-active",
            CpuPhase::Transition => "transition",
            CpuPhase::Sleep => "sleep",
            CpuPhase::DeepSleep => "deep-sleep",
        }
    }
}

/// How deep the CPU may sleep in idle gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SleepPolicy {
    /// Never sleep: the Baseline/BEAM blocking-poll design — "in Baseline,
    /// the CPU is in active mode all the time" (Figure 5a).
    Never,
    /// Light sleep (C1) past the §III-A break-even — what Batching enables.
    Light,
    /// Deep sleep on long gaps, light sleep on shorter ones — possible only
    /// when no MCU→CPU data path is armed (pure COM, idle hub).
    Deep,
}

/// How idle gaps are handled and attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapPolicy {
    /// How deep the CPU may sleep.
    pub sleep: SleepPolicy,
    /// The routine idle-gap energy is charged to. The paper charges CPU
    /// stall-for-data to [`Routine::DataTransfer`]; pure-COM waiting is
    /// charged to [`Routine::AppCompute`]; an idle hub to [`Routine::Idle`].
    pub gap_routine: Routine,
}

/// Aggregate CPU statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuStats {
    /// Time executing tasks.
    pub busy: SimDuration,
    /// Time awake but idle.
    pub idle_active: SimDuration,
    /// Time in sleep transitions.
    pub transition: SimDuration,
    /// Time in light sleep.
    pub sleep: SimDuration,
    /// Time in deep sleep.
    pub deep_sleep: SimDuration,
    /// Number of sleep episodes entered.
    pub sleep_episodes: u64,
}

impl CpuStats {
    /// Total accounted time.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.busy + self.idle_active + self.transition + self.sleep + self.deep_sleep
    }

    /// Fraction of time in (light or deep) sleep — the paper's "CPU can
    /// sleep for 93% of the time" metric.
    #[must_use]
    pub fn sleep_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            (self.sleep + self.deep_sleep).as_secs_f64() / total
        }
    }
}

/// The CPU account: watermark serialization, gap policy, energy charging,
/// and an optional phase timeline.
#[derive(Debug)]
pub struct CpuAccount {
    cal: Calibration,
    policy: GapPolicy,
    busy_until: SimTime,
    accounted_until: SimTime,
    stats: CpuStats,
    timeline: Option<Vec<(SimTime, CpuPhase)>>,
}

impl CpuAccount {
    /// Creates the account starting at `start`.
    #[must_use]
    pub fn new(cal: Calibration, policy: GapPolicy, start: SimTime) -> Self {
        CpuAccount {
            cal,
            policy,
            busy_until: start,
            accounted_until: start,
            stats: CpuStats::default(),
            timeline: None,
        }
    }

    /// Enables phase-timeline recording (Figure 5).
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.timeline = Some(Vec::new());
        self
    }

    /// The active gap policy.
    #[must_use]
    pub fn policy(&self) -> GapPolicy {
        self.policy
    }

    /// When the CPU becomes free.
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// The recorded `(start, phase)` timeline, if enabled.
    #[must_use]
    pub fn timeline(&self) -> Option<&[(SimTime, CpuPhase)]> {
        self.timeline.as_deref()
    }

    fn record(&mut self, at: SimTime, phase: CpuPhase) {
        if let Some(tl) = &mut self.timeline {
            if tl.last().map(|&(_, p)| p) != Some(phase) {
                tl.push((at, phase));
            }
        }
    }

    /// Runs a CPU task of `duration`, ready to start at `ready`. Returns
    /// `(start, end)`: the task starts when both `ready` and the previous
    /// task allow. Energy is charged to `(Cpu, routine)`; the preceding gap
    /// is charged per the gap policy.
    // iotse-lint: hot-path
    pub fn task(
        &mut self,
        ledger: &mut EnergyLedger,
        ready: SimTime,
        duration: SimDuration,
        routine: Routine,
    ) -> (SimTime, SimTime) {
        let start = ready.max(self.busy_until);
        self.account_gap(ledger, start);
        let end = start + duration;
        ledger.charge(Device::Cpu, routine, self.cal.cpu_active * duration);
        self.stats.busy += duration;
        self.record(start, CpuPhase::Busy);
        self.busy_until = end;
        self.accounted_until = end;
        (start, end)
    }

    /// Accounts the idle gap from the last accounted instant up to `until`
    /// (sleeping if long enough), charging it per the gap policy. Called
    /// implicitly by [`CpuAccount::task`] and explicitly at run end.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes already-accounted time.
    // iotse-lint: hot-path
    pub fn account_gap(&mut self, ledger: &mut EnergyLedger, until: SimTime) {
        let accounted_until = self.accounted_until;
        assert!(
            until >= accounted_until,
            "gap accounting must move forward ({until} < {accounted_until})"
        );
        let gap = until - accounted_until;
        if gap.is_zero() {
            return;
        }
        let at = accounted_until;
        let routine = self.policy.gap_routine;
        let may_sleep = self.policy.sleep != SleepPolicy::Never;
        let deep_ok =
            self.policy.sleep == SleepPolicy::Deep && gap >= self.cal.deep_sleep_break_even;
        let energy: Energy = if deep_ok {
            let trans = self.cal.cpu_deep_transition_time.min(gap);
            let asleep = gap - trans;
            self.stats.transition += trans;
            self.stats.deep_sleep += asleep;
            self.stats.sleep_episodes += 1;
            self.record(at, CpuPhase::Transition);
            self.record(at + trans, CpuPhase::DeepSleep);
            self.cal.cpu_transition_power * trans + self.cal.cpu_deep_sleep * asleep
        } else if may_sleep && gap >= self.cal.sleep_break_even {
            let trans = self.cal.cpu_transition_time.min(gap);
            let asleep = gap - trans;
            self.stats.transition += trans;
            self.stats.sleep += asleep;
            self.stats.sleep_episodes += 1;
            self.record(at, CpuPhase::Transition);
            self.record(at + trans, CpuPhase::Sleep);
            self.cal.cpu_transition_power * trans + self.cal.cpu_sleep * asleep
        } else {
            self.stats.idle_active += gap;
            self.record(at, CpuPhase::IdleActive);
            self.cal.cpu_active * gap
        };
        ledger.charge(Device::Cpu, routine, energy);
        self.accounted_until = until;
    }

    /// Closes the account at `end` (accounts the trailing gap).
    pub fn finish(&mut self, ledger: &mut EnergyLedger, end: SimTime) {
        let end = end.max(self.accounted_until);
        self.account_gap(ledger, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> GapPolicy {
        GapPolicy {
            sleep: SleepPolicy::Light,
            gap_routine: Routine::DataTransfer,
        }
    }

    fn account() -> (CpuAccount, EnergyLedger) {
        let cpu = CpuAccount::new(Calibration::paper(), policy(), SimTime::ZERO);
        (cpu, EnergyLedger::new())
    }

    #[test]
    fn tasks_serialize_on_the_watermark() {
        let (mut cpu, mut ledger) = account();
        let (s1, e1) = cpu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_millis(5),
            Routine::AppCompute,
        );
        assert_eq!((s1, e1), (SimTime::ZERO, SimTime::from_millis(5)));
        // Ready at 1 ms but CPU busy until 5 ms.
        let (s2, e2) = cpu.task(
            &mut ledger,
            SimTime::from_millis(1),
            SimDuration::from_millis(2),
            Routine::Interrupt,
        );
        assert_eq!((s2, e2), (SimTime::from_millis(5), SimTime::from_millis(7)));
        assert_eq!(cpu.stats().busy, SimDuration::from_millis(7));
    }

    #[test]
    fn short_gap_stays_active_and_is_charged_to_policy_routine() {
        let (mut cpu, mut ledger) = account();
        cpu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_micros(100),
            Routine::Interrupt,
        );
        // 0.5 ms gap < 1.143 ms break-even.
        cpu.task(
            &mut ledger,
            SimTime::from_micros(600),
            SimDuration::from_micros(100),
            Routine::Interrupt,
        );
        let stats = cpu.stats();
        assert_eq!(stats.idle_active, SimDuration::from_micros(500));
        assert_eq!(stats.sleep, SimDuration::ZERO);
        // Gap energy: 5 W × 0.5 ms = 2.5 mJ on DataTransfer.
        let gap_e = ledger.cell(Device::Cpu, Routine::DataTransfer);
        assert!((gap_e.as_millijoules() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn long_gap_sleeps_with_transition_cost() {
        let (mut cpu, mut ledger) = account();
        cpu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_micros(100),
            Routine::Interrupt,
        );
        // 9.9 ms gap ≥ break-even ⇒ transition (1.6 ms) + sleep (8.3 ms).
        cpu.task(
            &mut ledger,
            SimTime::from_millis(10),
            SimDuration::from_micros(100),
            Routine::Interrupt,
        );
        let stats = cpu.stats();
        assert_eq!(stats.transition, SimDuration::from_micros(1_600));
        assert_eq!(stats.sleep, SimDuration::from_micros(8_300));
        assert_eq!(stats.sleep_episodes, 1);
        let gap_e = ledger.cell(Device::Cpu, Routine::DataTransfer);
        // 2.5 W × 1.6 ms + 1.5 W × 8.3 ms = 4 + 12.45 mJ.
        assert!((gap_e.as_millijoules() - 16.45).abs() < 1e-6);
    }

    #[test]
    fn deep_sleep_only_when_allowed() {
        let cal = Calibration::paper();
        let mut ledger = EnergyLedger::new();
        let mut com_cpu = CpuAccount::new(
            cal.clone(),
            GapPolicy {
                sleep: SleepPolicy::Deep,
                gap_routine: Routine::AppCompute,
            },
            SimTime::ZERO,
        );
        com_cpu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_micros(50),
            Routine::Interrupt,
        );
        com_cpu.task(
            &mut ledger,
            SimTime::from_secs(1),
            SimDuration::from_micros(50),
            Routine::Interrupt,
        );
        let stats = com_cpu.stats();
        assert!(stats.deep_sleep > SimDuration::from_millis(990));
        assert_eq!(stats.sleep, SimDuration::ZERO);
        // Same gap without deep-sleep permission lands in light sleep.
        let (mut base_cpu, mut l2) = account();
        base_cpu.task(
            &mut l2,
            SimTime::ZERO,
            SimDuration::from_micros(50),
            Routine::Interrupt,
        );
        base_cpu.task(
            &mut l2,
            SimTime::from_secs(1),
            SimDuration::from_micros(50),
            Routine::Interrupt,
        );
        assert!(base_cpu.stats().sleep > SimDuration::from_millis(990));
        assert_eq!(base_cpu.stats().deep_sleep, SimDuration::ZERO);
    }

    #[test]
    fn never_policy_pins_the_cpu_active() {
        // The Baseline blocking-poll design (Figure 5a): even a one-second
        // gap stays idle-active.
        let mut cpu = CpuAccount::new(
            Calibration::paper(),
            GapPolicy {
                sleep: SleepPolicy::Never,
                gap_routine: Routine::DataTransfer,
            },
            SimTime::ZERO,
        );
        let mut ledger = EnergyLedger::new();
        cpu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_micros(50),
            Routine::Interrupt,
        );
        cpu.task(
            &mut ledger,
            SimTime::from_secs(1),
            SimDuration::from_micros(50),
            Routine::Interrupt,
        );
        let stats = cpu.stats();
        assert_eq!(stats.sleep, SimDuration::ZERO);
        assert_eq!(stats.deep_sleep, SimDuration::ZERO);
        assert_eq!(stats.sleep_episodes, 0);
        assert!(stats.idle_active > SimDuration::from_millis(990));
        assert_eq!(stats.sleep_fraction(), 0.0);
    }

    #[test]
    fn sleep_fraction_matches_paper_batching_story() {
        // Batching: CPU busy ~100 ms of a 1 s window, sleeping the rest.
        let (mut cpu, mut ledger) = account();
        cpu.task(
            &mut ledger,
            SimTime::from_millis(900),
            SimDuration::from_millis(100),
            Routine::DataTransfer,
        );
        cpu.finish(&mut ledger, SimTime::from_secs(1));
        let f = cpu.stats().sleep_fraction();
        assert!(f > 0.88 && f < 0.92, "sleep fraction {f}");
    }

    #[test]
    fn finish_accounts_trailing_gap() {
        let (mut cpu, mut ledger) = account();
        cpu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            Routine::AppCompute,
        );
        cpu.finish(&mut ledger, SimTime::from_millis(11));
        assert_eq!(cpu.stats().total(), SimDuration::from_millis(11));
        // Idempotent for non-advancing end.
        cpu.finish(&mut ledger, SimTime::from_millis(11));
        assert_eq!(cpu.stats().total(), SimDuration::from_millis(11));
    }

    #[test]
    fn timeline_records_phases() {
        let mut cpu =
            CpuAccount::new(Calibration::paper(), policy(), SimTime::ZERO).with_timeline();
        let mut ledger = EnergyLedger::new();
        cpu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            Routine::Interrupt,
        );
        cpu.task(
            &mut ledger,
            SimTime::from_millis(50),
            SimDuration::from_millis(1),
            Routine::Interrupt,
        );
        let phases: Vec<CpuPhase> = cpu.timeline().unwrap().iter().map(|&(_, p)| p).collect();
        assert_eq!(
            phases,
            vec![
                CpuPhase::Busy,
                CpuPhase::Transition,
                CpuPhase::Sleep,
                CpuPhase::Busy
            ]
        );
    }

    #[test]
    fn energy_conservation_against_manual_integral() {
        let (mut cpu, mut ledger) = account();
        cpu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_millis(2),
            Routine::Interrupt,
        );
        cpu.task(
            &mut ledger,
            SimTime::from_millis(10),
            SimDuration::from_millis(3),
            Routine::AppCompute,
        );
        cpu.finish(&mut ledger, SimTime::from_millis(13));
        let cal = Calibration::paper();
        let expected = cal.cpu_active * SimDuration::from_millis(5) // busy
            + cal.cpu_transition_power * cal.cpu_transition_time
            + cal.cpu_sleep * (SimDuration::from_millis(8) - cal.cpu_transition_time);
        let total = ledger.device_total(Device::Cpu);
        assert!((total.as_millijoules() - expected.as_millijoules()).abs() < 1e-9);
        // The phase residencies in `stats()` price to the same total.
        let s = cpu.stats();
        let priced = cal.cpu_active * (s.busy + s.idle_active)
            + cal.cpu_transition_power * s.transition
            + cal.cpu_sleep * s.sleep
            + cal.cpu_deep_sleep * s.deep_sleep;
        assert!((total.as_millijoules() - priced.as_millijoules()).abs() < 1e-9);
    }
}
