//! Windowed per-routine energy stacks.
//!
//! PR 3's span attribution telescopes ledger deltas across *spans* so the
//! folded span weights reproduce `ledger.total()` bitwise. This module
//! applies the same telescoping across **window boundaries**: at every
//! boundary, [`EnergyStacks`] snapshots each routine's running total and
//! records the delta since the previous boundary into a preallocated
//! [`TimeSeries`] — one series per [`Routine`], one point per window. The
//! final window's delta is nudged by [`exact_residual`] so that for every
//! routine the left-to-right fold of its series reproduces
//! `ledger.routine_total(routine)` **bitwise** — the per-window stacks
//! are an exact decomposition of the run's stacked bar, not an estimate.
//!
//! Binning contract: a window's stack holds every microjoule charged to
//! the ledger between the recordings of its two boundaries. The executor
//! rolls boundaries at tick granularity, so a task that *starts* in
//! window `w` and overruns the boundary is binned into `w` — charges
//! follow the initiating tick, which keeps the decomposition exact and
//! deterministic without splitting in-flight charges.
//!
//! Everything here is allocation-free after construction ([`IOTSE-H13`]
//! proves the recording path structurally) and draws no randomness, so a
//! telemetry-enabled run stays bitwise deterministic across `--jobs`
//! levels.
//!
//! [`IOTSE-H13`]: ../../iotse_lint/rules/hot_path/index.html

use iotse_sim::time::{SimDuration, SimTime};
use iotse_sim::timeseries::TimeSeries;

use crate::attribution::{EnergyLedger, Routine};

/// Number of tracked routines ([`Routine::ALL`]).
pub const STACK_ROUTINES: usize = Routine::ALL.len();

/// The static series label for one routine's windowed energy stack.
/// Names follow the `iotse_<crate>_<snake>` convention that lint rule
/// `IOTSE-M09` checks on exported metric names.
#[must_use]
pub fn stack_series_name(routine: Routine) -> &'static str {
    match routine {
        Routine::DataCollection => "iotse_energy_stack_data_collection_microjoules",
        Routine::Interrupt => "iotse_energy_stack_interrupt_microjoules",
        Routine::DataTransfer => "iotse_energy_stack_data_transfer_microjoules",
        Routine::AppCompute => "iotse_energy_stack_app_compute_microjoules",
        Routine::Idle => "iotse_energy_stack_idle_microjoules",
    }
}

/// The label the workload-total budget watchdog alerts under.
pub const WORKLOAD_TOTAL_SERIES: &str = "iotse_energy_stack_workload_total_microjoules";

/// One window's per-routine energy deltas, in [`Routine::ALL`] order.
pub type WindowStack = [f64; STACK_ROUTINES];

/// A freshly recorded boundary: which window closed, at what sim time,
/// with what per-routine stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedWindow {
    /// Zero-based index of the window that just closed.
    pub window: u32,
    /// The boundary's sim time.
    pub at: SimTime,
    /// Per-routine energy charged during the window, µJ.
    pub stack: WindowStack,
}

impl RecordedWindow {
    /// Sum over the four workload routines (excludes idle).
    #[must_use]
    pub fn workload_total(&self) -> f64 {
        Routine::WORKLOAD
            .iter()
            .map(|r| self.stack[routine_index(*r)])
            .sum()
    }
}

/// Index of `routine` within [`Routine::ALL`] (and every [`WindowStack`]).
#[must_use]
pub fn routine_index(routine: Routine) -> usize {
    match routine {
        Routine::DataCollection => 0,
        Routine::Interrupt => 1,
        Routine::DataTransfer => 2,
        Routine::AppCompute => 3,
        Routine::Idle => 4,
    }
}

/// The windowed per-routine energy recorder (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyStacks {
    base: SimDuration,
    windows: u32,
    recorded: u32,
    /// Energy already attributed to recorded windows, per routine — the
    /// telescoping accumulator (same role as the executor's span
    /// `assigned` tracker).
    assigned: WindowStack,
    /// One series per routine, [`Routine::ALL`] order.
    series: Vec<TimeSeries>,
}

impl EnergyStacks {
    /// A recorder for `windows` windows of length `base`, with every
    /// series preallocated to exactly `windows` points.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero or `windows` is zero.
    #[must_use]
    pub fn new(base: SimDuration, windows: u32) -> Self {
        assert!(!base.is_zero(), "window length must be positive");
        assert!(windows > 0, "need at least one window");
        let series = Routine::ALL
            .iter()
            // lint: one-time construction at scenario setup; each series
            // is preallocated to the run's window count and never grows
            // iotse-lint: allow(IOTSE-C05) u32→usize capacity widening, lossless on every supported target
            .map(|&r| TimeSeries::with_capacity(stack_series_name(r), windows as usize))
            .collect();
        EnergyStacks {
            base,
            windows,
            recorded: 0,
            assigned: [0.0; STACK_ROUTINES],
            series,
        }
    }

    /// The next unrecorded boundary, or `None` once all windows closed.
    #[inline]
    fn next_boundary(&self) -> Option<SimTime> {
        (self.recorded < self.windows)
            .then(|| SimTime::ZERO + self.base * u64::from(self.recorded + 1))
    }

    /// Records the next window iff `now` has reached its boundary.
    /// Allocation-free; called from the executor's tick hot path.
    #[inline]
    pub fn try_roll(&mut self, now: SimTime, ledger: &EnergyLedger) -> Option<RecordedWindow> {
        let at = self.next_boundary().filter(|&b| now >= b)?;
        // lint: once per telemetry window, not once per tick
        Some(self.record(at, ledger, false))
    }

    /// Force-records the next window at book-closing time; loops at the
    /// end of a run until every window is closed. The *last* window's
    /// deltas are nudged by [`exact_residual`] so each series folds back
    /// to its routine total bitwise.
    pub fn try_close(&mut self, ledger: &EnergyLedger) -> Option<RecordedWindow> {
        let at = self.next_boundary()?;
        let last = self.recorded + 1 == self.windows;
        Some(self.record(at, ledger, last))
    }

    fn record(&mut self, at: SimTime, ledger: &EnergyLedger, exact: bool) -> RecordedWindow {
        let window = self.recorded;
        let mut stack = [0.0; STACK_ROUTINES];
        for (i, &routine) in Routine::ALL.iter().enumerate() {
            let total = ledger.routine_total(routine).as_microjoules();
            let delta = if exact {
                exact_residual(self.assigned[i], total)
            } else {
                // Ledger totals are monotone (charges are non-negative),
                // so the naive delta is already >= 0.
                total - self.assigned[i]
            };
            self.assigned[i] += delta;
            self.series[i].push(at, delta);
        }
        for (i, slot) in stack.iter_mut().enumerate() {
            let pts = self.series[i].points();
            // The push above always lands (capacity == windows).
            *slot = pts[pts.len() - 1].1;
        }
        self.recorded += 1;
        RecordedWindow { window, at, stack }
    }

    /// The window grid's length.
    #[must_use]
    pub fn base_window(&self) -> SimDuration {
        self.base
    }

    /// Total windows on the grid.
    #[must_use]
    pub fn windows(&self) -> u32 {
        self.windows
    }

    /// Windows recorded so far.
    #[must_use]
    pub fn recorded(&self) -> u32 {
        self.recorded
    }

    /// One routine's windowed series.
    #[must_use]
    pub fn series(&self, routine: Routine) -> &TimeSeries {
        &self.series[routine_index(routine)]
    }

    /// All five series, in [`Routine::ALL`] order.
    #[must_use]
    pub fn all_series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// The recorded stack of window `w`, if that window has closed.
    #[must_use]
    pub fn window_stack(&self, w: u32) -> Option<WindowStack> {
        if w >= self.recorded {
            return None;
        }
        let mut stack = [0.0; STACK_ROUTINES];
        for (i, slot) in stack.iter_mut().enumerate() {
            // iotse-lint: allow(IOTSE-C05) u32→usize index widening, lossless on every supported target
            *slot = self.series[i].points()[w as usize].1;
        }
        Some(stack)
    }

    /// Total stored points across all routine series.
    #[must_use]
    pub fn points_recorded(&self) -> u64 {
        // iotse-lint: allow(IOTSE-C05) usize→u64 count widening, lossless on every supported target
        self.series.iter().map(|s| s.len() as u64).sum()
    }
}

/// The non-negative weight `w` for which `assigned + w` reproduces `total`
/// bitwise (nudging the naive difference by ulps when float rounding makes
/// `assigned + (total - assigned) != total`). Falls back to the naive
/// difference if no exact weight exists within a few ulps — in practice
/// the search converges immediately because the close-out weight is
/// large. Shared by the span close-out in the executor and the final
/// window of [`EnergyStacks`].
#[must_use]
pub fn exact_residual(assigned: f64, total: f64) -> f64 {
    // NaN-safe "strictly positive": NaN compares as not-greater, so a
    // degenerate difference short-circuits to zero instead of looping.
    fn strictly_positive(x: f64) -> bool {
        x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
    }
    let mut w = total - assigned;
    if !strictly_positive(w) {
        return 0.0;
    }
    for _ in 0..8 {
        let sum = assigned + w;
        if sum == total {
            return w;
        }
        let nudged = if sum < total {
            f64::from_bits(w.to_bits() + 1)
        } else {
            f64::from_bits(w.to_bits().wrapping_sub(1))
        };
        if !strictly_positive(nudged) {
            break;
        }
        w = nudged;
    }
    (total - assigned).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::Device;
    use crate::units::Energy;

    fn uj(x: f64) -> Energy {
        Energy::from_microjoules(x)
    }

    #[test]
    fn stacks_telescope_ledger_deltas_per_window() {
        let mut ledger = EnergyLedger::new();
        let mut stacks = EnergyStacks::new(SimDuration::from_secs(1), 3);
        ledger.charge(Device::Cpu, Routine::Interrupt, uj(10.0));
        ledger.charge(Device::Mcu, Routine::DataCollection, uj(4.0));
        // Not yet at the boundary: nothing records.
        assert!(stacks
            .try_roll(SimTime::from_millis(999), &ledger)
            .is_none());
        let w0 = stacks
            .try_roll(SimTime::from_secs(1), &ledger)
            .expect("boundary reached");
        assert_eq!(w0.window, 0);
        assert_eq!(w0.at, SimTime::from_secs(1));
        assert_eq!(w0.stack[routine_index(Routine::Interrupt)], 10.0);
        assert_eq!(w0.stack[routine_index(Routine::DataCollection)], 4.0);
        assert_eq!(w0.workload_total(), 14.0);

        ledger.charge(Device::Cpu, Routine::Interrupt, uj(2.5));
        let w1 = stacks
            .try_roll(SimTime::from_secs(2), &ledger)
            .expect("second boundary");
        assert_eq!(w1.window, 1);
        assert_eq!(w1.stack[routine_index(Routine::Interrupt)], 2.5);
        assert_eq!(w1.stack[routine_index(Routine::DataCollection)], 0.0);

        // One roll per boundary: the same instant does not double-record.
        assert!(stacks.try_roll(SimTime::from_secs(2), &ledger).is_none());
        ledger.charge(Device::Cpu, Routine::Idle, uj(7.0));
        let w2 = stacks.try_close(&ledger).expect("close final window");
        assert_eq!(w2.window, 2);
        assert_eq!(w2.stack[routine_index(Routine::Idle)], 7.0);
        assert!(stacks.try_close(&ledger).is_none());
        assert_eq!(stacks.recorded(), 3);
        assert_eq!(stacks.points_recorded(), 15);
    }

    #[test]
    fn series_folds_reproduce_routine_totals_bitwise() {
        // Irrational-ish charges make float residue likely; the exact
        // close-out must absorb it anyway.
        let mut ledger = EnergyLedger::new();
        let mut stacks = EnergyStacks::new(SimDuration::from_secs(1), 5);
        for w in 0..5u32 {
            for i in 0..7 {
                let x = 0.1 + f64::from(w * 31 + i) * 0.373_214_159;
                ledger.charge(Device::Cpu, Routine::Interrupt, uj(x));
                ledger.charge(Device::Mcu, Routine::DataCollection, uj(x / 3.0));
                ledger.charge(Device::Link, Routine::DataTransfer, uj(x / 7.0));
            }
            if w < 4 {
                stacks.try_roll(SimTime::from_secs(u64::from(w) + 1), &ledger);
            }
        }
        while stacks.try_close(&ledger).is_some() {}
        for routine in Routine::ALL {
            assert_eq!(
                stacks.series(routine).fold_sum(),
                ledger.routine_total(routine).as_microjoules(),
                "fold of {routine} series must reproduce the ledger bitwise"
            );
        }
    }

    #[test]
    fn close_records_all_remaining_windows() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(Device::Cpu, Routine::Idle, uj(9.0));
        let mut stacks = EnergyStacks::new(SimDuration::from_secs(1), 4);
        let mut seen = 0;
        while let Some(rec) = stacks.try_close(&ledger) {
            assert_eq!(rec.window, seen);
            seen += 1;
        }
        assert_eq!(seen, 4);
        // All the energy lands in the first close-recorded window; the
        // fold still reproduces the total.
        assert_eq!(stacks.series(Routine::Idle).fold_sum(), 9.0);
        assert_eq!(
            stacks.window_stack(0).unwrap()[routine_index(Routine::Idle)],
            9.0
        );
        assert_eq!(
            stacks.window_stack(3).unwrap()[routine_index(Routine::Idle)],
            0.0
        );
        assert!(stacks.window_stack(4).is_none());
    }

    #[test]
    fn exact_residual_reproduces_total() {
        let cases = [
            (0.0, 0.0),
            (1.0, 3.0),
            (0.1 + 0.2, 1.0),
            (1e16, 1e16 + 2.0),
            (5.0, 4.0),      // total below assigned: clamps to zero
            (f64::NAN, 1.0), // degenerate difference: zero, not a loop
        ];
        for (assigned, total) in cases {
            let w = exact_residual(assigned, total);
            assert!(w >= 0.0);
            if total > assigned {
                assert_eq!(assigned + w, total, "({assigned}, {total})");
            }
        }
    }

    #[test]
    fn series_names_follow_the_metric_convention() {
        for routine in Routine::ALL {
            let name = stack_series_name(routine);
            assert!(name.starts_with("iotse_energy_"), "{name}");
            assert!(name.ends_with("_microjoules"), "{name}");
        }
        assert!(WORKLOAD_TOTAL_SERIES.starts_with("iotse_energy_"));
    }
}
