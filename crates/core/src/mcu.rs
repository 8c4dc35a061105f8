//! The MCU-board model (ESP8266 in the paper).
//!
//! Like the CPU, the MCU is a serial resource with a busy-watermark. It
//! additionally owns the two capacities that gate the paper's optimizations:
//! the **batch buffer** (Batching stores sensor samples in the MCU's spare
//! RAM until the window closes or the buffer fills) and the **memory/MIPS
//! budget** that decides which apps are offloadable (COM).

use iotse_energy::attribution::{Device, EnergyLedger, Routine};
use iotse_sim::time::{SimDuration, SimTime};

use crate::calibration::Calibration;

/// What the MCU was doing in one timeline segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum McuPhase {
    /// Executing a task (sensor read, transfer, offloaded compute).
    Busy,
    /// Awake, waiting for the next tick.
    Idle,
    /// Light sleep.
    Sleep,
}

impl McuPhase {
    /// Display name used in Figure 5 timelines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            McuPhase::Busy => "busy",
            McuPhase::Idle => "idle",
            McuPhase::Sleep => "sleep",
        }
    }
}

/// Aggregate MCU statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct McuStats {
    /// Time executing tasks.
    pub busy: SimDuration,
    /// Time awake but idle.
    pub idle: SimDuration,
    /// Time asleep.
    pub sleep: SimDuration,
    /// High-water mark of the batch buffer, bytes.
    pub buffer_high_water: usize,
    /// Batch flushes forced by a full buffer (as opposed to window
    /// boundaries).
    pub forced_flushes: u64,
}

impl McuStats {
    /// Total accounted time.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.busy + self.idle + self.sleep
    }
}

/// Error returned when a reservation does not fit the MCU's RAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McuMemoryError {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes available.
    pub available: usize,
}

impl std::fmt::Display for McuMemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MCU memory exhausted: requested {} B, {} B available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for McuMemoryError {}

/// The MCU account: watermark serialization, buffer/memory management,
/// energy charging and an optional phase timeline.
#[derive(Debug)]
pub struct McuAccount {
    cal: Calibration,
    busy_until: SimTime,
    accounted_until: SimTime,
    stats: McuStats,
    reserved_bytes: usize,
    buffer_bytes: usize,
    gap_routine: Routine,
    timeline: Option<Vec<(SimTime, McuPhase)>>,
}

impl McuAccount {
    /// Creates the account starting at `start`.
    #[must_use]
    pub fn new(cal: Calibration, start: SimTime) -> Self {
        McuAccount {
            cal,
            busy_until: start,
            accounted_until: start,
            stats: McuStats::default(),
            reserved_bytes: 0,
            buffer_bytes: 0,
            gap_routine: Routine::DataCollection,
            timeline: None,
        }
    }

    /// Changes the routine idle/sleep gaps are charged to (defaults to
    /// [`Routine::DataCollection`]; an idle hub uses [`Routine::Idle`]).
    #[must_use]
    pub fn gap_routine(mut self, routine: Routine) -> Self {
        self.gap_routine = routine;
        self
    }

    /// Enables phase-timeline recording (Figure 5).
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.timeline = Some(Vec::new());
        self
    }

    /// When the MCU becomes free.
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> McuStats {
        self.stats
    }

    /// The recorded `(start, phase)` timeline, if enabled.
    #[must_use]
    pub fn timeline(&self) -> Option<&[(SimTime, McuPhase)]> {
        self.timeline.as_deref()
    }

    /// Makes room for `segments` more timeline entries, if the timeline
    /// is enabled.
    pub fn reserve_timeline(&mut self, segments: usize) {
        if let Some(tl) = &mut self.timeline {
            tl.reserve_exact(segments);
        }
    }

    /// Hands over the recorded timeline, if enabled, trimmed to its length;
    /// recording stops.
    pub fn take_timeline(&mut self) -> Option<Vec<(SimTime, McuPhase)>> {
        let mut tl = self.timeline.take()?;
        tl.shrink_to_fit();
        Some(tl)
    }

    // ---- memory management -------------------------------------------------

    /// Bytes of RAM not yet reserved or buffered.
    #[must_use]
    pub fn memory_available(&self) -> usize {
        self.cal.mcu_memory_bytes - self.reserved_bytes - self.buffer_bytes
    }

    /// Permanently reserves `bytes` (an offloaded app's heap + stack).
    ///
    /// # Errors
    ///
    /// Returns [`McuMemoryError`] if the reservation does not fit.
    pub fn reserve_memory(&mut self, bytes: usize) -> Result<(), McuMemoryError> {
        if bytes > self.memory_available() {
            return Err(McuMemoryError {
                requested: bytes,
                available: self.memory_available(),
            });
        }
        self.reserved_bytes += bytes;
        Ok(())
    }

    /// Bytes currently reserved by offloaded apps.
    #[must_use]
    pub fn memory_reserved(&self) -> usize {
        self.reserved_bytes
    }

    /// Appends `bytes` to the batch buffer. Returns `true` if they fit,
    /// `false` if the buffer is full (the caller must flush first; the
    /// forced-flush counter is bumped).
    pub fn buffer_push(&mut self, bytes: usize) -> bool {
        if bytes > self.memory_available() {
            self.stats.forced_flushes += 1;
            return false;
        }
        self.buffer_bytes += bytes;
        self.stats.buffer_high_water = self.stats.buffer_high_water.max(self.buffer_bytes);
        true
    }

    /// Current batch-buffer occupancy in bytes.
    #[must_use]
    pub fn buffer_len(&self) -> usize {
        self.buffer_bytes
    }

    /// Releases `bytes` of the batch buffer once they have been flushed.
    pub fn buffer_release(&mut self, bytes: usize) {
        debug_assert!(self.buffer_bytes >= bytes, "buffer accounting out of sync");
        self.buffer_bytes = self.buffer_bytes.saturating_sub(bytes);
    }

    // ---- time/energy accounting --------------------------------------------

    fn record(&mut self, at: SimTime, phase: McuPhase) {
        if let Some(tl) = &mut self.timeline {
            if tl.last().map(|&(_, p)| p) != Some(phase) {
                tl.push((at, phase));
            }
        }
    }

    /// Runs an MCU task of `duration` ready at `ready`, charged to
    /// `(Mcu, routine)`. Returns `(start, end)`. A sensor's own draw during a
    /// read is the caller's to charge.
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
        ledger.charge(Device::Mcu, routine, self.cal.mcu_active * duration);
        self.stats.busy += duration;
        self.record(start, McuPhase::Busy);
        self.busy_until = end;
        self.accounted_until = end;
        (start, end)
    }

    /// Accounts the gap up to `until`: idle below the MCU sleep break-even,
    /// light sleep above it. Gap energy lands in the configured gap routine
    /// ([`Routine::DataCollection`] by default — the MCU exists to collect
    /// data; its waiting is part of that job).
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
        let energy = if gap >= self.cal.mcu_sleep_break_even {
            self.stats.sleep += gap;
            self.record(at, McuPhase::Sleep);
            self.cal.mcu_sleep * gap
        } else {
            self.stats.idle += gap;
            self.record(at, McuPhase::Idle);
            self.cal.mcu_idle * gap
        };
        ledger.charge(Device::Mcu, self.gap_routine, energy);
        self.accounted_until = until;
    }

    /// Closes the account at `end`.
    pub fn finish(&mut self, ledger: &mut EnergyLedger, end: SimTime) {
        let end = end.max(self.accounted_until);
        self.account_gap(ledger, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account() -> (McuAccount, EnergyLedger) {
        let mcu = McuAccount::new(Calibration::paper(), SimTime::ZERO);
        (mcu, EnergyLedger::new())
    }

    #[test]
    fn tasks_serialize_and_charge_only_the_mcu() {
        let (mut mcu, mut ledger) = account();
        let (s, e) = mcu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_micros(500),
            Routine::DataCollection,
        );
        assert_eq!((s, e), (SimTime::ZERO, SimTime::from_micros(500)));
        let mcu_e = ledger.cell(Device::Mcu, Routine::DataCollection);
        let expected = Calibration::paper().mcu_active * SimDuration::from_micros(500);
        assert!((mcu_e.as_microjoules() - expected.as_microjoules()).abs() < 1e-9);
        // The sensor's draw during a read is the caller's to charge.
        assert_eq!(ledger.device_total(Device::Sensor).as_microjoules(), 0.0);
        // Second task queued behind the first.
        let (s2, _) = mcu.task(
            &mut ledger,
            SimTime::from_micros(100),
            SimDuration::from_micros(100),
            Routine::DataTransfer,
        );
        assert_eq!(s2, SimTime::from_micros(500));
    }

    #[test]
    fn short_gaps_idle_long_gaps_sleep() {
        let (mut mcu, mut ledger) = account();
        mcu.task(
            &mut ledger,
            SimTime::ZERO,
            SimDuration::from_micros(100),
            Routine::DataCollection,
        );
        // 0.9 ms gap < 5 ms break-even ⇒ idle.
        mcu.task(
            &mut ledger,
            SimTime::from_millis(1),
            SimDuration::from_micros(100),
            Routine::DataCollection,
        );
        // 100 ms gap ⇒ sleep.
        mcu.task(
            &mut ledger,
            SimTime::from_millis(101),
            SimDuration::from_micros(100),
            Routine::DataCollection,
        );
        let stats = mcu.stats();
        assert_eq!(stats.idle, SimDuration::from_micros(900));
        assert_eq!(stats.sleep, SimDuration::from_micros(99_900));
    }

    #[test]
    fn memory_reservation_enforces_budget() {
        let (mut mcu, _) = account();
        assert_eq!(mcu.memory_available(), 80 * 1024);
        mcu.reserve_memory(60 * 1024).expect("fits");
        let err = mcu.reserve_memory(30 * 1024).expect_err("does not fit");
        assert_eq!(err.available, 20 * 1024);
        assert_eq!(mcu.memory_reserved(), 60 * 1024);
        assert!(err.to_string().contains("MCU memory exhausted"));
    }

    #[test]
    fn buffer_tracks_high_water_and_forced_flushes() {
        let (mut mcu, _) = account();
        mcu.reserve_memory(70 * 1024).expect("fits");
        assert!(mcu.buffer_push(8 * 1024));
        assert!(mcu.buffer_push(2 * 1024));
        assert_eq!(mcu.buffer_len(), 10 * 1024);
        // Only 10 kB free now that reserve + buffer hold 80 kB… next push fails.
        assert!(!mcu.buffer_push(1));
        assert_eq!(mcu.stats().forced_flushes, 1);
        mcu.buffer_release(8 * 1024);
        assert_eq!(mcu.buffer_len(), 2 * 1024);
        assert!(mcu.buffer_push(1), "release frees space");
        assert_eq!(mcu.stats().buffer_high_water, 10 * 1024);
    }

    #[test]
    fn timeline_and_finish() {
        let mut mcu = McuAccount::new(Calibration::paper(), SimTime::ZERO).with_timeline();
        let mut ledger = EnergyLedger::new();
        mcu.task(
            &mut ledger,
            SimTime::from_millis(10),
            SimDuration::from_millis(1),
            Routine::DataCollection,
        );
        mcu.finish(&mut ledger, SimTime::from_millis(12));
        let phases: Vec<McuPhase> = mcu.timeline().unwrap().iter().map(|&(_, p)| p).collect();
        assert_eq!(
            phases,
            vec![McuPhase::Sleep, McuPhase::Busy, McuPhase::Idle]
        );
        assert_eq!(mcu.stats().total(), SimDuration::from_millis(12));
    }

    #[test]
    fn energy_matches_manual_integral() {
        let (mut mcu, mut ledger) = account();
        mcu.task(
            &mut ledger,
            SimTime::from_millis(20),
            SimDuration::from_millis(2),
            Routine::DataCollection,
        );
        mcu.finish(&mut ledger, SimTime::from_millis(23));
        let cal = Calibration::paper();
        let expected = cal.mcu_sleep * SimDuration::from_millis(20)
            + cal.mcu_active * SimDuration::from_millis(2)
            + cal.mcu_idle * SimDuration::from_millis(1);
        let total = ledger.device_total(Device::Mcu);
        assert!((total.as_millijoules() - expected.as_millijoules()).abs() < 1e-9);
    }
}
