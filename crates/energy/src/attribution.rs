//! Per-routine energy attribution.
//!
//! The paper decomposes every app execution into four sub-tasks (§II): sensor
//! **data collection** at the MCU, the MCU **interrupt** to the CPU, the
//! **data transfer** from MCU to CPU, and the **app-specific computation**.
//! [`EnergyLedger`] accumulates energy per `(Device, Routine)` cell so that
//! every stacked bar in Figures 3, 7, 9, 10, 11 and 12 — and the Figure 4
//! CPU/MCU/physical split — can be read straight out of the ledger.

use std::fmt;

use iotse_sim::metrics::MetricsRegistry;

use crate::units::Energy;

/// The hardware component that spent the energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    /// The Main-board CPU (Raspberry Pi 3B in the paper).
    Cpu,
    /// The MCU board (ESP8266 in the paper).
    Mcu,
    /// The physical interconnect (PIO/UART wires and I/O controller).
    Link,
    /// An attached sensor (aggregated over all sensors).
    Sensor,
}

impl Device {
    /// All devices, in display order.
    pub const ALL: [Device; 4] = [Device::Cpu, Device::Mcu, Device::Link, Device::Sensor];

    /// Position in [`Device::ALL`]: the ledger's row.
    fn index(self) -> usize {
        match self {
            Device::Cpu => 0,
            Device::Mcu => 1,
            Device::Link => 2,
            Device::Sensor => 3,
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Device::Cpu => "CPU",
            Device::Mcu => "MCU",
            Device::Link => "Link",
            Device::Sensor => "Sensor",
        };
        f.write_str(s)
    }
}

/// The paper's four execution sub-tasks, plus an explicit idle bucket for
/// out-of-workload energy (the Figure 1 idle-hub experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Routine {
    /// Task I–III of §II-B: checking the sensor, reading its data register,
    /// and formatting raw data, all at the MCU.
    DataCollection,
    /// MCU→CPU interrupt raising and CPU-side interrupt processing.
    Interrupt,
    /// Moving sensor data from the MCU board to Main-board DRAM — including
    /// the CPU time spent *stalling for* that data, which the paper
    /// attributes to the transfer routine (§III-A).
    DataTransfer,
    /// The app-specific computation (step detection, IDCT, …).
    AppCompute,
    /// Energy outside any workload window (idle hub).
    Idle,
}

impl Routine {
    /// The four workload routines of the paper's breakdowns, in the order
    /// the figures stack them.
    pub const WORKLOAD: [Routine; 4] = [
        Routine::DataCollection,
        Routine::Interrupt,
        Routine::DataTransfer,
        Routine::AppCompute,
    ];

    /// All routines including [`Routine::Idle`].
    pub const ALL: [Routine; 5] = [
        Routine::DataCollection,
        Routine::Interrupt,
        Routine::DataTransfer,
        Routine::AppCompute,
        Routine::Idle,
    ];

    /// Position in [`Routine::ALL`]: the ledger's column.
    fn index(self) -> usize {
        match self {
            Routine::DataCollection => 0,
            Routine::Interrupt => 1,
            Routine::DataTransfer => 2,
            Routine::AppCompute => 3,
            Routine::Idle => 4,
        }
    }
}

impl fmt::Display for Routine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Routine::DataCollection => "Data Collection",
            Routine::Interrupt => "Interrupt",
            Routine::DataTransfer => "Data Transfer",
            Routine::AppCompute => "App-specific Computing",
            Routine::Idle => "Idle",
        };
        f.write_str(s)
    }
}

/// An accumulating map of energy per `(Device, Routine)`.
///
/// # Examples
///
/// ```
/// use iotse_energy::attribution::{Device, EnergyLedger, Routine};
/// use iotse_energy::units::Energy;
///
/// let mut ledger = EnergyLedger::new();
/// ledger.charge(Device::Cpu, Routine::Interrupt, Energy::from_millijoules(240.0));
/// ledger.charge(Device::Cpu, Routine::DataTransfer, Energy::from_millijoules(960.0));
/// assert_eq!(ledger.routine_total(Routine::Interrupt).as_millijoules(), 240.0);
/// assert_eq!(ledger.total().as_millijoules(), 1200.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    /// One cell per `(Device, Routine)`, indexed by [`Device::index`] then
    /// [`Routine::index`], so row-major order is the `(Device, Routine)`
    /// key order. `None` is a cell never charged, which `iter` skips and
    /// `PartialEq` tells apart from a cell charged with zero.
    cells: [[Option<Energy>; Routine::ALL.len()]; Device::ALL.len()],
}

impl EnergyLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `energy` to the `(device, routine)` cell.
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative — energy only ever accumulates.
    pub fn charge(&mut self, device: Device, routine: Routine, energy: Energy) {
        assert!(
            energy.as_microjoules() >= 0.0,
            "cannot charge negative energy ({energy}) to {device}/{routine}"
        );
        *self.cells[device.index()][routine.index()].get_or_insert(Energy::ZERO) += energy;
    }

    /// Energy in one cell.
    #[must_use]
    pub fn cell(&self, device: Device, routine: Routine) -> Energy {
        self.cells[device.index()][routine.index()].unwrap_or(Energy::ZERO)
    }

    /// Total energy attributed to `routine` across all devices.
    #[must_use]
    pub fn routine_total(&self, routine: Routine) -> Energy {
        self.cells
            .iter()
            .filter_map(|row| row[routine.index()])
            .sum()
    }

    /// Total energy spent by `device` across all routines.
    #[must_use]
    pub fn device_total(&self, device: Device) -> Energy {
        self.cells[device.index()].iter().flatten().copied().sum()
    }

    /// Grand total over every cell.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.cells.iter().flatten().flatten().copied().sum()
    }

    /// Total over the four workload routines (excludes [`Routine::Idle`]).
    #[must_use]
    pub fn workload_total(&self) -> Energy {
        Routine::WORKLOAD
            .iter()
            .map(|&r| self.routine_total(r))
            .sum()
    }

    /// Adds every cell of `other` into this ledger.
    pub fn merge(&mut self, other: &EnergyLedger) {
        let cells = self.cells.iter_mut().flatten();
        for (mine, theirs) in cells.zip(other.cells.iter().flatten()) {
            if let Some(e) = theirs {
                *mine.get_or_insert(Energy::ZERO) += *e;
            }
        }
    }

    /// The four-routine breakdown the paper's stacked bars plot.
    #[must_use]
    pub fn breakdown(&self) -> Breakdown {
        Breakdown {
            data_collection: self.routine_total(Routine::DataCollection),
            interrupt: self.routine_total(Routine::Interrupt),
            data_transfer: self.routine_total(Routine::DataTransfer),
            app_compute: self.routine_total(Routine::AppCompute),
        }
    }

    /// Iterates over the charged cells in `(Device, Routine)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Device, Routine, Energy)> + '_ {
        Device::ALL.into_iter().flat_map(move |d| {
            Routine::ALL
                .into_iter()
                .filter_map(move |r| self.cells[d.index()][r.index()].map(|e| (d, r, e)))
        })
    }

    /// Publishes the ledger as `iotse_energy_*` gauges (microjoules): the
    /// grand total plus one gauge per device and per routine. Names are
    /// static literals so the metric surface is greppable and checked by
    /// lint rule IOTSE-M09.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        let total = reg.gauge("iotse_energy_total_microjoules");
        reg.set_gauge(total, self.total().as_microjoules());
        for device in Device::ALL {
            let name = match device {
                Device::Cpu => "iotse_energy_device_cpu_microjoules",
                Device::Mcu => "iotse_energy_device_mcu_microjoules",
                Device::Link => "iotse_energy_device_link_microjoules",
                Device::Sensor => "iotse_energy_device_sensor_microjoules",
            };
            let g = reg.gauge(name);
            reg.set_gauge(g, self.device_total(device).as_microjoules());
        }
        for routine in Routine::ALL {
            let name = match routine {
                Routine::DataCollection => "iotse_energy_routine_data_collection_microjoules",
                Routine::Interrupt => "iotse_energy_routine_interrupt_microjoules",
                Routine::DataTransfer => "iotse_energy_routine_data_transfer_microjoules",
                Routine::AppCompute => "iotse_energy_routine_app_compute_microjoules",
                Routine::Idle => "iotse_energy_routine_idle_microjoules",
            };
            let g = reg.gauge(name);
            reg.set_gauge(g, self.routine_total(routine).as_microjoules());
        }
    }
}

/// The four-routine energy breakdown of one scheme run — one stacked bar of
/// Figures 3/7/9/10/11/12.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Sensor data collection at the MCU.
    pub data_collection: Energy,
    /// Interrupt raising + handling.
    pub interrupt: Energy,
    /// MCU→CPU data movement, including CPU stall-for-data.
    pub data_transfer: Energy,
    /// App-specific computation.
    pub app_compute: Energy,
}

impl Breakdown {
    /// Sum of the four routines.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.data_collection + self.interrupt + self.data_transfer + self.app_compute
    }

    /// Each routine as a fraction of `reference` (the paper normalizes each
    /// scheme's bar to the *Baseline* total, so bars of better schemes sum
    /// to < 1).
    #[must_use]
    pub fn normalized_to(&self, reference: Energy) -> NormalizedBreakdown {
        NormalizedBreakdown {
            data_collection: self.data_collection.ratio_of(reference),
            interrupt: self.interrupt.ratio_of(reference),
            data_transfer: self.data_transfer.ratio_of(reference),
            app_compute: self.app_compute.ratio_of(reference),
        }
    }

    /// Fractions of this breakdown's own total (sums to 1 unless empty).
    #[must_use]
    pub fn fractions(&self) -> NormalizedBreakdown {
        self.normalized_to(self.total())
    }

    /// The `[data_collection, interrupt, data_transfer, app_compute]`
    /// energies as an array, in figure stacking order.
    #[must_use]
    pub fn as_array(&self) -> [Energy; 4] {
        [
            self.data_collection,
            self.interrupt,
            self.data_transfer,
            self.app_compute,
        ]
    }
}

impl std::ops::Add for Breakdown {
    type Output = Breakdown;
    fn add(self, rhs: Breakdown) -> Breakdown {
        Breakdown {
            data_collection: self.data_collection + rhs.data_collection,
            interrupt: self.interrupt + rhs.interrupt,
            data_transfer: self.data_transfer + rhs.data_transfer,
            app_compute: self.app_compute + rhs.app_compute,
        }
    }
}

/// A [`Breakdown`] expressed as dimensionless fractions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NormalizedBreakdown {
    /// Fraction for data collection.
    pub data_collection: f64,
    /// Fraction for interrupts.
    pub interrupt: f64,
    /// Fraction for data transfer.
    pub data_transfer: f64,
    /// Fraction for app-specific compute.
    pub app_compute: f64,
}

impl NormalizedBreakdown {
    /// Sum of the four fractions.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.data_collection + self.interrupt + self.data_transfer + self.app_compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mj(x: f64) -> Energy {
        Energy::from_millijoules(x)
    }

    #[test]
    fn ledger_accumulates_per_cell() {
        let mut l = EnergyLedger::new();
        l.charge(Device::Cpu, Routine::Interrupt, mj(1.0));
        l.charge(Device::Cpu, Routine::Interrupt, mj(2.0));
        l.charge(Device::Mcu, Routine::Interrupt, mj(4.0));
        assert_eq!(l.cell(Device::Cpu, Routine::Interrupt), mj(3.0));
        assert_eq!(l.routine_total(Routine::Interrupt), mj(7.0));
        assert_eq!(l.device_total(Device::Cpu), mj(3.0));
        assert_eq!(l.cell(Device::Link, Routine::Idle), Energy::ZERO);
    }

    #[test]
    fn totals_and_workload_total() {
        let mut l = EnergyLedger::new();
        l.charge(Device::Cpu, Routine::AppCompute, mj(5.0));
        l.charge(Device::Cpu, Routine::Idle, mj(100.0));
        assert_eq!(l.total(), mj(105.0));
        assert_eq!(l.workload_total(), mj(5.0));
    }

    #[test]
    fn merge_adds_cell_wise() {
        let mut a = EnergyLedger::new();
        a.charge(Device::Cpu, Routine::DataTransfer, mj(1.0));
        let mut b = EnergyLedger::new();
        b.charge(Device::Cpu, Routine::DataTransfer, mj(2.0));
        b.charge(Device::Link, Routine::DataTransfer, mj(3.0));
        a.merge(&b);
        assert_eq!(a.cell(Device::Cpu, Routine::DataTransfer), mj(3.0));
        assert_eq!(a.cell(Device::Link, Routine::DataTransfer), mj(3.0));
        assert_eq!(a.total(), mj(6.0));
    }

    #[test]
    fn breakdown_reads_routine_totals() {
        let mut l = EnergyLedger::new();
        l.charge(Device::Mcu, Routine::DataCollection, mj(6.0));
        l.charge(Device::Cpu, Routine::Interrupt, mj(10.0));
        l.charge(Device::Cpu, Routine::DataTransfer, mj(77.0));
        l.charge(Device::Mcu, Routine::DataTransfer, mj(4.0));
        l.charge(Device::Cpu, Routine::AppCompute, mj(3.0));
        let b = l.breakdown();
        assert_eq!(b.data_collection, mj(6.0));
        assert_eq!(b.interrupt, mj(10.0));
        assert_eq!(b.data_transfer, mj(81.0));
        assert_eq!(b.app_compute, mj(3.0));
        assert_eq!(b.total(), mj(100.0));
    }

    #[test]
    fn normalization_against_baseline_reference() {
        let batching = Breakdown {
            data_collection: mj(6.0),
            interrupt: mj(3.0),
            data_transfer: mj(38.0),
            app_compute: mj(1.0),
        };
        let n = batching.normalized_to(mj(100.0));
        assert!((n.total() - 0.48).abs() < 1e-12); // 52% saving vs baseline
        let f = batching.fractions();
        assert!((f.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_add_is_componentwise() {
        let a = Breakdown {
            data_collection: mj(1.0),
            interrupt: mj(2.0),
            data_transfer: mj(3.0),
            app_compute: mj(4.0),
        };
        let s = a + a;
        assert_eq!(
            s.as_array().map(|e| e.as_millijoules()),
            [2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    #[should_panic(expected = "negative energy")]
    fn negative_charge_panics() {
        EnergyLedger::new().charge(Device::Cpu, Routine::Idle, mj(-1.0));
    }

    #[test]
    fn iter_is_deterministic_and_displays() {
        let mut l = EnergyLedger::new();
        l.charge(Device::Mcu, Routine::DataCollection, mj(1.0));
        l.charge(Device::Cpu, Routine::AppCompute, mj(1.0));
        let order: Vec<String> = l.iter().map(|(d, r, _)| format!("{d}/{r}")).collect();
        assert_eq!(
            order,
            vec!["CPU/App-specific Computing", "MCU/Data Collection"]
        );
    }
}
