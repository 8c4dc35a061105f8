//! The workload abstraction the eleven apps implement.
//!
//! A [`Workload`] declares *what it senses* (which Table I sensors, how many
//! samples per window), *what it costs* (the Figure 6 resource profile plus
//! measured compute times), and *what it does* — [`Workload::compute`] runs
//! the real application kernel over the window's samples and returns a typed
//! [`AppOutput`]. The platform moves the bytes and charges the energy; the
//! kernel produces results that tests check against the world's ground
//! truth.

use std::collections::BTreeMap;
use std::fmt;

use iotse_sensors::reading::SensorSample;
use iotse_sensors::spec::SensorId;
use iotse_sim::time::{SimDuration, SimTime};

/// Identifies one of the paper's Table II workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
// lint: the variants are Table II app names; the enum doc covers them
#[allow(missing_docs)]
pub enum AppId {
    A1,
    A2,
    A3,
    A4,
    A5,
    A6,
    A7,
    A8,
    A9,
    A10,
    A11,
}

impl AppId {
    /// The ten light-weight apps (offloadable in the paper).
    pub const LIGHT: [AppId; 10] = [
        AppId::A1,
        AppId::A2,
        AppId::A3,
        AppId::A4,
        AppId::A5,
        AppId::A6,
        AppId::A7,
        AppId::A8,
        AppId::A9,
        AppId::A10,
    ];

    /// All eleven workloads.
    pub const ALL: [AppId; 11] = [
        AppId::A1,
        AppId::A2,
        AppId::A3,
        AppId::A4,
        AppId::A5,
        AppId::A6,
        AppId::A7,
        AppId::A8,
        AppId::A9,
        AppId::A10,
        AppId::A11,
    ];
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// How a workload uses one sensor within each window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorUsage {
    /// Which sensor.
    pub sensor: SensorId,
    /// Samples collected per window (evenly spaced; 1 means a single
    /// on-demand read at the window start).
    pub samples_per_window: u32,
    /// Overrides the Table I per-sample wire size, for workloads whose
    /// Table II data volume implies a different framing (only A11 uses
    /// this: 6 B audio frames).
    pub bytes_per_sample_override: Option<usize>,
}

impl SensorUsage {
    /// Periodic usage at `samples_per_window` evenly spaced reads.
    #[must_use]
    pub fn periodic(sensor: SensorId, samples_per_window: u32) -> Self {
        SensorUsage {
            sensor,
            samples_per_window,
            bytes_per_sample_override: None,
        }
    }

    /// A single on-demand read per window.
    #[must_use]
    pub fn on_demand(sensor: SensorId) -> Self {
        Self::periodic(sensor, 1)
    }

    /// Wire size of one sample.
    #[must_use]
    pub fn sample_bytes(&self) -> usize {
        self.bytes_per_sample_override
            .unwrap_or_else(|| iotse_sensors::catalog::spec(self.sensor).sample_bytes())
    }

    /// Wire bytes this usage moves per window.
    #[must_use]
    pub fn bytes_per_window(&self) -> usize {
        self.sample_bytes() * self.samples_per_window as usize
    }
}

/// The Figure 6 resource profile plus the measured compute times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceProfile {
    /// Heap usage, bytes.
    pub heap_bytes: usize,
    /// Stack usage, bytes.
    pub stack_bytes: usize,
    /// Sustained instruction throughput required, MIPS.
    pub mips: f64,
    /// App-specific computation time per window on the Main-board CPU.
    pub cpu_compute: SimDuration,
    /// The same computation on the MCU (slower; Figure 8's 2.21 → 21.7 ms).
    pub mcu_compute: SimDuration,
}

impl ResourceProfile {
    /// Total resident memory.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.heap_bytes + self.stack_bytes
    }

    /// MCU slowdown factor for this app's kernel.
    #[must_use]
    pub fn mcu_slowdown(&self) -> f64 {
        let cpu = self.cpu_compute.as_secs_f64();
        if cpu == 0.0 {
            1.0
        } else {
            self.mcu_compute.as_secs_f64() / cpu
        }
    }
}

/// The samples of one completed window, keyed by sensor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowData {
    /// Window index, starting at 0.
    pub window: u32,
    /// Window start instant.
    pub start: SimTime,
    /// Window end instant.
    pub end: SimTime,
    /// Collected samples per sensor, in acquisition order.
    pub samples: BTreeMap<SensorId, Vec<SensorSample>>,
}

impl WindowData {
    /// All samples of `sensor` (empty slice if none).
    #[must_use]
    pub fn sensor(&self, id: SensorId) -> &[SensorSample] {
        self.samples.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Total samples across sensors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.values().map(Vec::len).sum()
    }

    /// `true` if no samples were collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The typed result of one window of app-specific computation.
#[derive(Debug, Clone, PartialEq)]
pub enum AppOutput {
    /// Steps detected (A2).
    Steps(u32),
    /// Earthquake verdict (A7).
    Quake {
        /// Strong motion detected this window.
        detected: bool,
    },
    /// Heartbeat analysis (A8).
    Heartbeat {
        /// Beats detected.
        beats: u32,
        /// Irregular (premature) beats flagged.
        irregular: u32,
    },
    /// Recognized keywords (A11).
    Words(Vec<String>),
    /// A protocol document / payload (A1, A3, A4, A5, A6).
    Document(String),
    /// Image decode quality (A9).
    ImageQuality {
        /// Peak signal-to-noise ratio of the round-tripped frame, dB.
        psnr_db: f64,
    },
    /// Fingerprint identification (A10).
    FingerMatch {
        /// The matched enrolled person, if any.
        matched: Option<u32>,
    },
}

impl AppOutput {
    /// Size of the result on the wire — what COM transfers to the CPU
    /// instead of the raw sensor data.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        match self {
            AppOutput::Steps(_) => 4,
            AppOutput::Quake { .. } => 1,
            AppOutput::Heartbeat { .. } => 8,
            AppOutput::Words(ws) => 2 + ws.iter().map(|w| w.len() + 1).sum::<usize>(),
            AppOutput::Document(d) => d.len(),
            AppOutput::ImageQuality { .. } => 8,
            AppOutput::FingerMatch { .. } => 5,
        }
    }

    /// One-line human summary. Prefer the [`fmt::Display`] impl when a
    /// target buffer already exists — it formats without allocating.
    #[must_use]
    pub fn summary(&self) -> String {
        use fmt::Write as _;
        // lint: one pre-sized buffer; alloc-free callers use Display directly
        let mut out = String::with_capacity(48);
        let _ = write!(out, "{self}");
        out
    }
}

impl fmt::Display for AppOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppOutput::Steps(n) => write!(f, "steps={n}"),
            AppOutput::Quake { detected } => write!(f, "quake={detected}"),
            AppOutput::Heartbeat { beats, irregular } => {
                write!(f, "beats={beats} irregular={irregular}")
            }
            AppOutput::Words(ws) => {
                f.write_str("words=[")?;
                for (i, w) in ws.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str(w)?;
                }
                f.write_str("]")
            }
            AppOutput::Document(d) => write!(f, "document({}B)", d.len()),
            AppOutput::ImageQuality { psnr_db } => write!(f, "psnr={psnr_db:.1}dB"),
            AppOutput::FingerMatch { matched } => match matched {
                Some(p) => write!(f, "matched=person{p}"),
                None => f.write_str("matched=none"),
            },
        }
    }
}

/// One of the paper's Table II applications.
///
/// `Send` is required so a boxed workload can be handed to a fleet-runner
/// worker thread (see [`crate::runner`]); workload state is owned, never
/// shared, so no `Sync` bound is needed.
pub trait Workload: Send {
    /// The Table II identity.
    fn id(&self) -> AppId;
    /// Human name, e.g. `"Step counter"`.
    fn name(&self) -> &'static str;
    /// The window over which sensing accumulates before computing (1 s for
    /// every paper workload).
    fn window(&self) -> SimDuration;
    /// Sensor usages per window.
    fn sensors(&self) -> Vec<SensorUsage>;
    /// The Figure 6 resource profile.
    fn resources(&self) -> ResourceProfile;
    /// Runs the real application kernel over one window of samples.
    fn compute(&mut self, data: &WindowData) -> AppOutput;
    /// `true` if [`Workload::compute`] is a pure function of its
    /// `WindowData` — same samples, same [`AppOutput`], regardless of what
    /// this instance computed before. Pure workloads are eligible for the
    /// cross-scheme compute cache (see `iotse_core::compute_cache`): a fleet
    /// running the same windows under five schemes reuses their outputs
    /// instead of recomputing them.
    ///
    /// Defaults to `false` — the safe answer. Opt in only when purity is
    /// provable; workloads with cross-window kernel state (A6's dedup
    /// store, A7/A8's charged detectors) must never opt in, because a cache
    /// hit would skip the state update and change later windows.
    fn memoizable(&self) -> bool {
        false
    }
    /// Distinguishes differently-configured instances of a memoizable
    /// workload in the compute cache: the cache key is
    /// `(id, memo_salt, window fingerprint)`, so two instances whose
    /// outputs could differ on identical samples must return different
    /// salts. Only A10 needs this (its enrolled database depends on its
    /// constructor's seed and person count); workloads whose only
    /// configuration is their compiled-in defaults keep the default `0`.
    fn memo_salt(&self) -> u128 {
        0
    }
    /// A 128-bit key for everything this instance does in a run: its
    /// window, sensor usages, resource profile and the outputs
    /// [`Workload::compute`] gives from its construction on. Two instances
    /// with equal fingerprints must be interchangeable in any scenario, so
    /// a run memo may hand one's result to the other (see
    /// `Scenario::fingerprint`).
    ///
    /// Defaults to `None` — the safe answer, which makes every scenario
    /// holding the workload run afresh. A decorator that changes any of the
    /// above (a scaled compute time, say) must keep `None` or fold its own
    /// configuration in; the Table II apps return
    /// [`identity_fingerprint`] of their id and [`Workload::memo_salt`].
    fn fingerprint(&self) -> Option<u128> {
        None
    }
}

/// The fingerprint of a workload whose whole behaviour follows from its
/// Table II identity and its memo salt, as a freshly built catalog app's
/// does.
#[must_use]
pub fn identity_fingerprint(id: AppId, salt: u128) -> u128 {
    let mut h = iotse_sensors::signal::cache::Fingerprint128::new();
    h.push_all(&[id as u64, salt as u64, (salt >> 64) as u64]);
    h.finish()
}

/// Wire bytes one window moves in Baseline (the Table II "Sensor Data"
/// column).
#[must_use]
pub fn window_bytes(workload: &dyn Workload) -> usize {
    workload
        .sensors()
        .iter()
        .map(SensorUsage::bytes_per_window)
        .sum()
}

/// Interrupt count of one Baseline window (the Table II "# Interrupts"
/// column).
#[must_use]
pub fn window_interrupts(workload: &dyn Workload) -> u32 {
    workload
        .sensors()
        .iter()
        .map(|u| u.samples_per_window)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Workload for Dummy {
        fn id(&self) -> AppId {
            AppId::A2
        }
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn window(&self) -> SimDuration {
            SimDuration::from_secs(1)
        }
        fn sensors(&self) -> Vec<SensorUsage> {
            vec![SensorUsage::periodic(SensorId::S4, 1000)]
        }
        fn resources(&self) -> ResourceProfile {
            ResourceProfile {
                heap_bytes: 24_000,
                stack_bytes: 300,
                mips: 3.94,
                cpu_compute: SimDuration::from_micros(2_210),
                mcu_compute: SimDuration::from_micros(21_700),
            }
        }
        fn compute(&mut self, data: &WindowData) -> AppOutput {
            AppOutput::Steps(data.sensor(SensorId::S4).len() as u32)
        }
    }

    #[test]
    fn usage_byte_math_matches_table_ii() {
        // A2: 1000 × 12 B = 12 000 B = 11.72 KB.
        let u = SensorUsage::periodic(SensorId::S4, 1000);
        assert_eq!(u.sample_bytes(), 12);
        assert_eq!(u.bytes_per_window(), 12_000);
        assert!((u.bytes_per_window() as f64 / 1024.0 - 11.72).abs() < 0.01);
        // Override (A11's 6 B audio frames).
        let a11 = SensorUsage {
            sensor: SensorId::S8,
            samples_per_window: 1000,
            bytes_per_sample_override: Some(6),
        };
        assert_eq!(a11.bytes_per_window(), 6_000);
    }

    #[test]
    fn window_helpers_sum_usages() {
        let d = Dummy;
        assert_eq!(window_bytes(&d), 12_000);
        assert_eq!(window_interrupts(&d), 1000);
    }

    #[test]
    fn resource_profile_derivations() {
        let r = Dummy.resources();
        assert_eq!(r.memory_bytes(), 24_300);
        assert!((r.mcu_slowdown() - 9.819).abs() < 0.01);
    }

    #[test]
    fn window_data_accessors() {
        let mut d = WindowData {
            window: 0,
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            samples: BTreeMap::new(),
        };
        assert!(d.is_empty());
        d.samples.insert(SensorId::S4, vec![]);
        assert_eq!(d.sensor(SensorId::S4).len(), 0);
        assert_eq!(d.sensor(SensorId::S8).len(), 0);
    }

    #[test]
    fn output_wire_sizes_are_small() {
        assert_eq!(AppOutput::Steps(7).wire_bytes(), 4);
        assert_eq!(AppOutput::Quake { detected: true }.wire_bytes(), 1);
        assert_eq!(
            AppOutput::Words(vec!["on".into(), "off".into()]).wire_bytes(),
            2 + 3 + 4
        );
        assert_eq!(AppOutput::Document("x".repeat(100)).wire_bytes(), 100);
    }

    #[test]
    fn output_summaries_are_readable() {
        assert_eq!(AppOutput::Steps(9).summary(), "steps=9");
        assert_eq!(
            AppOutput::FingerMatch { matched: Some(2) }.summary(),
            "matched=person2"
        );
        assert_eq!(
            AppOutput::FingerMatch { matched: None }.summary(),
            "matched=none"
        );
        assert_eq!(
            AppOutput::Heartbeat {
                beats: 70,
                irregular: 3
            }
            .summary(),
            "beats=70 irregular=3"
        );
    }

    #[test]
    fn app_id_groupings() {
        assert_eq!(AppId::LIGHT.len(), 10);
        assert!(!AppId::LIGHT.contains(&AppId::A11));
        assert_eq!(AppId::ALL.len(), 11);
        assert_eq!(AppId::A7.to_string(), "A7");
    }
}
