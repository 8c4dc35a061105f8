//! A10 — Fingerprint register (Security).
//!
//! Enrolls the household's fingers at startup, then identifies each scan
//! from S3 by minutiae geometry. The database shares the scenario's seed so
//! its reference templates describe the same simulated fingers the sensor
//! scans.

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::signal::fingerprint::FingerTemplate;
use iotse_sensors::spec::SensorId;
use iotse_sim::rng::SeedTree;
use iotse_sim::time::SimDuration;

use crate::kernels::fingermatch::{FingerDb, MatchConfig};

/// The fingerprint-register workload.
#[derive(Debug, Clone)]
pub struct FingerprintRegister {
    db: FingerDb,
    /// The constructor arguments, kept as the compute-cache salt: two
    /// registers with different enrollments answer differently on the same
    /// scan, so they must not share cache entries.
    salt: u128,
}

impl FingerprintRegister {
    /// Creates the workload, enrolling `people` fingers derived from the
    /// scenario seed (pass the same seed given to the
    /// [`Scenario`](iotse_core::executor::Scenario)).
    #[must_use]
    pub fn new(seed: u64, people: u32) -> Self {
        let seeds = SeedTree::new(seed);
        let mut db = FingerDb::new(MatchConfig::default());
        for person in 0..people {
            db.enroll(person, FingerTemplate::of_person(&seeds, person));
        }
        FingerprintRegister {
            db,
            salt: (u128::from(seed) << 32) | u128::from(people),
        }
    }
}

impl Workload for FingerprintRegister {
    fn id(&self) -> AppId {
        AppId::A10
    }

    fn name(&self) -> &'static str {
        "Fingerprint Register"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![SensorUsage::on_demand(SensorId::S3)]
    }

    fn resources(&self) -> ResourceProfile {
        // Integer-heavy matching ports well to the MCU (mild slowdown).
        super::profile(21_811, 307, 60.0, 33.0, 36.0)
    }

    fn memoizable(&self) -> bool {
        // The database is enrolled once at construction and `identify` is
        // `&self` — identification is a pure function of the scan bytes
        // and the salt-distinguished enrollment.
        true
    }

    fn memo_salt(&self) -> u128 {
        self.salt
    }

    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let Some(wire) = data
            .sensor(SensorId::S3)
            .last()
            .and_then(|s| s.value.as_bytes())
        else {
            return AppOutput::FingerMatch { matched: None };
        };
        let matched = FingerTemplate::decode(wire)
            .ok()
            .and_then(|scan| self.db.identify(&scan.minutiae));
        AppOutput::FingerMatch { matched }
    }

    fn fingerprint(&self) -> Option<u128> {
        Some(identity_fingerprint(self.id(), self.memo_salt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_core::executor::Scenario;
    use iotse_core::scheme::Scheme;

    #[test]
    fn spec_matches_table2() {
        let app = FingerprintRegister::new(1, 4);
        assert_eq!(iotse_core::workload::window_interrupts(&app), 1);
        assert_eq!(iotse_core::workload::window_bytes(&app), 512); // 0.5 KB
    }

    #[test]
    fn identifies_the_cycling_scanner_people() {
        // The world scans person 0, 1, 2, 3, 0, … one per window.
        let seed = 21;
        let r = Scenario::new(
            Scheme::Baseline,
            vec![Box::new(FingerprintRegister::new(seed, 4))],
        )
        .windows(4)
        .seed(seed)
        .run();
        let matches: Vec<Option<u32>> = r
            .app(AppId::A10)
            .expect("ran")
            .windows
            .iter()
            .map(|w| match w.output {
                AppOutput::FingerMatch { matched } => matched,
                _ => panic!("wrong output type"),
            })
            .collect();
        assert_eq!(matches, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn strangers_are_rejected() {
        // Enroll only 1 person; the world cycles through 4 — windows 2–4
        // present unenrolled fingers.
        let seed = 22;
        let r = Scenario::new(
            Scheme::Com,
            vec![Box::new(FingerprintRegister::new(seed, 1))],
        )
        .windows(4)
        .seed(seed)
        .run();
        let matches: Vec<Option<u32>> = r
            .app(AppId::A10)
            .expect("ran")
            .windows
            .iter()
            .map(|w| match w.output {
                AppOutput::FingerMatch { matched } => matched,
                _ => panic!("wrong output type"),
            })
            .collect();
        assert_eq!(matches[0], Some(0));
        assert!(matches[1..].iter().all(Option::is_none), "{matches:?}");
    }
}
