//! A6 — Dropbox manager (Web Control).
//!
//! Records the sound/distance sensor streams to "files" and keeps them in
//! sync with the cloud using content-defined chunking and digest
//! deduplication — the real delta-sync mechanism, so repeated content costs
//! no upload.

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::sync::{ChunkConfig, ChunkStore};
use crate::scratch::Scratch;

/// The Dropbox-manager workload.
#[derive(Debug, Clone, Default)]
pub struct DropboxManager {
    store: ChunkStore,
    windows_synced: u64,
    scratch: Scratch,
}

impl DropboxManager {
    /// Creates the workload with an empty cloud store.
    #[must_use]
    pub fn new() -> Self {
        DropboxManager {
            store: ChunkStore::new(ChunkConfig::default()),
            windows_synced: 0,
            scratch: Scratch::new(),
        }
    }
}

impl Workload for DropboxManager {
    fn id(&self) -> AppId {
        AppId::A6
    }

    fn name(&self) -> &'static str {
        "Dropbox Manager"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![
            SensorUsage::periodic(SensorId::S8, 1000),
            SensorUsage::periodic(SensorId::S9, 1000),
        ]
    }

    fn resources(&self) -> ResourceProfile {
        super::profile(26_624, 410, 40.0, 9.0, 100.0)
    }

    // NOT memoizable: the chunk store deduplicates against everything it
    // has seen, and the sync counter names each report — both depend on
    // window history, not just this window's samples.

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        // Serialize the window's recordings into the file bytes to sync.
        let file = &mut self.scratch.bytes_a;
        file.clear();
        for sensor in [SensorId::S8, SensorId::S9] {
            for s in data.sensor(sensor) {
                if let Some(x) = s.value.as_scalar() {
                    // Quantize like the on-disk format would.
                    file.extend_from_slice(&((x * 100.0) as i32).to_le_bytes());
                }
            }
        }
        let report = self.store.sync(file);
        self.windows_synced += 1;
        // lint: the sync report is the returned AppOutput, one small format per window
        AppOutput::Document(format!(
            "sync#{}: uploaded={} deduplicated={} bytes={} store={}",
            self.windows_synced,
            report.uploaded,
            report.deduplicated,
            report.uploaded_bytes,
            self.store.len(),
        ))
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
        let app = DropboxManager::new();
        assert_eq!(iotse_core::workload::window_interrupts(&app), 2000);
        assert_eq!(iotse_core::workload::window_bytes(&app), 12_000);
    }

    #[test]
    fn every_window_uploads_fresh_sensor_content() {
        let r = Scenario::new(Scheme::Batching, vec![Box::new(DropboxManager::new())])
            .windows(3)
            .seed(16)
            .run();
        for w in &r.app(AppId::A6).expect("ran").windows {
            let AppOutput::Document(doc) = &w.output else {
                panic!("wrong type")
            };
            let uploaded: usize = doc
                .split("uploaded=")
                .nth(1)
                .and_then(|s| s.split(' ').next())
                .and_then(|s| s.parse().ok())
                .expect("field");
            assert!(uploaded > 0, "sensor noise should never fully dedup: {doc}");
        }
    }

    #[test]
    fn store_grows_across_windows() {
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(DropboxManager::new())])
            .windows(3)
            .seed(17)
            .run();
        let sizes: Vec<usize> = r
            .app(AppId::A6)
            .expect("ran")
            .windows
            .iter()
            .map(|w| {
                let AppOutput::Document(doc) = &w.output else {
                    panic!("wrong type")
                };
                doc.split("store=")
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .expect("field")
            })
            .collect();
        assert!(
            sizes.windows(2).all(|p| p[0] < p[1]),
            "store must grow: {sizes:?}"
        );
    }
}
