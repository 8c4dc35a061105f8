//! Cross-scheme compute memoization: content-addressed kernel outputs.
//!
//! A fleet replays the *same windows* many times: the five schemes route the
//! same `(seed, apps, windows)` sensor streams differently, but every sample
//! is latched at its nominal tick instant, so the [`WindowData`] a kernel
//! sees is byte-identical across schemes. For a pure kernel
//! ([`Workload::memoizable`]) the output is therefore identical too — the
//! fleet can compute it once and reuse it, while the *energy and timing*
//! simulation still runs per scheme (compute energy is charged from the
//! profiled `cpu_compute`/`mcu_compute` durations, never from how long the
//! kernel takes on the host, so sharing the functional output cannot change
//! attribution; see DESIGN.md §"Compute performance").
//!
//! Entries are keyed by `(AppId, memo salt, window fingerprint)`:
//!
//! * the **salt** separates differently-configured instances of one app
//!   (A10's enrollment database, see [`Workload::memo_salt`]);
//! * the **fingerprint** folds every field of the window — index, bounds,
//!   and each sample's sensor, sequence number, acquisition instant and
//!   exact value bits — through the two independent 64-bit folds of
//!   [`Fingerprint128`], so two windows share an entry **iff** their data is
//!   bit-identical. A spurious miss merely recomputes; a spurious hit would
//!   need a simultaneous collision in both folds.
//!
//! The store is a [`Memo`] (builds outside the lock, first insert wins,
//! cleared past [`MAX_ENTRIES`]). Outputs are stored by value, not shared,
//! because every caller takes its own copy anyway.
//!
//! [`Workload::memoizable`]: crate::workload::Workload::memoizable
//! [`Workload::memo_salt`]: crate::workload::Workload::memo_salt

use iotse_sensors::reading::SampleValue;
use iotse_sim::hash::Fingerprint128;
use iotse_sim::memo::{Memo, MemoStats};

use crate::workload::{AppId, AppOutput, WindowData};

/// Entries kept before the cache resets itself. Sized for a figure-scale
/// fleet: eleven apps × tens of windows × a few seeds fits with room to
/// spare, and an occasional cold rebuild is cheaper than eviction tracking.
pub const MAX_ENTRIES: usize = 4096;

static CACHE: Memo<(AppId, u128, u128), AppOutput> = Memo::new(MAX_ENTRIES);

/// The 128-bit content fingerprint of one window of samples.
///
/// Folds the window index and bounds, then every sample of every sensor in
/// `BTreeMap` order: sensor id, sample count, and per sample the sequence
/// number, acquisition instant and the exact bit pattern of the value
/// (tagged by variant, floats via [`f64::to_bits`], blobs padded into
/// little-endian words). Everything a kernel can observe is folded, so
/// equal fingerprints mean observably identical inputs.
#[must_use]
pub fn fingerprint(data: &WindowData) -> u128 {
    let mut h = Fingerprint128::new();
    h.push(u64::from(data.window));
    h.push(data.start.as_nanos());
    h.push(data.end.as_nanos());
    for (sensor, samples) in &data.samples {
        h.push(*sensor as u64);
        h.push(samples.len() as u64);
        for s in samples {
            h.push(s.seq);
            h.push(s.acquired_at.as_nanos());
            match &s.value {
                SampleValue::Scalar(x) => {
                    h.push(1);
                    h.push(x.to_bits());
                }
                SampleValue::Triple([x, y, z]) => {
                    h.push(2);
                    h.push(x.to_bits());
                    h.push(y.to_bits());
                    h.push(z.to_bits());
                }
                SampleValue::Bytes(b) => {
                    h.push(3);
                    h.push(b.len() as u64);
                    for chunk in b.chunks(8) {
                        let mut word = [0u8; 8];
                        word[..chunk.len()].copy_from_slice(chunk);
                        h.push(u64::from_le_bytes(word));
                    }
                }
            }
        }
    }
    h.finish()
}

/// Returns the memoized output for `(app, salt, window)`, running `compute`
/// on a miss.
///
/// `compute` MUST be a pure function of the key — the contract
/// [`Workload::memoizable`](crate::workload::Workload::memoizable)
/// documents. The kernel runs outside the cache lock, so concurrent fleet
/// workers never serialize on each other's compute.
pub fn memoized_output(
    app: AppId,
    salt: u128,
    window: u128,
    compute: impl FnOnce() -> AppOutput,
) -> AppOutput {
    CACHE.get_or_build((app, salt, window), compute)
}

/// A point-in-time view of the cache's counters.
pub type CacheStats = MemoStats;

/// Current hit/miss counters and residency.
#[must_use]
pub fn stats() -> CacheStats {
    CACHE.stats()
}

/// Empties the cache and zeroes the counters — benches call this before a
/// measured section so hit/miss counts are deterministic from a cold start.
pub fn clear() {
    CACHE.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_sensors::reading::SensorSample;
    use iotse_sensors::spec::SensorId;
    use iotse_sim::time::SimTime;
    use std::collections::BTreeMap;

    fn sample(sensor: SensorId, seq: u64, value: SampleValue) -> SensorSample {
        SensorSample {
            sensor,
            seq,
            acquired_at: SimTime::from_millis(seq),
            value,
        }
    }

    fn base_window() -> WindowData {
        let mut data = WindowData {
            window: 3,
            start: SimTime::from_secs(3),
            end: SimTime::from_secs(4),
            samples: BTreeMap::new(),
        };
        data.samples.insert(
            SensorId::S1,
            (0..8)
                .map(|i| sample(SensorId::S1, i, SampleValue::Scalar(1013.25 + i as f64)))
                .collect(),
        );
        data.samples.insert(
            SensorId::S4,
            vec![sample(
                SensorId::S4,
                0,
                SampleValue::Triple([0.1, -0.2, 9.8]),
            )],
        );
        data.samples.insert(
            SensorId::S3,
            vec![sample(SensorId::S3, 0, SampleValue::Bytes(vec![7; 13]))],
        );
        data
    }

    #[test]
    fn fingerprint_is_stable() {
        assert_eq!(fingerprint(&base_window()), fingerprint(&base_window()));
    }

    #[test]
    fn perturbed_windows_never_collide() {
        // Collision regression over the perturbations a scheme bug or a
        // miskeyed cache could produce: every variant must land on its own
        // 128-bit digest, pairwise and against the base.
        let mut seen = std::collections::BTreeSet::new();
        let base = base_window();
        assert!(seen.insert(fingerprint(&base)));

        // Window identity perturbations.
        let mut d = base_window();
        d.window += 1;
        assert!(seen.insert(fingerprint(&d)), "window index");
        let mut d = base_window();
        d.start += iotse_sim::time::SimDuration::from_nanos(1);
        assert!(seen.insert(fingerprint(&d)), "start instant");
        let mut d = base_window();
        d.end += iotse_sim::time::SimDuration::from_nanos(1);
        assert!(seen.insert(fingerprint(&d)), "end instant");

        // Single-bit value perturbations across every scalar sample.
        for i in 0..8 {
            for bit in [0u64, 31, 52, 63] {
                let mut d = base_window();
                let s = &mut d.samples.get_mut(&SensorId::S1).unwrap()[i];
                let SampleValue::Scalar(x) = s.value else {
                    unreachable!()
                };
                s.value = SampleValue::Scalar(f64::from_bits(x.to_bits() ^ (1 << bit)));
                assert!(seen.insert(fingerprint(&d)), "scalar {i} bit {bit}");
            }
        }

        // Sequence / timing / structural perturbations.
        let mut d = base_window();
        d.samples.get_mut(&SensorId::S1).unwrap()[2].seq = 99;
        assert!(seen.insert(fingerprint(&d)), "seq");
        let mut d = base_window();
        d.samples.get_mut(&SensorId::S1).unwrap()[2].acquired_at = SimTime::from_millis(77);
        assert!(seen.insert(fingerprint(&d)), "acquired_at");
        let mut d = base_window();
        d.samples.get_mut(&SensorId::S1).unwrap().pop();
        assert!(seen.insert(fingerprint(&d)), "dropped sample");
        let mut d = base_window();
        d.samples.remove(&SensorId::S3);
        assert!(seen.insert(fingerprint(&d)), "dropped sensor");
        let mut d = base_window();
        d.samples.get_mut(&SensorId::S3).unwrap()[0].value = SampleValue::Bytes(vec![7; 14]);
        assert!(seen.insert(fingerprint(&d)), "blob length");
        let mut d = base_window();
        let mut blob = vec![7u8; 13];
        blob[12] ^= 1;
        d.samples.get_mut(&SensorId::S3).unwrap()[0].value = SampleValue::Bytes(blob);
        assert!(seen.insert(fingerprint(&d)), "blob tail bit");
        // Variant confusion: a scalar that prints like a 1-word blob.
        let mut d = base_window();
        d.samples.get_mut(&SensorId::S4).unwrap()[0].value = SampleValue::Scalar(9.8);
        assert!(seen.insert(fingerprint(&d)), "variant change");
    }

    #[test]
    fn second_lookup_reuses_the_first_output() {
        const SALT: u128 = 0xFEED_0001;
        let fp = fingerprint(&base_window());
        let mut calls = 0;
        let out = |calls: &mut u32| {
            *calls += 1;
            AppOutput::Steps(41)
        };
        let a = memoized_output(AppId::A2, SALT, fp, || out(&mut calls));
        let b = memoized_output(AppId::A2, SALT, fp, || out(&mut calls));
        assert_eq!(a, AppOutput::Steps(41));
        assert_eq!(a, b);
        assert_eq!(calls, 1, "second lookup must not recompute");
    }

    #[test]
    fn keys_separate_by_app_salt_and_window() {
        // A salt no workload uses keeps this test apart from scenarios run
        // by other tests in the same process.
        const SALT: u128 = 0xFEED_0002;
        let fp = fingerprint(&base_window());
        let mut d = base_window();
        d.window += 1;
        let fp2 = fingerprint(&d);
        assert_eq!(
            memoized_output(AppId::A2, SALT, fp, || AppOutput::Steps(1)),
            AppOutput::Steps(1)
        );
        assert_eq!(
            memoized_output(AppId::A7, SALT, fp, || AppOutput::Steps(2)),
            AppOutput::Steps(2),
            "app id must separate"
        );
        assert_eq!(
            memoized_output(AppId::A2, SALT + 1, fp, || AppOutput::Steps(3)),
            AppOutput::Steps(3),
            "salt must separate"
        );
        assert_eq!(
            memoized_output(AppId::A2, SALT, fp2, || AppOutput::Steps(4)),
            AppOutput::Steps(4),
            "window fingerprint must separate"
        );
    }

    #[test]
    fn concurrent_cold_lookups_agree() {
        const SALT: u128 = 0xFEED_0003;
        let fp = fingerprint(&base_window());
        let results: Vec<AppOutput> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    s.spawn(move || {
                        memoized_output(AppId::A9, SALT, fp, || AppOutput::ImageQuality {
                            psnr_db: 33.25,
                        })
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for r in &results {
            assert_eq!(*r, AppOutput::ImageQuality { psnr_db: 33.25 });
        }
    }

    #[test]
    fn stats_track_entries() {
        const SALT: u128 = 0xFEED_0004;
        let _ = memoized_output(AppId::A1, SALT, 1, || AppOutput::Document("x".into()));
        // No test in this crate clears the cache, so the entry stays resident.
        assert!(stats().entries > 0);
    }
}
