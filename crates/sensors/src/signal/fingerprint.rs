//! Synthetic fingerprints (feed S3 for the fingerprint-register workload).
//!
//! A person's finger is a deterministic template of minutiae points; a scan
//! is the template perturbed by placement jitter plus a few spurious/missing
//! minutiae — enough structure for the enroll/identify kernel in
//! `iotse-apps` to do a real matching job. Which person a scan came from is
//! the ground truth.

use std::collections::BTreeMap;
use std::sync::Arc;

use iotse_sim::rng::SeedTree;
use iotse_sim::rng::SimRng;

use crate::signal::cache;

/// One minutia point: ridge ending/bifurcation position and direction on a
/// normalized 256 × 256 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Minutia {
    /// X coordinate, 0–255.
    pub x: u8,
    /// Y coordinate, 0–255.
    pub y: u8,
    /// Ridge direction quantized to 0–255 (wraps).
    pub angle: u8,
}

/// Number of minutiae per template.
pub const MINUTIAE_PER_TEMPLATE: usize = 24;

/// Byte size of an encoded signature — matches Table I's 512 B payload.
pub const SIGNATURE_BYTES: usize = 512;

/// A person's reference fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerTemplate {
    /// Stable person identifier.
    pub person: u32,
    /// The minutiae set.
    pub minutiae: Vec<Minutia>,
}

impl FingerTemplate {
    /// Derives the canonical template of `person` (pure function of seed and
    /// person id).
    ///
    /// Every [`FingerprintScanner::scan`] call needs the reference template,
    /// so it is memoized in the signal cache rather than regenerated per
    /// scan.
    #[must_use]
    pub fn of_person(seeds: &SeedTree, person: u32) -> Self {
        (*FingerTemplate::of_person_shared(seeds, person)).clone()
    }

    /// Like [`FingerTemplate::of_person`], but hands back the cache's own
    /// `Arc` — callers that only read the template (the scanner, matchers)
    /// skip the minutiae clone entirely.
    #[must_use]
    pub fn of_person_shared(seeds: &SeedTree, person: u32) -> Arc<Self> {
        cache::memoized(
            "finger/template",
            // lint: the template's stream label; scanners memoize per person
            seeds.derive(&format!("signal/finger/{person}")),
            u128::from(person),
            || {
                // lint: memoized build, once per person and seed
                let mut rng: SimRng = seeds.stream(&format!("signal/finger/{person}"));
                let minutiae = (0..MINUTIAE_PER_TEMPLATE)
                    .map(|_| Minutia {
                        x: rng.gen(),
                        y: rng.gen(),
                        angle: rng.gen(),
                    })
                    // lint: memoized build, once per person and seed
                    .collect();
                FingerTemplate { person, minutiae }
            },
        )
    }

    /// Encodes the template into the 512-byte wire signature S3 emits.
    ///
    /// Layout: 4-byte person id (for test introspection only — the matcher
    /// must not use it), 1-byte count, then `(x, y, angle)` triples, zero
    /// padded.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        // lint: encode returns the owned fixed-size signature buffer
        let mut out = vec![0u8; SIGNATURE_BYTES];
        out[0..4].copy_from_slice(&self.person.to_le_bytes());
        out[4] = self.minutiae.len() as u8;
        for (i, m) in self.minutiae.iter().enumerate() {
            let base = 5 + i * 3;
            out[base] = m.x;
            out[base + 1] = m.y;
            out[base + 2] = m.angle;
        }
        out
    }

    /// Decodes a wire signature back into a template.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer is not [`SIGNATURE_BYTES`] long or the
    /// minutiae count does not fit the buffer.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() != SIGNATURE_BYTES {
            return Err(format!(
                "signature must be {SIGNATURE_BYTES} B, got {}",
                bytes.len()
            ));
        }
        let person = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        let n = bytes[4] as usize;
        if 5 + n * 3 > SIGNATURE_BYTES {
            return Err(format!("minutiae count {n} overflows signature"));
        }
        let minutiae = (0..n)
            .map(|i| {
                let base = 5 + i * 3;
                Minutia {
                    x: bytes[base],
                    y: bytes[base + 1],
                    angle: bytes[base + 2],
                }
            })
            .collect();
        Ok(FingerTemplate { person, minutiae })
    }
}

/// Produces noisy scans of known fingers.
#[derive(Debug)]
pub struct FingerprintScanner {
    seeds: SeedTree,
    rng: SimRng,
    /// Reference templates this scanner already resolved — repeat scans of
    /// a person skip the global signal-cache mutex and its key derivation.
    templates: BTreeMap<u32, Arc<FingerTemplate>>,
}

impl FingerprintScanner {
    /// Creates a scanner.
    #[must_use]
    pub fn new(seeds: &SeedTree) -> Self {
        FingerprintScanner {
            seeds: *seeds,
            rng: seeds.stream("signal/finger/scanner"),
            templates: BTreeMap::new(),
        }
    }

    /// Scans `person`'s finger: the canonical template with placement jitter
    /// (±3 px, ±4 angle steps), up to 2 dropped and 2 spurious minutiae.
    #[must_use]
    pub fn scan(&mut self, person: u32) -> FingerTemplate {
        let FingerprintScanner {
            seeds,
            rng,
            templates,
        } = self;
        // The template stays borrowed from the scanner's map while the
        // scan draws from the scanner's own stream.
        let reference = templates
            .entry(person)
            .or_insert_with(|| FingerTemplate::of_person_shared(seeds, person));
        // lint: each scan owns its minutiae, as the sample owns its payload
        let mut minutiae: Vec<Minutia> = Vec::with_capacity(reference.minutiae.len());
        for m in &reference.minutiae {
            if rng.gen::<f64>() <= 0.06 {
                continue; // ~6% dropout
            }
            minutiae.push(Minutia {
                x: jitter(rng, m.x, 3),
                y: jitter(rng, m.y, 3),
                angle: m.angle.wrapping_add(rng.gen_range(0..=8)).wrapping_sub(4),
            });
        }
        let spurious = rng.gen_range(0..=2);
        for _ in 0..spurious {
            minutiae.push(Minutia {
                x: rng.gen(),
                y: rng.gen(),
                angle: rng.gen(),
            });
        }
        FingerTemplate { person, minutiae }
    }
}

fn jitter(rng: &mut SimRng, v: u8, amount: i16) -> u8 {
    let d = rng.gen_range(-amount..=amount);
    (i16::from(v) + d).clamp(0, 255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_are_pure_per_person() {
        let seeds = SeedTree::new(13);
        assert_eq!(
            FingerTemplate::of_person(&seeds, 1),
            FingerTemplate::of_person(&seeds, 1)
        );
        assert_ne!(
            FingerTemplate::of_person(&seeds, 1).minutiae,
            FingerTemplate::of_person(&seeds, 2).minutiae
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = FingerTemplate::of_person(&SeedTree::new(13), 42);
        let wire = t.encode();
        assert_eq!(wire.len(), SIGNATURE_BYTES);
        let back = FingerTemplate::decode(&wire).expect("decodes");
        assert_eq!(back, t);
    }

    #[test]
    fn decode_rejects_bad_sizes() {
        assert!(FingerTemplate::decode(&[0u8; 100]).is_err());
        let mut wire = vec![0u8; SIGNATURE_BYTES];
        wire[4] = 255; // count too large for buffer
        assert!(FingerTemplate::decode(&wire).is_err());
    }

    #[test]
    fn scans_resemble_reference() {
        let seeds = SeedTree::new(13);
        let mut scanner = FingerprintScanner::new(&seeds);
        let reference = FingerTemplate::of_person(&seeds, 7);
        let scan = scanner.scan(7);
        // Most scan minutiae should be within a small radius of some
        // reference minutia.
        let close = scan
            .minutiae
            .iter()
            .filter(|s| {
                reference.minutiae.iter().any(|r| {
                    (i16::from(s.x) - i16::from(r.x)).abs() <= 4
                        && (i16::from(s.y) - i16::from(r.y)).abs() <= 4
                })
            })
            .count();
        assert!(
            close * 10 >= scan.minutiae.len() * 8,
            "{close}/{}",
            scan.minutiae.len()
        );
    }

    #[test]
    fn scans_of_different_people_differ() {
        let seeds = SeedTree::new(13);
        let mut scanner = FingerprintScanner::new(&seeds);
        let a = scanner.scan(1);
        let b = scanner.scan(2);
        // Count cross-matches between different people: should be few.
        let close = a
            .minutiae
            .iter()
            .filter(|s| {
                b.minutiae.iter().any(|r| {
                    (i16::from(s.x) - i16::from(r.x)).abs() <= 4
                        && (i16::from(s.y) - i16::from(r.y)).abs() <= 4
                })
            })
            .count();
        assert!(
            close <= a.minutiae.len() / 3,
            "too many cross-matches: {close}"
        );
    }

    #[test]
    fn repeated_scans_vary_but_stay_matchable() {
        let seeds = SeedTree::new(13);
        let mut scanner = FingerprintScanner::new(&seeds);
        let s1 = scanner.scan(3);
        let s2 = scanner.scan(3);
        assert_ne!(s1.minutiae, s2.minutiae, "scans should be noisy");
    }
}
