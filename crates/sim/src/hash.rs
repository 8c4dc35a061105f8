//! The workspace's two hashes: FNV-1a 64 over bytes, and a 128-bit
//! fingerprint over words.
//!
//! Seed derivation ([`crate::rng::SeedTree`]), the trace log's intern
//! index and the scenario corpus's `output-checksum` all fold bytes with
//! [`fnv1a`], and the digest goldens pin its output. A hash that continues
//! from a previous state lets a caller fold several byte strings into one
//! digest without joining them first.
//!
//! [`Fingerprint128`] keys the in-process memos: the compute cache's
//! windows, the signal cache's generator configs and the run memo's
//! scenarios. Its keys never leave the process, so the pins in this
//! module's tests are what hold it still.

/// The FNV-1a 64 offset basis: the hash of the empty string.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`, continuing from the state `h` (start from
/// [`FNV_OFFSET`]).
///
/// ```
/// use iotse_sim::hash::{fnv1a, FNV_OFFSET};
///
/// let whole = fnv1a(FNV_OFFSET, b"ab");
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"a"), b"b"), whole);
/// ```
#[inline]
#[must_use]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// An incremental 128-bit fingerprint over a stream of `u64` words.
///
/// Two *independent* folds run side by side: the low half is FNV-1a over
/// whole words, the high half a rotate-multiply mix with its own
/// constants (splitmix64's golden-ratio increment and odd multiplier). An
/// input pair that collides in one fold has no structural reason to collide
/// in the other, so accidental 128-bit collisions are a non-issue even when
/// the fingerprint is used as a *correctness* key (the compute cache in
/// `iotse-core`), not just a memo hint.
///
/// The incremental form exists so callers with large inputs — the compute
/// cache folds every sample of a sensor window — can hash without first
/// materialising a `&[u64]` slice.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint128 {
    lo: u64,
    hi: u64,
}

impl Fingerprint128 {
    /// A fresh hasher at the two folds' offset bases.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint128 {
            lo: FNV_OFFSET,
            hi: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Folds one word into both halves.
    pub fn push(&mut self, word: u64) {
        self.lo ^= word;
        self.lo = self.lo.wrapping_mul(FNV_PRIME);
        self.hi = (self.hi ^ word.rotate_left(31))
            .rotate_left(27)
            .wrapping_mul(0x2545_F491_4F6C_DD1D);
    }

    /// Folds a slice of words.
    pub fn push_all(&mut self, words: &[u64]) {
        for &w in words {
            self.push(w);
        }
    }

    /// The 128-bit digest (high fold in the upper half).
    #[must_use]
    pub fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

impl Default for Fingerprint128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds a sequence of words into a 128-bit fingerprint (see
/// [`Fingerprint128`]; whole-word rounds cost an eighth of a per-byte
/// walk).
///
/// Pass every field that influences the keyed value; use [`f64::to_bits`]
/// for floats so `-0.0` and `0.0` (which generate identically) may differ —
/// a spurious *miss* is harmless, a spurious *hit* never happens because the
/// inputs really are bit-identical.
#[must_use]
pub fn fingerprint128(words: &[u64]) -> u128 {
    let mut h = Fingerprint128::new();
    h.push_all(words);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_pins() {
        assert_eq!(
            fingerprint128(&[1, 2, 3]),
            0x67b3_a9ae_572d_aee6_d0aa_6218_672c_f5ab
        );
        assert_eq!(
            fingerprint128(&[]),
            0x9e37_79b9_7f4a_7c15 << 64 | u128::from(FNV_OFFSET)
        );
    }

    #[test]
    fn fingerprint_separates_inputs() {
        assert_ne!(fingerprint128(&[1, 2]), fingerprint128(&[2, 1]));
        assert_ne!(fingerprint128(&[1]), fingerprint128(&[1, 0]));
        assert_eq!(fingerprint128(&[7, 8]), fingerprint128(&[7, 8]));
    }

    #[test]
    fn incremental_matches_slice_fold() {
        let words = [0u64, 1, u64::MAX, 0xDEAD_BEEF, 42];
        let mut h = Fingerprint128::new();
        for &w in &words {
            h.push(w);
        }
        assert_eq!(h.finish(), fingerprint128(&words));
        let mut h2 = Fingerprint128::default();
        h2.push_all(&words);
        assert_eq!(h2.finish(), fingerprint128(&words));
    }

    #[test]
    fn both_halves_separate_inputs_independently() {
        // The two folds use distinct constants; a difference in the input
        // must show up in each half on its own, not just in the pair.
        let a = fingerprint128(&[3, 5, 7]);
        let b = fingerprint128(&[3, 5, 8]);
        assert_ne!(a as u64, b as u64, "low fold failed to separate");
        assert_ne!((a >> 64) as u64, (b >> 64) as u64, "high fold failed");
    }

    #[test]
    fn perturbed_word_streams_never_collide() {
        // Collision regression: single-bit perturbations of a base stream
        // (the shape of one perturbed sensor window) must all land on
        // distinct 128-bit digests, pairwise and against the base.
        let base: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let mut seen = std::collections::BTreeSet::new();
        assert!(seen.insert(fingerprint128(&base)));
        for word in 0..base.len() {
            for bit in 0..64 {
                let mut p = base.clone();
                p[word] ^= 1u64 << bit;
                assert!(
                    seen.insert(fingerprint128(&p)),
                    "collision at word {word} bit {bit}"
                );
            }
        }
        // Length-extension-style perturbations separate too.
        assert!(seen.insert(fingerprint128(&base[..base.len() - 1])));
        let mut longer = base.clone();
        longer.push(0);
        assert!(seen.insert(fingerprint128(&longer)));
    }
}
