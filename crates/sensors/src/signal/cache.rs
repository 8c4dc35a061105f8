//! Memoized synthetic-signal artifacts, shared read-only across scenarios.
//!
//! A fleet of scenarios (see `iotse-core`'s runner) frequently replays the
//! *same* world: identical `(seed, world config)` pairs appear once per
//! scheme, per figure, per sweep point. The expensive precomputed artifacts
//! — ECG beat schedules, audio utterance schedules, fingerprint templates,
//! camera frames — are pure functions of a derived seed plus the generator
//! configuration, so they are generated once here and shared as `Arc`s.
//!
//! Keys are `(domain, derived seed, config fingerprint)`. The derived seed
//! comes from [`iotse_sim::rng::SeedTree::derive`], which already
//! incorporates the experiment's root seed and the signal's label; the
//! fingerprint folds every configuration field that influences generation.
//! Two scenarios therefore share an entry **iff** they would generate
//! byte-identical artifacts — caching can never change a result, only skip
//! regenerating it.
//!
//! Concurrency: lookups take a global mutex briefly; builds run *outside*
//! the lock so workers never serialize on generation. Two threads racing on
//! a cold key may both build it (the artifacts are deterministic, so both
//! values are identical and either may be kept). The map is bounded: once
//! it exceeds [`MAX_ENTRIES`] it is cleared — fleet workloads re-warm it in
//! one scenario, and an occasional rebuild is cheaper than an LRU chain.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entries kept before the cache resets itself.
pub const MAX_ENTRIES: usize = 64;

/// Identifies one cached artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CacheKey {
    /// Which artifact family (`"ecg/beats"`, `"audio/utterances"`, …).
    domain: &'static str,
    /// The seed the artifact's RNG stream starts from.
    seed: u64,
    /// Fingerprint of every config field influencing generation.
    config: u128,
}

// An ordered map keeps the shelf's layout independent of `RandomState`, so
// diagnostics that walk it (and the IOTSE-D02 determinism lint) stay happy;
// lookups here are far from hot enough for the log(n) to matter.
type Shelf = BTreeMap<CacheKey, Arc<dyn Any + Send + Sync>>;

static CACHE: OnceLock<Mutex<Shelf>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn shelf() -> &'static Mutex<Shelf> {
    // lint: BTreeMap::new is alloc-free; the shelf is built once per process
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// An incremental 128-bit fingerprint over a stream of `u64` words.
///
/// Two *independent* folds run side by side: the low half is the plain
/// FNV-1a round from PR 4, the high half a rotate-multiply mix with its own
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
            lo: 0xCBF2_9CE4_8422_2325,
            hi: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Folds one word into both halves.
    pub fn push(&mut self, word: u64) {
        self.lo ^= word;
        self.lo = self.lo.wrapping_mul(0x0000_0100_0000_01B3);
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

/// Folds a sequence of words into a 128-bit config fingerprint (see
/// [`Fingerprint128`] — the keys never leave the process, so the hash only
/// has to separate inputs, and whole-word rounds cost an eighth of a
/// per-byte walk).
///
/// Pass every field that influences generation; use [`f64::to_bits`] for
/// floats so `-0.0` and `0.0` (which generate identically) may differ — a
/// spurious *miss* is harmless, a spurious *hit* never happens because the
/// inputs really are bit-identical.
#[must_use]
pub fn fingerprint(words: &[u64]) -> u128 {
    let mut h = Fingerprint128::new();
    h.push_all(words);
    h.finish()
}

/// Returns the cached artifact for `(domain, seed, config)`, building it
/// with `build` on a miss.
///
/// `build` MUST be a pure function of the key — same key, same bytes —
/// which holds for every signal generator because their RNG streams are
/// fully determined by the derived seed.
pub fn memoized<T: Send + Sync + 'static>(
    domain: &'static str,
    seed: u64,
    config: u128,
    build: impl FnOnce() -> T,
) -> Arc<T> {
    let key = CacheKey {
        domain,
        seed,
        config,
    };
    if let Some(hit) = shelf()
        .lock()
        .expect("signal cache poisoned")
        .get(&key)
        .cloned()
    {
        if let Ok(value) = hit.downcast::<T>() {
            HITS.fetch_add(1, Ordering::Relaxed);
            return value;
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    // lint: memoized build, once per key
    let value = Arc::new(build());
    let mut map = shelf().lock().expect("signal cache poisoned");
    if map.len() >= MAX_ENTRIES && !map.contains_key(&key) {
        map.clear();
    }
    let entry = map
        .entry(key)
        .or_insert_with(|| value.clone() as Arc<dyn Any + Send + Sync>);
    // If another thread won the race, adopt its (identical) value so all
    // holders share one allocation.
    entry.clone().downcast::<T>().unwrap_or(value)
}

/// `(hits, misses)` since process start — for tests and diagnostics.
#[must_use]
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Empties the cache (tests use this to measure cold/warm behaviour).
pub fn clear() {
    shelf().lock().expect("signal cache poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_is_a_hit() {
        let a = memoized("test/hit", 0xAA, 1, || vec![1u32, 2, 3]);
        let (_, m0) = stats();
        let b = memoized("test/hit", 0xAA, 1, || vec![9u32, 9, 9]);
        let (_, m1) = stats();
        assert_eq!(a, b, "hit must return the first build");
        assert!(Arc::ptr_eq(&a, &b), "hit must share the allocation");
        assert_eq!(m0, m1, "no miss on the second lookup");
    }

    #[test]
    fn keys_separate_by_domain_seed_and_config() {
        let base = memoized("test/key", 1, 1, || 10u64);
        assert_eq!(*memoized("test/key", 1, 1, || 99u64), 10);
        assert_eq!(*memoized("test/key2", 1, 1, || 20u64), 20);
        assert_eq!(*memoized("test/key", 2, 1, || 30u64), 30);
        assert_eq!(*memoized("test/key", 1, 2, || 40u64), 40);
        assert_eq!(*base, 10);
    }

    #[test]
    fn fingerprint_separates_inputs() {
        assert_ne!(fingerprint(&[1, 2]), fingerprint(&[2, 1]));
        assert_ne!(fingerprint(&[1]), fingerprint(&[1, 0]));
        assert_eq!(fingerprint(&[7, 8]), fingerprint(&[7, 8]));
    }

    #[test]
    fn incremental_matches_slice_fold() {
        let words = [0u64, 1, u64::MAX, 0xDEAD_BEEF, 42];
        let mut h = Fingerprint128::new();
        for &w in &words {
            h.push(w);
        }
        assert_eq!(h.finish(), fingerprint(&words));
        let mut h2 = Fingerprint128::default();
        h2.push_all(&words);
        assert_eq!(h2.finish(), fingerprint(&words));
    }

    #[test]
    fn both_halves_separate_inputs_independently() {
        // The two folds use distinct constants; a difference in the input
        // must show up in each half on its own, not just in the pair.
        let a = fingerprint(&[3, 5, 7]);
        let b = fingerprint(&[3, 5, 8]);
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
        assert!(seen.insert(fingerprint(&base)));
        for word in 0..base.len() {
            for bit in 0..64 {
                let mut p = base.clone();
                p[word] ^= 1u64 << bit;
                assert!(
                    seen.insert(fingerprint(&p)),
                    "collision at word {word} bit {bit}"
                );
            }
        }
        // Length-extension-style perturbations separate too.
        assert!(seen.insert(fingerprint(&base[..base.len() - 1])));
        let mut longer = base.clone();
        longer.push(0);
        assert!(seen.insert(fingerprint(&longer)));
    }

    #[test]
    fn overflow_clears_rather_than_grows() {
        clear();
        for i in 0..(MAX_ENTRIES as u64 + 10) {
            let _ = memoized("test/overflow", i, 0, || i);
        }
        let len = shelf().lock().unwrap().len();
        assert!(len <= MAX_ENTRIES, "cache grew to {len}");
    }

    #[test]
    fn concurrent_cold_lookups_agree() {
        let results: Vec<Arc<Vec<u8>>> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| memoized("test/race", 0xBEEF, 7, || vec![42u8; 1000])))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for r in &results {
            assert_eq!(**r, vec![42u8; 1000]);
        }
    }
}
