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
//! fingerprint ([`iotse_sim::hash::fingerprint128`]) folds every
//! configuration field that influences generation. Two scenarios therefore
//! share an entry **iff** they would generate byte-identical artifacts —
//! caching can never change a result, only skip regenerating it. The shelf
//! is a [`Memo`] (builds outside the lock, first insert wins, cleared past
//! [`MAX_ENTRIES`]).

use std::any::Any;
use std::sync::Arc;

use iotse_sim::memo::Memo;

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

static SHELF: Memo<CacheKey, Arc<dyn Any + Send + Sync>> = Memo::new(MAX_ENTRIES);

/// Returns the cached artifact for `(domain, seed, config)`, building it
/// with `build` on a miss.
///
/// `build` MUST be a pure function of the key — same key, same bytes —
/// which holds for every signal generator because their RNG streams are
/// fully determined by the derived seed.
///
/// # Panics
///
/// Panics if `domain` was memoized with another type `T`: each domain
/// names one artifact type.
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
    SHELF
        // lint: memoized build, once per key
        .get_or_build(key, || Arc::new(build()))
        .downcast::<T>()
        .expect("each signal-cache domain stores one type")
}

/// `(hits, misses)` since the last [`clear`] — for tests and diagnostics.
#[must_use]
pub fn stats() -> (u64, u64) {
    let s = SHELF.stats();
    (s.hits, s.misses)
}

/// Empties the cache and zeroes its counters (tests and benches use this
/// to measure cold/warm behaviour).
pub fn clear() {
    SHELF.reset();
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
    #[should_panic(expected = "each signal-cache domain stores one type")]
    fn a_domain_stores_one_type() {
        let _ = memoized("test/type", 1, 1, || 10u64);
        let _ = memoized("test/type", 1, 1, || 10u32);
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
