//! A bounded, thread-safe memo: built values behind one lock.
//!
//! The compute cache (kernel outputs) and the signal cache (synthetic
//! sensor artifacts) are each a `static` [`Memo`]. A lookup holds the lock
//! only to copy a value in or out, and `build` runs outside it. Two callers
//! racing on a cold key may both build; the first insert wins, so every
//! caller gets the one stored value. A new key that arrives at
//! `max_entries` clears the map first, which is cheaper than tracking what
//! to evict. The map is ordered by key, so nothing depends on
//! `RandomState`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Built values keyed by `K`, at most `max_entries` of them.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<BTreeMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    max_entries: usize,
}

/// A point-in-time view of a [`Memo`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran their build.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl<K, V> Memo<K, V> {
    /// An empty memo that keeps at most `max_entries` values.
    #[must_use]
    pub const fn new(max_entries: usize) -> Self {
        Memo {
            map: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            max_entries,
        }
    }

    fn locked(&self) -> MutexGuard<'_, BTreeMap<K, V>> {
        // The lock is never held across a build, so a poisoned map still
        // holds only complete values.
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: Ord, V: Clone> Memo<K, V> {
    /// The value stored under `key`, or the one `build` makes on a miss.
    ///
    /// `build` MUST be a pure function of `key`: a racing caller may store
    /// its own build first, and every caller then gets that one.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.locked().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = build();
        let mut map = self.locked();
        if map.len() >= self.max_entries && !map.contains_key(&key) {
            map.clear();
        }
        map.entry(key).or_insert(value).clone()
    }

    /// Hits and misses since the last [`Memo::reset`], and entries stored.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.locked().len(),
        }
    }

    /// Empties the map and zeroes both counters.
    pub fn reset(&self) {
        self.locked().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, misses: u64, entries: usize) -> MemoStats {
        MemoStats {
            hits,
            misses,
            entries,
        }
    }

    #[test]
    fn second_lookup_reuses_the_first_output() {
        let memo: Memo<u32, String> = Memo::new(4);
        let mut calls = 0;
        let mut build = |text: &str| {
            calls += 1;
            text.to_string()
        };
        assert_eq!(memo.get_or_build(1, || build("first")), "first");
        assert_eq!(memo.stats(), stats(0, 1, 1));
        assert_eq!(memo.get_or_build(1, || build("second")), "first");
        assert_eq!(memo.stats(), stats(1, 1, 1));
        assert_eq!(calls, 1, "a hit must not build");
    }

    #[test]
    fn concurrent_cold_lookups_agree() {
        let memo: Memo<u32, usize> = Memo::new(4);
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<usize> = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let (memo, barrier) = (&memo, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        memo.get_or_build(7, || i)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert!(results.iter().all(|&r| r == results[0]), "{results:?}");
        let s = memo.stats();
        assert_eq!((s.hits + s.misses, s.entries), (8, 1));
        assert_eq!(memo.get_or_build(7, || 99), results[0]);
    }

    #[test]
    fn overflow_clears_rather_than_grows() {
        const MAX: usize = 4;
        let memo: Memo<usize, usize> = Memo::new(MAX);
        for key in 0..3 * MAX {
            assert_eq!(memo.get_or_build(key, || key * 10), key * 10);
            assert!(memo.stats().entries <= MAX, "grew past {MAX}");
        }
        // Keys 8 to 11 are stored. A stored key at the bound is a hit and
        // clears nothing.
        assert_eq!(memo.stats(), stats(0, 12, MAX));
        assert_eq!(memo.get_or_build(9, || 1), 90);
        assert_eq!(memo.stats(), stats(1, 12, MAX));
        // Key 0 went with an earlier clear: it misses, and clears the rest.
        assert_eq!(memo.get_or_build(0, || 1), 1);
        assert_eq!(memo.stats(), stats(1, 13, 1));
    }

    #[test]
    fn reset_zeroes_everything() {
        let memo: Memo<u8, u8> = Memo::new(4);
        memo.get_or_build(1, || 1);
        memo.get_or_build(1, || 1);
        memo.get_or_build(2, || 2);
        assert_eq!(memo.stats(), stats(1, 2, 2));
        memo.reset();
        assert_eq!(memo.stats(), stats(0, 0, 0));
        assert_eq!(memo.get_or_build(1, || 3), 3, "reset forgets the values");
    }
}
