//! A counting `GlobalAlloc` wrapper around the system allocator, with a
//! live-bytes count and a resettable high-water mark.
//!
//! The `workloads` binary installs [`CountingAlloc`] as its global
//! allocator; the library only keeps the counters, so tests and other
//! binaries that do not install it simply read zeros.
//!
//! Allocation count and bytes requested follow the repository's `bench`
//! suite: a `realloc` is one more allocation of its full new size. Live
//! bytes go down on `dealloc` and move by new minus old size on `realloc`,
//! and the peak is the largest live total since the last
//! [`Counters::reset_peak`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The four allocator counters. Relaxed atomics: each is a statistic that
/// publishes no other data.
#[derive(Debug)]
pub struct Counters {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl Counters {
    /// All counters at zero.
    #[must_use]
    pub const fn new() -> Counters {
        Counters {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn grow(&self, by: u64) {
        let live = self.live.fetch_add(by, Ordering::Relaxed).wrapping_add(by);
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Records an allocation of `size` bytes.
    pub fn on_alloc(&self, size: u64) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
        self.grow(size);
    }

    /// Records a free of `size` bytes.
    pub fn on_dealloc(&self, size: u64) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }

    /// Records a reallocation from `old` to `new` bytes.
    pub fn on_realloc(&self, old: u64, new: u64) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(new, Ordering::Relaxed);
        if new >= old {
            self.grow(new - old);
        } else {
            self.live.fetch_sub(old - new, Ordering::Relaxed);
        }
    }

    /// Cumulative `(allocations, bytes requested)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    /// Bytes currently allocated.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark at the current live total and returns
    /// that total.
    pub fn reset_peak(&self) -> u64 {
        let live = self.live();
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    /// The largest live total since the last [`Counters::reset_peak`].
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

impl Default for Counters {
    fn default() -> Self {
        Counters::new()
    }
}

/// The process-wide counters [`CountingAlloc`] updates.
pub static COUNTERS: Counters = Counters::new();

/// The allocator: counts into [`COUNTERS`], then delegates to [`System`].
#[derive(Debug)]
pub struct CountingAlloc;

fn size(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

// SAFETY: every method delegates to `System` with unchanged arguments; the
// counter updates are lock-free atomics, safe in any allocation context.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTERS.on_alloc(size(layout.size()));
        // SAFETY: the caller's contract for `alloc` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTERS.on_alloc(size(layout.size()));
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTERS.on_realloc(size(layout.size()), size(new_size));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTERS.on_dealloc(size(layout.size()));
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::Counters;

    // Each test owns its counters, so the harness's other threads cannot
    // disturb the exact values.

    #[test]
    fn peak_tracks_the_high_water_mark_across_frees() {
        let c = Counters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        c.on_dealloc(100);
        c.on_alloc(20);
        assert_eq!(c.live(), 70);
        assert_eq!(c.peak(), 150);
        assert_eq!(c.snapshot(), (3, 170));
    }

    #[test]
    fn reset_restarts_the_peak_at_the_live_total() {
        let c = Counters::new();
        c.on_alloc(1_000);
        c.on_dealloc(600);
        assert_eq!(c.reset_peak(), 400);
        assert_eq!(c.peak(), 400);
        c.on_alloc(10);
        assert_eq!(c.peak(), 410);
    }

    #[test]
    fn realloc_moves_live_bytes_by_new_minus_old() {
        let c = Counters::new();
        c.on_alloc(64);
        c.on_realloc(64, 256);
        assert_eq!((c.live(), c.peak()), (256, 256));
        c.on_realloc(256, 32);
        assert_eq!((c.live(), c.peak()), (32, 256));
        // Like the suite's counter, a realloc is one more allocation of its
        // full new size.
        assert_eq!(c.snapshot(), (3, 64 + 256 + 32));
        c.on_dealloc(32);
        assert_eq!(c.live(), 0);
    }
}
