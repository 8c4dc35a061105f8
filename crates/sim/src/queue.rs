//! The pending-event set.
//!
//! [`EventQueue`] orders events by `(time, seq)` where `seq` is a
//! monotonically increasing insertion counter. The counter makes ordering
//! **total and deterministic**: two events scheduled for the same instant
//! fire in the order they were scheduled (FIFO), which is the property
//! every experiment in this workspace relies on for bit-for-bit
//! reproducibility.
//!
//! # Sorted runs
//!
//! The simulator schedules a run as a few streams that are already in
//! time order: the executor schedules every tick of one sensor group as
//! one stream, and an interrupt storm as one more. The queue keeps each
//! stream as a *run* of entries sorted by `(time, seq)`, and merges the
//! runs with a small binary heap that holds the front key of every
//! non-empty run. Popping takes the front of the least run and re-sifts
//! its key, O(log k) for k runs.
//!
//! A run's entries come from one of two sources:
//!
//! * a **buffer**, a FIFO the entries are written into up front. Any
//!   schedule is accepted: a push earlier than the open run's tail opens a
//!   new run. Appending is O(1), and drained runs keep their buffers and
//!   are reused.
//! * a **generator** ([`EventQueue::push_run`]), an iterator of exactly
//!   `n` time-ordered entries whose sequence numbers are reserved up front.
//!   Only the run's head is held; the next entry is computed when the head
//!   pops. A run of a million ticks costs one head and one iterator, not a
//!   million buffered entries, and pops in exactly the order the same
//!   entries pushed as a batch would.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A scheduled entry: a payload due at `time`, with an insertion sequence
/// number used to break ties deterministically.
#[derive(Debug)]
pub struct Scheduled<T> {
    /// When the entry is due.
    pub time: SimTime,
    /// Insertion order, unique per queue.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}

/// One sorted run: buffered entries, or the head of a generated run.
struct Run<T> {
    /// Buffered entries in `(time, seq)` order. Empty while `gen` is set.
    buf: VecDeque<Scheduled<T>>,
    /// The rest of a generated run, head included.
    gen: Option<Generated<T>>,
}

/// A generated run's head and the source of the entries after it.
struct Generated<T> {
    label: &'static str,
    /// The pending entry; the next one takes the sequence number after it.
    head: Scheduled<T>,
    /// One past the last sequence number reserved for the run.
    end_seq: u64,
    source: Box<dyn Iterator<Item = (SimTime, T)>>,
}

impl<T> Run<T> {
    /// `(time, seq)` of the run's first pending entry.
    fn front(&self) -> Option<(SimTime, u64)> {
        match &self.gen {
            Some(g) => Some((g.head.time, g.head.seq)),
            None => self.buf.front().map(|e| (e.time, e.seq)),
        }
    }

    /// Removes the first pending entry; a generated run computes the entry
    /// after it.
    fn pop_front(&mut self) -> Option<Scheduled<T>> {
        let Some(g) = &mut self.gen else {
            return self.buf.pop_front();
        };
        match g.generate() {
            Some(next) => Some(std::mem::replace(&mut g.head, next)),
            None => self.gen.take().map(|g| g.head),
        }
    }
}

impl<T> Generated<T> {
    /// The entry after `head`, or `None` once every reserved sequence
    /// number is spent.
    ///
    /// # Panics
    ///
    /// Panics, naming the run's label, if the source yields fewer or more
    /// entries than were reserved, or an entry earlier than `head`.
    fn generate(&mut self) -> Option<Scheduled<T>> {
        let label = self.label;
        let seq = self.head.seq + 1;
        if seq == self.end_seq {
            assert!(
                self.source.next().is_none(),
                "generated run {label:?} yielded more entries than it reserved"
            );
            return None;
        }
        let Some((time, item)) = self.source.next() else {
            // iotse-lint: allow(IOTSE-E04) a miscounted run is a scheduler bug, like an out-of-order one
            panic!(
                "generated run {label:?} ended {} entries short",
                self.end_seq - seq
            );
        };
        assert!(
            time >= self.head.time,
            "generated run {label:?} went back in time: {time} after {}",
            self.head.time
        );
        Some(Scheduled { time, seq, item })
    }
}

/// A deterministic priority queue of timed events.
///
/// # Examples
///
/// ```
/// use iotse_sim::queue::EventQueue;
/// use iotse_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "late");
/// q.push(SimTime::from_millis(1), "early");
/// q.push(SimTime::from_millis(1), "early-second");
/// assert_eq!(q.pop().map(|s| s.item), Some("early"));
/// assert_eq!(q.pop().map(|s| s.item), Some("early-second"));
/// assert_eq!(q.pop().map(|s| s.item), Some("late"));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<T> {
    /// Runs sorted by `(time, seq)`. An empty run is either the open run
    /// or on `free`.
    runs: Vec<Run<T>>,
    /// `(time, seq, run)` of every non-empty run's front, least on top.
    fronts: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Drained runs, reused before a new one is created.
    free: Vec<usize>,
    /// The run [`EventQueue::push`] appends to while time order allows.
    open: Option<usize>,
    len: usize,
    next_seq: u64,
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("runs", &self.fronts.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            runs: Vec::new(),
            fronts: BinaryHeap::new(),
            free: Vec::new(),
            open: None,
            len: 0,
            next_seq: 0,
        }
    }

    /// A drained run from the free list, else a new one.
    fn free_run(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            // lint: one run per sorted stream, reused once it drains
            let buf = VecDeque::new();
            self.runs.push(Run { buf, gen: None });
            // Room for every run on the free list: pops never allocate.
            self.free.reserve(self.runs.len());
            self.runs.len() - 1
        })
    }

    /// Opens an empty buffered run with room for `capacity` entries and
    /// returns its index: the open run itself if it is empty, else a free
    /// one.
    fn open_run(&mut self, capacity: usize) -> usize {
        let r = match self.open {
            Some(r) if self.runs[r].buf.is_empty() => r,
            _ => self.free_run(),
        };
        self.runs[r].buf.reserve(capacity);
        self.open = Some(r);
        r
    }

    /// Schedules `item` at `time`. Returns the sequence number assigned,
    /// which is unique within this queue and reflects insertion order.
    // iotse-lint: hot-path
    pub fn push(&mut self, time: SimTime, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let r = match self.open {
            Some(r) if self.runs[r].buf.back().is_none_or(|tail| tail.time <= time) => r,
            _ => self.open_run(0),
        };
        let run = &mut self.runs[r].buf;
        if run.is_empty() {
            self.fronts.push(Reverse((time, seq, r)));
        }
        run.push_back(Scheduled { time, seq, item });
        self.len += 1;
        seq
    }

    /// Schedules every `(time, item)` pair of `batch` into a run of its
    /// own, sized up front from the iterator's *upper* size hint when one
    /// is reported (an `ExactSizeIterator` reports `(n, Some(n))`), else
    /// from the lower bound. A batch in time order stays one run; an entry
    /// earlier than its predecessor starts another. Sequence numbers are
    /// assigned in iteration order, so the pop order is exactly that of
    /// calling [`EventQueue::push`] in a loop. Returns the number of
    /// entries pushed.
    pub fn push_batch(&mut self, batch: impl IntoIterator<Item = (SimTime, T)>) -> usize {
        let batch = batch.into_iter();
        let (lo, hi) = batch.size_hint();
        self.open_run(hi.unwrap_or(lo));
        let mut pushed = 0;
        for (time, item) in batch {
            self.push(time, item);
            pushed += 1;
        }
        pushed
    }

    /// Schedules a *generated* run: exactly `n` entries from `entries`, in
    /// time order, computed one at a time. The first entry is computed
    /// now; each later one when its predecessor pops, so the run holds one
    /// pending entry however long it is. Sequence numbers `seq0 .. seq0 +
    /// n` are reserved up front, so the pop order is exactly that of
    /// [`EventQueue::push_batch`] over the same entries. Returns `seq0`.
    ///
    /// # Panics
    ///
    /// Panics, naming `label`, if `entries` yields fewer or more than `n`
    /// entries, or an entry earlier than the one before it. The check on
    /// each entry runs when it is computed.
    pub fn push_run<I>(&mut self, label: &'static str, n: usize, entries: I) -> u64
    where
        I: IntoIterator<Item = (SimTime, T)>,
        I::IntoIter: 'static,
    {
        let seq0 = self.next_seq;
        let end_seq = seq0 + n as u64;
        self.next_seq = end_seq;
        let mut source = entries.into_iter();
        let Some((time, item)) = source.next() else {
            assert!(n == 0, "generated run {label:?} ended {n} entries short");
            return seq0;
        };
        assert!(
            n > 0,
            "generated run {label:?} yielded more entries than it reserved"
        );
        let r = self.free_run();
        self.runs[r].gen = Some(Generated {
            label,
            head: Scheduled {
                time,
                seq: seq0,
                item,
            },
            end_seq,
            // lint: one source per run, not one entry per tick
            source: Box::new(source),
        });
        self.fronts.push(Reverse((time, seq0, r)));
        self.len += n;
        seq0
    }

    /// Removes and returns the earliest entry (FIFO among ties), or `None`
    /// if the queue is empty.
    // iotse-lint: hot-path
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        let mut front = self.fronts.peek_mut()?;
        let Reverse((_, _, r)) = *front;
        let run = &mut self.runs[r];
        let entry = run.pop_front()?;
        match run.front() {
            Some((time, seq)) => *front = Reverse((time, seq, r)),
            None => {
                PeekMut::pop(front);
                if self.open != Some(r) {
                    self.free.push(r);
                }
            }
        }
        self.len -= 1;
        Some(entry)
    }

    /// Removes and returns the earliest entry only if it is due exactly at
    /// `time`. The engine's run loop drains a whole tick this way:
    /// `pop_at(t)` until `None`.
    // iotse-lint: hot-path
    pub fn pop_at(&mut self, time: SimTime) -> Option<Scheduled<T>> {
        if self.peek_time() == Some(time) {
            self.pop()
        } else {
            None
        }
    }

    /// The due time of the earliest entry without removing it.
    // iotse-lint: hot-path
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.fronts.peek().map(|&Reverse((time, _, _))| time)
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of entries ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Discards all pending entries (the sequence counter keeps advancing,
    /// so determinism is unaffected).
    pub fn clear(&mut self) {
        self.runs.clear();
        self.fronts.clear();
        self.free.clear();
        self.open = None;
        self.len = 0;
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop().map(|s| s.item)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), "a");
        q.push(SimTime::from_nanos(1), "b");
        assert_eq!(q.pop().unwrap().item, "b");
        q.push(SimTime::from_nanos(2), "c");
        q.push(SimTime::from_nanos(9), "d");
        assert_eq!(q.pop().unwrap().item, "c");
        assert_eq!(q.pop().unwrap().item, "a");
        assert_eq!(q.pop().unwrap().item, "d");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn batch_push_preserves_seq_order() {
        // A batch push must be indistinguishable from a push loop: ties
        // stay FIFO in iteration order, and interleaving with singleton
        // pushes keeps one monotone sequence.
        let t = SimTime::from_millis(3);
        let time = |i: i32| {
            if i % 2 == 0 {
                t
            } else {
                SimTime::from_millis(1)
            }
        };
        let mut batched = EventQueue::new();
        batched.push(t, -1);
        let pushed = batched.push_batch((0..50).map(|i| (time(i), i)));
        assert_eq!(pushed, 50);
        batched.push(SimTime::from_millis(1), 99);

        let mut looped = EventQueue::new();
        looped.push(t, -1);
        for i in 0..50 {
            looped.push(time(i), i);
        }
        looped.push(SimTime::from_millis(1), 99);

        assert_eq!(batched.scheduled_total(), looped.scheduled_total());
        let drain = |mut q: EventQueue<i32>| -> Vec<(u64, i32)> {
            std::iter::from_fn(|| q.pop().map(|s| (s.seq, s.item))).collect()
        };
        assert_eq!(drain(batched), drain(looped));
    }

    #[test]
    fn a_sorted_batch_is_one_run_sized_from_its_upper_hint() {
        // An iterator with a conservative lower bound but an honest upper
        // bound still sizes its run once, up front.
        struct Hinted {
            produced: u64,
        }
        impl Iterator for Hinted {
            type Item = (SimTime, u64);
            fn next(&mut self) -> Option<Self::Item> {
                if self.produced >= 8 {
                    return None;
                }
                self.produced += 1;
                Some((SimTime::from_nanos(self.produced), self.produced))
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                (0, Some(100))
            }
        }
        let mut q = EventQueue::new();
        assert_eq!(q.push_batch(Hinted { produced: 0 }), 8);
        assert_eq!(q.len(), 8);
        assert_eq!(q.runs.len(), 1);
        assert!(q.runs[0].buf.capacity() >= 100, "upper hint not reserved");
        assert_eq!(drain(&mut q), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn a_non_monotone_batch_splits_into_runs() {
        let mut q = EventQueue::new();
        let times = [1u64, 4, 9, 2, 3, 8, 0, 5];
        q.push_batch(times.iter().map(|&t| (SimTime::from_nanos(t), t)));
        // Each step back in time starts a run: [1 4 9] [2 3 8] [0 5].
        assert_eq!(q.runs.len(), 3);
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4, 5, 8, 9]);
    }

    #[test]
    fn batches_get_their_own_runs_and_ties_across_runs_stay_fifo() {
        let mut q = EventQueue::new();
        let ms = SimTime::from_millis;
        q.push_batch((0..3u64).map(|i| (ms(i), (0, i))));
        q.push_batch((0..3u64).map(|i| (ms(i), (1, i))));
        assert_eq!(q.runs.len(), 2);
        assert_eq!(
            drain(&mut q),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn drained_runs_are_reused() {
        let mut q = EventQueue::new();
        q.push_batch((0..4u64).map(|i| (SimTime::from_nanos(i), i)));
        q.push_batch((0..4u64).map(|i| (SimTime::from_nanos(i), i)));
        assert_eq!(drain(&mut q).len(), 8);
        // The open run extends after draining; the other comes back from
        // the free list for the next batch.
        q.push(SimTime::from_nanos(2), 7);
        q.push_batch([(SimTime::from_nanos(1), 6)]);
        assert_eq!(q.runs.len(), 2);
        assert_eq!(drain(&mut q), vec![6, 7]);
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        // Sequence numbers continue after clear.
        let seq = q.push(SimTime::ZERO, 3);
        assert_eq!(seq, 2);
    }

    #[test]
    fn clear_resets_the_runs_for_reuse() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "later");
        q.push(SimTime::from_nanos(3), "earlier");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|s| s.item), None);
        q.push(SimTime::from_millis(2), "b");
        q.push(SimTime::from_millis(1), "a");
        assert_eq!(drain(&mut q), vec!["a", "b"]);
    }

    #[test]
    fn times_of_every_magnitude_drain_sorted() {
        // Powers of two from 1 ns to past a simulated year, pushed in
        // reverse, then pops interleaved with pushes near the maximum.
        let mut q = EventQueue::new();
        let mut times: Vec<SimTime> = (0..60u32).map(|k| SimTime::from_nanos(1u64 << k)).collect();
        for (i, &t) in times.iter().rev().enumerate() {
            q.push(t, i);
        }
        q.push(SimTime::MAX, 0);
        q.push(SimTime::from_nanos(7), 0);
        times.extend([SimTime::from_nanos(7), SimTime::MAX]);
        times.sort();
        let drained: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|s| s.time)).collect();
        assert_eq!(drained, times);
    }

    #[test]
    #[should_panic(expected = "generated run \"ticks\" went back in time")]
    fn an_out_of_order_generated_run_panics_with_its_label() {
        let mut q = EventQueue::new();
        let times = [5u64, 7, 6];
        q.push_run("ticks", 3, times.map(|t| (SimTime::from_nanos(t), t)));
        // The third entry is computed, and checked, when the second pops.
        while q.pop().is_some() {}
    }

    #[test]
    fn a_generated_run_of_the_wrong_length_panics_with_its_label() {
        let message = |reserved: usize, yielded: u64| {
            let err = std::panic::catch_unwind(move || {
                let mut q = EventQueue::new();
                q.push_run(
                    "gen",
                    reserved,
                    (0..yielded).map(|t| (SimTime::from_nanos(t), t)),
                );
                while q.pop().is_some() {}
            })
            .expect_err("a miscounted run must panic");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        assert_eq!(message(5, 3), "generated run \"gen\" ended 2 entries short");
        assert_eq!(message(2, 0), "generated run \"gen\" ended 2 entries short");
        assert_eq!(
            message(3, 4),
            "generated run \"gen\" yielded more entries than it reserved"
        );
        assert_eq!(
            message(0, 1),
            "generated run \"gen\" yielded more entries than it reserved"
        );
    }

    #[test]
    fn a_generated_run_of_a_trillion_ticks_holds_one_entry() {
        // Buffered, 10^12 entries would need terabytes; generated, the run
        // is one head and one iterator, and popping computes each next
        // entry in place of the head without touching a buffer.
        const TICKS: usize = 1_000_000_000_000;
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(2), u64::MAX);
        let seq0 = q.push_run(
            "ticks",
            TICKS,
            (0..TICKS as u64).map(|k| (SimTime::from_nanos(k), k)),
        );
        assert_eq!(seq0, 1);
        assert_eq!(q.len(), TICKS + 1);
        assert_eq!(q.scheduled_total(), 1 + TICKS as u64);
        let firsts: Vec<(u64, u64)> = (0..5)
            .map(|_| q.pop().map(|s| (s.time.as_nanos(), s.item)).unwrap())
            .collect();
        // The buffered entry ties with tick 2 and was scheduled first.
        assert_eq!(firsts, [(0, 0), (1, 1), (2, u64::MAX), (2, 2), (3, 3)]);
        for k in 4..1_000u64 {
            let s = q.pop().unwrap();
            assert_eq!((s.time.as_nanos(), s.seq, s.item), (k, k + 1, k));
        }
        let generated = q.runs.iter().find(|r| r.gen.is_some()).unwrap();
        assert_eq!(generated.buf.capacity(), 0, "a generated run buffered");
        assert_eq!(q.len(), TICKS - 1_000);
    }

    #[test]
    fn pop_at_only_matches_the_due_head() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(4);
        q.push(t, 1);
        q.push(t, 2);
        q.push(SimTime::from_millis(9), 3);
        assert_eq!(q.pop_at(SimTime::from_millis(1)), None);
        assert_eq!(q.pop_at(t).map(|s| s.item), Some(1));
        assert_eq!(q.pop_at(t).map(|s| s.item), Some(2));
        assert_eq!(q.pop_at(t), None);
        assert_eq!(q.pop_at(SimTime::from_millis(9)).map(|s| s.item), Some(3));
        assert!(q.is_empty());
    }
}
