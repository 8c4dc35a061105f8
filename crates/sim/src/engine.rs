//! The discrete-event execution loop.
//!
//! [`Engine`] owns the simulated clock and the pending-event set; the caller
//! owns the world state `S`. Events are `FnOnce(&mut S, &mut Engine<S>)`
//! closures, so a handler can mutate the world *and* schedule follow-up
//! events. Execution is strictly ordered by `(time, insertion order)` — see
//! [`crate::queue::EventQueue`] — which makes every run deterministic.
//!
//! # Examples
//!
//! ```
//! use iotse_sim::engine::Engine;
//! use iotse_sim::time::{SimDuration, SimTime};
//!
//! // World state: a counter.
//! let mut hits = 0u32;
//! let mut engine = Engine::new();
//!
//! // A self-rescheduling periodic event.
//! fn tick(hits: &mut u32, engine: &mut Engine<u32>) {
//!     *hits += 1;
//!     if *hits < 5 {
//!         engine.schedule_in(SimDuration::from_millis(10), tick);
//!     }
//! }
//! engine.schedule_at(SimTime::ZERO, tick);
//! engine.run(&mut hits);
//!
//! assert_eq!(hits, 5);
//! assert_eq!(engine.now(), SimTime::from_millis(40));
//! ```

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A scheduled event handler.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Engine<S>)>;

/// A plain-function event handler carrying two integer arguments — the
/// allocation-free fast path for dense periodic schedules (see
/// [`Engine::schedule_call`]).
pub type CallFn<S> = fn(&mut S, &mut Engine<S>, u64, u64);

enum EventBody<S> {
    /// A boxed closure: flexible, one heap allocation per event.
    Boxed(EventFn<S>),
    /// A plain `fn` plus two `u64` payload words: zero allocations. Dense
    /// schedules (the executor's per-tick events) use this so scheduling a
    /// million ticks costs no per-event heap traffic.
    Call { f: CallFn<S>, a: u64, b: u64 },
}

struct Event<S> {
    label: &'static str,
    body: EventBody<S>,
}

impl<S> std::fmt::Debug for Event<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event").field("label", &self.label).finish()
    }
}

/// Why [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The pending-event set drained completely.
    Drained,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// A handler called [`Engine::request_stop`].
    Stopped,
}

/// The discrete-event engine: clock plus pending-event set.
///
/// See the [module documentation](self) for an end-to-end example.
#[derive(Debug)]
pub struct Engine<S> {
    now: SimTime,
    queue: EventQueue<Event<S>>,
    executed: u64,
    stop_requested: bool,
}

impl<S> Engine<S> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            stop_requested: false,
        }
    }

    /// Creates an engine for a run of about `events` events. Nothing is
    /// reserved up front, because neither kind of run needs it: a
    /// generated run holds one pending event however many it yields (see
    /// [`Engine::schedule_call_run`]), and a batch's run is sized from the
    /// batch itself (see [`Engine::schedule_call_batch`]).
    #[must_use]
    pub fn with_capacity(_events: usize) -> Self {
        Self::new()
    }

    /// The current simulated instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    #[must_use]
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Engine::now`] — simulated time
    /// never runs backwards.
    pub fn schedule_at(
        &mut self,
        time: SimTime,
        event: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) {
        self.schedule_labeled(time, "event", event);
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at `time` with a static label that shows up in
    /// `Debug` output; useful when diagnosing stuck scenarios.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Engine::now`].
    pub fn schedule_labeled(
        &mut self,
        time: SimTime,
        label: &'static str,
        event: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) {
        assert!(
            time >= self.now,
            "cannot schedule {label:?} at {time} which is before now ({})",
            self.now
        );
        self.queue.push(
            time,
            Event {
                label,
                body: EventBody::Boxed(Box::new(event)),
            },
        );
    }

    /// Schedules a plain-function event carrying two integer payload words.
    /// Unlike the closure-based `schedule_*` methods this allocates nothing:
    /// the handler and its arguments live inline in the event queue. Hot
    /// schedulers (the executor's tick fan-out) use this.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Engine::now`].
    // iotse-lint: hot-path
    pub fn schedule_call(
        &mut self,
        time: SimTime,
        label: &'static str,
        f: CallFn<S>,
        a: u64,
        b: u64,
    ) {
        assert!(
            time >= self.now,
            "cannot schedule {label:?} at {time} which is before now ({})",
            self.now
        );
        self.queue.push(
            time,
            Event {
                label,
                body: EventBody::Call { f, a, b },
            },
        );
    }

    /// Schedules a whole batch of plain-function events in one call, as
    /// buffered runs of the queue sized from the iterator's size hint
    /// (see [`crate::queue::EventQueue::push_batch`]). The batch may be in
    /// any order; the executor's fault storm goes in this way. Firing
    /// order is identical to calling [`Engine::schedule_call`] once per
    /// `(time, a, b)` tuple in iteration order.
    ///
    /// # Panics
    ///
    /// Panics if any time is earlier than [`Engine::now`].
    // iotse-lint: hot-path
    pub fn schedule_call_batch(
        &mut self,
        label: &'static str,
        f: CallFn<S>,
        calls: impl IntoIterator<Item = (SimTime, u64, u64)>,
    ) {
        let now = self.now;
        self.queue.push_batch(calls.into_iter().map(|(time, a, b)| {
            assert!(
                time >= now,
                "cannot schedule {label:?} at {time} which is before now ({now})"
            );
            (
                time,
                Event {
                    label,
                    body: EventBody::Call { f, a, b },
                },
            )
        }));
    }

    /// Schedules `n` plain-function events as one *generated* run of the
    /// queue (see [`crate::queue::EventQueue::push_run`]): `calls` must
    /// yield exactly `n` `(time, a, b)` tuples in time order, and each is
    /// computed only when the one before it fires. However long the run,
    /// it holds one pending event. The executor schedules every tick of a
    /// sensor group this way. Firing order is identical to
    /// [`Engine::schedule_call_batch`] over the same tuples.
    ///
    /// # Panics
    ///
    /// Panics if a time is earlier than [`Engine::now`] at the call, or
    /// (naming `label`) earlier than the time before it, or if `calls`
    /// yields fewer or more than `n` tuples. Each check runs when its
    /// tuple is computed.
    // iotse-lint: hot-path
    pub fn schedule_call_run<I>(&mut self, label: &'static str, f: CallFn<S>, n: usize, calls: I)
    where
        I: IntoIterator<Item = (SimTime, u64, u64)>,
        I::IntoIter: 'static,
        S: 'static,
    {
        let now = self.now;
        self.queue.push_run(
            label,
            n,
            calls.into_iter().map(move |(time, a, b)| {
                assert!(
                    time >= now,
                    "cannot schedule {label:?} at {time} which is before now ({now})"
                );
                (
                    time,
                    Event {
                        label,
                        body: EventBody::Call { f, a, b },
                    },
                )
            }),
        );
    }

    /// Asks the run loop to stop after the current handler returns. Pending
    /// events are kept, so a later `run*` call resumes where it left off.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// Executes the single earliest pending event, advancing the clock to its
    /// due time. Returns `false` if nothing was pending.
    pub fn step(&mut self, state: &mut S) -> bool {
        let Some(scheduled) = self.queue.pop() else {
            return false;
        };
        debug_assert!(scheduled.time >= self.now);
        self.now = scheduled.time;
        self.executed += 1;
        match scheduled.item.body {
            EventBody::Boxed(run) => run(state, self),
            EventBody::Call { f, a, b } => f(state, self, a, b),
        }
        true
    }

    /// Runs until the pending-event set drains or a handler requests a stop.
    pub fn run(&mut self, state: &mut S) -> RunOutcome {
        self.run_until(state, SimTime::MAX)
    }

    /// Runs until the pending-event set drains, a handler requests a stop, or
    /// the next event would fire strictly after `horizon`. On
    /// [`RunOutcome::HorizonReached`], the clock is advanced to exactly
    /// `horizon` (so time-weighted accounting can close out the interval) and
    /// later events remain pending.
    ///
    /// Same-tick entries are batch-drained: the loop peeks the frontier
    /// time once per tick and then pops with
    /// [`crate::queue::EventQueue::pop_at`] until the tick is exhausted,
    /// so the horizon check runs once per tick, not once per event.
    /// Events a handler schedules *at the current tick* join the same
    /// drain (they get higher seqs, so they fire after everything already
    /// pending at that tick), which is exactly the order the pop-per-event
    /// loop produced.
    // iotse-lint: hot-path
    pub fn run_until(&mut self, state: &mut S, horizon: SimTime) -> RunOutcome {
        self.stop_requested = false;
        loop {
            let t = match self.queue.peek_time() {
                None => return RunOutcome::Drained,
                Some(t) if t > horizon => {
                    if horizon != SimTime::MAX {
                        self.now = self.now.max(horizon);
                    }
                    return RunOutcome::HorizonReached;
                }
                Some(t) => t,
            };
            debug_assert!(t >= self.now);
            self.now = t;
            while let Some(scheduled) = self.queue.pop_at(t) {
                self.executed += 1;
                match scheduled.item.body {
                    EventBody::Boxed(run) => run(state, self),
                    EventBody::Call { f, a, b } => f(state, self, a, b),
                }
                if self.stop_requested {
                    return RunOutcome::Stopped;
                }
            }
        }
    }
}

impl<S> Default for Engine<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_order_and_advance_clock() {
        let mut log: Vec<(u64, &str)> = Vec::new();
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(2), |log: &mut Vec<(u64, &str)>, e| {
            log.push((e.now().as_millis(), "b"));
        });
        engine.schedule_at(SimTime::from_millis(1), |log: &mut Vec<(u64, &str)>, e| {
            log.push((e.now().as_millis(), "a"));
        });
        let outcome = engine.run(&mut log);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(log, vec![(1, "a"), (2, "b")]);
        assert_eq!(engine.events_executed(), 2);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut total = 0u64;
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(1), |total: &mut u64, e| {
            *total += 1;
            e.schedule_in(SimDuration::from_millis(1), |total: &mut u64, _| {
                *total += 10;
            });
        });
        engine.run(&mut total);
        assert_eq!(total, 11);
        assert_eq!(engine.now(), SimTime::from_millis(2));
    }

    #[test]
    fn run_until_leaves_later_events_pending() {
        let mut fired = Vec::new();
        let mut engine = Engine::new();
        for ms in [1u64, 5, 10] {
            engine.schedule_at(SimTime::from_millis(ms), move |fired: &mut Vec<u64>, _| {
                fired.push(ms);
            });
        }
        let outcome = engine.run_until(&mut fired, SimTime::from_millis(6));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(fired, vec![1, 5]);
        assert_eq!(engine.now(), SimTime::from_millis(6));
        assert_eq!(engine.events_pending(), 1);
        // Resuming picks up the rest.
        engine.run(&mut fired);
        assert_eq!(fired, vec![1, 5, 10]);
    }

    #[test]
    fn stop_request_halts_loop_but_keeps_events() {
        let mut count = 0u32;
        let mut engine = Engine::new();
        engine.schedule_at(
            SimTime::from_millis(1),
            |count: &mut u32, e: &mut Engine<u32>| {
                *count += 1;
                e.request_stop();
            },
        );
        engine.schedule_at(SimTime::from_millis(2), |count: &mut u32, _| {
            *count += 1;
        });
        assert_eq!(engine.run(&mut count), RunOutcome::Stopped);
        assert_eq!(count, 1);
        assert_eq!(engine.events_pending(), 1);
        assert_eq!(engine.run(&mut count), RunOutcome::Drained);
        assert_eq!(count, 2);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime::from_millis(5), |_, _| {});
        engine.run(&mut ());
        engine.schedule_at(SimTime::from_millis(1), |_, _| {});
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut order = Vec::new();
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.schedule_at(SimTime::from_millis(3), move |order: &mut Vec<i32>, _| {
                order.push(i);
            });
        }
        engine.run(&mut order);
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn step_on_empty_returns_false() {
        let mut engine: Engine<()> = Engine::new();
        assert!(!engine.step(&mut ()));
    }

    #[test]
    fn scheduled_calls_interleave_with_closures_in_fifo_order() {
        fn push(log: &mut Vec<(u64, u64)>, e: &mut Engine<Vec<(u64, u64)>>, a: u64, b: u64) {
            let now = e.now().as_millis();
            log.push((now * 100 + a, b));
        }
        let mut log: Vec<(u64, u64)> = Vec::new();
        let mut engine = Engine::with_capacity(4);
        engine.schedule_call(SimTime::from_millis(2), "call", push, 1, 10);
        engine.schedule_at(SimTime::from_millis(2), |log: &mut Vec<(u64, u64)>, _| {
            log.push((999, 0));
        });
        engine.schedule_call(SimTime::from_millis(1), "call", push, 2, 20);
        assert_eq!(engine.run(&mut log), RunOutcome::Drained);
        // Time order first, then insertion order at the same instant.
        assert_eq!(log, vec![(102, 20), (201, 10), (999, 0)]);
        assert_eq!(engine.events_executed(), 3);
    }

    #[test]
    fn scheduled_calls_can_schedule_followups() {
        fn tick(count: &mut u64, e: &mut Engine<u64>, n: u64, _: u64) {
            *count += n;
            if n < 4 {
                e.schedule_call(
                    e.now() + SimDuration::from_millis(1),
                    "tick",
                    tick,
                    n + 1,
                    0,
                );
            }
        }
        let mut count = 0u64;
        let mut engine = Engine::new();
        engine.schedule_call(SimTime::ZERO, "tick", tick, 1, 0);
        engine.run(&mut count);
        assert_eq!(count, 1 + 2 + 3 + 4);
    }

    #[test]
    fn batched_calls_match_a_schedule_loop() {
        fn push(log: &mut Vec<u64>, _: &mut Engine<Vec<u64>>, a: u64, _: u64) {
            log.push(a);
        }
        let ticks = |_| (0..20u64).map(|i| (SimTime::from_millis(i % 5), i, 0));
        let mut batched: Vec<u64> = Vec::new();
        let mut engine = Engine::with_capacity(20);
        engine.schedule_call_batch("tick", push, ticks(()));
        engine.run(&mut batched);
        let mut looped: Vec<u64> = Vec::new();
        let mut reference = Engine::with_capacity(20);
        for (t, a, b) in ticks(()) {
            reference.schedule_call(t, "tick", push, a, b);
        }
        reference.run(&mut looped);
        assert_eq!(batched, looped);
        assert_eq!(engine.events_executed(), 20);
    }

    #[test]
    fn generated_runs_fire_like_batches() {
        fn push(log: &mut Vec<(u64, u64)>, e: &mut Engine<Vec<(u64, u64)>>, a: u64, b: u64) {
            log.push((e.now().as_millis(), a * 100 + b));
        }
        // Two groups of ticks tying at every instant, then a closure at a
        // tied instant scheduled after both.
        let group = |g: u64| (0..6u64).map(move |k| (SimTime::from_millis(k / 2), g, k));
        let schedule = |generated: bool| {
            let mut engine = Engine::new();
            for g in 0..2 {
                if generated {
                    engine.schedule_call_run("tick", push, 6, group(g));
                } else {
                    engine.schedule_call_batch("tick", push, group(g));
                }
            }
            engine.schedule_at(SimTime::from_millis(1), |log: &mut Vec<(u64, u64)>, _| {
                log.push((1, 999));
            });
            assert_eq!(engine.events_pending(), 13);
            let mut log = Vec::new();
            assert_eq!(engine.run(&mut log), RunOutcome::Drained);
            log
        };
        let batched = schedule(false);
        assert_eq!(batched[..5], [(0, 0), (0, 1), (0, 100), (0, 101), (1, 2)]);
        assert_eq!(schedule(true), batched);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn generated_run_scheduling_in_the_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime::from_millis(5), |_, _| {});
        engine.run(&mut ());
        engine.schedule_call_run(
            "late",
            |_, _, _, _| {},
            1,
            [(SimTime::from_millis(1), 0u64, 0u64)],
        );
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn batch_scheduling_in_the_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime::from_millis(5), |_, _| {});
        engine.run(&mut ());
        engine.schedule_call_batch(
            "late",
            |_, _, _, _| {},
            [(SimTime::from_millis(1), 0u64, 0u64)],
        );
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_a_call_in_the_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime::from_millis(5), |_, _| {});
        engine.run(&mut ());
        engine.schedule_call(SimTime::from_millis(1), "late", |_, _, _, _| {}, 0, 0);
    }
}
