//! Measuring layers from outside: the kernel-timing decorator, and replays
//! that estimate what the sensor and event-queue layers cost inside a run.
//!
//! The decorator sits between the executor and each app, so it times the
//! apps layer in the run itself. The sensor and queue layers cannot be
//! reached from outside `Scenario::run`, so they are replayed after it on
//! the same inputs: the same world, read at the same nominal instants, and
//! an engine given the same tick schedule and a no-op handler. Replays are
//! estimates, and the report says so.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use iotse_apps::catalog;
use iotse_core::{
    AppId, AppOutput, ResourceProfile, Scenario, Scheme, SensorUsage, WindowData, Workload,
};
use iotse_sensors::spec::SensorId;
use iotse_sensors::world::{PhysicalWorld, WorldConfig};
use iotse_sim::engine::Engine;
use iotse_sim::rng::SeedTree;
use iotse_sim::time::{SimDuration, SimTime};

use crate::clock::now_ns;
use crate::spans::{Decorator, Tracer};

/// Kernel calls and the host time they took.
#[derive(Debug, Default)]
pub struct KernelClock {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl KernelClock {
    fn add_kernel_ns(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// `(calls, nanoseconds)` so far.
    #[must_use]
    pub fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// Times `compute` and forwards every other `Workload` method unchanged,
/// including the compute-cache opt-in, so a decorated run is the same run.
pub struct Timed {
    inner: Box<dyn Workload>,
    clock: Arc<KernelClock>,
}

impl Timed {
    /// Wraps `inner`, charging its kernel time to `clock`.
    #[must_use]
    pub fn new(inner: Box<dyn Workload>, clock: Arc<KernelClock>) -> Timed {
        Timed { inner, clock }
    }
}

impl Workload for Timed {
    fn id(&self) -> AppId {
        self.inner.id()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn window(&self) -> SimDuration {
        self.inner.window()
    }
    fn sensors(&self) -> Vec<SensorUsage> {
        self.inner.sensors()
    }
    fn resources(&self) -> ResourceProfile {
        self.inner.resources()
    }
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let start = now_ns();
        let out = self.inner.compute(data);
        self.clock.add_kernel_ns(now_ns() - start);
        out
    }
    fn memoizable(&self) -> bool {
        self.inner.memoizable()
    }
    fn memo_salt(&self) -> u128 {
        self.inner.memo_salt()
    }
}

/// A scenario the benchmark builds itself, described well enough to build
/// it again for a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDesc {
    /// The scheme.
    pub scheme: Scheme,
    /// The apps, run together.
    pub apps: &'static [AppId],
    /// 1-second windows.
    pub windows: u32,
    /// The scenario seed.
    pub seed: u64,
    /// Whether the committed demo fault scripts are injected.
    pub demo_faults: bool,
}

impl RunDesc {
    /// The scenario, each app passed through `decorator`.
    #[must_use]
    pub fn scenario(&self, decorator: &Decorator) -> Scenario {
        let apps = catalog::apps(self.apps, self.seed)
            .into_iter()
            .map(|a| decorator.wrap(a))
            .collect();
        let scenario = Scenario::new(self.scheme, apps)
            .windows(self.windows)
            .seed(self.seed);
        if self.demo_faults {
            scenario.faults(iotse_core::robustness::demo_scripts())
        } else {
            scenario
        }
    }

    /// The run's tick streams as the executor builds them.
    fn tick_plan(&self) -> TickPlan {
        let apps = catalog::apps(self.apps, self.seed);
        let window = apps
            .iter()
            .map(|a| a.window())
            .max()
            .unwrap_or(SimDuration::from_secs(1));
        let mut sensors: Vec<(SensorId, u32)> = Vec::new();
        for usage in apps.iter().flat_map(|a| a.sensors()) {
            let key = (usage.sensor, usage.samples_per_window);
            if !(self.scheme.shares_sensors() && sensors.contains(&key)) {
                sensors.push(key);
            }
        }
        TickPlan {
            window,
            windows: self.windows,
            sensors,
        }
    }
}

/// A run's tick streams: one per app sensor usage, `(sensor, samples per
/// window)`, with BEAM merging same-rate reads of one sensor.
struct TickPlan {
    window: SimDuration,
    windows: u32,
    sensors: Vec<(SensorId, u32)>,
}

impl TickPlan {
    /// The nominal tick instants of stream `s`, with their window index.
    fn ticks(&self, s: usize) -> impl Iterator<Item = (SimTime, u32)> {
        let (window, per_window) = (self.window, self.sensors[s].1);
        let interval = window / u64::from(per_window);
        (0..self.windows).flat_map(move |w| {
            (0..per_window).map(move |i| {
                let t = SimTime::ZERO + window * u64::from(w) + interval * u64::from(i);
                (t, w)
            })
        })
    }

    /// Every tick of the run as `(instant, stream)`, in the order the
    /// engine fires them: by instant, then by stream.
    fn firing_order(&self) -> Vec<(SimTime, usize)> {
        let mut all: Vec<(SimTime, usize)> = (0..self.sensors.len())
            .flat_map(|s| self.ticks(s).map(move |(t, _)| (t, s)))
            .collect();
        all.sort_unstable();
        all
    }
}

/// Replays the run's sensor layer inside a `replay.sensors` span: builds
/// its `PhysicalWorld` and reads every sensor at every nominal sample
/// instant, in firing order. Returns the reads made.
pub fn replay_sensors(desc: &RunDesc, tr: &mut Tracer) -> u64 {
    let plan = desc.tick_plan();
    let ticks = plan.firing_order();
    let horizon = SimTime::ZERO + plan.window * u64::from(desc.windows) + SimDuration::from_secs(2);
    let mut config = WorldConfig::default();
    config.horizon = config.horizon.max(horizon);
    tr.open("replay.sensors");
    let mut world = PhysicalWorld::new(&SeedTree::new(desc.seed), config);
    let mut reads = 0;
    for &(t, s) in &ticks {
        if std::hint::black_box(world.read(plan.sensors[s].0, t)).is_ok() {
            reads += 1;
        }
    }
    tr.close();
    reads
}

fn no_op(_: &mut (), _: &mut Engine<()>, _: u64, _: u64) {}

/// Replays the run's event-queue layer inside a `replay.queue` span: an
/// engine sized for the run, every tick scheduled in one batch per stream,
/// then drained through a handler that does nothing. Returns the events
/// fired.
pub fn replay_queue(desc: &RunDesc, tr: &mut Tracer) -> u64 {
    let plan = desc.tick_plan();
    let capacity = plan
        .sensors
        .iter()
        .map(|&(_, per_window)| per_window as usize * desc.windows as usize)
        .sum();
    tr.open("replay.queue");
    let mut engine: Engine<()> = Engine::with_capacity(capacity);
    for s in 0..plan.sensors.len() {
        engine.schedule_call_batch(
            "tick",
            no_op,
            plan.ticks(s).map(|(t, w)| (t, s as u64, u64::from(w))),
        );
    }
    engine.run(&mut ());
    tr.close();
    engine.events_executed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(scheme: Scheme) -> RunDesc {
        RunDesc {
            scheme,
            apps: &[AppId::A2, AppId::A7],
            windows: 2,
            seed: 42,
            demo_faults: false,
        }
    }

    #[test]
    fn beam_merges_the_shared_accelerometer_stream() {
        assert_eq!(desc(Scheme::Baseline).tick_plan().sensors.len(), 2);
        assert_eq!(desc(Scheme::Beam).tick_plan().sensors.len(), 1);
    }

    #[test]
    fn replays_do_the_runs_read_and_event_counts() {
        for scheme in Scheme::ALL {
            let d = desc(scheme);
            let run = d.scenario(&Tracer::disabled().decorator()).run();
            let mut tr = Tracer::disabled();
            assert_eq!(replay_sensors(&d, &mut tr), run.sensor_reads);
            assert_eq!(replay_queue(&d, &mut tr), run.sensor_reads);
        }
    }
}
