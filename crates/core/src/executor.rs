//! The scenario executor.
//!
//! A [`Scenario`] is a set of workloads, a [`Scheme`], and a number of
//! 1-second windows. Running it replays the paper's measurement procedure in
//! simulation: the engine orders every sensor tick; the MCU and CPU accounts
//! serialize their tasks and charge every joule to a `(device, routine)`
//! ledger cell; the real app kernels run over the collected samples; and the
//! whole thing folds into a [`RunResult`] — one column of one paper figure.
//!
//! Each of the paper's four sub-tasks is one `Exec` function with one span:
//! `collect_sample`, `interrupt`, `transfer` and `compute`. A scheme only
//! picks each app's [`AppFlow`] and the tick grouping.
#![warn(clippy::too_many_lines)]

use std::collections::BTreeMap;

use iotse_energy::attribution::{Device, EnergyLedger, Routine};
use iotse_energy::stacks::exact_residual;
use iotse_sensors::faults::{apply as apply_sample_fault, SampleFault};
use iotse_sensors::reading::{SampleValue, SensorSample};
use iotse_sensors::spec::SensorId;
use iotse_sensors::world::{PhysicalWorld, WorldConfig};
use iotse_sim::engine::Engine;
use iotse_sim::faults::{FaultKind, FaultPlan, FaultScript, SensorDisposition};
use iotse_sim::hash::Fingerprint128;
use iotse_sim::rng::SeedTree;
use iotse_sim::time::{SimDuration, SimTime};
use iotse_sim::trace::{FieldValue, Label, SpanId, TraceKind, TraceLog};

use crate::admission::classify;
use crate::calibration::Calibration;
use crate::cpu::{CpuAccount, GapPolicy, SleepPolicy};
use crate::mcu::McuAccount;
use crate::result::{AppFlow, AppRunReport, RoutineDurations, RunResult, WindowOutcome};
use crate::scheme::Scheme;
use crate::telemetry::{TelemetryConfig, TelemetryState};
use crate::workload::{AppOutput, WindowData, Workload};

/// Maximum Task-I retry attempts before a sample is recorded as lost.
const MAX_READ_RETRIES: u32 = 10;

/// A configured experiment, ready to run.
///
/// # Examples
///
/// ```no_run
/// use iotse_core::executor::Scenario;
/// use iotse_core::scheme::Scheme;
///
/// // Workload implementations live in `iotse-apps`.
/// let apps: Vec<Box<dyn iotse_core::workload::Workload>> = vec![];
/// let result = Scenario::new(Scheme::Baseline, apps).windows(5).seed(7).run();
/// println!("total: {}", result.total_energy());
/// ```
pub struct Scenario {
    apps: Vec<Box<dyn Workload>>,
    scheme: Scheme,
    windows: u32,
    seed: u64,
    world: WorldConfig,
    cal: Calibration,
    record_timeline: bool,
    trace: bool,
    telemetry: Option<TelemetryConfig>,
    compute_cache: bool,
    faults: Vec<FaultScript>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("scheme", &self.scheme)
            .field("apps", &self.apps.len())
            .field("windows", &self.windows)
            .field("seed", &self.seed)
            .field("faults", &self.faults.len())
            .finish()
    }
}

impl Scenario {
    /// Creates a scenario with the default 5 windows, seed 42, paper
    /// calibration and default world.
    #[must_use]
    pub fn new(scheme: Scheme, apps: Vec<Box<dyn Workload>>) -> Self {
        Scenario {
            apps,
            scheme,
            windows: 5,
            seed: 42,
            world: WorldConfig::default(),
            cal: Calibration::paper(),
            record_timeline: false,
            trace: false,
            telemetry: None,
            compute_cache: true,
            faults: Vec::new(),
        }
    }

    /// An idle-hub scenario (the right bar of Figure 1): no apps, both
    /// devices asleep for `duration`.
    #[must_use]
    pub fn idle(duration: SimDuration) -> Self {
        let windows = (duration.as_millis() / 1000).max(1) as u32;
        Scenario::new(Scheme::Baseline, Vec::new()).windows(windows)
    }

    /// Sets the number of 1-second windows to simulate.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero.
    #[must_use]
    pub fn windows(mut self, windows: u32) -> Self {
        assert!(windows > 0, "a scenario needs at least one window");
        self.windows = windows;
        self
    }

    /// Sets the experiment seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the world configuration.
    #[must_use]
    pub fn world(mut self, world: WorldConfig) -> Self {
        self.world = world;
        self
    }

    /// Replaces the platform calibration.
    #[must_use]
    pub fn calibration(mut self, cal: Calibration) -> Self {
        self.cal = cal;
        self
    }

    /// Records CPU/MCU phase timelines (Figure 5).
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Records a structured execution trace.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Records windowed telemetry (per-routine energy stacks and
    /// streaming drift detectors) with the default
    /// [`TelemetryConfig`]. Off by default, and off means off: a run
    /// without telemetry is bitwise identical to one on a build without
    /// the telemetry layer.
    #[must_use]
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = Some(TelemetryConfig::default());
        self
    }

    /// Records windowed telemetry with explicit tuning (implies
    /// [`Scenario::with_telemetry`]).
    #[must_use]
    pub fn telemetry_config(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Injects scripted faults (see [`iotse_sim::faults`]). An empty list
    /// is the default and compiles no plan at all: a faults-off run draws
    /// no extra random numbers, schedules no extra events and is bitwise
    /// identical to a run on a build without the fault layer.
    #[must_use]
    pub fn faults(mut self, scripts: Vec<FaultScript>) -> Self {
        self.faults = scripts;
        self
    }

    /// Adds one fault script (may be chained).
    #[must_use]
    pub fn fault(mut self, script: FaultScript) -> Self {
        self.faults.push(script);
        self
    }

    /// Disables the cross-scheme compute cache (on by default), forcing
    /// every kernel to run even when a memoized output exists. Results are
    /// bitwise identical either way — the cache only skips recomputing pure
    /// kernels (see [`crate::compute_cache`]) — so this exists for A/B
    /// benchmarks and the determinism suite that proves that claim.
    #[must_use]
    pub fn without_compute_cache(mut self) -> Self {
        self.compute_cache = false;
        self
    }

    /// A 128-bit key for this scenario's [`RunResult`], so a run memo can
    /// run each distinct scenario once and replay its result.
    ///
    /// `None` unless the scenario is plain: the default world, the paper
    /// calibration, no fault scripts, no timeline, trace or telemetry
    /// recording, and every app with a
    /// [`Workload::fingerprint`]. A plain scenario's key folds the scheme,
    /// window count, seed, compute-cache flag and the apps' fingerprints in
    /// order. Every field is named below, so a new field does not compile
    /// until it is either folded or ruled out.
    #[must_use]
    pub fn fingerprint(&self) -> Option<u128> {
        let Scenario {
            apps,
            scheme,
            windows,
            seed,
            world,
            cal,
            record_timeline,
            trace,
            telemetry,
            compute_cache,
            faults,
        } = self;
        let recording = *record_timeline || *trace || telemetry.is_some();
        if recording
            || !faults.is_empty()
            || *world != WorldConfig::default()
            || *cal != Calibration::paper()
        {
            return None;
        }
        let mut h = Fingerprint128::new();
        h.push_all(&[
            *scheme as u64,
            u64::from(*windows),
            *seed,
            u64::from(*compute_cache),
            apps.len() as u64,
        ]);
        for app in apps {
            let app = app.fingerprint()?;
            h.push_all(&[app as u64, (app >> 64) as u64]);
        }
        Some(h.finish())
    }

    /// Runs the scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics if a workload requests a sampling rate above its sensor's
    /// Table I maximum, periodic sampling from an on-demand sensor, or the
    /// high-res image variant [`SensorId::S10Hi`], which has no frame model
    /// of its own (the world would read it from S10's low-res camera); or
    /// if the [`Calibration`] is internally inconsistent.
    #[must_use]
    pub fn run(self) -> RunResult {
        let (scheme, seed, windows) = (self.scheme, self.seed, self.windows);
        let mut exec = Exec::new(self);
        let mut engine = exec.schedule(windows);
        // The root span covers the whole run; every tick nests under it.
        let root = exec
            .trace
            .enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_core_run");
        engine.run(&mut exec);
        let end = exec.close_books(root);
        exec.into_result(scheme, seed, end, engine.events_executed())
    }
}

/// The flow a scheme gives one app. COM and BCOM offload a light app if
/// its heap and stack fit the MCU memory still free (reserved greedily,
/// in app order: §III-B's "fits in the MCU's capabilities"); every other
/// app runs per-sample (Baseline, BEAM, COM) or batched (Batching, BCOM).
fn assign_flow(
    scheme: Scheme,
    app: &dyn Workload,
    cal: &Calibration,
    mcu: &mut McuAccount,
) -> AppFlow {
    let light = classify(app, cal).is_light();
    let offloads = matches!(scheme, Scheme::Com | Scheme::Bcom);
    if offloads && light && mcu.reserve_memory(app.resources().memory_bytes()).is_ok() {
        return AppFlow::Offloaded;
    }
    match scheme {
        Scheme::Baseline | Scheme::Beam | Scheme::Com => AppFlow::PerSample,
        Scheme::Batching | Scheme::Bcom => AppFlow::Batched,
    }
}

/// The CPU's sleep policy (Figure 5): any per-sample app keeps the CPU in
/// its blocking-poll loop — "in Baseline, the CPU is in active mode all
/// the time"; Batching lets it light-sleep between flushes; with no data
/// path armed at all (pure COM, idle hub) it can sleep deeply.
fn gap_policy(flows: &[AppFlow]) -> GapPolicy {
    let idle = flows.is_empty();
    let all_offloaded = !idle && flows.iter().all(|&f| f == AppFlow::Offloaded);
    GapPolicy {
        sleep: if idle || all_offloaded {
            SleepPolicy::Deep
        } else if flows.contains(&AppFlow::PerSample) {
            SleepPolicy::Never
        } else {
            SleepPolicy::Light
        },
        gap_routine: if idle {
            Routine::Idle
        } else if all_offloaded {
            Routine::AppCompute
        } else {
            Routine::DataTransfer
        },
    }
}

fn validate_rates(app: &dyn Workload) {
    for u in app.sensors() {
        assert!(
            SensorId::ALL.contains(&u.sensor),
            "{} samples {}, which has no hi-res frame model",
            app.name(),
            u.sensor
        );
        let spec = iotse_sensors::catalog::spec(u.sensor);
        let rate = f64::from(u.samples_per_window) / app.window().as_secs_f64();
        match spec.max_rate_hz {
            Some(max) => assert!(
                rate <= max,
                "{} samples {} at {rate} Hz above Table I max {max} Hz",
                app.name(),
                u.sensor
            ),
            None => assert!(
                u.samples_per_window == 1,
                "{} requests periodic sampling from on-demand sensor {}",
                app.name(),
                u.sensor
            ),
        }
    }
}

/// The tick entry point, as a plain `fn` so the engine can store it
/// without boxing (see `EventBody::Call`).
// iotse-lint: hot-path
fn tick_trampoline(exec: &mut Exec, eng: &mut Engine<Exec>, group_idx: u64, window: u64) {
    exec.on_tick(eng.now(), group_idx as usize, window as u32);
}

/// The interrupt-storm entry point: a spurious interrupt paid for like a
/// real one (MCU raise + CPU handling, including any sleep transitions).
/// Only scheduled when an interrupt-storm script exists.
fn storm_trampoline(exec: &mut Exec, eng: &mut Engine<Exec>, _a: u64, _b: u64) {
    let now = eng.now();
    let handled = exec.interrupt(now);
    exec.trace.record(
        handled,
        TraceKind::Interrupt,
        "mcu",
        "fault: spurious interrupt",
    );
    if let Some(plan) = &mut exec.faults {
        plan.note_storm_interrupt();
    }
}

/// A tick stream: one sensor sampled at one rate on behalf of one or more
/// apps (more than one only under BEAM).
#[derive(Debug, Clone)]
struct Group {
    sensor: SensorId,
    samples_per_window: u32,
    bytes_per_sample: usize,
    members: Vec<usize>,
    /// The sensor's display name, interned once at scenario setup when
    /// tracing is live (`None` otherwise) — ticks never re-format it.
    sensor_label: Option<Label>,
}

fn build_groups(apps: &[AppRt], scheme: Scheme) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for (ai, rt) in apps.iter().enumerate() {
        for u in &rt.usages {
            if scheme.shares_sensors() {
                // BEAM shares a sensor when apps sample it at the same
                // rate; one read serves all framings, so the shared
                // transfer carries the largest per-sample payload.
                if let Some(g) = groups
                    .iter_mut()
                    .find(|g| (g.sensor, g.samples_per_window) == (u.sensor, u.samples_per_window))
                {
                    g.members.push(ai);
                    g.bytes_per_sample = g.bytes_per_sample.max(u.sample_bytes());
                    continue;
                }
            }
            groups.push(Group {
                sensor: u.sensor,
                samples_per_window: u.samples_per_window,
                bytes_per_sample: u.sample_bytes(),
                members: vec![ai],
                sensor_label: None,
            });
        }
    }
    groups
}

/// A span name's slot in [`SiteLabels`].
#[derive(Default)]
struct SpanSlot(Option<Label>);

impl SpanSlot {
    /// The label of span name `name`, interned into `trace` the first time.
    /// IOTSE-M09 checks every literal passed here.
    fn span_label(&mut self, trace: &mut TraceLog, name: &str) -> Label {
        trace.intern_once(&mut self.0, name)
    }
}

/// The labels of the fixed strings that ticks and windows record: span
/// names, event sources, field names and the sensor fault messages. Each
/// slot is filled the first time its string is recorded, so every label
/// keeps the number that interning at each call gave it, and the hot path
/// makes no intern lookup after that. An untraced run never fills a slot.
#[derive(Default)]
struct SiteLabels {
    tick: SpanSlot,
    collect: SpanSlot,
    interrupt: SpanSlot,
    transfer: SpanSlot,
    compute: SpanSlot,
    flush: SpanSlot,
    mcu: Option<Label>,
    link: Option<Label>,
    batching: Option<Label>,
    com: Option<Label>,
    exec: Option<Label>,
    sensor: Option<Label>,
    window: Option<Label>,
    bytes: Option<Label>,
    flushed_bytes: Option<Label>,
    forced_flush_bytes: Option<Label>,
    offloaded_bytes: Option<Label>,
    result: Option<Label>,
    deadline: Option<Label>,
    /// Each sensor's dropout message, by [`SensorId::slot`].
    dropout: [Option<Label>; 10],
    /// Each sensor's not-ready message, by [`SensorId::slot`].
    not_ready: [Option<Label>; 10],
}

/// What a run's recorders are expected to hold, estimated from its tick
/// schedule (windows × samples per window, per group) and its fault
/// scripts, so that [`Exec::new`] reserves the trace and the CPU/MCU
/// timelines once instead of letting them regrow. Random faults are
/// counted at their expected rate, so an unlucky run may still regrow an
/// array once; [`Exec::into_result`] trims the slack either way.
struct RecordingSize {
    spans: usize,
    events: usize,
    fields: usize,
    cpu_segments: usize,
    mcu_segments: usize,
}

impl RecordingSize {
    fn of(groups: &[Group], apps: &[AppRt], windows: u32) -> RecordingSize {
        // Each app window completes with at most a flush, an interrupt, a
        // transfer and a compute span, four events (interrupt, transfer,
        // `batching` or `com`, QoS), six fields and about four phase
        // changes on each processor; the run adds its root and close spans.
        let app_windows = apps.len() * windows as usize;
        let mut size = RecordingSize {
            spans: 2 + 4 * app_windows,
            events: 4 * app_windows,
            fields: 6 * app_windows,
            cpu_segments: 4 * app_windows,
            mcu_segments: 4 * app_windows,
        };
        let per_sample = |g: &Group| apps[g.members[0]].flow == AppFlow::PerSample;
        let window = |g: &Group| apps[g.members[0]].window_len;
        for g in groups {
            let ticks = windows as usize * g.samples_per_window as usize;
            // Every tick records its tick and collect spans, the read event
            // and four fields (the tick's sensor and window, the read's
            // sensor and bytes). A per-sample tick adds an interrupt and a
            // transfer span, their two events and two `bytes` fields, and
            // moves the CPU through two phases (busy, then the gap); a
            // buffered or offloaded tick moves only the MCU, about once.
            if !per_sample(g) {
                size.spans += 2 * ticks;
                size.events += ticks;
                size.fields += 4 * ticks;
                size.mcu_segments += ticks;
                continue;
            }
            size.spans += 4 * ticks;
            size.events += 3 * ticks;
            size.fields += 6 * ticks;
            size.cpu_segments += 2 * ticks;
            // The MCU reads and raises, waits while the CPU handles the
            // interrupt, transfers, then idles or sleeps to the next tick:
            // four phases. The ticks of `k` per-sample groups on one grid
            // run back to back and share the last gap, `2k + 2` phases per
            // instant. A BEAM group shared by several apps ticks once.
            let k = groups
                .iter()
                .filter(|h| {
                    per_sample(h)
                        && window(h) == window(g)
                        && h.samples_per_window == g.samples_per_window
                })
                .count();
            size.mcu_segments += 2 * ticks + (2 * ticks).div_ceil(k);
        }
        size
    }

    /// Adds the fault records: each of the `storm_interrupts` spurious
    /// interrupts records a span, two events (the interrupt and its fault
    /// message), the message field and about two phases on each processor;
    /// each failed read attempt records a message event and its field.
    /// A dropped sample fails every attempt, and a not-ready check fails
    /// `q + q² + …` attempts on average, at the script's rate over the part
    /// of its window inside the run. The reservation is that mean `F` plus
    /// three standard deviations: no read fails more than
    /// `MAX_READ_RETRIES` times, so the count's variance is at most
    /// `MAX_READ_RETRIES · F`. A link partition records a message for the
    /// transfer it holds back, and the transfers queued behind that one
    /// start after it lifts, so the tick schedule's slack covers it.
    fn add_faults(
        &mut self,
        groups: &[Group],
        apps: &[AppRt],
        scripts: &[FaultScript],
        horizon: SimTime,
        storm_interrupts: usize,
    ) {
        self.spans += storm_interrupts;
        self.events += 2 * storm_interrupts;
        self.fields += storm_interrupts;
        self.cpu_segments += 2 * storm_interrupts;
        self.mcu_segments += 2 * storm_interrupts;
        let mut failed = 0.0;
        for script in scripts {
            let per_read = match script.kind {
                FaultKind::SensorDropout { probability } => {
                    probability * f64::from(MAX_READ_RETRIES)
                }
                FaultKind::SensorUnavailable { probability } => (1..=MAX_READ_RETRIES)
                    .map(|k| probability.powi(k as i32))
                    .sum(),
                _ => continue,
            };
            let active = script
                .end()
                .min(horizon)
                .saturating_duration_since(script.start);
            for g in groups
                .iter()
                .filter(|g| script.targets_slot(g.sensor.slot()))
            {
                let window = apps[g.members[0]].window_len;
                let reads = active.as_nanos() as f64 * f64::from(g.samples_per_window)
                    / window.as_nanos() as f64;
                failed += per_read * reads;
            }
        }
        let failed = (failed + 3.0 * (f64::from(MAX_READ_RETRIES) * failed).sqrt()).ceil() as usize;
        self.events += failed;
        self.fields += failed;
    }
}

/// Per-app runtime state.
struct AppRt {
    workload: Box<dyn Workload>,
    flow: AppFlow,
    window_len: SimDuration,
    usages: Vec<crate::workload::SensorUsage>,
    expected: u32,
    pending: BTreeMap<u32, PendingWindow>,
    outcomes: Vec<WindowOutcome>,
}

impl AppRt {
    fn new(workload: Box<dyn Workload>, flow: AppFlow) -> AppRt {
        let expected = workload
            .sensors()
            .iter()
            .map(|u| u.samples_per_window)
            .sum();
        AppRt {
            window_len: workload.window(),
            usages: workload.sensors(),
            expected,
            flow,
            pending: BTreeMap::new(),
            outcomes: Vec::new(),
            workload,
        }
    }
}

struct PendingWindow {
    data: WindowData,
    received: u32,
    batch_bytes: usize,
    processing: RoutineDurations,
    ready: SimTime,
}

/// The executor state driven by the engine.
struct Exec {
    /// Boxed for its heap placement: held inline, the world changed the
    /// heap's layout so that clearing the signal cache between benchmark
    /// passes trimmed the heap (EXPERIMENTS.md, seventh point).
    world: Box<PhysicalWorld>,
    cal: Calibration,
    cpu: CpuAccount,
    mcu: McuAccount,
    ledger: EnergyLedger,
    trace: TraceLog,
    /// Interned labels of the trace's call-site strings.
    sites: SiteLabels,
    /// Routes memoizable kernels through [`crate::compute_cache`].
    compute_cache: bool,
    /// Ledger energy (µJ) already attributed to spans; see [`Exec::settle`].
    assigned: f64,
    apps: Vec<AppRt>,
    groups: Vec<Group>,
    /// Reusable window-id buffer for [`Exec::flush_all_batches`].
    flush_scratch: Vec<u32>,
    /// The last window's end on the longest window grid; the books close
    /// here unless a task overran it.
    horizon: SimTime,
    link_busy_until: SimTime,
    interrupts: u64,
    sensor_reads: u64,
    bytes_transferred: u64,
    /// Compiled fault schedule; `None` on the (default) fault-free path.
    faults: Option<FaultPlan>,
    /// Values latched by stuck-at faults, indexed by [`SensorId::slot`].
    stuck: [Option<SampleValue>; 10],
    /// Windowed telemetry recorder; `None` (the default) records nothing
    /// and leaves the run bitwise identical to a telemetry-free build.
    telemetry: Option<TelemetryState>,
}

impl Exec {
    /// Validates `s` and builds its executor: flows, CPU and MCU accounts,
    /// per-app state, telemetry buffers and tick groups.
    fn new(s: Scenario) -> Exec {
        // An inconsistent calibration is a scenario-construction bug, part
        // of run()'s documented panic contract.
        s.cal
            .validate()
            // iotse-lint: allow(IOTSE-E04) documented panic contract of run()
            .expect("calibration must be internally consistent");
        for app in &s.apps {
            validate_rates(app.as_ref());
        }
        // Make sure signal schedules cover the run.
        let max_window = s
            .apps
            .iter()
            .map(|a| a.window())
            .max()
            .unwrap_or(SimDuration::from_secs(1));
        let horizon = SimTime::ZERO + max_window * u64::from(s.windows);
        let mut world = s.world;
        world.horizon = world.horizon.max(horizon + SimDuration::from_secs(2));

        let mut mcu = McuAccount::new(s.cal.clone(), SimTime::ZERO);
        if s.record_timeline {
            mcu = mcu.with_timeline();
        }
        if s.apps.is_empty() {
            mcu = mcu.gap_routine(Routine::Idle);
        }
        let flows: Vec<AppFlow> = s
            .apps
            .iter()
            .map(|a| assign_flow(s.scheme, a.as_ref(), &s.cal, &mut mcu))
            .collect();
        let mut cpu = CpuAccount::new(s.cal.clone(), gap_policy(&flows), SimTime::ZERO);
        if s.record_timeline {
            cpu = cpu.with_timeline();
        }

        let seeds = SeedTree::new(s.seed);
        let mut exec = Exec {
            // No scripts, no plan: the faults-off path must cost nothing
            // and change nothing (see the `faults` builder).
            faults: (!s.faults.is_empty()).then(|| FaultPlan::new(&seeds, &s.faults)),
            world: Box::new(PhysicalWorld::new(&seeds, world)),
            cal: s.cal,
            cpu,
            mcu,
            ledger: EnergyLedger::new(),
            trace: if s.trace {
                TraceLog::enabled()
            } else {
                TraceLog::disabled()
            },
            sites: SiteLabels::default(),
            compute_cache: s.compute_cache,
            assigned: 0.0,
            apps: Vec::new(),
            groups: Vec::new(),
            flush_scratch: Vec::new(),
            horizon,
            link_busy_until: SimTime::ZERO,
            interrupts: 0,
            sensor_reads: 0,
            bytes_transferred: 0,
            stuck: Default::default(),
            telemetry: None,
        };
        for (app, flow) in s.apps.into_iter().zip(flows) {
            exec.apps.push(AppRt::new(app, flow));
        }

        // Windowed telemetry records on the `max_window` grid the run's
        // horizon is built from. All buffers are preallocated here, so
        // the per-window recording path never allocates (IOTSE-H13).
        exec.telemetry = s
            .telemetry
            .map(|cfg| TelemetryState::new(&cfg, max_window, s.windows));

        // Tick groups: BEAM merges same-rate shared sensors.
        exec.groups = build_groups(&exec.apps, s.scheme);
        let size = exec.recording_size(s.windows, &s.faults);
        exec.trace.reserve(size.spans, size.events, size.fields);
        exec.cpu.reserve_timeline(size.cpu_segments);
        exec.mcu.reserve_timeline(size.mcu_segments);
        if exec.trace.is_enabled() {
            for gi in 0..exec.groups.len() {
                let name = exec.groups[gi].sensor.to_string();
                exec.groups[gi].sensor_label = Some(exec.trace.intern(&name));
            }
        }
        exec
    }

    /// What this run's recorders are expected to hold (see
    /// [`RecordingSize`]); `scripts` are the faults its plan compiled.
    fn recording_size(&self, windows: u32, scripts: &[FaultScript]) -> RecordingSize {
        let mut size = RecordingSize::of(&self.groups, &self.apps, windows);
        if let Some(plan) = &self.faults {
            let storms = plan.storm_count(self.horizon);
            size.add_faults(&self.groups, &self.apps, scripts, self.horizon, storms);
        }
        size
    }

    /// Schedules every tick of every window, plus any interrupt-storm
    /// wakeups. Ticks go in as plain-`fn` calls, one generated run per
    /// group: the queue computes each tick when the one before it fires,
    /// so a group's pending ticks cost one queue entry however long the
    /// run, and never touch the allocator per tick.
    fn schedule(&self, windows: u32) -> Engine<Exec> {
        let mut engine: Engine<Exec> = Engine::new();
        for (gi, g) in self.groups.iter().enumerate() {
            let window_len = self.apps[g.members[0]].window_len;
            let spw = u64::from(g.samples_per_window);
            let interval = window_len / spw;
            let n = u64::from(windows) * spw;
            // Same (gi, w, i) order as scheduling each tick individually, so
            // sequence numbers — and therefore same-instant pop order — are
            // unchanged.
            engine.schedule_call_run(
                "tick",
                tick_trampoline,
                n as usize,
                (0..n).map(move |k| {
                    let (w, i) = (k / spw, k % spw);
                    let t = SimTime::ZERO + window_len * w + interval * i;
                    (t, gi as u64, w)
                }),
            );
        }

        // Interrupt-storm scripts add their spurious wakeups as first-class
        // engine events. Faults-off runs take the `None` arm and the event
        // count — gated exactly by the bench suite — is untouched. Storm
        // instants past the horizon are dropped: a fault never lengthens
        // the run.
        if let Some(plan) = &self.faults {
            let schedule = plan.storm_schedule(self.horizon);
            if !schedule.is_empty() {
                engine.schedule_call_batch(
                    "fault_storm",
                    storm_trampoline,
                    schedule.into_iter().map(|t| (t, 0, 0)),
                );
            }
        }
        engine
    }

    /// Closes the books at the horizon (or later, if the last task overran
    /// it), then the `root` span. Returns the run's end.
    fn close_books(&mut self, root: SpanId) -> SimTime {
        let end = self
            .horizon
            .max(self.cpu.busy_until())
            .max(self.mcu.busy_until());
        self.cpu.finish(&mut self.ledger, end);
        self.mcu.finish(&mut self.ledger, end);

        // The close span absorbs everything charged at book-closing (tail
        // gap/idle energy) plus any floating-point residue, so the folded
        // span weights reproduce `ledger.total()` bitwise (see `settle`).
        let close = self
            .trace
            .enter_span(end, TraceKind::PowerState, "iotse_core_close");
        if self.trace.is_enabled() {
            let total = self.ledger.total().as_microjoules();
            let weight = exact_residual(self.assigned, total);
            self.trace.charge_span(close, weight);
            self.assigned += weight;
        }
        self.trace.exit_span(close, end);
        self.trace.exit_span(root, end);
        end
    }

    /// Folds the closed books into the run's [`RunResult`].
    fn into_result(
        mut self,
        scheme: Scheme,
        seed: u64,
        end: SimTime,
        events_executed: u64,
    ) -> RunResult {
        // Seal the telemetry payload: force-close any window the tick
        // stream never reached (the final one always, plus every window
        // of an idle run), with the last window ulp-nudged so each
        // routine's series folds back to its ledger total bitwise.
        let telemetry = self.telemetry.take().map(|t| t.close(&self.ledger));
        let apps: Vec<AppRunReport> = std::mem::take(&mut self.apps)
            .into_iter()
            .map(|rt| AppRunReport {
                id: rt.workload.id(),
                name: rt.workload.name().to_string(),
                flow: rt.flow,
                windows: rt.outcomes,
            })
            .collect();
        self.trace.shrink_to_fit();
        RunResult {
            scheme,
            seed,
            duration: end - SimTime::ZERO,
            cpu: self.cpu.stats(),
            mcu: self.mcu.stats(),
            events_executed,
            interrupts: self.interrupts,
            sensor_reads: self.sensor_reads,
            bytes_transferred: self.bytes_transferred,
            faults: self
                .faults
                .as_ref()
                .map(FaultPlan::stats)
                .unwrap_or_default(),
            apps,
            cpu_timeline: self.cpu.take_timeline(),
            mcu_timeline: self.mcu.take_timeline(),
            telemetry,
            ledger: self.ledger,
            trace: self.trace,
        }
    }

    /// Attributes every microjoule charged to the ledger since the last
    /// settle point to `span`. Settles run at the end of each leaf span, so
    /// the deltas telescope: summed left-to-right in span order they track
    /// `ledger.total()` (the run's close span sweeps in the exact residual).
    /// Zero-cost when tracing is off.
    fn settle(&mut self, span: SpanId) {
        if !self.trace.is_enabled() {
            return;
        }
        // lint: tracing only: `settle` returned above when the log is off
        let total = self.ledger.total().as_microjoules();
        let delta = total - self.assigned;
        if delta > 0.0 {
            // lint: tracing only, as above
            self.trace.charge_span(span, delta);
            self.assigned += delta;
        }
    }

    /// One sampling tick of one group: collect the sample, then route it
    /// by the group's flow.
    // iotse-lint: hot-path
    fn on_tick(&mut self, now: SimTime, group_idx: usize, window: u32) {
        // Window-boundary telemetry rolls first, so everything charged by
        // earlier ticks — including their overruns past the boundary —
        // is binned into the window whose tick initiated it.
        if let Some(tel) = &mut self.telemetry {
            tel.roll(now, &self.ledger);
        }
        // Borrow the member list out of the group (restored before returning)
        // and copy the scalar fields — a tick never clones its group.
        let members = std::mem::take(&mut self.groups[group_idx].members);
        let g = &self.groups[group_idx];
        let (sensor, bytes, sensor_label) = (g.sensor, g.bytes_per_sample, g.sensor_label);

        let name = self
            .sites
            .tick
            .span_label(&mut self.trace, "iotse_core_tick");
        let tick = self
            .trace
            .enter_span_label(now, TraceKind::SensorRead, name);
        if let Some(lbl) = sensor_label {
            let field = self.trace.intern_once(&mut self.sites.sensor, "sensor");
            self.trace
                .span_field_label(tick, field, FieldValue::Str(lbl));
            let field = self.trace.intern_once(&mut self.sites.window, "window");
            self.trace
                .span_field_label(tick, field, FieldValue::U64(u64::from(window)));
        }
        let (sample, read_end, read_cost) = self.collect_sample(now, sensor, bytes, sensor_label);
        // Collection busy time, split across sharers under BEAM.
        let share = read_cost / members.len() as u64;
        for &m in &members {
            self.pending(m, window).processing.data_collection += share;
        }

        // Route per flow. Multi-member groups only exist under BEAM, where
        // every app is per-sample.
        let m = members[0];
        let flow = self.apps[m].flow;
        match flow {
            AppFlow::Offloaded => self.deliver(m, window, sample, read_end),
            AppFlow::Batched if self.buffer_sample(read_end, bytes) => {
                self.pending(m, window).batch_bytes += bytes;
                self.deliver(m, window, sample, read_end);
            }
            // Per-sample; or a batched sample that cannot fit the MCU's
            // remaining RAM even with an empty batch buffer (offload
            // reservations ate it), which degrades to a per-sample trip.
            _ => self.send_now(&members, window, sample, read_end, bytes),
        }

        let tick_end = now
            .max(self.cpu.busy_until())
            .max(self.mcu.busy_until())
            .max(self.link_busy_until);
        self.trace.exit_span(tick, tick_end);
        self.groups[group_idx].members = members;
    }

    /// Data collection, Tasks I–III at the MCU: reads `sensor` with Task-I
    /// retries under the sensor fault hooks. The value is latched at the
    /// tick's *nominal* instant (`now`): the ADC samples on its QoS clock
    /// even when the MCU is backlogged moving a batch, so a transfer
    /// backlog delays availability, not acquisition. Returns the sample
    /// (`None` if every attempt failed), when the last attempt ends, and
    /// the MCU time one attempt costs.
    fn collect_sample(
        &mut self,
        now: SimTime,
        sensor: SensorId,
        bytes: usize,
        sensor_label: Option<Label>,
    ) -> (Option<SensorSample>, SimTime, SimDuration) {
        let name = self
            .sites
            .collect
            .span_label(&mut self.trace, "iotse_core_collect");
        let span = self
            .trace
            .enter_span_label(now, TraceKind::SensorRead, name);
        // Fault hooks: a compiled plan decides this sampling event's fate
        // and any clock-drift stretch of the read overhead. Both branches
        // collapse to `None`/`ZERO` without a plan — the fault-free path
        // makes no extra draws and charges the exact seed costs.
        let overhead = self.cal.mcu_read_overhead;
        let (disposition, read_cost) = match &mut self.faults {
            Some(plan) => (
                plan.sensor_disposition(sensor.slot(), now),
                overhead + plan.drift_extra(overhead, now),
            ),
            None => (None, overhead),
        };
        let spec = iotse_sensors::catalog::spec(sensor);
        let mut sample: Option<SensorSample> = None;
        let mut read_end = now;
        for _attempt in 0..MAX_READ_RETRIES {
            let (_, end) = self.mcu.task(
                &mut self.ledger,
                read_end,
                read_cost,
                Routine::DataCollection,
            );
            // The sensor draws its own power over its acquisition time,
            // concurrent with (not serialized on) the MCU.
            self.ledger.charge(
                Device::Sensor,
                Routine::DataCollection,
                spec.power_typical * spec.read_time,
            );
            self.sensor_reads += 1;
            read_end = end;
            if disposition == Some(SensorDisposition::Drop) {
                // Dropout: the sensor never answers. Every retry is paid
                // for (MCU overhead + sensor acquisition power) but the
                // generator is never advanced — the physical world is
                // unchanged by a read that did not happen.
                let slot = &mut self.sites.dropout[usize::from(sensor.slot())];
                let msg = self.trace.intern_once_with(slot, || {
                    // lint: formats once per sensor, and only when a trace sink is live
                    format!("fault: {sensor} dropout")
                });
                self.record_sensor_fault(end, msg);
                continue;
            }
            // Task I: the availability check fails (the MCU "stops reading
            // and throws an error message", §II-B) and the attempt retries.
            let unavailable = match &mut self.faults {
                Some(plan) => plan.read_unavailable(sensor.slot(), now),
                None => false,
            };
            if unavailable {
                let slot = &mut self.sites.not_ready[usize::from(sensor.slot())];
                let msg = self.trace.intern_once_with(slot, || {
                    // lint: formats once per sensor, and only when a trace sink is live
                    format!("sensor {sensor} not ready: ready bit not set")
                });
                self.record_sensor_fault(end, msg);
                continue;
            }
            let Ok(mut s) = self.world.read(sensor, now);
            self.perturb(sensor, &mut s, disposition);
            sample = Some(s);
            break;
        }
        if let Some(lbl) = sensor_label.filter(|_| sample.is_some()) {
            let t = &mut self.trace;
            let source = t.intern_once(&mut self.sites.mcu, "mcu");
            let sensor = t.intern_once(&mut self.sites.sensor, "sensor");
            let size = t.intern_once(&mut self.sites.bytes, "bytes");
            t.event_label(
                read_end,
                TraceKind::SensorRead,
                source,
                &[
                    (sensor, FieldValue::Str(lbl)),
                    (size, FieldValue::U64(bytes as u64)),
                ],
            );
        }
        self.settle(span);
        self.trace.exit_span(span, read_end);
        (sample, read_end, read_cost)
    }

    /// Records sensor fault message `msg`, reported by the MCU at `at`.
    fn record_sensor_fault(&mut self, at: SimTime, msg: Label) {
        let source = self.trace.intern_once(&mut self.sites.mcu, "mcu");
        self.trace
            .record_label(at, TraceKind::SensorRead, source, msg);
    }

    /// Stuck-at and noise-burst perturb a sample after acquisition, on the
    /// sensors-crate injection surface.
    fn perturb(
        &mut self,
        sensor: SensorId,
        s: &mut SensorSample,
        disposition: Option<SensorDisposition>,
    ) {
        let latch = &mut self.stuck[usize::from(sensor.slot())];
        match disposition {
            Some(SensorDisposition::Stick) => {
                if let Some(latched) = latch {
                    apply_sample_fault(s, &SampleFault::StuckAt(latched));
                } else {
                    // First read under the fault latches; later reads
                    // in the window replay it.
                    *latch = Some(s.value.clone());
                }
            }
            Some(SensorDisposition::Noise(offset)) => {
                apply_sample_fault(s, &SampleFault::Noise(offset));
            }
            // A genuine read releases any latch, so a later stuck-at
            // window latches afresh.
            _ => *latch = None,
        }
    }

    fn pending(&mut self, app: usize, window: u32) -> &mut PendingWindow {
        let window_len = self.apps[app].window_len;
        self.apps[app].pending.entry(window).or_insert_with(|| {
            let start = SimTime::ZERO + window_len * u64::from(window);
            PendingWindow {
                data: WindowData {
                    window,
                    start,
                    end: start + window_len,
                    // lint: BTreeMap::new is alloc-free; nodes allocate on first insert
                    samples: BTreeMap::new(),
                },
                received: 0,
                batch_bytes: 0,
                processing: RoutineDurations::default(),
                ready: start,
            }
        })
    }

    /// Files one sample (`None` if it was lost) into `app`'s `window`,
    /// available from `at`, and completes the window once it is full.
    fn deliver(&mut self, app: usize, window: u32, sample: Option<SensorSample>, at: SimTime) {
        let expected = self.apps[app].expected;
        let pw = self.pending(app, window);
        pw.received += 1;
        pw.ready = pw.ready.max(at);
        if let Some(s) = sample {
            pw.data.samples.entry(s.sensor).or_default().push(s);
        }
        if pw.received >= expected {
            self.complete(app, window);
        }
    }

    /// Interrupts, then transfers one sample right away, for every app in
    /// `members`. One trip serves the whole group — this *is* BEAM's
    /// saving when the group is shared — and each member books its share.
    fn send_now(
        &mut self,
        members: &[usize],
        window: u32,
        mut sample: Option<SensorSample>,
        ready: SimTime,
        bytes: usize,
    ) {
        let int_end = self.interrupt(ready);
        let tx_end = self.transfer(int_end, bytes);
        let n = members.len() as u64;
        let handling = self.cal.cpu_interrupt_handling / n;
        let dur = self.cal.transfer_time(bytes) / n;
        let last = members.len() - 1;
        for (i, &m) in members.iter().enumerate() {
            let pw = self.pending(m, window);
            pw.processing.interrupt += handling;
            pw.processing.data_transfer += dur;
            // The last sharer takes the sample by move; only the ones
            // before it pay for a clone.
            let s = if i == last {
                sample.take()
            } else {
                sample.clone()
            };
            self.deliver(m, window, s, tx_end);
        }
    }

    /// Buffers one `bytes` sample in MCU RAM, early-flushing every batch
    /// if the buffer is full. `false` if it cannot fit even then.
    fn buffer_sample(&mut self, ready: SimTime, bytes: usize) -> bool {
        if self.mcu.buffer_push(bytes) {
            return true;
        }
        self.flush_all_batches(ready);
        self.mcu.buffer_push(bytes)
    }

    /// MCU raises the line, CPU services it. Returns when handling ends.
    fn interrupt(&mut self, ready: SimTime) -> SimTime {
        let name = self
            .sites
            .interrupt
            .span_label(&mut self.trace, "iotse_core_interrupt");
        let span = self
            .trace
            .enter_span_label(ready, TraceKind::Interrupt, name);
        let (_, raise_end) = self.mcu.task(
            &mut self.ledger,
            ready,
            self.cal.mcu_interrupt_raise,
            Routine::Interrupt,
        );
        let (_, handled) = self.cpu.task(
            &mut self.ledger,
            raise_end,
            self.cal.cpu_interrupt_handling,
            Routine::Interrupt,
        );
        self.interrupts += 1;
        let source = self.trace.intern_once(&mut self.sites.mcu, "mcu");
        self.trace
            .event_label(handled, TraceKind::Interrupt, source, &[]);
        self.settle(span);
        self.trace.exit_span(span, handled);
        handled
    }

    /// Moves `bytes` from the MCU board to the Main board. On the paper's
    /// platform (no DMA, §IV-F) both boards drive the bus for the whole
    /// transfer; with the future-work DMA engine enabled each processor
    /// only pays a short descriptor setup and the wire runs on its own.
    /// Returns the completion instant.
    fn transfer(&mut self, ready: SimTime, bytes: usize) -> SimTime {
        // Link faults: a partition makes the transfer wait for the window
        // to lift; corruption retransmits the damaged bytes, stretching
        // wire time. Payload accounting (`bytes_transferred`) counts the
        // application's bytes only — corrupt copies are pure overhead.
        let mut ready = ready;
        let mut wire_bytes = bytes;
        if let Some(plan) = &mut self.faults {
            if let Some(release) = plan.partition_release(ready) {
                // lint: fault-plan hook: runs only inside a scripted partition
                self.trace.record(
                    ready,
                    TraceKind::DataTransfer,
                    "link",
                    "fault: link partition",
                );
                ready = release;
            }
            wire_bytes += plan.corrupted_bytes(ready, bytes as u64) as usize;
        }
        let name = self
            .sites
            .transfer
            .span_label(&mut self.trace, "iotse_core_transfer");
        let span = self
            .trace
            .enter_span_label(ready, TraceKind::DataTransfer, name);
        let field = self.trace.intern_once(&mut self.sites.bytes, "bytes");
        self.trace
            .span_field_label(span, field, FieldValue::U64(bytes as u64));
        let dur = self.cal.transfer_time(wire_bytes);
        self.bytes_transferred += bytes as u64;
        // Without DMA both boards drive the bus for the whole transfer, so
        // it also waits for the wire; with DMA each pays only the setup.
        let dma = self.cal.dma_enabled;
        let (busy, wait) = if dma {
            (self.cal.dma_setup, ready)
        } else {
            (dur, ready.max(self.link_busy_until))
        };
        let start = wait.max(self.cpu.busy_until()).max(self.mcu.busy_until());
        let (_, cpu_end) = self
            .cpu
            .task(&mut self.ledger, start, busy, Routine::DataTransfer);
        self.mcu
            .task(&mut self.ledger, start, busy, Routine::DataTransfer);
        let end = if dma {
            cpu_end.max(self.link_busy_until) + dur
        } else {
            cpu_end
        };
        self.link_busy_until = end;
        self.ledger.charge(
            Device::Link,
            Routine::DataTransfer,
            self.cal.link_active * dur,
        );
        let source = self.trace.intern_once(&mut self.sites.link, "link");
        self.trace.event_label(
            end,
            TraceKind::DataTransfer,
            source,
            &[(field, FieldValue::U64(bytes as u64))],
        );
        self.settle(span);
        self.trace.exit_span(span, end);
        end
    }

    /// App compute: `app`'s kernel time, on the MCU for an offloaded app
    /// and on the CPU otherwise, from `ready`. Returns the busy time and
    /// when it ends.
    fn compute(&mut self, app: usize, ready: SimTime) -> (SimDuration, SimTime) {
        let res = self.apps[app].workload.resources();
        let name = self
            .sites
            .compute
            .span_label(&mut self.trace, "iotse_core_compute");
        let span = self.trace.enter_span_label(ready, TraceKind::Compute, name);
        let offloaded = self.apps[app].flow == AppFlow::Offloaded;
        let busy = if offloaded {
            res.mcu_compute
        } else {
            res.cpu_compute
        };
        let (_, end) = if offloaded {
            self.mcu
                .task(&mut self.ledger, ready, busy, Routine::AppCompute)
        } else {
            self.cpu
                .task(&mut self.ledger, ready, busy, Routine::AppCompute)
        };
        self.settle(span);
        self.trace.exit_span(span, end);
        (busy, end)
    }

    /// Completes `app`'s full `window`: a batched app first flushes its
    /// batch, then the kernel runs, then an offloaded app ships only its
    /// result to the CPU. Files the outcome.
    fn complete(&mut self, app: usize, window: u32) {
        let Some(mut pw) = self.apps[app].pending.remove(&window) else {
            return;
        };
        let flow = self.apps[app].flow;
        let mut ready = pw.ready;
        if flow == AppFlow::Batched {
            ready = self.flush(ready, pw.batch_bytes, false);
            pw.processing.interrupt += self.cal.cpu_interrupt_handling;
            pw.processing.data_transfer += self.cal.transfer_time(pw.batch_bytes);
        }
        let (busy, mut done) = self.compute(app, ready);
        pw.processing.app_compute += busy;
        let output = self.run_kernel(app, &pw.data);
        if flow == AppFlow::Offloaded {
            let bytes = output.wire_bytes();
            let int_end = self.interrupt(done);
            done = self.transfer(int_end, bytes);
            pw.processing.interrupt += self.cal.cpu_interrupt_handling;
            pw.processing.data_transfer += self.cal.transfer_time(bytes);
            let t = &mut self.trace;
            let source = t.intern_once(&mut self.sites.com, "com");
            let field = t.intern_once(&mut self.sites.offloaded_bytes, "offloaded_bytes");
            t.event_label(
                done,
                TraceKind::Scheme,
                source,
                &[(field, FieldValue::U64(bytes as u64))],
            );
        }
        let outcome = WindowOutcome {
            window: pw.data.window,
            output,
            completed_at: done,
            deadline: pw.data.end + self.apps[app].window_len,
            processing: pw.processing,
        };
        self.record_outcome(app, outcome);
    }

    /// Runs `app`'s kernel over `data`, answering from the cross-scheme
    /// compute cache when the workload is pure and the cache is enabled.
    /// The energy/timing books are untouched either way: compute energy is
    /// charged from the profiled durations by the caller, never from the
    /// kernel's host runtime.
    // iotse-lint: hot-path
    fn run_kernel(&mut self, app: usize, data: &WindowData) -> AppOutput {
        let enabled = self.compute_cache;
        let workload = self.apps[app].workload.as_mut();
        if enabled && workload.memoizable() {
            crate::compute_cache::memoized_output(
                workload.id(),
                workload.memo_salt(),
                crate::compute_cache::fingerprint(data),
                || workload.compute(data),
            )
        } else {
            workload.compute(data)
        }
    }

    /// Emits the QoS event for a finished window, then files the outcome.
    fn record_outcome(&mut self, app: usize, outcome: WindowOutcome) {
        if self.trace.is_enabled() {
            let t = &mut self.trace;
            let summary = t.intern(&outcome.output.summary());
            let source = t.intern_once(&mut self.sites.exec, "exec");
            let result = t.intern_once(&mut self.sites.result, "result");
            let window = t.intern_once(&mut self.sites.window, "window");
            let deadline = t.intern_once(&mut self.sites.deadline, "deadline");
            t.event_label(
                outcome.completed_at,
                TraceKind::Qos,
                source,
                &[
                    (result, FieldValue::Str(summary)),
                    (window, FieldValue::U64(u64::from(outcome.window))),
                    (deadline, FieldValue::Time(outcome.deadline)),
                ],
            );
        }
        self.apps[app].outcomes.push(outcome);
    }

    /// Early-flushes every batched app's pending bytes (buffer pressure).
    fn flush_all_batches(&mut self, ready: SimTime) {
        // The window-id buffer is owned by `Exec` and reused across
        // flushes, so repeated buffer pressure doesn't churn the heap.
        let mut windows = std::mem::take(&mut self.flush_scratch);
        for app in 0..self.apps.len() {
            if self.apps[app].flow != AppFlow::Batched {
                continue;
            }
            windows.clear();
            windows.extend(self.apps[app].pending.keys().copied());
            for &w in &windows {
                let batch = self.apps[app].pending.get(&w).map_or(0, |p| p.batch_bytes);
                if batch == 0 {
                    continue;
                }
                let tx_end = self.flush(ready, batch, true);
                let cal = &self.cal;
                if let Some(pw) = self.apps[app].pending.get_mut(&w) {
                    pw.batch_bytes = 0;
                    pw.processing.interrupt += cal.cpu_interrupt_handling;
                    pw.processing.data_transfer += cal.transfer_time(batch);
                    pw.ready = pw.ready.max(tx_end);
                }
            }
        }
        self.flush_scratch = windows;
    }

    /// Flushes `batch` buffered bytes: one interrupt, one bulk transfer.
    /// The `batching` event names the byte count `forced_flush_bytes` for
    /// a `forced` (buffer-pressure) flush and `flushed_bytes` otherwise.
    /// Returns when the transfer ends.
    fn flush(&mut self, ready: SimTime, batch: usize, forced: bool) -> SimTime {
        let name = self
            .sites
            .flush
            .span_label(&mut self.trace, "iotse_core_flush");
        let span = self.trace.enter_span_label(ready, TraceKind::Scheme, name);
        let int_end = self.interrupt(ready);
        self.mcu.buffer_release(batch);
        let tx_end = self.transfer(int_end, batch);
        let t = &mut self.trace;
        let source = t.intern_once(&mut self.sites.batching, "batching");
        let field = if forced {
            t.intern_once(&mut self.sites.forced_flush_bytes, "forced_flush_bytes")
        } else {
            t.intern_once(&mut self.sites.flushed_bytes, "flushed_bytes")
        };
        t.event_label(
            tx_end,
            TraceKind::Scheme,
            source,
            &[(field, FieldValue::U64(batch as u64))],
        );
        self.trace.exit_span(span, tx_end);
        tx_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppId, AppOutput, ResourceProfile, SensorUsage};

    /// A minimal configurable workload for executor tests.
    struct Fake {
        id: AppId,
        sensors: Vec<SensorUsage>,
        heap: usize,
        mips: f64,
        cpu_ms: u64,
        mcu_ms: u64,
        computed: u32,
    }

    impl Fake {
        fn stepish(id: AppId) -> Self {
            Fake {
                id,
                sensors: vec![SensorUsage::periodic(SensorId::S4, 100)],
                heap: 10_000,
                mips: 5.0,
                cpu_ms: 2,
                mcu_ms: 20,
                computed: 0,
            }
        }
    }

    impl Workload for Fake {
        fn id(&self) -> AppId {
            self.id
        }
        fn name(&self) -> &'static str {
            "fake"
        }
        fn window(&self) -> SimDuration {
            SimDuration::from_secs(1)
        }
        fn sensors(&self) -> Vec<SensorUsage> {
            self.sensors.clone()
        }
        fn resources(&self) -> ResourceProfile {
            ResourceProfile {
                heap_bytes: self.heap,
                stack_bytes: 400,
                mips: self.mips,
                cpu_compute: SimDuration::from_millis(self.cpu_ms),
                mcu_compute: SimDuration::from_millis(self.mcu_ms),
            }
        }
        fn compute(&mut self, data: &WindowData) -> AppOutput {
            self.computed += 1;
            AppOutput::Steps(data.len() as u32)
        }
    }

    fn run(scheme: Scheme, apps: Vec<Box<dyn Workload>>) -> RunResult {
        Scenario::new(scheme, apps).windows(2).seed(7).run()
    }

    #[test]
    fn baseline_interrupts_once_per_sample() {
        let r = run(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))]);
        assert_eq!(r.interrupts, 200); // 2 windows × 100 samples
        assert_eq!(r.sensor_reads, 200);
        assert_eq!(r.bytes_transferred, 200 * 12);
        let app = r.app(AppId::A2).expect("ran");
        assert_eq!(app.flow, AppFlow::PerSample);
        assert_eq!(app.windows.len(), 2);
        assert!(matches!(app.windows[0].output, AppOutput::Steps(100)));
    }

    #[test]
    fn batching_interrupts_once_per_window() {
        let r = run(Scheme::Batching, vec![Box::new(Fake::stepish(AppId::A2))]);
        assert_eq!(r.interrupts, 2); // one bulk flush per window
        assert_eq!(r.bytes_transferred, 200 * 12); // same payload, fewer trips
        assert_eq!(r.app(AppId::A2).unwrap().flow, AppFlow::Batched);
    }

    #[test]
    fn com_offloads_light_apps_and_moves_only_results() {
        let r = run(Scheme::Com, vec![Box::new(Fake::stepish(AppId::A2))]);
        assert_eq!(r.app(AppId::A2).unwrap().flow, AppFlow::Offloaded);
        assert_eq!(r.interrupts, 2); // one result per window
        assert_eq!(r.bytes_transferred, 2 * 4); // Steps(u32) = 4 B
                                                // CPU sleeps deeply nearly the whole run.
        assert!(
            r.cpu.sleep_fraction() > 0.9,
            "sleep fraction {}",
            r.cpu.sleep_fraction()
        );
    }

    #[test]
    fn com_keeps_heavy_apps_on_cpu() {
        let mut heavy = Fake::stepish(AppId::A11);
        heavy.mips = 4_683.0;
        let r = run(Scheme::Com, vec![Box::new(heavy)]);
        assert_eq!(r.app(AppId::A11).unwrap().flow, AppFlow::PerSample);
    }

    #[test]
    fn bcom_batches_heavy_and_offloads_light() {
        let mut heavy = Fake::stepish(AppId::A11);
        heavy.mips = 4_683.0;
        let light = Fake::stepish(AppId::A2);
        let r = run(Scheme::Bcom, vec![Box::new(heavy), Box::new(light)]);
        assert_eq!(r.app(AppId::A11).unwrap().flow, AppFlow::Batched);
        assert_eq!(r.app(AppId::A2).unwrap().flow, AppFlow::Offloaded);
    }

    #[test]
    fn beam_shares_same_rate_sensors() {
        let a = Fake::stepish(AppId::A2);
        let b = Fake::stepish(AppId::A7);
        let shared = run(Scheme::Beam, vec![Box::new(a), Box::new(b)]);
        // One read/interrupt/transfer per tick serves both apps.
        assert_eq!(shared.interrupts, 200);
        assert_eq!(shared.sensor_reads, 200);
        let a2 = Fake::stepish(AppId::A2);
        let b2 = Fake::stepish(AppId::A7);
        let unshared = run(Scheme::Baseline, vec![Box::new(a2), Box::new(b2)]);
        assert_eq!(unshared.interrupts, 400);
        assert_eq!(unshared.sensor_reads, 400);
        assert!(shared.total_energy() < unshared.total_energy());
        // Both apps still get full windows.
        for id in [AppId::A2, AppId::A7] {
            assert!(matches!(
                shared.app(id).unwrap().windows[0].output,
                AppOutput::Steps(100)
            ));
        }
    }

    #[test]
    fn beam_does_not_share_different_rates() {
        let a = Fake::stepish(AppId::A2);
        let mut b = Fake::stepish(AppId::A7);
        b.sensors = vec![SensorUsage::periodic(SensorId::S4, 50)];
        let r = run(Scheme::Beam, vec![Box::new(a), Box::new(b)]);
        assert_eq!(r.sensor_reads, 300); // 100 + 50 per window, no sharing
    }

    #[test]
    fn scheme_energy_ordering_matches_paper() {
        let mk = || -> Vec<Box<dyn Workload>> { vec![Box::new(Fake::stepish(AppId::A2))] };
        let base = run(Scheme::Baseline, mk());
        let batch = run(Scheme::Batching, mk());
        let com = run(Scheme::Com, mk());
        assert!(
            batch.total_energy() < base.total_energy(),
            "batching must save energy"
        );
        assert!(
            com.total_energy() < batch.total_energy(),
            "COM must beat batching"
        );
    }

    #[test]
    fn idle_hub_is_an_order_of_magnitude_below_baseline() {
        let idle = Scenario::idle(SimDuration::from_secs(2)).seed(7).run();
        let base = run(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))]);
        let ratio = base.average_power().as_watts() / idle.average_power().as_watts();
        // (The 100 Hz fake app is far lighter than the paper's 1 kHz apps;
        // the full 9.5× Figure 1 ratio is asserted by the fig1 experiment.)
        assert!(ratio > 3.0, "baseline should dwarf idle, ratio {ratio}");
        // All idle energy lands in the Idle routine.
        assert!(idle.ledger.routine_total(Routine::Idle) > iotse_energy::units::Energy::ZERO);
        assert!(idle.breakdown().total().is_zero());
    }

    #[test]
    fn offload_falls_back_when_mcu_memory_is_exhausted() {
        let mut big_a = Fake::stepish(AppId::A2);
        big_a.heap = 50 * 1024;
        let mut big_b = Fake::stepish(AppId::A7);
        big_b.heap = 50 * 1024;
        let r = run(Scheme::Com, vec![Box::new(big_a), Box::new(big_b)]);
        assert_eq!(r.app(AppId::A2).unwrap().flow, AppFlow::Offloaded);
        assert_eq!(
            r.app(AppId::A7).unwrap().flow,
            AppFlow::PerSample,
            "second app must fall back"
        );
    }

    #[test]
    fn qos_is_met_in_ordinary_scenarios() {
        for scheme in Scheme::SINGLE_APP {
            let r = run(scheme, vec![Box::new(Fake::stepish(AppId::A2))]);
            assert_eq!(r.qos_violations(), 0, "{scheme} violated QoS");
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = run(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))]);
        let b = run(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))]);
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_window_lengths_coexist() {
        // A 1-second app and a 2-second app share the hub; each completes
        // its own `windows` count on its own cadence.
        struct SlowWindow(Fake);
        impl Workload for SlowWindow {
            fn id(&self) -> AppId {
                AppId::A3
            }
            fn name(&self) -> &'static str {
                "slow-window"
            }
            fn window(&self) -> SimDuration {
                SimDuration::from_secs(2)
            }
            fn sensors(&self) -> Vec<crate::workload::SensorUsage> {
                vec![crate::workload::SensorUsage::periodic(SensorId::S2, 20)]
            }
            fn resources(&self) -> crate::workload::ResourceProfile {
                self.0.resources()
            }
            fn compute(&mut self, data: &WindowData) -> crate::workload::AppOutput {
                self.0.compute(data)
            }
        }
        let fast = Fake::stepish(AppId::A2);
        let slow = SlowWindow(Fake::stepish(AppId::A3));
        let r = run(Scheme::Batching, vec![Box::new(fast), Box::new(slow)]);
        let fast_report = r.app(AppId::A2).expect("fast ran");
        let slow_report = r.app(AppId::A3).expect("slow ran");
        assert_eq!(fast_report.windows.len(), 2);
        assert_eq!(slow_report.windows.len(), 2);
        // The slow app's windows really span two seconds.
        assert_eq!(
            slow_report.windows[1].deadline,
            SimTime::from_secs(6),
            "2 s window + 2 s QoS slack"
        );
        assert_eq!(r.qos_violations(), 0);
        // The run covers the slow app's horizon.
        assert!(r.duration >= SimDuration::from_secs(4));
    }

    #[test]
    fn buffer_pressure_forces_early_flushes() {
        // Three 30 kB samples per window cannot coexist in 80 kB of MCU
        // RAM: the third push must force a flush of the first two.
        let mut fat = Fake::stepish(AppId::A6);
        fat.sensors = vec![crate::workload::SensorUsage {
            sensor: SensorId::S8,
            samples_per_window: 3,
            bytes_per_sample_override: Some(30_000),
        }];
        let r = run(Scheme::Batching, vec![Box::new(fat)]);
        assert!(r.mcu.forced_flushes >= 1, "expected forced flushes");
        // All bytes still arrive, and every window completes.
        assert_eq!(r.bytes_transferred, 2 * 3 * 30_000);
        let app = r.app(AppId::A6).expect("ran");
        assert_eq!(app.windows.len(), 2);
        assert!(matches!(app.windows[0].output, AppOutput::Steps(3)));
        // More interrupts than one-per-window because of the early flushes.
        assert!(r.interrupts > 2, "interrupts {}", r.interrupts);
    }

    #[test]
    fn a_batched_sample_too_big_for_the_mcu_goes_per_sample() {
        // A 100 kB sample cannot fit the MCU's 80 KB even with an empty
        // batch buffer, so every sample takes its own interrupt and
        // transfer; the window's completion flush then moves an empty
        // batch.
        let big = 100_000;
        let mut fat = Fake::stepish(AppId::A6);
        fat.sensors = vec![crate::workload::SensorUsage {
            sensor: SensorId::S8,
            samples_per_window: 3,
            bytes_per_sample_override: Some(big),
        }];
        let r = run(Scheme::Batching, vec![Box::new(fat)]);
        assert_eq!(r.interrupts, 2 * (3 + 1));
        assert_eq!(r.bytes_transferred, 2 * 3 * big as u64);
        // Each sample fails its push twice: before and after the
        // (empty) early flush.
        assert_eq!(r.mcu.forced_flushes, 2 * 3 * 2);
        let cal = Calibration::paper();
        let app = r.app(AppId::A6).expect("ran");
        assert_eq!(app.flow, AppFlow::Batched);
        for w in &app.windows {
            assert!(matches!(w.output, AppOutput::Steps(3)));
            assert_eq!(w.processing.interrupt, cal.cpu_interrupt_handling * 4);
            assert_eq!(
                w.processing.data_transfer,
                cal.transfer_time(big) * 3 + cal.transfer_time(0)
            );
        }
    }

    #[test]
    #[should_panic(expected = "fake samples S10(hi), which has no hi-res frame model")]
    fn a_sensor_without_a_driver_is_rejected_at_setup() {
        let mut hi_res = Fake::stepish(AppId::A10);
        hi_res.sensors = vec![crate::workload::SensorUsage::on_demand(SensorId::S10Hi)];
        let _ = run(Scheme::Baseline, vec![Box::new(hi_res)]);
    }

    #[test]
    fn dma_lets_batching_sleep_through_the_flush() {
        let cal = Calibration::paper().with_dma();
        let no_dma = run(Scheme::Batching, vec![Box::new(Fake::stepish(AppId::A2))]);
        let with_dma = Scenario::new(Scheme::Batching, vec![Box::new(Fake::stepish(AppId::A2))])
            .windows(2)
            .seed(7)
            .calibration(cal)
            .run();
        assert!(
            with_dma.total_energy() < no_dma.total_energy(),
            "DMA must save: {} vs {}",
            with_dma.total_energy(),
            no_dma.total_energy()
        );
        // Functional results and counters are untouched.
        assert_eq!(with_dma.interrupts, no_dma.interrupts);
        assert_eq!(with_dma.bytes_transferred, no_dma.bytes_transferred);
        assert_eq!(
            with_dma.app(AppId::A2).unwrap().windows[0].output,
            no_dma.app(AppId::A2).unwrap().windows[0].output
        );
    }

    #[test]
    fn dma_barely_moves_baseline() {
        // In Baseline the CPU busy-waits at active power either way; only
        // the MCU's participation shrinks.
        let cal = Calibration::paper().with_dma();
        let no_dma = run(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))]);
        let with_dma = Scenario::new(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))])
            .windows(2)
            .seed(7)
            .calibration(cal)
            .run();
        let saving = with_dma.savings_vs(&no_dma);
        assert!(
            (0.0..0.10).contains(&saving),
            "baseline DMA saving {saving:.3}"
        );
    }

    #[test]
    fn span_weights_reproduce_ledger_total_exactly() {
        for scheme in Scheme::SINGLE_APP {
            let r = Scenario::new(scheme, vec![Box::new(Fake::stepish(AppId::A2))])
                .windows(2)
                .seed(7)
                .with_trace()
                .run();
            let folded: f64 = {
                let mut acc = 0.0;
                for s in r.trace.spans() {
                    acc += s.weight;
                }
                acc
            };
            assert_eq!(
                folded,
                r.ledger.total().as_microjoules(),
                "{scheme}: folded span energy must equal the ledger total bitwise"
            );
            assert_eq!(r.trace.summary().total_weight, folded);
        }
    }

    #[test]
    fn span_tree_has_root_and_closed_spans() {
        let r = Scenario::new(Scheme::Batching, vec![Box::new(Fake::stepish(AppId::A2))])
            .windows(1)
            .seed(7)
            .with_trace()
            .run();
        let spans = r.trace.spans();
        assert!(!spans.is_empty());
        // Exactly one root, and it is the first span.
        assert!(spans[0].parent.is_none());
        assert_eq!(r.trace.label(spans[0].label), "iotse_core_run");
        assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 1);
        // Every span is closed with exit >= enter.
        for s in spans {
            let exit = s.exit.expect("all spans closed at run end");
            assert!(exit >= s.enter);
        }
    }

    #[test]
    fn metrics_report_matches_run_counters() {
        // The metrics view folds its histograms over the trace: one
        // `bytes` field per transfer span, one QoS event per window.
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))])
            .windows(2)
            .seed(7)
            .with_trace()
            .run();
        assert_eq!(r.windows_completed(), 2);
        assert_eq!(r.qos_violations(), 0);
        let sizes: Vec<u64> = r.transfer_sizes().collect();
        assert_eq!(sizes.len(), 200);
        assert_eq!(sizes.iter().sum::<u64>(), r.bytes_transferred);
        let slack: Vec<f64> = r.qos_slack_ms().collect();
        let outcomes = &r.apps[0].windows;
        assert_eq!(slack.len(), 2);
        for (s, w) in slack.iter().zip(outcomes) {
            assert_eq!(s.to_bits(), w.slack().as_millis_f64().to_bits());
        }
        assert_eq!(r.telemetry_points(), None);
    }

    #[test]
    fn disabled_observability_adds_nothing() {
        let r = run(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))]);
        assert!(r.telemetry.is_none());
        assert!(r.trace.spans().is_empty());
        assert!(r.trace.events().is_empty());
        assert_eq!(r.transfer_sizes().count(), 0);
        assert_eq!(r.qos_slack_ms().count(), 0);
    }

    #[test]
    fn a_never_ready_sensor_pays_every_retry_and_delivers_nothing() {
        let never_ready = FaultScript::new(
            iotse_sim::faults::FaultKind::SensorUnavailable { probability: 1.0 },
            SimTime::ZERO,
            SimDuration::MAX,
        );
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(Fake::stepish(AppId::A2))])
            .windows(2)
            .seed(7)
            .fault(never_ready)
            .with_trace()
            .run();
        let attempts = 200 * u64::from(MAX_READ_RETRIES);
        assert_eq!(r.sensor_reads, attempts);
        assert_eq!(r.faults.faults_injected, attempts);
        assert_eq!(r.faults.samples_dropped, 0);
        let app = r.app(AppId::A2).expect("ran");
        assert!(app
            .windows
            .iter()
            .all(|w| matches!(w.output, AppOutput::Steps(0))));
        let not_ready = r
            .trace
            .events()
            .iter()
            .filter(|e| r.trace.detail(e) == "sensor S4 not ready: ready bit not set")
            .count() as u64;
        assert_eq!(not_ready, attempts);
    }

    /// Two apps on the 1 kHz accelerometer (the shape of `inspect --apps
    /// A2,A7`), with demo faults or without, record no more spans, events,
    /// fields or CPU and MCU timeline segments than their run reserved,
    /// so no array regrows.
    #[test]
    fn a_demo_faulted_run_stays_inside_its_reservation() {
        let demo = crate::robustness::demo_scripts();
        let accel = |id| {
            let mut app = Fake::stepish(id);
            app.sensors = vec![SensorUsage::periodic(SensorId::S4, 1000)];
            Box::new(app) as Box<dyn Workload>
        };
        for (scheme, seed, faulted) in Scheme::ALL
            .into_iter()
            .flat_map(|s| [(s, 42, false), (s, 42, true), (s, 7, false), (s, 7, true)])
        {
            let scripts = if faulted { demo.clone() } else { Vec::new() };
            let scenario = Scenario::new(scheme, vec![accel(AppId::A2), accel(AppId::A7)])
                .windows(4)
                .seed(seed)
                .faults(scripts.clone())
                .with_trace()
                .with_timeline();
            let mut exec = Exec::new(scenario);
            let size = exec.recording_size(4, &scripts);
            let mut engine = exec.schedule(4);
            let root = exec
                .trace
                .enter_span(SimTime::ZERO, TraceKind::Scheme, "iotse_core_run");
            engine.run(&mut exec);
            exec.close_books(root);
            let trace = &exec.trace;
            // Executor spans take their fields right after opening, so
            // no field run is ever copied: the runs fill the arena.
            let fields: usize = trace.spans().iter().map(|s| s.fields.len()).sum::<usize>()
                + trace.events().iter().map(|e| e.fields.len()).sum::<usize>();
            let case = format!("{scheme} seed {seed} faulted {faulted}");
            let cpu = exec.cpu.timeline().map_or(0, <[_]>::len);
            let mcu = exec.mcu.timeline().map_or(0, <[_]>::len);
            assert!(trace.spans().len() <= size.spans, "{case}: spans");
            assert!(trace.events().len() <= size.events, "{case}: events");
            assert!(fields <= size.fields, "{case}: fields");
            assert!(cpu <= size.cpu_segments, "{case}: CPU timeline {cpu}");
            assert!(mcu <= size.mcu_segments, "{case}: MCU timeline {mcu}");
            let dropped = exec
                .faults
                .as_ref()
                .is_some_and(|p| p.stats().samples_dropped > 0);
            assert_eq!(dropped, faulted, "{case}");
        }
    }

    #[test]
    fn timelines_record_when_enabled() {
        let r = Scenario::new(Scheme::Batching, vec![Box::new(Fake::stepish(AppId::A2))])
            .windows(1)
            .with_timeline()
            .run();
        assert!(r.cpu_timeline.as_ref().is_some_and(|t| !t.is_empty()));
        assert!(r.mcu_timeline.as_ref().is_some_and(|t| !t.is_empty()));
    }
}
