//! Figure 5 — CPU/MCU power-state timelines: Baseline vs Batching for the
//! step counter. In Baseline the CPU never leaves active mode; in Batching
//! it sleeps until the window's single bulk flush.

use std::fmt;

use iotse_core::cpu::CpuPhase;
use iotse_core::mcu::McuPhase;
use iotse_core::{AppId, Scenario, Scheme};
use iotse_sim::time::SimTime;

use crate::config::ExperimentConfig;

/// One device's timeline as `(start, phase-name)` change points.
pub type Timeline = Vec<(SimTime, &'static str)>;

/// The Figure 5 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig05 {
    /// Run length represented by the timelines.
    pub horizon: SimTime,
    /// Baseline CPU timeline.
    pub baseline_cpu: Timeline,
    /// Baseline MCU timeline.
    pub baseline_mcu: Timeline,
    /// Batching CPU timeline.
    pub batching_cpu: Timeline,
    /// Batching MCU timeline.
    pub batching_mcu: Timeline,
    /// Fraction of time the Batching CPU spent asleep (paper: 93%).
    pub batching_cpu_sleep_fraction: f64,
    /// Fraction of time the Baseline CPU spent asleep (paper: 0%).
    pub baseline_cpu_sleep_fraction: f64,
}

/// Reproduces Figure 5 (single step-counter app, timeline recording on).
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Fig05 {
    let scenario = |scheme: Scheme| {
        Scenario::new(scheme, iotse_apps::catalog::apps(&[AppId::A2], cfg.seed))
            .windows(cfg.windows)
            .seed(cfg.seed)
            .with_timeline()
    };
    let [baseline, batching]: [_; 2] = cfg
        .run_fleet(vec![scenario(Scheme::Baseline), scenario(Scheme::Batching)])
        .try_into()
        .expect("two scenarios");
    let cpu_names = |tl: &[(SimTime, CpuPhase)]| -> Timeline {
        tl.iter().map(|&(t, p)| (t, p.name())).collect()
    };
    let mcu_names = |tl: &[(SimTime, McuPhase)]| -> Timeline {
        tl.iter().map(|&(t, p)| (t, p.name())).collect()
    };
    Fig05 {
        horizon: SimTime::ZERO + baseline.duration,
        baseline_cpu: cpu_names(baseline.cpu_timeline.as_deref().expect("timeline on")),
        baseline_mcu: mcu_names(baseline.mcu_timeline.as_deref().expect("timeline on")),
        batching_cpu: cpu_names(batching.cpu_timeline.as_deref().expect("timeline on")),
        batching_mcu: mcu_names(batching.mcu_timeline.as_deref().expect("timeline on")),
        batching_cpu_sleep_fraction: batching.cpu.sleep_fraction(),
        baseline_cpu_sleep_fraction: baseline.cpu.sleep_fraction(),
    }
}

/// The glyph of a phase name in a strip.
fn glyph(name: &str) -> char {
    match name {
        "busy" => '#',
        "idle-active" | "idle" => '.',
        "transition" => 't',
        "sleep" => 's',
        "deep-sleep" => 'z',
        _ => '?',
    }
}

/// Renders a timeline as a fixed-width strip: one glyph per time slot
/// (`#` busy, `.` idle-active, `t` transition, `s` sleep, `z` deep sleep).
///
/// Each slot shows the phase in effect at its start: the last change
/// point at or before it, `?` if there is none. Slot starts only move
/// forward, so one cursor walks the timeline once for the whole strip.
#[must_use]
pub fn render_strip(timeline: &Timeline, horizon: SimTime, width: usize) -> String {
    let mut out = String::with_capacity(width);
    let total = horizon.as_nanos().max(1);
    // `seen` counts the change points at or before the current slot.
    let mut seen = 0;
    for slot in 0..width {
        let t = SimTime::from_nanos(total * slot as u64 / width as u64);
        while timeline.get(seen).is_some_and(|&(start, _)| start <= t) {
            seen += 1;
        }
        let name = seen.checked_sub(1).map_or("?", |i| timeline[i].1);
        out.push(glyph(name));
    }
    out
}

impl fmt::Display for Fig05 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5: power-state timelines over {} (step counter)",
            self.horizon
        )?;
        writeln!(
            f,
            "  legend: # busy, . idle-active, t transition, s sleep, z deep-sleep"
        )?;
        writeln!(
            f,
            "  (a) Baseline CPU : {}",
            render_strip(&self.baseline_cpu, self.horizon, 100)
        )?;
        writeln!(
            f,
            "      Baseline MCU : {}",
            render_strip(&self.baseline_mcu, self.horizon, 100)
        )?;
        writeln!(
            f,
            "  (b) Batching CPU : {}",
            render_strip(&self.batching_cpu, self.horizon, 100)
        )?;
        writeln!(
            f,
            "      Batching MCU : {}",
            render_strip(&self.batching_mcu, self.horizon, 100)
        )?;
        writeln!(
            f,
            "  CPU sleep fraction: Baseline {:.0}%, Batching {:.0}%   (paper: 0% / 93%)",
            self.baseline_cpu_sleep_fraction * 100.0,
            self.batching_cpu_sleep_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_cpu_never_sleeps_batching_mostly_sleeps() {
        let fig = run(&ExperimentConfig::quick());
        assert_eq!(
            fig.baseline_cpu_sleep_fraction, 0.0,
            "Figure 5a: always active"
        );
        assert!(
            fig.batching_cpu_sleep_fraction > 0.85,
            "Figure 5b: sleeps ~93%, got {:.2}",
            fig.batching_cpu_sleep_fraction
        );
        // And the baseline timeline indeed contains no sleep states.
        assert!(fig
            .baseline_cpu
            .iter()
            .all(|&(_, n)| n != "sleep" && n != "deep-sleep"));
        assert!(fig.batching_cpu.iter().any(|&(_, n)| n == "sleep"));
    }

    /// The strip as first written: each slot rescans the timeline from
    /// its start.
    fn rescanning_strip(timeline: &Timeline, horizon: SimTime, width: usize) -> String {
        let total = horizon.as_nanos().max(1);
        (0..width)
            .map(|slot| {
                let t = SimTime::from_nanos(total * slot as u64 / width as u64);
                let name = timeline
                    .iter()
                    .take_while(|&&(start, _)| start <= t)
                    .last()
                    .map_or("?", |&(_, n)| n);
                glyph(name)
            })
            .collect()
    }

    #[test]
    fn the_cursor_strip_matches_the_rescanning_strip() {
        use iotse_sim::rng::SimRng;
        const NAMES: [&str; 7] = [
            "busy",
            "idle-active",
            "idle",
            "transition",
            "sleep",
            "deep-sleep",
            "other",
        ];
        let mut rng = SimRng::seed_from_u64(0x5791);
        for case in 0..2_000 {
            let horizon = SimTime::from_nanos(rng.gen_range(0..5_000_000u64));
            let width = rng.gen_range(0..130usize);
            let len = rng.gen_range(0..40usize);
            // Change points run to twice the horizon, so some fall past it;
            // every fifth timeline opens at t = 0 and every seventh is left
            // unsorted.
            let mut timeline: Timeline = (0..len)
                .map(|_| {
                    let at = rng.gen_range(0..=2 * horizon.as_nanos());
                    (
                        SimTime::from_nanos(at),
                        NAMES[rng.gen_range(0..NAMES.len())],
                    )
                })
                .collect();
            if case % 7 != 0 {
                timeline.sort_by_key(|&(t, _)| t);
            }
            if case % 5 == 0 {
                if let Some(first) = timeline.first_mut() {
                    first.0 = SimTime::ZERO;
                }
            }
            assert_eq!(
                render_strip(&timeline, horizon, width),
                rescanning_strip(&timeline, horizon, width),
                "case {case}: {timeline:?} over {horizon} at width {width}"
            );
        }
        assert_eq!(render_strip(&Vec::new(), SimTime::ZERO, 3), "???");
    }

    #[test]
    fn strips_render_at_requested_width() {
        let fig = run(&ExperimentConfig::quick());
        let strip = render_strip(&fig.batching_cpu, fig.horizon, 80);
        assert_eq!(strip.chars().count(), 80);
        assert!(
            strip.contains('s'),
            "batching strip must show sleep: {strip}"
        );
        assert!(!strip.contains('?'), "unknown phases rendered: {strip}");
    }
}
