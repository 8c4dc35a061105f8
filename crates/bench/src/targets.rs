//! The `figures` command's targets by name: the text each prints and the
//! CSV it exports. The `figures` binary, the figure-digest golden and the
//! bench suite's `figures` case all render through [`render`], so they see
//! the same bytes.
//!
//! # Examples
//!
//! ```
//! use iotse_bench::config::ExperimentConfig;
//! use iotse_bench::targets;
//!
//! let table1 = targets::render("table1", &ExperimentConfig::quick(), false).expect("a target");
//! assert!(table1.text.ends_with('\n'));
//! assert!(targets::render("fig2", &ExperimentConfig::quick(), false).is_none());
//! ```

use std::fmt::Display;

use iotse_core::AppId;

use crate::config::ExperimentConfig;
use crate::csv;
use crate::figures::{
    fig01, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig13, tables,
};
use crate::sweeps::{dma, dvfs, error_rate, mcu_speed, transition};

/// The targets `figures all` renders, in print order.
pub const ALL: [&str; 14] = [
    "table1", "table2", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13",
];

/// The targets `figures sweeps` renders, in print order.
pub const SWEEPS: [&str; 5] = [
    "sweep-transition",
    "sweep-mcu",
    "sweep-dma",
    "sweep-dvfs",
    "sweep-errors",
];

/// One rendered target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendered {
    /// What `figures` prints for the target, final newline included.
    pub text: String,
    /// The CSV export as `(file stem, contents)`: present when it was asked
    /// for and the target has one.
    pub csv: Option<(&'static str, String)>,
}

/// A target printed on one line, its CSV built by `to_csv` when wanted.
fn shown<T: Display>(
    value: &T,
    with_csv: bool,
    stem: &'static str,
    to_csv: fn(&T) -> String,
) -> Rendered {
    Rendered {
        text: format!("{value}\n"),
        csv: with_csv.then(|| (stem, to_csv(value))),
    }
}

/// A target with no CSV export.
fn text_only(value: &impl Display) -> Rendered {
    Rendered {
        text: format!("{value}\n"),
        csv: None,
    }
}

/// Renders `target` under `cfg`, building its CSV too when `with_csv` is
/// set. Returns `None` for a name that is not a target of [`ALL`] or
/// [`SWEEPS`].
#[must_use]
pub fn render(target: &str, cfg: &ExperimentConfig, with_csv: bool) -> Option<Rendered> {
    Some(match target {
        "table1" => text_only(&tables::table1()),
        "table2" => shown(&tables::table2(cfg), with_csv, "table2", csv::table2_csv),
        "fig1" => shown(&fig01::run(cfg), with_csv, "fig01", csv::fig01_csv),
        "fig3" => text_only(&fig03::run(cfg)),
        "fig4" => text_only(&fig04::run(cfg)),
        "fig5" => text_only(&fig05::run(cfg)),
        "fig6" => text_only(&fig06::run(cfg)),
        "fig7" => text_only(&fig07::run(cfg)),
        "fig8" => text_only(&fig08::run(cfg)),
        "fig9" => shown(&fig09::run(cfg), with_csv, "fig09", csv::fig09_csv),
        "fig10" => shown(&fig10::run(cfg), with_csv, "fig10", csv::fig10_csv),
        "fig11" => shown(&fig11::run(cfg), with_csv, "fig11", csv::fig11_csv),
        "fig12" => shown(&fig12::run(cfg), with_csv, "fig12", csv::fig12_csv),
        "fig13" => shown(&fig13::run(cfg), with_csv, "fig13", csv::fig13_csv),
        "sweep-transition" => shown(
            &transition::run(cfg),
            with_csv,
            "sweep_transition",
            csv::transition_csv,
        ),
        "sweep-mcu" => {
            let mut text = String::new();
            let mut combined = String::new();
            for id in [AppId::A2, AppId::A8] {
                let sweep = mcu_speed::run(cfg, id);
                text.push_str(&format!("{sweep}\n"));
                if with_csv {
                    // One header, then every sweep's rows.
                    let table = csv::mcu_speed_csv(&sweep);
                    let skip = usize::from(!combined.is_empty());
                    for line in table.lines().skip(skip) {
                        combined.push_str(line);
                        combined.push('\n');
                    }
                }
            }
            Rendered {
                text,
                csv: with_csv.then_some(("sweep_mcu", combined)),
            }
        }
        "sweep-dma" => shown(&dma::run(cfg), with_csv, "sweep_dma", csv::dma_csv),
        "sweep-dvfs" => shown(&dvfs::run(cfg), with_csv, "sweep_dvfs", csv::dvfs_csv),
        "sweep-errors" => shown(
            &error_rate::run(cfg),
            with_csv,
            "sweep_errors",
            csv::error_rate_csv,
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_listed_names_are_targets() {
        // The figure-digest golden renders every listed target.
        let cfg = ExperimentConfig::quick();
        assert!(render("table1", &cfg, true).is_some_and(|r| r.csv.is_none()));
        assert!(render("experiments", &cfg, false).is_none());
        assert!(render("FIG1", &cfg, false).is_none());
        let mut names: Vec<&str> = ALL.iter().chain(&SWEEPS).copied().collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len() + SWEEPS.len());
    }

    #[test]
    fn the_mcu_sweep_csv_has_one_header() {
        let r = render("sweep-mcu", &ExperimentConfig::quick(), true).expect("a target");
        let (stem, csv) = r.csv.expect("sweep-mcu exports a CSV");
        assert_eq!(stem, "sweep_mcu");
        let header = csv.lines().next().expect("a header");
        assert_eq!(csv.lines().filter(|l| *l == header).count(), 1);
        assert!(csv.lines().any(|l| l.contains("A2")) && csv.lines().any(|l| l.contains("A8")));
        assert!(csv.ends_with('\n'));
    }
}
