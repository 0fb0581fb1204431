//! The experiments of the paper's evaluation (Sec. V-B), one module per
//! kind of run.
//!
//! | Module | Paper figures | What it sweeps |
//! |---|---|---|
//! | [`axis`] | Figs. 7–8, 9–10, 11–12 | rounds `N`, sellers `M`, selection size `K` |
//! | [`game_curves`] | Fig. 13(a,b), Fig. 14 | strategy deviations in one round |
//! | [`param_sweeps`] | Fig. 15–18 | seller cost `a_6` and platform cost `θ` |
//! | [`nonstationary`] | extension (no paper figure) | dynamic regret under quality drift |
//!
//! Every experiment is pure data-in/data-out: it returns [`Table`]s ready
//! for printing (`cdt repro`) or CSV export. Each runs at either
//! [`Scale`]; the shapes the integration tests assert hold at both. One
//! table names each experiment id once, with where its tables come from,
//! and [`Experiments`] runs them.

pub mod axis;
pub mod game_curves;
pub mod nonstationary;
pub mod param_sweeps;

use crate::parallel::RunConfig;
use crate::report::Table;
use crate::settings::SimSettings;
use axis::{Axis, SweepResult};
use cdt_types::Result;

/// Experiment scale: the paper's full workload or a CI-friendly reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table II parameters: ~10 M trading rounds, about 12 s for the whole
    /// evaluation on 2 cores in release mode.
    Paper,
    /// ~800× fewer rounds: tens of milliseconds for the whole evaluation
    /// in release mode, with the same qualitative shapes.
    Test,
}

/// Where an experiment's tables come from.
enum Source {
    /// A view of one axis sweep, given the paper's figure number for its
    /// titles.
    Sweep(Axis, fn(&SweepResult, u32) -> Vec<Table>, u32),
    /// A function of the scale, given the run configuration its pooled
    /// runs use.
    Scaled(fn(Scale, &RunConfig) -> Result<Vec<Table>>),
}

/// Every experiment id, in paper order, with its source: Table II,
/// Figs. 7–18, plus the extension experiments `nonstat` (dynamic regret
/// under quality drift) and `replicate` (multi-seed comparison with 95%
/// confidence intervals).
const EXPERIMENTS: &[(&str, Source)] = &[
    (
        "table2",
        Source::Scaled(|_, _| Ok(vec![SimSettings::table2()])),
    ),
    (
        "fig7",
        Source::Sweep(Axis::N, SweepResult::revenue_regret, 7),
    ),
    (
        "fig8",
        Source::Sweep(Axis::N, SweepResult::delta_profits, 8),
    ),
    (
        "fig9",
        Source::Sweep(Axis::M, SweepResult::revenue_regret, 9),
    ),
    (
        "fig10",
        Source::Sweep(Axis::M, SweepResult::delta_profits, 10),
    ),
    (
        "fig11",
        Source::Sweep(Axis::K, SweepResult::revenue_regret, 11),
    ),
    (
        "fig12",
        Source::Sweep(Axis::K, SweepResult::mean_profits, 12),
    ),
    ("fig13", Source::Scaled(|s, _| game_curves::figure13(s))),
    ("fig14", Source::Scaled(|s, _| game_curves::figure14(s))),
    ("fig15", Source::Scaled(|s, _| param_sweeps::figure15(s))),
    ("fig16", Source::Scaled(|s, _| param_sweeps::figure16(s))),
    ("fig17", Source::Scaled(|s, _| param_sweeps::figure17(s))),
    ("fig18", Source::Scaled(|s, _| param_sweeps::figure18(s))),
    (
        "nonstat",
        Source::Scaled(|s, rc| nonstationary::run(&nonstationary::config(s), rc)),
    ),
    ("replicate", Source::Scaled(replicate)),
];

/// The error-bar companion to the single-run figures: the paper's
/// comparison at the default shape, across independent seeds.
fn replicate(scale: Scale, rc: &RunConfig) -> Result<Vec<Table>> {
    let (m, k, l, n, reps) = match scale {
        Scale::Paper => (300, 10, 10, 10_000, 10),
        Scale::Test => (20, 4, 4, 150, 3),
    };
    let specs = crate::policy_spec::PolicySpec::paper_set();
    let runs = crate::replicate::replicate((m, k, l, n), &specs, reps, 20_210_419, rc)?;
    Ok(vec![crate::replicate::replication_table(
        &format!("Policy comparison, {reps} seeds (M={m}, K={k}, L={l}, N={n})"),
        &runs,
    )])
}

/// The experiments of one invocation at one scale. Each axis sweep runs
/// at most once, for the first id that needs it, and serves every later
/// figure of its axis.
#[derive(Debug)]
pub struct Experiments {
    scale: Scale,
    sweeps: Vec<SweepResult>,
}

impl Experiments {
    /// No experiment run yet, at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            sweeps: Vec::new(),
        }
    }

    /// Runs one named experiment (or views a sweep already run) and
    /// returns its tables; its pooled sweeps run as `rc` sets them up.
    ///
    /// # Errors
    /// Returns a config error for unknown ids and propagates run errors.
    pub fn run(&mut self, id: &str, rc: &RunConfig) -> Result<Vec<Table>> {
        let (_, source) = EXPERIMENTS
            .iter()
            .find(|(known, _)| *known == id)
            .ok_or_else(|| cdt_types::CdtError::config(format!("unknown experiment id `{id}`")))?;
        match *source {
            Source::Scaled(tables) => tables(self.scale, rc),
            Source::Sweep(axis, view, figure) => {
                if !self.sweeps.iter().any(|s| s.axis == axis) {
                    let sweep = axis::run(&axis::config(axis, self.scale), rc)?;
                    self.sweeps.push(sweep);
                }
                let sweep = self.sweeps.iter().find(|s| s.axis == axis);
                Ok(view(sweep.expect("run above if absent"), figure))
            }
        }
    }
}

/// All known experiment ids, in paper order.
#[must_use]
pub fn all_experiment_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_rejected() {
        let mut experiments = Experiments::new(Scale::Test);
        assert!(experiments.run("fig99", &RunConfig::default()).is_err());
    }

    #[test]
    fn table2_runs_instantly() {
        let tables = Experiments::new(Scale::Test)
            .run("table2", &RunConfig::default())
            .unwrap();
        assert_eq!(tables.len(), 1);
    }

    #[test]
    fn id_list_covers_every_figure() {
        let ids = all_experiment_ids();
        for f in 7..=18 {
            assert!(ids.contains(&format!("fig{f}").as_str()), "fig{f} missing");
        }
    }
}
