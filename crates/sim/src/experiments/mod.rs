//! One module per figure of the paper's evaluation (Sec. V-B).
//!
//! | Module | Paper figures | What it sweeps |
//! |---|---|---|
//! | [`vs_n`] | Fig. 7, Fig. 8 | total rounds `N` |
//! | [`vs_m`] | Fig. 9, Fig. 10 | number of sellers `M` |
//! | [`vs_k`] | Fig. 11, Fig. 12 | selection size `K` |
//! | [`game_curves`] | Fig. 13(a,b), Fig. 14 | strategy deviations in one round |
//! | [`param_sweeps`] | Fig. 15–18 | seller cost `a_6` and platform cost `θ` |
//! | [`nonstationary`] | extension (no paper figure) | dynamic regret under quality drift |
//!
//! Every experiment is pure data-in/data-out: it returns [`Table`]s ready
//! for printing (`cdt repro`) or CSV export. Each has a
//! `paper_scale()` and a `test_scale()` configuration; the shapes the
//! integration tests assert hold at both scales.

pub mod game_curves;
pub mod nonstationary;
pub mod param_sweeps;
pub mod vs_k;
pub mod vs_m;
pub mod vs_n;

use crate::parallel::RunConfig;
use crate::report::Table;
use crate::settings::SimSettings;
use cdt_types::Result;

/// Experiment scale: the paper's full workload or a CI-friendly reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table II parameters (minutes of compute in release mode).
    Paper,
    /// ~1000× smaller (sub-second; same qualitative shapes).
    Test,
}

/// Runs one named experiment and returns its tables; its pooled sweeps
/// run as `rc` sets them up.
///
/// Known ids: `table2`, `fig7`, `fig8`, `fig9`, `fig10`, `fig11`, `fig12`,
/// `fig13`, `fig14`, `fig15`, `fig16`, `fig17`, `fig18`, plus the extension
/// experiments `nonstat` (dynamic regret under quality drift) and
/// `replicate` (multi-seed comparison with 95% confidence intervals).
///
/// # Errors
/// Returns a config error for unknown ids and propagates run errors.
pub fn run_experiment(id: &str, scale: Scale, rc: &RunConfig) -> Result<Vec<Table>> {
    match id {
        "table2" => Ok(vec![SimSettings::table2()]),
        "fig7" => Ok(vs_n::run(&vs_n::config(scale), rc)?.figure7()),
        "fig8" => Ok(vs_n::run(&vs_n::config(scale), rc)?.figure8()),
        "fig9" => Ok(vs_m::run(&vs_m::config(scale), rc)?.figure9()),
        "fig10" => Ok(vs_m::run(&vs_m::config(scale), rc)?.figure10()),
        "fig11" => Ok(vs_k::run(&vs_k::config(scale), rc)?.figure11()),
        "fig12" => Ok(vs_k::run(&vs_k::config(scale), rc)?.figure12()),
        "fig13" => game_curves::figure13(scale),
        "fig14" => game_curves::figure14(scale),
        "fig15" => param_sweeps::figure15(scale),
        "fig16" => param_sweeps::figure16(scale),
        "fig17" => param_sweeps::figure17(scale),
        "fig18" => param_sweeps::figure18(scale),
        "nonstat" => nonstationary::run(&nonstationary::config(scale), rc),
        "replicate" => {
            // Error-bar companion to the single-run figures: the paper's
            // comparison at the default shape, across independent seeds.
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
        other => Err(cdt_types::CdtError::config(format!(
            "unknown experiment id `{other}`"
        ))),
    }
}

/// All known experiment ids, in paper order.
#[must_use]
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "table2",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "nonstat",
        "replicate",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_rejected() {
        assert!(run_experiment("fig99", Scale::Test, &RunConfig::default()).is_err());
    }

    #[test]
    fn table2_runs_instantly() {
        let tables = run_experiment("table2", Scale::Test, &RunConfig::default()).unwrap();
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
