//! Multi-policy comparison on a shared scenario.
//!
//! Each policy gets its own RNG stream (derived from the base seed and its
//! position) over the *same* hidden population, mirroring how the paper
//! compares algorithms on one data trace.

use crate::cells::{run_cells, CellJob};
use crate::parallel::RunConfig;
use crate::policy_spec::PolicySpec;
use crate::report::Table;
use crate::runner::RunResult;
use cdt_core::Scenario;
use cdt_types::Result;

/// Results of running several policies on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// One result per requested policy, in request order.
    pub runs: Vec<RunResult>,
}

impl ComparisonResult {
    /// The run with the given label.
    #[must_use]
    pub fn run(&self, name: &str) -> Option<&RunResult> {
        self.runs.iter().find(|r| r.name == name)
    }

    /// The optimal run, if present (needed for the Δ-profit metrics).
    #[must_use]
    pub fn optimal(&self) -> Option<&RunResult> {
        self.run("optimal")
    }

    /// Δ-PoC for one run: the optimal algorithm's mean per-round consumer
    /// profit minus this run's (Sec. V-B's "difference of profit between
    /// the optimal and each other algorithm in each round on average").
    ///
    /// Returns `None` when the comparison lacks an optimal run.
    #[must_use]
    pub fn delta_poc(&self, name: &str) -> Option<f64> {
        Some(self.optimal()?.mean_consumer_profit - self.run(name)?.mean_consumer_profit)
    }

    /// Δ-PoP (platform analogue of [`ComparisonResult::delta_poc`]).
    #[must_use]
    pub fn delta_pop(&self, name: &str) -> Option<f64> {
        Some(self.optimal()?.mean_platform_profit - self.run(name)?.mean_platform_profit)
    }

    /// Δ-PoS(s) (per-seller analogue of [`ComparisonResult::delta_poc`]).
    #[must_use]
    pub fn delta_pos(&self, name: &str) -> Option<f64> {
        Some(self.optimal()?.mean_seller_profit - self.run(name)?.mean_seller_profit)
    }

    /// Summary table: one row per policy with revenue, regret, and mean
    /// profits.
    #[must_use]
    pub fn summary_table(&self, title: &str) -> Table {
        let mut t = Table::new(
            title,
            vec![
                "policy".into(),
                "expected revenue".into(),
                "observed revenue".into(),
                "regret".into(),
                "mean PoC".into(),
                "mean PoP".into(),
                "mean PoS(s)".into(),
            ],
        );
        for r in &self.runs {
            t.push_labeled_row(
                r.name.clone(),
                vec![
                    r.expected_revenue,
                    r.observed_revenue,
                    r.regret,
                    r.mean_consumer_profit,
                    r.mean_platform_profit,
                    r.mean_seller_profit,
                ],
            );
        }
        t
    }
}

/// Runs every policy in `specs` on `scenario`, emitting one [`CellJob`]
/// per policy onto the pool ([`run_cells`]) as `cfg` sets it up. Each job
/// owns its seed (`base_seed + index`), so the result is bit-for-bit
/// identical at any thread count.
///
/// # Errors
/// Propagates the first run error encountered (in policy order).
pub fn compare_policies(
    scenario: &Scenario,
    specs: &[PolicySpec],
    base_seed: u64,
    checkpoints: &[usize],
    cfg: &RunConfig,
) -> Result<ComparisonResult> {
    let jobs: Vec<CellJob> = specs
        .iter()
        .enumerate()
        .map(|(j, &spec)| CellJob {
            scenario,
            spec,
            seed: base_seed.wrapping_add(j as u64),
        })
        .collect();
    let runs = run_cells(&jobs, checkpoints, cfg)?;
    Ok(ComparisonResult { runs })
}

/// Runs every policy on every scenario of a sweep grid by flattening the
/// full (sweep-cell × policy) matrix into one [`CellJob`] stream on the
/// pool. `seeds[i]` is the base seed of cell `i`; policy `j` runs with
/// `seeds[i] + j`, exactly like [`compare_policies`], so the output is
/// bit-for-bit identical to calling `compare_policies` once per cell
/// serially — but a slow cell (e.g. the largest `M` of a sweep) no longer
/// blocks the rest of the grid.
///
/// # Errors
/// Propagates the first run error in (cell, policy) order.
///
/// # Panics
/// Panics unless `scenarios` and `seeds` have equal lengths.
pub fn compare_policies_grid(
    scenarios: &[Scenario],
    specs: &[PolicySpec],
    seeds: &[u64],
    checkpoints: &[usize],
    cfg: &RunConfig,
) -> Result<Vec<ComparisonResult>> {
    assert_eq!(scenarios.len(), seeds.len(), "one seed per grid cell");
    let jobs: Vec<CellJob> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(c, scenario)| {
            specs.iter().enumerate().map(move |(j, &spec)| CellJob {
                scenario,
                spec,
                seed: seeds[c].wrapping_add(j as u64),
            })
        })
        .collect();
    let mut runs = run_cells(&jobs, checkpoints, cfg)?.into_iter();
    // Jobs were laid out cell-major, so chunks of specs.len() rebuild the
    // per-cell comparisons in order.
    Ok(scenarios
        .iter()
        .map(|_| ComparisonResult {
            runs: runs.by_ref().take(specs.len()).collect(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::SimRng;

    /// `specs` compared, serially, on one 24-seller scenario.
    fn compare(specs: &[PolicySpec]) -> ComparisonResult {
        let mut rng = SimRng::new(11);
        let s = Scenario::paper_defaults(24, 4, 5, 300, &mut rng).unwrap();
        compare_policies(&s, specs, 7, &[], &RunConfig::default()).unwrap()
    }

    #[test]
    fn paper_ordering_holds_at_test_scale() {
        let cmp = compare(&PolicySpec::paper_set());
        let optimal = cmp.run("optimal").unwrap();
        let cmab = cmp.run("CMAB-HS").unwrap();
        let random = cmp.run("random").unwrap();
        // Revenue: optimal ≥ CMAB-HS > random (Fig. 7's ordering).
        assert!(optimal.expected_revenue >= cmab.expected_revenue);
        assert!(cmab.expected_revenue > random.expected_revenue);
        // Regret: optimal ≈ 0 < CMAB-HS < random.
        assert!(optimal.regret.abs() < 1e-9);
        assert!(cmab.regret < random.regret);
    }

    #[test]
    fn delta_metrics_are_nonnegative_for_learners() {
        let cmp = compare(&PolicySpec::paper_set());
        // Learning is never better than clairvoyance on average (up to
        // quality-estimation noise in the game profits; allow tiny slack).
        for name in ["CMAB-HS", "random"] {
            let d = cmp.delta_poc(name).unwrap();
            assert!(d > -1.0, "Δ-PoC({name}) = {d}");
        }
        assert!(cmp.delta_poc("CMAB-HS").unwrap() < cmp.delta_poc("random").unwrap());
    }

    #[test]
    fn missing_optimal_yields_none() {
        let cmp = compare(&[PolicySpec::Random]);
        assert!(cmp.delta_poc("random").is_none());
        assert!(cmp.optimal().is_none());
    }

    #[test]
    fn summary_table_has_one_row_per_policy() {
        let cmp = compare(&[PolicySpec::CmabHs, PolicySpec::Random]);
        let t = cmp.summary_table("demo");
        assert_eq!(t.rows.len(), 2);
    }
}
