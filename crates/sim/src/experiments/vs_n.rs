//! Figures 7 & 8: total revenue, regret, and Δ-profits as the number of
//! rounds `N` grows (`M = 300`, `K = 10` at paper scale).
//!
//! ε-first is horizon-aware (its exploration phase is `εN` rounds), so each
//! grid point is a fresh run for every policy rather than a checkpoint of
//! one long run.
//!
//! The grid runs on the pool via [`compare_policies_grid`] — one
//! `CellJob` per (N-cell × policy) pair.

use super::Scale;
use crate::compare::{compare_policies_grid, ComparisonResult};
use crate::parallel::RunConfig;
use crate::policy_spec::PolicySpec;
use crate::report::{Series, Table};
use crate::settings::SimSettings;
use cdt_core::Scenario;
use cdt_quality::SellerPopulation;
use cdt_types::{Result, SimRng};

/// Configuration of the `N` sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of sellers `M`.
    pub m: usize,
    /// Selection size `K`.
    pub k: usize,
    /// Number of PoIs `L`.
    pub l: usize,
    /// The `N` values to sweep.
    pub n_grid: Vec<usize>,
    /// Policies to compare.
    pub policies: Vec<PolicySpec>,
    /// Master seed.
    pub seed: u64,
}

/// The sweep configuration for a scale.
#[must_use]
pub fn config(scale: Scale) -> Config {
    let s = SimSettings::paper_defaults();
    match scale {
        Scale::Paper => Config {
            m: s.m,
            k: s.k,
            l: s.l,
            n_grid: SimSettings::n_grid(),
            policies: PolicySpec::paper_set(),
            seed: s.seed,
        },
        Scale::Test => Config {
            m: 30,
            k: 5,
            l: 4,
            n_grid: vec![50, 150, 400],
            policies: PolicySpec::paper_set(),
            seed: s.seed,
        },
    }
}

/// Result of the `N` sweep: one comparison per grid point over a shared
/// population.
#[derive(Debug, Clone)]
pub struct VsNResult {
    /// The swept `N` values.
    pub n_grid: Vec<usize>,
    /// Policy labels, in run order.
    pub labels: Vec<String>,
    /// `comparisons[i]` is the multi-policy result at `n_grid[i]`.
    pub comparisons: Vec<ComparisonResult>,
}

/// Runs the sweep.
///
/// # Errors
/// Propagates run errors.
pub fn run(cfg: &Config, rc: &RunConfig) -> Result<VsNResult> {
    // One hidden population shared by every grid point, so curves vary only
    // through the horizon.
    let population = SellerPopulation::generate_paper_defaults(
        cfg.m,
        cdt_core::scenario::DEFAULT_NOISE_SIGMA,
        &mut SimRng::new(cfg.seed),
    );
    let labels = cfg.policies.iter().map(PolicySpec::label).collect();
    let scenarios = cfg
        .n_grid
        .iter()
        .map(|&n| Scenario::from_population(population.clone(), cfg.k, cfg.l, n))
        .collect::<Result<Vec<_>>>()?;
    let seeds: Vec<u64> = (0..cfg.n_grid.len())
        .map(|i| cfg.seed.wrapping_add(1000 * i as u64))
        .collect();
    let comparisons = compare_policies_grid(&scenarios, &cfg.policies, &seeds, &[], rc)?;
    Ok(VsNResult {
        n_grid: cfg.n_grid.clone(),
        labels,
        comparisons,
    })
}

impl VsNResult {
    fn series_over_n(&self, f: impl Fn(&ComparisonResult, &str) -> f64) -> Vec<Series> {
        let x: Vec<f64> = self.n_grid.iter().map(|&n| n as f64).collect();
        self.labels
            .iter()
            .map(|label| {
                let y = self.comparisons.iter().map(|c| f(c, label)).collect();
                Series::new(label.clone(), x.clone(), y)
            })
            .collect()
    }

    /// Fig. 7: total (expected) revenue and regret vs `N`.
    #[must_use]
    pub fn figure7(&self) -> Vec<Table> {
        let revenue = self.series_over_n(|c, l| c.run(l).expect("label exists").expected_revenue);
        let regret = self.series_over_n(|c, l| c.run(l).expect("label exists").regret);
        vec![
            Series::tabulate("Fig. 7(a): total revenue vs N", "N", &revenue),
            Series::tabulate("Fig. 7(b): regret vs N", "N", &regret),
        ]
    }

    /// Fig. 8: Δ-PoC, Δ-PoP, Δ-PoS(s) vs `N` (the optimal policy is the
    /// reference, so it is excluded from the curves).
    #[must_use]
    pub fn figure8(&self) -> Vec<Table> {
        let non_optimal: Vec<&String> = self.labels.iter().filter(|l| *l != "optimal").collect();
        let x: Vec<f64> = self.n_grid.iter().map(|&n| n as f64).collect();
        let make = |f: &dyn Fn(&ComparisonResult, &str) -> f64, title: &str| {
            let series: Vec<Series> = non_optimal
                .iter()
                .map(|label| {
                    let y = self.comparisons.iter().map(|c| f(c, label)).collect();
                    Series::new((*label).clone(), x.clone(), y)
                })
                .collect();
            Series::tabulate(title, "N", &series)
        };
        vec![
            make(
                &|c, l| c.delta_poc(l).expect("optimal present"),
                "Fig. 8(a): Δ-PoC vs N",
            ),
            make(
                &|c, l| c.delta_pop(l).expect("optimal present"),
                "Fig. 8(b): Δ-PoP vs N",
            ),
            make(
                &|c, l| c.delta_pos(l).expect("optimal present"),
                "Fig. 8(c): Δ-PoS(s) vs N",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_figure7() {
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        // Revenue grows with N for every policy.
        for label in &r.labels {
            let revs: Vec<f64> = r
                .comparisons
                .iter()
                .map(|c| c.run(label).unwrap().expected_revenue)
                .collect();
            assert!(
                revs.windows(2).all(|w| w[1] > w[0]),
                "{label} revenue not increasing: {revs:?}"
            );
        }
        // Learners beat random at the longest horizon.
        let last = r.comparisons.last().unwrap();
        assert!(
            last.run("CMAB-HS").unwrap().expected_revenue
                > last.run("random").unwrap().expected_revenue
        );
    }

    #[test]
    fn delta_profits_shrink_with_n_for_cmab() {
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        let first = r.comparisons.first().unwrap().delta_poc("CMAB-HS").unwrap();
        let last = r.comparisons.last().unwrap().delta_poc("CMAB-HS").unwrap();
        assert!(
            last.abs() < first.abs() + 1e-9,
            "Δ-PoC should shrink: {first} → {last}"
        );
    }

    #[test]
    fn tables_have_grid_rows() {
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        for t in r.figure7().iter().chain(r.figure8().iter()) {
            assert_eq!(t.rows.len(), 3);
        }
    }
}
