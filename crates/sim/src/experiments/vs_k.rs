//! Figures 11 & 12: total revenue, regret, and average per-round profits
//! as the selection size `K` grows (`M = 300`, `N = 10⁵` at paper scale).
//!
//! The grid runs on the pool via [`compare_policies_grid`]: every
//! (K-cell × policy) pair becomes one `CellJob`.

use super::Scale;
use crate::compare::{compare_policies_grid, ComparisonResult};
use crate::parallel::RunConfig;
use crate::policy_spec::PolicySpec;
use crate::report::{Series, Table};
use crate::settings::SimSettings;
use cdt_core::Scenario;
use cdt_quality::SellerPopulation;
use cdt_types::{Result, SimRng};

/// Configuration of the `K` sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of sellers `M`.
    pub m: usize,
    /// The `K` values to sweep.
    pub k_grid: Vec<usize>,
    /// Number of PoIs `L`.
    pub l: usize,
    /// Rounds per run `N`.
    pub n: usize,
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
            k_grid: SimSettings::k_grid(),
            l: s.l,
            n: s.n,
            policies: PolicySpec::paper_set(),
            seed: s.seed,
        },
        Scale::Test => Config {
            m: 30,
            k_grid: vec![3, 6, 9],
            l: 4,
            n: 250,
            policies: PolicySpec::paper_set(),
            seed: s.seed,
        },
    }
}

/// Result of the `K` sweep.
#[derive(Debug, Clone)]
pub struct VsKResult {
    /// The swept `K` values.
    pub k_grid: Vec<usize>,
    /// Policy labels.
    pub labels: Vec<String>,
    /// One comparison per grid point.
    pub comparisons: Vec<ComparisonResult>,
}

/// Runs the sweep (one shared population; only `K` varies).
///
/// # Errors
/// Propagates run errors.
pub fn run(cfg: &Config, rc: &RunConfig) -> Result<VsKResult> {
    let population = SellerPopulation::generate_paper_defaults(
        cfg.m,
        cdt_core::scenario::DEFAULT_NOISE_SIGMA,
        &mut SimRng::new(cfg.seed),
    );
    let labels = cfg.policies.iter().map(PolicySpec::label).collect();
    let scenarios = cfg
        .k_grid
        .iter()
        .map(|&k| Scenario::from_population(population.clone(), k, cfg.l, cfg.n))
        .collect::<Result<Vec<_>>>()?;
    let seeds: Vec<u64> = (0..cfg.k_grid.len())
        .map(|i| cfg.seed.wrapping_add(3000 * i as u64))
        .collect();
    let comparisons = compare_policies_grid(&scenarios, &cfg.policies, &seeds, &[], rc)?;
    Ok(VsKResult {
        k_grid: cfg.k_grid.clone(),
        labels,
        comparisons,
    })
}

impl VsKResult {
    fn x(&self) -> Vec<f64> {
        self.k_grid.iter().map(|&k| k as f64).collect()
    }

    fn series(&self, f: impl Fn(&ComparisonResult, &str) -> f64) -> Vec<Series> {
        self.labels
            .iter()
            .map(|label| {
                let y = self.comparisons.iter().map(|c| f(c, label)).collect();
                Series::new(label.clone(), self.x(), y)
            })
            .collect()
    }

    /// Fig. 11: total revenue and regret vs `K`.
    #[must_use]
    pub fn figure11(&self) -> Vec<Table> {
        let revenue = self.series(|c, l| c.run(l).expect("label exists").expected_revenue);
        let regret = self.series(|c, l| c.run(l).expect("label exists").regret);
        vec![
            Series::tabulate("Fig. 11(a): total revenue vs K", "K", &revenue),
            Series::tabulate("Fig. 11(b): regret vs K", "K", &regret),
        ]
    }

    /// Fig. 12: average per-round PoC, PoP, and per-seller PoS(s) vs `K`.
    #[must_use]
    pub fn figure12(&self) -> Vec<Table> {
        let poc = self.series(|c, l| c.run(l).expect("label exists").mean_consumer_profit);
        let pop = self.series(|c, l| c.run(l).expect("label exists").mean_platform_profit);
        let pos = self.series(|c, l| c.run(l).expect("label exists").mean_seller_profit);
        vec![
            Series::tabulate("Fig. 12(a): average PoC vs K", "K", &poc),
            Series::tabulate("Fig. 12(b): average PoP vs K", "K", &pop),
            Series::tabulate("Fig. 12(c): average PoS(s) vs K", "K", &pos),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revenue_increases_with_k() {
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        for label in &r.labels {
            let revs: Vec<f64> = r
                .comparisons
                .iter()
                .map(|c| c.run(label).unwrap().expected_revenue)
                .collect();
            assert!(
                revs.windows(2).all(|w| w[1] > w[0]),
                "{label}: revenue vs K not increasing: {revs:?}"
            );
        }
    }

    #[test]
    fn per_seller_profit_decreases_with_k() {
        // Fig. 12(c): "average PoS(s) achieved in each round decreases
        // dramatically along with the increase of K".
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        let pos: Vec<f64> = r
            .comparisons
            .iter()
            .map(|c| c.run("optimal").unwrap().mean_seller_profit)
            .collect();
        assert!(
            pos.windows(2).all(|w| w[1] < w[0]),
            "PoS(s) vs K not decreasing: {pos:?}"
        );
    }

    #[test]
    fn regret_grows_with_k_for_learners() {
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        let regs: Vec<f64> = r
            .comparisons
            .iter()
            .map(|c| c.run("random").unwrap().regret)
            .collect();
        assert!(
            regs.windows(2).all(|w| w[1] > w[0]),
            "random regret vs K not increasing: {regs:?}"
        );
    }
}
