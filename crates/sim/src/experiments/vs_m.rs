//! Figures 9 & 10: total revenue, regret, and Δ-profits as the candidate
//! pool `M` grows (`N = 10⁵`, `K = 10` at paper scale).
//!
//! The populations are *nested*: the `M`-seller pool is the first `M`
//! profiles of one master population, mirroring the paper's "choose M
//! taxis as satisfied sellers" from a fixed 300-taxi trace.
//!
//! The grid runs on the pool via [`compare_policies_grid`] — one
//! `CellJob` per (M-cell × policy) pair.

use super::Scale;
use crate::compare::{compare_policies_grid, ComparisonResult};
use crate::parallel::RunConfig;
use crate::policy_spec::PolicySpec;
use crate::report::{Series, Table};
use crate::settings::SimSettings;
use cdt_core::Scenario;
use cdt_quality::{SellerPopulation, SellerProfile};
use cdt_types::{Result, SimRng};

/// Configuration of the `M` sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `M` values to sweep.
    pub m_grid: Vec<usize>,
    /// Selection size `K`.
    pub k: usize,
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
            m_grid: SimSettings::m_grid(),
            k: s.k,
            l: s.l,
            n: s.n,
            policies: PolicySpec::paper_set(),
            seed: s.seed,
        },
        Scale::Test => Config {
            m_grid: vec![10, 20, 30],
            k: 4,
            l: 4,
            n: 250,
            policies: PolicySpec::paper_set(),
            seed: s.seed,
        },
    }
}

/// Result of the `M` sweep.
#[derive(Debug, Clone)]
pub struct VsMResult {
    /// The swept `M` values.
    pub m_grid: Vec<usize>,
    /// Policy labels.
    pub labels: Vec<String>,
    /// One comparison per grid point.
    pub comparisons: Vec<ComparisonResult>,
}

/// Runs the sweep.
///
/// # Errors
/// Propagates run errors.
pub fn run(cfg: &Config, rc: &RunConfig) -> Result<VsMResult> {
    let max_m = *cfg.m_grid.iter().max().expect("non-empty grid");
    let master = SellerPopulation::generate_paper_defaults(
        max_m,
        cdt_core::scenario::DEFAULT_NOISE_SIGMA,
        &mut SimRng::new(cfg.seed),
    );
    let labels = cfg.policies.iter().map(PolicySpec::label).collect();
    let scenarios = cfg
        .m_grid
        .iter()
        .map(|&m| {
            let profiles: Vec<SellerProfile> = master.iter().take(m).map(|(_, p)| *p).collect();
            Scenario::from_population(
                SellerPopulation::from_profiles(profiles),
                cfg.k,
                cfg.l,
                cfg.n,
            )
        })
        .collect::<Result<Vec<_>>>()?;
    let seeds: Vec<u64> = (0..cfg.m_grid.len())
        .map(|i| cfg.seed.wrapping_add(2000 * i as u64))
        .collect();
    let comparisons = compare_policies_grid(&scenarios, &cfg.policies, &seeds, &[], rc)?;
    Ok(VsMResult {
        m_grid: cfg.m_grid.clone(),
        labels,
        comparisons,
    })
}

impl VsMResult {
    fn x(&self) -> Vec<f64> {
        self.m_grid.iter().map(|&m| m as f64).collect()
    }

    /// Fig. 9: total revenue and regret vs `M`.
    #[must_use]
    pub fn figure9(&self) -> Vec<Table> {
        let mut revenue = Vec::new();
        let mut regret = Vec::new();
        for label in &self.labels {
            let rev = self
                .comparisons
                .iter()
                .map(|c| c.run(label).expect("label exists").expected_revenue)
                .collect();
            let reg = self
                .comparisons
                .iter()
                .map(|c| c.run(label).expect("label exists").regret)
                .collect();
            revenue.push(Series::new(label.clone(), self.x(), rev));
            regret.push(Series::new(label.clone(), self.x(), reg));
        }
        vec![
            Series::tabulate("Fig. 9(a): total revenue vs M", "M", &revenue),
            Series::tabulate("Fig. 9(b): regret vs M", "M", &regret),
        ]
    }

    /// Fig. 10: Δ-PoC, Δ-PoP, Δ-PoS(s) vs `M`.
    #[must_use]
    pub fn figure10(&self) -> Vec<Table> {
        let non_optimal: Vec<&String> = self.labels.iter().filter(|l| *l != "optimal").collect();
        let make = |f: &dyn Fn(&ComparisonResult, &str) -> f64, title: &str| {
            let series: Vec<Series> = non_optimal
                .iter()
                .map(|label| {
                    let y = self.comparisons.iter().map(|c| f(c, label)).collect();
                    Series::new((*label).clone(), self.x(), y)
                })
                .collect();
            Series::tabulate(title, "M", &series)
        };
        vec![
            make(
                &|c, l| c.delta_poc(l).expect("optimal present"),
                "Fig. 10(a): Δ-PoC vs M",
            ),
            make(
                &|c, l| c.delta_pop(l).expect("optimal present"),
                "Fig. 10(b): Δ-PoP vs M",
            ),
            make(
                &|c, l| c.delta_pos(l).expect("optimal present"),
                "Fig. 10(c): Δ-PoS(s) vs M",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learners_beat_random_across_m() {
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        for c in &r.comparisons {
            assert!(
                c.run("CMAB-HS").unwrap().expected_revenue
                    > c.run("random").unwrap().expected_revenue
            );
        }
    }

    #[test]
    fn revenue_is_relatively_stable_in_m() {
        // Fig. 9's claim: revenue "keeps stable and grows very slightly"
        // as M increases — the top-K dominates. Allow generous slack at
        // test scale; the point is no order-of-magnitude drift.
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        let revs: Vec<f64> = r
            .comparisons
            .iter()
            .map(|c| c.run("optimal").unwrap().expected_revenue)
            .collect();
        let min = revs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let max = revs.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(max / min < 2.0, "optimal revenue swings too much: {revs:?}");
    }

    #[test]
    fn figure_tables_cover_grid() {
        let r = run(&config(Scale::Test), &RunConfig::default()).unwrap();
        for t in r.figure9().iter().chain(r.figure10().iter()) {
            assert_eq!(t.rows.len(), 3);
        }
    }
}
