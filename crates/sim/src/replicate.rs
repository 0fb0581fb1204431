//! Multi-seed replication: run the same (scenario-shape, policy) cell
//! across independent seeds and report mean ± confidence interval.
//!
//! The paper plots single-run curves; a credible open-source evaluation
//! harness should quantify run-to-run variance, so the `repro` numbers can
//! be read with error bars.

use crate::cells::{run_cells, CellJob};
use crate::parallel::RunConfig;
use crate::policy_spec::PolicySpec;
use crate::report::Table;
use crate::runner::RunResult;
use cdt_core::Scenario;
use cdt_types::{mix_seed, Result, SimRng};

/// Mean and spread of one scalar metric across replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replicated {
    /// Sample mean across replications.
    pub mean: f64,
    /// Sample (Bessel-corrected) standard deviation.
    pub std_dev: f64,
    /// Number of replications.
    pub n: usize,
}

impl Replicated {
    fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            // An explicit zero-count value instead of a 0/0 = NaN mean.
            return Self {
                mean: 0.0,
                std_dev: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        };
        Self {
            mean,
            std_dev: var.sqrt(),
            n,
        }
    }

    /// Half-width of the ~95% normal confidence interval
    /// (`1.96 · s / √n`; exact small-sample t-quantiles are overkill for a
    /// simulation harness).
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev / (self.n as f64).sqrt()
        }
    }
}

/// Replicated metrics of one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedRun {
    /// The policy's display label.
    pub name: String,
    /// Expected revenue across replications.
    pub expected_revenue: Replicated,
    /// Regret across replications.
    pub regret: Replicated,
    /// Mean per-round consumer profit across replications.
    pub mean_consumer_profit: Replicated,
}

/// Runs each policy `replications` times on freshly generated scenarios of
/// the same `shape` (`M`, `K`, `L`, `N`), with both the hidden population
/// and the run randomness re-seeded per replication.
///
/// Seeds are derived with [`mix_seed`] (scenario `rep`:
/// `mix_seed(base_seed, rep)`; run: `mix_seed(scenario_seed, 1 + policy)`),
/// so no two (replication, policy) RNG streams can collide the way the old
/// additive `base + rep·7919` / `seed + i + 1` scheme could.
///
/// The (replication × policy) grid is emitted as one [`CellJob`] stream
/// onto the pool ([`run_cells`]) as `cfg` sets it up, one pool job per
/// cell. Every job owns its seed and runs the serial round body, so the
/// result is bit-for-bit identical at any thread count.
///
/// # Errors
/// Propagates scenario-construction and run errors.
pub fn replicate(
    (m, k, l, n): (usize, usize, usize, usize),
    specs: &[PolicySpec],
    replications: usize,
    base_seed: u64,
    cfg: &RunConfig,
) -> Result<Vec<ReplicatedRun>> {
    // Scenario generation is cheap relative to an N-round run: build all
    // replication scenarios up front, then fan the expensive cells out.
    let scenarios = (0..replications)
        .map(|rep| {
            let mut rng = SimRng::new(mix_seed(base_seed, rep as u64));
            Scenario::paper_defaults(m, k, l, n, &mut rng)
        })
        .collect::<Result<Vec<_>>>()?;

    // One job per (replication × policy) cell, laid out cell-major
    // (`rep * specs.len() + i`); each replication is its own scenario
    // cell. `run_cells` returns the grid in exactly that job order.
    let mut jobs: Vec<CellJob> = Vec::with_capacity(replications * specs.len());
    for (rep, scenario) in scenarios.iter().enumerate() {
        for (i, &spec) in specs.iter().enumerate() {
            jobs.push(CellJob {
                scenario,
                spec,
                seed: mix_seed(mix_seed(base_seed, rep as u64), 1 + i as u64),
            });
        }
    }
    let results: Vec<RunResult> = run_cells(&jobs, &[], cfg)?;

    Ok(specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            // Cell (rep, i) landed at index rep * specs.len() + i.
            let samples = |metric: fn(&crate::runner::RunResult) -> f64| -> Vec<f64> {
                (0..replications)
                    .map(|rep| metric(&results[rep * specs.len() + i]))
                    .collect()
            };
            ReplicatedRun {
                name: spec.label(),
                expected_revenue: Replicated::from_samples(&samples(|r| r.expected_revenue)),
                regret: Replicated::from_samples(&samples(|r| r.regret)),
                mean_consumer_profit: Replicated::from_samples(&samples(|r| {
                    r.mean_consumer_profit
                })),
            }
        })
        .collect())
}

/// Renders replicated runs as a table with ±95% CI columns.
#[must_use]
pub fn replication_table(title: &str, runs: &[ReplicatedRun]) -> Table {
    let mut t = Table::new(
        title,
        vec![
            "policy".into(),
            "revenue mean".into(),
            "revenue ±95%".into(),
            "regret mean".into(),
            "regret ±95%".into(),
            "PoC mean".into(),
            "PoC ±95%".into(),
        ],
    );
    for r in runs {
        t.push_labeled_row(
            r.name.clone(),
            vec![
                r.expected_revenue.mean,
                r.expected_revenue.ci95_half_width(),
                r.regret.mean,
                r.regret.ci95_half_width(),
                r.mean_consumer_profit.mean,
                r.mean_consumer_profit.ci95_half_width(),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_statistics() {
        let r = Replicated::from_samples(&[1.0, 2.0, 3.0]);
        assert!((r.mean - 2.0).abs() < 1e-12);
        assert!((r.std_dev - 1.0).abs() < 1e-12);
        assert!((r.ci95_half_width() - 1.96 / 3.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_samples_yield_zero_count_not_nan() {
        let r = Replicated::from_samples(&[]);
        assert_eq!(r.n, 0);
        assert_eq!(r.mean, 0.0);
        assert_eq!(r.std_dev, 0.0);
        assert_eq!(r.ci95_half_width(), 0.0);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let r = Replicated::from_samples(&[5.0]);
        assert_eq!(r.std_dev, 0.0);
        assert_eq!(r.ci95_half_width(), 0.0);
    }

    #[test]
    fn replication_orders_policies_consistently() {
        let specs = [PolicySpec::Optimal, PolicySpec::CmabHs, PolicySpec::Random];
        let runs = replicate((16, 4, 4, 150), &specs, 4, 99, &RunConfig::default()).unwrap();
        assert_eq!(runs.len(), 3);
        // Mean ordering must be robust across the replications.
        assert!(runs[0].expected_revenue.mean >= runs[1].expected_revenue.mean);
        assert!(runs[1].expected_revenue.mean > runs[2].expected_revenue.mean);
        // Optimal's regret is identically zero ⇒ zero variance.
        assert!(runs[0].regret.mean.abs() < 1e-9);
        assert!(runs[0].regret.std_dev.abs() < 1e-9);
        // Random's regret varies across seeds.
        assert!(runs[2].regret.std_dev > 0.0);
    }

    #[test]
    fn table_renders_all_policies() {
        let serial = RunConfig::default();
        let runs = replicate((10, 3, 3, 60), &[PolicySpec::Random], 2, 5, &serial).unwrap();
        let t = replication_table("replications", &runs);
        assert_eq!(t.rows.len(), 1);
        assert!(t.to_string().contains("random"));
    }
}
