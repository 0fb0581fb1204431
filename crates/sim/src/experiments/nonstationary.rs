//! Extension experiment: non-stationary qualities (Def. 3's Remark made
//! concrete) — abrupt quality drift, dynamic regret, and the SW-UCB
//! extension vs the paper's stationary CMAB-HS.
//!
//! Setup: at round `N/2` the bottom half of the sellers (by initial
//! quality) swaps expected qualities with the top half. A stationary
//! estimator then keeps selecting the stale top-K; the sliding-window
//! policy re-converges. Regret here is *dynamic*: measured against the
//! per-round true top-K.

use super::Scale;
use crate::parallel::{parallel_map, RunConfig};
use crate::report::{Series, Table};
use cdt_bandit::{CmabUcbPolicy, RandomPolicy, SelectionPolicy, SlidingWindowUcbPolicy};
use cdt_quality::{DriftModel, DriftingObserver, SellerPopulation};
use cdt_types::{Result, Round, SellerId, SimRng};

/// Configuration of the drift experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of sellers `M`.
    pub m: usize,
    /// Selection size `K`.
    pub k: usize,
    /// Number of PoIs `L`.
    pub l: usize,
    /// Horizon `N` (the change point is `N/2`).
    pub n: usize,
    /// SW-UCB window, in observations.
    pub window: usize,
    /// Master seed.
    pub seed: u64,
    /// Number of checkpoints along the horizon.
    pub checkpoints: usize,
}

/// The drift-experiment configuration for a scale.
#[must_use]
pub fn config(scale: Scale) -> Config {
    match scale {
        Scale::Paper => Config {
            m: 100,
            k: 10,
            l: 10,
            n: 20_000,
            window: 400,
            seed: 20210419,
            checkpoints: 20,
        },
        Scale::Test => Config {
            m: 20,
            k: 4,
            l: 4,
            n: 1_000,
            window: 80,
            seed: 20210419,
            checkpoints: 10,
        },
    }
}

/// Builds the abrupt-swap drifting observer: seller `i`'s post-change mean
/// is the pre-change mean of seller `M−1−i` in the quality ranking.
fn drifting_observer(cfg: &Config) -> DriftingObserver {
    let mut rng = SimRng::new(cfg.seed);
    let population = SellerPopulation::generate_paper_defaults(cfg.m, 0.1, &mut rng);
    let ranking = population.ranking_by_true_quality();
    let truth = population.expected_qualities();
    // mirrored[i] = quality of the seller mirrored across the ranking.
    let mut mirrored = vec![0.0; cfg.m];
    for (pos, &id) in ranking.iter().enumerate() {
        let partner = ranking[cfg.m - 1 - pos];
        mirrored[id.index()] = truth[partner.index()];
    }
    let drifts = (0..cfg.m)
        .map(|i| DriftModel::Abrupt {
            at_round: cfg.n / 2,
            new_mean: mirrored[i],
        })
        .collect();
    DriftingObserver::new(population, drifts, 0.1, cfg.l)
}

/// Runs one policy against the drifting environment, returning dynamic
/// regret at each checkpoint.
fn run_dynamic(
    policy: &mut dyn SelectionPolicy,
    observer: &DriftingObserver,
    cfg: &Config,
    seed: u64,
) -> Vec<(usize, f64)> {
    let mut rng = SimRng::new(seed);
    let step = (cfg.n / cfg.checkpoints).max(1);
    let mut regret = 0.0;
    let mut out = Vec::with_capacity(cfg.checkpoints);
    let mut selected = Vec::with_capacity(cfg.k);
    for t in 0..cfg.n {
        let round = Round(t);
        policy.select_into(round, &mut rng, &mut selected);
        let selected_sum: f64 = selected.iter().map(|&id| observer.mean_at(id, round)).sum();
        let optimal = observer.optimal_quality_sum_at(round, cfg.k);
        regret += (optimal - selected_sum) * cfg.l as f64;
        let observations = observer.observe_round(round, &selected, &mut rng);
        policy.observe(round, &observations);
        if (t + 1) % step == 0 || t + 1 == cfg.n {
            out.push((t + 1, regret));
        }
    }
    out
}

/// A per-round "dynamic oracle" that tracks the drifting truth.
struct DynamicOracle<'a> {
    observer: &'a DriftingObserver,
    k: usize,
    estimator: cdt_bandit::QualityEstimator,
}

impl SelectionPolicy for DynamicOracle<'_> {
    fn name(&self) -> String {
        "dynamic-optimal".into()
    }

    fn select(&mut self, round: Round, _rng: &mut SimRng) -> Vec<SellerId> {
        cdt_bandit::top_k_by_score(&self.observer.means_at(round), self.k)
    }

    fn observe(&mut self, _round: Round, observations: &cdt_quality::ObservationMatrix) {
        self.estimator.update_round(observations);
    }

    fn game_quality(&self, id: SellerId) -> f64 {
        self.estimator.mean(id)
    }

    fn estimator(&self) -> &cdt_bandit::QualityEstimator {
        &self.estimator
    }
}

/// Runs the experiment: dynamic regret of CMAB-HS (stationary), SW-UCB,
/// the dynamic oracle, and random.
///
/// # Errors
/// Currently infallible; `Result` for registry uniformity.
pub fn run(cfg: &Config, rc: &RunConfig) -> Result<Vec<Table>> {
    let observer = drifting_observer(cfg);

    // Four independent (policy, seed) jobs over the shared drifting truth.
    // Each job constructs its own policy and owns its RNG stream
    // (`cfg.seed + 1 + i`, matching the serial ordering), so the fan-out is
    // bit-for-bit identical to running the policies in sequence.
    let names = [
        "dynamic-optimal",
        "SW-UCB",
        "CMAB-HS (stationary)",
        "random",
    ];
    let jobs: Vec<usize> = (0..names.len()).collect();
    let curves = parallel_map(&jobs, rc, |_, &i| {
        let mut policy: Box<dyn SelectionPolicy + '_> = match i {
            0 => Box::new(DynamicOracle {
                observer: &observer,
                k: cfg.k,
                estimator: cdt_bandit::QualityEstimator::new(cfg.m),
            }),
            1 => Box::new(SlidingWindowUcbPolicy::new(cfg.m, cfg.k, cfg.window)),
            2 => Box::new(CmabUcbPolicy::new(cfg.m, cfg.k)),
            _ => Box::new(RandomPolicy::new(cfg.m, cfg.k)),
        };
        run_dynamic(policy.as_mut(), &observer, cfg, cfg.seed + 1 + i as u64)
    });
    let runs: Vec<(String, Vec<(usize, f64)>)> =
        names.iter().map(|n| (*n).to_string()).zip(curves).collect();

    let x: Vec<f64> = runs[0].1.iter().map(|&(t, _)| t as f64).collect();
    let series: Vec<Series> = runs
        .iter()
        .map(|(name, points)| {
            Series::new(
                name.clone(),
                x.clone(),
                points.iter().map(|&(_, r)| r).collect(),
            )
        })
        .collect();
    Ok(vec![Series::tabulate(
        format!(
            "Extension: dynamic regret under abrupt quality swap at round {}",
            cfg.n / 2
        ),
        "rounds",
        &series,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Cell;

    fn col(t: &Table, i: usize) -> Vec<f64> {
        t.rows
            .iter()
            .map(|r| match &r[i] {
                Cell::Num(x) => *x,
                Cell::Text(_) => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn sw_ucb_beats_stationary_cmab_under_drift() {
        let cfg = config(Scale::Test);
        let tables = run(&cfg, &RunConfig::default()).unwrap();
        let t = &tables[0];
        // Columns: rounds, dynamic-optimal, SW-UCB, CMAB-HS, random.
        let sw = col(t, 2);
        let cmab = col(t, 3);
        let random = col(t, 4);
        let last = sw.len() - 1;
        assert!(
            sw[last] < cmab[last],
            "SW-UCB {} should beat stationary CMAB-HS {} under drift",
            sw[last],
            cmab[last]
        );
        assert!(sw[last] < random[last]);
    }

    #[test]
    fn drift_hurts_stationary_cmab_more_than_sw_ucb_after_change_point() {
        // Regret *accumulated after the swap*: the stationary estimator
        // keeps averaging stale pre-swap evidence, the windowed one
        // forgets it. At this scale one replication's ratio is noisy, so
        // the comparison pools 8 replications.
        let (mut cmab_post, mut sw_post) = (0.0, 0.0);
        for rep in 0..8 {
            let mut cfg = config(Scale::Test);
            cfg.seed = cdt_types::mix_seed(cfg.seed, rep);
            let tables = run(&cfg, &RunConfig::default()).unwrap();
            let t = &tables[0];
            let rounds = col(t, 0);
            let sw = col(t, 2);
            let cmab = col(t, 3);
            let mid = rounds
                .iter()
                .position(|&r| r as usize >= cfg.n / 2)
                .unwrap();
            let last = rounds.len() - 1;
            cmab_post += cmab[last] - cmab[mid];
            sw_post += sw[last] - sw[mid];
        }
        assert!(
            cmab_post > 1.5 * sw_post,
            "post-drift regret: stationary {cmab_post} vs SW-UCB {sw_post}"
        );
    }

    #[test]
    fn dynamic_oracle_has_least_regret() {
        let cfg = config(Scale::Test);
        let tables = run(&cfg, &RunConfig::default()).unwrap();
        let t = &tables[0];
        let oracle = col(t, 1);
        for c in 2..=4 {
            let other = col(t, c);
            assert!(oracle.last().unwrap() <= other.last().unwrap());
        }
    }
}
