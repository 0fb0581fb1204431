//! Runs one policy through the full trading loop against a scenario,
//! with checkpointed metric series. [`run_policy`] is the unobserved
//! serial oracle; pool jobs ([`crate::run_cells`]) call
//! [`run_policy_observed`] with their session's observer.

use crate::policy_spec::PolicySpec;
use cdt_bandit::RegretAccountant;
use cdt_core::{execute_round_observed_into, NullObserver, RoundObserver, RoundScratch, Scenario};
use cdt_obs::PhaseTimer;
use cdt_types::{Result, Round, SimRng};

/// A snapshot of the cumulative metrics after a given number of rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Rounds completed when the snapshot was taken.
    pub rounds: usize,
    /// Cumulative *expected* revenue (true-quality units, Eq. 1).
    pub expected_revenue: f64,
    /// Cumulative expected regret against the optimal policy (Eq. 34).
    pub regret: f64,
    /// Cumulative consumer profit.
    pub consumer_profit: f64,
    /// Cumulative platform profit.
    pub platform_profit: f64,
    /// Cumulative total seller profit.
    pub seller_profit: f64,
}

/// Full result of one policy run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The policy's display label.
    pub name: String,
    /// Rounds executed (`N`).
    pub rounds: usize,
    /// Total *observed* (sampled) revenue.
    pub observed_revenue: f64,
    /// Total expected revenue (regret accounting units).
    pub expected_revenue: f64,
    /// Final cumulative regret (Eq. 34).
    pub regret: f64,
    /// Mean per-round consumer profit (PoC).
    pub mean_consumer_profit: f64,
    /// Mean per-round platform profit (PoP).
    pub mean_platform_profit: f64,
    /// Mean per-round per-*seller* profit (PoS(s) as plotted in Fig. 12(c):
    /// total seller profit / rounds / K).
    pub mean_seller_profit: f64,
    /// Metric snapshots at the requested checkpoints (plus the final round).
    pub checkpoints: Vec<Checkpoint>,
}

/// Runs `spec` on `scenario` for the configured horizon with its own
/// RNG stream derived from `seed`: the plain serial loop, never observed,
/// and the oracle every pooled or observed run must match bit for bit.
///
/// `checkpoints` is a sorted list of round counts at which to snapshot the
/// cumulative metrics (useful to read one long run as a "revenue vs N"
/// curve for horizon-oblivious policies). The final round is always
/// snapshotted.
///
/// # Errors
/// Propagates round-execution errors.
pub fn run_policy(
    scenario: &Scenario,
    spec: PolicySpec,
    seed: u64,
    checkpoints: &[usize],
) -> Result<RunResult> {
    run_policy_observed(scenario, spec, seed, checkpoints, &mut NullObserver)
}

/// As [`run_policy`], but emits structured round events (including the
/// `regret` hook with [account-phase] timing) to `obs`.
///
/// Observers are passive: for any observer this returns the exact
/// [`RunResult`] of [`run_policy`], bit for bit.
///
/// [account-phase]: cdt_obs::Phase::Account
///
/// # Errors
/// Propagates round-execution errors.
pub fn run_policy_observed<O: RoundObserver>(
    scenario: &Scenario,
    spec: PolicySpec,
    seed: u64,
    checkpoints: &[usize],
    obs: &mut O,
) -> Result<RunResult> {
    let config = &scenario.config;
    let (m, k, n) = (config.m(), config.k(), config.n());
    let mut policy = spec.build(m, k, n, &scenario.population);
    let observer = scenario.observer();
    let mut rng = SimRng::new(seed);

    let mut accountant =
        RegretAccountant::new(scenario.population.expected_qualities(), k, config.l());
    let mut consumer_profit = 0.0;
    let mut platform_profit = 0.0;
    let mut seller_profit = 0.0;
    let mut observed_revenue = 0.0;
    let mut snapshots = Vec::with_capacity(checkpoints.len() + 1);
    let mut next_checkpoint = 0usize;

    // One scratch per run: its buffers reach their working size in the
    // first rounds, and every later round runs allocation-free.
    let mut scratch = RoundScratch::new();
    for t in 0..n {
        let outcome = execute_round_observed_into(
            policy.as_mut(),
            config,
            &observer,
            Round(t),
            &mut rng,
            &mut scratch,
            obs,
        )?;
        let mut timer = PhaseTimer::start(O::ENABLED);
        accountant.record(&outcome.selected);
        consumer_profit += outcome.strategy.profits.consumer;
        platform_profit += outcome.strategy.profits.platform;
        seller_profit += outcome.strategy.profits.total_seller();
        observed_revenue += outcome.observed_revenue;

        let done = t + 1;
        let due = next_checkpoint < checkpoints.len() && checkpoints[next_checkpoint] == done;
        if due || done == n {
            snapshots.push(Checkpoint {
                rounds: done,
                expected_revenue: accountant.expected_revenue(),
                regret: accountant.regret(),
                consumer_profit,
                platform_profit,
                seller_profit,
            });
            while next_checkpoint < checkpoints.len() && checkpoints[next_checkpoint] <= done {
                next_checkpoint += 1;
            }
        }
        if O::ENABLED {
            obs.regret(Round(t), accountant.regret(), timer.lap());
        }
    }

    Ok(RunResult {
        name: spec.label(),
        rounds: n,
        observed_revenue,
        expected_revenue: accountant.expected_revenue(),
        regret: accountant.regret(),
        mean_consumer_profit: consumer_profit / n as f64,
        mean_platform_profit: platform_profit / n as f64,
        mean_seller_profit: seller_profit / (n as f64 * k as f64),
        checkpoints: snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(seed: u64) -> Scenario {
        let mut rng = SimRng::new(seed);
        Scenario::paper_defaults(20, 4, 5, 120, &mut rng).unwrap()
    }

    #[test]
    fn run_produces_final_checkpoint() {
        let s = scenario(1);
        let r = run_policy(&s, PolicySpec::CmabHs, 99, &[]).unwrap();
        assert_eq!(r.rounds, 120);
        assert_eq!(r.checkpoints.len(), 1);
        assert_eq!(r.checkpoints[0].rounds, 120);
        assert!(r.observed_revenue > 0.0);
    }

    #[test]
    fn checkpoints_are_monotone() {
        let s = scenario(2);
        let r = run_policy(&s, PolicySpec::CmabHs, 99, &[30, 60, 90]).unwrap();
        assert_eq!(r.checkpoints.len(), 4);
        for w in r.checkpoints.windows(2) {
            assert!(w[1].rounds > w[0].rounds);
            assert!(w[1].expected_revenue >= w[0].expected_revenue);
        }
    }

    #[test]
    fn optimal_policy_has_near_zero_regret_after_round_zero() {
        let s = scenario(3);
        let r = run_policy(&s, PolicySpec::Optimal, 99, &[]).unwrap();
        // Optimal selects S* in every round ⇒ regret exactly 0.
        assert!(r.regret.abs() < 1e-9, "regret = {}", r.regret);
    }

    #[test]
    fn random_policy_has_positive_regret() {
        let s = scenario(4);
        let r = run_policy(&s, PolicySpec::Random, 99, &[]).unwrap();
        assert!(r.regret > 0.0);
    }

    #[test]
    fn cmab_beats_random_in_revenue() {
        let s = scenario(5);
        let cmab = run_policy(&s, PolicySpec::CmabHs, 99, &[]).unwrap();
        let random = run_policy(&s, PolicySpec::Random, 99, &[]).unwrap();
        assert!(cmab.expected_revenue > random.expected_revenue);
        assert!(cmab.regret < random.regret);
    }

    #[test]
    fn identical_seed_identical_result() {
        let s = scenario(6);
        let a = run_policy(&s, PolicySpec::CmabHs, 42, &[50]).unwrap();
        let b = run_policy(&s, PolicySpec::CmabHs, 42, &[50]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn observed_run_matches_plain_run_bit_for_bit() {
        let s = scenario(8);
        let plain = run_policy(&s, PolicySpec::CmabHs, 7, &[40]).unwrap();
        let mut rec = cdt_obs::RecordingObserver::new("runner-unit");
        let observed = run_policy_observed(&s, PolicySpec::CmabHs, 7, &[40], &mut rec).unwrap();
        assert_eq!(plain, observed);
        // 6 events per round: start, selection, equilibrium, observation,
        // round_end, regret.
        assert_eq!(rec.records.len(), plain.rounds * 6);
    }

    #[test]
    fn checkpoint_at_finds_snapshots() {
        let s = scenario(7);
        let r = run_policy(&s, PolicySpec::Random, 1, &[30]).unwrap();
        let taken = |rounds| r.checkpoints.iter().any(|c| c.rounds == rounds);
        assert!(taken(30));
        assert!(!taken(31));
    }
}
