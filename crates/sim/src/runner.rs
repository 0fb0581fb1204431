//! Runs one policy through the mechanism's trading loop
//! ([`cdt_core::CmabHs::run`], the loop `cdt run` runs) against a
//! scenario, with checkpointed metric series. [`run_policy`] is the
//! unobserved serial oracle; pool jobs ([`crate::run_cells`]) call
//! [`run_policy_observed`] with their session's observer.

use crate::policy_spec::PolicySpec;
use cdt_bandit::RegretAccountant;
use cdt_core::{CmabHs, NullObserver, RoundObserver, Scenario, TradingLedger};
use cdt_obs::PhaseTimer;
use cdt_types::{CdtError, Result, SimRng};

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
/// The run is [`CmabHs::with_policy`]'s loop. Its settle rule settles
/// every round: it records the round into a [`TradingLedger`] and the
/// regret accountant, takes the due checkpoints, and reports the regret
/// with the time that work took. Observers are passive: for any observer
/// this returns the exact [`RunResult`] of [`run_policy`], bit for bit.
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
    let policy = spec.build(m, k, n, &scenario.population);
    let mut accountant =
        RegretAccountant::new(scenario.population.expected_qualities(), k, config.l());
    let mut ledger = TradingLedger::default();
    let mut snapshots = Vec::with_capacity(checkpoints.len() + 1);
    let mut next_checkpoint = 0usize;

    CmabHs::with_policy(config.clone(), policy).run(
        &scenario.observer(),
        &mut SimRng::new(seed),
        obs,
        |outcome, obs| {
            let mut timer = PhaseTimer::start(O::ENABLED);
            accountant.record(&outcome.selected);
            ledger.record(outcome);

            let done = ledger.rounds();
            let due = next_checkpoint < checkpoints.len() && checkpoints[next_checkpoint] == done;
            if due || done == n {
                snapshots.push(Checkpoint {
                    rounds: done,
                    expected_revenue: accountant.expected_revenue(),
                    regret: accountant.regret(),
                    consumer_profit: ledger.total_consumer_profit(),
                    platform_profit: ledger.total_platform_profit(),
                    seller_profit: ledger.total_seller_profit(),
                });
                while next_checkpoint < checkpoints.len() && checkpoints[next_checkpoint] <= done {
                    next_checkpoint += 1;
                }
            }
            if O::ENABLED {
                obs.regret(outcome.round, accountant.regret(), timer.lap());
            }
            Ok::<_, CdtError>(true)
        },
    )?;

    Ok(RunResult {
        name: spec.label(),
        rounds: n,
        observed_revenue: ledger.total_observed_revenue(),
        expected_revenue: accountant.expected_revenue(),
        regret: accountant.regret(),
        mean_consumer_profit: ledger.total_consumer_profit() / n as f64,
        mean_platform_profit: ledger.total_platform_profit() / n as f64,
        mean_seller_profit: ledger.total_seller_profit() / (n as f64 * k as f64),
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

    /// `cdt compare`'s CMAB-HS run and `cdt run`'s are one loop: on the
    /// same scenario and seed, the runner's result is the ledger of the
    /// paper's mechanism, bit for bit.
    #[test]
    fn compare_and_run_share_one_loop() {
        let s = scenario(9);
        let seed = 17;
        let result = run_policy(&s, PolicySpec::CmabHs, seed, &[]).unwrap();
        let mut ledger = TradingLedger::default();
        CmabHs::new(s.config.clone())
            .run(
                &s.observer(),
                &mut SimRng::new(seed),
                &mut NullObserver,
                |o, _| {
                    ledger.record(o);
                    Ok::<_, CdtError>(true)
                },
            )
            .unwrap();
        // PoS per seller: the total over N·K, as `RunResult` computes it.
        let per_seller =
            ledger.total_seller_profit() / (ledger.rounds() as f64 * s.config.k() as f64);
        assert_eq!(result.rounds, ledger.rounds());
        for (runner, mechanism) in [
            (result.observed_revenue, ledger.total_observed_revenue()),
            (result.mean_consumer_profit, ledger.mean_consumer_profit()),
            (result.mean_platform_profit, ledger.mean_platform_profit()),
            (result.mean_seller_profit, per_seller),
        ] {
            assert_eq!(runner.to_bits(), mechanism.to_bits());
        }
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
