//! The CMAB-HS mechanism — Algorithm 1 of the paper, end to end.

use crate::round::{play_round, RoundOutcome, RoundScratch};
use cdt_bandit::{CmabUcbPolicy, SelectionPolicy};
use cdt_obs::RoundObserver;
use cdt_quality::QualityObserver;
use cdt_types::{CdtError, Result, Round, SimRng, SystemConfig};

/// The CMAB-HS data trading mechanism.
///
/// Owns the platform-side state — the selection policy and the round
/// counter — and runs the trading loop of Algorithm 1 against a hidden
/// environment ([`QualityObserver`]):
///
/// - **round 0**: select all `M` sellers at the fixed initial strategy
///   (`τ⁰`, `p_max`, break-even `p^J`), observe, learn;
/// - **rounds 1..N**: select `K` sellers — the top `K` by UCB for the
///   paper's policy — play the three-stage Stackelberg game for
///   `⟨p^{J*}, p*, τ*⟩`, observe, learn.
///
/// [`CmabHs::new`] runs the paper's extended-UCB policy;
/// [`CmabHs::with_policy`] runs the same loop with any other, so the
/// evaluation's baselines trade exactly as CMAB-HS does.
pub struct CmabHs {
    config: SystemConfig,
    policy: Box<dyn SelectionPolicy>,
    next_round: Round,
}

impl CmabHs {
    /// The paper's mechanism for a validated system configuration: the
    /// extended-UCB policy of Eq. 19 over its `M` sellers.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        let policy = Box::new(CmabUcbPolicy::new(config.m(), config.k()));
        Self::with_policy(config, policy)
    }

    /// The mechanism with `policy` selecting the sellers in place of UCB.
    #[must_use]
    pub fn with_policy(config: SystemConfig, policy: Box<dyn SelectionPolicy>) -> Self {
        Self {
            config,
            policy,
            next_round: Round::FIRST,
        }
    }

    /// The system configuration this mechanism runs.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The round the next [`CmabHs::step`] will execute.
    #[must_use]
    pub fn next_round(&self) -> Round {
        self.next_round
    }

    /// Read access to the mechanism's selection policy (estimates, indices).
    #[must_use]
    pub fn policy(&self) -> &dyn SelectionPolicy {
        self.policy.as_ref()
    }

    /// `true` once all `N` configured rounds have run.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.next_round.index() >= self.config.n()
    }

    /// Executes the next round into `scratch`, reusing its buffers (after
    /// the first round a step allocates nothing), and emits structured
    /// round events to `obs` (statically dispatched: [`cdt_obs::NullObserver`]
    /// compiles to the plain path).
    ///
    /// # Errors
    /// Returns [`CdtError::HorizonExhausted`] after the `N`-th round, and
    /// propagates game-construction errors.
    pub fn step<'a, O: RoundObserver>(
        &mut self,
        observer: &QualityObserver,
        rng: &mut SimRng,
        scratch: &'a mut RoundScratch,
        obs: &mut O,
    ) -> Result<&'a RoundOutcome> {
        if self.is_finished() {
            return Err(CdtError::HorizonExhausted { n: self.config.n() });
        }
        let outcome = play_round(
            self.policy.as_mut(),
            &self.config,
            observer,
            self.next_round,
            rng,
            scratch,
            obs,
        )?;
        self.next_round = self.next_round.next();
        Ok(outcome)
    }

    /// Runs the remaining rounds — Algorithm 1's loop, with each round
    /// closed by a settlement (Fig. 2).
    ///
    /// Each round is stepped (observed by `obs`) and handed to `settle`
    /// with the same observer: `Ok(true)` settles it, `Ok(false)` refuses
    /// it and ends the run, and an error ends the run with that error. The
    /// refused round ran in full: the mechanism has learned from it, and
    /// [`CmabHs::next_round`] is past it. The loop keeps no accounts; a
    /// rule records what it settles, typically into a
    /// [`crate::TradingLedger`]. A rule that settles every round runs the
    /// paper's job of `N` rounds; a [`crate::Budget`] refuses the first
    /// round it cannot pay for.
    ///
    /// # Errors
    /// Propagates the first round error, or the first error of `settle`.
    pub fn run<O: RoundObserver, E: From<CdtError>>(
        &mut self,
        observer: &QualityObserver,
        rng: &mut SimRng,
        obs: &mut O,
        mut settle: impl FnMut(&RoundOutcome, &mut O) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        let mut scratch = RoundScratch::new();
        while !self.is_finished() {
            let outcome = self.step(observer, rng, &mut scratch, obs)?;
            if !settle(outcome, obs)? {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::TradingLedger;
    use cdt_obs::NullObserver;

    fn scenario(m: usize, k: usize, l: usize, n: usize, seed: u64) -> (Scenario, SimRng) {
        let mut rng = SimRng::new(seed);
        let s = Scenario::paper_defaults(m, k, l, n, &mut rng).unwrap();
        (s, rng)
    }

    /// Runs every remaining round, settling each into the ledger.
    fn run_all(mech: &mut CmabHs, s: &Scenario, rng: &mut SimRng) -> TradingLedger {
        let mut ledger = TradingLedger::default();
        mech.run(&s.observer(), rng, &mut NullObserver, |o, _| {
            ledger.record(o);
            Ok::<_, CdtError>(true)
        })
        .unwrap();
        ledger
    }

    #[test]
    fn runs_the_configured_horizon() {
        let (s, mut rng) = scenario(10, 3, 4, 25, 1);
        let mut mech = CmabHs::new(s.config.clone());
        let ledger = run_all(&mut mech, &s, &mut rng);
        assert_eq!(ledger.rounds(), 25);
        assert!(mech.is_finished());
    }

    #[test]
    fn first_round_selects_all_then_k() {
        let (s, mut rng) = scenario(8, 2, 4, 5, 2);
        let mut mech = CmabHs::new(s.config.clone());
        let obs = s.observer();
        let mut scratch = RoundScratch::new();
        let r0 = mech.step(&obs, &mut rng, &mut scratch, &mut NullObserver);
        assert_eq!(r0.unwrap().selection_size(), 8);
        let r1 = mech.step(&obs, &mut rng, &mut scratch, &mut NullObserver);
        assert_eq!(r1.unwrap().selection_size(), 2);
    }

    #[test]
    fn stepping_past_horizon_errors() {
        let (s, mut rng) = scenario(5, 2, 3, 2, 3);
        let mut mech = CmabHs::new(s.config.clone());
        run_all(&mut mech, &s, &mut rng);
        let mut scratch = RoundScratch::new();
        assert!(matches!(
            mech.step(&s.observer(), &mut rng, &mut scratch, &mut NullObserver),
            Err(CdtError::HorizonExhausted { n: 2 })
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let (s, mut rng) = scenario(10, 3, 4, 30, seed);
            let mut mech = CmabHs::new(s.config.clone());
            let ledger = run_all(&mut mech, &s, &mut rng);
            (
                ledger.total_observed_revenue(),
                ledger.total_consumer_profit(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A `settle` error ends the run with that error; the mechanism is
    /// past the round that failed to settle.
    #[test]
    fn settle_error_stops_the_run() {
        let (s, mut rng) = scenario(10, 3, 4, 30, 4);
        let mut mech = CmabHs::new(s.config.clone());
        let mut seen = 0;
        let err = mech
            .run(&s.observer(), &mut rng, &mut NullObserver, |o, _| {
                seen += 1;
                if o.round.index() == 3 {
                    return Err(CdtError::config("settlement failed"));
                }
                Ok(true)
            })
            .unwrap_err();
        assert_eq!(err, CdtError::config("settlement failed"));
        assert_eq!(seen, 4);
        assert_eq!(mech.next_round().index(), 4);
    }

    #[test]
    fn mechanism_learns_qualities() {
        let (s, mut rng) = scenario(10, 3, 10, 400, 5);
        let mut mech = CmabHs::new(s.config.clone());
        run_all(&mut mech, &s, &mut rng);
        // After 400 rounds the UCB estimates of the true top-K sellers
        // should be close to their true qualities.
        let truth = s.population.expected_qualities();
        let ranking = s.population.ranking_by_true_quality();
        for &id in ranking.iter().take(3) {
            let est = mech.policy().estimator().mean(id);
            assert!(
                (est - truth[id.index()]).abs() < 0.05,
                "seller {id}: est {est} vs true {}",
                truth[id.index()]
            );
        }
    }

    #[test]
    fn all_parties_profit_over_the_run() {
        let (s, mut rng) = scenario(12, 4, 5, 40, 6);
        let mut mech = CmabHs::new(s.config.clone());
        let ledger = run_all(&mut mech, &s, &mut rng);
        assert!(ledger.total_consumer_profit() > 0.0);
        assert!(ledger.total_platform_profit() >= -1e-9);
        assert!(ledger.total_seller_profit() > 0.0);
    }
}
