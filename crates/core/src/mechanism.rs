//! The CMAB-HS mechanism — Algorithm 1 of the paper, end to end.

use crate::ledger::{LedgerMode, TradingLedger};
use crate::round::{execute_round, execute_round_observed_into, RoundOutcome, RoundScratch};
use cdt_bandit::CmabUcbPolicy;
use cdt_obs::{NullObserver, RoundObserver};
use cdt_quality::QualityObserver;
use cdt_types::{CdtError, Result, Round, SimRng, SystemConfig};

/// The CMAB-HS data trading mechanism.
///
/// Owns the platform-side state — the extended-UCB selection policy and the
/// round counter — and runs the trading loop of Algorithm 1 against a
/// hidden environment ([`QualityObserver`]):
///
/// - **round 0**: select all `M` sellers at the fixed initial strategy
///   (`τ⁰`, `p_max`, break-even `p^J`), observe, learn;
/// - **rounds 1..N**: select the top-`K` sellers by UCB, play the
///   three-stage Stackelberg game for `⟨p^{J*}, p*, τ*⟩`, observe, learn.
pub struct CmabHs {
    config: SystemConfig,
    policy: CmabUcbPolicy,
    next_round: Round,
}

impl CmabHs {
    /// Creates a mechanism for a validated system configuration.
    ///
    /// # Errors
    /// Currently infallible for a validated [`SystemConfig`] but returns
    /// `Result` to keep room for cross-validation of config against future
    /// policy options.
    pub fn new(config: SystemConfig) -> Result<Self> {
        let policy = CmabUcbPolicy::new(config.m(), config.k());
        Ok(Self {
            config,
            policy,
            next_round: Round::FIRST,
        })
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

    /// Read access to the mechanism's UCB policy (estimates, indices).
    #[must_use]
    pub fn policy(&self) -> &CmabUcbPolicy {
        &self.policy
    }

    /// `true` once all `N` configured rounds have run.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.next_round.index() >= self.config.n()
    }

    /// Executes the next round.
    ///
    /// # Errors
    /// Returns [`CdtError::HorizonExhausted`] after the `N`-th round, and
    /// propagates game-construction errors.
    pub fn step(&mut self, observer: &QualityObserver, rng: &mut SimRng) -> Result<RoundOutcome> {
        if self.is_finished() {
            return Err(CdtError::HorizonExhausted { n: self.config.n() });
        }
        let outcome = execute_round(
            &mut self.policy,
            &self.config,
            observer,
            self.next_round,
            rng,
        )?;
        self.next_round = self.next_round.next();
        Ok(outcome)
    }

    /// Executes the next round into reusable scratch buffers (the
    /// allocation-free hot path; same RNG stream and results as
    /// [`CmabHs::step`]).
    ///
    /// # Errors
    /// Returns [`CdtError::HorizonExhausted`] after the `N`-th round, and
    /// propagates game-construction errors.
    pub fn step_into<'a>(
        &mut self,
        observer: &QualityObserver,
        rng: &mut SimRng,
        scratch: &'a mut RoundScratch,
    ) -> Result<&'a RoundOutcome> {
        self.step_observed_into(observer, rng, scratch, &mut NullObserver)
    }

    /// As [`CmabHs::step_into`], but emits structured round events to `obs`
    /// (statically dispatched; [`NullObserver`] compiles to the plain path).
    ///
    /// # Errors
    /// Returns [`CdtError::HorizonExhausted`] after the `N`-th round, and
    /// propagates game-construction errors.
    pub fn step_observed_into<'a, O: RoundObserver>(
        &mut self,
        observer: &QualityObserver,
        rng: &mut SimRng,
        scratch: &'a mut RoundScratch,
        obs: &mut O,
    ) -> Result<&'a RoundOutcome> {
        if self.is_finished() {
            return Err(CdtError::HorizonExhausted { n: self.config.n() });
        }
        let outcome = execute_round_observed_into(
            &mut self.policy,
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

    /// Runs all remaining rounds into a full ledger.
    ///
    /// # Errors
    /// Propagates the first round error encountered.
    pub fn run_to_completion(
        &mut self,
        observer: &QualityObserver,
        rng: &mut SimRng,
    ) -> Result<TradingLedger> {
        self.run_with_mode(observer, rng, LedgerMode::Full)
    }

    /// Runs all remaining rounds, controlling what the ledger retains.
    ///
    /// # Errors
    /// Propagates the first round error encountered.
    pub fn run_with_mode(
        &mut self,
        observer: &QualityObserver,
        rng: &mut SimRng,
        mode: LedgerMode,
    ) -> Result<TradingLedger> {
        self.run_with_mode_observed(observer, rng, mode, &mut NullObserver)
    }

    /// As [`CmabHs::run_with_mode`], but emits structured round events to
    /// `obs` for every round executed.
    ///
    /// # Errors
    /// Propagates the first round error encountered.
    pub fn run_with_mode_observed<O: RoundObserver>(
        &mut self,
        observer: &QualityObserver,
        rng: &mut SimRng,
        mode: LedgerMode,
        obs: &mut O,
    ) -> Result<TradingLedger> {
        // One scratch for the run: rounds after the first allocate nothing,
        // and only a full ledger clones the outcomes it keeps.
        let mut ledger = TradingLedger::new(mode);
        let mut scratch = RoundScratch::new();
        while !self.is_finished() {
            let outcome = self.step_observed_into(observer, rng, &mut scratch, obs)?;
            ledger.record_ref(outcome);
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn scenario(m: usize, k: usize, l: usize, n: usize, seed: u64) -> (Scenario, SimRng) {
        let mut rng = SimRng::new(seed);
        let s = Scenario::paper_defaults(m, k, l, n, &mut rng).unwrap();
        (s, rng)
    }

    #[test]
    fn runs_the_configured_horizon() {
        let (s, mut rng) = scenario(10, 3, 4, 25, 1);
        let mut mech = CmabHs::new(s.config.clone()).unwrap();
        let ledger = mech.run_to_completion(&s.observer(), &mut rng).unwrap();
        assert_eq!(ledger.rounds(), 25);
        assert!(mech.is_finished());
    }

    #[test]
    fn first_round_selects_all_then_k() {
        let (s, mut rng) = scenario(8, 2, 4, 5, 2);
        let mut mech = CmabHs::new(s.config.clone()).unwrap();
        let obs = s.observer();
        let r0 = mech.step(&obs, &mut rng).unwrap();
        assert_eq!(r0.selection_size(), 8);
        let r1 = mech.step(&obs, &mut rng).unwrap();
        assert_eq!(r1.selection_size(), 2);
    }

    #[test]
    fn stepping_past_horizon_errors() {
        let (s, mut rng) = scenario(5, 2, 3, 2, 3);
        let mut mech = CmabHs::new(s.config.clone()).unwrap();
        let obs = s.observer();
        mech.step(&obs, &mut rng).unwrap();
        mech.step(&obs, &mut rng).unwrap();
        assert!(matches!(
            mech.step(&obs, &mut rng),
            Err(CdtError::HorizonExhausted { n: 2 })
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let (s, mut rng) = scenario(10, 3, 4, 30, seed);
            let mut mech = CmabHs::new(s.config.clone()).unwrap();
            let ledger = mech.run_to_completion(&s.observer(), &mut rng).unwrap();
            (
                ledger.total_observed_revenue(),
                ledger.total_consumer_profit(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn mechanism_learns_qualities() {
        let (s, mut rng) = scenario(10, 3, 10, 400, 5);
        let mut mech = CmabHs::new(s.config.clone()).unwrap();
        let obs = s.observer();
        mech.run_with_mode(&obs, &mut rng, LedgerMode::Summary)
            .unwrap();
        // After 400 rounds the UCB estimates of the true top-K sellers
        // should be close to their true qualities.
        use cdt_bandit::SelectionPolicy as _;
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
        let mut mech = CmabHs::new(s.config.clone()).unwrap();
        let ledger = mech.run_to_completion(&s.observer(), &mut rng).unwrap();
        assert!(ledger.total_consumer_profit() > 0.0);
        assert!(ledger.total_platform_profit() >= -1e-9);
        assert!(ledger.total_seller_profit() > 0.0);
    }
}
