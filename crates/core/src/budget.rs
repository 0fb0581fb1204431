//! Budget-constrained trading — an extension of the paper's time-budgeted
//! job (`N` rounds) to a *monetary* budget.
//!
//! The paper's consumer buys `N` rounds outright; real procurement often
//! fixes a spend ceiling instead. A [`Budget`] is a settle rule for
//! [`crate::CmabHs::run`]: it admits a round while its payment fits in
//! what is left and refuses the first one that does not, which ends the
//! run. The consumer gets a hard spend guarantee while the round-level
//! behaviour (UCB selection + Stackelberg pricing) is unchanged — the
//! related budgeted-CMAB line of work the paper cites (`[25]`,
//! `[33]`–`[35]`) motivates exactly this stopping rule.

use crate::round::RoundOutcome;
use cdt_types::{CdtError, Result};

/// A consumer spend ceiling and the spend settled against it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    cap: f64,
    spent: f64,
}

impl Budget {
    /// A budget of `cap`, nothing spent yet.
    ///
    /// # Errors
    /// Rejects a cap that is not finite and positive.
    pub fn new(cap: f64) -> Result<Self> {
        if !(cap.is_finite() && cap > 0.0) {
            return Err(CdtError::invalid("budget", cap, "must be finite and > 0"));
        }
        Ok(Self { cap, spent: 0.0 })
    }

    /// Total consumer spend on the admitted rounds (≤ the cap).
    #[must_use]
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Settles `outcome` when its payment `p^J · Στ` fits in what is left,
    /// and refuses it otherwise. The round ran in full before it reaches
    /// settlement; a refused round is simply not paid for (a deployed
    /// platform would not have dispatched it).
    pub fn admit(&mut self, outcome: &RoundOutcome) -> bool {
        let payment = outcome.strategy.consumer_payment();
        if self.spent + payment > self.cap {
            return false;
        }
        self.spent += payment;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::CmabHs;
    use crate::scenario::Scenario;
    use crate::TradingLedger;
    use cdt_obs::NullObserver;
    use cdt_types::SimRng;

    fn scenario(n: usize, seed: u64) -> (Scenario, SimRng) {
        let mut rng = SimRng::new(seed);
        let s = Scenario::paper_defaults(12, 4, 5, n, &mut rng).unwrap();
        (s, rng)
    }

    /// Runs `s` with every round settled, returning the ledger and every
    /// outcome.
    fn accept_all(s: &Scenario, mut rng: SimRng) -> (TradingLedger, Vec<RoundOutcome>) {
        let mut ledger = TradingLedger::default();
        let mut outcomes = Vec::new();
        CmabHs::new(s.config.clone())
            .run(&s.observer(), &mut rng, &mut NullObserver, |o, _| {
                ledger.record(o);
                outcomes.push(o.clone());
                Ok::<_, CdtError>(true)
            })
            .unwrap();
        (ledger, outcomes)
    }

    /// Runs `s` under `budget`, returning the ledger and the outcomes the
    /// budget admitted.
    fn budgeted(
        s: &Scenario,
        mut rng: SimRng,
        budget: &mut Budget,
    ) -> (TradingLedger, Vec<RoundOutcome>) {
        let mut ledger = TradingLedger::default();
        let mut settled = Vec::new();
        CmabHs::new(s.config.clone())
            .run(&s.observer(), &mut rng, &mut NullObserver, |o, _| {
                let admitted = budget.admit(o);
                if admitted {
                    ledger.record(o);
                    settled.push(o.clone());
                }
                Ok::<_, CdtError>(admitted)
            })
            .unwrap();
        (ledger, settled)
    }

    #[test]
    fn generous_budget_reaches_horizon() {
        let (s, rng) = scenario(30, 1);
        let mut budget = Budget::new(1e12).unwrap();
        let (ledger, _) = budgeted(&s, rng, &mut budget);
        assert_eq!(ledger.rounds(), 30);
        assert!(budget.spent() > 0.0);
    }

    #[test]
    fn tight_budget_stops_early_and_never_overspends() {
        let (s, rng) = scenario(500, 2);
        // First find a typical per-round payment, then set a ~10-round cap.
        let (full, _) = accept_all(&s, rng.clone());
        let per_round = full.total_consumer_payment() / full.rounds() as f64;
        let cap = per_round * 10.0;
        let mut budget = Budget::new(cap).unwrap();
        let (ledger, _) = budgeted(&s, rng, &mut budget);
        assert!(
            budget.spent() <= cap,
            "overspent: {} > {cap}",
            budget.spent()
        );
        assert!(ledger.rounds() < 500);
        assert!(ledger.rounds() >= 2, "should afford a few rounds");
    }

    /// The rounds a budget admits are exactly the ledger's: the first
    /// rounds of the unbudgeted run of the same scenario and seed, bit for
    /// bit. The next round, whose payment would cross the cap, is refused
    /// and reaches neither, and the spend is the ledger's consumer
    /// payment, bit for bit: the same sums in the same order.
    #[test]
    fn settled_callback_sees_exactly_the_accounted_rounds() {
        let (s, rng) = scenario(500, 2);
        let (full, every) = accept_all(&s, rng.clone());
        let cap = full.total_consumer_payment() / full.rounds() as f64 * 10.0;
        let mut budget = Budget::new(cap).unwrap();
        let (ledger, settled) = budgeted(&s, rng, &mut budget);
        let n = ledger.rounds();
        assert!((1..500).contains(&n), "settled {n}");
        assert_eq!(settled[..], every[..n]);
        assert!(budget.spent() + every[n].strategy.consumer_payment() > cap);
        assert_eq!(
            budget.spent().to_bits(),
            ledger.total_consumer_payment().to_bits()
        );
    }

    #[test]
    fn rejects_non_positive_budget() {
        assert!(Budget::new(0.0).is_err());
        assert!(Budget::new(-5.0).is_err());
        assert!(Budget::new(f64::INFINITY).is_err());
        assert!(Budget::new(f64::NAN).is_err());
    }
}
