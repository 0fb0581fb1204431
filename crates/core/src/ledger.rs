//! The trading ledger: cumulative accounting of revenues, payments, and
//! profits over the rounds a run settled.
//!
//! The trading loop ([`crate::CmabHs::run`]) keeps no accounts: its
//! settle rule records each round it settles here. Long-horizon
//! experiments run up to `N = 2·10⁵` rounds, so the ledger keeps totals
//! only. A caller that wants every [`RoundOutcome`] collects it in the
//! same settle rule.

use crate::round::RoundOutcome;

/// Cumulative trading records of the settled rounds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TradingLedger {
    rounds: usize,
    total_observed_revenue: f64,
    total_consumer_profit: f64,
    total_platform_profit: f64,
    total_seller_profit: f64,
    total_consumer_payment: f64,
    total_seller_payment: f64,
}

impl TradingLedger {
    /// Records one settled round. Never clones: the trading loop hands in
    /// the same reused [`crate::RoundScratch`] outcome every round.
    pub fn record(&mut self, outcome: &RoundOutcome) {
        let strategy = &outcome.strategy;
        // Στ once for both payments: the bits of `consumer_payment()` and
        // `seller_payment()`, which each sum it again.
        let total_sensing_time = strategy.total_sensing_time();
        self.rounds += 1;
        self.total_observed_revenue += outcome.observed_revenue;
        self.total_consumer_profit += strategy.profits.consumer;
        self.total_platform_profit += strategy.profits.platform;
        self.total_seller_profit += strategy.profits.total_seller();
        self.total_consumer_payment += strategy.service_price * total_sensing_time;
        self.total_seller_payment += strategy.collection_price * total_sensing_time;
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total realized revenue `Σ_t Σ_i Σ_l q_{i,l}^t χ_i^t` (Eq. 1).
    #[must_use]
    pub fn total_observed_revenue(&self) -> f64 {
        self.total_observed_revenue
    }

    /// Cumulative consumer profit (Σ PoC).
    #[must_use]
    pub fn total_consumer_profit(&self) -> f64 {
        self.total_consumer_profit
    }

    /// Cumulative platform profit (Σ PoP).
    #[must_use]
    pub fn total_platform_profit(&self) -> f64 {
        self.total_platform_profit
    }

    /// Cumulative profit over all selected sellers (Σ PoS).
    #[must_use]
    pub fn total_seller_profit(&self) -> f64 {
        self.total_seller_profit
    }

    /// Cumulative payments from the consumer to the platform.
    #[must_use]
    pub fn total_consumer_payment(&self) -> f64 {
        self.total_consumer_payment
    }

    /// Cumulative payments from the platform to sellers.
    #[must_use]
    pub fn total_seller_payment(&self) -> f64 {
        self.total_seller_payment
    }

    /// Mean per-round consumer profit.
    #[must_use]
    pub fn mean_consumer_profit(&self) -> f64 {
        self.per_round(self.total_consumer_profit)
    }

    /// Mean per-round platform profit.
    #[must_use]
    pub fn mean_platform_profit(&self) -> f64 {
        self.per_round(self.total_platform_profit)
    }

    /// Mean per-round total seller profit.
    #[must_use]
    pub fn mean_seller_profit(&self) -> f64 {
        self.per_round(self.total_seller_profit)
    }

    fn per_round(&self, total: f64) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            total / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_game::{Aggregates, GameContext, Profits, SelectedSeller, StackelbergSolution};
    use cdt_types::{
        PlatformCostParams, PriceBounds, Round, SellerCostParams, SellerId, ValuationParams,
    };

    fn outcome(round: usize, revenue: f64, consumer: f64) -> RoundOutcome {
        let ctx = GameContext::new(
            vec![SelectedSeller::new(
                SellerId(0),
                0.5,
                SellerCostParams { a: 0.2, b: 0.3 },
            )],
            PlatformCostParams {
                theta: 0.1,
                lambda: 1.0,
            },
            ValuationParams { omega: 10.0 },
            PriceBounds::unbounded(),
            PriceBounds::unbounded(),
            f64::MAX,
        )
        .unwrap();
        RoundOutcome {
            round: Round(round),
            selected: vec![SellerId(0)],
            strategy: StackelbergSolution {
                service_price: 2.0,
                collection_price: 1.0,
                sensing_times: vec![3.0],
                seller_ids: vec![SellerId(0)],
                profits: Profits {
                    consumer,
                    platform: 0.5,
                    sellers: vec![0.25],
                },
                aggregates: Aggregates::from_context(&ctx),
            },
            observed_revenue: revenue,
        }
    }

    #[test]
    fn summary_mode_discards_outcomes_but_keeps_totals() {
        let mut l = TradingLedger::default();
        for t in 0..100 {
            l.record(&outcome(t, 1.0, 0.5));
        }
        l.record(&outcome(100, 4.0, 50.5));
        assert_eq!(l.rounds(), 101);
        assert!((l.total_observed_revenue() - 104.0).abs() < 1e-12);
        assert!((l.total_consumer_profit() - 100.5).abs() < 1e-12);
        assert!((l.mean_consumer_profit() - 100.5 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn payments_accumulate() {
        let mut l = TradingLedger::default();
        l.record(&outcome(0, 1.0, 1.0));
        // consumer payment = pJ·Στ = 2·3 = 6; seller payment = p·Στ = 3.
        assert!((l.total_consumer_payment() - 6.0).abs() < 1e-12);
        assert!((l.total_seller_payment() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_means_are_zero() {
        let l = TradingLedger::default();
        assert_eq!(l.mean_consumer_profit(), 0.0);
        assert_eq!(l.mean_platform_profit(), 0.0);
        assert_eq!(l.mean_seller_profit(), 0.0);
    }
}
