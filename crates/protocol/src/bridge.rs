//! Adapters from the mechanism's [`RoundOutcome`] to protocol events.

use crate::event::MarketEvent;
use cdt_core::RoundOutcome;

/// The five per-round events implied by one executed round, in protocol
/// order. Append them to an [`crate::EventLog`] after `JobPublished`.
#[must_use]
pub fn events_for_round(outcome: &RoundOutcome) -> Vec<MarketEvent> {
    let strategy = &outcome.strategy;
    let seller_payments: Vec<f64> = strategy
        .sensing_times
        .iter()
        .map(|&tau| strategy.collection_price * tau)
        .collect();
    vec![
        MarketEvent::SellersSelected {
            round: outcome.round,
            sellers: outcome.selected.clone(),
        },
        MarketEvent::StrategyDetermined {
            round: outcome.round,
            service_price: strategy.service_price,
            collection_price: strategy.collection_price,
            sensing_times: strategy.sensing_times.clone(),
        },
        MarketEvent::DataCollected {
            round: outcome.round,
            observed_revenue: outcome.observed_revenue,
        },
        MarketEvent::StatisticsDelivered {
            round: outcome.round,
        },
        MarketEvent::PaymentsSettled {
            round: outcome.round,
            consumer_payment: strategy.consumer_payment(),
            seller_payments,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::EventLog;
    use cdt_core::{CmabHs, Scenario};
    use cdt_types::SimRng;

    #[test]
    fn full_mechanism_run_journals_cleanly() {
        // Every round the real mechanism produces must pass the protocol
        // state machine — selection arity, strategy arity, and settlement
        // amounts all line up by construction.
        let mut rng = SimRng::new(1);
        let scenario = Scenario::paper_defaults(10, 3, 4, 15, &mut rng).unwrap();
        let mut mech = CmabHs::new(scenario.config.clone()).unwrap();
        let observer = scenario.observer();

        let mut log = EventLog::new();
        log.append(MarketEvent::JobPublished {
            job: scenario.config.job.clone(),
        })
        .unwrap();
        let mut rounds = 0;
        while !mech.is_finished() {
            let outcome = mech.step(&observer, &mut rng).unwrap();
            for e in events_for_round(&outcome) {
                log.append(e).unwrap_or_else(|err| {
                    panic!("round {}: {err}", outcome.round.index());
                });
            }
            rounds += 1;
        }
        log.append(MarketEvent::JobCompleted { rounds }).unwrap();
        assert!(log.state().is_completed());
        assert_eq!(log.state().settled_rounds(), 15);

        // The serialized journal replays, and its audit totals match the
        // economics of the run.
        let view = crate::load_journal_text(log.to_json_lines(), "run.jsonl").unwrap();
        assert_eq!(view.events, log.len() as u64);
        assert!(view.consumer_total() > 0.0);
        assert!(view.seller_total() > 0.0);
        assert!(view.consumer_total() > view.seller_total());
    }

    #[test]
    fn events_match_outcome_amounts() {
        let mut rng = SimRng::new(2);
        let scenario = Scenario::paper_defaults(6, 2, 3, 3, &mut rng).unwrap();
        let mut mech = CmabHs::new(scenario.config.clone()).unwrap();
        let outcome = mech.step(&scenario.observer(), &mut rng).unwrap();
        let events = events_for_round(&outcome);
        assert_eq!(events.len(), 5);
        match &events[4] {
            MarketEvent::PaymentsSettled {
                consumer_payment,
                seller_payments,
                ..
            } => {
                assert!((consumer_payment - outcome.strategy.consumer_payment()).abs() < 1e-12);
                let total: f64 = seller_payments.iter().sum();
                assert!((total - outcome.strategy.seller_payment()).abs() < 1e-9);
            }
            other => panic!("expected settlement, got {}", other.kind()),
        }
    }
}
