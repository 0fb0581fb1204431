//! End-to-end pipeline integration: synthetic Chicago trace → PoIs →
//! sellers → scenario → CMAB-HS trading → settlement, across crates.

use cdt_core::prelude::*;
use cdt_trace::{csv, Dataset, TraceConfig};
use cdt_types::SimRng;

/// Runs every round of `scenario`, settling each, and returns the ledger
/// with every round's outcome, collected as it settles.
fn run_all(
    mech: &mut CmabHs,
    scenario: &Scenario,
    rng: &mut SimRng,
) -> (TradingLedger, Vec<RoundOutcome>) {
    let mut ledger = TradingLedger::default();
    let mut outcomes = Vec::new();
    mech.run(&scenario.observer(), rng, &mut NullObserver, |o, _| {
        ledger.record(o);
        outcomes.push(o.clone());
        Ok::<_, CdtError>(true)
    })
    .unwrap();
    (ledger, outcomes)
}

#[test]
fn trace_to_trading_pipeline() {
    let mut rng = SimRng::new(1);
    let dataset = Dataset::build(&TraceConfig::small(), 5, 40, &mut rng);
    assert_eq!(dataset.l(), 5);
    assert!(dataset.m() > 10);

    let scenario = Scenario::from_dataset(&dataset, 4, 100, &mut rng).unwrap();
    let mut mech = CmabHs::new(scenario.config.clone());
    let (ledger, outcomes) = run_all(&mut mech, &scenario, &mut rng);

    assert_eq!(ledger.rounds(), 100);
    assert_eq!(outcomes.len(), 100);
    assert!(ledger.total_observed_revenue() > 0.0);
    // Round 0 selects all M; every other round selects K = 4.
    assert_eq!(outcomes[0].selection_size(), dataset.m());
    for o in &outcomes[1..] {
        assert_eq!(o.selection_size(), 4);
    }
}

#[test]
fn full_run_is_deterministic_across_processes() {
    // Two completely independent reconstructions from the same seed must
    // agree bit-for-bit — this is the reproducibility contract of the
    // whole evaluation.
    let run = || {
        let mut rng = SimRng::new(99);
        let dataset = Dataset::build(&TraceConfig::small(), 5, 30, &mut rng);
        let scenario = Scenario::from_dataset(&dataset, 3, 60, &mut rng).unwrap();
        let mut mech = CmabHs::new(scenario.config.clone());
        let (ledger, _) = run_all(&mut mech, &scenario, &mut rng);
        (
            ledger.total_observed_revenue(),
            ledger.total_consumer_profit(),
            ledger.total_platform_profit(),
            ledger.total_seller_profit(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn trace_csv_round_trips_through_the_pipeline() {
    let mut rng = SimRng::new(3);
    let dataset = Dataset::build(&TraceConfig::small(), 5, 30, &mut rng);
    let exported = csv::to_csv(&dataset.records);
    let reimported = csv::from_csv(&exported).unwrap();
    assert_eq!(reimported.len(), dataset.records.len());
    // PoI extraction on the re-imported trace matches the original.
    let pois = cdt_trace::extract_pois(&reimported, 5);
    assert_eq!(pois, dataset.pois);
}

#[test]
fn money_flows_are_conserved_each_round() {
    // Consumer payment = platform income; platform payment + aggregation
    // cost + platform profit = consumer payment. All of it must reconcile
    // from the public ledger.
    let mut rng = SimRng::new(4);
    let scenario = Scenario::paper_defaults(15, 4, 5, 30, &mut rng).unwrap();
    let theta = scenario.config.platform_cost.theta;
    let lambda = scenario.config.platform_cost.lambda;
    let mut mech = CmabHs::new(scenario.config.clone());
    let (_, outcomes) = run_all(&mut mech, &scenario, &mut rng);
    for o in &outcomes {
        let total_tau = o.strategy.total_sensing_time();
        let aggregation_cost = theta * total_tau * total_tau + lambda * total_tau;
        let lhs = o.strategy.consumer_payment();
        let rhs = o.strategy.seller_payment() + aggregation_cost + o.strategy.profits.platform;
        assert!(
            (lhs - rhs).abs() < 1e-6,
            "round {}: payment {lhs} != outflow {rhs}",
            o.round.index()
        );
    }
}

#[test]
fn estimates_converge_to_truth_with_long_horizons() {
    let mut rng = SimRng::new(5);
    let scenario = Scenario::paper_defaults(12, 4, 8, 600, &mut rng).unwrap();
    let mut mech = CmabHs::new(scenario.config.clone());
    run_all(&mut mech, &scenario, &mut rng);
    let truth = scenario.population.expected_qualities();
    // The top-K sellers are selected almost every round; their estimates
    // must be tight.
    for &id in scenario.population.ranking_by_true_quality().iter().take(4) {
        let est = mech.policy().estimator().mean(id);
        assert!(
            (est - truth[id.index()]).abs() < 0.04,
            "{id}: {est} vs {}",
            truth[id.index()]
        );
    }
}

#[test]
fn selection_concentrates_on_true_top_k() {
    let mut rng = SimRng::new(6);
    let scenario = Scenario::paper_defaults(12, 3, 6, 1_000, &mut rng).unwrap();
    let mut mech = CmabHs::new(scenario.config.clone());
    let (ledger, outcomes) = run_all(&mut mech, &scenario, &mut rng);
    let optimal: std::collections::HashSet<usize> = scenario
        .population
        .ranking_by_true_quality()
        .iter()
        .take(3)
        .map(|s| s.index())
        .collect();
    // UCB's K+1-weighted width keeps deliberate exploration pressure (that
    // is Eq. 19's design), so the *exact* optimal set is not selected every
    // round at small N. Measure the mean overlap with S* instead — it must
    // be high in the late rounds.
    let late = &outcomes[ledger.rounds() / 2..];
    let mean_overlap: f64 = late
        .iter()
        .map(|o| {
            o.selected
                .iter()
                .filter(|x| optimal.contains(&x.index()))
                .count() as f64
                / 3.0
        })
        .sum::<f64>()
        / late.len() as f64;
    assert!(
        mean_overlap > 0.7,
        "late-round mean overlap with S* is only {mean_overlap}"
    );
}
