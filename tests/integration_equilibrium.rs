//! Equilibrium integration: every exploitation round the mechanism plays
//! must be a Stackelberg Equilibrium (Def. 13 / Theorem 20), and the
//! closed-form solution must agree with independent numeric maximization
//! on randomly-drawn games.

use cdt_core::Scenario;
use cdt_game::{
    best_response::{all_seller_best_responses, platform_best_response},
    equilibrium::profits_at,
    numeric::grid_then_golden,
    solve_equilibrium, verify_equilibrium, Aggregates, GameContext, SelectedSeller,
};
use cdt_types::{
    PlatformCostParams, PriceBounds, SellerCostParams, SellerId, SimRng, ValuationParams,
};

fn random_context(rng: &mut SimRng) -> GameContext {
    let k = rng.int_inclusive(1..=12) as usize;
    let sellers = (0..k)
        .map(|i| {
            SelectedSeller::new(
                SellerId(i),
                // Learned estimates of the sellers a converged CMAB-HS
                // actually selects — moderate-to-high quality. Very low
                // estimates can push a seller below its reservation price
                // and out of the interior regime the paper's closed forms
                // assume (see StackelbergSolution::is_interior).
                rng.uniform(0.2..1.0),
                SellerCostParams {
                    a: rng.uniform(0.1..0.5),
                    b: rng.uniform(0.1..1.0),
                },
            )
        })
        .collect();
    GameContext::new(
        sellers,
        PlatformCostParams {
            theta: rng.uniform(0.1..1.0),
            lambda: rng.uniform(0.5..2.0),
        },
        ValuationParams {
            omega: rng.uniform(600.0..1400.0),
        },
        PriceBounds::unbounded(),
        PriceBounds::unbounded(),
        f64::MAX,
    )
    .unwrap()
}

#[test]
fn random_games_all_reach_equilibrium() {
    let mut rng = SimRng::new(42);
    let mut interior_trials = 0;
    for trial in 0..50 {
        let ctx = random_context(&mut rng);
        let eq = solve_equilibrium(&ctx);
        if !eq.is_interior(&ctx) {
            // The closed forms are exact only for interior equilibria
            // (the paper's implicit regime); boundary games are checked
            // by `boundary_games_stay_close_to_equilibrium` below.
            continue;
        }
        interior_trials += 1;
        let tol = 1e-3 * eq.profits.consumer.abs().max(1.0);
        let report = verify_equilibrium(&ctx, &eq, 1500, tol);
        assert!(
            report.is_equilibrium(),
            "trial {trial}: max gain {} (K = {})",
            report.max_gain(),
            ctx.k()
        );
    }
    assert!(
        interior_trials >= 35,
        "only {interior_trials}/50 interior games — generator drifted from the paper regime"
    );
}

#[test]
fn boundary_games_stay_close_to_equilibrium() {
    // Even when a seller opts out (non-interior), the best unilateral
    // deviation should gain only a small fraction of the consumer profit.
    let mut rng = SimRng::new(4242);
    for _ in 0..50 {
        let ctx = random_context(&mut rng);
        let eq = solve_equilibrium(&ctx);
        if eq.is_interior(&ctx) {
            continue;
        }
        let report = verify_equilibrium(&ctx, &eq, 1500, f64::INFINITY);
        let rel_gain = report.max_gain() / eq.profits.consumer.abs().max(1.0);
        assert!(
            rel_gain < 0.02,
            "boundary game deviates too far from SE: relative gain {rel_gain}"
        );
    }
}

#[test]
fn closed_form_consumer_price_matches_global_numeric_optimum() {
    let mut rng = SimRng::new(7);
    for _ in 0..25 {
        let ctx = random_context(&mut rng);
        let agg = Aggregates::from_context(&ctx);
        let eq = solve_equilibrium(&ctx);
        if !eq.is_interior(&ctx) {
            continue;
        }
        let numeric = grid_then_golden(
            |pj| {
                let p = platform_best_response(&ctx, pj, &agg);
                let taus = all_seller_best_responses(&ctx, p);
                profits_at(&ctx, pj, p, &taus).consumer
            },
            0.0,
            5.0 * eq.service_price.max(1.0),
            4001,
            1e-9,
        );
        assert!(
            (eq.service_price - numeric.argmax).abs() / eq.service_price.max(1.0) < 2e-3,
            "closed {} vs numeric {}",
            eq.service_price,
            numeric.argmax
        );
    }
}

#[test]
fn mechanism_rounds_play_equilibria() {
    // Take the strategies the running mechanism actually produced and
    // verify Def. 13 on each exploitation round.
    let mut rng = SimRng::new(11);
    let scenario = Scenario::paper_defaults(10, 3, 4, 12, &mut rng).unwrap();
    let mut mech = cdt_core::CmabHs::new(scenario.config.clone());
    let mut outcomes = Vec::new();
    mech.run(
        &scenario.observer(),
        &mut rng,
        &mut cdt_core::NullObserver,
        |o, _| {
            outcomes.push(o.clone());
            Ok::<_, cdt_types::CdtError>(true)
        },
    )
    .unwrap();
    for o in &outcomes[1..] {
        // Rebuild the context the round was played under (same estimates).
        let sellers: Vec<SelectedSeller> = o
            .strategy
            .seller_ids
            .iter()
            .map(|&id| {
                // The quality the game saw is recoverable from the solution:
                // τ* = (p − q b)/(2 q a) ⇒ q = p / (2 a τ* + b).
                let cost = scenario.config.seller_cost(id);
                let tau = o.strategy.sensing_time_of(id).unwrap();
                let q = o.strategy.collection_price / (2.0 * cost.a * tau + cost.b);
                SelectedSeller::new(id, q, cost)
            })
            .collect();
        let ctx = GameContext::new(
            sellers,
            scenario.config.platform_cost,
            scenario.config.valuation,
            PriceBounds::unbounded(),
            PriceBounds::unbounded(),
            f64::MAX,
        )
        .unwrap();
        let report = verify_equilibrium(
            &ctx,
            &o.strategy,
            800,
            1e-3 * o.strategy.profits.consumer.abs().max(1.0),
        );
        assert!(
            report.is_equilibrium(),
            "round {} strategy is not a SE (max gain {})",
            o.round.index(),
            report.max_gain()
        );
    }
}

#[test]
fn equilibrium_profits_scale_with_omega() {
    // More valuable data ⇒ every party earns (weakly) more at equilibrium.
    let mut rng = SimRng::new(13);
    let base = random_context(&mut rng);
    let omegas = [600.0, 1000.0, 1400.0];
    let mut last_poc = f64::NEG_INFINITY;
    for omega in omegas {
        let mut ctx = base.clone();
        ctx.valuation = ValuationParams { omega };
        let eq = solve_equilibrium(&ctx);
        assert!(eq.profits.consumer > last_poc, "PoC must grow with omega");
        last_poc = eq.profits.consumer;
    }
}
