//! Marketplace: the consumer-facing view of the CDT system — what the
//! platform actually *delivers* each round and how efficient the
//! Stackelberg split is.
//!
//! Runs a short trading job, reports the mean quality of the readings each
//! round delivered, and closes with a welfare audit of the final round's
//! equilibrium.
//!
//! Run with:
//! ```sh
//! cargo run --release -p cdt-cli --example marketplace
//! ```

use cdt_bandit::SelectionPolicy;
use cdt_core::{CmabHs, NullObserver, Scenario};
use cdt_game::{solve_equilibrium, welfare_report, GameContext, SelectedSeller};
use cdt_types::{CdtError, PriceBounds, SimRng};

fn main() -> cdt_types::Result<()> {
    let mut rng = SimRng::new(8);
    let scenario = Scenario::paper_defaults(40, 8, 6, 60, &mut rng)?;
    let observer = scenario.observer();
    let l = scenario.config.l();
    let mut mechanism = CmabHs::new(scenario.config.clone())?;

    println!("=== CDT marketplace: 40 sellers, K = 8, L = 6, 60 rounds ===\n");
    let mut readings = 0;
    let ledger = mechanism.run(&observer, &mut rng, &mut NullObserver, |outcome| {
        // The deliverable: one reading per selected seller and PoI, whose
        // qualities sum to the round's observed revenue (Eq. 1).
        let delivered = outcome.selection_size() * l;
        readings += delivered;
        if outcome.round.index() % 15 == 0 {
            println!(
                "round {:>2}: {} sellers, {delivered} readings, mean quality {:.3}",
                outcome.round.index(),
                outcome.selection_size(),
                outcome.observed_revenue / delivered as f64,
            );
        }
        Ok::<_, CdtError>(true)
    })?;

    println!(
        "\ndelivered to the consumer: {readings} readings over {} rounds, mean quality {:.3}",
        ledger.rounds(),
        ledger.total_observed_revenue() / readings as f64,
    );

    // --- Welfare audit of the final round's game. ---
    let policy = mechanism.policy();
    let ranking = scenario.population.ranking_by_true_quality();
    let sellers: Vec<SelectedSeller> = ranking
        .iter()
        .take(8)
        .map(|&id| {
            SelectedSeller::new(id, policy.game_quality(id), scenario.config.seller_cost(id))
        })
        .collect();
    let ctx = GameContext::new(
        sellers,
        scenario.config.platform_cost,
        scenario.config.valuation,
        PriceBounds::unbounded(),
        PriceBounds::unbounded(),
        f64::MAX,
    )?;
    let eq = solve_equilibrium(&ctx);
    let audit = welfare_report(&ctx, &eq);
    println!("\nwelfare audit of the converged round:");
    println!(
        "  equilibrium welfare {:.1} vs first-best {:.1} → efficiency {:.1}%",
        audit.equilibrium_welfare,
        audit.efficient_welfare,
        100.0 * audit.efficiency()
    );
    println!(
        "  (the hierarchy's double marginalization costs {:.1} per round)",
        audit.efficient_welfare - audit.equilibrium_welfare
    );
    Ok(())
}
