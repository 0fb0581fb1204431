//! Quickstart: the paper's illustrative example (Sec. III-D).
//!
//! Three sellers, four PoIs, ten rounds, `K = 2` selected per round.
//! Round 1 is the initial exploration (everyone selected, `τ⁰ = 1`,
//! `p¹* = p_max = 5`, break-even `p^{J,1*}`); every later round selects the
//! top-2 sellers by UCB and plays the three-stage Stackelberg game.
//!
//! Run with:
//! ```sh
//! cargo run --release -p cdt-sim --example quickstart
//! ```

use cdt_core::prelude::*;
use cdt_quality::{SellerProfile, TruncatedGaussian};
use cdt_types::SimRng;

fn main() -> cdt_types::Result<()> {
    // --- The Sec. III-D cast: three sellers with hidden expected
    // qualities (the platform must learn these). ---
    let hidden_qualities = [0.65, 0.70, 0.55];
    let profiles: Vec<SellerProfile> = hidden_qualities
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            Ok(SellerProfile {
                quality: TruncatedGaussian::new(q, 0.15),
                cost: SellerCostParams::new(0.2 + 0.05 * i as f64, 0.3)?,
            })
        })
        .collect::<cdt_types::Result<_>>()?;
    let population = SellerPopulation::from_profiles(profiles);

    let config = SystemConfig::builder()
        .job(JobSpec::new(4, 10, 1e6)?.with_description("take pictures around 4 PoIs, 10 rounds"))
        .sellers(3, 2)
        .seller_costs(population.cost_params())
        .platform_cost(PlatformCostParams::new(0.5, 1.0)?)
        .valuation(ValuationParams::new(100.0)?)
        .collection_price_bounds(PriceBounds::new(0.0, 5.0)?)
        .service_price_bounds(PriceBounds::new(0.0, 50.0)?)
        .build()?;

    let observer = QualityObserver::new(population.clone(), config.l());
    let mut mechanism = CmabHs::new(config)?;
    let mut rng = SimRng::new(2021);

    println!("=== CMAB-HS quickstart: 3 sellers, 4 PoIs, 10 rounds, K = 2 ===\n");
    println!("hidden expected qualities: {hidden_qualities:?}\n");

    // Algorithm 1's loop; every round settles, and each is printed as it
    // does.
    mechanism.run(&observer, &mut rng, &mut NullObserver, |outcome| {
        let sel: Vec<String> = outcome.selected.iter().map(ToString::to_string).collect();
        let taus: Vec<String> = outcome
            .strategy
            .sensing_times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect();
        println!(
            "round {:>2}: selected <{}>  p^J*={:.3}  p*={:.3}  tau*=[{}]",
            outcome.round.index() + 1,
            sel.join(", "),
            outcome.strategy.service_price,
            outcome.strategy.collection_price,
            taus.join(", "),
        );
        println!(
            "          revenue {:.3} | PoC {:.3} | PoP {:.3} | sum PoS {:.3}",
            outcome.observed_revenue,
            outcome.strategy.profits.consumer,
            outcome.strategy.profits.platform,
            outcome.strategy.profits.total_seller(),
        );
        Ok::<_, CdtError>(true)
    })?;

    println!("\nlearned quality estimates after 10 rounds:");
    for i in 0..3 {
        let id = SellerId(i);
        println!(
            "  seller {}: est q = {:.3}  (true q = {:.3}, observed {} times)",
            i + 1,
            mechanism.policy().estimator().mean(id),
            population.profile(id).expected_quality(),
            mechanism.policy().estimator().count(id),
        );
    }
    Ok(())
}
