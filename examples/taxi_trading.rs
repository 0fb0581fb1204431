//! Full pipeline on the synthetic Chicago taxi trace: trace generation →
//! PoI extraction → seller derivation → CMAB-HS trading → settlement
//! summary.
//!
//! Mirrors the paper's evaluation setup (Sec. V-A): a 27 465-record trace,
//! `L = 10` PoIs, up to `M = 300` eligible taxis as data sellers, `K = 10`
//! selected per round.
//!
//! Run with:
//! ```sh
//! cargo run --release -p cdt-sim --example taxi_trading
//! ```

use cdt_core::prelude::*;
use cdt_trace::{csv, Dataset, TraceConfig};
use cdt_types::SimRng;

fn main() -> cdt_types::Result<()> {
    let mut rng = SimRng::new(20210419);

    // --- 1. The data substrate: a Chicago-style taxi trace. ---
    println!("generating synthetic Chicago taxi trace (27,465 records)...");
    let dataset = Dataset::build(&TraceConfig::paper_scale(), 10, 300, &mut rng);
    println!(
        "  {} records, {} PoIs, {} eligible taxis (sellers)",
        dataset.records.len(),
        dataset.l(),
        dataset.m()
    );
    println!("  hottest PoIs: {:?}", &dataset.pois[..5.min(dataset.l())]);
    let head = csv::to_csv(&dataset.records[..3]);
    println!("  trace head (CSV):\n{}", indent(&head, 4));

    // --- 2. Attach the economic layer (qualities are NOT in the trace —
    // the paper generates them synthetically, and so do we). ---
    let n = 2_000;
    let k = 10;
    let scenario = Scenario::from_dataset(&dataset, k, n, &mut rng)?;
    println!(
        "scenario: M = {}, K = {}, L = {}, N = {}",
        scenario.config.m(),
        scenario.config.k(),
        scenario.config.l(),
        scenario.config.n()
    );

    // --- 3. Trade. ---
    let observer = scenario.observer();
    let mut mechanism = CmabHs::new(scenario.config.clone());
    let mut ledger = TradingLedger::default();
    mechanism.run(&observer, &mut rng, &mut NullObserver, |outcome, _| {
        ledger.record(outcome);
        Ok::<_, CdtError>(true)
    })?;

    // --- 4. Settlement summary. ---
    println!("\n=== settlement after {} rounds ===", ledger.rounds());
    println!(
        "total observed revenue (sum of collected qualities): {:.1}",
        ledger.total_observed_revenue()
    );
    println!(
        "consumer paid {:.1} total; platform paid sellers {:.1}",
        ledger.total_consumer_payment(),
        ledger.total_seller_payment()
    );
    println!(
        "mean per-round profits: PoC {:.2} | PoP {:.2} | sum PoS {:.2}",
        ledger.mean_consumer_profit(),
        ledger.mean_platform_profit(),
        ledger.mean_seller_profit()
    );

    // --- 5. Did the mechanism find the good sellers? ---
    let ranking = scenario.population.ranking_by_true_quality();
    let truth = scenario.population.expected_qualities();
    println!("\ntrue top-5 sellers vs learned estimates:");
    for &id in ranking.iter().take(5) {
        println!(
            "  {}: true q = {:.3}, learned q = {:.3}, observations = {}",
            id,
            truth[id.index()],
            mechanism.policy().estimator().mean(id),
            mechanism.policy().estimator().count(id)
        );
    }
    Ok(())
}

fn indent(text: &str, spaces: usize) -> String {
    let pad = " ".repeat(spaces);
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
