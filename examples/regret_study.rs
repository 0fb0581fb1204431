//! Regret study: runs the paper's comparison set (optimal, CMAB-HS,
//! ε-first, random) plus the extension policies (Thompson, CUCB,
//! ε-greedy) on one scenario, and checks the measured CMAB-HS regret
//! against the closed-form bound of Theorem 19.
//!
//! Run with:
//! ```sh
//! cargo run --release -p cdt-sim --example regret_study
//! ```

use cdt_bandit::{gap_statistics, theoretical_regret_bound};
use cdt_core::Scenario;
use cdt_sim::{compare_policies, PolicySpec, RunConfig};
use cdt_types::SimRng;

fn main() -> cdt_types::Result<()> {
    let (m, k, l, n) = (60, 8, 6, 5_000);
    let mut rng = SimRng::new(7);
    let scenario = Scenario::paper_defaults(m, k, l, n, &mut rng)?;
    println!("scenario: M = {m}, K = {k}, L = {l}, N = {n}\n");

    let mut specs = PolicySpec::paper_set();
    specs.extend([
        PolicySpec::Thompson,
        PolicySpec::Cucb,
        PolicySpec::EpsilonGreedy(0.1),
    ]);

    // One pool job per policy, on every core.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cmp = compare_policies(
        &scenario,
        &specs,
        99,
        &[],
        &RunConfig::with_threads(threads),
    )?;
    println!("{}", cmp.summary_table("policy comparison"));

    // --- Theorem 19: Reg = O(M K^3 ln(NKL)). ---
    let truth = scenario.population.expected_qualities();
    if let Some(gaps) = gap_statistics(&truth, k) {
        let bound = theoretical_regret_bound(n, m, k, l, gaps);
        let measured = cmp.run("CMAB-HS").expect("run exists").regret;
        println!(
            "Theorem 19 bound check (gap delta_min = {:.4}):",
            gaps.delta_min
        );
        println!("  measured CMAB-HS regret: {measured:.1}");
        println!("  closed-form upper bound: {bound:.1}");
        println!(
            "  bound respected: {} (ratio {:.4})",
            measured <= bound,
            measured / bound
        );
    }

    // --- Δ-profits (Fig. 8's metric) ---
    println!("\nper-round profit gaps to the optimal policy:");
    for spec in &specs {
        let name = spec.label();
        if name == "optimal" {
            continue;
        }
        println!(
            "  {:<12} Δ-PoC = {:>9.3}   Δ-PoP = {:>8.3}   Δ-PoS(s) = {:>7.4}",
            name,
            cmp.delta_poc(&name).expect("optimal present"),
            cmp.delta_pop(&name).expect("optimal present"),
            cmp.delta_pos(&name).expect("optimal present"),
        );
    }
    Ok(())
}
