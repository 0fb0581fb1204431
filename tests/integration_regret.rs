//! Regret integration: the orderings of Figs. 7–11 and the Theorem 19
//! bound, exercised through the full multi-crate stack.

use cdt_bandit::{gap_statistics, theoretical_regret_bound};
use cdt_core::Scenario;
use cdt_sim::{compare_policies, run_policy, PolicySpec, RunConfig};
use cdt_types::SimRng;

/// A two-worker pool: one job per policy, results identical to serial.
fn pool() -> RunConfig {
    RunConfig::with_threads(2)
}

fn scenario(m: usize, k: usize, l: usize, n: usize, seed: u64) -> Scenario {
    let mut rng = SimRng::new(seed);
    Scenario::paper_defaults(m, k, l, n, &mut rng).unwrap()
}

#[test]
fn paper_regret_ordering() {
    // Fig. 7(b): optimal ≈ 0 < CMAB-HS ≤ 0.1-first < 0.5-first < random.
    let s = scenario(30, 5, 5, 800, 1);
    let cmp = compare_policies(&s, &PolicySpec::paper_set(), 17, &[], &pool()).unwrap();
    let reg = |name: &str| cmp.run(name).unwrap().regret;
    assert!(reg("optimal").abs() < 1e-9);
    assert!(reg("CMAB-HS") < reg("0.5-first"), "CMAB vs 0.5-first");
    assert!(reg("0.1-first") < reg("0.5-first"), "0.1 vs 0.5-first");
    assert!(reg("0.5-first") < reg("random"), "0.5-first vs random");
    assert!(reg("CMAB-HS") < 0.25 * reg("random"), "CMAB ≪ random");
}

#[test]
fn cmab_regret_is_sublinear_in_n() {
    // Theorem 19 promises O(ln N) regret: doubling the horizon must add
    // far less than double the regret once learning has kicked in.
    let s1 = scenario(20, 4, 5, 500, 2);
    let s2 = scenario(20, 4, 5, 2_000, 2); // same seed ⇒ same population
    let r1 = run_policy(&s1, PolicySpec::CmabHs, 5, &[]).unwrap().regret;
    let r2 = run_policy(&s2, PolicySpec::CmabHs, 5, &[]).unwrap().regret;
    // 4× the rounds should yield well under 4× the regret.
    assert!(
        r2 < 2.5 * r1.max(1.0),
        "regret grew superlinearly: {r1} → {r2}"
    );
}

#[test]
fn random_regret_is_linear_in_n() {
    let s1 = scenario(20, 4, 5, 500, 3);
    let s2 = scenario(20, 4, 5, 2_000, 3);
    let r1 = run_policy(&s1, PolicySpec::Random, 5, &[]).unwrap().regret;
    let r2 = run_policy(&s2, PolicySpec::Random, 5, &[]).unwrap().regret;
    let ratio = r2 / r1;
    assert!(
        (3.0..5.0).contains(&ratio),
        "random regret should scale ~4x: ratio {ratio}"
    );
}

#[test]
fn theorem19_bound_holds() {
    let s = scenario(20, 4, 5, 2_000, 4);
    let truth = s.population.expected_qualities();
    let gaps = gap_statistics(&truth, 4).expect("continuous qualities never tie");
    let bound = theoretical_regret_bound(2_000, 20, 4, 5, gaps);
    let measured = run_policy(&s, PolicySpec::CmabHs, 5, &[]).unwrap().regret;
    assert!(
        measured <= bound,
        "measured regret {measured} exceeds the Theorem 19 bound {bound}"
    );
}

#[test]
fn revenue_identity_holds_for_all_policies() {
    // expected_revenue + regret == optimal revenue, for every policy.
    let s = scenario(25, 5, 4, 400, 5);
    let cmp = compare_policies(&s, &PolicySpec::paper_set(), 23, &[], &pool()).unwrap();
    let opt_rev = cmp.run("optimal").unwrap().expected_revenue;
    for r in &cmp.runs {
        let identity = r.expected_revenue + r.regret - opt_rev;
        assert!(
            identity.abs() < 1e-6,
            "{}: revenue {} + regret {} != optimal {}",
            r.name,
            r.expected_revenue,
            r.regret,
            opt_rev
        );
    }
}

#[test]
fn observed_revenue_tracks_expected_revenue() {
    // The sampled (truncated-Gaussian) revenue concentrates on the
    // expected revenue over long horizons.
    let s = scenario(20, 5, 6, 1_000, 6);
    let r = run_policy(&s, PolicySpec::CmabHs, 5, &[]).unwrap();
    let rel = (r.observed_revenue - r.expected_revenue).abs() / r.expected_revenue;
    assert!(rel < 0.01, "observed vs expected drift {rel}");
}

#[test]
fn extension_policies_also_learn() {
    let s = scenario(24, 4, 5, 600, 7);
    let cmp = compare_policies(
        &s,
        &[
            PolicySpec::Random,
            PolicySpec::Thompson,
            PolicySpec::Cucb,
            PolicySpec::EpsilonGreedy(0.1),
        ],
        31,
        &[],
        &pool(),
    )
    .unwrap();
    let random = cmp.run("random").unwrap().regret;
    for name in ["thompson", "CUCB", "0.1-greedy"] {
        let r = cmp.run(name).unwrap().regret;
        assert!(r < random, "{name} regret {r} should beat random {random}");
    }
}
