//! Figures 13 & 14: profit landscapes of the single-round HS game.
//!
//! "Since the decision-making process is similar in every round, we
//! randomly select one round to evaluate the profit and strategy of
//! individual participant" (Sec. V-B-2, with `K = 10`). Here the round's
//! selected set is the true top-K of a seeded paper-default population —
//! exactly what a converged CMAB-HS round selects.

use super::Scale;
use crate::report::{Series, Table};
use cdt_game::{
    best_response::all_seller_best_responses, equilibrium::profits_at, platform_best_response,
    solve_equilibrium, Aggregates, GameContext, SelectedSeller,
};
use cdt_quality::SellerPopulation;
use cdt_types::{PlatformCostParams, PriceBounds, Result, SimRng, ValuationParams};

/// Which sellers the paper singles out in Figs. 13(b)–16: sellers 3, 6, 8
/// (1-based within the selected set).
pub const TRACKED_SELLERS: [usize; 3] = [2, 5, 7];

/// Builds the representative round's game context: the top-`K` sellers of
/// a seeded population, with `q̄` at the truth (converged estimates).
///
/// # Errors
/// Propagates context-construction errors.
pub fn round_context(scale: Scale, omega: f64, theta: f64) -> Result<GameContext> {
    let (m, k) = match scale {
        Scale::Paper => (300, 10),
        Scale::Test => (300, 10), // the single-round game is already cheap
    };
    let population = SellerPopulation::generate_paper_defaults(
        m,
        cdt_core::scenario::DEFAULT_NOISE_SIGMA,
        &mut SimRng::new(20210419),
    );
    let ranking = population.ranking_by_true_quality();
    let sellers: Vec<SelectedSeller> = ranking
        .iter()
        .take(k)
        .map(|&id| {
            let p = population.profile(id);
            SelectedSeller::new(id, p.expected_quality(), p.cost)
        })
        .collect();
    GameContext::new(
        sellers,
        PlatformCostParams::new(theta, 1.0)?,
        ValuationParams::new(omega)?,
        PriceBounds::unbounded(),
        PriceBounds::unbounded(),
        f64::MAX,
    )
}

fn pj_grid(points: usize, hi: f64) -> Vec<f64> {
    (1..=points)
        .map(|i| hi * i as f64 / points as f64)
        .collect()
}

/// Consumer profit at a *deviating* `p^J` with the lower stages
/// best-responding (the curve of Fig. 13).
fn profits_at_pj(ctx: &GameContext, pj: f64) -> cdt_game::Profits {
    let agg = Aggregates::from_context(ctx);
    let p = platform_best_response(ctx, pj, &agg);
    let taus = all_seller_best_responses(ctx, p);
    profits_at(ctx, pj, p, &taus)
}

/// Fig. 13(a): PoC vs `p^J` for ω ∈ {600, 800, 1000, 1200, 1400};
/// Fig. 13(b): PoC, PoP, PoS-3/6/8 vs `p^J` at ω = 1000.
///
/// # Errors
/// Propagates context-construction errors.
pub fn figure13(scale: Scale) -> Result<Vec<Table>> {
    let points = match scale {
        Scale::Paper => 80,
        Scale::Test => 20,
    };
    let grid = pj_grid(points, 40.0);
    let x = grid.clone();

    // (a) one PoC curve per omega.
    let omegas = [600.0, 800.0, 1000.0, 1200.0, 1400.0];
    let poc_curves = omegas
        .iter()
        .map(|&omega| {
            let ctx = round_context(scale, omega, 0.1)?;
            let y: Vec<f64> = grid
                .iter()
                .map(|&pj| profits_at_pj(&ctx, pj).consumer)
                .collect();
            Ok(Series::new(format!("omega={omega}"), x.clone(), y))
        })
        .collect::<Result<Vec<_>>>()?;

    // (b) all parties at omega = 1000.
    let ctx = round_context(scale, 1000.0, 0.1)?;
    let profiles: Vec<cdt_game::Profits> = grid.iter().map(|&pj| profits_at_pj(&ctx, pj)).collect();
    let mut party_curves = vec![
        Series::new(
            "PoC",
            x.clone(),
            profiles.iter().map(|p| p.consumer).collect(),
        ),
        Series::new(
            "PoP",
            x.clone(),
            profiles.iter().map(|p| p.platform).collect(),
        ),
    ];
    for &s in &TRACKED_SELLERS {
        party_curves.push(Series::new(
            format!("PoS-{}", s + 1),
            x.clone(),
            profiles.iter().map(|p| p.sellers[s]).collect(),
        ));
    }

    Ok(vec![
        Series::tabulate(
            "Fig. 13(a): PoC vs p^J for varying omega",
            "p^J",
            &poc_curves,
        ),
        Series::tabulate(
            "Fig. 13(b): PoC, PoP, PoS(s) vs p^J (omega = 1000)",
            "p^J",
            &party_curves,
        ),
    ])
}

/// Fig. 14: deviate seller 6's sensing time around the equilibrium while
/// `SoC` and `SoP` stay fixed at their optima; PoC/PoP find interior
/// maxima, PoS-6 moves, PoS-3/PoS-8 stay flat.
///
/// # Errors
/// Propagates context-construction errors.
pub fn figure14(scale: Scale) -> Result<Vec<Table>> {
    let points = match scale {
        Scale::Paper => 60,
        Scale::Test => 15,
    };
    let ctx = round_context(scale, 1000.0, 0.1)?;
    let eq = solve_equilibrium(&ctx);
    let tracked = TRACKED_SELLERS[1]; // seller 6 (index 5)
    let tau6_star = eq.sensing_times[tracked];

    let grid: Vec<f64> = (0..=points)
        .map(|i| 3.0 * tau6_star * i as f64 / points as f64)
        .collect();

    let profiles: Vec<cdt_game::Profits> = grid
        .iter()
        .map(|&tau6| {
            let mut taus = eq.sensing_times.clone();
            taus[tracked] = tau6;
            profits_at(&ctx, eq.service_price, eq.collection_price, &taus)
        })
        .collect();
    let mut poc = Vec::with_capacity(grid.len());
    let mut pop = Vec::with_capacity(grid.len());
    let mut pos: Vec<Vec<f64>> = vec![Vec::with_capacity(grid.len()); TRACKED_SELLERS.len()];
    for p in &profiles {
        poc.push(p.consumer);
        pop.push(p.platform);
        for (j, &s) in TRACKED_SELLERS.iter().enumerate() {
            pos[j].push(p.sellers[s]);
        }
    }

    let mut curves = vec![
        Series::new("PoC", grid.clone(), poc),
        Series::new("PoP", grid.clone(), pop),
    ];
    for (j, &s) in TRACKED_SELLERS.iter().enumerate() {
        curves.push(Series::new(
            format!("PoS-{}", s + 1),
            grid.clone(),
            pos[j].clone(),
        ));
    }
    Ok(vec![Series::tabulate(
        "Fig. 14: profits vs SoS-6 (tau of seller 6; prices fixed at the SE)",
        "tau_6",
        &curves,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13a_poc_is_single_peaked_and_orders_by_omega() {
        let tables = figure13(Scale::Test).unwrap();
        let t = &tables[0];
        // Columns: p^J, omega=600 … omega=1400.
        let peak_value = |col: usize| {
            t.rows
                .iter()
                .map(|r| match &r[col] {
                    crate::report::Cell::Num(x) => *x,
                    crate::report::Cell::Text(_) => unreachable!(),
                })
                .fold(f64::NEG_INFINITY, f64::max)
        };
        // Larger omega ⇒ larger peak PoC (Fig. 13(a)'s claim).
        let peaks: Vec<f64> = (1..=5).map(peak_value).collect();
        assert!(
            peaks.windows(2).all(|w| w[1] > w[0]),
            "peak PoC should grow with omega: {peaks:?}"
        );
    }

    #[test]
    fn fig13b_pop_increases_in_pj() {
        let tables = figure13(Scale::Test).unwrap();
        let t = &tables[1];
        let col = |row: &Vec<crate::report::Cell>, i: usize| match &row[i] {
            crate::report::Cell::Num(x) => *x,
            crate::report::Cell::Text(_) => unreachable!(),
        };
        // PoP (column 2) continually increases with p^J (Fig. 13(b)).
        let pops: Vec<f64> = t.rows.iter().map(|r| col(r, 2)).collect();
        assert!(
            pops.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "PoP not increasing: {pops:?}"
        );
    }

    #[test]
    fn fig14_only_tracked_seller_profit_moves() {
        let tables = figure14(Scale::Test).unwrap();
        let t = &tables[0];
        let col = |row: &Vec<crate::report::Cell>, i: usize| match &row[i] {
            crate::report::Cell::Num(x) => *x,
            crate::report::Cell::Text(_) => unreachable!(),
        };
        // Columns: tau_6, PoC, PoP, PoS-3, PoS-6, PoS-8.
        let pos3: Vec<f64> = t.rows.iter().map(|r| col(r, 3)).collect();
        let pos6: Vec<f64> = t.rows.iter().map(|r| col(r, 4)).collect();
        let pos8: Vec<f64> = t.rows.iter().map(|r| col(r, 5)).collect();
        assert!(pos3.windows(2).all(|w| (w[1] - w[0]).abs() < 1e-9));
        assert!(pos8.windows(2).all(|w| (w[1] - w[0]).abs() < 1e-9));
        let spread = pos6.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - pos6.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(spread > 1e-6, "PoS-6 must vary with its own tau");
    }

    #[test]
    fn fig14_pos6_peaks_at_equilibrium_tau() {
        let ctx = round_context(Scale::Test, 1000.0, 0.1).unwrap();
        let eq = solve_equilibrium(&ctx);
        let tracked = TRACKED_SELLERS[1];
        let tau_star = eq.sensing_times[tracked];
        let s = ctx.seller(tracked);
        let at = |tau: f64| cdt_game::seller_profit(eq.collection_price, tau, s.quality, s.cost);
        assert!(at(tau_star) >= at(tau_star * 0.8));
        assert!(at(tau_star) >= at(tau_star * 1.2));
    }
}
