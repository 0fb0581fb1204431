//! Figures 15–18: single-round equilibrium profits and strategies as one
//! seller's cost (`a_6`) or the platform's cost (`θ`) varies.

use super::game_curves::{round_context, TRACKED_SELLERS};
use super::Scale;
use crate::report::{Series, Table};
use cdt_game::{solve_equilibrium, GameContext, SelectedSeller, StackelbergSolution};
use cdt_types::{PlatformCostParams, Result, SellerCostParams};

fn grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

fn points(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 50,
        Scale::Test => 12,
    }
}

/// Rebuilds the context with seller 6's quadratic cost coefficient set to
/// `a6`, then solves the equilibrium.
fn solve_with_a6(base: &GameContext, a6: f64) -> StackelbergSolution {
    let tracked = TRACKED_SELLERS[1];
    let sellers: Vec<SelectedSeller> = base
        .sellers()
        .enumerate()
        .map(|(i, s)| {
            if i == tracked {
                SelectedSeller::new(s.id, s.quality, SellerCostParams { a: a6, b: s.cost.b })
            } else {
                s
            }
        })
        .collect();
    let ctx = GameContext::new(
        sellers,
        base.platform_cost,
        base.valuation,
        base.collection_price_bounds,
        base.service_price_bounds,
        base.max_sensing_time,
    )
    .expect("same shape as a valid context");
    solve_equilibrium(&ctx)
}

/// The `a_6` sweep used by Figs. 15 & 16 (the paper plots `a_6` from ~0
/// to 5; we start slightly above 0 to respect `a > 0`): one single-round
/// equilibrium solve per point.
fn a6_solutions(scale: Scale) -> Result<(Vec<f64>, Vec<StackelbergSolution>)> {
    let base = round_context(scale, 1000.0, 0.1)?;
    let xs = grid(0.05, 5.0, points(scale));
    let sols = xs.iter().map(|&a| solve_with_a6(&base, a)).collect();
    Ok((xs, sols))
}

/// The `θ` sweep used by Figs. 17 & 18, one solve per point as in
/// [`a6_solutions`]: the round's sellers are built once, and each point
/// swaps in the platform cost `θ`.
fn theta_solutions(scale: Scale) -> Result<(Vec<f64>, Vec<StackelbergSolution>)> {
    let base = round_context(scale, 1000.0, 0.1)?;
    let xs = grid(0.05, 1.0, points(scale));
    let sols = xs
        .iter()
        .map(|&theta| {
            let ctx = GameContext::new(
                base.sellers().collect(),
                PlatformCostParams::new(theta, base.platform_cost.lambda)?,
                base.valuation,
                base.collection_price_bounds,
                base.service_price_bounds,
                base.max_sensing_time,
            )?;
            Ok(solve_equilibrium(&ctx))
        })
        .collect::<Result<_>>()?;
    Ok((xs, sols))
}

fn profit_tables(title: &str, x_name: &str, xs: &[f64], sols: &[StackelbergSolution]) -> Table {
    let mut curves = vec![
        Series::new(
            "PoC",
            xs.to_vec(),
            sols.iter().map(|s| s.profits.consumer).collect(),
        ),
        Series::new(
            "PoP",
            xs.to_vec(),
            sols.iter().map(|s| s.profits.platform).collect(),
        ),
    ];
    for &i in &TRACKED_SELLERS {
        curves.push(Series::new(
            format!("PoS-{}", i + 1),
            xs.to_vec(),
            sols.iter().map(|s| s.profits.sellers[i]).collect(),
        ));
    }
    Series::tabulate(title, x_name, &curves)
}

fn price_table(title: &str, x_name: &str, xs: &[f64], sols: &[StackelbergSolution]) -> Table {
    let curves = vec![
        Series::new(
            "SoC (p^J*)",
            xs.to_vec(),
            sols.iter().map(|s| s.service_price).collect(),
        ),
        Series::new(
            "SoP (p*)",
            xs.to_vec(),
            sols.iter().map(|s| s.collection_price).collect(),
        ),
    ];
    Series::tabulate(title, x_name, &curves)
}

fn sensing_table(title: &str, x_name: &str, xs: &[f64], sols: &[StackelbergSolution]) -> Table {
    let mut curves = Vec::new();
    for &i in &TRACKED_SELLERS {
        curves.push(Series::new(
            format!("SoS-{} (tau*)", i + 1),
            xs.to_vec(),
            sols.iter().map(|s| s.sensing_times[i]).collect(),
        ));
    }
    curves.push(Series::new(
        "mean SoS(s)",
        xs.to_vec(),
        sols.iter()
            .map(|s| s.total_sensing_time() / s.sensing_times.len() as f64)
            .collect(),
    ));
    Series::tabulate(title, x_name, &curves)
}

/// Fig. 15: PoC, PoP, PoS-3/6/8 vs seller 6's cost parameter `a_6`.
///
/// # Errors
/// Propagates context-construction errors.
pub fn figure15(scale: Scale) -> Result<Vec<Table>> {
    let (xs, sols) = a6_solutions(scale)?;
    Ok(vec![profit_tables(
        "Fig. 15: profits vs a_6",
        "a_6",
        &xs,
        &sols,
    )])
}

/// Fig. 16(a,b): strategies (prices; sensing times) vs `a_6`.
///
/// # Errors
/// Propagates context-construction errors.
pub fn figure16(scale: Scale) -> Result<Vec<Table>> {
    let (xs, sols) = a6_solutions(scale)?;
    Ok(vec![
        price_table("Fig. 16(a): SoC and SoP vs a_6", "a_6", &xs, &sols),
        sensing_table("Fig. 16(b): SoS(s) vs a_6", "a_6", &xs, &sols),
    ])
}

/// Fig. 17: PoC, PoP, PoS(s) vs the platform cost parameter `θ`.
///
/// # Errors
/// Propagates context-construction errors.
pub fn figure17(scale: Scale) -> Result<Vec<Table>> {
    let (xs, sols) = theta_solutions(scale)?;
    Ok(vec![profit_tables(
        "Fig. 17: profits vs theta",
        "theta",
        &xs,
        &sols,
    )])
}

/// Fig. 18(a,b): strategies (prices; sensing times) vs `θ`.
///
/// # Errors
/// Propagates context-construction errors.
pub fn figure18(scale: Scale) -> Result<Vec<Table>> {
    let (xs, sols) = theta_solutions(scale)?;
    Ok(vec![
        price_table("Fig. 18(a): SoC and SoP vs theta", "theta", &xs, &sols),
        sensing_table("Fig. 18(b): SoS(s) vs theta", "theta", &xs, &sols),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: &Table, i: usize) -> Vec<f64> {
        t.rows
            .iter()
            .map(|r| match &r[i] {
                crate::report::Cell::Num(x) => *x,
                crate::report::Cell::Text(_) => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn fig15_shapes() {
        let t = &figure15(Scale::Test).unwrap()[0];
        // Columns: a_6, PoC, PoP, PoS-3, PoS-6, PoS-8.
        let poc = col(t, 1);
        let pos6 = col(t, 4);
        let pos3 = col(t, 3);
        // PoC and PoS-6 decline as seller 6 gets costlier.
        assert!(poc.first().unwrap() > poc.last().unwrap());
        assert!(pos6.first().unwrap() > pos6.last().unwrap());
        // …while the *other* sellers benefit (Fig. 15's crossover claim).
        assert!(pos3.first().unwrap() < pos3.last().unwrap());
        // And the decline flattens: early drop ≫ late drop.
        let early = poc[0] - poc[1];
        let late = poc[poc.len() - 2] - poc[poc.len() - 1];
        assert!(
            early > late,
            "PoC decline should level off: {early} vs {late}"
        );
    }

    #[test]
    fn fig16_prices_rise_with_a6() {
        let tables = figure16(Scale::Test).unwrap();
        let prices = &tables[0];
        let soc = col(prices, 1);
        let sop = col(prices, 2);
        // "the consumer and the platform need to raise prices when seller
        // 6's cost increases" (Sec. V-B-2).
        assert!(soc.last().unwrap() > soc.first().unwrap());
        assert!(sop.last().unwrap() > sop.first().unwrap());
        // Seller 6's sensing time collapses while others' track prices up.
        let sens = &tables[1];
        let sos6 = col(sens, 2);
        assert!(sos6.first().unwrap() > sos6.last().unwrap());
        let sos3 = col(sens, 1);
        assert!(sos3.last().unwrap() > sos3.first().unwrap());
    }

    #[test]
    fn fig17_profits_fall_with_theta() {
        let t = &figure17(Scale::Test).unwrap()[0];
        // PoC and every PoS-i decline sharply then flatten (Fig. 17).
        for c in [1, 3, 4, 5] {
            let v = col(t, c);
            assert!(
                v.first().unwrap() > v.last().unwrap(),
                "{} should decline in theta: {v:?}",
                t.columns[c]
            );
            let early = v[0] - v[1];
            let late = v[v.len() - 2] - v[v.len() - 1];
            assert!(early > late, "{} should flatten", t.columns[c]);
        }
        // PoP: the paper plots a mild decline; in our (sign-corrected)
        // equilibrium the consumer's rising p^J almost exactly compensates
        // the platform's growing cost, so PoP is flat within ~3% — assert
        // that narrow band rather than strict monotonicity.
        let pop = col(t, 2);
        let max = pop.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let min = pop.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(
            (max - min) / max < 0.03,
            "PoP should stay within a narrow band: {pop:?}"
        );
    }

    #[test]
    fn fig18_shapes() {
        let tables = figure18(Scale::Test).unwrap();
        // SoC rises (consumer compensates the platform) while SoP falls
        // (platform squeezes sellers), Sec. V-B-2.
        let prices = &tables[0];
        let soc = col(prices, 1);
        let sop = col(prices, 2);
        assert!(soc.last().unwrap() > soc.first().unwrap(), "SoC: {soc:?}");
        assert!(sop.last().unwrap() < sop.first().unwrap(), "SoP: {sop:?}");
        // Sellers reduce sensing time as p falls.
        let sens = &tables[1];
        let mean_sos = col(sens, sens.columns.len() - 1);
        assert!(mean_sos.last().unwrap() < mean_sos.first().unwrap());
    }
}
