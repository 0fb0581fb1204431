//! Social-welfare analysis of the Stackelberg outcome.
//!
//! Prices are transfers, so social welfare reduces to
//! `W(τ) = φ(τ, q̄) − Σ_i C_i(τ_i, q̄_i) − C^J(τ)`. The *efficient*
//! (first-best) allocation maximizes `W` directly; the Stackelberg
//! hierarchy loses some of it through double marginalization. This module
//! computes the first-best benchmark and the resulting price of anarchy —
//! a quantitative companion to the paper's SE analysis (Sec. IV-B), which
//! proves equilibrium but does not measure efficiency.

use crate::context::GameContext;
use crate::equilibrium::StackelbergSolution;
use crate::numeric::golden_section_max;

/// The first-best (welfare-maximizing) allocation and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficientAllocation {
    /// Welfare-maximizing sensing times, in selection order.
    pub sensing_times: Vec<f64>,
    /// The maximized social welfare `W(τ*)`.
    pub welfare: f64,
}

/// Social welfare of an arbitrary sensing-time profile:
/// `φ(τ, q̄) − Σ C_i − C^J`.
#[must_use]
pub fn social_welfare(ctx: &GameContext, sensing_times: &[f64]) -> f64 {
    let total: f64 = sensing_times.iter().sum();
    let valuation = ctx.valuation.valuation(ctx.mean_quality(), total);
    let seller_costs: f64 = ctx
        .sellers()
        .zip(sensing_times)
        .map(|(s, &tau)| s.cost.cost(tau, s.quality))
        .sum();
    valuation - seller_costs - ctx.platform_cost.cost(total)
}

/// Computes the first-best allocation.
///
/// Structure: for a fixed total time `S`, the cost-minimizing split solves
/// `min Σ (a_i τ_i² + b_i τ_i) q̄_i + θS² + λS` s.t. `Σ τ_i = S`; the KKT
/// conditions give `2 a_i q̄_i τ_i + b_i q̄_i = μ`, i.e.
/// `τ_i(μ) = max(0, (μ − b_i q̄_i) / (2 a_i q̄_i))` — a water-filling in the
/// shadow price `μ`. The outer maximization over `S` is single-dimensional
/// and concave, solved by golden-section search.
#[must_use]
pub fn efficient_allocation(ctx: &GameContext) -> EfficientAllocation {
    // For a shadow price μ, the optimal split and its total time.
    let split = |mu: f64| -> Vec<f64> {
        ctx.sellers()
            .map(|s| {
                let tau = (mu - s.cost.b * s.quality) / (2.0 * s.cost.a * s.quality);
                tau.clamp(0.0, ctx.max_sensing_time)
            })
            .collect()
    };
    // Welfare as a function of μ: the split is cost-minimal for its own
    // total, and total time is monotone in μ, so maximizing over μ is
    // equivalent to maximizing over S.
    let welfare_at = |mu: f64| social_welfare(ctx, &split(mu));

    // Bracket: μ = 0 gives zero time; μ_hi large enough that marginal
    // valuation ω q̄ /(1 + q̄ S) falls below every marginal cost. At a huge
    // ω the quadratic costs overflow there and welfare reads −∞, where
    // the search would tie and step toward μ_hi: halve μ_hi until welfare
    // there is finite. The optimum, near μ ~ √ω, lies far below.
    let mut mu_hi = ctx.valuation.omega * ctx.mean_quality() + 10.0;
    while mu_hi > 0.0 && !welfare_at(mu_hi).is_finite() {
        mu_hi /= 2.0;
    }
    let max = golden_section_max(welfare_at, 0.0, mu_hi, 1e-9);
    let sensing_times = split(max.argmax);
    let welfare = social_welfare(ctx, &sensing_times);
    EfficientAllocation {
        sensing_times,
        welfare,
    }
}

/// Efficiency report of a Stackelberg solution against the first best.
#[derive(Debug, Clone, PartialEq)]
pub struct WelfareReport {
    /// Welfare at the Stackelberg equilibrium.
    pub equilibrium_welfare: f64,
    /// First-best welfare.
    pub efficient_welfare: f64,
}

impl WelfareReport {
    /// Fraction of the first best the equilibrium attains (≤ 1 up to
    /// numeric tolerance); NaN when the first best is not finite.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if !self.efficient_welfare.is_finite() {
            f64::NAN
        } else if self.efficient_welfare <= 0.0 {
            1.0
        } else {
            self.equilibrium_welfare / self.efficient_welfare
        }
    }
}

/// Builds a [`WelfareReport`] for a solved equilibrium.
#[must_use]
pub fn welfare_report(ctx: &GameContext, solution: &StackelbergSolution) -> WelfareReport {
    WelfareReport {
        equilibrium_welfare: social_welfare(ctx, &solution.sensing_times),
        efficient_welfare: efficient_allocation(ctx).welfare,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SelectedSeller;
    use crate::equilibrium::solve_equilibrium;
    use cdt_types::{PlatformCostParams, PriceBounds, SellerCostParams, SellerId, ValuationParams};

    fn ctx(k: usize) -> GameContext {
        ctx_with_omega(k, 1000.0)
    }

    fn ctx_with_omega(k: usize, omega: f64) -> GameContext {
        let sellers = (0..k)
            .map(|i| {
                SelectedSeller::new(
                    SellerId(i),
                    0.4 + 0.5 * (i as f64 + 0.5) / k as f64,
                    SellerCostParams {
                        a: 0.1 + 0.3 * (i as f64 + 0.5) / k as f64,
                        b: 0.2 + 0.6 * (i as f64 + 0.5) / k as f64,
                    },
                )
            })
            .collect();
        GameContext::new(
            sellers,
            PlatformCostParams {
                theta: 0.1,
                lambda: 1.0,
            },
            ValuationParams { omega },
            PriceBounds::unbounded(),
            PriceBounds::unbounded(),
            f64::MAX,
        )
        .unwrap()
    }

    #[test]
    fn welfare_equals_sum_of_profits() {
        // Prices are transfers: Φ + Ω + ΣΨ must equal W at any profile.
        let c = ctx(5);
        let eq = solve_equilibrium(&c);
        let w = social_welfare(&c, &eq.sensing_times);
        assert!(
            (w - eq.profits.social_welfare()).abs() < 1e-9,
            "welfare {w} vs profit sum {}",
            eq.profits.social_welfare()
        );
    }

    #[test]
    fn first_best_dominates_equilibrium() {
        // ω = 1e155 and 1e300 once overflowed the first best to −∞.
        let cases = [1, 3, 8].map(|k| (k, 1000.0));
        for (k, omega) in cases.into_iter().chain([(3, 1e155), (3, 1e300)]) {
            let c = ctx_with_omega(k, omega);
            let report = welfare_report(&c, &solve_equilibrium(&c));
            assert!(
                report.efficient_welfare.is_finite(),
                "K={k}, ω={omega}: first best {}",
                report.efficient_welfare
            );
            assert!(
                report.efficient_welfare >= report.equilibrium_welfare - 1e-6,
                "K={k}: first best {} < equilibrium {}",
                report.efficient_welfare,
                report.equilibrium_welfare
            );
            let eff = report.efficiency();
            assert!((0.0..=1.0 + 1e-9).contains(&eff), "efficiency {eff}");
        }
    }

    #[test]
    fn hierarchy_loses_welfare_to_double_marginalization() {
        // The triple markup is strict in this interior configuration.
        let c = ctx(6);
        let report = welfare_report(&c, &solve_equilibrium(&c));
        assert!(
            report.efficiency() < 0.999,
            "expected strict efficiency loss, got {}",
            report.efficiency()
        );
        // But the log valuation keeps the loss moderate.
        assert!(
            report.efficiency() > 0.3,
            "equilibrium should capture a sizable welfare share, got {}",
            report.efficiency()
        );
    }

    #[test]
    fn efficient_allocation_is_a_stationary_point() {
        // Perturbing any single seller's time away from the first best
        // must not increase welfare.
        let c = ctx(4);
        let eff = efficient_allocation(&c);
        let base = eff.welfare;
        for i in 0..4 {
            for delta in [-1e-3, 1e-3] {
                let mut taus = eff.sensing_times.clone();
                taus[i] = (taus[i] + delta).max(0.0);
                assert!(
                    social_welfare(&c, &taus) <= base + 1e-6,
                    "seller {i} perturbation {delta} improved welfare"
                );
            }
        }
    }

    #[test]
    fn efficient_total_time_exceeds_equilibrium_total() {
        // Double marginalization suppresses quantity: the first best asks
        // for (weakly) more total sensing time.
        let c = ctx(6);
        let eq = solve_equilibrium(&c);
        let eff = efficient_allocation(&c);
        let eff_total: f64 = eff.sensing_times.iter().sum();
        assert!(eff_total > eq.total_sensing_time());
    }
}
