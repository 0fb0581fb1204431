//! Closed-form best responses: Theorems 14–16 of the paper.
//!
//! Backward induction order: Stage 3 (sellers) → Stage 2 (platform) →
//! Stage 1 (consumer). Each stage's formula assumes the stages below play
//! their own best responses.
//!
//! ### Paper errata we resolve (verified against a numeric maximizer)
//!
//! 1. **`B`'s definition.** Theorem 15 defines `B = Σ b_i / (2 a_i)` while
//!    the statement of Theorem 16 re-lists `B = Σ b_i / (2 q̄_i a_i)`.
//!    Expanding Stage 3, `Σ τ_i* = Σ (p − q̄_i b_i)/(2 q̄_i a_i)
//!    = p·A − Σ b_i/(2 a_i)`, so `B = Σ b_i / (2 a_i)` is the consistent
//!    definition and is used throughout.
//! 2. **The sign of `B` in Theorem 15.** Differentiating
//!    `Ω(p) = (p^J − p)(pA − B) − θ(pA − B)² − λ(pA − B)` gives the unique
//!    stationary point
//!    `p* = (p^J A − (λA − 2θBA − B)) / (2A(1+θA))` — the final `B` enters
//!    with a *plus* in the numerator, where the paper prints a minus
//!    (`… − (λA − 2θBA + B) …`). The golden-section cross-check in this
//!    module's tests pins the correct sign: the printed formula misses the
//!    true maximizer by exactly `B / (A(1+θA))`.
//! 3. **`Λ` follows the corrected Theorem 15.** Substituting the corrected
//!    `p*` into `Στ = p*A − B` yields `Στ = Θ p^J − Λ` with
//!    `Λ = (λA + B) / (2(1+θA))` (the paper's printed
//!    `Λ = (λA − 2θBA + B)/(2(1+θA)) + B = (λA + 3B)/(2(1+θA))` is the
//!    image of its own typo'd Theorem 15). Theorem 16's expression for
//!    `p^{J*}` in terms of `Θ, Λ` is unchanged — its derivation only uses
//!    the structure `Φ(Υ) = ω ln(1 − q̄Υ) + Υ(Λ−Υ)/Θ`, which holds for the
//!    corrected `Λ`.

use crate::context::GameContext;
use cdt_types::SellerCostParams;

/// The aggregate statistics of the selected-seller set that appear in
/// Theorems 15–16.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregates {
    /// `A = Σ_i 1 / (2 q̄_i a_i)` — the price-sensitivity of total sensing time.
    pub a: f64,
    /// `B = Σ_i b_i / (2 a_i)` — the fixed offset of total sensing time.
    pub b: f64,
    /// `q̄` — mean estimated quality of the selected set.
    pub mean_quality: f64,
    /// `Θ = A / (2 (1 + θA))` (Theorem 16).
    pub theta_cap: f64,
    /// `Λ = (λA + B) / (2(1 + θA))` (Theorem 16, with the corrected
    /// Theorem 15 substituted — see the module-level errata note).
    pub lambda_cap: f64,
}

impl Aggregates {
    /// Computes the aggregates for a game context.
    ///
    /// One fused pass over the context's parallel flat columns accumulates
    /// `A`, `B`, and `Σ q̄_i` together. Each accumulator keeps its own
    /// left-to-right summation order, so the results are bit-identical to
    /// separate per-seller loops.
    #[must_use]
    pub fn from_context(ctx: &GameContext) -> Self {
        let mut a = 0.0;
        let mut b = 0.0;
        let mut q_sum = 0.0;
        for ((&q, &ca), &cb) in ctx.qualities().iter().zip(ctx.cost_as()).zip(ctx.cost_bs()) {
            a += 1.0 / (2.0 * q * ca);
            b += cb / (2.0 * ca);
            q_sum += q;
        }
        let theta = ctx.platform_cost.theta;
        let lambda = ctx.platform_cost.lambda;
        let denom = 2.0 * (1.0 + theta * a);
        let theta_cap = a / denom;
        let lambda_cap = (lambda * a + b) / denom;
        Self {
            a,
            b,
            mean_quality: q_sum / ctx.k() as f64,
            theta_cap,
            lambda_cap,
        }
    }
}

/// **Theorem 14 (Stage 3).** A seller's optimal sensing time at collection
/// price `p`:
///
/// `τ_i* = (p − q̄_i b_i) / (2 q̄_i a_i)`,
///
/// clamped into the feasible region `[0, max_sensing_time]` (Def. 3 requires
/// `τ ∈ [0, T]`; the unclamped formula is the unique stationary point of the
/// strictly concave `Ψ_i`, so clamping preserves optimality over the
/// interval).
#[must_use]
pub fn seller_best_response(
    collection_price: f64,
    quality: f64,
    cost: SellerCostParams,
    max_sensing_time: f64,
) -> f64 {
    let unclamped = (collection_price - quality * cost.b) / (2.0 * quality * cost.a);
    unclamped.clamp(0.0, max_sensing_time)
}

/// Stage-3 best responses for every selected seller, in selection order.
#[must_use]
pub fn all_seller_best_responses(ctx: &GameContext, collection_price: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(ctx.k());
    all_seller_best_responses_into(ctx, collection_price, &mut out);
    out
}

/// As [`all_seller_best_responses`], but writes into `out`, reusing its
/// capacity so the per-round equilibrium solve does not allocate.
pub fn all_seller_best_responses_into(
    ctx: &GameContext,
    collection_price: f64,
    out: &mut Vec<f64>,
) {
    let t = ctx.max_sensing_time;
    out.clear();
    out.extend(
        ctx.qualities()
            .iter()
            .zip(ctx.cost_as())
            .zip(ctx.cost_bs())
            .map(|((&q, &a), &b)| {
                seller_best_response(collection_price, q, SellerCostParams { a, b }, t)
            }),
    );
}

/// **Theorem 15 (Stage 2), sign-corrected.** The platform's optimal
/// collection price given the consumer's service price `p^J`:
///
/// `p* = (p^J A − (λA − 2θBA − B)) / (2A(1 + θA))`
///     `= (p^J A − λA + 2θBA + B) / (2A(1 + θA))`,
///
/// clamped into `[p_min, p_max]` (`Ω` is strictly concave in `p`, so the
/// clamp preserves optimality over the interval). See the module-level
/// errata note for why the last `B` enters with `+` rather than the
/// paper's printed `−`.
#[must_use]
pub fn platform_best_response(ctx: &GameContext, service_price: f64, agg: &Aggregates) -> f64 {
    let theta = ctx.platform_cost.theta;
    let lambda = ctx.platform_cost.lambda;
    let numer = service_price * agg.a - (lambda * agg.a - 2.0 * theta * agg.b * agg.a - agg.b);
    let unclamped = numer / (2.0 * agg.a * (1.0 + theta * agg.a));
    ctx.collection_price_bounds.clamp(unclamped)
}

/// **Theorem 16 (Stage 1).** The consumer's optimal service price:
///
/// `p^{J*} = (3 q̄ Λ + sqrt((q̄Λ − 2)² + 8 Θ ω q̄²) − 2) / (4 q̄ Θ)`,
///
/// clamped into `[p^J_min, p^J_max]`.
///
/// The formula selects the root `Υ₁` of the derivative numerator
/// `2q̄Υ² − (q̄Λ+2)Υ + (Λ − Θωq̄) = 0` with `Υ = Λ − Θ p^J = −Στ`; the
/// paper's monotonicity analysis (Fig. 3) shows `Υ₁` is the unique
/// maximizer on the feasible half-line `Υ < 0`.
#[must_use]
pub fn consumer_best_response(ctx: &GameContext, agg: &Aggregates) -> f64 {
    let q = agg.mean_quality;
    let lam = agg.lambda_cap;
    let th = agg.theta_cap;
    let omega = ctx.valuation.omega;
    let disc = (q * lam - 2.0) * (q * lam - 2.0) + 8.0 * th * omega * q * q;
    let unclamped = (3.0 * q * lam + disc.sqrt() - 2.0) / (4.0 * q * th);
    ctx.service_price_bounds.clamp(unclamped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SelectedSeller;
    use crate::numeric::{golden_section_max, grid_then_golden};
    use crate::profit::{consumer_profit, platform_profit, seller_profit};
    use cdt_types::{PlatformCostParams, PriceBounds, SellerId, ValuationParams};

    fn make_ctx(qualities: &[f64]) -> GameContext {
        let sellers = qualities
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                SelectedSeller::new(
                    SellerId(i),
                    q,
                    SellerCostParams {
                        a: 0.15 + 0.05 * i as f64,
                        b: 0.2 + 0.1 * i as f64,
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
            ValuationParams { omega: 1000.0 },
            PriceBounds::unbounded(),
            PriceBounds::unbounded(),
            f64::MAX,
        )
        .unwrap()
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let ctx = make_ctx(&[0.5, 0.8]);
        let agg = Aggregates::from_context(&ctx);
        // A = 1/(2·0.5·0.15) + 1/(2·0.8·0.20)
        let a = 1.0 / 0.15 + 1.0 / 0.32;
        // B = 0.2/(2·0.15) + 0.3/(2·0.20)
        let b = 0.2 / 0.3 + 0.3 / 0.4;
        assert!((agg.a - a).abs() < 1e-12);
        assert!((agg.b - b).abs() < 1e-12);
        assert!((agg.mean_quality - 0.65).abs() < 1e-12);
    }

    #[test]
    fn theorem14_matches_numeric_maximizer() {
        let cost = SellerCostParams { a: 0.3, b: 0.5 };
        for (p, q) in [(1.0, 0.6), (2.5, 0.9), (0.8, 0.3)] {
            let closed = seller_best_response(p, q, cost, f64::MAX);
            let numeric = golden_section_max(|t| seller_profit(p, t, q, cost), 0.0, 100.0, 1e-10);
            assert!(
                (closed - numeric.argmax).abs() < 1e-5,
                "p={p} q={q}: closed {closed} vs numeric {}",
                numeric.argmax
            );
        }
    }

    #[test]
    fn theorem14_clamps_to_zero_when_price_below_reservation() {
        // p < q·b ⇒ negative stationary point ⇒ the seller opts out (τ = 0).
        let cost = SellerCostParams { a: 0.3, b: 2.0 };
        assert_eq!(seller_best_response(0.1, 0.9, cost, f64::MAX), 0.0);
    }

    #[test]
    fn theorem14_clamps_to_round_duration() {
        let cost = SellerCostParams { a: 0.01, b: 0.0 };
        // Huge price, tiny cost: unclamped optimum far above T = 2.
        assert_eq!(seller_best_response(100.0, 0.5, cost, 2.0), 2.0);
    }

    #[test]
    fn theorem15_matches_numeric_maximizer() {
        let ctx = make_ctx(&[0.5, 0.8, 0.7]);
        let agg = Aggregates::from_context(&ctx);
        for pj in [5.0, 10.0, 25.0] {
            let closed = platform_best_response(&ctx, pj, &agg);
            let numeric = golden_section_max(
                |p| {
                    let taus = all_seller_best_responses(&ctx, p);
                    platform_profit(&ctx, pj, p, &taus)
                },
                0.0,
                pj,
                1e-10,
            );
            assert!(
                (closed - numeric.argmax).abs() < 1e-4,
                "pJ={pj}: closed {closed} vs numeric {}",
                numeric.argmax
            );
        }
    }

    #[test]
    fn theorem16_matches_numeric_maximizer() {
        let ctx = make_ctx(&[0.5, 0.8, 0.7, 0.6]);
        let agg = Aggregates::from_context(&ctx);
        let closed = consumer_best_response(&ctx, &agg);
        let numeric = grid_then_golden(
            |pj| {
                let p = platform_best_response(&ctx, pj, &agg);
                let taus = all_seller_best_responses(&ctx, p);
                consumer_profit(&ctx, pj, &taus)
            },
            0.0,
            10.0 * closed,
            4001,
            1e-10,
        );
        assert!(
            (closed - numeric.argmax).abs() / closed < 1e-3,
            "closed {closed} vs numeric {}",
            numeric.argmax
        );
    }

    #[test]
    fn theorem16_clamps_to_bounds() {
        let mut ctx = make_ctx(&[0.5, 0.8]);
        let agg = Aggregates::from_context(&ctx);
        let interior = consumer_best_response(&ctx, &agg);
        ctx.service_price_bounds = PriceBounds::new(0.0, interior / 2.0).unwrap();
        assert_eq!(consumer_best_response(&ctx, &agg), interior / 2.0);
        ctx.service_price_bounds = PriceBounds::new(interior * 2.0, interior * 3.0).unwrap();
        assert_eq!(consumer_best_response(&ctx, &agg), interior * 2.0);
    }

    #[test]
    fn total_sensing_time_linear_in_price() {
        let ctx = make_ctx(&[0.5, 0.8]);
        let agg = Aggregates::from_context(&ctx);
        let p = 3.0;
        let taus = all_seller_best_responses(&ctx, p);
        let total: f64 = taus.iter().sum();
        // Σ τ_i* = p·A − B while no seller's response clamps.
        assert!((p * agg.a - agg.b - total).abs() < 1e-9);
    }

    #[test]
    fn platform_response_increases_with_service_price() {
        let ctx = make_ctx(&[0.5, 0.8, 0.6]);
        let agg = Aggregates::from_context(&ctx);
        let p1 = platform_best_response(&ctx, 5.0, &agg);
        let p2 = platform_best_response(&ctx, 10.0, &agg);
        assert!(p2 > p1, "platform passes higher pJ through to sellers");
    }

    #[test]
    fn higher_omega_raises_consumer_price() {
        let lo = make_ctx(&[0.5, 0.8]);
        let mut hi = lo.clone();
        hi.valuation = ValuationParams { omega: 2000.0 };
        let pj_lo = consumer_best_response(&lo, &Aggregates::from_context(&lo));
        let pj_hi = consumer_best_response(&hi, &Aggregates::from_context(&hi));
        assert!(pj_hi > pj_lo, "more valuable data ⇒ higher offered price");
    }
}
