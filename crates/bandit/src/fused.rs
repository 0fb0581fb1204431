//! Exact Eq. 19 top-K from one multiply-add per arm.
//!
//! Once the count buckets have dropped, a CMAB-HS round would rank all `M`
//! arms by the exact index `E_i = fl(m_i + fl(√fl(c / n_i)))`, with
//! `c = fl(w · ln Σn)`: a divide and a square root per arm. [`FusedUcb`]
//! caches `r_i = fl(√fl(1 / n_i))`, refreshed for the observed arms only,
//! and each round computes the approximation `a_i = fl(m_i + fl(s · r_i))`
//! with `s = fl(√c)`. The threshold pass's block bound `τ`, taken over
//! `a` and lowered by a margin `Δ` that covers the rounding, keeps a few
//! times `K` arms (about 29 of 300 at the Table II shape). Only those get
//! the exact `E_i`, and `rank_candidates` ranks them.
//!
//! **Why it is exact.** Let `u = 2⁻⁵³` and let `m̄` bound every `|m_i|`:
//! the largest `|mean|` the estimator has produced, tracked in
//! [`FusedUcb::note_observed`]. The kernel runs only while
//! `c ∈ [2⁶⁴ · MIN_POSITIVE, MAX]` and `m̄ ≤ 10³⁰⁰`. Every count is below
//! `2⁶⁴`, so `c / n`, `1 / n`, `√c` and `s · r` are then normal and
//! finite, and no sum overflows: each operation returns its exact result
//! times `1 + δ` with `|δ| ≤ u`.
//!
//! 1. For an explored arm let `B = √(c / n)`. The exact path's bonus
//!    `b = fl(√fl(c / n))` is `B(1 + β)` with `|β| ≤ 2u`, and the fused
//!    product `p = fl(s · r)` is `B(1 + π)` with `|π| ≤ 4u`.
//! 2. `E = (m + b)(1 + δ_E)` and `a = (m + p)(1 + δ_a)`, so
//!    `|a − E| ≤ 6uB(1 + u) + 2u|m + b|`. With `|m + b| ≤ |E| / (1 − u)`
//!    and `B ≤ (|E| / (1 − u) + m̄) / (1 − 2u)` this gives
//!    `|a − E| ≤ 9u(|E| + m̄) < 2⁻⁴⁹(|E| + m̄)`, and so also
//!    `|a − E| ≤ 2⁻⁴⁸(|a| + m̄)`.
//! 3. An unexplored arm has `r = +∞`, so `a = E = +∞`. No `a` is `−∞` or
//!    `NaN`, so `τ` is finite or `+∞`; at `+∞` every arm is kept.
//! 4. Each of the `K` blocks holds an arm with `a ≥ τ`. Since
//!    `x ↦ x − ε(|x| + m̄)` is increasing, each such arm has
//!    `E ≥ λ = τ − 2⁻⁴⁸(|τ| + m̄)`, and so does the `K`-th best `E`.
//! 5. So every arm whose `E` reaches the `K`-th best (each top-`K` arm and
//!    each arm tied with the `K`-th) has
//!    `a ≥ λ − 2⁻⁴⁹(|λ| + m̄) > τ − 0.76 · 2⁻⁴⁷(|τ| + m̄)`.
//! 6. The floor `fl(τ − fl(Δ))`, `Δ = 2⁻⁴⁷(|τ| + m̄)`, is at most
//!    `τ − 0.98 · 2⁻⁴⁷(|τ| + m̄)` (`|τ| + m̄ ≥ (1 − u)p > 0`, so the
//!    margin is normal), below every such `a`.
//!
//! The kept arms therefore hold the exact top `K` and every arm tied with
//! the `K`-th, and ranking their exact indices returns the threshold
//! kernel's ids in its order. Debug builds re-select every fused round
//! with the threshold kernel over all `M` exact indices and assert that
//! the two agree.

use crate::estimator::QualityEstimator;
use crate::topk::{rank_candidates, rank_key, threshold};
use cdt_types::SellerId;

/// The smallest `c` the kernel takes: `2⁶⁴ · MIN_POSITIVE = 2⁻⁹⁵⁸`, so
/// `c / n` is normal for every count `n < 2⁶⁴`.
const C_MIN: f64 = f64::MIN_POSITIVE * 18_446_744_073_709_551_616.0;

/// The largest `m̄` the kernel takes, far enough below `f64::MAX` that no
/// `m + p` or `|τ| + m̄` overflows.
const MEAN_LIMIT: f64 = 1e300;

/// `2⁻⁴⁷`: the margin per unit of `|τ| + m̄`, twice the rounding bound.
const MARGIN: f64 = 32.0 * f64::EPSILON;

/// The cached per-arm factors and the candidate buffer of one policy.
#[derive(Debug, Clone)]
pub(crate) struct FusedUcb {
    /// `fl(√fl(1 / n_i))` per arm: `+∞` while the arm is unexplored.
    recip_sqrt: Vec<f64>,
    /// `m̄`: the largest `|mean|` the estimator has produced (never `NaN`:
    /// `f64::max` skips it, and means are never `NaN`).
    mean_bound: f64,
    /// The filter pass's candidate ids (`M` slots once used).
    kept: Vec<usize>,
    /// Arms kept by the last fused selection.
    #[cfg(test)]
    pub(crate) last_kept: usize,
}

impl FusedUcb {
    /// The state of a fresh estimator over `m` sellers: every arm
    /// unexplored, every mean 0.
    pub(crate) fn new(m: usize) -> Self {
        Self {
            recip_sqrt: vec![f64::INFINITY; m],
            mean_bound: 0.0,
            kept: Vec::new(),
            #[cfg(test)]
            last_kept: 0,
        }
    }

    /// Refreshes `sellers`' cached factors and `m̄` after the estimator
    /// folded their observations.
    pub(crate) fn note_observed(&mut self, estimator: &QualityEstimator, sellers: &[SellerId]) {
        let (counts, means) = (estimator.counts(), estimator.means());
        for id in sellers {
            let i = id.index();
            self.recip_sqrt[i] = (1.0 / counts[i] as f64).sqrt();
            self.mean_bound = self.mean_bound.max(means[i].abs());
        }
    }

    /// Writes the `k` best arms by the Eq. 19 index with exploration
    /// weight `weight` into `out`, best first, in the order of
    /// [`top_k_by_score_into`](crate::topk::top_k_by_score_into), and
    /// returns `true`. `approx` receives every `a_i`; `keys` is the
    /// candidate key buffer.
    ///
    /// Returns `false`, leaving `out` alone, when the caller must select
    /// with the threshold kernel instead: `Σn ≤ 1`, `k` is 0 or above `M`,
    /// or `c` or `m̄` lies outside the range the exactness argument covers.
    pub(crate) fn select_into(
        &mut self,
        estimator: &QualityEstimator,
        weight: f64,
        k: usize,
        approx: &mut Vec<f64>,
        keys: &mut Vec<u128>,
        out: &mut Vec<SellerId>,
    ) -> bool {
        let (counts, means) = (estimator.counts(), estimator.means());
        let (m, total) = (counts.len(), estimator.total_count());
        if total <= 1 || k == 0 || k > m {
            return false;
        }
        // `w · ln Σn`, hoisted as in `ucb_indices_into`.
        let c = weight * (total as f64).ln();
        if !(C_MIN..=f64::MAX).contains(&c) || self.mean_bound > MEAN_LIMIT {
            return false;
        }
        let s = c.sqrt();
        approx.clear();
        approx.extend(
            means
                .iter()
                .zip(&self.recip_sqrt)
                .map(|(&mean, &r)| mean + s * r),
        );
        let tau = threshold(approx, k);
        let floor = if tau.is_finite() {
            tau - MARGIN * (tau.abs() + self.mean_bound)
        } else {
            f64::NEG_INFINITY
        };
        // Branch-free: every id is written, and the slot advances only for
        // a kept arm.
        self.kept.resize(m, 0);
        let mut kept = 0;
        for (i, &a) in approx.iter().enumerate() {
            self.kept[kept] = i;
            kept += usize::from(a >= floor);
        }
        #[cfg(test)]
        {
            self.last_kept = kept;
        }
        keys.clear();
        // The expression of `ucb_indices_into`, so the indices match its bits.
        keys.extend(
            self.kept[..kept]
                .iter()
                .map(|&i| rank_key(means[i] + (c / counts[i] as f64).sqrt(), i)),
        );
        rank_candidates(keys, k, out);
        true
    }

    /// The capacities of the buffers the kernel owns.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> (usize, usize) {
        (self.recip_sqrt.capacity(), self.kept.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{ucb_indices_into, UcbConfig};
    use crate::topk::top_k_by_full_sort;
    use cdt_types::check::check;
    use cdt_types::SimRng;

    /// One kernel case: counts, means, the exploration weight and a `K`.
    type Case = (Vec<u64>, Vec<f64>, f64, usize);

    /// The exact-path bonus of `ucb_indices_into`.
    fn bonus(c: f64, n: u64) -> f64 {
        (c / n as f64).sqrt()
    }

    /// The kernel's approximation of one arm's index.
    fn approx(c: f64, n: u64, mean: f64) -> f64 {
        mean + c.sqrt() * (1.0 / n as f64).sqrt()
    }

    /// Steps `x` by `ulps` units in the last place (never across zero for
    /// the small steps used here).
    fn ulp_step(x: f64, ulps: i64) -> f64 {
        if x == 0.0 {
            return x;
        }
        f64::from_bits((x.to_bits() as i64 + ulps * x.signum() as i64) as u64)
    }

    /// Cases built to stress the margin: 1–120 arms over a few count
    /// values (count 0, an unexplored arm, in some), means drawn on a
    /// scale from 10⁻³ to 10³ and of either sign, copies of an earlier
    /// arm's (count, mean) at another position, partners of an earlier
    /// arm whose mean is set so that the two exact indices lie within a few
    /// ulps, where the cached-`r` order and the exact order can disagree,
    /// and arms whose mean cancels their bonus, so that indices near 0
    /// carry the rounding error of a much larger mean. Weights are the
    /// paper's range, a tiny one that still runs the kernel, and extremes
    /// that must not.
    fn arb_case(rng: &mut SimRng) -> Case {
        const WEIGHTS: [f64; 5] = [1e-280, 1e-300, 1e308, 1e-310, 61.0];
        let m = 1 + rng.below(120) as usize;
        let values: Vec<u64> = (0..1 + rng.below(6))
            .map(|v| {
                if v == 0 && rng.bernoulli(0.2) {
                    0
                } else {
                    1 + rng.below(400)
                }
            })
            .collect();
        let weight = if rng.bernoulli(0.25) {
            WEIGHTS[rng.below(WEIGHTS.len() as u64) as usize]
        } else {
            rng.uniform(0.5..61.0)
        };
        let scale = [1.0, 1e-3, 1e3][rng.below(3) as usize];
        // Each arm is a copy of an earlier arm (kind 0), its near-tie
        // partner (1), cancels its bonus (2) or is fresh (3, 4). In one
        // case of four nearly every arm cancels, so `τ` lies near 0.
        let cancelling = rng.bernoulli(0.25);
        let plan: Vec<(u64, usize)> = (0..m)
            .map(|i| {
                let kind = if cancelling && rng.bernoulli(0.9) {
                    2
                } else {
                    rng.below(5)
                };
                (kind, rng.below(i.max(1) as u64) as usize)
            })
            .collect();
        let mut counts: Vec<u64> = Vec::with_capacity(m);
        for (i, &(kind, j)) in plan.iter().enumerate() {
            counts.push(if kind == 0 && i > 0 {
                counts[j]
            } else {
                values[rng.below(values.len() as u64) as usize]
            });
        }
        let c = weight * (counts.iter().sum::<u64>() as f64).ln();
        let mut means: Vec<f64> = Vec::with_capacity(m);
        for (i, &(kind, j)) in plan.iter().enumerate() {
            let partner = kind == 1 && i > 0 && counts[i] > 0 && counts[j] > 0 && c.is_finite();
            means.push(if counts[i] == 0 {
                0.0
            } else if kind == 0 && i > 0 {
                means[j]
            } else if partner {
                let tied = means[j] + bonus(c, counts[j]) - bonus(c, counts[i]);
                ulp_step(tied, rng.below(5) as i64 - 2)
            } else if kind == 2 && c.is_finite() {
                ulp_step(-bonus(c, counts[i]), rng.below(5) as i64 - 2)
            } else {
                scale * rng.uniform(-1.0..1.0)
            });
        }
        let big_k = 1 + rng.below(m as u64) as usize;
        (counts, means, weight, big_k)
    }

    /// The fused kernel selects the full sort's ids, in its order, for
    /// `K = 1`, a random `K` (`M` is rarely its multiple) and `K = M`, and
    /// declines exactly where its guard says.
    #[test]
    fn fused_selection_matches_the_full_sort_on_margin_cases() {
        let (mut disagreements, mut fused, mut declined) = (0, 0, 0);
        check(600, arb_case, |&(ref counts, ref means, weight, big_k)| {
            let m = counts.len();
            let estimator = QualityEstimator::from_parts(counts.clone(), means.clone());
            let mut kernel = FusedUcb::new(m);
            kernel.note_observed(&estimator, &(0..m).map(SellerId).collect::<Vec<_>>());
            let mut exact = Vec::new();
            ucb_indices_into(&estimator, &UcbConfig::with_weight(weight), &mut exact);
            let total = estimator.total_count();
            let c = weight * (total as f64).ln();
            let runs = total > 1 && (C_MIN..=f64::MAX).contains(&c);
            if runs {
                let explored: Vec<usize> = (0..m).filter(|&i| counts[i] > 0).collect();
                for (x, &i) in explored.iter().enumerate() {
                    for &j in &explored[..x] {
                        let a = approx(c, counts[i], means[i])
                            .partial_cmp(&approx(c, counts[j], means[j]));
                        if a != exact[i].partial_cmp(&exact[j]) {
                            disagreements += 1;
                        }
                    }
                }
            }
            let (mut scratch, mut keys, mut out) = (Vec::new(), Vec::new(), Vec::new());
            for k in [1, big_k, m] {
                let took =
                    kernel.select_into(&estimator, weight, k, &mut scratch, &mut keys, &mut out);
                assert_eq!(took, runs, "k {k}, weight {weight}, total {total}");
                if took {
                    fused += 1;
                    assert_eq!(out, top_k_by_full_sort(&exact, k), "k {k}, weight {weight}");
                } else {
                    declined += 1;
                }
            }
        });
        assert!(
            disagreements > 100,
            "only {disagreements} pairs where the cached-r order and the exact order disagree"
        );
        assert!(
            fused > 1000 && declined > 100,
            "{fused} fused, {declined} declined"
        );
    }

    #[test]
    fn extreme_weights_take_the_guard() {
        // c = 1e308 · ln 20 overflows, and 1e-300 · ln 20 and a subnormal
        // c lie below 2⁻⁹⁵⁸: the threshold kernel selects.
        let estimator = QualityEstimator::from_parts(vec![10, 10], vec![0.25, 0.75]);
        let mut kernel = FusedUcb::new(2);
        kernel.note_observed(&estimator, &[SellerId(0), SellerId(1)]);
        let (mut approx, mut keys, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for weight in [1e308, 1e-300, 1e-320] {
            assert!(
                !kernel.select_into(&estimator, weight, 1, &mut approx, &mut keys, &mut out),
                "weight {weight}"
            );
        }
        assert!(kernel.select_into(&estimator, 1e-280, 1, &mut approx, &mut keys, &mut out));
        assert_eq!(out, [SellerId(1)]);
    }

    #[test]
    fn means_beyond_the_limit_take_the_guard() {
        let estimator = QualityEstimator::from_parts(vec![4, 4], vec![2e300, -1.0]);
        let mut kernel = FusedUcb::new(2);
        kernel.note_observed(&estimator, &[SellerId(0), SellerId(1)]);
        let (mut approx, mut keys, mut out) = (Vec::new(), Vec::new(), Vec::new());
        assert!(!kernel.select_into(&estimator, 3.0, 1, &mut approx, &mut keys, &mut out));
    }

    #[test]
    fn an_unexplored_arm_in_every_block_keeps_every_arm() {
        // K = 2 blocks of three, each with an unexplored arm: τ = +∞, so
        // every arm is kept and the two unexplored arms rank first by id.
        let counts = vec![3, 0, 5, 8, 2, 0];
        let means = vec![0.5, 0.0, 0.9, 0.1, 0.2, 0.0];
        let estimator = QualityEstimator::from_parts(counts, means);
        let mut kernel = FusedUcb::new(6);
        kernel.note_observed(&estimator, &(0..6).map(SellerId).collect::<Vec<_>>());
        let (mut approx, mut keys, mut out) = (Vec::new(), Vec::new(), Vec::new());
        assert!(kernel.select_into(&estimator, 3.0, 2, &mut approx, &mut keys, &mut out));
        assert_eq!(kernel.last_kept, 6);
        assert_eq!(out, [SellerId(1), SellerId(5)]);
    }
}
