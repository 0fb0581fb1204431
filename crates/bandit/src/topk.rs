//! Deterministic top-K selection by score.
//!
//! Step 7 of Algorithm 1 sorts sellers by UCB value and greedily takes the
//! top `K`. Ties are broken by the lower seller id so that runs are
//! reproducible regardless of the underlying sort's stability. One ranking
//! routine, `rank_candidates`, orders the selection for two candidate
//! generators: the threshold pass of [`top_k_by_score_into`], which every
//! policy can use, and the count buckets of `buckets::CountBuckets`, which
//! CMAB-HS uses while `M ≫ K`.

use cdt_types::SellerId;

/// Returns the `k` seller ids with the largest scores, ordered best-first.
///
/// `NaN` scores are treated as `−∞` (never selected unless unavoidable);
/// `+∞` scores (unexplored sellers under UCB) sort first. Ties break toward
/// the smaller id. The owning form of [`top_k_by_score_into`].
///
/// # Panics
/// Panics if `k > scores.len()`.
#[must_use]
pub fn top_k_by_score(scores: &[f64], k: usize) -> Vec<SellerId> {
    let mut out = Vec::with_capacity(k);
    top_k_by_score_into(scores, k, &mut Vec::new(), &mut out);
    out
}

/// Allocation-free top-K: writes the `k` best seller ids into `out`, best
/// first, reusing `scratch` as the candidate buffer.
///
/// The order is `rank`'s: score descending, `NaN` as `−∞`, ties toward
/// the smaller id. The kernel is exact but prunes before it ranks:
///
/// 1. one pass computes the bound `τ`, the smallest of the maxima of `k`
///    contiguous blocks of `scores`. Every block holds an arm scoring
///    `≥ τ`, so at least `k` arms do, and so does every top-`k` arm;
/// 2. a second pass keeps the arms scoring `≥ τ` as candidates, or every
///    arm when `τ = −∞` (a block holding only `NaN`/`−∞`);
/// 3. `rank_candidates` ranks the candidates only.
///
/// Spread-out scores leave a few times `k` candidates (≈ 29 of 10⁴ UCB
/// indices at `K = 10`), so the cost is two streaming passes over the `M`
/// scores plus ranking the candidates. Equal or all-`+∞` scores keep every
/// arm and cost what ranking all `M` ids does. In traced benchmark runs on
/// a 2-core Xeon VM, `bandit.select_ns_per_round` (UCB fill plus this
/// kernel) fell from 211 µs to 34 µs on `stress_m10k` (`M = 10⁴`,
/// `K = 10`) and from 3.9 µs to 2.3 µs on `paper_default` (`M = 300`),
/// against ranking all `M` ids.
///
/// # Panics
/// Panics if `k > scores.len()`.
pub fn top_k_by_score_into(
    scores: &[f64],
    k: usize,
    scratch: &mut Vec<usize>,
    out: &mut Vec<SellerId>,
) {
    assert!(
        k <= scores.len(),
        "cannot select top {k} of {} sellers",
        scores.len()
    );
    out.clear();
    if k == 0 {
        return;
    }
    let tau = threshold(scores, k);
    scratch.clear();
    if tau == f64::NEG_INFINITY {
        scratch.extend(0..scores.len());
    } else {
        scratch.extend((0..scores.len()).filter(|&i| scores[i] >= tau));
    }
    rank_candidates(scores, k, scratch, out);
}

/// Writes the `k` best of `candidates` into `out` (cleared first), best
/// first, in [`rank`] order over `scores`; reorders `candidates`. Only the
/// candidates' entries of `scores` are read. Both candidate generators
/// rank through here, so they agree on ids and order whenever their
/// candidates contain the top `k`.
///
/// # Panics
/// Panics if `k > candidates.len()`.
pub(crate) fn rank_candidates(
    scores: &[f64],
    k: usize,
    candidates: &mut [usize],
    out: &mut Vec<SellerId>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    if k < candidates.len() {
        candidates.select_nth_unstable_by(k - 1, |&x, &y| rank(scores, x, y));
    }
    candidates[..k].sort_unstable_by(|&x, &y| rank(scores, x, y));
    out.extend(candidates[..k].iter().map(|&i| SellerId(i)));
}

/// The pruning bound of [`top_k_by_score_into`]: the smallest of the
/// maxima of `k` contiguous, non-empty blocks of `scores`
/// (`1 ≤ k ≤ scores.len()`). `NaN` is skipped, so a block of only
/// `NaN`/`−∞` has maximum `−∞`.
fn threshold(scores: &[f64], k: usize) -> f64 {
    let m = scores.len();
    (0..k)
        .map(|b| {
            scores[b * m / k..(b + 1) * m / k]
                .iter()
                .fold(f64::NEG_INFINITY, |max, &s| max.max(s))
        })
        .fold(f64::INFINITY, f64::min)
}

/// The selection order: larger (normalized) score first, ties toward the
/// smaller id. A strict total order, so partial selection and full sorting
/// agree on the top-K exactly.
fn rank(scores: &[f64], x: usize, y: usize) -> std::cmp::Ordering {
    let sx = normalize(scores[x]);
    let sy = normalize(scores[y]);
    sy.partial_cmp(&sx)
        .expect("normalized scores are comparable")
        .then(x.cmp(&y))
}

fn normalize(score: f64) -> f64 {
    if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score
    }
}

/// The test reference for the kernel: sorts every id in [`rank`] order and
/// keeps the first `k`.
#[cfg(test)]
pub(crate) fn top_k_by_full_sort(scores: &[f64], k: usize) -> Vec<SellerId> {
    assert!(k <= scores.len());
    let mut ids: Vec<usize> = (0..scores.len()).collect();
    ids.sort_unstable_by(|&x, &y| rank(scores, x, y));
    ids.truncate(k);
    ids.into_iter().map(SellerId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::check::check;
    use cdt_types::SimRng;

    fn assert_matches_reference(scores: &[f64], k: usize) {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        top_k_by_score_into(scores, k, &mut scratch, &mut out);
        assert_eq!(out, top_k_by_full_sort(scores, k), "{scores:?}, k = {k}");
    }

    #[test]
    fn selects_largest_scores_in_order() {
        let scores = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(
            top_k_by_score(&scores, 3),
            vec![SellerId(1), SellerId(3), SellerId(2)]
        );
    }

    #[test]
    fn ties_break_toward_smaller_id() {
        let scores = [0.5, 0.5, 0.5];
        assert_eq!(top_k_by_score(&scores, 2), vec![SellerId(0), SellerId(1)]);
    }

    #[test]
    fn infinite_scores_sort_first() {
        let scores = [0.9, f64::INFINITY, 0.8];
        assert_eq!(top_k_by_score(&scores, 2), vec![SellerId(1), SellerId(0)]);
    }

    #[test]
    fn nan_scores_sort_last() {
        let scores = [f64::NAN, 0.1, 0.2];
        assert_eq!(top_k_by_score(&scores, 2), vec![SellerId(2), SellerId(1)]);
        // NaN is only picked when k forces it.
        assert_eq!(top_k_by_score(&scores, 3)[2], SellerId(0));
    }

    #[test]
    fn k_equals_m_returns_everyone() {
        let scores = [0.3, 0.1, 0.2];
        let all = top_k_by_score(&scores, 3);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], SellerId(0));
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(top_k_by_score(&[0.1, 0.2], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot select top")]
    fn k_beyond_m_panics() {
        let _ = top_k_by_score(&[0.1], 2);
    }

    #[test]
    fn nan_and_neg_infinite_block_falls_back_to_every_arm() {
        // k = 3 cuts six arms into blocks of two; the middle block's
        // maximum is −∞, so τ = −∞ and every arm is a candidate.
        let scores = [0.3, 0.9, f64::NAN, f64::NEG_INFINITY, 0.5, 0.1];
        assert_eq!(
            top_k_by_score(&scores, 3),
            vec![SellerId(1), SellerId(4), SellerId(0)]
        );
        for k in 0..=scores.len() {
            assert_matches_reference(&scores, k);
        }
    }

    #[test]
    fn all_infinite_scores_keep_every_arm() {
        // The cold start without an initial sweep: every UCB index is +∞,
        // so τ = +∞, every arm survives the bound and ids break the ties.
        let scores = [f64::INFINITY; 7];
        assert_eq!(
            top_k_by_score(&scores, 3),
            vec![SellerId(0), SellerId(1), SellerId(2)]
        );
        let inf = f64::INFINITY;
        let mixed = [0.4, inf, 0.9, inf, 0.2, inf, 0.7];
        assert_eq!(
            top_k_by_score(&mixed, 4),
            vec![SellerId(1), SellerId(3), SellerId(5), SellerId(2)]
        );
    }

    #[test]
    fn scores_equal_to_the_bound_straddle_the_cut() {
        // τ = 0.5 and four arms score exactly τ: some make the cut and some
        // do not, and only the id decides which.
        let scores = [0.5, 0.2, 0.5, 0.1, 0.5, 0.5];
        assert_eq!(top_k_by_score(&scores, 2), vec![SellerId(0), SellerId(2)]);
        assert_eq!(
            top_k_by_score(&scores, 3),
            vec![SellerId(0), SellerId(2), SellerId(4)]
        );
    }

    #[test]
    fn negative_zero_ties_positive_zero() {
        // −0.0 == +0.0 in the order, so the id breaks the tie whichever
        // zero a block maximum returns.
        let scores = [-0.0, 0.0, -1.0, 0.0, -0.0, -1.0];
        assert_eq!(top_k_by_score(&scores, 2), vec![SellerId(0), SellerId(1)]);
        assert_eq!(
            top_k_by_score(&scores, 4),
            vec![SellerId(0), SellerId(1), SellerId(3), SellerId(4)]
        );
    }

    #[test]
    fn ragged_blocks_and_extreme_k_match_the_full_sort() {
        // M % K ≠ 0 leaves blocks of unequal length; K = 1, M − 1 and M
        // are the extremes of the block count. Scores repeat, so ties
        // cross block boundaries.
        for m in [7usize, 10, 13, 64] {
            let scores: Vec<f64> = (0..m).map(|i| ((i * 37) % 11) as f64 / 10.0).collect();
            for k in 0..=m {
                assert_matches_reference(&scores, k);
            }
        }
        let scores = [0.3, 0.8, 0.1, 0.8, 0.6, 0.2, 0.9];
        assert_eq!(top_k_by_score(&scores, 1), vec![SellerId(6)]);
        assert_eq!(
            top_k_by_score(&scores, 6),
            [6, 1, 3, 4, 0, 5].map(SellerId).to_vec()
        );
        assert_eq!(top_k_by_score(&scores, 7)[6], SellerId(2));
    }

    /// 1–39 scores uniform on `range`.
    fn arb_scores(rng: &mut SimRng, range: std::ops::Range<f64>) -> Vec<f64> {
        let len = 1 + rng.below(39);
        (0..len).map(|_| rng.uniform(range.clone())).collect()
    }

    /// Every selected score dominates every unselected score.
    #[test]
    fn selected_dominate_unselected() {
        let gen = |rng: &mut SimRng| (arb_scores(rng, 0.0..1.0), rng.uniform(0.0..1.0));
        check(256, gen, |(scores, k_frac)| {
            let k = ((scores.len() as f64) * k_frac) as usize;
            let picked = top_k_by_score(scores, k);
            let picked_set: std::collections::HashSet<usize> =
                picked.iter().map(|s| s.index()).collect();
            let min_picked = picked
                .iter()
                .map(|s| scores[s.index()])
                .fold(f64::INFINITY, f64::min);
            for (i, &s) in scores.iter().enumerate() {
                if !picked_set.contains(&i) {
                    assert!(s <= min_picked + 1e-15);
                }
            }
        });
    }

    /// The result has no duplicates and exactly k entries.
    #[test]
    fn result_is_a_k_subset() {
        check(
            256,
            |rng| arb_scores(rng, 0.0..1.0),
            |scores| {
                let k = scores.len() / 2;
                let picked = top_k_by_score(scores, k);
                let set: std::collections::HashSet<_> = picked.iter().collect();
                assert_eq!(picked.len(), k);
                assert_eq!(set.len(), k);
            },
        );
    }

    /// `k == scores.len()`: the select_nth step is skipped and only
    /// the final sort runs.
    #[test]
    fn into_variant_matches_sort_based_at_k_equals_len() {
        check(
            256,
            |rng| arb_scores(rng, -1.0..1.0),
            |scores| {
                let k = scores.len();
                let reference = top_k_by_full_sort(scores, k);
                let mut scratch = Vec::new();
                let mut out = Vec::new();
                top_k_by_score_into(scores, k, &mut scratch, &mut out);
                assert_eq!(out, reference);
            },
        );
    }

    /// All scores equal: every arm ties the bound, so every arm is a
    /// candidate and every comparison falls through to the id.
    #[test]
    fn into_variant_matches_sort_based_on_all_equal_scores() {
        let gen = |rng: &mut SimRng| {
            let score = rng.uniform(-1.0..1.0);
            let len = 1 + rng.below(39) as usize;
            (score, len, rng.uniform_inclusive(0.0..=1.0))
        };
        check(256, gen, |&(score, len, k_frac)| {
            let scores = vec![score; len];
            let k = ((len as f64) * k_frac) as usize;
            let reference = top_k_by_full_sort(&scores, k);
            assert_eq!(
                &reference,
                &(0..k).map(SellerId).collect::<Vec<_>>(),
                "equal scores must break ties toward smaller ids"
            );
            let mut scratch = Vec::new();
            let mut out = Vec::new();
            top_k_by_score_into(&scores, k, &mut scratch, &mut out);
            assert_eq!(out, reference);
        });
    }

    /// A block of duplicated scores straddling the cut, so the
    /// candidates must be split by the id tie-break alone.
    #[test]
    fn into_variant_matches_sort_based_with_duplicates_straddling_pivot() {
        let gen = |rng: &mut SimRng| {
            let dup = rng.uniform(-1.0..1.0);
            let dup_count = 2 + rng.below(18) as usize;
            let len = rng.below(20);
            let others: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0..1.0)).collect();
            (dup, dup_count, others, rng.next_u64())
        };
        check(256, gen, |&(dup, dup_count, ref others, seed)| {
            // Interleave the duplicate block deterministically among the
            // distinct scores, then pick k inside the duplicate run.
            let mut scores: Vec<f64> = others.clone();
            let mut state = seed;
            for _ in 0..dup_count {
                // SplitMix64-style index scrambling; no RNG dependency.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let at = (z >> 33) as usize % (scores.len() + 1);
                scores.insert(at, dup);
            }
            // Ranks of the duplicate entries in the full order; choose k so
            // the cut lands strictly inside the duplicate run whenever the
            // run spans more than one rank.
            let order = top_k_by_full_sort(&scores, scores.len());
            let first_dup_rank = order
                .iter()
                .position(|id| scores[id.index()] == dup)
                .expect("duplicate block is present");
            let k = (first_dup_rank + dup_count / 2).min(scores.len());
            let reference = top_k_by_full_sort(&scores, k);
            let mut scratch = Vec::new();
            let mut out = Vec::new();
            top_k_by_score_into(&scores, k, &mut scratch, &mut out);
            assert_eq!(out, reference);
        });
    }

    /// The kernel matches the full-sort reference exactly — same ids,
    /// same order — for every k, on score vectors that may contain
    /// NaN, ±∞, and repeated values.
    #[test]
    fn into_variant_matches_sort_based() {
        const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 0.5];
        let gen = |rng: &mut SimRng| {
            let len = 1 + rng.below(49);
            // Uniform on [-1, 1) five times in six, a special value otherwise.
            let scores: Vec<f64> = (0..len)
                .map(|_| match rng.below(6) {
                    0 => SPECIAL[rng.below(5) as usize],
                    _ => rng.uniform(-1.0..1.0),
                })
                .collect();
            (scores, rng.uniform_inclusive(0.0..=1.0))
        };
        check(256, gen, |(scores, k_frac)| {
            let k = ((scores.len() as f64) * k_frac) as usize;
            let reference = top_k_by_full_sort(scores, k);
            let mut scratch = Vec::new();
            let mut out = Vec::new();
            top_k_by_score_into(scores, k, &mut scratch, &mut out);
            assert_eq!(out, reference);
        });
    }

    #[test]
    fn into_variant_reuses_buffers() {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        top_k_by_score_into(&[0.1, 0.9, 0.5, 0.7], 2, &mut scratch, &mut out);
        assert_eq!(out, vec![SellerId(1), SellerId(3)]);
        // A second call on smaller input must fully overwrite stale state.
        top_k_by_score_into(&[0.3, 0.1], 1, &mut scratch, &mut out);
        assert_eq!(out, vec![SellerId(0)]);
        let ptr_before = out.as_ptr();
        top_k_by_score_into(&[0.2, 0.4], 1, &mut scratch, &mut out);
        assert_eq!(out, vec![SellerId(1)]);
        assert_eq!(ptr_before, out.as_ptr(), "no reallocation on reuse");
    }

    #[test]
    fn into_variant_k_zero_and_k_full() {
        let mut scratch = Vec::new();
        let mut out = vec![SellerId(9)];
        top_k_by_score_into(&[0.1, 0.2], 0, &mut scratch, &mut out);
        assert!(out.is_empty());
        top_k_by_score_into(&[0.3, 0.1, 0.2], 3, &mut scratch, &mut out);
        assert_eq!(out, top_k_by_full_sort(&[0.3, 0.1, 0.2], 3));
    }
}
