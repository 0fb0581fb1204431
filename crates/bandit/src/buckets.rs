//! Count-bucketed exact top-K for the Eq. 19 index.
//!
//! The bonus `sqrt(w · ln Σn / n_i)` depends on the arm only through its
//! count `n_i`, and a selected seller's count grows by exactly `L`
//! (Eqs. 17–18), so few distinct counts exist when `M ≫ K`. Arms with equal
//! counts share one bit-identical bonus `b`, and `m ↦ fl(m + b)` is
//! monotone, so inside a count bucket the scores are non-increasing in mean
//! order. [`CountBuckets`] keeps every arm in one ordered set keyed by
//! (count, mean descending, id) and scores only the first `k` arms of each
//! bucket, plus every later arm whose score ties the `k`-th one.
//!
//! **Why that is exact.** Take an arm of the global top `k`. Fewer than `k`
//! arms of its bucket rank ahead of it, so if it lies past the bucket's
//! first `k`, one of those first `k` ranks behind it. That arm precedes it
//! in mean order, so its score is at least as large, and ranking behind
//! means the two scores are equal. Scores between them are then equal too,
//! so the arm lies in the tie run of the `k`-th score. Two different means
//! can round to one score (under `b = 3.5`, the means `0.5` and
//! `0.5 + 2⁻⁵³` both score `4.0`), and the ranking key of [`crate::topk`]
//! then orders them by id, against mean order: that is the case the tie
//! run covers.
//! [`rank_candidates`] ranks the candidates' keys exactly as the threshold
//! kernel ranks its own, so both return the same ids in the same order.
//!
//! The set pays off only while the bucket count `G` is small against `M`.
//! Once `G · k · DROP_RATIO > M` the set is dropped for good and the caller
//! selects with the fused bound of `crate::fused` from then on.

use crate::estimator::QualityEstimator;
use crate::topk::{descending, rank_candidates, rank_key};
use cdt_types::SellerId;
use std::collections::BTreeSet;

/// A set key: (count, mean in descending order, id).
type Key = (u64, u64, usize);

/// The set is dropped once `G · k · DROP_RATIO > M`, which bounds a
/// bucketed round at about `M / 16` scored arms plus one set seek per
/// bucket, against the fused bound's three streaming passes over all `M`
/// arms. Re-measured against the fused bound (EXPERIMENTS.md, "Fused UCB
/// selection"): near the drop point 16 selected as fast as 4 and 8 or
/// faster, and 32 was slower at `M = 3000`, `K = 5`.
const DROP_RATIO: usize = 16;

/// Count-bucketed selection state of one policy.
#[derive(Debug, Clone, Default)]
pub(crate) struct CountBuckets {
    state: State,
    /// Arms scored by the last bucketed selection.
    #[cfg(test)]
    pub(crate) scored: usize,
}

#[derive(Debug, Clone, Default)]
enum State {
    /// Built by the first selection with `Σn > 1`, so a run of the initial
    /// sweep alone never pays for it.
    #[default]
    Unbuilt,
    Active(BucketSet),
    /// Too many buckets: the threshold kernel selects from now on.
    Dropped,
}

impl CountBuckets {
    /// Whether the set has been dropped for good.
    #[cfg(test)]
    pub(crate) fn is_dropped(&self) -> bool {
        matches!(self.state, State::Dropped)
    }

    /// Whether the set is live (built and not dropped).
    #[cfg(test)]
    pub(crate) fn is_active(&self) -> bool {
        matches!(self.state, State::Active(_))
    }

    /// Records where `sellers` stand before their counts and means change,
    /// so the next selection can re-key them.
    pub(crate) fn note_observed(&mut self, estimator: &QualityEstimator, sellers: &[SellerId]) {
        if let State::Active(set) = &mut self.state {
            let (counts, means) = (estimator.counts(), estimator.means());
            set.moved
                .extend(sellers.iter().map(|id| key(counts, means, id.index())));
        }
    }

    /// Writes the `k` best arms by the Eq. 19 index with exploration
    /// weight `weight` into `out`, best first, in the order of
    /// [`top_k_by_score_into`](crate::topk::top_k_by_score_into), and
    /// returns `true`. `keys` is the candidate key buffer.
    ///
    /// Returns `false`, leaving `out` alone, when the caller must select
    /// another way: `Σn ≤ 1`, `k` is 0 or above `M`, or the set has been
    /// (or is now) dropped.
    pub(crate) fn select_into(
        &mut self,
        estimator: &QualityEstimator,
        weight: f64,
        k: usize,
        keys: &mut Vec<u128>,
        out: &mut Vec<SellerId>,
    ) -> bool {
        if matches!(self.state, State::Dropped) {
            return false;
        }
        let (counts, means) = (estimator.counts(), estimator.means());
        let (m, total) = (counts.len(), estimator.total_count());
        if total <= 1 || k == 0 || k > m {
            return false;
        }
        let max_buckets = m / (k * DROP_RATIO);
        if matches!(self.state, State::Unbuilt) {
            self.state = if max_buckets == 0 {
                State::Dropped
            } else {
                State::Active(BucketSet::new(counts, means))
            };
        }
        let State::Active(set) = &mut self.state else {
            return false;
        };
        set.rekey(counts, means);
        // `w · ln Σn`, hoisted as in `ucb_indices_into`.
        let w_ln_total = weight * (total as f64).ln();
        let scored = set.candidates(means, w_ln_total, k, max_buckets, keys);
        #[cfg(test)]
        {
            self.scored = scored.unwrap_or(0);
        }
        if scored.is_none() {
            self.state = State::Dropped;
            return false;
        }
        rank_candidates(keys, k, out);
        true
    }
}

/// Every arm in one ordered set, plus the arms that moved since the last
/// selection.
#[derive(Debug, Clone)]
struct BucketSet {
    /// Every arm, ordered by (count, mean descending, id).
    arms: BTreeSet<Key>,
    /// The keys, as they stand in `arms`, of the arms observed since the
    /// last selection.
    moved: Vec<Key>,
}

impl BucketSet {
    fn new(counts: &[u64], means: &[f64]) -> Self {
        let mut arms = BTreeSet::new();
        for i in 0..counts.len() {
            arms.insert(key(counts, means, i));
        }
        Self {
            arms,
            moved: Vec::new(),
        }
    }

    /// Moves every noted arm to its current key. A key that is no longer in
    /// the set was noted again by a later observation and has already
    /// moved (observations may repeat between selections).
    fn rekey(&mut self, counts: &[u64], means: &[f64]) {
        for old in self.moved.drain(..) {
            if self.arms.remove(&old) {
                self.arms.insert(key(counts, means, old.2));
            }
        }
    }

    /// Pushes onto `keys` (cleared first) the ranking keys of the first `k`
    /// arms of each count bucket plus each later arm whose score ties the
    /// bucket's `k`-th. Returns how many arms were scored, or `None` as
    /// soon as the walk meets more than `max_buckets` buckets.
    fn candidates(
        &self,
        means: &[f64],
        w_ln_total: f64,
        k: usize,
        max_buckets: usize,
        keys: &mut Vec<u128>,
    ) -> Option<usize> {
        keys.clear();
        let (mut buckets, mut scored) = (0, 0);
        let mut from = 0;
        loop {
            let mut arms = self.arms.range((from, 0, 0)..).peekable();
            let Some(&&(count, _, _)) = arms.peek() else {
                return Some(scored);
            };
            buckets += 1;
            if buckets > max_buckets {
                return None;
            }
            // The expression of `ucb_indices_into`, so the scores match its
            // bits; a count of 0 gives +∞ and a bucket-wide tie.
            let bonus = (w_ln_total / count as f64).sqrt();
            let mut cut = f64::NAN;
            for (place, &(n, _, id)) in arms.enumerate() {
                if n != count {
                    break;
                }
                let score = means[id] + bonus;
                scored += 1;
                if place >= k && score != cut {
                    break;
                }
                if place + 1 == k {
                    cut = score;
                }
                keys.push(rank_key(score, id));
            }
            from = count + 1;
        }
    }
}

/// The set key of arm `i`. [`descending`] orders every finite mean as `<`
/// does (with `-0.0` after `+0.0`, which score the same), so scores never
/// rise along a bucket.
fn key(counts: &[u64], means: &[f64], i: usize) -> Key {
    (counts[i], descending(means[i]), i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::top_k_by_full_sort;
    use cdt_types::check::check;
    use cdt_types::SimRng;

    /// The kernel on a set built from `counts` and `means`, never dropped.
    fn bucketed_top_k(counts: &[u64], means: &[f64], w_ln_total: f64, k: usize) -> Vec<SellerId> {
        let set = BucketSet::new(counts, means);
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        set.candidates(means, w_ln_total, k, usize::MAX, &mut keys)
            .expect("no bucket limit");
        rank_candidates(&mut keys, k, &mut out);
        out
    }

    /// Every arm's score, by the expression of `ucb_indices_into`.
    fn full_scores(counts: &[u64], means: &[f64], w_ln_total: f64) -> Vec<f64> {
        counts
            .iter()
            .zip(means)
            .map(|(&n, &mean)| mean + (w_ln_total / n as f64).sqrt())
            .collect()
    }

    #[test]
    fn descending_key_reverses_the_order_of_means() {
        let means = [-1.0, -0.25, -0.0, 0.0, 1e-300, 0.5, 0.75, 1.0];
        for pair in means.windows(2) {
            assert!(
                descending(pair[0]) > descending(pair[1]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn kernel_matches_full_sort_on_random_buckets_with_ulp_collisions() {
        // Seeded cases: 1–8 count buckets (a count-0 bucket in some), means
        // that repeat exactly or differ by one ulp, so different means often
        // round to one score, and k ∈ {0, 1, K, M}.
        let gen = |rng: &mut SimRng| {
            let m = 1 + rng.below(150) as usize;
            let buckets = 1 + rng.below(8);
            let values: Vec<u64> = (0..buckets)
                .map(|b| {
                    if b == 0 && rng.bernoulli(0.2) {
                        0
                    } else {
                        1 + rng.below(40)
                    }
                })
                .collect();
            let counts: Vec<u64> = (0..m)
                .map(|_| values[rng.below(buckets) as usize])
                .collect();
            let mut means: Vec<f64> = Vec::with_capacity(m);
            for i in 0..m {
                let mean = if i > 0 && rng.bernoulli(0.4) {
                    let base: f64 = means[rng.below(i as u64) as usize];
                    match rng.below(3) {
                        0 => base,
                        1 => f64::from_bits(base.to_bits() + 1),
                        _ if base > 0.0 => f64::from_bits(base.to_bits() - 1),
                        _ => base,
                    }
                } else {
                    rng.uniform(0.0..1.0)
                };
                means.push(mean);
            }
            let total: u64 = counts.iter().sum::<u64>().max(2);
            let w_ln_total = rng.uniform(0.5..20.0) * (total as f64).ln();
            let big_k = 1 + rng.below(m as u64) as usize;
            (counts, means, w_ln_total, big_k)
        };
        let mut collisions = 0;
        check(400, gen, |&(ref counts, ref means, w_ln_total, big_k)| {
            let m = counts.len();
            let scores = full_scores(counts, means, w_ln_total);
            collisions += (0..m)
                .flat_map(|i| (0..i).map(move |j| (i, j)))
                .filter(|&(i, j)| {
                    counts[i] == counts[j] && means[i] != means[j] && scores[i] == scores[j]
                })
                .count();
            for k in [0, 1, big_k, m] {
                assert_eq!(
                    bucketed_top_k(counts, means, w_ln_total, k),
                    top_k_by_full_sort(&scores, k),
                    "k {k}"
                );
            }
        });
        assert!(
            collisions > 100,
            "only {collisions} score collisions between different means"
        );
    }

    #[test]
    fn tie_run_covers_different_means_that_round_to_one_score() {
        // One bucket, bonus 3.5: means 0.5 and 0.5 + 2⁻⁵³ both score 4.0.
        // Mean order puts arm 1 first, `rank` puts arm 0 first, and k = 2
        // places the cut between them (arm 2 takes the first place).
        let tiny = 0.5 + f64::EPSILON / 2.0;
        let means = [0.5, tiny, 0.9, 0.1];
        let counts = [1; 4];
        let w_ln_total = 12.25;
        let scores = full_scores(&counts, &means, w_ln_total);
        assert_ne!(means[0], means[1]);
        assert_eq!(scores[0], 4.0);
        assert_eq!(scores[1], 4.0);
        assert!(descending(means[1]) < descending(means[0]), "mean order");
        let want = vec![SellerId(2), SellerId(0)];
        assert_eq!(top_k_by_full_sort(&scores, 2), want);
        assert_eq!(bucketed_top_k(&counts, &means, w_ln_total, 2), want);
        // The bucket's first two arms alone (2, then 1) would pick arm 1.
        let set = BucketSet::new(&counts, &means);
        let first_two: Vec<usize> = set.arms.iter().take(2).map(|key| key.2).collect();
        assert_eq!(first_two, [2, 1]);
    }
}
