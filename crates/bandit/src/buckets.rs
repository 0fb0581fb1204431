//! Count-bucketed exact top-K for the Eq. 19 index.
//!
//! The bonus `sqrt(w · ln Σn / n_i)` depends on the arm only through its
//! count `n_i`, and a selected seller's count grows by exactly `L`
//! (Eqs. 17–18), so few distinct counts exist when `M ≫ K`. Arms with equal
//! counts share one bit-identical bonus `b`, and `m ↦ fl(m + b)` is
//! monotone, so inside a count bucket the scores are non-increasing in mean
//! order. [`CountBuckets`] keeps one bucket per count, each ordered by
//! (mean descending, id), and scores only the first `k` arms of each
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
//! **Why the walk visits each bucket in that order.** A bucket holds one
//! `u128` key per arm, `descending(mean) << 64 | id`, so `u128` order is
//! (mean descending, id) order. Its `head` holds its first keys in that
//! order, sorted with the best at the end; its `rest` holds the others in
//! no order, and every `rest` key ranks after every head key. So the head
//! is exactly the bucket's prefix, and the walk reads it from the best
//! end. Every operation keeps that invariant:
//!
//! - a key enters the head only if it ranks before the head's worst key
//!   or `rest` is empty, and otherwise `rest`, where it ranks after every
//!   head key;
//! - a spill moves the head's worst keys to `rest`, and they rank after
//!   the keys that stay;
//! - when the walk needs a key past the head, a refill moves the best keys
//!   of `rest`, sorted, to the head's worst end. They rank after every head
//!   key and before every key left in `rest`, so the head is again the
//!   bucket's prefix, longer than the walk has read.
//!
//! So the walk meets the same arms in the same order as a walk over one
//! ordered set of (count, mean descending, id) would, and scores the same
//! candidates.
//!
//! **Why the layout fits the traffic.** Each round the `K` selected arms
//! leave their buckets. They were candidates, so they sit among the last
//! keys of a head, where a short scan finds them and removing them moves
//! few keys. They enter other buckets at places set by their new means;
//! most rank past the head's worst key, which one comparison shows, and
//! are pushed onto `rest`. So a re-key touches a few keys, where a search
//! tree over all `M` arms paid two tree updates. The set is built by
//! grouping the keys by count into each bucket's `rest`, with no sort; the
//! first walk fills each head.
//!
//! The set pays off only while the bucket count `G` is small against `M`.
//! Once `G · k · DROP_RATIO > M` the set is dropped for good and the caller
//! selects with the fused bound of `crate::fused` from then on.

use crate::estimator::QualityEstimator;
use crate::topk::{descending, rank_candidates, rank_key};
use cdt_types::SellerId;

/// The set is dropped once `G · k · DROP_RATIO > M`, which bounds a
/// bucketed round at about `M / 8` scored arms, against the fused bound's
/// three streaming passes over all `M` arms. Re-measured against the fused
/// bound once re-keying stopped paying for a search tree (EXPERIMENTS.md,
/// "Count buckets without the B-tree"): 8 ran as fast as 16 or faster on
/// every shape tried, and a third faster at `M = 3000`, `K = 5`, where the
/// set now never drops. 4 was faster still at `M = 2000`, `K = 10` but
/// slower at the Table II shape, and 2 was slower wherever it differed.
const DROP_RATIO: usize = 8;

/// The smallest head target: a refill moves at least this many keys.
const MIN_HEAD: usize = 64;

/// How many keys at a head's best end a removal compares before it
/// searches the whole head. An arm leaves its bucket because it was
/// selected, so it was a candidate and usually sits there.
const SCAN: usize = 32;

/// Count-bucketed selection state of one policy: unbuilt until the first
/// selection with `Σn > 1`, then one bucket per count, each a sorted head
/// and an unordered rest (see the module docs), until the counts take more
/// than `M / (k · DROP_RATIO)` values, and dropped for good after that.
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
    /// Too many buckets: the fused bound selects from now on.
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

    /// How often each path of the live set has run since it was built.
    #[cfg(test)]
    pub(crate) fn paths(&self) -> Paths {
        match &self.state {
            State::Active(set) => set.paths,
            _ => Paths::default(),
        }
    }

    /// Records where `sellers` stand before their counts and means change,
    /// so the next selection can re-key them.
    pub(crate) fn note_observed(&mut self, estimator: &QualityEstimator, sellers: &[SellerId]) {
        if let State::Active(set) = &mut self.state {
            let (counts, means) = (estimator.counts(), estimator.means());
            set.moved.extend(sellers.iter().map(|id| {
                let i = id.index();
                (counts[i], key(means, i))
            }));
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
        let m = estimator.num_sellers();
        if k == 0 || k > m {
            return false;
        }
        self.select_within(estimator, weight, k, m / (k * DROP_RATIO), keys, out)
    }

    /// [`CountBuckets::select_into`] with the set dropped once it holds
    /// more than `max_buckets` buckets (`1 ≤ k ≤ M`).
    fn select_within(
        &mut self,
        estimator: &QualityEstimator,
        weight: f64,
        k: usize,
        max_buckets: usize,
        keys: &mut Vec<u128>,
        out: &mut Vec<SellerId>,
    ) -> bool {
        let (counts, means) = (estimator.counts(), estimator.means());
        let total = estimator.total_count();
        if total <= 1 || matches!(self.state, State::Dropped) {
            return false;
        }
        if matches!(self.state, State::Unbuilt) {
            self.state =
                BucketSet::new(counts, means, max_buckets).map_or(State::Dropped, State::Active);
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

/// How often each path of a [`BucketSet`] ran.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Paths {
    /// Refills of a head from its `rest`.
    pub(crate) refills: usize,
    /// Keys those refills moved.
    pub(crate) refilled: usize,
    /// Heads that outgrew twice their target and spilled into `rest`.
    pub(crate) spills: usize,
    /// Keys removed from a `rest` rather than a head.
    pub(crate) rest_removals: usize,
    /// Buckets created by a re-key.
    pub(crate) created: usize,
    /// Buckets deleted because they emptied.
    pub(crate) emptied: usize,
}

/// Every arm in one bucket per count, plus the arms that moved since the
/// last selection.
#[derive(Debug, Clone)]
struct BucketSet {
    /// One bucket per count, in ascending count order; none is empty.
    buckets: Vec<Bucket>,
    /// The count and key, as they stand in `buckets`, of each arm observed
    /// since the last selection.
    moved: Vec<(u64, u128)>,
    /// The cleared `head` and `rest` of the last bucket that emptied, kept
    /// for the next new count so its bucket need not grow from nothing.
    spare: (Vec<u128>, Vec<u128>),
    #[cfg(test)]
    paths: Paths,
}

/// The arms of one count, in two parts (see the module docs).
#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    /// The bucket's first keys in set order, sorted with the best (the
    /// smallest) at the end.
    head: Vec<u128>,
    /// The bucket's other keys, in no order; each ranks after every key of
    /// `head`.
    rest: Vec<u128>,
}

impl Bucket {
    /// The head size a refill aims for and a spill returns to: a quarter of
    /// the bucket, and at least [`MIN_HEAD`] keys.
    fn target(&self) -> usize {
        ((self.head.len() + self.rest.len()) / 4).max(MIN_HEAD)
    }
}

impl BucketSet {
    /// Groups every arm's key by count into its bucket's `rest`, or returns
    /// `None` once the arms hold more than `max_buckets` counts.
    fn new(counts: &[u64], means: &[f64], max_buckets: usize) -> Option<Self> {
        let mut set = Self {
            buckets: Vec::new(),
            moved: Vec::new(),
            spare: (Vec::new(), Vec::new()),
            #[cfg(test)]
            paths: Paths::default(),
        };
        for (i, &count) in counts.iter().enumerate() {
            let b = set.bucket(count);
            if set.buckets.len() > max_buckets {
                return None;
            }
            set.buckets[b].rest.push(key(means, i));
        }
        // Count what the selections do, not the build.
        #[cfg(test)]
        {
            set.paths = Paths::default();
        }
        Some(set)
    }

    /// The index of the bucket of `count`, created empty (on the spare
    /// vectors) if there is none.
    fn bucket(&mut self, count: u64) -> usize {
        match self
            .buckets
            .binary_search_by_key(&count, |bucket| bucket.count)
        {
            Ok(b) => b,
            Err(b) => {
                let (head, rest) = std::mem::take(&mut self.spare);
                let bucket = Bucket { count, head, rest };
                self.buckets.insert(b, bucket);
                #[cfg(test)]
                {
                    self.paths.created += 1;
                }
                b
            }
        }
    }

    /// Moves every noted arm to its current key. A key that is no longer in
    /// the set was noted again by a later observation and has already
    /// moved (observations may repeat between selections).
    fn rekey(&mut self, counts: &[u64], means: &[f64]) {
        for at in 0..self.moved.len() {
            let (count, old) = self.moved[at];
            if self.remove(count, old) {
                let i = id(old);
                self.insert(counts[i], key(means, i));
            }
        }
        self.moved.clear();
    }

    /// Removes `key` from the bucket of `count`, and the bucket too if that
    /// empties it, keeping its vectors as the spare. Returns whether the
    /// key was there.
    fn remove(&mut self, count: u64, key: u128) -> bool {
        let Ok(b) = self
            .buckets
            .binary_search_by_key(&count, |bucket| bucket.count)
        else {
            return false;
        };
        let bucket = &mut self.buckets[b];
        let head = &bucket.head;
        let tail = head.len().saturating_sub(SCAN);
        let found = match head[tail..].iter().rposition(|&other| other == key) {
            Some(at) => Ok(tail + at),
            // The head is sorted descending, so a larger key comes first.
            None => head.binary_search_by(|probe| key.cmp(probe)),
        };
        match found {
            Ok(at) => {
                bucket.head.remove(at);
            }
            // The key ranks before the head's worst, so no `rest` key is it.
            Err(at) if at > 0 => return false,
            Err(_) => {
                let Some(at) = bucket.rest.iter().position(|&other| other == key) else {
                    return false;
                };
                bucket.rest.swap_remove(at);
                #[cfg(test)]
                {
                    self.paths.rest_removals += 1;
                }
            }
        }
        if bucket.head.is_empty() && bucket.rest.is_empty() {
            let emptied = self.buckets.remove(b);
            self.spare = (emptied.head, emptied.rest);
            #[cfg(test)]
            {
                self.paths.emptied += 1;
            }
        }
        true
    }

    /// Inserts `key` into the bucket of `count`: into the head if it ranks
    /// before the head's worst key or `rest` is empty, else onto `rest`. A
    /// head that grows past twice its target spills its worst keys into
    /// `rest` until it is back at the target.
    fn insert(&mut self, count: u64, key: u128) {
        let b = self.bucket(count);
        let bucket = &mut self.buckets[b];
        if !bucket.rest.is_empty() && bucket.head.first().is_none_or(|&worst| worst < key) {
            bucket.rest.push(key);
            return;
        }
        let at = bucket.head.partition_point(|&other| other > key);
        bucket.head.insert(at, key);
        let target = bucket.target();
        if bucket.head.len() > 2 * target {
            let spill = bucket.head.len() - target;
            bucket.rest.extend(bucket.head.drain(..spill));
            #[cfg(test)]
            {
                self.paths.spills += 1;
            }
        }
    }

    /// Moves the best `max(target, |head|)` keys of bucket `b`'s `rest` (or
    /// all of them), sorted, to its head's worst end. A head that a walk
    /// reads to its end therefore at least doubles, so a bucket whose every
    /// score ties refills a logarithmic number of times, not once per
    /// target.
    fn refill(&mut self, b: usize) {
        let bucket = &mut self.buckets[b];
        let take = bucket
            .target()
            .max(bucket.head.len())
            .min(bucket.rest.len());
        let keep = bucket.rest.len() - take;
        if keep > 0 {
            // In descending order the `take` smallest keys come last.
            bucket.rest.select_nth_unstable_by(keep, |x, y| y.cmp(x));
        }
        bucket.head.splice(..0, bucket.rest.drain(keep..));
        bucket.head[..take].sort_unstable_by(|x, y| y.cmp(x));
        #[cfg(test)]
        {
            self.paths.refills += 1;
            self.paths.refilled += take;
        }
    }

    /// Pushes onto `keys` (cleared first) the ranking keys of the first `k`
    /// arms of each count bucket plus each later arm whose score ties the
    /// bucket's `k`-th. Returns how many arms were scored, or `None` if the
    /// set holds more than `max_buckets` buckets.
    fn candidates(
        &mut self,
        means: &[f64],
        w_ln_total: f64,
        k: usize,
        max_buckets: usize,
        keys: &mut Vec<u128>,
    ) -> Option<usize> {
        if self.buckets.len() > max_buckets {
            return None;
        }
        keys.clear();
        let mut scored = 0;
        for b in 0..self.buckets.len() {
            // The expression of `ucb_indices_into`, so the scores match its
            // bits; a count of 0 gives +∞ and a bucket-wide tie.
            let bonus = (w_ln_total / self.buckets[b].count as f64).sqrt();
            let mut cut = f64::NAN;
            for place in 0.. {
                let bucket = &self.buckets[b];
                if place == bucket.head.len() {
                    if bucket.rest.is_empty() {
                        break;
                    }
                    self.refill(b);
                }
                let head = &self.buckets[b].head;
                let i = id(head[head.len() - 1 - place]);
                let score = means[i] + bonus;
                scored += 1;
                if place >= k && score != cut {
                    break;
                }
                if place + 1 == k {
                    cut = score;
                }
                keys.push(rank_key(score, i));
            }
        }
        Some(scored)
    }
}

/// The key of arm `i` in its bucket: its mean's [`descending`] bits, then
/// its id. [`descending`] orders every finite mean as `<` does (with `-0.0`
/// after `+0.0`, which score the same), so scores never rise along a
/// bucket.
fn key(means: &[f64], i: usize) -> u128 {
    (u128::from(descending(means[i])) << 64) | i as u128
}

/// The arm a bucket key belongs to.
fn id(key: u128) -> usize {
    key as u64 as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::top_k_by_full_sort;
    use cdt_types::check::check;
    use cdt_types::SimRng;

    /// The kernel on a set built from `counts` and `means`, never dropped.
    fn bucketed_top_k(counts: &[u64], means: &[f64], w_ln_total: f64, k: usize) -> Vec<SellerId> {
        let mut set = BucketSet::new(counts, means, usize::MAX).expect("no bucket limit");
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
        let mut set = BucketSet::new(&counts, &means, usize::MAX).expect("one bucket");
        set.candidates(&means, w_ln_total, 2, 1, &mut Vec::new())
            .expect("one bucket");
        let head = &set.buckets[0].head;
        let first_two: Vec<usize> = head.iter().rev().take(2).map(|&key| id(key)).collect();
        assert_eq!(first_two, [2, 1]);
    }

    /// One sequence case: `M`, `K`, the counts an arm can take (0, an
    /// unexplored arm whose score is +∞, in some), the exploration weight,
    /// the number of steps and the seed of the steps' generator.
    #[derive(Debug)]
    struct Sequence {
        m: usize,
        k: usize,
        values: Vec<u64>,
        weight: f64,
        steps: usize,
        seed: u64,
    }

    fn arb_sequence(rng: &mut SimRng) -> Sequence {
        let m = 1 + rng.below(400) as usize;
        let k = match rng.below(4) {
            0 => 1,
            1 => m,
            _ => 1 + rng.below(m as u64) as usize,
        };
        // Few values, so buckets are large enough to refill and spill, and
        // small ones empty and reappear.
        let mut values: Vec<u64> = (0..1 + rng.below(5)).map(|_| 1 + rng.below(40)).collect();
        if rng.bernoulli(0.3) {
            values.push(0);
        }
        Sequence {
            m,
            k,
            values,
            weight: rng.uniform(0.5..20.0),
            steps: 50 + rng.below(251) as usize,
            seed: rng.next_u64(),
        }
    }

    /// A new mean for an arm: uniform, or another arm's mean, exactly or
    /// one ulp away, so that different means often round to one score.
    fn arb_mean(rng: &mut SimRng, means: &[f64]) -> f64 {
        if means.is_empty() || rng.bernoulli(0.5) {
            return rng.uniform(0.0..1.0);
        }
        let base = means[rng.below(means.len() as u64) as usize];
        match rng.below(3) {
            0 => base,
            1 => base.next_up(),
            _ => base.next_down().max(0.0),
        }
    }

    /// Sequences of observations and selections on one set, never dropped:
    /// every selection equals the full sort's. The observations are of the
    /// last selection, of arbitrary arms (removed from a `rest`), with one
    /// arm twice in a matrix, and several between two selections.
    #[test]
    fn sequences_of_rekeys_match_the_full_sort() {
        let mut seen = Paths::default();
        let mut selections = 0;
        check(160, arb_sequence, |case| {
            let (m, k) = (case.m, case.k);
            let mut rng = SimRng::new(case.seed);
            let value =
                |rng: &mut SimRng| case.values[rng.below(case.values.len() as u64) as usize];
            let mut counts: Vec<u64> = (0..m).map(|_| value(&mut rng)).collect();
            let mut means: Vec<f64> = Vec::with_capacity(m);
            for _ in 0..m {
                let mean = arb_mean(&mut rng, &means);
                means.push(mean);
            }
            let mut buckets = CountBuckets::default();
            let (mut keys, mut out, mut last) = (Vec::new(), Vec::new(), Vec::new());
            for step in 0..case.steps {
                let estimator = QualityEstimator::from_parts(counts.clone(), means.clone());
                if step == 0 || rng.bernoulli(0.4) {
                    let total = estimator.total_count();
                    let took = buckets.select_within(
                        &estimator,
                        case.weight,
                        k,
                        usize::MAX,
                        &mut keys,
                        &mut out,
                    );
                    assert_eq!(took, total > 1, "step {step}");
                    if took {
                        let w_ln_total = case.weight * (total as f64).ln();
                        let want = top_k_by_full_sort(&full_scores(&counts, &means, w_ln_total), k);
                        assert_eq!(out, want, "step {step}");
                        last.clone_from(&out);
                        selections += 1;
                    }
                    continue;
                }
                let arbitrary = |rng: &mut SimRng| SellerId(rng.below(m as u64) as usize);
                let mut sellers: Vec<SellerId> = match rng.below(3) {
                    0 if !last.is_empty() => last.clone(),
                    1 if !last.is_empty() => {
                        let twice = last[rng.below(last.len() as u64) as usize];
                        let mut sellers = last.clone();
                        sellers.push(twice);
                        sellers
                    }
                    _ => (0..1 + rng.below(5)).map(|_| arbitrary(&mut rng)).collect(),
                };
                if rng.bernoulli(0.2) {
                    sellers.push(arbitrary(&mut rng));
                }
                buckets.note_observed(&estimator, &sellers);
                for id in &sellers {
                    let i = id.index();
                    counts[i] = value(&mut rng);
                    means[i] = arb_mean(&mut rng, &means);
                }
            }
            let paths = buckets.paths();
            seen.refills += paths.refills;
            seen.spills += paths.spills;
            seen.rest_removals += paths.rest_removals;
            seen.created += paths.created;
            seen.emptied += paths.emptied;
        });
        assert!(selections > 5000, "only {selections} selections");
        let Paths {
            refills,
            spills,
            rest_removals,
            created,
            emptied,
            ..
        } = seen;
        for (path, times) in [
            ("refill", refills),
            ("spill", spills),
            ("removal from rest", rest_removals),
            ("bucket created", created),
            ("bucket emptied", emptied),
        ] {
            assert!(
                times >= 100,
                "the cases reached the {path} path {times} times"
            );
        }
    }
}
