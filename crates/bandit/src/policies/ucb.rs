//! The CMAB-HS selection policy (Algorithm 1, seller-selection half).
//!
//! Step 7 ranks all `M` sellers by the Eq. 19 index every round. The
//! policy picks the first of three exact candidate generators that serves
//! the round, and all three rank through `topk::rank_candidates`, so they
//! return the same ids in the same order:
//!
//! - the count buckets (`buckets`), while the counts take few distinct
//!   values against `M`: they score `O(G · K)` arms for `G` counts;
//! - the fused bound (`fused`), once the buckets have dropped: one
//!   multiply-add per arm from a cached `1/√n`, then the exact index for
//!   the few times `K` arms the bound keeps;
//! - the threshold kernel over every exact index
//!   ([`top_k_by_score_into`]), at `Σn ≤ 1` and for weights or means
//!   outside the fused bound's range. Debug builds re-select every round
//!   of the other two with it and assert equality.

use crate::buckets::CountBuckets;
use crate::estimator::QualityEstimator;
use crate::fused::FusedUcb;
use crate::index::{ucb_indices, ucb_indices_into, UcbConfig};
use crate::policy::SelectionPolicy;
use crate::topk::top_k_by_score_into;
use cdt_quality::ObservationMatrix;
use cdt_types::{Round, SellerId, SimRng};

/// The paper's extended-UCB policy:
///
/// - **round 0** (initial exploration, Alg. 1 steps 2–5): select *all* `M`
///   sellers so that every estimate is seeded with `L` observations;
/// - **round t ≥ 1** (steps 7–10): select the top-`K` sellers by the UCB
///   index `q̂_i = q̄_i + sqrt(w · ln(Σ_j n_j) / n_i)` with `w = K + 1`.
///
/// The top `K` comes from count buckets while the sellers' counts take few
/// distinct values against `M`, and from the fused bound after them (see
/// the module docs); both return the threshold kernel's ids in its order.
#[derive(Debug, Clone)]
pub struct CmabUcbPolicy {
    estimator: QualityEstimator,
    config: UcbConfig,
    k: usize,
    /// Skip the full initial sweep (used by ablations that want a pure
    /// UCB cold start; infinite indices then force coverage over the first
    /// `⌈M/K⌉` rounds instead of one `M`-seller round).
    full_initial_sweep: bool,
    /// Reused score buffer: the fused bound's approximations, or every
    /// UCB index for the threshold kernel.
    scores: Vec<f64>,
    /// Reused candidate key buffer of every generator.
    keys: Vec<u128>,
    /// Count-bucketed top-K state, built at the first selection after the
    /// initial sweep.
    buckets: CountBuckets,
    /// The fused bound's per-arm cache, refreshed in `observe`.
    fused: FusedUcb,
    /// The debug oracle's reused buffers: every exact index, its candidate
    /// keys and its selection.
    #[cfg(debug_assertions)]
    oracle: (Vec<f64>, Vec<u128>, Vec<SellerId>),
}

impl CmabUcbPolicy {
    /// The paper's configuration: full initial sweep, `w = K + 1`.
    #[must_use]
    pub fn new(m: usize, k: usize) -> Self {
        Self {
            estimator: QualityEstimator::new(m),
            config: UcbConfig::paper(k),
            k,
            full_initial_sweep: true,
            scores: Vec::new(),
            keys: Vec::new(),
            buckets: CountBuckets::default(),
            fused: FusedUcb::new(m),
            #[cfg(debug_assertions)]
            oracle: Default::default(),
        }
    }

    /// Overrides the exploration weight (ablation).
    #[must_use]
    pub fn with_exploration_weight(mut self, w: f64) -> Self {
        self.config = UcbConfig::with_weight(w);
        self
    }

    /// Disables the round-0 full sweep (ablation).
    #[must_use]
    pub fn without_initial_sweep(mut self) -> Self {
        self.full_initial_sweep = false;
        self
    }

    /// The current UCB index of every seller.
    #[must_use]
    pub fn indices(&self) -> Vec<f64> {
        ucb_indices(&self.estimator, &self.config)
    }
}

impl SelectionPolicy for CmabUcbPolicy {
    fn name(&self) -> String {
        "CMAB-HS".to_owned()
    }

    fn select(&mut self, round: Round, rng: &mut SimRng) -> Vec<SellerId> {
        let mut out = Vec::new();
        self.select_into(round, rng, &mut out);
        out
    }

    fn select_into(&mut self, round: Round, _rng: &mut SimRng, out: &mut Vec<SellerId>) {
        if round.is_initial() && self.full_initial_sweep {
            out.clear();
            out.extend((0..self.estimator.num_sellers()).map(SellerId));
            return;
        }
        let (estimator, weight, k) = (&self.estimator, self.config.exploration_weight, self.k);
        let bucketed = self
            .buckets
            .select_into(estimator, weight, k, &mut self.keys, out);
        if !bucketed
            && !self
                .fused
                .select_into(estimator, weight, k, &mut self.scores, &mut self.keys, out)
        {
            ucb_indices_into(estimator, &self.config, &mut self.scores);
            top_k_by_score_into(&self.scores, k, &mut self.keys, out);
            return;
        }
        #[cfg(debug_assertions)]
        {
            // Differential check: the threshold kernel over every index.
            let generator = if bucketed { "count-bucketed" } else { "fused" };
            let (scores, keys, reference) = &mut self.oracle;
            ucb_indices_into(estimator, &self.config, scores);
            top_k_by_score_into(scores, k, keys, reference);
            assert_eq!(
                out, reference,
                "{generator} selection diverged from the threshold kernel"
            );
        }
    }

    fn observe(&mut self, _round: Round, observations: &ObservationMatrix) {
        let sellers = observations.sellers();
        self.buckets.note_observed(&self.estimator, sellers);
        self.estimator.update_round(observations);
        self.fused.note_observed(&self.estimator, sellers);
    }

    fn game_quality(&self, id: SellerId) -> f64 {
        self.estimator.mean(id)
    }

    fn selection_score(&self, id: SellerId) -> f64 {
        self.config.index(
            self.estimator.mean(id),
            self.estimator.count(id),
            self.estimator.total_count(),
        )
    }

    fn estimator(&self) -> &QualityEstimator {
        &self.estimator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::top_k_by_full_sort;

    fn observe_all(policy: &mut CmabUcbPolicy, round: Round, selected: &[SellerId], qs: &[f64]) {
        let rows = selected
            .iter()
            .map(|id| vec![qs[id.index()]; 4])
            .collect::<Vec<_>>();
        policy.observe(round, &ObservationMatrix::new(selected.to_vec(), rows));
    }

    #[test]
    fn round_zero_selects_everyone() {
        let mut p = CmabUcbPolicy::new(5, 2);
        let mut rng = SimRng::new(1);
        let sel = p.select(Round(0), &mut rng);
        assert_eq!(sel.len(), 5);
    }

    #[test]
    fn later_rounds_select_k() {
        let mut p = CmabUcbPolicy::new(5, 2);
        let mut rng = SimRng::new(1);
        let sel0 = p.select(Round(0), &mut rng);
        observe_all(&mut p, Round(0), &sel0, &[0.1, 0.9, 0.5, 0.3, 0.7]);
        let sel1 = p.select(Round(1), &mut rng);
        assert_eq!(sel1.len(), 2);
    }

    #[test]
    fn converges_to_true_top_k_with_clean_observations() {
        // Noise-free observations: after the initial sweep the means are
        // exact; UCB still explores early, but with a long horizon the
        // modal selection must be the true top-K.
        let qs = [0.2, 0.9, 0.4, 0.8, 0.1];
        let mut p = CmabUcbPolicy::new(5, 2);
        let mut rng = SimRng::new(7);
        let sel0 = p.select(Round(0), &mut rng);
        observe_all(&mut p, Round(0), &sel0, &qs);
        let mut hits = 0;
        let rounds = 3000;
        for t in 1..=rounds {
            let sel = p.select(Round(t), &mut rng);
            let mut s: Vec<usize> = sel.iter().map(|x| x.index()).collect();
            s.sort_unstable();
            if s == vec![1, 3] {
                hits += 1;
            }
            observe_all(&mut p, Round(t), &sel, &qs);
        }
        assert!(
            hits as f64 / rounds as f64 > 0.9,
            "true top-K hit rate {hits}/{rounds}"
        );
    }

    #[test]
    fn without_initial_sweep_still_covers_everyone() {
        let qs = [0.2, 0.9, 0.4];
        let mut p = CmabUcbPolicy::new(3, 1).without_initial_sweep();
        let mut rng = SimRng::new(2);
        let mut seen = std::collections::HashSet::new();
        for t in 0..3 {
            let sel = p.select(Round(t), &mut rng);
            assert_eq!(sel.len(), 1);
            seen.insert(sel[0].index());
            observe_all(&mut p, Round(t), &sel, &qs);
        }
        assert_eq!(seen.len(), 3, "infinite UCB indices force coverage");
    }

    #[test]
    fn game_quality_is_sample_mean() {
        let mut p = CmabUcbPolicy::new(2, 1);
        observe_all(&mut p, Round(0), &[SellerId(0)], &[0.6, 0.0]);
        assert!((p.game_quality(SellerId(0)) - 0.6).abs() < 1e-12);
        assert_eq!(p.game_quality(SellerId(1)), 0.0);
    }

    #[test]
    fn exploration_weight_override() {
        let p = CmabUcbPolicy::new(3, 2).with_exploration_weight(1.0);
        assert_eq!(p.config.exploration_weight, 1.0);
    }

    #[test]
    fn selection_matches_full_sort_when_m_far_exceeds_k() {
        // M ≫ K: the top-K bound leaves a few candidates per round, a path
        // the short score vectors of the `topk` properties rarely reach.
        // Every quality occurs twice, so equal indices tie across blocks.
        let (m, k) = (2000, 10);
        let qs: Vec<f64> = (0..m)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0)
            .collect();
        let mut p = CmabUcbPolicy::new(m, k);
        let mut rng = SimRng::new(3);
        let sel0 = p.select(Round(0), &mut rng);
        observe_all(&mut p, Round(0), &sel0, &qs);
        for t in 1..=300 {
            let sel = p.select(Round(t), &mut rng);
            let reference = crate::topk::top_k_by_full_sort(&p.indices(), k);
            assert_eq!(sel, reference, "round {t}");
            observe_all(&mut p, Round(t), &sel, &qs);
        }
    }

    /// Feeds `l` noisy observations per seller in `sellers`, each within
    /// ±0.2 of the seller's quality and clamped to [0, 1].
    fn observe_noisy(
        policy: &mut CmabUcbPolicy,
        round: Round,
        sellers: &[SellerId],
        qs: &[f64],
        l: usize,
        env: &mut SimRng,
    ) {
        let mut values = Vec::with_capacity(sellers.len() * l);
        for id in sellers {
            for _ in 0..l {
                values.push((qs[id.index()] + env.uniform(-0.2..0.2)).clamp(0.0, 1.0));
            }
        }
        policy.observe(
            round,
            &ObservationMatrix::from_flat(sellers.to_vec(), l, values),
        );
    }

    fn qualities(m: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        (0..m).map(|_| rng.uniform(0.0..1.0)).collect()
    }

    #[test]
    fn bucketed_selection_matches_full_sort_at_m_10k() {
        // The stress shape: M = 10⁴, K = 10, L = 10, with and without the
        // initial sweep (without it, the count-0 bucket ties at +∞).
        let (m, k, l) = (10_000, 10, 10);
        let qs = qualities(m, 11);
        for sweep in [true, false] {
            let mut p = CmabUcbPolicy::new(m, k);
            if !sweep {
                p = p.without_initial_sweep();
            }
            let (mut rng, mut env) = (SimRng::new(5), SimRng::new(6));
            for t in 0..=500 {
                let sel = p.select(Round(t), &mut rng);
                if t > 0 || !sweep {
                    let reference = top_k_by_full_sort(&p.indices(), k);
                    assert_eq!(sel, reference, "sweep {sweep}, round {t}");
                }
                observe_noisy(&mut p, Round(t), &sel, &qs, l, &mut env);
            }
            assert!(p.buckets.is_active(), "sweep {sweep}: the set was dropped");
        }
    }

    /// Feeds `l` observations of `value` per seller in `sellers`.
    fn observe_at(
        policy: &mut CmabUcbPolicy,
        round: Round,
        sellers: &[SellerId],
        l: usize,
        value: f64,
    ) {
        let values = vec![value; sellers.len() * l];
        policy.observe(
            round,
            &ObservationMatrix::from_flat(sellers.to_vec(), l, values),
        );
    }

    #[test]
    fn repeated_and_unselected_observations_keep_selection_exact() {
        // Observations the selection did not ask for: before any selection,
        // twice for one selection, and every third round three that move
        // it, in two matrices: at 1.0 at every PoI, the best arm of the
        // next selection that this one left out (twice in one matrix) and a
        // random arm (usually one in its bucket's unsorted rest); at 0.0, a
        // selected arm. By round 150 the walk reads the count-2 bucket past
        // its first head, so a set that kept a rest arm's stale key selects
        // it.
        let (m, k, l) = (2000, 3, 2);
        let qs = qualities(m, 21);
        let everyone: Vec<SellerId> = (0..m).map(SellerId).collect();
        let mut p = CmabUcbPolicy::new(m, k);
        let (mut rng, mut env) = (SimRng::new(7), SimRng::new(8));
        observe_noisy(&mut p, Round(0), &everyone, &qs, l, &mut env);
        let mut moved = 0;
        for t in 1..=240 {
            let sel = p.select(Round(t), &mut rng);
            assert_eq!(sel, top_k_by_full_sort(&p.indices(), k), "round {t}");
            observe_noisy(&mut p, Round(t), &sel, &qs, l, &mut env);
            if t % 2 == 0 {
                observe_noisy(&mut p, Round(t), &sel, &qs, l, &mut env);
            }
            if t % 3 == 0 {
                let next = top_k_by_full_sort(&p.indices(), k);
                let a = *next
                    .iter()
                    .find(|id| !sel.contains(id))
                    .expect("a next pick outside this selection");
                let b = SellerId(env.below(m as u64) as usize);
                observe_at(&mut p, Round(t), &[a, b, a], l, 1.0);
                observe_at(&mut p, Round(t), &[sel[0]], l, 0.0);
                moved += usize::from(top_k_by_full_sort(&p.indices(), k) != next);
            }
        }
        assert!(
            moved >= 20,
            "the unasked observations moved the selection in {moved} rounds"
        );
        assert!(p.buckets.is_active(), "the set was dropped");
    }

    #[test]
    fn many_buckets_drop_the_set_and_nothing_grows_after() {
        // Table II shape: the counts spread over more than M / (8K) = 3
        // values (within 200 rounds), the set is dropped for good, the
        // fused bound selects every later round, and no buffer grows: the
        // scores, the keys, and the fused bound's 1/√n cache and candidate
        // ids.
        let (m, k, l) = (300, 10, 10);
        let qs = qualities(m, 31);
        let mut p = CmabUcbPolicy::new(m, k);
        let (mut rng, mut env) = (SimRng::new(9), SimRng::new(10));
        let mut t = 0;
        while !p.buckets.is_dropped() {
            assert!(t <= 200, "set still live after round {t}");
            let sel = p.select(Round(t), &mut rng);
            observe_noisy(&mut p, Round(t), &sel, &qs, l, &mut env);
            t += 1;
        }
        let mut run = |p: &mut CmabUcbPolicy, rounds| {
            for _ in 0..rounds {
                p.fused.last_kept = 0;
                let sel = p.select(Round(t), &mut rng);
                assert!(p.fused.last_kept >= k, "round {t} was not fused");
                assert_eq!(sel, top_k_by_full_sort(&p.indices(), k), "round {t}");
                observe_noisy(p, Round(t), &sel, &qs, l, &mut env);
                t += 1;
            }
        };
        run(&mut p, 100);
        let capacities =
            |p: &CmabUcbPolicy| (p.scores.capacity(), p.keys.capacity(), p.fused.capacities());
        let before = capacities(&p);
        run(&mut p, 5000);
        assert!(p.buckets.is_dropped());
        assert_eq!(capacities(&p), before);
    }

    /// The distinct counts `G` and the summed tie runs: per count, how many
    /// arms past the `k` best tie the `k`-th best index.
    fn buckets_and_tie_runs(p: &CmabUcbPolicy, k: usize) -> (usize, usize) {
        let counts = p.estimator.counts().iter().copied();
        let mut arms: Vec<(u64, f64)> = counts.zip(p.indices()).collect();
        arms.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.total_cmp(&x.1)));
        let (mut buckets, mut ties) = (0, 0);
        for bucket in arms.chunk_by(|x, y| x.0 == y.0) {
            buckets += 1;
            if let Some(&(_, cut)) = bucket.get(k - 1) {
                ties += bucket[k..].iter().take_while(|arm| arm.1 == cut).count();
            }
        }
        (buckets, ties)
    }

    #[test]
    fn a_long_bucketed_run_scores_its_bound_and_refills_rarely() {
        // M = 1 000 K over 3 000 rounds: the counts sweep through the arms
        // three times, so buckets fill, refill, spill and empty. The set
        // never drops, each round scores at most k + 1 arms per count plus
        // the tie runs, and heads refill at most once per 20 rounds (a
        // refill costs a partial selection over the bucket's rest).
        let (m, k, l, rounds) = (2000, 2, 10, 3000);
        let qs = qualities(m, 51);
        let mut p = CmabUcbPolicy::new(m, k);
        let (mut rng, mut env) = (SimRng::new(16), SimRng::new(17));
        for t in 0..=rounds {
            let sel = p.select(Round(t), &mut rng);
            if t > 0 {
                assert!(p.buckets.is_active(), "round {t}: the set was dropped");
                let (buckets, ties) = buckets_and_tie_runs(&p, k);
                let scored = p.buckets.scored;
                assert!(
                    scored <= buckets * (k + 1) + ties,
                    "round {t}: scored {scored} arms in {buckets} buckets with {ties} tied"
                );
            }
            observe_noisy(&mut p, Round(t), &sel, &qs, l, &mut env);
        }
        let paths = p.buckets.paths();
        assert!(
            paths.refills * 20 <= rounds,
            "{} refills moved {} keys in {rounds} rounds",
            paths.refills,
            paths.refilled
        );
    }

    #[test]
    fn bucketed_rounds_score_under_one_percent_of_the_arms() {
        let (m, k, l) = (10_000, 10, 10);
        let qs = qualities(m, 41);
        let mut p = CmabUcbPolicy::new(m, k);
        let (mut rng, mut env) = (SimRng::new(12), SimRng::new(13));
        for t in 0..=300 {
            let sel = p.select(Round(t), &mut rng);
            if t > 0 {
                assert!(p.buckets.is_active(), "round {t}: the set was dropped");
                let scored = p.buckets.scored;
                assert!(scored * 100 < m, "round {t}: scored {scored} of {m} arms");
            }
            observe_noisy(&mut p, Round(t), &sel, &qs, l, &mut env);
        }
    }
}
