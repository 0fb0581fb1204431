//! The platform's online quality learner (Eqs. 17–18).
//!
//! For each seller the estimator tracks the total number of learned
//! observations `n_i^t` and the running sample mean `q̄_i^t`:
//!
//! ```text
//! n_i^t = n_i^{t−1} + L            if selected (one observation per PoI)
//! q̄_i^t = (q̄_i^{t−1} n_i^{t−1} + Σ_l q_{i,l}^t) / (n_i^{t−1} + L)
//! ```

use cdt_quality::ObservationMatrix;
use cdt_types::SellerId;

/// Per-seller sample-mean quality estimates with observation counters.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityEstimator {
    counts: Vec<u64>,
    means: Vec<f64>,
    total_count: u64,
}

impl QualityEstimator {
    /// A fresh estimator over `m` sellers: all counters zero, all means
    /// zero (no prior knowledge — Def. 3's "unknown sellers").
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self {
            counts: vec![0; m],
            means: vec![0.0; m],
            total_count: 0,
        }
    }

    /// An estimator in the given state, for kernels tested on counts and
    /// means that no observation sequence reaches cheaply.
    #[cfg(test)]
    pub(crate) fn from_parts(counts: Vec<u64>, means: Vec<f64>) -> Self {
        assert_eq!(counts.len(), means.len());
        let total_count = counts.iter().sum();
        Self {
            counts,
            means,
            total_count,
        }
    }

    /// Number of sellers `M`.
    #[must_use]
    pub fn num_sellers(&self) -> usize {
        self.counts.len()
    }

    /// `n_i^t`: how many observations of seller `i` have been learned.
    #[must_use]
    pub fn count(&self, id: SellerId) -> u64 {
        self.counts[id.index()]
    }

    /// `Σ_j n_j^t`: total observations across all sellers (the logarithm's
    /// argument in Eq. 19).
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// `q̄_i^t`: the current sample-mean quality of seller `i`
    /// (0 before the first observation).
    #[must_use]
    pub fn mean(&self, id: SellerId) -> f64 {
        self.means[id.index()]
    }

    /// All sample means, indexed by seller.
    #[must_use]
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// All observation counts `n_i^t`, indexed by seller (parallel to
    /// [`QualityEstimator::means`]).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `true` once seller `i` has been observed at least once.
    #[must_use]
    pub fn is_explored(&self, id: SellerId) -> bool {
        self.counts[id.index()] > 0
    }

    /// Folds one seller's `L` per-PoI observations into the estimate
    /// (Eqs. 17–18 for `χ_i^t = 1`).
    ///
    /// # Panics
    /// Panics if the observations sum to a non-finite value (a NaN or ±∞
    /// observation would silently poison the running mean forever), and
    /// in debug builds if an observation leaves `[0, 1]` — the quality
    /// domain of Def. 3. Callers sit between this estimator and the
    /// [`cdt_quality`] samplers, which guarantee the domain.
    pub fn update(&mut self, id: SellerId, observations: &[f64]) {
        // Non-finite values skip the domain check: they reach the hard
        // non-finite-sum assert below in every build profile.
        debug_assert!(
            observations
                .iter()
                .filter(|q| q.is_finite())
                .all(|q| (0.0..=1.0).contains(q)),
            "quality observations must lie in [0, 1]"
        );
        if observations.is_empty() {
            return;
        }
        let i = id.index();
        let old_n = self.counts[i] as f64;
        let l = observations.len() as f64;
        let sum: f64 = observations.iter().sum();
        assert!(
            sum.is_finite(),
            "non-finite observation sum for seller {i}: observations must be finite"
        );
        self.means[i] = (self.means[i] * old_n + sum) / (old_n + l);
        self.counts[i] += observations.len() as u64;
        self.total_count += observations.len() as u64;
    }

    /// Folds a whole round's observation matrix into the estimates.
    ///
    /// One flat sweep over the row-major buffer: each row's sum and mean
    /// update use exactly the per-row expressions of
    /// [`QualityEstimator::update`] (bit-identical), but the per-row slicing
    /// and the `total_count` bump are hoisted out of the loop.
    ///
    /// # Panics
    /// Panics if any row sums to a non-finite value — a NaN/±∞ observation
    /// would otherwise poison the running mean for the rest of the run.
    pub fn update_round(&mut self, observations: &ObservationMatrix) {
        let sellers = observations.sellers();
        let l = observations.num_pois();
        if l == 0 {
            return;
        }
        // Non-finite values skip the domain check: they reach the hard
        // non-finite-sum assert in the loop below in every build profile.
        debug_assert!(
            observations
                .values()
                .iter()
                .filter(|q| q.is_finite())
                .all(|q| (0.0..=1.0).contains(q)),
            "quality observations must lie in [0, 1]"
        );
        let l_f = l as f64;
        for (id, row) in sellers.iter().zip(observations.values().chunks_exact(l)) {
            let i = id.index();
            let old_n = self.counts[i] as f64;
            let sum: f64 = row.iter().sum();
            // One finiteness check per row (not per observation): any NaN/±∞
            // observation propagates into its row sum, so this rejects every
            // poisoned input at O(rows) cost.
            assert!(
                sum.is_finite(),
                "non-finite observation sum for seller {i}: observations must be finite"
            );
            self.means[i] = (self.means[i] * old_n + sum) / (old_n + l_f);
            self.counts[i] += l as u64;
        }
        self.total_count += (sellers.len() * l) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::check::check;
    use cdt_types::SimRng;

    #[test]
    fn fresh_estimator_knows_nothing() {
        let e = QualityEstimator::new(3);
        assert_eq!(e.num_sellers(), 3);
        assert_eq!(e.total_count(), 0);
        for i in 0..3 {
            assert_eq!(e.count(SellerId(i)), 0);
            assert_eq!(e.mean(SellerId(i)), 0.0);
            assert!(!e.is_explored(SellerId(i)));
        }
    }

    #[test]
    fn single_update_sets_mean_to_average() {
        let mut e = QualityEstimator::new(2);
        e.update(SellerId(0), &[0.8, 0.6, 0.7, 0.5]);
        assert_eq!(e.count(SellerId(0)), 4);
        assert!((e.mean(SellerId(0)) - 0.65).abs() < 1e-12);
        assert_eq!(e.count(SellerId(1)), 0);
        assert_eq!(e.total_count(), 4);
    }

    #[test]
    fn paper_example_round1_means() {
        // Sec. III-D: seller 1 observes (0.804, 0.661, 0.723, 0.389) over
        // L = 4 PoIs; the paper reports q̄₁¹ = 0.644 (3 d.p.).
        let mut e = QualityEstimator::new(1);
        e.update(SellerId(0), &[0.804, 0.661, 0.723, 0.389]);
        assert!((e.mean(SellerId(0)) - 0.64425).abs() < 1e-9);
    }

    #[test]
    fn incremental_update_equals_batch_mean() {
        let mut e = QualityEstimator::new(1);
        e.update(SellerId(0), &[0.2, 0.4]);
        e.update(SellerId(0), &[0.9]);
        e.update(SellerId(0), &[0.1, 0.3, 0.5]);
        let batch = (0.2 + 0.4 + 0.9 + 0.1 + 0.3 + 0.5) / 6.0;
        assert!((e.mean(SellerId(0)) - batch).abs() < 1e-12);
        assert_eq!(e.count(SellerId(0)), 6);
    }

    #[test]
    fn empty_observation_is_a_no_op() {
        let mut e = QualityEstimator::new(1);
        e.update(SellerId(0), &[0.5]);
        let before = e.clone();
        e.update(SellerId(0), &[]);
        assert_eq!(e, before);
    }

    #[test]
    fn update_round_folds_all_rows() {
        let mut e = QualityEstimator::new(3);
        let m = ObservationMatrix::new(
            vec![SellerId(0), SellerId(2)],
            vec![vec![0.5, 0.7], vec![0.2, 0.4]],
        );
        e.update_round(&m);
        assert!((e.mean(SellerId(0)) - 0.6).abs() < 1e-12);
        assert!((e.mean(SellerId(2)) - 0.3).abs() < 1e-12);
        assert_eq!(e.count(SellerId(1)), 0);
        assert_eq!(e.total_count(), 4);
    }

    #[test]
    fn eq17_18_counters_increment_by_l_per_round() {
        // Eq. 17–18 semantics: a *selected* seller's counter grows by
        // exactly L (one observation per PoI) per round; unselected
        // sellers' counters and means are untouched; the global total grows
        // by K·L. Pins the learning rate against kernel rewrites.
        let l = 4;
        let mut e = QualityEstimator::new(5);
        for round in 1..=3u64 {
            let m =
                ObservationMatrix::from_flat(vec![SellerId(1), SellerId(3)], l, vec![0.5; 2 * l]);
            e.update_round(&m);
            assert_eq!(e.count(SellerId(1)), round * l as u64);
            assert_eq!(e.count(SellerId(3)), round * l as u64);
            assert_eq!(e.total_count(), 2 * round * l as u64);
        }
        for unselected in [0, 2, 4] {
            assert_eq!(e.count(SellerId(unselected)), 0);
            assert_eq!(e.mean(SellerId(unselected)), 0.0);
        }
        assert_eq!(e.counts(), &[0, 12, 0, 12, 0]);
    }

    #[test]
    fn update_round_matches_per_row_updates() {
        // The flat sweep must be bit-identical to folding row by row.
        let m = ObservationMatrix::new(
            vec![SellerId(0), SellerId(2), SellerId(1)],
            vec![
                vec![0.804, 0.661, 0.723],
                vec![0.1, 0.9, 0.3],
                vec![0.25, 0.5, 0.75],
            ],
        );
        let mut flat = QualityEstimator::new(3);
        flat.update_round(&m);
        let mut per_row = QualityEstimator::new(3);
        for (id, row) in m.iter() {
            per_row.update(id, row);
        }
        assert_eq!(flat, per_row);
    }

    #[test]
    #[should_panic(expected = "non-finite observation sum")]
    fn update_rejects_nan_observations() {
        let mut e = QualityEstimator::new(1);
        e.update(SellerId(0), &[0.5, f64::NAN, 0.5]);
    }

    #[test]
    #[should_panic(expected = "non-finite observation sum")]
    fn update_round_rejects_infinite_observations() {
        let mut e = QualityEstimator::new(2);
        let m = ObservationMatrix::from_flat(
            vec![SellerId(0), SellerId(1)],
            2,
            vec![0.5, 0.5, f64::INFINITY, 0.5],
        );
        e.update_round(&m);
    }

    /// The running mean always stays inside the convex hull of the
    /// observations — in particular inside [0, 1].
    #[test]
    fn mean_stays_in_unit_interval() {
        let gen = |rng: &mut SimRng| -> Vec<f64> {
            let len = 1 + rng.below(49);
            (0..len).map(|_| rng.uniform_inclusive(0.0..=1.0)).collect()
        };
        check(256, gen, |obs| {
            let mut e = QualityEstimator::new(1);
            for chunk in obs.chunks(7) {
                e.update(SellerId(0), chunk);
            }
            let m = e.mean(SellerId(0));
            assert!((0.0..=1.0).contains(&m));
            assert_eq!(e.count(SellerId(0)), obs.len() as u64);
        });
    }

    /// Chunked incremental updates agree with the one-shot batch mean.
    #[test]
    fn incremental_matches_batch() {
        let gen = |rng: &mut SimRng| {
            let len = 1 + rng.below(79);
            let obs: Vec<f64> = (0..len).map(|_| rng.uniform_inclusive(0.0..=1.0)).collect();
            (obs, 1 + rng.below(9) as usize)
        };
        check(256, gen, |(obs, chunk)| {
            let mut e = QualityEstimator::new(1);
            for c in obs.chunks(*chunk) {
                e.update(SellerId(0), c);
            }
            let batch = obs.iter().sum::<f64>() / obs.len() as f64;
            assert!((e.mean(SellerId(0)) - batch).abs() < 1e-9);
        });
    }
}
