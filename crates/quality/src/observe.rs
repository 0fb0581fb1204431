//! Per-round quality observations.
//!
//! When seller `i` is selected in round `t` it collects data at *all* `L`
//! PoIs (Def. 3), producing `L` observations `{q_{i,l}^t}_{l∈L}`. The
//! [`QualityObserver`] draws these observations from the hidden
//! [`SellerPopulation`] and hands back an [`ObservationMatrix`] the platform
//! can learn from — the platform never touches the population directly.

use crate::population::SellerPopulation;
use cdt_types::{PoiId, SellerId, SimRng};

/// The observations of one round: for each selected seller, one quality per
/// PoI.
///
/// Stored as a single row-major buffer (`values[s * L + l]`) rather than a
/// nested `Vec<Vec<f64>>`: the round loop runs up to `2·10⁵` times per
/// policy, and one flat buffer both halves the pointer chasing on every
/// [`ObservationMatrix::row`] access and lets the whole matrix be reused
/// across rounds without reallocating (see
/// [`QualityObserver::observe_round_into`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservationMatrix {
    sellers: Vec<SellerId>,
    /// PoIs per seller (row width).
    l: usize,
    /// Row-major `sellers.len() × l` observation buffer.
    values: Vec<f64>,
}

impl ObservationMatrix {
    /// Builds a matrix from parallel vectors.
    ///
    /// # Panics
    /// Panics if the outer lengths disagree or rows have unequal lengths.
    #[must_use]
    pub fn new(sellers: Vec<SellerId>, values: Vec<Vec<f64>>) -> Self {
        assert_eq!(sellers.len(), values.len(), "one row per selected seller");
        let l = values.first().map_or(0, Vec::len);
        assert!(
            values.iter().all(|row| row.len() == l),
            "all rows must cover the same L PoIs"
        );
        let flat: Vec<f64> = values.into_iter().flatten().collect();
        Self {
            sellers,
            l,
            values: flat,
        }
    }

    /// Builds a matrix directly from a row-major buffer.
    ///
    /// # Panics
    /// Panics unless `values.len() == sellers.len() * l`.
    #[must_use]
    pub fn from_flat(sellers: Vec<SellerId>, l: usize, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            sellers.len() * l,
            "flat buffer must hold sellers × L observations"
        );
        Self { sellers, l, values }
    }

    /// An empty matrix, ready to be filled by
    /// [`QualityObserver::observe_round_into`].
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Selected sellers, in selection order.
    #[must_use]
    pub fn sellers(&self) -> &[SellerId] {
        &self.sellers
    }

    /// The raw row-major observation buffer (`values[s * L + l]`), parallel
    /// to [`ObservationMatrix::sellers`] with [`ObservationMatrix::num_pois`]
    /// entries per seller. Lets learners sweep the whole round in one flat
    /// pass instead of re-slicing per row.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of PoIs `L` covered per seller (0 for an empty matrix).
    #[must_use]
    pub fn num_pois(&self) -> usize {
        if self.sellers.is_empty() {
            0
        } else {
            self.l
        }
    }

    /// The `L` observations of one selected seller (row `s` of the matrix).
    #[must_use]
    pub fn row(&self, s: usize) -> &[f64] {
        &self.values[s * self.l..(s + 1) * self.l]
    }

    /// Observation of seller-row `s` at PoI `l`.
    #[must_use]
    pub fn get(&self, s: usize, l: PoiId) -> f64 {
        self.values[s * self.l + l.index()]
    }

    /// Sum of one seller-row: `Σ_l q_{i,l}^t`, the quantity added to the
    /// revenue (Eq. 1) and to the estimator numerator (Eq. 18).
    #[must_use]
    pub fn row_sum(&self, s: usize) -> f64 {
        self.row(s).iter().sum()
    }

    /// Total revenue contribution of this round: `Σ_i Σ_l q_{i,l}^t χ_i^t`,
    /// in one flat left-to-right pass over the row-major buffer.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Refills the matrix in place with one row of `l` observations per
    /// seller of `selected`, in selection order: `fill_row(id, row)`
    /// writes each row. The buffers are reused, so after the first round
    /// a refill allocates nothing.
    pub(crate) fn refill(
        &mut self,
        selected: &[SellerId],
        l: usize,
        mut fill_row: impl FnMut(SellerId, &mut [f64]),
    ) {
        self.sellers.clear();
        self.sellers.extend_from_slice(selected);
        self.l = l;
        self.values.clear();
        if l == 0 {
            return;
        }
        self.values.resize(selected.len() * l, 0.0);
        for (row, &id) in self.values.chunks_exact_mut(l).zip(selected) {
            fill_row(id, row);
        }
    }

    /// Iterates `(SellerId, &[f64])` rows.
    pub fn iter(&self) -> impl Iterator<Item = (SellerId, &[f64])> {
        let l = self.l;
        self.sellers
            .iter()
            .copied()
            .enumerate()
            .map(move |(s, id)| (id, &self.values[s * l..(s + 1) * l]))
    }
}

/// Draws per-round observations from a hidden population.
#[derive(Debug, Clone)]
pub struct QualityObserver {
    population: SellerPopulation,
    num_pois: usize,
}

impl QualityObserver {
    /// Creates an observer over `population` that reports `num_pois`
    /// observations per selected seller per round.
    #[must_use]
    pub fn new(population: SellerPopulation, num_pois: usize) -> Self {
        Self {
            population,
            num_pois,
        }
    }

    /// The hidden population (used by oracle baselines and regret math).
    #[must_use]
    pub fn population(&self) -> &SellerPopulation {
        &self.population
    }

    /// Number of PoIs `L`.
    #[must_use]
    pub fn num_pois(&self) -> usize {
        self.num_pois
    }

    /// Observes one round: each selected seller produces `L` samples.
    pub fn observe_round(&self, selected: &[SellerId], rng: &mut SimRng) -> ObservationMatrix {
        let mut out = ObservationMatrix::empty();
        self.observe_round_into(selected, rng, &mut out);
        out
    }

    /// Observes one round into an existing matrix, reusing its buffers.
    ///
    /// Draws the *same* samples in the same RNG order as
    /// [`QualityObserver::observe_round`]; after the first call on a given
    /// `out` the round loop runs allocation-free. Each selected seller's
    /// row is one [`TruncatedGaussian::fill_row`] call, which draws what
    /// `L` calls of [`TruncatedGaussian::sample`] would.
    ///
    /// [`TruncatedGaussian::fill_row`]: crate::TruncatedGaussian::fill_row
    /// [`TruncatedGaussian::sample`]: crate::TruncatedGaussian::sample
    pub fn observe_round_into(
        &self,
        selected: &[SellerId],
        rng: &mut SimRng,
        out: &mut ObservationMatrix,
    ) {
        out.refill(selected, self.num_pois, |id, row| {
            self.population.profile(id).quality.fill_row(rng, row);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::TruncatedGaussian;
    use crate::population::SellerProfile;
    use cdt_types::SellerCostParams;

    fn pop() -> SellerPopulation {
        SellerPopulation::from_profiles(
            [0.0, 1.0, 0.5]
                .iter()
                .map(|&mu| SellerProfile {
                    quality: TruncatedGaussian::new(mu, 0.1),
                    cost: SellerCostParams { a: 0.2, b: 0.2 },
                })
                .collect(),
        )
    }

    #[test]
    fn observe_round_shapes() {
        let obs = QualityObserver::new(pop(), 4);
        let mut rng = SimRng::new(1);
        let m = obs.observe_round(&[SellerId(0), SellerId(2)], &mut rng);
        assert_eq!(m.sellers(), &[SellerId(0), SellerId(2)]);
        assert_eq!(m.num_pois(), 4);
        assert_eq!(m.row(0).len(), 4);
    }

    #[test]
    fn get_indexes_by_poi() {
        let m = ObservationMatrix::new(vec![SellerId(7)], vec![vec![0.1, 0.2, 0.3]]);
        assert_eq!(m.get(0, PoiId(1)), 0.2);
        assert!((m.row_sum(0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn iter_pairs_rows_with_ids() {
        let m = ObservationMatrix::new(
            vec![SellerId(3), SellerId(5)],
            vec![vec![1.0, 1.0], vec![0.0, 0.0]],
        );
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs[0].0, SellerId(3));
        assert_eq!(pairs[1].1, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one row per selected seller")]
    fn mismatched_rows_panic() {
        let _ = ObservationMatrix::new(vec![SellerId(0)], vec![]);
    }

    #[test]
    #[should_panic(expected = "same L PoIs")]
    fn ragged_rows_panic() {
        let _ = ObservationMatrix::new(
            vec![SellerId(0), SellerId(1)],
            vec![vec![0.5], vec![0.5, 0.5]],
        );
    }

    #[test]
    fn empty_selection_is_allowed() {
        let obs = QualityObserver::new(pop(), 3);
        let mut rng = SimRng::new(3);
        let m = obs.observe_round(&[], &mut rng);
        assert_eq!(m.total(), 0.0);
        assert_eq!(m.num_pois(), 0);
    }

    #[test]
    fn from_flat_matches_nested_constructor() {
        let nested = ObservationMatrix::new(
            vec![SellerId(1), SellerId(4)],
            vec![vec![0.1, 0.2], vec![0.3, 0.4]],
        );
        let flat = ObservationMatrix::from_flat(
            vec![SellerId(1), SellerId(4)],
            2,
            vec![0.1, 0.2, 0.3, 0.4],
        );
        assert_eq!(nested, flat);
        assert_eq!(flat.row(1), &[0.3, 0.4]);
    }

    #[test]
    #[should_panic(expected = "flat buffer")]
    fn from_flat_rejects_wrong_size() {
        let _ = ObservationMatrix::from_flat(vec![SellerId(0)], 3, vec![0.1]);
    }

    #[test]
    fn paper_rounds_fill_rows_as_single_samples_would() {
        // The paper's population and shape (M = 300, K = 10, L = 10,
        // σ = 0.1). Each round selects the five sellers nearest 1, whose
        // draws are rejected about half the time, and five others.
        let (m, k, l) = (300, 10, 10);
        let population = SellerPopulation::generate_paper_defaults(m, 0.1, &mut SimRng::new(4));
        let ranking = population.ranking_by_true_quality();
        let observer = QualityObserver::new(population, l);
        let (mut rows, mut draws, mut picks) = (SimRng::new(5), SimRng::new(5), SimRng::new(6));
        let mut out = ObservationMatrix::empty();
        let mut selected = Vec::with_capacity(k);
        for round in 0..1_000 {
            selected.clear();
            selected.extend_from_slice(&ranking[..k / 2]);
            let rest = picks.sample_indices(m - k / 2, k - k / 2);
            selected.extend(rest.iter().map(|&i| ranking[k / 2 + i]));
            observer.observe_round_into(&selected, &mut rows, &mut out);
            let samples: Vec<u64> = selected
                .iter()
                .flat_map(|&id| std::iter::repeat_n(observer.population().profile(id).quality, l))
                .map(|d| d.sample(&mut draws).to_bits())
                .collect();
            let values: Vec<u64> = out.values().iter().map(|x| x.to_bits()).collect();
            assert_eq!(values, samples, "round {round}");
        }
        assert_eq!(rows.next_u64(), draws.next_u64());
    }

    #[test]
    fn observe_round_into_matches_observe_round() {
        let obs = QualityObserver::new(pop(), 5);
        let selected = [SellerId(0), SellerId(2), SellerId(1)];
        let owned = obs.observe_round(&selected, &mut SimRng::new(42));
        let mut reused = ObservationMatrix::empty();
        // Repeated reuse of the same buffer must not corrupt results.
        for _ in 0..3 {
            let mut rng = SimRng::new(42);
            obs.observe_round_into(&selected, &mut rng, &mut reused);
            assert_eq!(owned, reused);
        }
    }
}
