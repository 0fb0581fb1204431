//! Non-stationary quality: drifting expected qualities over rounds.
//!
//! Def. 3's Remark notes that observed qualities are "affected by some
//! exogenous factors (personal willingness, sensing context, daily
//! routine…)". The paper fixes `q_i` and models the noise; this module is
//! the natural extension where the *expectation itself* drifts, which the
//! sliding-window UCB policy (`cdt-bandit`) is built to track.

use crate::distribution::TruncatedGaussian;
use crate::observe::ObservationMatrix;
use crate::population::SellerPopulation;
use cdt_types::{Round, SellerId, SimRng};

/// How one seller's expected quality evolves over rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftModel {
    /// Stationary (the paper's setting).
    None,
    /// Linear drift: `q(t) = clamp(q₀ + rate · t, 0, 1)`.
    Linear {
        /// Per-round change of the mean.
        rate: f64,
    },
    /// Abrupt change: `q(t) = q₀` before `at_round`, `new_mean` after.
    Abrupt {
        /// The change point.
        at_round: usize,
        /// The post-change expected quality.
        new_mean: f64,
    },
    /// Sinusoidal (daily-routine style): `q(t) = q₀ + amplitude · sin(2πt/period)`.
    Sinusoidal {
        /// Oscillation amplitude.
        amplitude: f64,
        /// Oscillation period, in rounds.
        period: f64,
    },
}

impl DriftModel {
    /// The drifted mean at `round`, given the base mean `q0`, clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn mean_at(&self, q0: f64, round: Round) -> f64 {
        let t = round.index() as f64;
        let raw = match *self {
            DriftModel::None => q0,
            DriftModel::Linear { rate } => q0 + rate * t,
            DriftModel::Abrupt { at_round, new_mean } => {
                if round.index() < at_round {
                    q0
                } else {
                    new_mean
                }
            }
            DriftModel::Sinusoidal { amplitude, period } => {
                q0 + amplitude * (2.0 * std::f64::consts::PI * t / period).sin()
            }
        };
        raw.clamp(0.0, 1.0)
    }
}

/// A population whose expected qualities drift per round; observations are
/// truncated-Gaussian around the drifted mean.
#[derive(Debug, Clone)]
pub struct DriftingObserver {
    base: SellerPopulation,
    /// The base population's expected qualities, indexed by seller id.
    base_means: Vec<f64>,
    drifts: Vec<DriftModel>,
    noise_sigma: f64,
    num_pois: usize,
}

impl DriftingObserver {
    /// Wraps a population with one drift model per seller.
    ///
    /// # Panics
    /// Panics if `drifts.len() != population.len()` or `noise_sigma <= 0`.
    #[must_use]
    pub fn new(
        base: SellerPopulation,
        drifts: Vec<DriftModel>,
        noise_sigma: f64,
        num_pois: usize,
    ) -> Self {
        assert_eq!(drifts.len(), base.len(), "one drift model per seller");
        assert!(noise_sigma > 0.0, "noise sigma must be > 0");
        Self {
            base_means: base.expected_qualities(),
            base,
            drifts,
            noise_sigma,
            num_pois,
        }
    }

    /// The underlying (round-0) population.
    #[must_use]
    pub fn base(&self) -> &SellerPopulation {
        &self.base
    }

    /// Number of sellers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Seller `i`'s true expected quality in `round`.
    #[must_use]
    pub fn mean_at(&self, id: SellerId, round: Round) -> f64 {
        self.drifts[id.index()].mean_at(self.base_means[id.index()], round)
    }

    /// All sellers' true expected qualities in `round`.
    #[must_use]
    pub fn means_at(&self, round: Round) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.mean_at(SellerId(i), round))
            .collect()
    }

    /// Per-round best achievable quality sum over any `k`-subset.
    #[must_use]
    pub fn optimal_quality_sum_at(&self, round: Round, k: usize) -> f64 {
        let mut means = self.means_at(round);
        means.sort_by(|a, b| b.partial_cmp(a).expect("finite means"));
        means.iter().take(k).sum()
    }

    /// Observes one round at the drifted means.
    pub fn observe_round(
        &self,
        round: Round,
        selected: &[SellerId],
        rng: &mut SimRng,
    ) -> ObservationMatrix {
        let mut out = ObservationMatrix::empty();
        self.observe_round_into(round, selected, rng, &mut out);
        out
    }

    /// Observes one round at the drifted means into an existing matrix,
    /// reusing its buffers: each selected seller's row is one
    /// [`TruncatedGaussian::fill_row`] around its mean in `round`.
    pub fn observe_round_into(
        &self,
        round: Round,
        selected: &[SellerId],
        rng: &mut SimRng,
        out: &mut ObservationMatrix,
    ) {
        out.refill(selected, self.num_pois, |id, row| {
            TruncatedGaussian::new(self.mean_at(id, round), self.noise_sigma).fill_row(rng, row);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::SellerProfile;
    use cdt_types::SellerCostParams;

    fn pop(qs: &[f64]) -> SellerPopulation {
        SellerPopulation::from_profiles(
            qs.iter()
                .map(|&q| SellerProfile {
                    quality: TruncatedGaussian::new(q, 0.1),
                    cost: SellerCostParams { a: 0.2, b: 0.3 },
                })
                .collect(),
        )
    }

    #[test]
    fn stationary_drift_is_identity() {
        let d = DriftModel::None;
        for t in [0, 10, 1000] {
            assert_eq!(d.mean_at(0.6, Round(t)), 0.6);
        }
    }

    #[test]
    fn linear_drift_clamps() {
        let d = DriftModel::Linear { rate: 0.01 };
        assert!((d.mean_at(0.5, Round(10)) - 0.6).abs() < 1e-12);
        assert_eq!(d.mean_at(0.5, Round(1000)), 1.0);
        let down = DriftModel::Linear { rate: -0.01 };
        assert_eq!(down.mean_at(0.5, Round(1000)), 0.0);
    }

    #[test]
    fn abrupt_drift_switches_at_round() {
        let d = DriftModel::Abrupt {
            at_round: 5,
            new_mean: 0.9,
        };
        assert_eq!(d.mean_at(0.2, Round(4)), 0.2);
        assert_eq!(d.mean_at(0.2, Round(5)), 0.9);
    }

    #[test]
    fn sinusoidal_drift_oscillates_and_returns() {
        let d = DriftModel::Sinusoidal {
            amplitude: 0.2,
            period: 100.0,
        };
        assert!((d.mean_at(0.5, Round(0)) - 0.5).abs() < 1e-12);
        assert!((d.mean_at(0.5, Round(25)) - 0.7).abs() < 1e-9); // peak
        assert!((d.mean_at(0.5, Round(100)) - 0.5).abs() < 1e-9); // full period
    }

    #[test]
    fn observer_tracks_drifted_means() {
        let obs = DriftingObserver::new(
            pop(&[0.2, 0.8]),
            vec![
                DriftModel::Abrupt {
                    at_round: 10,
                    new_mean: 0.9,
                },
                DriftModel::None,
            ],
            0.05,
            4,
        );
        let [q0, q1] = [0.2, 0.8].map(|mu| TruncatedGaussian::new(mu, 0.1).mean());
        assert_eq!(obs.mean_at(SellerId(0), Round(0)), q0);
        assert_eq!(obs.mean_at(SellerId(0), Round(10)), 0.9);
        assert_eq!(obs.mean_at(SellerId(1), Round(10)), q1);
        // Optimal flips after the change point (0.9 > q1 ≈ 0.8).
        assert_eq!(obs.optimal_quality_sum_at(Round(0), 1), q1);
        assert_eq!(obs.optimal_quality_sum_at(Round(10), 1), 0.9);
    }

    #[test]
    fn observations_follow_the_drift() {
        let obs = DriftingObserver::new(
            pop(&[0.3]),
            vec![DriftModel::Abrupt {
                at_round: 1,
                new_mean: 0.9,
            }],
            0.05,
            500,
        );
        let mut rng = SimRng::new(1);
        let before = obs.observe_round(Round(0), &[SellerId(0)], &mut rng);
        let after = obs.observe_round(Round(1), &[SellerId(0)], &mut rng);
        let mean_before = before.row_sum(0) / 500.0;
        let mean_after = after.row_sum(0) / 500.0;
        assert!((mean_before - 0.3).abs() < 0.02, "{mean_before}");
        assert!((mean_after - 0.9).abs() < 0.02, "{mean_after}");
    }

    #[test]
    fn drifted_rows_draw_what_single_samples_draw() {
        let obs = DriftingObserver::new(
            pop(&[0.2, 0.8, 0.5]),
            vec![
                DriftModel::Abrupt {
                    at_round: 3,
                    new_mean: 1.0,
                },
                DriftModel::Linear { rate: 0.1 },
                DriftModel::None,
            ],
            0.1,
            7,
        );
        let selected = [SellerId(0), SellerId(1), SellerId(2)];
        let (mut rows, mut draws) = (SimRng::new(8), SimRng::new(8));
        let mut out = ObservationMatrix::empty();
        for t in 0..6 {
            let round = Round(t);
            obs.observe_round_into(round, &selected, &mut rows, &mut out);
            for (s, &id) in selected.iter().enumerate() {
                let d = TruncatedGaussian::new(obs.mean_at(id, round), 0.1);
                let samples: Vec<u64> = (0..7).map(|_| d.sample(&mut draws).to_bits()).collect();
                let row: Vec<u64> = out.row(s).iter().map(|x| x.to_bits()).collect();
                assert_eq!(row, samples, "round {t}, seller {s}");
            }
        }
        assert_eq!(rows.next_u64(), draws.next_u64());
    }

    #[test]
    #[should_panic(expected = "one drift model per seller")]
    fn drift_arity_is_enforced() {
        let _ = DriftingObserver::new(pop(&[0.5, 0.5]), vec![DriftModel::None], 0.1, 4);
    }
}
