//! The per-round protocol state machine.
//!
//! Enforced invariants:
//!
//! - the job is published exactly once, before anything else;
//! - rounds run in order `0, 1, 2, …` with the phase sequence
//!   `SellersSelected → StrategyDetermined → DataCollected →
//!   StatisticsDelivered → PaymentsSettled`;
//! - the strategy's arity matches the selection (`one τ per seller`);
//! - settlement amounts match the recorded strategy:
//!   `consumer_payment = p^J Στ` and `seller_payments[i] = p·τ_i`
//!   (within a 1e-6 relative tolerance);
//! - `JobCompleted` only after the final round settled, with the correct
//!   round count.

use crate::event::MarketEvent;
use cdt_types::Round;
use std::fmt;

/// Violations the state machine can detect.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// An event arrived before `JobPublished` (or a second publish).
    JobLifecycle {
        /// Description of the violation.
        message: String,
    },
    /// A round-phase ordering violation.
    OutOfOrder {
        /// What arrived.
        got: String,
        /// What the machine expected.
        expected: String,
    },
    /// A payload inconsistency (arity or amounts).
    Inconsistent {
        /// Description of the mismatch.
        message: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::JobLifecycle { message } => write!(f, "job lifecycle: {message}"),
            ProtocolError::OutOfOrder { got, expected } => {
                write!(f, "out of order: got {got}, expected {expected}")
            }
            ProtocolError::Inconsistent { message } => write!(f, "inconsistent: {message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The phase within the current round: which event the machine awaits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the `Await` prefix is the point
pub(crate) enum Phase {
    AwaitSelection,
    AwaitStrategy,
    AwaitData,
    AwaitStatistics,
    AwaitSettlement,
}

/// Replayable protocol state. Its journal layout (see `crate::codec`)
/// writes `strategy` and `taus` together as one `[p^J, p, [τ…]]` tuple.
/// Besides [`ProtocolState::apply`], only that decoder builds one, and it
/// checks that the phase has the selection and strategy `apply` relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolState {
    pub(crate) published: bool,
    pub(crate) completed: bool,
    pub(crate) current_round: Round,
    pub(crate) phase: Phase,
    /// Selection arity of the in-flight round.
    pub(crate) selection_len: Option<usize>,
    /// `⟨p^J, p⟩` of the in-flight round, for settlement checking.
    pub(crate) strategy: Option<(f64, f64)>,
    /// `τ` of the in-flight round; empty whenever `strategy` is `None`.
    /// Cleared rather than dropped at settlement, so replay reuses it.
    pub(crate) taus: Vec<f64>,
    pub(crate) settled_rounds: usize,
}

impl Default for ProtocolState {
    fn default() -> Self {
        Self::new()
    }
}

impl ProtocolState {
    /// A fresh market: nothing published yet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            published: false,
            completed: false,
            current_round: Round(0),
            phase: Phase::AwaitSelection,
            selection_len: None,
            strategy: None,
            taus: Vec::new(),
            settled_rounds: 0,
        }
    }

    /// Rounds fully settled so far.
    #[must_use]
    pub fn settled_rounds(&self) -> usize {
        self.settled_rounds
    }

    /// `true` once `JobCompleted` was accepted.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        self.completed
    }

    /// The round the machine currently expects events for (one past the
    /// last settled round).
    #[must_use]
    pub fn current_round(&self) -> Round {
        self.current_round
    }

    /// `true` when the machine sits on a settlement boundary: no round is
    /// in flight (the next event must be a `SellersSelected` or
    /// `JobCompleted`). Recovery must always land in this state.
    #[must_use]
    pub fn at_round_boundary(&self) -> bool {
        self.phase == Phase::AwaitSelection
    }

    /// Drops the in-flight round: recovery's rollback to the settlement
    /// boundary it started from. Only a settlement boundary event moves
    /// the other fields, so these four are all a round in flight changed.
    pub(crate) fn abandon_round(&mut self) {
        self.phase = Phase::AwaitSelection;
        self.selection_len = None;
        self.strategy = None;
        self.taus.clear();
    }

    fn expect_round(&self, round: Round, got: &MarketEvent) -> Result<(), ProtocolError> {
        if round != self.current_round {
            return Err(ProtocolError::OutOfOrder {
                got: format!("{} for {round}", got.kind()),
                expected: format!("events for {}", self.current_round),
            });
        }
        Ok(())
    }

    fn expect_phase(&self, phase: Phase, got: &MarketEvent) -> Result<(), ProtocolError> {
        if self.phase != phase {
            return Err(ProtocolError::OutOfOrder {
                got: got.kind().to_owned(),
                expected: format!("{:?}", self.phase),
            });
        }
        Ok(())
    }

    /// Applies one event, advancing the machine or rejecting the event.
    ///
    /// # Errors
    /// Returns the specific [`ProtocolError`] the event violates; state is
    /// unchanged on error.
    pub fn apply(&mut self, event: &MarketEvent) -> Result<(), ProtocolError> {
        if self.completed {
            return Err(ProtocolError::JobLifecycle {
                message: format!("{} after JobCompleted", event.kind()),
            });
        }
        match event {
            MarketEvent::JobPublished { .. } => {
                if self.published {
                    return Err(ProtocolError::JobLifecycle {
                        message: "job published twice".into(),
                    });
                }
                self.published = true;
                Ok(())
            }
            _ if !self.published => Err(ProtocolError::JobLifecycle {
                message: format!("{} before JobPublished", event.kind()),
            }),
            MarketEvent::SellersSelected { round, sellers } => {
                self.expect_round(*round, event)?;
                self.expect_phase(Phase::AwaitSelection, event)?;
                if sellers.is_empty() {
                    return Err(ProtocolError::Inconsistent {
                        message: "empty selection".into(),
                    });
                }
                self.selection_len = Some(sellers.len());
                self.phase = Phase::AwaitStrategy;
                Ok(())
            }
            MarketEvent::StrategyDetermined {
                round,
                service_price,
                collection_price,
                sensing_times,
            } => {
                self.expect_round(*round, event)?;
                self.expect_phase(Phase::AwaitStrategy, event)?;
                let k = self.selection_len.expect("phase implies selection");
                if sensing_times.len() != k {
                    return Err(ProtocolError::Inconsistent {
                        message: format!("{} sensing times for {k} sellers", sensing_times.len()),
                    });
                }
                if !(service_price.is_finite() && collection_price.is_finite()) {
                    return Err(ProtocolError::Inconsistent {
                        message: "non-finite prices".into(),
                    });
                }
                // Reject a bad τ here, at the event that introduces it: a
                // NaN or negative sensing time would otherwise poison Στ
                // and surface as a confusing settlement mismatch.
                if let Some(bad) = sensing_times
                    .iter()
                    .find(|t| !(t.is_finite() && **t >= 0.0))
                {
                    return Err(ProtocolError::Inconsistent {
                        message: format!("invalid sensing time {bad} (must be finite and >= 0)"),
                    });
                }
                self.strategy = Some((*service_price, *collection_price));
                self.taus.clear();
                self.taus.extend_from_slice(sensing_times);
                self.phase = Phase::AwaitData;
                Ok(())
            }
            MarketEvent::DataCollected {
                round,
                observed_revenue,
            } => {
                self.expect_round(*round, event)?;
                self.expect_phase(Phase::AwaitData, event)?;
                if !(observed_revenue.is_finite() && *observed_revenue >= 0.0) {
                    return Err(ProtocolError::Inconsistent {
                        message: format!("invalid revenue {observed_revenue}"),
                    });
                }
                self.phase = Phase::AwaitStatistics;
                Ok(())
            }
            MarketEvent::StatisticsDelivered { round } => {
                self.expect_round(*round, event)?;
                self.expect_phase(Phase::AwaitStatistics, event)?;
                self.phase = Phase::AwaitSettlement;
                Ok(())
            }
            MarketEvent::PaymentsSettled {
                round,
                consumer_payment,
                seller_payments,
            } => {
                self.expect_round(*round, event)?;
                self.expect_phase(Phase::AwaitSettlement, event)?;
                if !consumer_payment.is_finite() {
                    return Err(ProtocolError::Inconsistent {
                        message: format!("non-finite consumer payment {consumer_payment}"),
                    });
                }
                if let Some(bad) = seller_payments.iter().find(|p| !p.is_finite()) {
                    return Err(ProtocolError::Inconsistent {
                        message: format!("non-finite seller payment {bad}"),
                    });
                }
                let (pj, p) = self.strategy.expect("phase implies strategy");
                let taus = &self.taus;
                let total: f64 = taus.iter().sum();
                let expected_consumer = pj * total;
                if !approx(*consumer_payment, expected_consumer) {
                    return Err(ProtocolError::Inconsistent {
                        message: format!(
                            "consumer payment {consumer_payment} != p^J·Στ = {expected_consumer}"
                        ),
                    });
                }
                if seller_payments.len() != taus.len() {
                    return Err(ProtocolError::Inconsistent {
                        message: "seller payment arity mismatch".into(),
                    });
                }
                for (i, (&paid, &tau)) in seller_payments.iter().zip(taus).enumerate() {
                    let expected = p * tau;
                    if !approx(paid, expected) {
                        return Err(ProtocolError::Inconsistent {
                            message: format!("seller {i} paid {paid}, strategy implies {expected}"),
                        });
                    }
                }
                self.settled_rounds += 1;
                self.current_round = self.current_round.next();
                self.phase = Phase::AwaitSelection;
                self.selection_len = None;
                self.strategy = None;
                self.taus.clear();
                Ok(())
            }
            MarketEvent::JobCompleted { rounds } => {
                if self.phase != Phase::AwaitSelection {
                    return Err(ProtocolError::OutOfOrder {
                        got: "JobCompleted".into(),
                        expected: "settlement of the in-flight round".into(),
                    });
                }
                if *rounds != self.settled_rounds {
                    return Err(ProtocolError::Inconsistent {
                        message: format!(
                            "JobCompleted claims {rounds} rounds, {} settled",
                            self.settled_rounds
                        ),
                    });
                }
                self.completed = true;
                Ok(())
            }
        }
    }
}

fn approx(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-6 * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::{JobSpec, SellerId};

    fn job() -> MarketEvent {
        MarketEvent::JobPublished {
            job: JobSpec::new(4, 2, 10.0).unwrap(),
        }
    }

    fn round_events(t: usize) -> Vec<MarketEvent> {
        vec![
            MarketEvent::SellersSelected {
                round: Round(t),
                sellers: vec![SellerId(0), SellerId(1)],
            },
            MarketEvent::StrategyDetermined {
                round: Round(t),
                service_price: 4.0,
                collection_price: 1.5,
                sensing_times: vec![2.0, 3.0],
            },
            MarketEvent::DataCollected {
                round: Round(t),
                observed_revenue: 5.5,
            },
            MarketEvent::StatisticsDelivered { round: Round(t) },
            MarketEvent::PaymentsSettled {
                round: Round(t),
                consumer_payment: 4.0 * 5.0,
                seller_payments: vec![1.5 * 2.0, 1.5 * 3.0],
            },
        ]
    }

    #[test]
    fn happy_path_two_rounds() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        for t in 0..2 {
            for e in round_events(t) {
                s.apply(&e).unwrap();
            }
        }
        s.apply(&MarketEvent::JobCompleted { rounds: 2 }).unwrap();
        assert!(s.is_completed());
        assert_eq!(s.settled_rounds(), 2);
    }

    #[test]
    fn rejects_events_before_publish() {
        let mut s = ProtocolState::new();
        let e = &round_events(0)[0];
        assert!(matches!(
            s.apply(e),
            Err(ProtocolError::JobLifecycle { .. })
        ));
    }

    #[test]
    fn rejects_double_publish() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        assert!(s.apply(&job()).is_err());
    }

    #[test]
    fn rejects_phase_skips() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        let evs = round_events(0);
        s.apply(&evs[0]).unwrap();
        // Skip the strategy: data cannot arrive yet.
        assert!(matches!(
            s.apply(&evs[2]),
            Err(ProtocolError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn rejects_wrong_round() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        let evs = round_events(1); // machine expects round 0
        assert!(matches!(
            s.apply(&evs[0]),
            Err(ProtocolError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        s.apply(&round_events(0)[0]).unwrap();
        let bad = MarketEvent::StrategyDetermined {
            round: Round(0),
            service_price: 4.0,
            collection_price: 1.5,
            sensing_times: vec![2.0], // 1 tau for 2 sellers
        };
        assert!(matches!(
            s.apply(&bad),
            Err(ProtocolError::Inconsistent { .. })
        ));
    }

    #[test]
    fn rejects_nan_or_negative_sensing_times() {
        for bad_tau in [f64::NAN, f64::INFINITY, -1.0] {
            let mut s = ProtocolState::new();
            s.apply(&job()).unwrap();
            s.apply(&round_events(0)[0]).unwrap();
            let bad = MarketEvent::StrategyDetermined {
                round: Round(0),
                service_price: 4.0,
                collection_price: 1.5,
                sensing_times: vec![2.0, bad_tau],
            };
            let err = s.apply(&bad).unwrap_err();
            assert!(
                err.to_string().contains("invalid sensing time"),
                "tau {bad_tau}: {err}"
            );
        }
    }

    #[test]
    fn zero_sensing_time_is_legal() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        s.apply(&round_events(0)[0]).unwrap();
        s.apply(&MarketEvent::StrategyDetermined {
            round: Round(0),
            service_price: 4.0,
            collection_price: 1.5,
            sensing_times: vec![0.0, 3.0],
        })
        .unwrap();
    }

    #[test]
    fn rejects_non_finite_payments_precisely() {
        // A NaN consumer payment must be rejected as non-finite, not as a
        // (vacuous) amount mismatch.
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        let evs = round_events(0);
        for e in &evs[..4] {
            s.apply(e).unwrap();
        }
        let err = s
            .apply(&MarketEvent::PaymentsSettled {
                round: Round(0),
                consumer_payment: f64::NAN,
                seller_payments: vec![3.0, 4.5],
            })
            .unwrap_err();
        assert!(
            err.to_string().contains("non-finite consumer payment"),
            "{err}"
        );
        let err = s
            .apply(&MarketEvent::PaymentsSettled {
                round: Round(0),
                consumer_payment: 20.0,
                seller_payments: vec![3.0, f64::INFINITY],
            })
            .unwrap_err();
        assert!(
            err.to_string().contains("non-finite seller payment"),
            "{err}"
        );
    }

    #[test]
    fn rejects_payment_mismatch() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        let evs = round_events(0);
        for e in &evs[..4] {
            s.apply(e).unwrap();
        }
        let bad = MarketEvent::PaymentsSettled {
            round: Round(0),
            consumer_payment: 999.0, // != p^J·Στ = 20
            seller_payments: vec![3.0, 4.5],
        };
        let err = s.apply(&bad).unwrap_err();
        assert!(err.to_string().contains("consumer payment"));
    }

    #[test]
    fn rejects_short_changed_seller() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        let evs = round_events(0);
        for e in &evs[..4] {
            s.apply(e).unwrap();
        }
        let bad = MarketEvent::PaymentsSettled {
            round: Round(0),
            consumer_payment: 20.0,
            seller_payments: vec![3.0, 1.0], // seller 1 shorted (4.5 due)
        };
        let err = s.apply(&bad).unwrap_err();
        assert!(err.to_string().contains("seller 1"));
    }

    #[test]
    fn rejects_premature_or_wrong_completion() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        let evs = round_events(0);
        s.apply(&evs[0]).unwrap();
        // Mid-round completion.
        assert!(s.apply(&MarketEvent::JobCompleted { rounds: 0 }).is_err());
        for e in &evs[1..] {
            s.apply(e).unwrap();
        }
        // Wrong round count.
        assert!(s.apply(&MarketEvent::JobCompleted { rounds: 5 }).is_err());
        s.apply(&MarketEvent::JobCompleted { rounds: 1 }).unwrap();
        // Nothing after completion.
        assert!(s.apply(&round_events(1)[0]).is_err());
    }

    #[test]
    fn failed_apply_leaves_state_unchanged() {
        let mut s = ProtocolState::new();
        s.apply(&job()).unwrap();
        s.apply(&round_events(0)[0]).unwrap();
        let before = s.clone();
        let _ = s.apply(&round_events(1)[1]); // wrong round
        assert_eq!(s, before);
    }
}
