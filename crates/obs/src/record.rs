//! Owned event records — the stable JSONL schema.
//!
//! The borrowed payloads in [`crate::event`] are what instrumented code
//! emits; an [`EventRecord`] is the owned form a sink can buffer and write.
//! One record serializes to one JSON object whose `event` tag names the
//! variant; the field names here are the on-disk schema and are pinned by
//! the golden test in `tests/integration_obs.rs` — change them only with a
//! deliberate schema bump.

use crate::event::{
    EquilibriumEvent, ObservationEvent, RoundEndEvent, RoundObserver, SelectionEvent,
};
use cdt_types::Round;

/// One observability event in owned form. Its line (see [`crate::codec`])
/// is one JSON object: the `event` tag naming the variant in snake_case,
/// then the fields in declaration order.
///
/// Non-finite floats (e.g. the `+∞` UCB index of a never-sampled seller)
/// are written as JSON `null`; a `null` score reads back as `+∞`.
#[derive(Debug, Clone, PartialEq)]
pub enum EventRecord {
    /// A round is about to execute.
    RoundStart {
        /// Which evaluation run emitted this (e.g. `cmab-hs/seed42`).
        run: String,
        /// Round index.
        round: usize,
    },
    /// Sellers were selected.
    Selection {
        run: String,
        round: usize,
        /// Selected seller ids, in selection order.
        selected: Vec<usize>,
        /// Ranking score per selected seller (UCB index for CMAB-HS).
        scores: Vec<f64>,
    },
    /// The Stackelberg strategy was determined.
    Equilibrium {
        run: String,
        round: usize,
        /// Consumer's service price `p^{J*}`.
        service_price: f64,
        /// Platform's collection price `p*`.
        collection_price: f64,
        /// Sensing times `τ_i*`, in selection order.
        sensing_times: Vec<f64>,
        consumer_profit: f64,
        platform_profit: f64,
        seller_profit: f64,
    },
    /// Qualities were observed.
    Observation {
        run: String,
        round: usize,
        observed_revenue: f64,
        /// Number of quality samples drawn.
        samples: usize,
    },
    /// The round finished.
    RoundEnd {
        run: String,
        round: usize,
        observed_revenue: f64,
        consumer_profit: f64,
        platform_profit: f64,
        seller_profit: f64,
        selection_ns: u64,
        solve_ns: u64,
        observe_ns: u64,
    },
    /// Cumulative regret after caller-side accounting.
    Regret {
        run: String,
        round: usize,
        cumulative_regret: f64,
        account_ns: u64,
    },
}

impl EventRecord {
    /// The `event` tag of the record's line: the variant in snake_case.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventRecord::RoundStart { .. } => "round_start",
            EventRecord::Selection { .. } => "selection",
            EventRecord::Equilibrium { .. } => "equilibrium",
            EventRecord::Observation { .. } => "observation",
            EventRecord::RoundEnd { .. } => "round_end",
            EventRecord::Regret { .. } => "regret",
        }
    }

    /// The round index the record refers to.
    #[must_use]
    pub fn round(&self) -> usize {
        match self {
            EventRecord::RoundStart { round, .. }
            | EventRecord::Selection { round, .. }
            | EventRecord::Equilibrium { round, .. }
            | EventRecord::Observation { round, .. }
            | EventRecord::RoundEnd { round, .. }
            | EventRecord::Regret { round, .. } => *round,
        }
    }

    /// The run label the record belongs to.
    #[must_use]
    pub fn run(&self) -> &str {
        match self {
            EventRecord::RoundStart { run, .. }
            | EventRecord::Selection { run, .. }
            | EventRecord::Equilibrium { run, .. }
            | EventRecord::Observation { run, .. }
            | EventRecord::RoundEnd { run, .. }
            | EventRecord::Regret { run, .. } => run,
        }
    }
}

/// An observer that buffers owned [`EventRecord`]s in memory.
///
/// Used directly by the bit-identity tests, and as the accumulation stage of
/// the pipeline observer.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// Run label stamped onto every record.
    pub run: String,
    /// The records captured so far, in emission order.
    pub records: Vec<EventRecord>,
}

impl RecordingObserver {
    /// A recorder stamping `run` onto every record.
    #[must_use]
    pub fn new(run: impl Into<String>) -> Self {
        Self {
            run: run.into(),
            records: Vec::new(),
        }
    }
}

impl RoundObserver for RecordingObserver {
    fn round_start(&mut self, round: Round) {
        self.records.push(EventRecord::RoundStart {
            run: self.run.clone(),
            round: round.0,
        });
    }

    fn selection(&mut self, round: Round, event: &SelectionEvent<'_>) {
        self.records.push(EventRecord::Selection {
            run: self.run.clone(),
            round: round.0,
            selected: event.selected.iter().map(|s| s.0).collect(),
            scores: event.scores.to_vec(),
        });
    }

    fn equilibrium(&mut self, round: Round, event: &EquilibriumEvent<'_>) {
        self.records.push(EventRecord::Equilibrium {
            run: self.run.clone(),
            round: round.0,
            service_price: event.service_price,
            collection_price: event.collection_price,
            sensing_times: event.sensing_times.to_vec(),
            consumer_profit: event.consumer_profit,
            platform_profit: event.platform_profit,
            seller_profit: event.seller_profit,
        });
    }

    fn observation(&mut self, round: Round, event: &ObservationEvent) {
        self.records.push(EventRecord::Observation {
            run: self.run.clone(),
            round: round.0,
            observed_revenue: event.observed_revenue,
            samples: event.samples,
        });
    }

    fn round_end(&mut self, round: Round, event: &RoundEndEvent) {
        self.records.push(EventRecord::RoundEnd {
            run: self.run.clone(),
            round: round.0,
            observed_revenue: event.observed_revenue,
            consumer_profit: event.consumer_profit,
            platform_profit: event.platform_profit,
            seller_profit: event.seller_profit,
            selection_ns: event.selection_ns,
            solve_ns: event.solve_ns,
            observe_ns: event.observe_ns,
        });
    }

    fn regret(&mut self, round: Round, cumulative_regret: f64, account_ns: u64) {
        self.records.push(EventRecord::Regret {
            run: self.run.clone(),
            round: round.0,
            cumulative_regret,
            account_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::json::{from_str, to_string};
    use cdt_types::SellerId;

    #[test]
    fn serializes_with_event_tag() {
        let rec = EventRecord::RoundStart {
            run: "test".into(),
            round: 3,
        };
        let json = to_string(&rec);
        assert_eq!(json, r#"{"event":"round_start","run":"test","round":3}"#);
        let back: EventRecord = from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn non_finite_scores_become_null() {
        let rec = EventRecord::Selection {
            run: "r".into(),
            round: 0,
            selected: vec![1],
            scores: vec![f64::INFINITY],
        };
        let json = to_string(&rec);
        assert!(json.contains("\"scores\":[null]"), "got {json}");
    }

    #[test]
    fn recorder_captures_hooks_in_order() {
        let mut rec = RecordingObserver::new("unit");
        rec.round_start(Round(5));
        rec.selection(
            Round(5),
            &SelectionEvent {
                selected: &[SellerId(2), SellerId(0)],
                scores: &[0.9, 0.7],
            },
        );
        rec.observation(
            Round(5),
            &ObservationEvent {
                observed_revenue: 1.25,
                samples: 10,
            },
        );
        rec.regret(Round(5), 0.1, 42);
        assert_eq!(rec.records.len(), 4);
        assert!(rec.records.iter().all(|r| r.round() == 5));
        assert!(rec.records.iter().all(|r| r.run() == "unit"));
        match &rec.records[1] {
            EventRecord::Selection {
                selected, scores, ..
            } => {
                assert_eq!(selected, &[2, 0]);
                assert_eq!(scores, &[0.9, 0.7]);
            }
            other => panic!("expected selection, got {other:?}"),
        }
    }
}
