//! Append-only, validated in-memory event log: the writer that builds a
//! journal's text in memory. Its text reads back, like any journal file,
//! through [`crate::load_journal_text`].

use crate::event::MarketEvent;
use crate::state::{ProtocolError, ProtocolState};
use cdt_types::json::Codec as _;

/// An event log that validates every append against the protocol state
/// machine, so an in-memory log is *always* a legal history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<MarketEvent>,
    state: ProtocolState,
}

impl EventLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The events, in order.
    #[must_use]
    pub fn events(&self) -> &[MarketEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The current protocol state.
    #[must_use]
    pub fn state(&self) -> &ProtocolState {
        &self.state
    }

    /// Validates and appends one event.
    ///
    /// # Errors
    /// Returns the protocol violation; the log is unchanged on error.
    pub fn append(&mut self, event: MarketEvent) -> Result<(), ProtocolError> {
        self.state.apply(&event)?;
        self.events.push(event);
        Ok(())
    }

    /// Serializes to JSON lines (one event per line).
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = Vec::new();
        for e in &self.events {
            e.encode(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("the codec writes UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{load_journal_text, JournalView, SegmentError};
    use cdt_types::json;
    use cdt_types::{JobSpec, Round, SellerId};

    fn full_log() -> EventLog {
        let mut log = EventLog::new();
        log.append(MarketEvent::JobPublished {
            job: JobSpec::new(4, 1, 10.0).unwrap(),
        })
        .unwrap();
        log.append(MarketEvent::SellersSelected {
            round: Round(0),
            sellers: vec![SellerId(2)],
        })
        .unwrap();
        log.append(MarketEvent::StrategyDetermined {
            round: Round(0),
            service_price: 4.0,
            collection_price: 1.0,
            sensing_times: vec![2.0],
        })
        .unwrap();
        log.append(MarketEvent::DataCollected {
            round: Round(0),
            observed_revenue: 3.0,
        })
        .unwrap();
        log.append(MarketEvent::StatisticsDelivered { round: Round(0) })
            .unwrap();
        log.append(MarketEvent::PaymentsSettled {
            round: Round(0),
            consumer_payment: 8.0,
            seller_payments: vec![2.0],
        })
        .unwrap();
        log.append(MarketEvent::JobCompleted { rounds: 1 }).unwrap();
        log
    }

    /// Reads a log's text back, as `cdt journal verify` reads a file.
    fn read(text: &str) -> Result<JournalView, SegmentError> {
        load_journal_text(text, "log.jsonl")
    }

    #[test]
    fn json_lines_round_trip() {
        let log = full_log();
        let view = read(&log.to_json_lines()).unwrap();
        assert_eq!(view.events, log.len() as u64);
        assert_eq!(&view.state, log.state());
        assert!(view.completed());
    }

    #[test]
    fn append_rejects_and_preserves_log() {
        let mut log = EventLog::new();
        let bad = MarketEvent::JobCompleted { rounds: 0 };
        assert!(log.append(bad).is_err());
        assert!(log.is_empty());
    }

    /// Edits one named field of one journal line through the codec —
    /// decode, edit, encode — so the tampering is structured and immune
    /// to incidental substring collisions.
    fn tamper_line(text: &str, line_idx: usize, kind: &str, field: &str, value: f64) -> String {
        let mut out = String::new();
        for (i, line) in text.lines().enumerate() {
            let mut event: MarketEvent = json::from_str(line).unwrap();
            if i == line_idx {
                assert_eq!(event.kind(), kind);
                match (&mut event, field) {
                    (
                        MarketEvent::PaymentsSettled {
                            consumer_payment, ..
                        },
                        "consumer_payment",
                    ) => *consumer_payment = value,
                    (MarketEvent::StrategyDetermined { service_price, .. }, "service_price") => {
                        *service_price = value;
                    }
                    _ => panic!("no field {field} on {kind}"),
                }
            }
            out.push_str(&json::to_string(&event));
            out.push('\n');
        }
        out
    }

    #[test]
    fn replay_rejects_tampered_consumer_payment() {
        let log = full_log();
        // Line 5 is the settlement; inflate the consumer payment tenfold.
        let text = tamper_line(
            &log.to_json_lines(),
            5,
            "PaymentsSettled",
            "consumer_payment",
            80.0,
        );
        let err = read(&text).unwrap_err().to_string();
        assert!(
            err.starts_with("log.jsonl line 6: protocol violation: "),
            "{err}"
        );
    }

    #[test]
    fn replay_rejects_tampered_strategy_price() {
        let log = full_log();
        // Rewriting the agreed price breaks the later settlement check.
        let text = tamper_line(
            &log.to_json_lines(),
            2,
            "StrategyDetermined",
            "service_price",
            0.5,
        );
        let err = read(&text).unwrap_err();
        assert!(err.to_string().contains("protocol violation"));
    }

    #[test]
    fn replay_rejects_reordered_lines() {
        let log = full_log();
        let text = log.to_json_lines();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2); // selection and strategy swapped
        let err = read(&lines.join("\n")).unwrap_err();
        assert!(err.to_string().contains("protocol violation"));
    }

    #[test]
    fn replay_rejects_garbage_json() {
        let err = read("not json\n").unwrap_err().to_string();
        assert!(err.starts_with("log.jsonl line 1: bad event JSON"), "{err}");
    }

    /// A published job goes through `JobSpec::new`, so `L = 0`, `N = 0` and
    /// `T <= 0` fail on line 1 exactly as `cdt run` refuses them.
    #[test]
    fn replay_rejects_jobs_that_job_spec_new_rejects() {
        for (pois, rounds, duration) in [(0, 1, 10.0), (1, 0, 10.0), (1, 1, -5.0), (1, 1, 0.0)] {
            let job = JobSpec {
                num_pois: pois,
                num_rounds: rounds,
                round_duration: duration,
                description: String::new(),
            };
            let text = format!(
                "{}\n{{\"JobCompleted\":{{\"rounds\":0}}}}\n",
                json::to_string(&MarketEvent::JobPublished { job })
            );
            let err = read(&text).unwrap_err().to_string();
            let why = JobSpec::new(pois, rounds, duration).unwrap_err();
            assert!(
                err.contains(&format!("line 1: invalid job: {why}")),
                "L={pois} N={rounds} T={duration}: {err}"
            );
        }
    }

    #[test]
    fn audit_queries_sum_settlements() {
        let view = read(&full_log().to_json_lines()).unwrap();
        assert_eq!(view.consumer_total(), 8.0);
        assert_eq!(view.seller_total(), 2.0);
    }

    #[test]
    fn empty_lines_are_skipped() {
        let log = full_log();
        let text = format!("\n{}\n\n", log.to_json_lines());
        assert_eq!(read(&text).unwrap().events, log.len() as u64);
    }

    #[test]
    fn settlements_iterate_in_round_order() {
        let view = read(&full_log().to_json_lines()).unwrap();
        assert_eq!(view.settlements.len(), 1);
        let row = &view.settlements[0];
        assert_eq!(row.round, Round(0));
        assert_eq!(row.consumer, 8.0);
        assert_eq!(row.sellers, [2.0]);
    }
}
