//! The one replay every journal reader runs.
//!
//! A journal's history is a sequence of sources, fed in order: one file,
//! or a checkpoint and then the indexed segments, the sealed segments the
//! index never recorded and the active partial (see [`crate::segment`]).
//! `Replay` decodes each line, applies it to the [`crate::ProtocolState`],
//! collects the settlement rows and remembers the last *settlement
//! boundary* — after `JobPublished`, after any `PaymentsSettled`, or
//! after `JobCompleted`. A strict reader turns its first stop into an
//! error. Recovery rolls back to the boundary instead and reports where
//! and why replay stopped, so a journal left behind by a killed run
//! (`<path>.partial` from [`crate::JournalSink`]) keeps its longest
//! settled prefix.

use crate::codec;
use crate::diff::SettlementRow;
use crate::event::MarketEvent;
use crate::segment::{JournalView, SegmentError};

/// Where and why a recovery replay stopped short of the journal's end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryStop {
    /// Non-empty lines read through the offending (or last in-flight)
    /// line, counted across every source: its 1-based line number in a
    /// journal without blank lines.
    pub line: usize,
    /// Human-readable cause: bad JSON, protocol violation, or mid-round
    /// truncation, after the source's file name in a segmented layout.
    pub reason: String,
}

/// The result of a truncation-tolerant recovery over any journal layout.
#[derive(Debug)]
pub struct JournalRecovery {
    /// The recovered history. It always ends on a settlement boundary.
    pub view: JournalView,
    /// Non-empty lines read across all source files.
    pub lines_read: usize,
    /// Events that decoded and applied cleanly, kept or in flight (the
    /// checkpoint's folded events excluded).
    pub events_replayed: u64,
    /// The kept event lines (the folded prefix excluded), each as written
    /// and newline-terminated: a valid journal when no checkpoint is
    /// involved. Empty unless recovery was asked to keep the text.
    pub kept_text: String,
    /// Bytes of the source files that the kept lines cover, through the
    /// end of the last kept line.
    pub source_bytes: u64,
    /// `None` for a clean boundary-terminated history; otherwise where
    /// and why replay stopped.
    pub stop: Option<RecoveryStop>,
}

impl JournalRecovery {
    /// Events kept in the recovered history, the folded ones excluded.
    #[must_use]
    pub fn events_kept(&self) -> u64 {
        self.view.events - self.view.compacted_events
    }
}

/// One replay of a journal history, fed one source at a time.
#[derive(Debug)]
pub(crate) struct Replay {
    /// The history through the last settlement boundary, folded prefix
    /// included; its `state` also holds the in-flight round, if any.
    pub(crate) view: JournalView,
    /// Events applied since the last settlement boundary.
    in_flight: u64,
    /// Non-empty lines read.
    lines: usize,
    /// Source bytes through the end of the last boundary's line.
    covered: u64,
    /// Bytes of the sources fed before the current one.
    fed: u64,
    /// Recovery's copy of the kept lines, with its length at the last
    /// boundary, when its caller writes them out. A strict replay copies
    /// no line.
    text: Option<(String, usize)>,
    stop: Option<RecoveryStop>,
}

impl Replay {
    /// A strict replay that resumes after `start` (an empty history, or
    /// the one a checkpoint folded).
    pub(crate) fn new(start: JournalView) -> Self {
        Self {
            view: start,
            in_flight: 0,
            lines: 0,
            covered: 0,
            fed: 0,
            text: None,
            stop: None,
        }
    }

    /// A recovering replay that resumes after `start`, copying the kept
    /// lines when `keep_text` is set.
    pub(crate) fn recovering(start: JournalView, keep_text: bool) -> Self {
        Self {
            text: keep_text.then(|| (String::new(), 0)),
            ..Self::new(start)
        }
    }

    /// Events applied so far, folded and in-flight ones included.
    pub(crate) fn applied(&self) -> u64 {
        self.view.events + self.in_flight
    }

    /// Whether replay has stopped: no further source may follow.
    pub(crate) fn stopped(&self) -> bool {
        self.stop.is_some()
    }

    /// Replays one source's bytes, stopping at the first line that does
    /// not decode or apply: returns its 1-based line number in `bytes`
    /// and why.
    fn feed(&mut self, bytes: &[u8]) -> Result<(), (usize, String)> {
        // The lines before the first byte that is not UTF-8 replay as
        // text; the line holding that byte stops replay.
        let (text, bad) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or_default();
                (&valid[..valid.rfind('\n').map_or(0, |i| i + 1)], Some(e))
            }
        };
        let (mut line_no, mut end) = (0, 0);
        for raw in text.split_inclusive('\n') {
            line_no += 1;
            end += raw.len();
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            self.lines += 1;
            let stop = |why: String| (line_no, why);
            let event = codec::event_from_line(line).map_err(stop)?;
            self.view
                .state
                .apply(&event)
                .map_err(|e| stop(format!("protocol violation: {e}")))?;
            self.in_flight += 1;
            if let Some((text, _)) = &mut self.text {
                text.push_str(line);
                text.push('\n');
            }
            if event.is_settlement_boundary() {
                self.view.events += std::mem::take(&mut self.in_flight);
                self.covered = self.fed + end as u64;
                if let Some((text, kept)) = &mut self.text {
                    *kept = text.len();
                }
                if let MarketEvent::PaymentsSettled {
                    round,
                    consumer_payment,
                    seller_payments,
                } = event
                {
                    self.view.settlements.push(SettlementRow {
                        round,
                        consumer: consumer_payment,
                        sellers: seller_payments,
                    });
                }
            }
        }
        if let Some(e) = bad {
            self.lines += 1;
            return Err((line_no + 1, format!("bad event JSON: {e}")));
        }
        self.fed += bytes.len() as u64;
        Ok(())
    }

    /// Replays one file strictly: the first stop is an error naming
    /// `file` and the line within it.
    pub(crate) fn strict(&mut self, bytes: &[u8], file: &str) -> Result<(), SegmentError> {
        self.feed(bytes)
            .map_err(|(line, why)| SegmentError::Corrupt(format!("{file} line {line}: {why}")))
    }

    /// Ends a strict replay. Every writer leaves a journal on a settlement
    /// boundary, so one that ends mid-round is an error naming `file`.
    pub(crate) fn finish(self, file: &str) -> Result<JournalView, SegmentError> {
        let state = &self.view.state;
        if !state.at_round_boundary() {
            return Err(SegmentError::Corrupt(format!(
                "{file}: journal ends mid-round (round {} in flight after {} settled); \
                 run `cdt journal recover`",
                state.current_round(),
                state.settled_rounds()
            )));
        }
        Ok(self.view)
    }

    /// Replays one source for recovery; its stops carry the name `file`
    /// when there is one. A source that ends mid-round stops replay too:
    /// the `last` one is the journal's torn tail, and any other is a
    /// sealed segment, which every writer ends on a boundary.
    pub(crate) fn recover(&mut self, bytes: &[u8], file: Option<&str>, last: bool) {
        let why = match self.feed(bytes) {
            Err((_, why)) => why,
            Ok(()) if self.in_flight == 0 => return,
            Ok(()) => format!(
                "{} ends mid-round ({} in-flight event{} discarded)",
                if last { "journal" } else { "sealed segment" },
                self.in_flight,
                if self.in_flight == 1 { "" } else { "s" }
            ),
        };
        self.halt(file, why);
    }

    /// Stops recovery: rolls back to the last settlement boundary and
    /// records why, at the last line read.
    pub(crate) fn halt(&mut self, file: Option<&str>, why: String) {
        self.view.state.abandon_round();
        if let Some((text, kept)) = &mut self.text {
            text.truncate(*kept);
        }
        self.stop = Some(RecoveryStop {
            line: self.lines,
            reason: match file {
                Some(file) => format!("{file}: {why}"),
                None => why,
            },
        });
    }

    /// The recovered history and what recovery saw on the way.
    pub(crate) fn into_recovery(self) -> JournalRecovery {
        JournalRecovery {
            events_replayed: self.view.events - self.view.compacted_events + self.in_flight,
            lines_read: self.lines,
            kept_text: self.text.map(|(text, _)| text).unwrap_or_default(),
            source_bytes: self.covered,
            stop: self.stop,
            view: self.view,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::EventLog;
    use cdt_types::check::check_all;
    use cdt_types::{JobSpec, Round, SellerId};

    /// Recovery of one file's text, as `recover_journal` runs it on a
    /// single-file journal, keeping the text. Recovery that does not keep
    /// it must agree on everything else.
    fn recover(text: &str) -> JournalRecovery {
        let [kept, bare] = [true, false].map(|keep_text| {
            let mut replay = Replay::recovering(JournalView::default(), keep_text);
            replay.recover(text.as_bytes(), None, true);
            replay.into_recovery()
        });
        assert!(bare.kept_text.is_empty());
        assert_eq!(
            (&bare.view, bare.lines_read, bare.events_replayed),
            (&kept.view, kept.lines_read, kept.events_replayed)
        );
        assert_eq!(
            (bare.source_bytes, &bare.stop),
            (kept.source_bytes, &kept.stop)
        );
        kept
    }

    /// Cleanly replayed events that were discarded because their round
    /// never settled.
    fn dropped(rec: &JournalRecovery) -> u64 {
        rec.events_replayed - rec.events_kept()
    }

    /// The first `n` lines of `text`, newline-terminated.
    fn take_lines(text: &str, n: usize) -> String {
        let mut out = String::new();
        for line in text.lines().take(n) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    fn journal_lines(rounds: usize, completed: bool) -> String {
        let mut log = EventLog::new();
        log.append(MarketEvent::JobPublished {
            job: JobSpec::new(4, 2, 10.0).unwrap(),
        })
        .unwrap();
        for t in 0..rounds {
            log.append(MarketEvent::SellersSelected {
                round: Round(t),
                sellers: vec![SellerId(0), SellerId(1)],
            })
            .unwrap();
            log.append(MarketEvent::StrategyDetermined {
                round: Round(t),
                service_price: 4.0,
                collection_price: 1.5,
                sensing_times: vec![2.0, 3.0],
            })
            .unwrap();
            log.append(MarketEvent::DataCollected {
                round: Round(t),
                observed_revenue: 5.5,
            })
            .unwrap();
            log.append(MarketEvent::StatisticsDelivered { round: Round(t) })
                .unwrap();
            log.append(MarketEvent::PaymentsSettled {
                round: Round(t),
                consumer_payment: 20.0,
                seller_payments: vec![3.0, 4.5],
            })
            .unwrap();
        }
        if completed {
            log.append(MarketEvent::JobCompleted { rounds }).unwrap();
        }
        log.to_json_lines()
    }

    #[test]
    fn complete_journal_recovers_fully() {
        let text = journal_lines(3, true);
        let rec = recover(&text);
        assert!(rec.view.completed());
        assert_eq!(rec.view.settled_rounds(), 3);
        assert_eq!(dropped(&rec), 0);
        assert!(rec.stop.is_none());
        assert_eq!(rec.kept_text, text);
        assert_eq!(rec.source_bytes, text.len() as u64);
    }

    #[test]
    fn mid_round_truncation_keeps_settled_prefix() {
        let text = journal_lines(3, false);
        // Cut into round 2: keep publish + 2 full rounds + 3 events of the
        // third round.
        let cut = take_lines(&text, 1 + 2 * 5 + 3);
        let rec = recover(&cut);
        assert_eq!(rec.view.settled_rounds(), 2);
        assert_eq!(rec.events_kept(), 11);
        assert_eq!(dropped(&rec), 3);
        assert_eq!(rec.kept_text, take_lines(&text, 11));
        let stop = rec.stop.unwrap();
        assert_eq!(stop.line, 14);
        assert_eq!(
            stop.reason,
            "journal ends mid-round (3 in-flight events discarded)"
        );
    }

    #[test]
    fn garbage_line_stops_replay_at_last_boundary() {
        let mut text = journal_lines(2, false);
        text.push_str("{\"not\": \"an event\"}\n");
        let rec = recover(&text);
        assert_eq!(rec.view.settled_rounds(), 2);
        let stop = rec.stop.unwrap();
        assert_eq!(stop.line, 12);
        assert!(stop.reason.starts_with("bad event JSON"), "{}", stop.reason);
    }

    #[test]
    fn violation_stops_replay_with_reason() {
        let mut text = journal_lines(1, false);
        // Round 5 cannot follow round 0: a protocol violation, not JSON rot.
        text.push_str(&cdt_types::json::to_string(&MarketEvent::SellersSelected {
            round: Round(5),
            sellers: vec![SellerId(0)],
        }));
        text.push('\n');
        let rec = recover(&text);
        assert_eq!(rec.view.settled_rounds(), 1);
        let stop = rec.stop.unwrap();
        assert!(
            stop.reason.starts_with("protocol violation: "),
            "{}",
            stop.reason
        );
    }

    #[test]
    fn empty_input_recovers_empty_log() {
        let rec = recover("");
        assert_eq!(rec.view.settled_rounds(), 0);
        assert_eq!(rec.view.events, 0);
        assert!(rec.kept_text.is_empty());
        assert!(rec.stop.is_none());
        assert!(!rec.view.completed());
    }

    #[test]
    fn bytewise_truncation_mid_line_recovers_prefix() {
        let text = journal_lines(2, true);
        // Chop the last line in half: the torn JSON stops replay, the
        // settled prefix survives.
        let cut = &text[..text.len() - 8];
        let rec = recover(cut);
        assert_eq!(rec.view.settled_rounds(), 2);
        assert!(!rec.view.completed());
        assert!(rec.stop.unwrap().reason.contains("bad event JSON"));
        // Nor is a line that is not UTF-8 an event.
        let mut bytes = journal_lines(1, false).into_bytes();
        bytes.extend_from_slice(b"{\"JobCompleted\":\xff}\n");
        let mut replay = Replay::recovering(JournalView::default(), true);
        replay.recover(&bytes, None, true);
        let rec = replay.into_recovery();
        assert_eq!(rec.view.settled_rounds(), 1);
        let stop = rec.stop.unwrap();
        assert_eq!(stop.line, 7);
        assert!(stop.reason.contains("invalid utf-8"), "{}", stop.reason);
    }

    /// Truncating at ANY settlement boundary recovers exactly that
    /// prefix: all settled rounds kept, nothing dropped, no stop
    /// report mistaking a clean prefix for corruption.
    #[test]
    fn boundary_truncation_recovers_exact_prefix() {
        let cuts = (1usize..8).flat_map(|rounds| (0usize..8).map(move |keep| (rounds, keep)));
        check_all(cuts, |&(rounds, keep)| {
            let keep = keep.min(rounds);
            let text = journal_lines(rounds, false);
            let cut = take_lines(&text, 1 + keep * 5);
            let rec = recover(&cut);
            assert_eq!(rec.view.settled_rounds(), keep);
            assert_eq!(rec.events_kept(), 1 + keep as u64 * 5);
            assert_eq!(dropped(&rec), 0);
            assert!(rec.stop.is_none());
            assert_eq!(rec.kept_text, cut);
        });
    }

    /// Truncating anywhere *inside* a round recovers the settled
    /// prefix and reports the mid-round stop.
    #[test]
    fn mid_round_truncation_always_reports_stop() {
        let cuts = (1usize..6).flat_map(|rounds| {
            (0usize..6).flat_map(move |keep| (1usize..5).map(move |offset| (rounds, keep, offset)))
        });
        check_all(cuts, |&(rounds, keep, offset)| {
            let keep = keep.min(rounds - 1);
            let text = journal_lines(rounds, false);
            let cut = take_lines(&text, 1 + keep * 5 + offset);
            let rec = recover(&cut);
            assert_eq!(rec.view.settled_rounds(), keep);
            assert_eq!(dropped(&rec), offset as u64);
            assert!(rec.view.state.at_round_boundary());
            assert_eq!(rec.kept_text, take_lines(&text, 1 + keep * 5));
            assert!(rec.stop.is_some());
        });
    }
}
