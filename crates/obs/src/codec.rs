//! The trace-line layouts on the workspace codec ([`cdt_types::json`]):
//! [`EventRecord`], [`SpanRecord`] and [`HealthRecord`] lines, and
//! [`TraceLine`], the one decoder for any line of a `--obs-events` trace.
//!
//! The declarations below are the format. Every line is one compact JSON
//! object: the `"event"` tag first (the [`EventRecord`] variant's tag,
//! `"span"` or `"health"`), then the fields in the order declared, with
//! `None` and non-finite floats as `null`.
//!
//! Reading follows the codec's rules: any field order (the tag's too),
//! unknown keys skipped, missing and repeated keys rejected. So older
//! traces stay readable: an absent `Option` field reads as `None`, and the
//! `cached` and `chunk` members that older lines carry are skipped. A
//! `null` selection score reads as `+∞`, the UCB index of a never-sampled
//! seller and the only non-finite score a policy emits; every other float
//! field rejects `null`. A protocol journal line
//! (`{"PaymentsSettled":{…}}`: one key, a `MarketEvent` kind) is
//! recognised by its shape alone. [`HealthKind`]'s name table is written
//! by hand.

use crate::health::{HealthKind, HealthRecord};
use crate::record::EventRecord;
use crate::span::SpanRecord;
use cdt_types::json::{push_str, tag_first, Codec, DecodeError, Reader};
use std::borrow::Cow;

/// The `MarketEvent` kinds of the cdt-protocol journal.
const JOURNAL_KINDS: [&str; 7] = [
    "JobPublished",
    "SellersSelected",
    "StrategyDetermined",
    "DataCollected",
    "StatisticsDelivered",
    "PaymentsSettled",
    "JobCompleted",
];

tag_first! {
    #[tag = "event"]
    EventRecord {
        RoundStart as "round_start" { run, round },
        Selection as "selection" { run, round, selected, scores with read_scores },
        Equilibrium as "equilibrium" {
            run, round, service_price, collection_price, sensing_times,
            consumer_profit, platform_profit, seller_profit,
        },
        Observation as "observation" { run, round, observed_revenue, samples },
        RoundEnd as "round_end" {
            run, round, observed_revenue, consumer_profit, platform_profit, seller_profit,
            selection_ns, solve_ns, observe_ns,
        },
        Regret as "regret" { run, round, cumulative_regret, account_ns },
    }
}

tag_first! {
    #[tag = "event"]
    SpanRecord as "span" { trace, span, parent, name, run, round, start_ns, dur_ns, worker }
}

tag_first! {
    #[tag = "event"]
    HealthRecord as "health" { kind, t_ns, worker, observed_ns, threshold_ns }
}

/// Selection scores: numbers, and `null` for `+∞`.
fn read_scores(r: &mut Reader<'_>) -> Result<Vec<f64>, DecodeError> {
    r.vec(|r| r.nullable(Reader::f64).map(|v| v.unwrap_or(f64::INFINITY)))
}

impl Codec for HealthKind {
    fn encode(&self, out: &mut Vec<u8>) {
        push_str(out, self.as_str());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let name = r.string()?;
        HealthKind::ALL
            .into_iter()
            .find(|k| k.as_str() == name)
            .ok_or_else(|| r.unknown_variant(&name, "HealthKind"))
    }
}

/// The kind of a protocol journal line: an object whose one key is a
/// `MarketEvent` kind (its value is not read).
fn journal_kind(r: &mut Reader<'_>) -> Result<&'static str, DecodeError> {
    let (mut keys, mut kind) = (0, None);
    r.object(&mut |r, key| {
        keys += 1;
        kind = JOURNAL_KINDS.into_iter().find(|&k| k == key);
        r.skip()
    })?;
    match kind {
        Some(kind) if keys == 1 => Ok(kind),
        _ => Err(r.error("neither a tagged trace record nor a journal event")),
    }
}

/// One line of a `--obs-events` trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// A round event.
    Event(EventRecord),
    /// A closed span.
    Span(SpanRecord),
    /// A watchdog observation.
    Health(HealthRecord),
    /// A protocol journal line, by its `MarketEvent` kind.
    Journal(&'static str),
}

/// A trace line that did not decode.
#[derive(Debug, Clone, PartialEq)]
pub struct BadLine {
    /// The line's `event` tag, when the line is an object carrying one.
    pub tag: Option<String>,
    /// The first syntax or layout error.
    pub error: DecodeError,
}

impl TraceLine {
    /// Decodes one trace line by its `event` tag, wherever the tag sits;
    /// an untagged line is a journal line or an error.
    ///
    /// # Errors
    /// Returns the first syntax or layout error, with the tag when the
    /// line has one.
    pub fn decode(line: &str) -> Result<Self, BadLine> {
        let mut r = Reader::new(line);
        let tag = r
            .read_tag("event")
            .map_err(|error| BadLine { tag: None, error })?;
        let decoded = match tag.as_deref() {
            Some(tag @ "span") => SpanRecord::decode_tagged(&mut r, tag).map(TraceLine::Span),
            Some(tag @ "health") => HealthRecord::decode_tagged(&mut r, tag).map(TraceLine::Health),
            Some(tag) => EventRecord::decode_tagged(&mut r, tag).map(TraceLine::Event),
            None => journal_kind(&mut r).map(TraceLine::Journal),
        };
        decoded
            .and_then(|line| r.end().map(|()| line))
            .map_err(|error| BadLine {
                tag: tag.map(Cow::into_owned),
                error,
            })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::span::{SpanId, TraceId};
    use cdt_types::check::{check, check_all};
    use cdt_types::json::{from_str, to_string};
    use cdt_types::SimRng;
    use std::fmt;

    /// The top-level keys of the object `line`, in file order.
    pub(crate) fn keys_of(line: &str) -> Vec<String> {
        let mut keys = Vec::new();
        Reader::new(line)
            .object(&mut |r, key| {
                keys.push(key.to_owned());
                r.skip()
            })
            .unwrap();
        keys
    }

    fn finite(rng: &mut SimRng) -> f64 {
        loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                return v;
            }
        }
    }

    fn finites(rng: &mut SimRng, k: usize) -> Vec<f64> {
        (0..k).map(|_| finite(rng)).collect()
    }

    /// Text with quotes, backslashes, control characters and non-ASCII.
    fn text(rng: &mut SimRng) -> String {
        const PIECES: [&str; 16] = [
            "a", "Z", " ", "\"", "\\", "/", "\n", "\t", "\u{1}", "\u{1f}", "\u{7f}", "é", "Ω",
            "😀", "{", ",",
        ];
        (0..rng.below(16))
            .map(|_| PIECES[rng.below(16) as usize])
            .collect()
    }

    fn any_usize(rng: &mut SimRng) -> usize {
        rng.next_u64() as usize
    }

    /// A seeded record of variant `kind % 6`, with K from 0 to 64 and
    /// `+∞` among the scores.
    fn event(rng: &mut SimRng, kind: u64) -> EventRecord {
        let run = text(rng);
        let round = any_usize(rng);
        let k = rng.below(65) as usize;
        match kind % 6 {
            0 => EventRecord::RoundStart { run, round },
            1 => EventRecord::Selection {
                run,
                round,
                selected: (0..k).map(|_| any_usize(rng)).collect(),
                scores: (0..k)
                    .map(|_| {
                        if rng.bernoulli(0.3) {
                            f64::INFINITY
                        } else {
                            finite(rng)
                        }
                    })
                    .collect(),
            },
            2 => EventRecord::Equilibrium {
                run,
                round,
                service_price: finite(rng),
                collection_price: finite(rng),
                sensing_times: finites(rng, k),
                consumer_profit: finite(rng),
                platform_profit: finite(rng),
                seller_profit: finite(rng),
            },
            3 => EventRecord::Observation {
                run,
                round,
                observed_revenue: finite(rng),
                samples: any_usize(rng),
            },
            4 => EventRecord::RoundEnd {
                run,
                round,
                observed_revenue: finite(rng),
                consumer_profit: finite(rng),
                platform_profit: finite(rng),
                seller_profit: finite(rng),
                selection_ns: rng.next_u64(),
                solve_ns: rng.next_u64(),
                observe_ns: rng.next_u64(),
            },
            _ => EventRecord::Regret {
                run,
                round,
                cumulative_regret: finite(rng),
                account_ns: rng.next_u64(),
            },
        }
    }

    fn maybe(rng: &mut SimRng) -> Option<u64> {
        rng.bernoulli(0.5).then(|| rng.next_u64())
    }

    fn span(rng: &mut SimRng) -> SpanRecord {
        SpanRecord {
            trace: rng.next_u64(),
            span: rng.next_u64(),
            parent: maybe(rng),
            name: text(rng),
            run: rng.bernoulli(0.5).then(|| text(rng)),
            round: maybe(rng),
            start_ns: rng.next_u64(),
            dur_ns: rng.next_u64(),
            worker: maybe(rng),
        }
    }

    fn health(rng: &mut SimRng) -> HealthRecord {
        HealthRecord {
            kind: HealthKind::ALL[rng.below(3) as usize],
            t_ns: rng.next_u64(),
            worker: maybe(rng),
            observed_ns: maybe(rng),
            threshold_ns: maybe(rng),
        }
    }

    /// `value` encodes, decodes back equal, re-encodes to the same text,
    /// and reads back through [`TraceLine::decode`] as `line`.
    fn round_trips<T: Codec + PartialEq + fmt::Debug>(value: &T, line: impl Fn(T) -> TraceLine) {
        let text = to_string(value);
        let back: T = from_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, value, "{text}");
        assert_eq!(to_string(&back), text);
        assert_eq!(TraceLine::decode(&text), Ok(line(back)), "{text}");
    }

    #[test]
    fn records_of_every_kind_round_trip() {
        check(
            6 * 200,
            |rng| {
                let kind = rng.below(6);
                event(rng, kind)
            },
            |e| round_trips(e, TraceLine::Event),
        );
        check(600, span, |s| round_trips(s, TraceLine::Span));
        check(300, health, |h| round_trips(h, TraceLine::Health));
    }

    #[test]
    fn every_option_set_and_unset_round_trips() {
        let bare = SpanRecord::new(TraceId(1), SpanId(2), None, "chunk", 3, 4);
        round_trips(&bare, TraceLine::Span);
        let full = SpanRecord::new(TraceId(1), SpanId(2), Some(SpanId(1)), "chunk", 3, 4)
            .with_run("cmab-hs/seed1")
            .with_round(5)
            .with_worker(6);
        round_trips(&full, TraceLine::Span);
        assert_eq!(
            to_string(&bare),
            r#"{"event":"span","trace":1,"span":2,"parent":null,"name":"chunk","run":null,"round":null,"start_ns":3,"dur_ns":4,"worker":null}"#
        );
        for kind in HealthKind::ALL {
            let mut rec = HealthRecord {
                kind,
                t_ns: 1,
                worker: None,
                observed_ns: None,
                threshold_ns: None,
            };
            round_trips(&rec, TraceLine::Health);
            (rec.worker, rec.observed_ns, rec.threshold_ns) = (Some(2), Some(3), Some(4));
            round_trips(&rec, TraceLine::Health);
        }
    }

    /// Every prefix and 1 000 seeded one-byte mutations of `line` decode to
    /// an error or a value, never a panic.
    fn never_panics(line: &str) {
        let decode_all = |text: &str| {
            let _ = TraceLine::decode(text);
            let _ = from_str::<EventRecord>(text);
            let _ = from_str::<SpanRecord>(text);
            let _ = from_str::<HealthRecord>(text);
        };
        check_all(0..=line.len(), |&end| {
            if let Some(prefix) = line.get(..end) {
                decode_all(prefix);
            }
        });
        const TOKENS: &[u8] = b"{}[]\":,0123456789.eE+-nultrfas \\/";
        check(
            1000,
            |rng| {
                let at = rng.below(line.len() as u64) as usize;
                let byte = if rng.bernoulli(0.5) {
                    TOKENS[rng.below(TOKENS.len() as u64) as usize]
                } else {
                    rng.below(256) as u8
                };
                (at, byte)
            },
            |&(at, byte)| {
                let mut bytes = line.as_bytes().to_vec();
                bytes[at] = byte;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    decode_all(text);
                }
            },
        );
    }

    #[test]
    fn mutated_and_truncated_lines_never_panic() {
        let mut rng = SimRng::new(3);
        for kind in 0..6 {
            let mut e = event(&mut rng, kind);
            if let EventRecord::Selection { scores, .. } = &mut e {
                scores.truncate(3);
                scores.push(f64::INFINITY);
            }
            never_panics(&to_string(&e));
        }
        never_panics(&to_string(&span(&mut rng)));
        never_panics(&to_string(&health(&mut rng)));
        never_panics(r#"{"SellersSelected":{"round":0,"sellers":[0,1]}}"#);
    }

    #[test]
    fn deeply_nested_unknown_fields_are_refused_not_overflowed() {
        let deep = |n: usize| {
            format!(
                "{{\"event\":\"round_start\",\"run\":\"a\",\"round\":1,\"x\":{}{}}}",
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        let err = TraceLine::decode(&deep(10_000)).unwrap_err();
        assert!(err.error.to_string().contains("recursion limit"), "{err:?}");
        assert!(from_str::<EventRecord>(&deep(10_000)).is_err());
        assert_eq!(
            from_str::<EventRecord>(&deep(125)).unwrap(),
            EventRecord::RoundStart {
                run: "a".into(),
                round: 1
            }
        );
    }

    #[test]
    fn the_tag_may_sit_anywhere_and_defaults_apply() {
        // `cached` and `chunk` are members of older lines: skipped.
        let rec = from_str::<EventRecord>(
            r#"{"run":"a","round":2,"service_price":1,"collection_price":0.5,"sensing_times":[],
                "consumer_profit":1,"platform_profit":2,"seller_profit":3,"cached":true,
                "event":"equilibrium"}"#,
        )
        .unwrap();
        assert!(matches!(rec, EventRecord::Equilibrium { round: 2, .. }));
        let span: SpanRecord = from_str(
            r#"{"trace":1,"span":2,"name":"run","start_ns":0,"dur_ns":1,"chunk":3,"event":"span"}"#,
        )
        .unwrap();
        assert_eq!(
            span,
            SpanRecord::new(TraceId(1), SpanId(2), None, "run", 0, 1)
        );
        // A key of another variant is an unknown key here: skipped.
        assert_eq!(
            from_str::<EventRecord>(r#"{"event":"round_start","run":"a","round":0,"samples":"x"}"#)
                .unwrap(),
            EventRecord::RoundStart {
                run: "a".into(),
                round: 0
            }
        );
    }

    #[test]
    fn null_reads_as_infinity_only_in_scores() {
        let line =
            r#"{"event":"selection","run":"r","round":0,"selected":[1,2],"scores":[null,0.5]}"#;
        let Ok(TraceLine::Event(EventRecord::Selection { scores, .. })) = TraceLine::decode(line)
        else {
            panic!("not a selection");
        };
        assert_eq!(scores, [f64::INFINITY, 0.5]);
        for bad in [
            r#"{"event":"observation","run":"r","round":0,"observed_revenue":null,"samples":1}"#,
            r#"{"event":"regret","run":"r","round":0,"cumulative_regret":1,"account_ns":null}"#,
        ] {
            assert!(TraceLine::decode(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reading_rejects_missing_duplicate_and_unknown_tags() {
        let err = |line: &str| TraceLine::decode(line).unwrap_err();
        let missing = err(r#"{"event":"round_start","run":"a"}"#);
        assert_eq!(missing.tag.as_deref(), Some("round_start"));
        assert!(missing.error.to_string().contains("missing field `round`"));
        let duplicate = err(r#"{"event":"round_start","run":"a","round":1,"round":2}"#);
        assert!(duplicate
            .error
            .to_string()
            .contains("duplicate field `round`"));
        assert!(err(r#"{"event":"span","event":"span"}"#)
            .error
            .to_string()
            .contains("duplicate field `event`"));
        let unknown = err(r#"{"event":"round_begin","run":"a","round":1}"#);
        assert!(unknown
            .error
            .to_string()
            .contains("unknown variant `round_begin`"));
        assert_eq!(
            err(r#"{"event":"span","trace":"oops"}"#).tag.as_deref(),
            Some("span")
        );
        assert_eq!(err("not json").tag, None);
        assert!(
            from_str::<SpanRecord>(r#"{"event":"health","kind":"slow_round","t_ns":1}"#).is_err()
        );
        assert!(from_str::<HealthRecord>(r#"{"event":"health","kind":"late","t_ns":1}"#).is_err());
    }

    #[test]
    fn journal_lines_are_recognised_by_shape() {
        assert_eq!(
            TraceLine::decode(r#"{"PaymentsSettled":{"round":0,"consumer_payment":2.0}}"#),
            Ok(TraceLine::Journal("PaymentsSettled"))
        );
        for bad in [
            r#"{"two":"keys","so":"not a MarketEvent"}"#,
            r#"{"JobCompleted":{"rounds":1},"x":1}"#,
            r#"{"settle":{}}"#,
            r#"{"JobCompleted":{"rounds":1}} x"#,
        ] {
            assert!(TraceLine::decode(bad).is_err(), "{bad}");
        }
    }
}
