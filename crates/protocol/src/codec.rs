//! The journal's layouts on the workspace codec ([`cdt_types::json`]):
//! one fixed layout for each type the journal's files hold.
//!
//! - **Event lines** (segments and single-file journals): [`MarketEvent`],
//!   with its [`JobSpec`](cdt_types::JobSpec).
//! - **Index lines** (`P.idx`): the header, the [`CheckpointRef`] and each
//!   [`SegmentEntry`], which carries a [`ProtocolState`].
//! - **Checkpoints** (`P.ckpt-GGGG`): [`Checkpoint`] with its
//!   [`SettlementRow`]s.
//!
//! The declarations below are the format: compact JSON with the fields in
//! the order declared, enums externally tagged (`{"Variant":{...}}`),
//! `None` as `null`, rounds and seller ids as their index, and floats in
//! shortest round-trip form. These are the bytes the journal has always
//! written. Segment digests cover the event bytes and a checkpoint's
//! digest covers the text of its state, so the layouts are a file format:
//! changing one breaks every existing journal.
//!
//! Reading follows the codec's rules (any field order, unknown keys
//! skipped, missing and repeated keys rejected), except that an absent
//! optional field reads as `None` and an absent `segments_folded` as 0.
//! [`ProtocolState`] and [`Phase`] are written by hand: the state writes
//! its `strategy` and `taus` fields as one `[p^J, p, [τ…]]` member, and
//! its decoder refuses a phase whose round data is missing.

use crate::diff::SettlementRow;
use crate::event::MarketEvent;
use crate::segment::{Checkpoint, CheckpointRef, IndexLine, SegmentEntry};
use crate::state::{Phase, ProtocolState};
use cdt_types::json::{from_str, push_f64, push_str, record, tagged, Codec, DecodeError, Reader};

/// Decodes one journal event line. The error reads `bad event JSON: …`,
/// or `invalid job: …` for a published job that [`JobSpec::new`] rejects.
///
/// [`JobSpec::new`]: cdt_types::JobSpec::new
pub(crate) fn event_from_line(line: &str) -> Result<MarketEvent, String> {
    from_str(line).map_err(|e| match e {
        DecodeError::InvalidJob(e) => format!("invalid job: {e}"),
        DecodeError::Json(e) => format!("bad event JSON: {e}"),
    })
}

tagged! {
    MarketEvent {
        JobPublished { job },
        SellersSelected { round, sellers },
        StrategyDetermined { round, service_price, collection_price, sensing_times },
        DataCollected { round, observed_revenue },
        StatisticsDelivered { round },
        PaymentsSettled { round, consumer_payment, seller_payments },
        JobCompleted { rounds },
    }
}

record! {
    SettlementRow { round, consumer, sellers }
}

record! {
    SegmentEntry { seq, file, first_round, rounds, events, digest, state_after }
}

record! {
    CheckpointRef { generation, file, rounds, events, digest, segments_folded = 0 }
}

record! {
    Checkpoint {
        format, generation, segments_folded, events, rounds, completed,
        consumer_total, seller_total, bytes_digest, state, settlements, digest,
    }
}

tagged! {
    IndexLine {
        Header as "header" { journal, version },
        Checkpoint(CheckpointRef) as "checkpoint",
        Segment(Box<SegmentEntry>) as "segment",
    }
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::AwaitSelection => "AwaitSelection",
            Phase::AwaitStrategy => "AwaitStrategy",
            Phase::AwaitData => "AwaitData",
            Phase::AwaitStatistics => "AwaitStatistics",
            Phase::AwaitSettlement => "AwaitSettlement",
        }
    }
}

impl Codec for Phase {
    fn encode(&self, out: &mut Vec<u8>) {
        push_str(out, self.name());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let name = r.string()?;
        [
            Phase::AwaitSelection,
            Phase::AwaitStrategy,
            Phase::AwaitData,
            Phase::AwaitStatistics,
            Phase::AwaitSettlement,
        ]
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| r.unknown_variant(&name, "Phase"))
    }
}

impl Codec for ProtocolState {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"published\":");
        self.published.encode(out);
        out.extend_from_slice(b",\"completed\":");
        self.completed.encode(out);
        out.extend_from_slice(b",\"current_round\":");
        self.current_round.encode(out);
        out.extend_from_slice(b",\"phase\":");
        self.phase.encode(out);
        out.extend_from_slice(b",\"selection_len\":");
        self.selection_len.encode(out);
        out.extend_from_slice(b",\"strategy\":");
        match self.strategy {
            Some((service_price, collection_price)) => {
                out.push(b'[');
                push_f64(out, service_price);
                out.push(b',');
                push_f64(out, collection_price);
                out.push(b',');
                self.taus.encode(out);
                out.push(b']');
            }
            None => out.extend_from_slice(b"null"),
        }
        out.extend_from_slice(b",\"settled_rounds\":");
        self.settled_rounds.encode(out);
        out.push(b'}');
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (mut published, mut completed, mut current_round, mut phase) = (None, None, None, None);
        let (mut selection_len, mut strategy, mut settled_rounds) = (None, None, None);
        r.object(&mut |r, key| match key {
            "published" => r.field(&mut published, key, Codec::decode),
            "completed" => r.field(&mut completed, key, Codec::decode),
            "current_round" => r.field(&mut current_round, key, Codec::decode),
            "phase" => r.field(&mut phase, key, Phase::decode),
            "selection_len" => r.field(&mut selection_len, key, Codec::decode),
            "strategy" => r.field(&mut strategy, key, |r| r.nullable(read_strategy)),
            "settled_rounds" => r.field(&mut settled_rounds, key, Codec::decode),
            _ => r.skip(),
        })?;
        let phase = r.required(phase, "phase")?;
        let selection_len: Option<usize> = r.required(selection_len, "selection_len")?;
        let (strategy, taus) = match strategy.flatten() {
            Some((service_price, collection_price, taus)) => {
                (Some((service_price, collection_price)), taus)
            }
            None => (None, Vec::new()),
        };
        // The state machine relies on these: a round past selection has a
        // selection, and a round past the strategy has a strategy.
        let needs_selection = phase != Phase::AwaitSelection;
        let needs_strategy = needs_selection && phase != Phase::AwaitStrategy;
        if (needs_selection && selection_len.is_none()) || (needs_strategy && strategy.is_none()) {
            return Err(r.error(format_args!(
                "protocol state in phase {} lacks its selection or strategy",
                phase.name()
            )));
        }
        Ok(ProtocolState {
            published: r.required(published, "published")?,
            completed: r.required(completed, "completed")?,
            current_round: r.required(current_round, "current_round")?,
            phase,
            selection_len,
            strategy,
            taus,
            settled_rounds: r.required(settled_rounds, "settled_rounds")?,
        })
    }
}

/// Reads a state's `[p^J, p, [τ…]]` strategy tuple.
fn read_strategy(r: &mut Reader<'_>) -> Result<(f64, f64, Vec<f64>), DecodeError> {
    let mut items = (None, None, None);
    let mut len = 0;
    r.array(&mut |r| {
        len += 1;
        match len {
            1 => items.0 = Some(r.f64()?),
            2 => items.1 = Some(r.f64()?),
            3 => items.2 = Some(Codec::decode(r)?),
            _ => return Err(r.error("invalid length, expected a tuple of size 3")),
        }
        Ok(())
    })?;
    match items {
        (Some(service_price), Some(collection_price), Some(taus)) => {
            Ok((service_price, collection_price, taus))
        }
        _ => Err(r.error(format_args!(
            "invalid length {len}, expected a tuple of size 3"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalSink, RotationConfig};
    use crate::segment::{checkpoint_path, compact_journal, index_path, segment_path};
    use cdt_obs::Session;
    use cdt_types::check::{check, check_all};
    use cdt_types::json::{self, to_string};
    use cdt_types::{JobSpec, Round, SellerId, SimRng};
    use std::fmt;

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

    fn job(rng: &mut SimRng) -> JobSpec {
        let duration = loop {
            let v = finite(rng).abs();
            if v > 0.0 {
                break v;
            }
        };
        JobSpec::new(
            1 + rng.below(1 << 20) as usize,
            1 + any_usize(rng) / 2,
            duration,
        )
        .unwrap()
        .with_description(text(rng))
    }

    /// A seeded event of kind `kind % 7`, with K from 0 to 64.
    fn event(rng: &mut SimRng, kind: u64) -> MarketEvent {
        let round = Round(any_usize(rng));
        let k = rng.below(65) as usize;
        match kind % 7 {
            0 => MarketEvent::JobPublished { job: job(rng) },
            1 => MarketEvent::SellersSelected {
                round,
                sellers: (0..k).map(|_| SellerId(any_usize(rng))).collect(),
            },
            2 => MarketEvent::StrategyDetermined {
                round,
                service_price: finite(rng),
                collection_price: finite(rng),
                sensing_times: finites(rng, k),
            },
            3 => MarketEvent::DataCollected {
                round,
                observed_revenue: finite(rng),
            },
            4 => MarketEvent::StatisticsDelivered { round },
            5 => MarketEvent::PaymentsSettled {
                round,
                consumer_payment: finite(rng),
                seller_payments: finites(rng, k),
            },
            _ => MarketEvent::JobCompleted {
                rounds: any_usize(rng),
            },
        }
    }

    /// A seeded state that satisfies the decoder's phase rules.
    fn state(rng: &mut SimRng) -> ProtocolState {
        let phase = [
            Phase::AwaitSelection,
            Phase::AwaitStrategy,
            Phase::AwaitData,
            Phase::AwaitStatistics,
            Phase::AwaitSettlement,
        ][rng.below(5) as usize];
        let mid_round = phase != Phase::AwaitSelection;
        let has_strategy = mid_round && phase != Phase::AwaitStrategy;
        let k = rng.below(65) as usize;
        ProtocolState {
            published: rng.bernoulli(0.5),
            completed: rng.bernoulli(0.5),
            current_round: Round(any_usize(rng)),
            phase,
            selection_len: (mid_round || rng.bernoulli(0.5)).then(|| any_usize(rng)),
            strategy: has_strategy.then(|| (finite(rng), finite(rng))),
            taus: if has_strategy {
                finites(rng, k)
            } else {
                Vec::new()
            },
            settled_rounds: any_usize(rng),
        }
    }

    fn segment_entry(rng: &mut SimRng) -> SegmentEntry {
        SegmentEntry {
            seq: rng.next_u64(),
            file: text(rng),
            first_round: rng.bernoulli(0.5).then(|| any_usize(rng)),
            rounds: any_usize(rng),
            events: rng.next_u64(),
            digest: rng.next_u64(),
            state_after: state(rng),
        }
    }

    fn checkpoint_ref(rng: &mut SimRng) -> CheckpointRef {
        CheckpointRef {
            generation: rng.next_u64(),
            file: text(rng),
            rounds: any_usize(rng),
            events: rng.next_u64(),
            digest: rng.next_u64(),
            segments_folded: rng.next_u64(),
        }
    }

    fn index_line(rng: &mut SimRng) -> IndexLine {
        match rng.below(3) {
            0 => IndexLine::Header {
                journal: text(rng),
                version: rng.next_u64() as u32,
            },
            1 => IndexLine::Checkpoint(checkpoint_ref(rng)),
            _ => IndexLine::Segment(Box::new(segment_entry(rng))),
        }
    }

    fn checkpoint(rng: &mut SimRng) -> Checkpoint {
        Checkpoint {
            format: rng.next_u64() as u32,
            generation: rng.next_u64(),
            segments_folded: rng.next_u64(),
            events: rng.next_u64(),
            rounds: any_usize(rng),
            completed: rng.bernoulli(0.5),
            consumer_total: finite(rng),
            seller_total: finite(rng),
            bytes_digest: rng.next_u64(),
            state: state(rng),
            settlements: (0..rng.below(6))
                .map(|_| {
                    let k = rng.below(65) as usize;
                    SettlementRow {
                        round: Round(any_usize(rng)),
                        consumer: finite(rng),
                        sellers: finites(rng, k),
                    }
                })
                .collect(),
            digest: rng.next_u64(),
        }
    }

    fn round_trips<T: Codec + PartialEq + fmt::Debug>(value: &T) {
        let text = to_string(value);
        let back: T = from_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, value, "{text}");
        assert_eq!(to_string(&back), text);
    }

    #[test]
    fn events_of_every_kind_round_trip() {
        check(
            7 * 200,
            |rng| {
                let kind = rng.below(7);
                event(rng, kind)
            },
            round_trips,
        );
    }

    #[test]
    fn index_lines_and_checkpoints_round_trip() {
        check(600, index_line, round_trips);
        check(300, checkpoint, round_trips);
    }

    /// A rotated, compacted journal of seeded valid rounds.
    fn write_seeded_journal(base: &std::path::Path, seed: u64, rounds: usize) {
        let mut rng = SimRng::new(seed);
        let rotation = Some(RotationConfig { segment_rounds: 3 });
        let mut sink = JournalSink::create_with(base, rotation, &Session::disabled()).unwrap();
        let job = JobSpec::new(3, rounds, 10.0)
            .unwrap()
            .with_description(text(&mut rng));
        sink.append(&MarketEvent::JobPublished { job }).unwrap();
        for t in 0..rounds {
            let round = Round(t);
            let k = 1 + rng.below(8) as usize;
            let taus: Vec<f64> = (0..k).map(|_| rng.uniform(0.0..10.0)).collect();
            let (service_price, collection_price) = (rng.uniform(1.0..30.0), rng.uniform(0.5..5.0));
            for e in [
                MarketEvent::SellersSelected {
                    round,
                    sellers: (0..k).map(SellerId).collect(),
                },
                MarketEvent::StrategyDetermined {
                    round,
                    service_price,
                    collection_price,
                    sensing_times: taus.clone(),
                },
                MarketEvent::DataCollected {
                    round,
                    observed_revenue: rng.uniform(0.0..100.0),
                },
                MarketEvent::StatisticsDelivered { round },
                MarketEvent::PaymentsSettled {
                    round,
                    consumer_payment: service_price * taus.iter().sum::<f64>(),
                    seller_payments: taus.iter().map(|&tau| collection_price * tau).collect(),
                },
            ] {
                sink.append(&e).unwrap();
            }
        }
        sink.append(&MarketEvent::JobCompleted { rounds }).unwrap();
        sink.finish().unwrap();
        compact_journal(base, 2, &Session::disabled()).unwrap();
    }

    /// Every line of `text` re-encodes to itself through `T`.
    fn lines_reencode<T: Codec>(text: &str) -> usize {
        let mut lines = 0;
        for line in text.lines() {
            let value: T = from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(to_string(&value), line);
            lines += 1;
        }
        lines
    }

    #[test]
    fn every_line_of_a_generated_journal_reencodes_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("cdt-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("j.jsonl");
        write_seeded_journal(&base, 11, 20);
        // 20 rounds at 3 per segment: 7 segments, the first 5 folded.
        let read = |path: std::path::PathBuf| std::fs::read_to_string(path).unwrap();
        assert_eq!(lines_reencode::<IndexLine>(&read(index_path(&base))), 4);
        assert_eq!(
            lines_reencode::<Checkpoint>(&read(checkpoint_path(&base, 1))),
            1
        );
        let events: usize = (5..7)
            .map(|seq| lines_reencode::<MarketEvent>(&read(segment_path(&base, seq))))
            .sum();
        assert_eq!(events, 5 * 5 + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every prefix and 1 000 seeded one-byte mutations of `line` decode to
    /// an error or a value, never a panic.
    fn never_panics<T: Codec>(line: &str) {
        check_all(0..=line.len(), |&end| {
            if let Some(prefix) = line.get(..end) {
                let _ = from_str::<T>(prefix);
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
                    let _ = from_str::<T>(text);
                }
            },
        );
    }

    #[test]
    fn mutated_and_truncated_lines_never_panic() {
        let mut rng = SimRng::new(3);
        for kind in 0..7 {
            let mut e = event(&mut rng, kind);
            if let MarketEvent::JobPublished { job } = &mut e {
                job.description = "q\"b\\c\n\u{1}é😀".to_owned();
            }
            never_panics::<MarketEvent>(&to_string(&e));
        }
        let mut entry = segment_entry(&mut rng);
        entry.state_after.phase = Phase::AwaitSettlement;
        entry.state_after.selection_len = Some(2);
        entry.state_after.strategy = Some((1.5, 2.5));
        entry.state_after.taus = vec![0.25, 3.0];
        never_panics::<IndexLine>(&to_string(&IndexLine::Segment(Box::new(entry))));
        let mut ckpt = checkpoint(&mut rng);
        ckpt.settlements.truncate(2);
        never_panics::<Checkpoint>(&to_string(&ckpt));
    }

    #[test]
    fn deeply_nested_unknown_fields_are_refused_not_overflowed() {
        let deep = |n: usize| {
            format!(
                "{{\"JobCompleted\":{{\"rounds\":1,\"x\":{}{}}}}}",
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        let err = from_str::<MarketEvent>(&deep(10_000)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // 125 levels of skipped value fit under the limit of 128.
        assert_eq!(
            from_str::<MarketEvent>(&deep(125)).unwrap(),
            MarketEvent::JobCompleted { rounds: 1 }
        );
    }

    #[test]
    fn reading_accepts_whitespace_any_order_and_unknown_keys() {
        let text = " { \"PaymentsSettled\" : {\n\t\"seller_payments\" : [ 1 , -0 , 2.5e-1 ] ,\
                    \"extra\" : {\"a\": [true, null, \"s\\\"\", {\"b\": -1e3}]},\r\
                    \"consumer_payment\" : 4 , \"round\" : 18446744073709551615 } } \n";
        assert_eq!(
            from_str::<MarketEvent>(text).unwrap(),
            MarketEvent::PaymentsSettled {
                round: Round(usize::MAX),
                consumer_payment: 4.0,
                seller_payments: vec![1.0, -0.0, 0.25],
            }
        );
    }

    #[test]
    fn reading_rejects_missing_duplicate_and_malformed_fields() {
        let err = |text: &str| from_str::<MarketEvent>(text).unwrap_err().to_string();
        assert!(
            err(r#"{"DataCollected":{"round":1}}"#).contains("missing field `observed_revenue`")
        );
        assert!(
            err(r#"{"JobCompleted":{"rounds":1,"rounds":2}}"#).contains("duplicate field `rounds`")
        );
        assert!(
            err(r#"{"DataCollected":{"round":1,"observed_revenue":1e400}}"#)
                .contains("out of range")
        );
        assert!(err(r#"{"DataCollected":{"round":1,"observed_revenue":null}}"#).contains("number"));
        assert!(err(r#"{"JobCompleted":{"rounds":18446744073709551616}}"#).contains("out of range"));
        assert!(err(r#"{"JobCompleted":{"rounds":1.0}}"#).contains("unsigned integer"));
        assert!(err(r#"{"JobCompleted":{"rounds":-1}}"#).contains("unsigned integer"));
        assert!(err(r#"{"JobCompleted":{"rounds":01}}"#).contains("expected"));
        assert!(err(r#"{"JobCompleted":{"rounds":1}} x"#).contains("trailing characters"));
        assert!(err(r#"{"JobStarted":{"rounds":1}}"#).contains("unknown variant `JobStarted`"));
        assert!(err(r#""JobCompleted""#).contains("externally tagged"));
        let err =
            from_str::<IndexLine>(r#"{"header":{"journal":"segmented","version":4294967296}}"#)
                .unwrap_err();
        assert!(err.to_string().contains("out of range for u32"), "{err}");
    }

    #[test]
    fn strings_decode_every_escape() {
        let job = |description: &str| {
            format!(
                "{{\"JobPublished\":{{\"job\":{{\"num_pois\":1,\"num_rounds\":1,\
                 \"round_duration\":1.0,\"description\":\"{description}\"}}}}}}"
            )
        };
        let decoded = from_str::<MarketEvent>(&job(r#"a\"b\\c\/d\b\f\n\r\t\u0001éΩ😀é"#)).unwrap();
        let MarketEvent::JobPublished { job: spec } = decoded else {
            panic!("not a job");
        };
        assert_eq!(spec.description, "a\"b\\c/d\u{8}\u{c}\n\r\t\u{1}éΩ😀é");
        for bad in [r"\ud83d", r"\ud83dA", r"\udc00", r"\x", r"\u12g4", "\u{1}"] {
            assert!(from_str::<MarketEvent>(&job(bad)).is_err(), "{bad}");
        }
        // The writer's escapes are the short forms plus lowercase `\u00xx`.
        let mut out = Vec::new();
        json::push_str(&mut out, "\"\\/\u{8}\u{c}\n\r\t\u{1}\u{1f}\u{7f}é");
        assert_eq!(
            out,
            b"\"\\\"\\\\/\\b\\f\\n\\r\\t\\u0001\\u001f\x7f\xc3\xa9\""
        );
    }

    #[test]
    fn optional_fields_default_when_absent() {
        let state = r#"{"published":true,"completed":false,"current_round":2,"phase":"AwaitSelection","settled_rounds":2}"#;
        let entry: SegmentEntry = from_str(&format!(
            r#"{{"seq":1,"file":"f","rounds":0,"events":1,"digest":7,"state_after":{state}}}"#
        ))
        .unwrap();
        assert_eq!(entry.first_round, None);
        assert_eq!(entry.state_after.strategy, None);
        assert_eq!(entry.state_after.selection_len, None);
        let ckpt: CheckpointRef =
            from_str(r#"{"generation":1,"file":"f","rounds":4,"events":21,"digest":9}"#).unwrap();
        assert_eq!(ckpt.segments_folded, 0);
    }

    #[test]
    fn states_missing_their_round_data_are_refused() {
        let state = |phase: &str, selection: &str, strategy: &str| {
            format!(
                r#"{{"published":true,"completed":false,"current_round":0,"phase":"{phase}","selection_len":{selection},"strategy":{strategy},"settled_rounds":0}}"#
            )
        };
        assert!(from_str::<ProtocolState>(&state("AwaitStrategy", "null", "null")).is_err());
        assert!(from_str::<ProtocolState>(&state("AwaitData", "2", "null")).is_err());
        assert!(from_str::<ProtocolState>(&state("AwaitData", "2", "[1.0,2.0]")).is_err());
        assert!(from_str::<ProtocolState>(&state("AwaitData", "2", "[1.0,2.0,[],3]")).is_err());
        assert!(from_str::<ProtocolState>(&state("Await", "null", "null")).is_err());
        let ok =
            from_str::<ProtocolState>(&state("AwaitData", "2", "[1.0,2.0,[0.5,1.5]]")).unwrap();
        assert_eq!(ok.taus, vec![0.5, 1.5]);
    }
}
