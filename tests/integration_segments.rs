//! Segment-rotation and compaction crash-matrix tests.
//!
//! The segmented journal's durability contract, pinned end to end:
//!
//! 1. **Byte identity** — the concatenation of a rotated run's sealed
//!    segments is byte-identical to the single-file journal of the same
//!    event stream, and the strict loader sees the same view either way.
//! 2. **Crash matrix** — a kill at *any* window (mid-segment, mid-line,
//!    torn index, sealed-but-unindexed segment, interrupted compaction)
//!    leaves a journal that `recover_journal` lands on a settlement
//!    boundary, while `load_journal` refuses loudly rather than serving
//!    a silently incomplete history.
//! 3. **Compaction equivalence** — verify / seek / diff answers are
//!    identical before and after folding settled segments into a
//!    checkpoint, across chained generations.
//! 4. **Format stability** — a journal written before the in-tree codec
//!    (`tests/fixtures/golden.jsonl.*`) still verifies, seeks, and
//!    re-encodes byte for byte.

use cdt_obs::Session;
use cdt_protocol::segment::{
    checkpoint_path, index_path, segment_partial_path, segment_path, Checkpoint, JournalIndex,
};
use cdt_protocol::{
    compact_journal, diff_settlement_rows, load_journal, recover_journal, replay_to_round,
    EventLog, JournalReport, JournalSink, MarketEvent, RotationConfig,
};
use cdt_types::json;
use cdt_types::{JobSpec, Round, SellerId};
use std::path::{Path, PathBuf};

/// A fresh scratch directory in the system temp dir, unique per test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdt_segments_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn job_event() -> MarketEvent {
    MarketEvent::JobPublished {
        job: JobSpec::new(4, 2, 10.0).unwrap(),
    }
}

/// The five Fig. 2 events of one settled round, with payments consistent
/// with the strategy (p^J·Στ = 4·5 = 20, p·τ_i = 1.5·{2,3}).
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
            consumer_payment: 20.0,
            seller_payments: vec![3.0, 4.5],
        },
    ]
}

/// Writes a complete journal of `rounds` settled rounds at `path`.
fn write_journal(path: &Path, rounds: usize, rotation: Option<RotationConfig>) -> JournalReport {
    let mut sink = JournalSink::create_with(path, rotation, &Session::disabled()).unwrap();
    sink.append(&job_event()).unwrap();
    for t in 0..rounds {
        for e in round_events(t) {
            sink.append(&e).unwrap();
        }
    }
    sink.append(&MarketEvent::JobCompleted { rounds }).unwrap();
    sink.finish().unwrap()
}

/// Writes a segmented journal that "dies" mid-round: `settled` full
/// rounds, then `extra_events` events of the next round, then drop.
fn write_crashed_journal(path: &Path, settled: usize, extra_events: usize, segment_rounds: usize) {
    let mut sink = JournalSink::create_with(
        path,
        Some(RotationConfig { segment_rounds }),
        &Session::disabled(),
    )
    .unwrap();
    sink.append(&job_event()).unwrap();
    for t in 0..settled {
        for e in round_events(t) {
            sink.append(&e).unwrap();
        }
    }
    for e in round_events(settled).into_iter().take(extra_events) {
        sink.append(&e).unwrap();
    }
    // Dropping without `finish()` is the simulated kill.
}

/// Truncates the file at `path` by `cut` bytes (a torn tail write).
fn truncate_tail(path: &Path, cut: usize) {
    let bytes = std::fs::read(path).unwrap();
    assert!(
        bytes.len() > cut,
        "{} too short to truncate",
        path.display()
    );
    std::fs::write(path, &bytes[..bytes.len() - cut]).unwrap();
}

#[test]
fn single_file_journal_cut_mid_round_fails_strict_load() {
    let dir = scratch_dir("single_mid_round");
    let full = dir.join("full.jsonl");
    write_journal(&full, 6, None);
    let text = std::fs::read_to_string(&full).unwrap();
    let head = |n: usize, name: &str| {
        let path = dir.join(name);
        let lines: Vec<&str> = text.lines().take(n).collect();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    };
    // JobPublished + 4 settled rounds + 2 events of round 4.
    let err = load_journal(&head(23, "torn.jsonl"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("mid-round") && err.contains("t4"), "{err}");
    assert!(err.contains("cdt journal recover"), "{err}");
    // Cut at the settlement boundary: a clean 4-round prefix.
    let view = load_journal(&head(21, "prefix.jsonl")).unwrap();
    assert_eq!(view.settled_rounds(), 4);
    assert!(!view.completed());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotated_segments_match_single_file_and_seek_reports_provenance() {
    let dir = scratch_dir("byte_identity");
    let single = dir.join("single.jsonl");
    let seg = dir.join("seg.jsonl");
    write_journal(&single, 5, None);
    let report = write_journal(&seg, 5, Some(RotationConfig { segment_rounds: 2 }));
    assert_eq!(report.segments, 3, "5 rounds at 2/segment: 0-1, 2-3, 4+end");
    assert!(!seg.exists(), "rotation must not create a base file");

    // cat seg-* == the single-file journal, byte for byte.
    let mut concat = String::new();
    for seq in 0..3 {
        concat.push_str(&std::fs::read_to_string(segment_path(&seg, seq)).unwrap());
    }
    let single_text = std::fs::read_to_string(&single).unwrap();
    assert_eq!(concat, single_text, "segments must concatenate exactly");

    // The strict loader serves the same view from either layout.
    let seg_view = load_journal(&seg).unwrap();
    let single_view = load_journal(&single).unwrap();
    assert!(seg_view.segmented && !single_view.segmented);
    assert_eq!(seg_view.events, single_view.events);
    assert_eq!(seg_view.settlements, single_view.settlements);
    assert_eq!(seg_view.state, single_view.state);
    assert!(diff_settlement_rows(&seg_view.settlements, &single_view.settlements).is_zero());

    // Point lookups: the single file scans everything; the segmented
    // layout replays exactly one indexed segment.
    let flat = replay_to_round(&single, 3).unwrap();
    assert!(!flat.from_checkpoint);
    assert_eq!(flat.segment, None);
    let seek = replay_to_round(&seg, 3).unwrap();
    assert!(!seek.from_checkpoint);
    assert_eq!(seek.segment, Some(1), "round 3 lives in seg-0001");
    assert_eq!(seek.row, flat.row);
    assert!(seek.events_scanned < flat.events_scanned);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_segment_recovers_to_settlement_boundary() {
    let dir = scratch_dir("kill_mid_segment");
    let base = dir.join("j.jsonl");
    // seg-0000 sealed (rounds 0-1); partial seg-0001 holds round 2 plus
    // two events of the never-settled round 3.
    write_crashed_journal(&base, 3, 2, 2);
    assert!(segment_path(&base, 0).exists());
    assert!(segment_partial_path(&base, 1).exists());

    // Strict loads must refuse the unfinished journal…
    let err = load_journal(&base).unwrap_err().to_string();
    assert!(err.contains("active segment"), "{err}");
    assert!(err.contains("journal recover"), "{err}");

    // …and recovery lands exactly on the round-2 settlement boundary.
    let rec = recover_journal(&base).unwrap();
    assert!(rec.segmented);
    assert_eq!(rec.settled_rounds(), 3);
    assert!(rec.state.at_round_boundary());
    assert!(!rec.completed());
    let stop = rec.stop.expect("the in-flight round must be reported");
    assert!(stop.reason.contains("mid-round"), "{}", stop.reason);
    // The kept prefix is itself a valid journal ending at the boundary.
    let log = EventLog::from_json_lines(&rec.kept_text).unwrap();
    assert_eq!(log.state().settled_rounds(), 3);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_partial_write_recovers_to_settlement_boundary() {
    let dir = scratch_dir("torn_partial");
    let base = dir.join("j.jsonl");
    write_crashed_journal(&base, 3, 2, 2);
    // The crash also tore the last buffered line in half.
    truncate_tail(&segment_partial_path(&base, 1), 7);

    let rec = recover_journal(&base).unwrap();
    assert_eq!(rec.settled_rounds(), 3);
    assert!(rec.state.at_round_boundary());
    assert!(rec.stop.is_some(), "the torn tail must be reported");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_sealed_segment_fails_strict_load_but_recovers_prefix() {
    let dir = scratch_dir("torn_segment");
    let base = dir.join("j.jsonl");
    write_journal(&base, 5, Some(RotationConfig { segment_rounds: 2 }));
    // Tear the middle segment (rounds 2-3): its digest no longer matches.
    truncate_tail(&segment_path(&base, 1), 10);

    let err = load_journal(&base).unwrap_err().to_string();
    assert!(err.contains("digest mismatch"), "{err}");

    // Recovery keeps rounds 0-2 (round 3's settlement was torn off) and
    // refuses to leap the hole to the still-valid seg-0002.
    let rec = recover_journal(&base).unwrap();
    assert_eq!(rec.settled_rounds(), 3);
    assert!(rec.state.at_round_boundary());
    assert!(!rec.completed());
    assert!(rec.stop.is_some(), "the torn segment must be reported");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lost_index_is_rebuilt_by_segment_scan() {
    let dir = scratch_dir("lost_index");
    let base = dir.join("j.jsonl");
    write_journal(&base, 5, Some(RotationConfig { segment_rounds: 2 }));
    std::fs::remove_file(index_path(&base)).unwrap();

    let err = load_journal(&base).unwrap_err().to_string();
    assert!(
        err.contains("no journal file or segment index found"),
        "{err}"
    );

    // Phase-2 recovery walks seg-0000, seg-0001, … by sequence number and
    // gets the whole history back without any index at all.
    let rec = recover_journal(&base).unwrap();
    assert_eq!(rec.settled_rounds(), 5);
    assert!(rec.completed());
    assert!(rec.stop.is_none(), "{:?}", rec.stop);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_index_recovers_from_its_valid_prefix_plus_scan() {
    let dir = scratch_dir("torn_index");
    let base = dir.join("j.jsonl");
    write_journal(&base, 5, Some(RotationConfig { segment_rounds: 2 }));
    // Tear the index mid-line: the last segment entry is lost, the rest
    // parse fine.
    truncate_tail(&index_path(&base), 15);

    let rec = recover_journal(&base).unwrap();
    assert_eq!(rec.settled_rounds(), 5);
    assert!(rec.completed());
    assert!(rec.stop.is_none(), "{:?}", rec.stop);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sealed_but_unindexed_segment_is_detected_and_recovered() {
    let dir = scratch_dir("unindexed_segment");
    let base = dir.join("j.jsonl");
    write_journal(&base, 5, Some(RotationConfig { segment_rounds: 2 }));
    // Simulate a crash inside rotation — after the seg-0002 rename, before
    // the index rewrite — by dropping the last entry from the index.
    let idx = index_path(&base);
    let text = std::fs::read_to_string(&idx).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "header + 3 segment entries");
    lines.pop();
    std::fs::write(&idx, format!("{}\n", lines.join("\n"))).unwrap();

    let err = load_journal(&base).unwrap_err().to_string();
    assert!(err.contains("not in the index"), "{err}");
    assert!(err.contains("journal recover"), "{err}");

    let rec = recover_journal(&base).unwrap();
    assert_eq!(rec.settled_rounds(), 5);
    assert!(rec.completed());
    assert!(rec.stop.is_none(), "{:?}", rec.stop);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_preserves_answers_and_survives_its_crash_windows() {
    let dir = scratch_dir("compaction");
    let compacted = dir.join("a.jsonl");
    let pristine = dir.join("b.jsonl");
    write_journal(&compacted, 5, Some(RotationConfig { segment_rounds: 2 }));
    write_journal(&pristine, 5, Some(RotationConfig { segment_rounds: 2 }));
    let before = load_journal(&compacted).unwrap();

    // Keep the bytes of the segments about to fold, to replant later as
    // the "crash before deletion" window.
    let folded_bytes: Vec<Vec<u8>> = (0..2)
        .map(|seq| std::fs::read(segment_path(&compacted, seq)).unwrap())
        .collect();

    let report = compact_journal(&compacted, 1, &Session::disabled()).unwrap();
    assert_eq!(report.folded_segments, 2);
    assert_eq!(report.folded_rounds, 4);
    assert_eq!(report.kept_segments, 1);
    assert_eq!(report.generation, 1);
    assert_eq!(report.checkpoint_rounds, 4);
    assert!(checkpoint_path(&compacted, 1).exists());
    assert!(!segment_path(&compacted, 0).exists(), "folded segments go");

    // Same answers from the checkpointed history as from the full one.
    let after = load_journal(&compacted).unwrap();
    assert_eq!(after.compacted_rounds, 4);
    assert_eq!(after.segments, 1);
    assert_eq!(after.settlements, before.settlements);
    assert_eq!(after.state, before.state);
    assert!(after.completed());
    assert!(diff_settlement_rows(&after.settlements, &before.settlements).is_zero());

    // Seeks: a folded round answers straight from the checkpoint ledger;
    // a kept round still replays its one segment.
    let folded = replay_to_round(&compacted, 1).unwrap();
    assert!(folded.from_checkpoint);
    assert_eq!(folded.events_scanned, 0);
    assert_eq!(folded.row, replay_to_round(&pristine, 1).unwrap().row);
    let kept = replay_to_round(&compacted, 4).unwrap();
    assert!(!kept.from_checkpoint);
    assert_eq!(kept.segment, Some(2));
    assert_eq!(kept.row, replay_to_round(&pristine, 4).unwrap().row);

    // Crash window A: checkpoint written, index never flipped. The orphan
    // checkpoint beside an un-flipped index must change nothing.
    std::fs::copy(
        checkpoint_path(&compacted, 1),
        checkpoint_path(&pristine, 1),
    )
    .unwrap();
    let orphaned = load_journal(&pristine).unwrap();
    assert_eq!(orphaned.compacted_rounds, 0, "orphan checkpoint ignored");
    assert_eq!(orphaned.settlements, before.settlements);
    let rec = recover_journal(&pristine).unwrap();
    assert_eq!(rec.settled_rounds(), 5);
    assert!(rec.stop.is_none(), "{:?}", rec.stop);

    // Crash window B: index flipped, folded segments never deleted. The
    // leftovers sit below the checkpoint and are ignored by both paths.
    for (seq, bytes) in folded_bytes.iter().enumerate() {
        std::fs::write(segment_path(&compacted, seq as u64), bytes).unwrap();
    }
    let leftover = load_journal(&compacted).unwrap();
    assert_eq!(leftover.settlements, before.settlements);
    let rec = recover_journal(&compacted).unwrap();
    assert_eq!(rec.settled_rounds(), 5);
    assert!(rec.completed());
    assert!(rec.stop.is_none(), "{:?}", rec.stop);

    // Generations chain: a second compaction folds the kept segment into
    // a gen-2 checkpoint covering the whole history.
    let report = compact_journal(&compacted, 0, &Session::disabled()).unwrap();
    assert_eq!(report.folded_segments, 1);
    assert_eq!(report.generation, 2);
    assert_eq!(report.checkpoint_rounds, 5);
    assert!(!checkpoint_path(&compacted, 1).exists(), "old gen goes");
    let full = load_journal(&compacted).unwrap();
    assert_eq!(full.segments, 0);
    assert_eq!(full.compacted_rounds, 5);
    assert_eq!(full.settlements, before.settlements);
    assert!(full.completed());
    assert!(replay_to_round(&compacted, 4).unwrap().from_checkpoint);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_checkpoint_is_refused_by_load_and_recover() {
    let dir = scratch_dir("tampered_ckpt");
    let base = dir.join("j.jsonl");
    write_journal(&base, 5, Some(RotationConfig { segment_rounds: 2 }));
    compact_journal(&base, 1, &Session::disabled()).unwrap();

    // Nudge a digit inside the checkpoint: the content digest must catch
    // it, and with the folded events gone nothing can replay past it.
    let ckpt = checkpoint_path(&base, 1);
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let tampered = text.replacen("20.0", "21.0", 1);
    assert_ne!(text, tampered, "fixture must actually change a payment");
    std::fs::write(&ckpt, tampered).unwrap();

    let err = load_journal(&base).unwrap_err().to_string();
    assert!(err.contains("checkpoint"), "{err}");
    assert!(err.contains("digest"), "{err}");
    let err = recover_journal(&base).unwrap_err().to_string();
    assert!(err.contains("checkpoint"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forged_first_round_is_refused_by_verify_and_seek() {
    let dir = scratch_dir("forged_first_round");
    let base = dir.join("j.jsonl");
    write_journal(&base, 5, Some(RotationConfig { segment_rounds: 2 }));
    let idx = index_path(&base);
    let text = std::fs::read_to_string(&idx).unwrap();
    let forge = |value: &str| {
        let forged = text.replacen(
            "\"first_round\":2,",
            &format!("\"first_round\":{value},"),
            1,
        );
        assert_ne!(forged, text, "seg-0001 settles rounds 2-3");
        std::fs::write(&idx, forged).unwrap();
    };

    // Strict verify cross-checks the entry against replay, naming the
    // segment and both values.
    for (value, shown) in [
        ("18446744073709551615", "18446744073709551615"),
        ("3", "3"),
        ("null", "none"),
    ] {
        forge(value);
        let err = load_journal(&base).unwrap_err().to_string();
        assert!(err.contains("j.jsonl.seg-0001"), "{err}");
        assert!(
            err.contains(&format!(
                "index says first round {shown}, replay settled first round 2"
            )),
            "{err}"
        );
    }

    // A seek that reaches the forged range fails instead of wrapping (or
    // panicking on overflow in a debug build); rounds before it resolve.
    forge("18446744073709551615");
    let err = replay_to_round(&base, 3).unwrap_err().to_string();
    assert!(err.contains("overflows"), "{err}");
    assert_eq!(replay_to_round(&base, 1).unwrap().segment, Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

/// The fixture journal, written by the serializer the codec replaced:
/// `cdt run --m 8 --k 2 --l 3 --n 6 --journal golden.jsonl
/// --journal-segment-rounds 2`, then `cdt journal compact golden.jsonl
/// --keep-segments 2`.
fn golden_base() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden.jsonl")
}

#[test]
fn golden_journal_verifies_seeks_and_reencodes_byte_for_byte() {
    let base = golden_base();
    let read = |path: PathBuf| std::fs::read_to_string(path).unwrap();

    // Verify: the checkpoint's digest covers its state's text, so this
    // pins the state layout too.
    let view = load_journal(&base).unwrap();
    assert!(view.segmented && view.completed());
    assert_eq!(view.compacted_rounds, 4);
    assert_eq!(
        (view.segments, view.settled_rounds(), view.events),
        (2, 6, 32)
    );

    // Seek into the checkpoint and into a kept segment.
    let folded = replay_to_round(&base, 1).unwrap();
    assert!(folded.from_checkpoint);
    assert_eq!(folded.row, view.settlements[1]);
    let kept = replay_to_round(&base, 4).unwrap();
    assert_eq!(kept.segment, Some(2));
    assert_eq!(kept.row, view.settlements[4]);

    // Every event line, the checkpoint and the index re-encode exactly.
    for seq in [2, 3] {
        for line in read(segment_path(&base, seq)).lines() {
            let event: MarketEvent = json::from_str(line).unwrap();
            assert_eq!(json::to_string(&event), line);
        }
    }
    let ckpt_text = read(checkpoint_path(&base, 1));
    let ckpt: Checkpoint = json::from_str(&ckpt_text).unwrap();
    ckpt.validate().unwrap();
    assert_eq!(json::to_string(&ckpt), ckpt_text);
    let dir = scratch_dir("golden_index");
    let copy = dir.join("golden.jsonl");
    JournalIndex::read_strict(&base)
        .unwrap()
        .write(&copy)
        .unwrap();
    assert_eq!(read(index_path(&copy)), read(index_path(&base)));
    std::fs::remove_dir_all(&dir).ok();
}
