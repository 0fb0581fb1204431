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
//! 5. **One replay, two layouts** — a crash at every line of a journal
//!    recovers alike from the single file and from the rotated layout.
//! 6. **Readers never panic** — on a damaged store or single file, every
//!    reader refuses or recovers, and recovery lands on a boundary.

use cdt_obs::Session;
use cdt_protocol::segment::{
    checkpoint_path, index_path, segment_partial_path, segment_path, Checkpoint, JournalIndex,
};
use cdt_protocol::{
    compact_journal, diff_settlement_rows, load_journal, load_journal_text, recover_journal,
    replay_to_round, JournalReport, JournalSink, MarketEvent, RotationConfig,
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
    let rec = recover_journal(&base, true).unwrap();
    assert!(rec.view.segmented);
    assert_eq!(rec.view.settled_rounds(), 3);
    assert!(rec.view.state.at_round_boundary());
    assert!(!rec.view.completed());
    let stop = rec.stop.expect("the in-flight round must be reported");
    assert!(stop.reason.contains("mid-round"), "{}", stop.reason);
    // The kept prefix is itself a valid journal ending at the boundary.
    let kept = load_journal_text(&rec.kept_text, "kept.jsonl").unwrap();
    assert_eq!(kept.settled_rounds(), 3);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_partial_write_recovers_to_settlement_boundary() {
    let dir = scratch_dir("torn_partial");
    let base = dir.join("j.jsonl");
    write_crashed_journal(&base, 3, 2, 2);
    // The crash also tore the last buffered line in half.
    truncate_tail(&segment_partial_path(&base, 1), 7);

    let rec = recover_journal(&base, false).unwrap();
    assert_eq!(rec.view.settled_rounds(), 3);
    assert!(rec.view.state.at_round_boundary());
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
    let rec = recover_journal(&base, false).unwrap();
    assert_eq!(rec.view.settled_rounds(), 3);
    assert!(rec.view.state.at_round_boundary());
    assert!(!rec.view.completed());
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
    let rec = recover_journal(&base, false).unwrap();
    assert_eq!(rec.view.settled_rounds(), 5);
    assert!(rec.view.completed());
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

    let rec = recover_journal(&base, false).unwrap();
    assert_eq!(rec.view.settled_rounds(), 5);
    assert!(rec.view.completed());
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

    let rec = recover_journal(&base, false).unwrap();
    assert_eq!(rec.view.settled_rounds(), 5);
    assert!(rec.view.completed());
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
    let rec = recover_journal(&pristine, false).unwrap();
    assert_eq!(rec.view.settled_rounds(), 5);
    assert!(rec.stop.is_none(), "{:?}", rec.stop);

    // Crash window B: index flipped, folded segments never deleted. The
    // leftovers sit below the checkpoint and are ignored by both paths.
    for (seq, bytes) in folded_bytes.iter().enumerate() {
        std::fs::write(segment_path(&compacted, seq as u64), bytes).unwrap();
    }
    let leftover = load_journal(&compacted).unwrap();
    assert_eq!(leftover.settlements, before.settlements);
    let rec = recover_journal(&compacted, false).unwrap();
    assert_eq!(rec.view.settled_rounds(), 5);
    assert!(rec.view.completed());
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
    let err = recover_journal(&base, false).unwrap_err().to_string();
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

/// Lays out one crash state of a rotated journal at `base`: `sealed`
/// whole segments, the first `indexed` of them in the index (none without
/// an index), and, if any, the active segment's bytes as its `.partial`.
fn lay_out(
    base: &Path,
    index: &JournalIndex,
    segments: &[&[u8]],
    (sealed, indexed): (usize, usize),
    partial: Option<&[u8]>,
) {
    for (seq, bytes) in segments[..sealed].iter().enumerate() {
        std::fs::write(segment_path(base, seq as u64), bytes).unwrap();
    }
    if indexed > 0 {
        let index = JournalIndex {
            checkpoint: None,
            segments: index.segments[..indexed].to_vec(),
        };
        index.write(base).unwrap();
    }
    if let Some(bytes) = partial {
        std::fs::write(segment_partial_path(base, sealed as u64), bytes).unwrap();
    }
}

/// The crash invariant over every prefix, in both layouts: a run killed
/// after writing its first `c` bytes leaves either a single file `P.partial`
/// holding them, or the segments sealed by then, the index listing them
/// and the rest as the active partial. Both recover to the same settled
/// rounds, rows, state and stop line; the rows are a prefix of the whole
/// run's; the kept text is the journal up to the last settlement boundary
/// whose line the cut left whole. At a segment boundary the segment may
/// also be sealed but not yet indexed, or not yet sealed.
#[test]
fn every_prefix_recovers_alike_in_both_layouts() {
    let dir = scratch_dir("every_prefix");
    let (full, rotated) = (dir.join("full.jsonl"), dir.join("rotated.jsonl"));
    write_journal(&full, 6, None);
    let report = write_journal(&rotated, 6, Some(RotationConfig { segment_rounds: 2 }));
    assert_eq!(report.segments, 4);
    let bytes = std::fs::read(&full).unwrap();
    let rows = load_journal(&full).unwrap().settlements;
    let index = JournalIndex::read_strict(&rotated).unwrap();
    let segment_bytes: Vec<Vec<u8>> = (0..4)
        .map(|seq| std::fs::read(segment_path(&rotated, seq)).unwrap())
        .collect();
    let segments: Vec<&[u8]> = segment_bytes.iter().map(Vec::as_slice).collect();
    assert_eq!(segments.concat(), bytes);
    let ends: Vec<usize> = segments
        .iter()
        .scan(0, |end, seg| {
            *end += seg.len();
            Some(*end)
        })
        .collect();
    // The cuts: the start, one byte into each line, its middle, its end
    // without its newline and with it. Every other cut inside a line
    // recovers as the middle one does. A settlement boundary's line also
    // records where it ends, without and with its newline.
    let (mut cuts, mut boundaries, mut start) = (vec![0], Vec::new(), 0);
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let end = start + line.len();
        cuts.extend([start + 1, (start + end) / 2, end - 1, end]);
        let event: MarketEvent = json::from_str(std::str::from_utf8(line).unwrap()).unwrap();
        if event.is_settlement_boundary() {
            boundaries.push((end - 1, end));
        }
        start = end;
    }

    cdt_types::check::check_all(cuts, |&c| {
        let case = dir.join("case");
        std::fs::remove_dir_all(&case).ok();
        std::fs::create_dir_all(&case).unwrap();
        let single_file = case.join("single.jsonl.partial");
        std::fs::write(&single_file, &bytes[..c]).unwrap();
        let single = recover_journal(&single_file, true).unwrap();
        let kept = boundaries
            .iter()
            .rfind(|&&(content_end, _)| content_end <= c)
            .map_or(0, |&(_, line_end)| line_end);
        assert_eq!(single.kept_text.as_bytes(), &bytes[..kept]);
        assert_eq!(single.source_bytes, kept.min(c) as u64);
        let settled = single.view.settled_rounds();
        assert_eq!(single.view.settlements, rows[..settled]);
        assert!(single.view.state.at_round_boundary());

        let sealed = ends.iter().filter(|&&end| end <= c).count();
        let start = sealed.checked_sub(1).map_or(0, |last| ends[last]);
        let active = (sealed < segments.len()).then(|| &bytes[start..c]);
        let mut layouts = vec![((sealed, sealed), active)];
        if sealed > 0 && start == c {
            let seg = segments[sealed - 1];
            // Sealed, but the index was not rewritten yet…
            layouts.push(((sealed, sealed - 1), None));
            // …or not even sealed: the bytes are still the active partial.
            layouts.push(((sealed - 1, sealed - 1), Some(seg)));
        }
        for (i, (counts, partial)) in layouts.into_iter().enumerate() {
            // The index names its segments by file: keep the base name.
            let layout = case.join(format!("layout{i}"));
            std::fs::create_dir(&layout).unwrap();
            let base = layout.join("rotated.jsonl");
            lay_out(&base, &index, &segments, counts, partial);
            let rec = recover_journal(&base, true).unwrap();
            assert_eq!(rec.view.settlements, single.view.settlements, "{counts:?}");
            assert_eq!(rec.view.state, single.view.state, "{counts:?}");
            assert_eq!(rec.kept_text, single.kept_text, "{counts:?}");
            assert_eq!(
                rec.stop.map(|stop| stop.line),
                single.stop.as_ref().map(|stop| stop.line),
                "{counts:?}"
            );
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The index, checkpoint and segment fields that hold counts, and the
/// paired forgery of the checkpoint reference's `segments_folded` with
/// the first segment's `seq`.
const COUNTS: [&str; 13] = [
    "seg.seq",
    "seg.first_round",
    "seg.rounds",
    "seg.events",
    "ref.generation",
    "ref.rounds",
    "ref.events",
    "ref.segments_folded",
    "ckpt.generation",
    "ckpt.segments_folded",
    "ckpt.events",
    "ckpt.rounds",
    "paired",
];

/// One edit of one journal file.
#[derive(Debug)]
enum Edit {
    Flip {
        at: usize,
        mask: u8,
    },
    Truncate {
        at: usize,
    },
    Insert {
        at: usize,
        bytes: Vec<u8>,
    },
    DuplicateLine(usize),
    SwapLines(usize, usize),
    DeleteLine(usize),
    DeleteFile,
    /// Sets one of [`COUNTS`], recomputing the checkpoint's digest.
    Count(&'static str, u64),
}

/// Sets `field` of the compacted store at `base` to `value`, keeping the
/// checkpoint self-validating and the index reference in step with it.
fn forge_count(base: &Path, field: &str, value: u64) {
    let mut index = JournalIndex::read_strict(base).unwrap();
    let ckpt_file = checkpoint_path(base, 1);
    let mut ckpt: Checkpoint =
        json::from_str(&std::fs::read_to_string(&ckpt_file).unwrap()).unwrap();
    let n = usize::try_from(value).unwrap();
    let reference = index.checkpoint.as_mut().unwrap();
    let segment = &mut index.segments[0];
    match field {
        "seg.seq" => segment.seq = value,
        "seg.first_round" => segment.first_round = Some(n),
        "seg.rounds" => segment.rounds = n,
        "seg.events" => segment.events = value,
        "ref.generation" => reference.generation = value,
        "ref.rounds" => reference.rounds = n,
        "ref.events" => reference.events = value,
        "ref.segments_folded" => reference.segments_folded = value,
        "ckpt.generation" => (ckpt.generation, reference.generation) = (value, value),
        "ckpt.segments_folded" => {
            (ckpt.segments_folded, reference.segments_folded) = (value, value)
        }
        "ckpt.events" => (ckpt.events, reference.events) = (value, value),
        "ckpt.rounds" => (ckpt.rounds, reference.rounds) = (n, n),
        _ => (reference.segments_folded, segment.seq) = (value, value),
    }
    ckpt.digest = ckpt.content_digest();
    reference.digest = ckpt.digest;
    std::fs::write(&ckpt_file, json::to_string(&ckpt)).unwrap();
    index.write(base).unwrap();
}

/// Applies `edit` to `file` (a store at `base`, for a count).
fn apply_edit(base: &Path, file: &Path, edit: &Edit) {
    if let Edit::Count(field, value) = edit {
        return forge_count(base, field, *value);
    }
    if let Edit::DeleteFile = edit {
        return std::fs::remove_file(file).unwrap();
    }
    let mut bytes = std::fs::read(file).unwrap();
    let mut lines: Vec<Vec<u8>> = bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    let line = |i: usize| i % lines.len().max(1);
    match edit {
        Edit::Flip { at, mask } => {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        Edit::Truncate { at } => bytes.truncate(at % bytes.len()),
        Edit::Insert { at, bytes: extra } => {
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, extra.iter().copied());
        }
        Edit::DuplicateLine(i) => {
            let i = line(*i);
            lines.insert(i, lines[i].clone());
            bytes = lines.concat();
        }
        Edit::SwapLines(a, b) => {
            let (a, b) = (line(*a), line(*b));
            lines.swap(a, b);
            bytes = lines.concat();
        }
        Edit::DeleteLine(i) => {
            lines.remove(line(*i));
            bytes = lines.concat();
        }
        Edit::DeleteFile | Edit::Count(..) => unreachable!(),
    }
    std::fs::write(file, bytes).unwrap();
}

/// "Readers never panic": one edit of one file of a compacted store (the
/// golden fixture) or of a single-file journal, then every reader over
/// both. A reader may refuse, but none may panic (the debug build checks
/// every addition), every recovery that succeeds lands on a settlement
/// boundary, and a compaction that succeeds leaves a journal that loads.
/// Besides 300 seeded byte and line edits, each count is forged to 0 and
/// to `u64::MAX`.
#[test]
fn journal_readers_never_panic_on_a_damaged_journal() {
    const STORE: [&str; 4] = [
        "golden.jsonl.idx",
        "golden.jsonl.ckpt-0001",
        "golden.jsonl.seg-0002",
        "golden.jsonl.seg-0003",
    ];
    let dir = scratch_dir("never_panic");
    let single = dir.join("single.jsonl");
    write_journal(&single, 6, None);
    let forged = COUNTS
        .iter()
        .flat_map(|&field| [0, u64::MAX].map(|value| (0, Edit::Count(field, value))));
    let seeded = (0..300).map(|seed| {
        let mut rng = cdt_types::SimRng::new(seed);
        let mut at = || rng.below(1 << 16) as usize;
        let (kind, file, a, b) = (at() % 7, at() % (STORE.len() + 1), at(), at());
        let edit = match kind {
            0 => Edit::Flip {
                at: a,
                mask: 1 << (b % 8),
            },
            1 => Edit::Truncate { at: a },
            2 => Edit::Insert {
                at: a,
                bytes: b.to_le_bytes()[..1 + b % 4].to_vec(),
            },
            3 => Edit::DuplicateLine(a),
            4 => Edit::SwapLines(a, b),
            5 => Edit::DeleteLine(a),
            _ => Edit::DeleteFile,
        };
        (file, edit)
    });
    cdt_types::check::check_all(forged.chain(seeded), |(file, edit)| {
        let case = dir.join("case");
        std::fs::remove_dir_all(&case).ok();
        std::fs::create_dir_all(&case).unwrap();
        let fixtures = golden_base().parent().unwrap().to_path_buf();
        for name in STORE {
            std::fs::copy(fixtures.join(name), case.join(name)).unwrap();
        }
        let (base, flat) = (case.join("golden.jsonl"), case.join("single.jsonl"));
        std::fs::copy(&single, &flat).unwrap();
        let target = STORE
            .get(*file)
            .map_or_else(|| flat.clone(), |name| case.join(name));
        apply_edit(&base, &target, edit);
        for path in [&base, &flat] {
            if let Ok(rec) = recover_journal(path, true) {
                assert!(rec.view.state.at_round_boundary(), "{rec:?}");
            }
            for round in 0..=6 {
                let _ = replay_to_round(path, round);
            }
        }
        if let (Ok(a), Ok(b)) = (load_journal(&base), load_journal(&flat)) {
            let d = diff_settlement_rows(&a.settlements, &b.settlements);
            assert!(d.rounds_compared <= d.rounds_a.min(d.rounds_b), "{d:?}");
        }
        if compact_journal(&base, 0, &Session::disabled()).is_ok() {
            load_journal(&base).unwrap();
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
