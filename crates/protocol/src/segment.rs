//! Segment-rotated journal layout: the index, compaction checkpoints, and
//! the loaders the `cdt journal` family shares.
//!
//! A rotated journal for base path `P` is a *directory layout*, not a
//! single file:
//!
//! - `P.seg-NNNN` — sealed segments (4-digit, zero-padded, so lexicographic
//!   order is numeric order). Each segment is plain event JSONL that both
//!   starts and ends on a settlement boundary, so the concatenation of all
//!   segments is byte-identical to the single-file journal of the same
//!   run. The active segment streams into `P.seg-NNNN.partial` and is
//!   atomically renamed when sealed.
//! - `P.idx` — the JSONL index: a header line, an optional checkpoint
//!   reference, then one entry per sealed segment carrying its round
//!   range, event count, FNV-1a byte digest, and the full
//!   [`ProtocolState`] *after* the segment. The index is always rewritten
//!   whole via temp-file + atomic rename, strictly after the segment it
//!   covers is sealed — so every indexed segment exists, and a crash can
//!   at worst leave one sealed-but-unindexed trailing segment (recovery
//!   finds it by scanning).
//! - `P.ckpt-GGGG` — compaction checkpoints. [`compact_journal`] folds a
//!   settled prefix of segments into one self-validating JSON record: the
//!   [`ProtocolState`] snapshot, every folded settlement row, the ledger
//!   totals, a chained digest of the folded bytes, and a content digest
//!   over all of it. Generations are written new-file-first, then the
//!   index flips to the new reference, then the folded segments and the
//!   old checkpoint are deleted — every crash window leaves either the old
//!   or the new generation fully intact (orphans are ignored; the index is
//!   the source of truth).
//!
//! Every reader feeds the one replay of [`crate::recover`], and the
//! readers differ only in which files they feed it. A single-file journal
//! is a journal of one source. A segmented one resumes from its
//! checkpoint and feeds the indexed segments; recovery goes on to the
//! sealed segments the index never recorded and the active partial. The
//! per-segment `state_after` snapshots and the checkpoint state are
//! *cross-checked against replay*, so a forged index or tampered
//! checkpoint is rejected exactly like a tampered event in a single-file
//! journal.

use crate::codec;
use crate::diff::SettlementRow;
use crate::recover::{JournalRecovery, Replay};
use crate::state::ProtocolState;
use cdt_types::json::{self, Codec as _};
use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The index/checkpoint format version this crate writes and reads.
pub const SEGMENT_FORMAT_VERSION: u32 = 1;

/// The `journal` value of the index header line.
const INDEX_JOURNAL_KIND: &str = "segmented";

/// FNV-1a 64-bit offset basis (the digest seed for an empty byte stream).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a 64-bit digest. Chain calls to
/// digest a multi-part stream; start from [`FNV_OFFSET`].
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// What can go wrong reading, validating, or compacting a segmented
/// journal.
#[derive(Debug)]
pub enum SegmentError {
    /// A file could not be read, written, or renamed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The layout is inconsistent, tampered, or torn.
    Corrupt(String),
}

impl SegmentError {
    fn io(path: &Path, source: io::Error) -> Self {
        SegmentError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    fn corrupt(msg: impl Into<String>) -> Self {
        SegmentError::Corrupt(msg.into())
    }
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            SegmentError::Corrupt(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Io { source, .. } => Some(source),
            SegmentError::Corrupt(_) => None,
        }
    }
}

fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// `P.idx` — the segment index of journal base path `P`.
#[must_use]
pub fn index_path(base: &Path) -> PathBuf {
    suffixed(base, ".idx")
}

/// `P.seg-NNNN` — sealed segment `seq` of journal base path `P`.
#[must_use]
pub fn segment_path(base: &Path, seq: u64) -> PathBuf {
    suffixed(base, &format!(".seg-{seq:04}"))
}

/// `P.seg-NNNN.partial` — the active (streaming) segment `seq`.
#[must_use]
pub fn segment_partial_path(base: &Path, seq: u64) -> PathBuf {
    suffixed(base, &format!(".seg-{seq:04}.partial"))
}

/// `P.ckpt-GGGG` — compaction checkpoint generation `generation`.
#[must_use]
pub fn checkpoint_path(base: &Path, generation: u64) -> PathBuf {
    suffixed(base, &format!(".ckpt-{generation:04}"))
}

/// The directory a base path's sibling artifacts live in.
fn base_dir(base: &Path) -> PathBuf {
    base.parent()
        .map_or_else(|| PathBuf::from(""), Path::to_path_buf)
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned())
}

/// Scans for any on-disk artifact of journal base path `P` that a fresh
/// [`crate::JournalSink`] would clobber or shadow: `P.partial`, `P.idx`,
/// or any `P.seg-*` / `P.ckpt-*` sibling. Returns the first one found.
///
/// # Errors
/// Propagates directory-listing failures, a missing directory among them:
/// no journal can be created there.
pub fn stray_artifact(base: &Path) -> io::Result<Option<PathBuf>> {
    let partial = suffixed(base, ".partial");
    if partial.exists() {
        return Ok(Some(partial));
    }
    let idx = index_path(base);
    if idx.exists() {
        return Ok(Some(idx));
    }
    let name = file_name_of(base);
    if name.is_empty() {
        return Ok(None);
    }
    let dir = base_dir(base);
    let entries = std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        &dir
    })?;
    let seg_prefix = format!("{name}.seg-");
    let ckpt_prefix = format!("{name}.ckpt-");
    let mut found: Option<PathBuf> = None;
    for entry in entries {
        let entry = entry?;
        let entry_name = entry.file_name().to_string_lossy().into_owned();
        if entry_name.starts_with(&seg_prefix) || entry_name.starts_with(&ckpt_prefix) {
            let path = dir.join(&entry_name);
            // Deterministic pick: the lexicographically first artifact.
            if found.as_ref().is_none_or(|f| path < *f) {
                found = Some(path);
            }
        }
    }
    Ok(found)
}

/// One sealed segment, as recorded in the index.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentEntry {
    /// Segment sequence number (monotone across compactions).
    pub seq: u64,
    /// File name (relative to the journal's directory).
    pub file: String,
    /// First round *settled* inside this segment, if any.
    pub first_round: Option<usize>,
    /// Rounds settled inside this segment.
    pub rounds: usize,
    /// Events written to this segment.
    pub events: u64,
    /// FNV-1a 64-bit digest of the segment's bytes.
    pub digest: u64,
    /// The protocol state after the last event of this segment —
    /// cross-checked against replay on every strict load.
    pub state_after: ProtocolState,
}

/// The index's reference to the live compaction checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRef {
    /// Checkpoint generation (the `GGGG` in `P.ckpt-GGGG`).
    pub generation: u64,
    /// Checkpoint file name (relative to the journal's directory).
    pub file: String,
    /// Rounds folded into the checkpoint.
    pub rounds: usize,
    /// Events folded into the checkpoint.
    pub events: u64,
    /// The checkpoint's content digest (must match the file).
    pub digest: u64,
    /// Segments folded into the checkpoint (0 when an older index omits
    /// it).
    pub segments_folded: u64,
}

/// A compaction checkpoint: the replayable summary of a folded settled
/// prefix. Self-validating via [`Checkpoint::content_digest`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Format version ([`SEGMENT_FORMAT_VERSION`]).
    pub format: u32,
    /// Generation number, incremented per compaction.
    pub generation: u64,
    /// Total segments folded (across all generations).
    pub segments_folded: u64,
    /// Total events folded.
    pub events: u64,
    /// Total rounds settled in the folded prefix.
    pub rounds: usize,
    /// Whether the folded prefix ends with `JobCompleted`.
    pub completed: bool,
    /// Total consumer spend over the folded settlements.
    pub consumer_total: f64,
    /// Total seller payout over the folded settlements.
    pub seller_total: f64,
    /// Chained FNV-1a digest of the folded segments' raw bytes.
    pub bytes_digest: u64,
    /// Protocol state after the folded prefix — replay resumes from here.
    pub state: ProtocolState,
    /// Every folded settlement row, in round order.
    pub settlements: Vec<SettlementRow>,
    /// FNV-1a digest over the canonical serialization of every field
    /// above; loading recomputes and rejects a mismatch.
    pub digest: u64,
}

impl Checkpoint {
    /// The canonical content string the digest covers. Floats are encoded
    /// as their IEEE-754 bit patterns so the digest is exact.
    fn canonical_content(&self) -> String {
        let mut s = format!(
            "format={};generation={};segments_folded={};events={};rounds={};completed={};\
             bytes_digest={:016x};consumer_total={:016x};seller_total={:016x};state={};rows=",
            self.format,
            self.generation,
            self.segments_folded,
            self.events,
            self.rounds,
            self.completed,
            self.bytes_digest,
            self.consumer_total.to_bits(),
            self.seller_total.to_bits(),
            json::to_string(&self.state),
        );
        for row in &self.settlements {
            s.push_str(&format!(
                "{}:{:016x}",
                row.round.index(),
                row.consumer.to_bits()
            ));
            for p in &row.sellers {
                s.push_str(&format!(":{:016x}", p.to_bits()));
            }
            s.push(';');
        }
        s
    }

    /// The FNV-1a digest over the canonical content.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.canonical_content().as_bytes())
    }

    /// Validates the checkpoint's internal consistency: the content digest
    /// matches, the state agrees with the round counts, the rows are a
    /// contiguous `0..rounds` range, and the totals are the exact sums of
    /// the rows.
    ///
    /// # Errors
    /// Returns [`SegmentError::Corrupt`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), SegmentError> {
        if self.format != SEGMENT_FORMAT_VERSION {
            return Err(SegmentError::corrupt(format!(
                "checkpoint format {} unsupported (expected {SEGMENT_FORMAT_VERSION})",
                self.format
            )));
        }
        if self.digest != self.content_digest() {
            return Err(SegmentError::corrupt(
                "checkpoint content digest mismatch (tampered or torn checkpoint)",
            ));
        }
        if self.state.settled_rounds() != self.rounds || self.settlements.len() != self.rounds {
            return Err(SegmentError::corrupt(
                "checkpoint round count disagrees with its state snapshot",
            ));
        }
        if self.completed != self.state.is_completed() || !self.state.at_round_boundary() {
            return Err(SegmentError::corrupt(
                "checkpoint state is not a settlement boundary",
            ));
        }
        // A settled prefix is `JobPublished`, five events per round and
        // `JobCompleted` if completed. `rounds` is the row count here, so
        // the sum cannot overflow.
        let implied = 1 + 5 * self.rounds as u64 + u64::from(self.completed);
        if self.events != implied {
            return Err(SegmentError::corrupt(format!(
                "checkpoint events {} disagree with its {} rounds (a settlement boundary \
                 implies {implied})",
                self.events, self.rounds
            )));
        }
        for (i, row) in self.settlements.iter().enumerate() {
            if row.round.index() != i {
                return Err(SegmentError::corrupt(format!(
                    "checkpoint settlement rows are not contiguous at index {i}"
                )));
            }
        }
        let (consumer, seller) = ledger_totals(&self.settlements);
        if consumer.to_bits() != self.consumer_total.to_bits()
            || seller.to_bits() != self.seller_total.to_bits()
        {
            return Err(SegmentError::corrupt(
                "checkpoint ledger totals disagree with its settlement rows",
            ));
        }
        Ok(())
    }
}

/// One line of the `P.idx` JSONL index, tagged `header`, `checkpoint` or
/// `segment`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum IndexLine {
    /// The mandatory first line.
    Header {
        /// Always `"segmented"`.
        journal: String,
        /// Format version.
        version: u32,
    },
    /// The live checkpoint reference (at most one, before any segment).
    Checkpoint(CheckpointRef),
    /// A sealed segment, in sequence order.
    Segment(Box<SegmentEntry>),
}

/// The index's first line, newline-terminated.
pub(crate) fn index_header_line() -> Vec<u8> {
    let mut out = Vec::new();
    codec::encode_index_header(&mut out, INDEX_JOURNAL_KIND, SEGMENT_FORMAT_VERSION);
    out.push(b'\n');
    out
}

/// The parsed `P.idx` index: the live checkpoint reference (if any) plus
/// the sealed segments not yet folded into it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JournalIndex {
    /// The live compaction checkpoint, if one exists.
    pub checkpoint: Option<CheckpointRef>,
    /// The sealed, unfolded segments in sequence order.
    pub segments: Vec<SegmentEntry>,
}

impl JournalIndex {
    /// The sequence number the *next* segment (sealed or active) takes.
    ///
    /// # Errors
    /// Returns [`SegmentError::Corrupt`] when the last segment's `seq` is
    /// `u64::MAX`, which has no successor.
    pub fn next_seq(&self) -> Result<u64, SegmentError> {
        match self.segments.last() {
            Some(entry) => successor(entry.seq),
            None => Ok(self.checkpoint.as_ref().map_or(0, |c| c.segments_folded)),
        }
    }

    fn to_json_lines(&self) -> Vec<u8> {
        let mut out = index_header_line();
        if let Some(ckpt) = &self.checkpoint {
            codec::encode_index_checkpoint(&mut out, ckpt);
            out.push(b'\n');
        }
        for entry in &self.segments {
            codec::encode_index_segment(&mut out, entry);
            out.push(b'\n');
        }
        out
    }

    /// Atomically rewrites `P.idx` (temp file + rename), so readers only
    /// ever see a complete index.
    ///
    /// # Errors
    /// Returns the I/O failure, leaving any previous index intact.
    pub fn write(&self, base: &Path) -> Result<(), SegmentError> {
        let path = index_path(base);
        write_atomic(&path, &self.to_json_lines())
    }

    /// Parses `P.idx` strictly: every line must parse, the header must
    /// lead, the checkpoint reference (if any) must precede all segments,
    /// and segment sequence numbers must be consecutive from the
    /// checkpoint's fold point (or 0).
    ///
    /// # Errors
    /// Returns [`SegmentError::Io`] when the index cannot be read and
    /// [`SegmentError::Corrupt`] on any structural violation.
    pub fn read_strict(base: &Path) -> Result<Self, SegmentError> {
        let path = index_path(base);
        let text = std::fs::read_to_string(&path).map_err(|e| SegmentError::io(&path, e))?;
        match Self::parse(&text) {
            (index, None) => Ok(index),
            (_, Some(why)) => Err(SegmentError::corrupt(format!("{}: {why}", path.display()))),
        }
    }

    /// Parses the longest valid prefix of `P.idx`, tolerating a torn tail
    /// (returns what parsed plus whether anything was dropped). A missing
    /// or headerless index parses as empty-and-torn, letting recovery fall
    /// back to scanning segment files directly.
    ///
    /// # Errors
    /// Returns [`SegmentError::Io`] only when the index exists but cannot
    /// be read.
    pub fn read_tolerant(base: &Path) -> Result<(Self, bool), SegmentError> {
        let path = index_path(base);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((Self::default(), true));
            }
            Err(e) => return Err(SegmentError::io(&path, e)),
        };
        let (index, why) = Self::parse(&text);
        Ok((index, why.is_some()))
    }

    /// Parses index lines, returning the valid prefix and `Some(reason)`
    /// at the first violation.
    fn parse(text: &str) -> (Self, Option<String>) {
        let mut index = Self::default();
        let mut saw_header = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let parsed: IndexLine = match json::from_str(line) {
                Ok(parsed) => parsed,
                Err(e) => {
                    return (index, Some(format!("index line {line_no}: bad JSON: {e}")));
                }
            };
            match parsed {
                IndexLine::Header { journal, version } => {
                    if saw_header {
                        return (
                            index,
                            Some(format!("index line {line_no}: duplicate header")),
                        );
                    }
                    if journal != INDEX_JOURNAL_KIND || version != SEGMENT_FORMAT_VERSION {
                        return (
                            index,
                            Some(format!(
                                "index line {line_no}: unsupported header \
                                 (journal=`{journal}`, version={version})"
                            )),
                        );
                    }
                    saw_header = true;
                }
                IndexLine::Checkpoint(ckpt) => {
                    if !saw_header || index.checkpoint.is_some() || !index.segments.is_empty() {
                        return (
                            index,
                            Some(format!(
                                "index line {line_no}: misplaced checkpoint reference"
                            )),
                        );
                    }
                    index.checkpoint = Some(ckpt);
                }
                IndexLine::Segment(entry) => {
                    if !saw_header {
                        return (
                            index,
                            Some(format!("index line {line_no}: segment before header")),
                        );
                    }
                    let expected = match index.next_seq() {
                        Ok(expected) => expected,
                        Err(e) => return (index, Some(format!("index line {line_no}: {e}"))),
                    };
                    if entry.seq != expected {
                        return (
                            index,
                            Some(format!(
                                "index line {line_no}: segment seq {} out of order \
                                 (expected {expected})",
                                entry.seq
                            )),
                        );
                    }
                    index.segments.push(*entry);
                }
            }
        }
        if saw_header {
            (index, None)
        } else {
            (index, Some("index has no header line".to_owned()))
        }
    }
}

/// The segment sequence number after `seq`: a forged `u64::MAX` has none.
fn successor(seq: u64) -> Result<u64, SegmentError> {
    seq.checked_add(1).ok_or_else(|| {
        SegmentError::corrupt(format!("segment seq {seq} overflows (it has no successor)"))
    })
}

/// Writes `bytes` to `path` through a synced temp file and a rename, so
/// readers only ever see the old or the new content.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SegmentError> {
    let tmp = suffixed(path, ".tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| SegmentError::io(&tmp, e))?;
        f.write_all(bytes).map_err(|e| SegmentError::io(&tmp, e))?;
        // Best-effort durability, like the sink: a failed fsync still
        // leaves a complete temp file.
        let _ = f.sync_all();
    }
    std::fs::rename(&tmp, path).map_err(|e| SegmentError::io(path, e))
}

/// Reads and validates the checkpoint a [`CheckpointRef`] points to,
/// cross-checking the reference's generation, counts, and digest against
/// the file (the replay-verification idiom at the checkpoint layer).
fn load_checkpoint(base: &Path, ckpt_ref: &CheckpointRef) -> Result<Checkpoint, SegmentError> {
    let path = base_dir(base).join(&ckpt_ref.file);
    let text = std::fs::read_to_string(&path).map_err(|e| SegmentError::io(&path, e))?;
    let ckpt: Checkpoint = json::from_str(&text).map_err(|e| {
        SegmentError::corrupt(format!("{}: bad checkpoint JSON: {e}", path.display()))
    })?;
    ckpt.validate()
        .map_err(|e| SegmentError::corrupt(format!("{}: {e}", path.display())))?;
    if ckpt.generation != ckpt_ref.generation
        || ckpt.rounds != ckpt_ref.rounds
        || ckpt.events != ckpt_ref.events
        || ckpt.digest != ckpt_ref.digest
    {
        return Err(SegmentError::corrupt(format!(
            "{}: checkpoint disagrees with the index reference",
            path.display()
        )));
    }
    Ok(ckpt)
}

/// Scans the journal's directory for the highest-generation checkpoint
/// that self-validates — the recovery fallback when the index is torn
/// before its checkpoint line.
fn scan_for_checkpoint(base: &Path) -> Option<Checkpoint> {
    let name = file_name_of(base);
    let dir = base_dir(base);
    let prefix = format!("{name}.ckpt-");
    let entries = std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        &dir
    })
    .ok()?;
    let mut best: Option<Checkpoint> = None;
    for entry in entries.flatten() {
        let entry_name = entry.file_name().to_string_lossy().into_owned();
        if !entry_name.starts_with(&prefix) || entry_name.ends_with(".tmp") {
            continue;
        }
        let path = dir.join(&entry_name);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(ckpt) = json::from_str::<Checkpoint>(&text) else {
            continue;
        };
        if ckpt.validate().is_err() {
            continue;
        }
        if best.as_ref().is_none_or(|b| ckpt.generation > b.generation) {
            best = Some(ckpt);
        }
    }
    best
}

/// The settlement ledger's `(consumer spend, seller payout)` over `rows`.
/// Both fold from `+0.0` in row order, each row's seller payments summed
/// first. `Iterator::sum` is not used because an empty `f64` sum may be
/// `-0.0`, and checkpoints compare these totals bit for bit: an empty
/// ledger must total `+0.0`.
fn ledger_totals(rows: &[SettlementRow]) -> (f64, f64) {
    rows.iter().fold((0.0, 0.0), |(consumer, seller), row| {
        let payout = row.sellers.iter().fold(0.0, |acc, &p| acc + p);
        (consumer + row.consumer, seller + payout)
    })
}

/// A strictly loaded journal history — from a single file, a segmented
/// layout, or a compacted one — normalized to the data every `cdt
/// journal` command needs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JournalView {
    /// `true` when loaded from a `P.idx` segment layout.
    pub segmented: bool,
    /// Sealed segments replayed (0 for a single-file journal).
    pub segments: usize,
    /// Rounds folded into a checkpoint (0 when uncompacted).
    pub compacted_rounds: usize,
    /// Events folded into a checkpoint (0 when uncompacted).
    pub compacted_events: u64,
    /// Total events in the history, including folded ones.
    pub events: u64,
    /// Every settlement row, in round order (checkpointed and replayed).
    pub settlements: Vec<SettlementRow>,
    /// The protocol state after the full history.
    pub state: ProtocolState,
}

impl JournalView {
    /// Rounds settled over the whole history.
    #[must_use]
    pub fn settled_rounds(&self) -> usize {
        self.state.settled_rounds()
    }

    /// Whether the history ends with `JobCompleted`.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.state.is_completed()
    }

    /// Total consumer spend (row-order sum, bit-stable).
    #[must_use]
    pub fn consumer_total(&self) -> f64 {
        ledger_totals(&self.settlements).0
    }

    /// Total seller payout (row-order sum, bit-stable).
    #[must_use]
    pub fn seller_total(&self) -> f64 {
        ledger_totals(&self.settlements).1
    }

    /// Where a segmented layout's replay starts: the history `ckpt`
    /// folded, or an empty one without a checkpoint.
    fn resume(ckpt: Option<Checkpoint>) -> Self {
        let Some(ckpt) = ckpt else {
            return Self {
                segmented: true,
                ..Self::default()
            };
        };
        Self {
            segmented: true,
            segments: 0,
            compacted_rounds: ckpt.rounds,
            compacted_events: ckpt.events,
            events: ckpt.events,
            settlements: ckpt.settlements,
            state: ckpt.state,
        }
    }
}

/// Replays one indexed segment strictly and cross-checks it against its
/// entry: the byte digest, the event and round counts, the first round
/// settled and `state_after`. Returns the segment's bytes.
fn verify_segment_entry(
    base: &Path,
    entry: &SegmentEntry,
    replay: &mut Replay,
) -> Result<Vec<u8>, SegmentError> {
    let path = base_dir(base).join(&entry.file);
    let bytes = std::fs::read(&path).map_err(|e| SegmentError::io(&path, e))?;
    if fnv1a(FNV_OFFSET, &bytes) != entry.digest {
        return Err(SegmentError::corrupt(format!(
            "{}: segment byte digest mismatch (tampered or torn segment)",
            path.display()
        )));
    }
    let events_before = replay.applied();
    let rows_before = replay.view.settlements.len();
    replay.strict(&bytes, &entry.file)?;
    let events = replay.applied() - events_before;
    if events != entry.events {
        return Err(SegmentError::corrupt(format!(
            "{}: index says {} events, replay found {events}",
            path.display(),
            entry.events
        )));
    }
    let rows = &replay.view.settlements[rows_before..];
    if rows.len() != entry.rounds {
        return Err(SegmentError::corrupt(format!(
            "{}: index says {} rounds, replay settled {}",
            path.display(),
            entry.rounds,
            rows.len()
        )));
    }
    let first_round = rows.first().map(|row| row.round.index());
    if first_round != entry.first_round {
        let show = |r: Option<usize>| r.map_or_else(|| "none".to_owned(), |r| r.to_string());
        return Err(SegmentError::corrupt(format!(
            "{}: index says first round {}, replay settled first round {}",
            path.display(),
            show(entry.first_round),
            show(first_round)
        )));
    }
    if replay.view.state != entry.state_after {
        return Err(SegmentError::corrupt(format!(
            "{}: index state_after disagrees with replay (forged index?)",
            path.display()
        )));
    }
    Ok(bytes)
}

/// Ensures a segmented journal is quiescent (no active partial, no sealed
/// segment the index has not caught up with) — the precondition for strict
/// loads and compaction.
fn ensure_quiescent(base: &Path, index: &JournalIndex) -> Result<(), SegmentError> {
    let next = index.next_seq()?;
    let partial = segment_partial_path(base, next);
    if partial.exists() {
        return Err(SegmentError::corrupt(format!(
            "{}: unfinished journal — active segment {} present \
             (run `cdt journal recover`)",
            base.display(),
            partial.display()
        )));
    }
    let unindexed = segment_path(base, next);
    if unindexed.exists() {
        return Err(SegmentError::corrupt(format!(
            "{}: sealed segment {} is not in the index (crashed during rotation; \
             run `cdt journal recover`)",
            base.display(),
            unindexed.display()
        )));
    }
    Ok(())
}

/// The no-journal error of a path that holds neither a file nor a layout.
fn no_journal(path: &Path) -> SegmentError {
    SegmentError::io(
        path,
        io::Error::new(
            io::ErrorKind::NotFound,
            "no journal file or segment index found",
        ),
    )
}

/// Loads a journal strictly. A single file is one source, loaded as
/// [`load_journal_text`] loads its text. A segmented journal must be
/// quiescent: replay resumes from the checkpoint, whose digest and index
/// reference are checked, and cross-checks every indexed segment (byte
/// digest, counts, first round, `state_after`). Either way the history
/// must end on a settlement boundary, as every writer leaves it.
///
/// # Errors
/// Returns [`SegmentError::Io`] when nothing readable exists at `path`
/// and [`SegmentError::Corrupt`] on any validation failure.
pub fn load_journal(path: &Path) -> Result<JournalView, SegmentError> {
    let file = path.display().to_string();
    if path.is_file() {
        let bytes = std::fs::read(path).map_err(|e| SegmentError::io(path, e))?;
        return load_journal_text(bytes, &file);
    }
    if !index_path(path).is_file() {
        return Err(no_journal(path));
    }
    let index = JournalIndex::read_strict(path)?;
    ensure_quiescent(path, &index)?;
    let ckpt = index
        .checkpoint
        .as_ref()
        .map(|ckpt_ref| load_checkpoint(path, ckpt_ref))
        .transpose()?;
    let mut replay = Replay::new(JournalView::resume(ckpt));
    for entry in &index.segments {
        verify_segment_entry(path, entry, &mut replay)?;
    }
    replay.view.segments = index.segments.len();
    replay.finish(&file)
}

/// Loads one journal file's text strictly, as [`load_journal`] loads a
/// single-file journal: every line must decode and apply, and the history
/// must end on a settlement boundary.
///
/// # Errors
/// Returns [`SegmentError::Corrupt`] naming `file` and the 1-based line
/// of the first violation, or the in-flight round of a journal that ends
/// mid-round.
pub fn load_journal_text(text: impl AsRef<[u8]>, file: &str) -> Result<JournalView, SegmentError> {
    let mut replay = Replay::new(JournalView::default());
    replay.strict(text.as_ref(), file)?;
    replay.finish(file)
}

/// Recovers the longest valid boundary-terminated prefix of any journal
/// layout. A single file is one source. A segmented layout resumes from
/// its checkpoint and feeds the index's valid prefix, then the sealed
/// segments the index never recorded (found by scanning), then the active
/// partial — tolerating torn segments, a torn index, and interrupted
/// compactions. Recovery always lands on a settlement boundary. With
/// `keep_text` it also copies the kept lines into
/// [`JournalRecovery::kept_text`], for a caller that writes them out.
///
/// # Errors
/// Returns [`SegmentError::Io`] when nothing readable exists at `path`,
/// or [`SegmentError::Corrupt`] when the history hinges on a checkpoint
/// that no longer validates (its folded events are gone; nothing can be
/// replayed past it) or on a segment `seq` without a successor.
pub fn recover_journal(path: &Path, keep_text: bool) -> Result<JournalRecovery, SegmentError> {
    if path.is_file() {
        let bytes = std::fs::read(path).map_err(|e| SegmentError::io(path, e))?;
        let mut replay = Replay::recovering(JournalView::default(), keep_text);
        replay.recover(&bytes, None, true);
        return Ok(replay.into_recovery());
    }
    let (index, torn) = JournalIndex::read_tolerant(path)?;
    let ckpt = match &index.checkpoint {
        Some(ckpt_ref) => Some(load_checkpoint(path, ckpt_ref)?),
        // A torn index may have lost its checkpoint line: fall back to the
        // highest self-validating checkpoint on disk.
        None if torn => scan_for_checkpoint(path),
        None => None,
    };
    if index.segments.is_empty()
        && ckpt.is_none()
        && !index_path(path).is_file()
        && !segment_path(path, 0).exists()
        && !segment_partial_path(path, 0).exists()
    {
        return Err(no_journal(path));
    }
    let mut seq = ckpt.as_ref().map_or(0, |c| c.segments_folded);
    let mut replay = Replay::recovering(JournalView::resume(ckpt), keep_text);
    for entry in &index.segments {
        if replay.stopped() {
            break;
        }
        seq = successor(entry.seq)
            .map_err(|e| SegmentError::corrupt(format!("{}: {e}", index_path(path).display())))?;
        recover_file(
            &mut replay,
            &base_dir(path).join(&entry.file),
            &entry.file,
            false,
        );
    }
    // Sealed segments the (possibly torn) index never recorded.
    while !replay.stopped() && segment_path(path, seq).is_file() {
        let seg = segment_path(path, seq);
        recover_file(&mut replay, &seg, &file_name_of(&seg), false);
        seq = successor(seq)?;
    }
    // The active partial, if the run died mid-segment.
    let partial = segment_partial_path(path, seq);
    if !replay.stopped() && partial.is_file() {
        recover_file(&mut replay, &partial, &file_name_of(&partial), true);
    }
    Ok(replay.into_recovery())
}

/// Feeds one segment file to recovery: a sealed one, or the `last`, the
/// active partial. A file that cannot be read stops replay.
fn recover_file(replay: &mut Replay, path: &Path, file: &str, last: bool) {
    match std::fs::read(path) {
        Ok(bytes) => {
            replay.view.segments += usize::from(!last);
            replay.recover(&bytes, Some(file), last);
        }
        Err(e) => {
            let kind = if last { "partial" } else { "segment" };
            replay.halt(Some(file), format!("{kind} unreadable: {e}"));
        }
    }
}

/// The result of [`replay_to_round`]: one round's settlement plus where it
/// came from.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundLookup {
    /// The requested round's settlement.
    pub row: SettlementRow,
    /// `true` when served from the compaction checkpoint (no replay).
    pub from_checkpoint: bool,
    /// The single segment scanned, if the lookup replayed one.
    pub segment: Option<u64>,
    /// Events replayed to answer the lookup (0 from a checkpoint).
    pub events_scanned: u64,
}

/// Answers "what settled at round R" with an index lookup plus at most
/// one segment scan: a checkpointed round is read straight from the
/// checkpoint's rows, an indexed round replays only its segment (resuming
/// from the previous segment's `state_after`), and a single-file journal
/// falls back to the full scan.
///
/// # Errors
/// Returns [`SegmentError::Corrupt`] when the round is not settled in the
/// journal, or on any validation failure in the one segment touched.
pub fn replay_to_round(path: &Path, round: usize) -> Result<RoundLookup, SegmentError> {
    if path.is_file() {
        let view = load_journal(path)?;
        let row = view.settlements.get(round).cloned().ok_or_else(|| {
            SegmentError::corrupt(format!(
                "round {round} not settled ({} rounds in {})",
                view.settled_rounds(),
                path.display()
            ))
        })?;
        return Ok(RoundLookup {
            row,
            from_checkpoint: false,
            segment: None,
            events_scanned: view.events,
        });
    }
    let index = JournalIndex::read_strict(path)?;
    if let Some(ckpt_ref) = &index.checkpoint {
        if round < ckpt_ref.rounds {
            let ckpt = load_checkpoint(path, ckpt_ref)?;
            return Ok(RoundLookup {
                row: ckpt.settlements[round].clone(),
                from_checkpoint: true,
                segment: None,
                events_scanned: 0,
            });
        }
    }
    for (i, entry) in index.segments.iter().enumerate() {
        let Some(first) = entry.first_round else {
            continue;
        };
        let end = first.checked_add(entry.rounds).ok_or_else(|| {
            SegmentError::corrupt(format!(
                "{}: index round range overflows (first round {first}, {} rounds)",
                entry.file, entry.rounds
            ))
        })?;
        if !(first..end).contains(&round) {
            continue;
        }
        // Resume from the previous segment's state (or the checkpoint).
        let state = if i > 0 {
            index.segments[i - 1].state_after.clone()
        } else {
            match &index.checkpoint {
                Some(ckpt_ref) => load_checkpoint(path, ckpt_ref)?.state,
                None => ProtocolState::new(),
            }
        };
        let mut replay = Replay::new(JournalView {
            state,
            ..JournalView::default()
        });
        verify_segment_entry(path, entry, &mut replay)?;
        let row = replay
            .view
            .settlements
            .into_iter()
            .find(|r| r.round.index() == round)
            .ok_or_else(|| {
                SegmentError::corrupt(format!(
                    "{}: index places round {round} here but replay did not settle it",
                    entry.file
                ))
            })?;
        return Ok(RoundLookup {
            row,
            from_checkpoint: false,
            segment: Some(entry.seq),
            events_scanned: entry.events,
        });
    }
    Err(SegmentError::corrupt(format!(
        "round {round} not settled in {}",
        path.display()
    )))
}

/// The result of a [`compact_journal`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Segments folded by this run.
    pub folded_segments: usize,
    /// Rounds folded by this run.
    pub folded_rounds: usize,
    /// Events folded by this run.
    pub folded_events: u64,
    /// Segments left unfolded in the index.
    pub kept_segments: usize,
    /// The checkpoint generation now live (0 when nothing was ever
    /// compacted).
    pub generation: u64,
    /// Total rounds now held by the checkpoint.
    pub checkpoint_rounds: usize,
}

/// Folds the oldest `segments.len() - keep_segments` sealed segments into
/// a new checkpoint generation. Every folded segment is digest-checked and
/// replayed (with the `state_after` cross-check) before anything is
/// written; the new checkpoint lands first, then the index flips
/// atomically, then the folded segments and the superseded checkpoint are
/// deleted — so a crash at any point leaves a loadable journal. An
/// enabled `obs` session counts the compaction and times it.
///
/// # Errors
/// Returns [`SegmentError::Corrupt`] when `path` is not a quiescent
/// segmented journal, any folded segment fails validation, or a count the
/// new checkpoint carries forward overflows, and [`SegmentError::Io`] on
/// file failures.
pub fn compact_journal(
    path: &Path,
    keep_segments: usize,
    obs: &cdt_obs::Session,
) -> Result<CompactReport, SegmentError> {
    if path.is_file() {
        return Err(SegmentError::corrupt(format!(
            "{}: single-file journal (nothing to compact — write it with \
             --journal-segment-rounds to get segments)",
            path.display()
        )));
    }
    let start = std::time::Instant::now();
    let index = JournalIndex::read_strict(path)?;
    ensure_quiescent(path, &index)?;
    let old_ckpt = match &index.checkpoint {
        Some(ckpt_ref) => Some(load_checkpoint(path, ckpt_ref)?),
        None => None,
    };
    let fold_count = index.segments.len().saturating_sub(keep_segments);
    let (mut bytes_digest, old_generation, old_folded) =
        old_ckpt.as_ref().map_or((FNV_OFFSET, 0, 0), |c| {
            (c.bytes_digest, c.generation, c.segments_folded)
        });
    let mut replay = Replay::new(JournalView::resume(old_ckpt));
    let (rounds_before, events_before) = (replay.view.settled_rounds(), replay.view.events);
    if fold_count == 0 {
        return Ok(CompactReport {
            folded_segments: 0,
            folded_rounds: 0,
            folded_events: 0,
            kept_segments: index.segments.len(),
            generation: old_generation,
            checkpoint_rounds: rounds_before,
        });
    }
    for entry in &index.segments[..fold_count] {
        let bytes = verify_segment_entry(path, entry, &mut replay)?;
        bytes_digest = fnv1a(bytes_digest, &bytes);
    }
    let view = replay.finish(&path.display().to_string())?;
    let generation = old_generation.checked_add(1).ok_or_else(|| {
        SegmentError::corrupt(format!(
            "checkpoint generation {old_generation} overflows (it has no successor)"
        ))
    })?;
    let segments_folded = old_folded.checked_add(fold_count as u64).ok_or_else(|| {
        SegmentError::corrupt(format!(
            "checkpoint segments_folded {old_folded} overflows when {fold_count} more fold"
        ))
    })?;
    let (consumer_total, seller_total) = ledger_totals(&view.settlements);
    let mut ckpt = Checkpoint {
        format: SEGMENT_FORMAT_VERSION,
        generation,
        segments_folded,
        events: view.events,
        rounds: view.settled_rounds(),
        completed: view.completed(),
        consumer_total,
        seller_total,
        bytes_digest,
        state: view.state,
        settlements: view.settlements,
        digest: 0,
    };
    ckpt.digest = ckpt.content_digest();

    // Crash-safe ordering: new checkpoint → index flip → deletions.
    let ckpt_file = checkpoint_path(path, ckpt.generation);
    let mut ckpt_bytes = Vec::new();
    ckpt.encode(&mut ckpt_bytes);
    write_atomic(&ckpt_file, &ckpt_bytes)?;
    let new_index = JournalIndex {
        checkpoint: Some(CheckpointRef {
            generation: ckpt.generation,
            file: file_name_of(&ckpt_file),
            rounds: ckpt.rounds,
            events: ckpt.events,
            digest: ckpt.digest,
            segments_folded: ckpt.segments_folded,
        }),
        segments: index.segments[fold_count..].to_vec(),
    };
    new_index.write(path)?;
    for entry in &index.segments[..fold_count] {
        let _ = std::fs::remove_file(base_dir(path).join(&entry.file));
    }
    if let Some(old) = &index.checkpoint {
        let _ = std::fs::remove_file(checkpoint_path(path, old.generation));
    }

    let report = CompactReport {
        folded_segments: fold_count,
        folded_rounds: ckpt.rounds - rounds_before,
        folded_events: ckpt.events - events_before,
        kept_segments: new_index.segments.len(),
        generation: ckpt.generation,
        checkpoint_rounds: ckpt.rounds,
    };
    if let Some(registry) = obs.registry() {
        registry.add_counter("cdt_obs_journal_compactions_total", &[], 1);
        registry.add_counter(
            "cdt_obs_journal_compacted_rounds_total",
            &[],
            report.folded_rounds as u64,
        );
        let mut hist = cdt_obs::LatencyHistogram::new();
        hist.record_ns(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        registry.merge_histogram("cdt_obs_journal_compact_ns", &[], &hist);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MarketEvent;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
        // Chaining is equivalent to one pass.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn paths_are_zero_padded_and_ordered() {
        let base = Path::new("/tmp/j.jsonl");
        assert_eq!(
            segment_path(base, 7),
            PathBuf::from("/tmp/j.jsonl.seg-0007")
        );
        assert_eq!(
            segment_partial_path(base, 12),
            PathBuf::from("/tmp/j.jsonl.seg-0012.partial")
        );
        assert_eq!(index_path(base), PathBuf::from("/tmp/j.jsonl.idx"));
        assert_eq!(
            checkpoint_path(base, 3),
            PathBuf::from("/tmp/j.jsonl.ckpt-0003")
        );
        // Lexicographic order equals numeric order within the pad width.
        let names: Vec<String> = (0..15)
            .map(|s| file_name_of(&segment_path(base, s)))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn index_round_trips_and_rejects_disorder() {
        let entry = |seq: u64| SegmentEntry {
            seq,
            file: format!("j.seg-{seq:04}"),
            first_round: Some(seq as usize),
            rounds: 1,
            events: 5,
            digest: 42,
            state_after: ProtocolState::new(),
        };
        let index = JournalIndex {
            checkpoint: None,
            segments: vec![entry(0), entry(1)],
        };
        let text = String::from_utf8(index.to_json_lines()).unwrap();
        let (back, why) = JournalIndex::parse(&text);
        assert!(why.is_none(), "{why:?}");
        assert_eq!(back, index);
        assert_eq!(back.next_seq().unwrap(), 2);

        // A gap in the sequence stops the parse at the valid prefix.
        let gapped = JournalIndex {
            checkpoint: None,
            segments: vec![entry(0), entry(2)],
        };
        let (prefix, why) =
            JournalIndex::parse(&String::from_utf8(gapped.to_json_lines()).unwrap());
        assert_eq!(prefix.segments.len(), 1);
        assert!(why.unwrap().contains("out of order"));

        // A torn trailing line keeps the prefix.
        let mut torn = text.clone();
        torn.truncate(text.len() - 10);
        let (prefix, why) = JournalIndex::parse(&torn);
        assert_eq!(prefix.segments.len(), 1);
        assert!(why.unwrap().contains("bad JSON"));

        // No header at all parses as empty-and-torn.
        let (empty, why) = JournalIndex::parse("");
        assert!(empty.segments.is_empty());
        assert!(why.unwrap().contains("no header"));
    }

    #[test]
    fn checkpoint_digest_rejects_tampering() {
        let mut ckpt = Checkpoint {
            format: SEGMENT_FORMAT_VERSION,
            generation: 1,
            segments_folded: 1,
            events: 1,
            rounds: 0,
            completed: false,
            consumer_total: 0.0,
            seller_total: 0.0,
            bytes_digest: FNV_OFFSET,
            state: {
                let mut s = ProtocolState::new();
                s.apply(&MarketEvent::JobPublished {
                    job: cdt_types::JobSpec::new(4, 2, 10.0).unwrap(),
                })
                .unwrap();
                s
            },
            settlements: vec![],
            digest: 0,
        };
        ckpt.digest = ckpt.content_digest();
        ckpt.validate().unwrap();
        // Any field change breaks the digest.
        let mut forged = ckpt.clone();
        forged.consumer_total = 1.0;
        assert!(forged.validate().is_err());
        // A recomputed digest over inconsistent counts is still caught.
        let mut forged = ckpt.clone();
        forged.rounds = 3;
        forged.digest = forged.content_digest();
        let err = forged.validate().unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn empty_ledger_totals_are_positive_zero() {
        let (consumer, seller) = ledger_totals(&[]);
        assert_eq!((consumer.to_bits(), seller.to_bits()), (0, 0));
    }
}
