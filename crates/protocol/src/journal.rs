//! Crash-safe streaming journal: the protocol member of the obs sink
//! family.
//!
//! [`JournalSink`] replaces the buffer-everything-then-write pattern with a
//! durable streaming writer: each [`MarketEvent`] is validated against the
//! [`ProtocolState`] machine *before* it is serialized, appended to a
//! buffered JSONL writer, and flushed at every settlement boundary
//! (`JobPublished`, each `PaymentsSettled`, `JobCompleted`). The sink
//! writes to `<path>.partial` and atomically renames to `<path>` on
//! [`JournalSink::finish`], so:
//!
//! - a *completed* run's journal appears atomically, byte-identical to the
//!   in-memory [`crate::EventLog::to_json_lines`] serialization;
//! - a *killed* run leaves `<path>.partial`, whose settled-round prefix is
//!   recoverable with [`crate::recover_journal`] — at most the in-flight
//!   round is lost;
//! - a journal already at the path, in either layout, is never replaced
//!   or shadowed: [`JournalSink::create_with`] refuses to start.
//!
//! [`JournalSink::append_round`] writes one settled round of the
//! mechanism's trading loop ([`cdt_core::CmabHs::run`]) as its five Fig. 2
//! events, so `cdt run` and `cdt budget` journal from their `settle` step:
//! a round reaches the journal only once it settles.
//!
//! Like every obs sink, the journal batches its metrics locally and
//! publishes once (`cdt_obs_protocol_events_total`,
//! `cdt_obs_protocol_settled_rounds`, `cdt_obs_protocol_violations_total`,
//! and the `cdt_obs_journal_write_ns` latency histogram) to the
//! observability session it was created with, when that session is
//! enabled; its `journal_write` spans go to the session's sink in bounded
//! batches.
//!
//! Under rotation ([`JournalSink::create_with`] with a [`RotationConfig`])
//! the sink streams into `<path>.seg-NNNN.partial` instead, seals a
//! `<path>.seg-NNNN` segment at the first settlement at or past every
//! `segment_rounds` rounds, and maintains the `<path>.idx` index (see
//! [`crate::segment`] for the layout). Segments split only at settlement
//! boundaries, so the concatenation of all sealed segments is
//! byte-identical to the single-file journal of the same run.

use crate::event::MarketEvent;
use crate::segment::{self, SegmentEntry};
use crate::state::{ProtocolError, ProtocolState};
use cdt_core::RoundOutcome;
use cdt_obs::span::now_ns;
use cdt_obs::{LatencyHistogram, Session, SpanBuffer, SpanRecord};
use cdt_types::json::{self, Codec as _};
use cdt_types::SellerId;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What can go wrong while journaling.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file could not be created, written, or renamed.
    Io(io::Error),
    /// An event violated the protocol state machine (nothing was written).
    Protocol(ProtocolError),
    /// A file, such as a finished journal, is already at the target path;
    /// the final rename would replace it.
    Exists(PathBuf),
    /// A previous run left a recoverable artifact (a `.partial`, segment,
    /// index, or checkpoint) beside the target path; starting a new
    /// journal would clobber or shadow it.
    StaleArtifact(PathBuf),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Protocol(e) => write!(f, "journal rejected event: {e}"),
            JournalError::Exists(path) => write!(
                f,
                "refusing to start journal: {} already exists (a finished journal is never \
                 replaced; choose another path or delete it)",
                path.display()
            ),
            JournalError::StaleArtifact(path) => write!(
                f,
                "refusing to start journal: {} already exists (left by a previous run; \
                 recover it with `cdt journal recover` or delete it)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Protocol(e) => Some(e),
            JournalError::Exists(_) | JournalError::StaleArtifact(_) => None,
        }
    }
}

impl From<segment::SegmentError> for JournalError {
    fn from(e: segment::SegmentError) -> Self {
        match e {
            segment::SegmentError::Io { source, .. } => JournalError::Io(source),
            segment::SegmentError::Corrupt(msg) => JournalError::Io(io::Error::other(msg)),
        }
    }
}

/// Rotation policy for a segmented journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationConfig {
    /// Settled rounds per segment: the sink seals the active segment at
    /// the first settlement boundary at or past this count. Must be at
    /// least 1.
    pub segment_rounds: usize,
}

/// Per-segment bookkeeping of a rotating sink.
#[derive(Debug)]
struct RotationState {
    segment_rounds: usize,
    /// Sequence number of the *active* segment.
    seq: u64,
    /// Segments sealed so far.
    sealed: usize,
    /// The index file's text: the header, then one line per sealed
    /// segment. Each seal appends a line and rewrites the file whole.
    index_text: Vec<u8>,
    segment_events: u64,
    segment_first_round: Option<usize>,
    segment_settled: usize,
    segment_digest: u64,
}

impl RotationState {
    fn new(segment_rounds: usize) -> Self {
        Self {
            segment_rounds,
            seq: 0,
            sealed: 0,
            index_text: segment::index_header_line(),
            segment_events: 0,
            segment_first_round: None,
            segment_settled: 0,
            segment_digest: segment::FNV_OFFSET,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<ProtocolError> for JournalError {
    fn from(e: ProtocolError) -> Self {
        JournalError::Protocol(e)
    }
}

/// Summary of a finished journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReport {
    /// Events written (including the job lifecycle events).
    pub events: u64,
    /// Rounds fully settled in the journal.
    pub settled_rounds: usize,
    /// Whether the journal ends with an accepted `JobCompleted`.
    pub completed: bool,
    /// The final (renamed) journal path. Under rotation this is the base
    /// path the segments and index hang off — no file exists at it.
    pub path: PathBuf,
    /// Segments sealed (0 for a single-file journal).
    pub segments: usize,
}

/// A validating, crash-safe streaming journal writer.
///
/// See the [module docs](self) for the durability contract.
#[derive(Debug)]
pub struct JournalSink {
    writer: BufWriter<File>,
    state: ProtocolState,
    final_path: PathBuf,
    partial_path: PathBuf,
    events: u64,
    violations: u64,
    /// The line being written, reused across events.
    line: Vec<u8>,
    write_ns: LatencyHistogram,
    /// Where the metrics, spans and flush latencies go.
    obs: Session,
    /// `journal_write`/`journal_flush` spans (span tracing only), written
    /// to the session's sink in batches.
    spans: SpanBuffer,
    renamed: bool,
    published_metrics: bool,
    /// `Some` when the sink rotates into `<path>.seg-NNNN` segments.
    rotation: Option<RotationState>,
    /// The vectors of [`JournalSink::append_round`]'s events.
    round_buffers: RoundBuffers,
}

/// An I/O error met creating the journal file at `path`, naming it.
fn cannot_create(path: &Path, e: io::Error) -> JournalError {
    let message = format!("cannot create {}: {e}", path.display());
    JournalError::Io(io::Error::new(e.kind(), message))
}

fn partial_path_for(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".partial");
    PathBuf::from(os)
}

impl JournalSink {
    /// Opens a streaming journal targeting `path`. Writes go to
    /// `<path>.partial` until [`JournalSink::finish`] renames the file
    /// into place.
    ///
    /// # Errors
    /// As [`JournalSink::create_with`].
    pub fn create(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        Self::create_with(path, None, &Session::disabled())
    }

    /// Opens a streaming journal targeting `path`, optionally rotating
    /// into `<path>.seg-NNNN` segments every `rotation.segment_rounds`
    /// settled rounds (see the [module docs](self)), reporting to `obs`.
    ///
    /// # Errors
    /// As [`JournalSink::check_target`], and [`JournalError::Io`] when the
    /// first file cannot be created.
    pub fn create_with(
        path: impl AsRef<Path>,
        rotation: Option<RotationConfig>,
        obs: &Session,
    ) -> Result<Self, JournalError> {
        let final_path = path.as_ref().to_path_buf();
        Self::check_target(&final_path, rotation)?;
        let (partial_path, rotation) = match rotation {
            None => (partial_path_for(&final_path), None),
            Some(cfg) => (
                segment::segment_partial_path(&final_path, 0),
                Some(RotationState::new(cfg.segment_rounds)),
            ),
        };
        let file = File::create(&partial_path).map_err(|e| cannot_create(&partial_path, e))?;
        Ok(Self {
            writer: BufWriter::new(file),
            state: ProtocolState::new(),
            final_path,
            partial_path,
            events: 0,
            violations: 0,
            line: Vec::new(),
            write_ns: LatencyHistogram::new(),
            obs: obs.clone(),
            spans: obs.span_buffer(),
            renamed: false,
            published_metrics: false,
            rotation,
            round_buffers: RoundBuffers::default(),
        })
    }

    /// The checks [`JournalSink::create_with`] makes before it creates
    /// any file, so a caller can make them before it creates files of its
    /// own.
    ///
    /// # Errors
    /// Returns [`JournalError::Exists`] when a file is at `path`, and
    /// [`JournalError::StaleArtifact`] when a partial, segment, index or
    /// checkpoint is beside it. Returns [`JournalError::Io`] when
    /// `rotation.segment_rounds` is 0, and, naming `path`, when its
    /// directory cannot be listed (a missing one among them).
    pub fn check_target(path: &Path, rotation: Option<RotationConfig>) -> Result<(), JournalError> {
        if rotation.is_some_and(|cfg| cfg.segment_rounds == 0) {
            return Err(JournalError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal segment-rounds threshold must be at least 1",
            )));
        }
        // Either layout refuses a journal already at the path: a finished
        // single file would be replaced by the final rename, and a file
        // beside a segmented journal (or segments beside a file) would
        // shadow the other layout on every later load.
        if path.exists() {
            return Err(JournalError::Exists(path.to_path_buf()));
        }
        if let Some(stray) = segment::stray_artifact(path).map_err(|e| cannot_create(path, e))? {
            return Err(JournalError::StaleArtifact(stray));
        }
        Ok(())
    }

    /// The protocol state after every event appended so far.
    #[must_use]
    pub fn state(&self) -> &ProtocolState {
        &self.state
    }

    /// Events written so far.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Where in-flight (unfinished) journal bytes live.
    #[must_use]
    pub fn partial_path(&self) -> &Path {
        &self.partial_path
    }

    /// Validates `event` against the state machine and streams it out.
    /// Settlement boundaries (`JobPublished`, `PaymentsSettled`,
    /// `JobCompleted`) flush the buffered writer so a crash after a
    /// settlement never loses that round.
    ///
    /// # Errors
    /// Returns [`JournalError::Protocol`] when the event is rejected
    /// (nothing is written, state unchanged) or [`JournalError::Io`] on a
    /// write failure.
    pub fn append(&mut self, event: &MarketEvent) -> Result<(), JournalError> {
        if let Err(e) = self.state.apply(event) {
            self.violations += 1;
            return Err(JournalError::Protocol(e));
        }
        self.line.clear();
        event.encode(&mut self.line);
        self.line.push(b'\n');
        if let Some(rot) = &mut self.rotation {
            rot.segment_digest = segment::fnv1a(rot.segment_digest, &self.line);
            rot.segment_events += 1;
            if let MarketEvent::PaymentsSettled { round, .. } = event {
                if rot.segment_first_round.is_none() {
                    rot.segment_first_round = Some(round.index());
                }
                rot.segment_settled += 1;
            }
        }
        let span_start = self.obs.trace().map(|trace| (trace, now_ns()));
        // Only an enabled session (the write histogram, the watchdog's
        // flush latency) reads the write time, so only it pays for it.
        let start = self.obs.is_enabled().then(Instant::now);
        self.writer.write_all(&self.line)?;
        let flushed = event.is_settlement_boundary();
        if flushed {
            self.writer.flush()?;
        }
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.write_ns.record_ns(ns);
            // Settlement-boundary appends are the flush latency signal.
            if let Some(health) = self.obs.health().filter(|_| flushed) {
                health.record_flush_ns(ns);
            }
        }
        if flushed {
            // When tracing, span the write+flush (parented to the active
            // round when the pipeline marked one).
            if let Some((trace, start_ns)) = span_start {
                let round_scope = cdt_obs::span::current_round_scope();
                let parent = round_scope
                    .map(|(id, _)| id)
                    .or_else(cdt_obs::span::current_scope);
                let mut record = SpanRecord::new(
                    trace,
                    cdt_obs::span::next_span_id(),
                    parent,
                    "journal_write",
                    start_ns,
                    now_ns().saturating_sub(start_ns),
                );
                if let Some((_, round)) = round_scope {
                    record = record.with_round(round);
                }
                self.spans.push(&record);
            }
        }
        self.events += 1;
        // Rotate only on a settlement: `JobPublished` never fills a
        // segment, and `JobCompleted` is followed by `finish()`, which
        // seals the active segment itself.
        if matches!(event, MarketEvent::PaymentsSettled { .. })
            && self
                .rotation
                .as_ref()
                .is_some_and(|rot| rot.segment_settled >= rot.segment_rounds)
        {
            self.rotate()?;
        }
        Ok(())
    }

    /// Appends one settled round of the trading loop as its five Fig. 2
    /// events, in protocol order: `SellersSelected`, `StrategyDetermined`,
    /// `DataCollected`, `StatisticsDelivered` and `PaymentsSettled`, each
    /// through [`JournalSink::append`]. The settlement pays `p^J · Στ` and
    /// `p · τ_i`, the expressions of [`cdt_game::StackelbergSolution`]'s
    /// payments. The events' vectors are buffers the sink keeps, so a
    /// round allocates nothing once they have grown to `K`.
    ///
    /// # Errors
    /// As [`JournalSink::append`], for the first event that fails; the
    /// events after it are not written.
    pub fn append_round(&mut self, outcome: &RoundOutcome) -> Result<(), JournalError> {
        let events = self.round_buffers.events(outcome);
        let appended = events.iter().try_for_each(|event| self.append(event));
        self.round_buffers.reclaim(events);
        appended
    }

    /// Seals the active segment: flush + best-effort sync, atomic rename
    /// to its final `seg-NNNN` name, then an atomic index rewrite — in
    /// that order, so every indexed segment exists on disk and a crash
    /// between the two leaves at most one sealed-but-unindexed segment
    /// (which recovery finds by scanning). The index's text grows by one
    /// line per seal; the earlier lines are never re-encoded.
    fn seal_active_segment(&mut self) -> Result<(), JournalError> {
        self.writer.flush()?;
        let _ = self.writer.get_ref().sync_all();
        let rot = self.rotation.as_mut().expect("sealing requires rotation");
        let sealed = segment::segment_path(&self.final_path, rot.seq);
        std::fs::rename(&self.partial_path, &sealed)?;
        let entry = SegmentEntry {
            seq: rot.seq,
            file: sealed
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
            first_round: rot.segment_first_round,
            rounds: rot.segment_settled,
            events: rot.segment_events,
            digest: rot.segment_digest,
            state_after: self.state.clone(),
        };
        json::push_tagged(&mut rot.index_text, "segment", &entry);
        rot.index_text.push(b'\n');
        segment::write_atomic(&segment::index_path(&self.final_path), &rot.index_text)?;
        rot.sealed += 1;
        rot.seq += 1;
        rot.segment_events = 0;
        rot.segment_first_round = None;
        rot.segment_settled = 0;
        rot.segment_digest = segment::FNV_OFFSET;
        Ok(())
    }

    /// Seals the active segment and opens the next one.
    fn rotate(&mut self) -> Result<(), JournalError> {
        self.seal_active_segment()?;
        let seq = self.rotation.as_ref().expect("rotation enabled").seq;
        self.partial_path = segment::segment_partial_path(&self.final_path, seq);
        let file = File::create(&self.partial_path)?;
        self.writer = BufWriter::new(file);
        Ok(())
    }

    /// Flushes, durably syncs, and atomically renames `<path>.partial`
    /// into the final journal path.
    ///
    /// # Errors
    /// Returns the I/O error on flush or rename failure (the partial file
    /// is left in place for recovery).
    pub fn finish(mut self) -> Result<JournalReport, JournalError> {
        let span_start = self.obs.trace().map(|trace| (trace, now_ns()));
        let start = Instant::now();
        if self.rotation.is_some() {
            // Seal the tail segment (possibly short) and leave the index
            // as the journal's durable root; no `<path>` file is created.
            self.seal_active_segment()?;
        } else {
            self.writer.flush()?;
            // Durability is best-effort: a failed fsync still leaves a
            // fully flushed partial file for recovery.
            let _ = self.writer.get_ref().sync_all();
            std::fs::rename(&self.partial_path, &self.final_path)?;
        }
        self.renamed = true;
        if let Some(health) = self.obs.health() {
            health.record_flush_ns(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        if let Some((trace, start_ns)) = span_start {
            self.spans.push(&SpanRecord::new(
                trace,
                cdt_obs::span::next_span_id(),
                cdt_obs::span::current_scope(),
                "journal_flush",
                start_ns,
                now_ns().saturating_sub(start_ns),
            ));
        }
        self.publish_metrics();
        Ok(JournalReport {
            events: self.events,
            settled_rounds: self.state.settled_rounds(),
            completed: self.state.is_completed(),
            path: self.final_path.clone(),
            segments: self.rotation.as_ref().map_or(0, |rot| rot.sealed),
        })
    }

    /// Publishes the locally batched protocol metrics, and the spans not
    /// yet written, to the session, once, if it is enabled.
    fn publish_metrics(&mut self) {
        if self.published_metrics {
            return;
        }
        self.published_metrics = true;
        let Some(registry) = self.obs.registry() else {
            return;
        };
        registry.add_counter("cdt_obs_protocol_events_total", &[], self.events);
        registry.add_counter(
            "cdt_obs_protocol_settled_rounds",
            &[],
            self.state.settled_rounds() as u64,
        );
        if self.violations > 0 {
            registry.add_counter("cdt_obs_protocol_violations_total", &[], self.violations);
        }
        if self.write_ns.count() > 0 {
            registry.merge_histogram("cdt_obs_journal_write_ns", &[], &self.write_ns);
        }
        if let Some(rot) = &self.rotation {
            if rot.sealed > 0 {
                registry.add_counter("cdt_obs_journal_segments_total", &[], rot.sealed as u64);
            }
        }
        self.spans.flush();
    }
}

impl Drop for JournalSink {
    /// The crash/error path: flush what settled and leave `<path>.partial`
    /// on disk for [`crate::recover_journal`]. Metrics still publish so
    /// an aborted run's journal work is visible in the summary.
    fn drop(&mut self) {
        if !self.renamed {
            let _ = self.writer.flush();
        }
        self.publish_metrics();
    }
}

/// The vectors of a round's events, kept across rounds: each round's
/// events take them and hand them back.
#[derive(Debug, Default)]
struct RoundBuffers {
    sellers: Vec<SellerId>,
    sensing_times: Vec<f64>,
    seller_payments: Vec<f64>,
}

impl RoundBuffers {
    /// The five events of one settled round, built over the buffers.
    fn events(&mut self, outcome: &RoundOutcome) -> [MarketEvent; 5] {
        let (round, strategy) = (outcome.round, &outcome.strategy);
        let mut sellers = std::mem::take(&mut self.sellers);
        sellers.clone_from(&outcome.selected);
        let mut sensing_times = std::mem::take(&mut self.sensing_times);
        sensing_times.clone_from(&strategy.sensing_times);
        let mut seller_payments = std::mem::take(&mut self.seller_payments);
        seller_payments.clear();
        seller_payments.extend(
            strategy
                .sensing_times
                .iter()
                .map(|&tau| strategy.collection_price * tau),
        );
        [
            MarketEvent::SellersSelected { round, sellers },
            MarketEvent::StrategyDetermined {
                round,
                service_price: strategy.service_price,
                collection_price: strategy.collection_price,
                sensing_times,
            },
            MarketEvent::DataCollected {
                round,
                observed_revenue: outcome.observed_revenue,
            },
            MarketEvent::StatisticsDelivered { round },
            MarketEvent::PaymentsSettled {
                round,
                consumer_payment: strategy.consumer_payment(),
                seller_payments,
            },
        ]
    }

    /// Takes the buffers back from `events`.
    fn reclaim(&mut self, events: [MarketEvent; 5]) {
        for event in events {
            match event {
                MarketEvent::SellersSelected { sellers, .. } => self.sellers = sellers,
                MarketEvent::StrategyDetermined { sensing_times, .. } => {
                    self.sensing_times = sensing_times;
                }
                MarketEvent::PaymentsSettled {
                    seller_payments, ..
                } => self.seller_payments = seller_payments,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::log::EventLog;
    use crate::segment::{load_journal, recover_journal};
    use cdt_core::{CmabHs, Scenario};
    use cdt_obs::NullObserver;
    use cdt_types::{JobSpec, Round, SimRng};

    fn temp_journal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cdt-journal-{}-{name}.jsonl", std::process::id()));
        p
    }

    fn job_event() -> MarketEvent {
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
                consumer_payment: 20.0,
                seller_payments: vec![3.0, 4.5],
            },
        ]
    }

    #[test]
    fn streams_validates_and_renames_atomically() {
        let path = temp_journal("clean");
        let mut sink = JournalSink::create(&path).unwrap();
        sink.append(&job_event()).unwrap();
        for t in 0..2 {
            for e in round_events(t) {
                sink.append(&e).unwrap();
            }
        }
        // Before finish: only the partial exists.
        assert!(sink.partial_path().exists());
        assert!(!path.exists());
        sink.append(&MarketEvent::JobCompleted { rounds: 2 })
            .unwrap();
        let report = sink.finish().unwrap();
        assert_eq!(report.events, 12);
        assert_eq!(report.settled_rounds, 2);
        assert!(report.completed);
        assert!(path.exists());
        assert!(!partial_path_for(&path).exists());

        // The streamed bytes replay cleanly and match the buffered path.
        let mut log = EventLog::new();
        log.append(job_event()).unwrap();
        for t in 0..2 {
            for e in round_events(t) {
                log.append(e).unwrap();
            }
        }
        log.append(MarketEvent::JobCompleted { rounds: 2 }).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), log.to_json_lines());
        assert_eq!(load_journal(&path).unwrap().state, *log.state());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejected_event_writes_nothing() {
        let path = temp_journal("reject");
        let mut sink = JournalSink::create(&path).unwrap();
        sink.append(&job_event()).unwrap();
        let err = sink
            .append(&MarketEvent::JobCompleted { rounds: 3 })
            .unwrap_err();
        assert!(matches!(err, JournalError::Protocol(_)));
        assert_eq!(sink.events_written(), 1);
        drop(sink);
        // Only the accepted event reached the partial file.
        let text = std::fs::read_to_string(partial_path_for(&path)).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_file(partial_path_for(&path));
    }

    #[test]
    fn dropped_sink_leaves_settled_prefix_in_partial() {
        let path = temp_journal("crash");
        {
            let mut sink = JournalSink::create(&path).unwrap();
            sink.append(&job_event()).unwrap();
            for e in round_events(0) {
                sink.append(&e).unwrap();
            }
            // Start round 1 but never settle it, then "crash" (drop).
            sink.append(&round_events(1)[0]).unwrap();
        }
        assert!(!path.exists());
        let rec = recover_journal(&partial_path_for(&path), false).unwrap();
        assert_eq!(rec.view.settled_rounds(), 1);
        assert!(rec.stop.is_some());
        let _ = std::fs::remove_file(partial_path_for(&path));
    }

    #[test]
    fn stale_partial_is_refused_not_clobbered() {
        let path = temp_journal("stale");
        let partial = partial_path_for(&path);
        std::fs::write(&partial, "recoverable bytes from a killed run\n").unwrap();
        let err = JournalSink::create(&path).unwrap_err();
        assert!(matches!(err, JournalError::StaleArtifact(ref p) if *p == partial));
        assert!(err.to_string().contains("cdt journal recover"), "{err}");
        // The recoverable bytes are untouched.
        let text = std::fs::read_to_string(&partial).unwrap();
        assert_eq!(text, "recoverable bytes from a killed run\n");
        let _ = std::fs::remove_file(&partial);
    }

    #[test]
    fn rotation_refuses_stray_artifacts_and_zero_threshold() {
        let path = temp_journal("stray");
        let err = JournalSink::create_with(
            &path,
            Some(RotationConfig { segment_rounds: 0 }),
            &Session::disabled(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        // Either layout refuses a journal of either layout at the path,
        // and leaves it as it was: a segment or an index beside the path,
        // or a finished single file at it.
        let rotated = Some(RotationConfig { segment_rounds: 2 });
        let stray_seg = crate::segment::segment_path(&path, 3);
        let stray_idx = crate::segment::index_path(&path);
        for (stray, text) in [
            (&stray_seg, "old segment\n"),
            (&stray_idx, "old index\n"),
            (&path, "single-file journal\n"),
        ] {
            std::fs::write(stray, text).unwrap();
            for rotation in [None, rotated] {
                let err =
                    JournalSink::create_with(&path, rotation, &Session::disabled()).unwrap_err();
                assert!(
                    match err {
                        JournalError::Exists(ref p) => p == stray && stray == &path,
                        JournalError::StaleArtifact(ref p) => p == stray && stray != &path,
                        _ => false,
                    },
                    "{rotation:?}: {err}"
                );
                // Only a file beside the path may be a crashed run's,
                // so only that one is sent to recovery.
                let advice = if stray == &path {
                    "finished journal is never replaced"
                } else {
                    "cdt journal recover"
                };
                assert!(err.to_string().contains(advice), "{err}");
                assert!(
                    err.to_string().starts_with("refusing to start journal"),
                    "{err}"
                );
                assert_eq!(std::fs::read_to_string(stray).unwrap(), text);
                assert!(!partial_path_for(&path).exists());
                assert!(!crate::segment::segment_partial_path(&path, 0).exists());
            }
            assert_eq!(path.exists(), stray == &path, "no base file is created");
            std::fs::remove_file(stray).unwrap();
        }
    }

    #[test]
    fn rotated_segments_concatenate_to_the_single_file_journal() {
        let single = temp_journal("rot-single");
        let rotated = temp_journal("rot-segmented");
        let feed = |sink: &mut JournalSink| {
            sink.append(&job_event()).unwrap();
            for t in 0..5 {
                for e in round_events(t) {
                    sink.append(&e).unwrap();
                }
            }
            sink.append(&MarketEvent::JobCompleted { rounds: 5 })
                .unwrap();
        };
        let mut sink = JournalSink::create(&single).unwrap();
        feed(&mut sink);
        sink.finish().unwrap();

        let mut sink = JournalSink::create_with(
            &rotated,
            Some(RotationConfig { segment_rounds: 2 }),
            &Session::disabled(),
        )
        .unwrap();
        feed(&mut sink);
        let report = sink.finish().unwrap();
        assert_eq!(report.events, 27);
        assert_eq!(report.settled_rounds, 5);
        assert!(report.completed);
        assert_eq!(report.segments, 3);
        // No base file: the index is the root.
        assert!(!rotated.exists());
        assert!(crate::segment::index_path(&rotated).exists());

        // 5 rounds at 2 rounds/segment: seg 0 (rounds 0-1), seg 1 (2-3),
        // seg 2 (round 4 + JobCompleted).
        let mut concat = String::new();
        for seq in 0..3 {
            let seg = crate::segment::segment_path(&rotated, seq);
            concat.push_str(&std::fs::read_to_string(&seg).unwrap());
        }
        assert!(!crate::segment::segment_path(&rotated, 3).exists());
        let single_text = std::fs::read_to_string(&single).unwrap();
        assert_eq!(concat, single_text, "segments must concatenate exactly");

        // The strict loader agrees with the single-file view.
        let seg_view = crate::segment::load_journal(&rotated).unwrap();
        let single_view = crate::segment::load_journal(&single).unwrap();
        assert!(seg_view.segmented);
        assert_eq!(seg_view.segments, 3);
        assert_eq!(seg_view.events, single_view.events);
        assert_eq!(seg_view.settlements, single_view.settlements);
        assert_eq!(seg_view.state, single_view.state);

        let _ = std::fs::remove_file(&single);
        for seq in 0..3 {
            let _ = std::fs::remove_file(crate::segment::segment_path(&rotated, seq));
        }
        let _ = std::fs::remove_file(crate::segment::index_path(&rotated));
    }

    /// The sink grows the index by one line per seal instead of
    /// re-encoding every entry, and after each seal the file is exactly
    /// what `JournalIndex::write` makes of the same entries.
    #[test]
    fn each_seal_appends_one_index_line() {
        let path = temp_journal("index-lines");
        let fresh = temp_journal("index-fresh");
        let index_path = crate::segment::index_path;
        let check_index = |seals: usize| {
            let index = crate::segment::JournalIndex::read_strict(&path).unwrap();
            assert_eq!(index.segments.len(), seals);
            index.write(&fresh).unwrap();
            let written = std::fs::read(index_path(&path)).unwrap();
            assert_eq!(written, std::fs::read(index_path(&fresh)).unwrap());
            assert_eq!(written.iter().filter(|&&b| b == b'\n').count(), 1 + seals);
        };
        let mut sink = JournalSink::create_with(
            &path,
            Some(RotationConfig { segment_rounds: 1 }),
            &Session::disabled(),
        )
        .unwrap();
        sink.append(&job_event()).unwrap();
        for t in 0..6 {
            for e in round_events(t) {
                sink.append(&e).unwrap();
            }
            check_index(t + 1);
        }
        sink.append(&MarketEvent::JobCompleted { rounds: 6 })
            .unwrap();
        assert_eq!(sink.finish().unwrap().segments, 7);
        check_index(7);
        for seq in 0..7 {
            let _ = std::fs::remove_file(crate::segment::segment_path(&path, seq));
        }
        let _ = std::fs::remove_file(index_path(&path));
        let _ = std::fs::remove_file(index_path(&fresh));
    }

    #[test]
    fn dropped_rotating_sink_leaves_sealed_segments_and_partial() {
        let path = temp_journal("rot-crash");
        {
            let mut sink = JournalSink::create_with(
                &path,
                Some(RotationConfig { segment_rounds: 1 }),
                &Session::disabled(),
            )
            .unwrap();
            sink.append(&job_event()).unwrap();
            for e in round_events(0) {
                sink.append(&e).unwrap();
            }
            // Round 1 starts but never settles; then the process "dies".
            sink.append(&round_events(1)[0]).unwrap();
        }
        assert!(crate::segment::segment_path(&path, 0).exists());
        assert!(crate::segment::segment_partial_path(&path, 1).exists());
        let rec = recover_journal(&path, false).unwrap();
        assert!(rec.view.segmented);
        assert_eq!(rec.view.settled_rounds(), 1);
        assert!(rec.view.state.at_round_boundary());
        assert!(rec.stop.is_some());
        let _ = std::fs::remove_file(crate::segment::segment_path(&path, 0));
        let _ = std::fs::remove_file(crate::segment::segment_partial_path(&path, 1));
        let _ = std::fs::remove_file(crate::segment::index_path(&path));
    }

    /// Runs the mechanism on a paper-default scenario, journaling every
    /// settled round to `path`, and returns the run's outcomes.
    fn journal_a_run(path: &Path, seed: u64, shape: [usize; 4]) -> Vec<RoundOutcome> {
        let [m, k, l, n] = shape;
        let mut rng = SimRng::new(seed);
        let scenario = Scenario::paper_defaults(m, k, l, n, &mut rng).unwrap();
        let mut mech = CmabHs::new(scenario.config.clone());
        let mut sink = JournalSink::create(path).unwrap();
        sink.append(&MarketEvent::JobPublished {
            job: scenario.config.job.clone(),
        })
        .unwrap();
        let mut outcomes = Vec::new();
        mech.run(&scenario.observer(), &mut rng, &mut NullObserver, |o, _| {
            outcomes.push(o.clone());
            sink.append_round(o)?;
            Ok::<_, Box<dyn std::error::Error>>(true)
        })
        .unwrap();
        let rounds = sink.state().settled_rounds();
        sink.append(&MarketEvent::JobCompleted { rounds }).unwrap();
        sink.finish().unwrap();
        outcomes
    }

    #[test]
    fn full_mechanism_run_journals_cleanly() {
        // Every round the real mechanism produces must pass the protocol
        // state machine — selection arity, strategy arity, and settlement
        // amounts all line up by construction.
        let path = temp_journal("mechanism");
        let outcomes = journal_a_run(&path, 1, [10, 3, 4, 15]);
        let view = load_journal(&path).unwrap();
        assert!(view.completed());
        assert_eq!(view.settled_rounds(), 15);
        assert_eq!(view.events, 2 + 5 * 15);
        // The journal's audit totals match the economics of the run.
        let paid: f64 = outcomes.iter().map(|o| o.strategy.consumer_payment()).sum();
        assert!((view.consumer_total() - paid).abs() < 1e-6 * paid);
        assert!(view.seller_total() > 0.0);
        assert!(view.consumer_total() > view.seller_total());
        let _ = std::fs::remove_file(&path);
    }

    /// Each round's five events carry the outcome's values, the payments
    /// bit for bit as `p^J · Στ` and `p · τ_i`, and no buffer keeps a
    /// value of the round before (round 0 selects all `M`, round 1 `K`).
    #[test]
    fn events_match_outcome_amounts() {
        let path = temp_journal("amounts");
        let outcomes = journal_a_run(&path, 2, [6, 2, 3, 3]);
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<MarketEvent> = text
            .lines()
            .map(|line| codec::event_from_line(line).unwrap())
            .collect();
        assert_eq!(events.len(), 2 + 5 * outcomes.len());
        for (o, round) in outcomes.iter().zip(events[1..].chunks(5)) {
            let (t, s) = (o.round, &o.strategy);
            let expected = [
                MarketEvent::SellersSelected {
                    round: t,
                    sellers: o.selected.clone(),
                },
                MarketEvent::StrategyDetermined {
                    round: t,
                    service_price: s.service_price,
                    collection_price: s.collection_price,
                    sensing_times: s.sensing_times.clone(),
                },
                MarketEvent::DataCollected {
                    round: t,
                    observed_revenue: o.observed_revenue,
                },
                MarketEvent::StatisticsDelivered { round: t },
                MarketEvent::PaymentsSettled {
                    round: t,
                    consumer_payment: s.service_price * s.sensing_times.iter().sum::<f64>(),
                    seller_payments: s
                        .sensing_times
                        .iter()
                        .map(|&tau| s.collection_price * tau)
                        .collect(),
                },
            ];
            assert_eq!(round, expected);
        }
        assert_eq!(outcomes[0].selection_size(), 6);
        assert_eq!(outcomes[1].selection_size(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
