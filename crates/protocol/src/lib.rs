//! # cdt-protocol
//!
//! The CDT trading workflow of the paper's Fig. 2, as an auditable event
//! protocol. Each round proceeds:
//!
//! 1. consumer publishes the job (once, before round 0);
//! 2. platform selects sellers;
//! 3. the three parties determine the incentive strategy (HS game);
//! 4. selected sellers collect data;
//! 5. platform aggregates and delivers statistics;
//! 6. consumer and platform settle payments.
//!
//! The paper treats this loop informally; a deployable market needs the
//! ordering *enforced* and the history *replayable* for dispute audit.
//! This crate provides:
//!
//! - [`event`]: the typed [`MarketEvent`]s of the workflow;
//! - [`state`]: a per-round state machine rejecting out-of-order or
//!   inconsistent events (e.g. settling a round whose data never arrived,
//!   or paying a different amount than the agreed strategy implies);
//! - [`log`]: an append-only [`EventLog`] that validates every append
//!   and writes its history as journal text;
//! - `codec`: the layouts of the journal's files (event lines, index
//!   lines, checkpoints) on the workspace codec [`cdt_types::json`],
//!   writing into reused byte buffers and reading with a cursor parser;
//! - [`journal`]: the one journal writer, a crash-safe streaming
//!   [`JournalSink`] (validate → buffered append → flush on settlement →
//!   atomic rename on completion) that publishes `cdt_obs_protocol_*`
//!   metrics. [`JournalSink::append_round`] writes one settled
//!   [`cdt_core::RoundOutcome`] as its five events, so a mechanism run is
//!   journaled from its `settle` step, one call per round;
//! - [`recover`]: the one replay every journal reader runs — strict, or
//!   truncation-tolerant, recovering the longest settled-round prefix of
//!   a crashed run's journal;
//! - [`diff`]: round-aligned settlement comparison between two journals
//!   (`cdt journal diff`): two runs of one scenario and seed diff to zero;
//! - [`segment`]: the journal layouts and their readers — a single file,
//!   or the `<path>.seg-NNNN` files, the `<path>.idx` round-range index,
//!   and the compaction checkpoints (`cdt journal compact`) that fold a
//!   settled prefix into a digest-verified [`ProtocolState`] snapshot,
//!   making replay-to-round an index lookup plus one segment scan. Every
//!   reader ([`load_journal`], [`recover_journal`], [`replay_to_round`],
//!   [`compact_journal`]) feeds the one replay; they differ only in which
//!   files they feed it.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod codec;
pub mod diff;
pub mod event;
pub mod journal;
pub mod log;
pub mod recover;
pub mod segment;
pub mod state;

pub use diff::{diff_settlement_rows, SettlementDiff, SettlementRow};
pub use event::MarketEvent;
pub use journal::{JournalError, JournalReport, JournalSink, RotationConfig};
pub use log::EventLog;
pub use recover::{JournalRecovery, RecoveryStop};
pub use segment::{
    compact_journal, load_journal, load_journal_text, recover_journal, replay_to_round,
    CompactReport, JournalView, RoundLookup, SegmentError,
};
pub use state::{ProtocolError, ProtocolState};
