//! # cdt-sim
//!
//! The evaluation engine for CMAB-HS: runs the paper's comparison
//! algorithms through the identical trading loop, accounts revenue /
//! regret / per-party profits, sweeps parameters, and regenerates the data
//! series behind every figure of the paper's evaluation (Sec. V).
//!
//! Layout:
//! - [`settings`]: the Table II simulation grid and defaults;
//! - [`policy_spec`]: declarative policy construction
//!   ([`PolicySpec::CmabHs`], [`PolicySpec::EpsilonFirst`], …);
//! - [`runner`]: one policy × one scenario → a [`RunResult`] with
//!   checkpointed revenue/regret/profit series;
//! - [`parallel`]: the deterministic job pool every fan-out runs on
//!   (`--threads` / `CDT_THREADS`, the one execution knob; results
//!   gathered by job index, so output is bit-for-bit identical to the
//!   serial path);
//! - [`cells`]: a whole sweep grid flattened into one stream of
//!   [`cells::CellJob`]s on the pool, one [`run_policy`] per job;
//! - [`compare`]: many policies on a common scenario;
//! - [`report`]: plain-text tables and CSV export;
//! - [`experiments`]: one module per paper figure (7–18).
//!
//! Observability: [`runner::run_policy`] consults the globally installed
//! `cdt_obs` pipeline, so installing one (`cdt_obs::install`) instruments
//! every experiment and comparison without changing any signature; the
//! job pool in [`parallel`] publishes per-worker introspection to the same
//! registry while a pipeline is active.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cells;
pub mod compare;
pub mod experiments;
pub mod parallel;
pub mod policy_spec;
pub mod replicate;
pub mod report;
pub mod runner;
pub mod settings;

pub use cells::{run_cells, CellJob};
pub use compare::{compare_policies, compare_policies_grid, ComparisonResult};
pub use parallel::{configured_threads, parallel_map, set_thread_override, try_parallel_map};
pub use policy_spec::PolicySpec;
pub use replicate::{replicate, replication_table, Replicated, ReplicatedRun};
pub use report::{Series, Table};
pub use runner::{run_policy, run_policy_observed, Checkpoint, RunResult};
pub use settings::SimSettings;
