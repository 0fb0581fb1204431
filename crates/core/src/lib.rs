//! # cdt-core
//!
//! The **CMAB-HS** crowdsensing data trading mechanism of
//! *"Crowdsensing Data Trading based on Combinatorial Multi-Armed Bandit
//! and Stackelberg Game"* (An, Xiao, Liu, Xie, Zhou — ICDE 2021).
//!
//! This crate is the paper's primary contribution assembled from the
//! workspace substrates:
//!
//! - seller selection: the extended-UCB CMAB policy
//!   ([`cdt_bandit::CmabUcbPolicy`], Eq. 19 / Algorithm 1 steps 7–10);
//! - incentive strategy: the three-stage hierarchical Stackelberg game
//!   ([`cdt_game::solve_equilibrium`], Theorems 14–16 / step 11);
//! - the initial exploration round (steps 2–5);
//! - the workspace's one trading loop ([`CmabHs::run`]): every round is
//!   stepped through [`CmabHs::step`], the crate's one round entry point,
//!   then settled by the caller's rule — every round for the paper's job,
//!   a spend ceiling for a [`Budget`], regret and checkpoints for the
//!   evaluation's policies — which records what it settles into a
//!   [`TradingLedger`] of revenues, payments, and profits;
//! - any selection policy in the same loop ([`CmabHs::with_policy`]), so
//!   the baselines (ε-first, random, optimal) trade as CMAB-HS does.
//!
//! # Quickstart
//!
//! ```
//! use cdt_core::prelude::*;
//! use cdt_types::SimRng;
//!
//! // A ready-made paper-default scenario: M sellers, K selected per
//! // round, L PoIs, N rounds.
//! let mut rng = SimRng::new(42);
//! let scenario = Scenario::paper_defaults(20, 5, 4, 50, &mut rng).unwrap();
//! let mut mechanism = CmabHs::new(scenario.config.clone());
//! let observer = scenario.observer();
//! // Settle every round into a ledger: the paper's job of N rounds.
//! let mut ledger = TradingLedger::default();
//! mechanism
//!     .run(&observer, &mut rng, &mut NullObserver, |outcome, _| {
//!         ledger.record(outcome);
//!         Ok::<_, CdtError>(true)
//!     })
//!     .unwrap();
//! assert_eq!(ledger.rounds(), 50);
//! assert!(ledger.total_observed_revenue() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod budget;
pub mod ledger;
pub mod mechanism;
pub mod round;
pub mod scenario;

pub use budget::Budget;
pub use ledger::TradingLedger;
pub use mechanism::CmabHs;
pub use round::{RoundOutcome, RoundScratch};
pub use scenario::Scenario;

// Observability surface: downstream users implement `RoundObserver` (or use
// the built-in recorder/pipeline observers) and pass it to `CmabHs::run` or
// `CmabHs::step`; `NullObserver` is the statically disabled default.
pub use cdt_obs::{NullObserver, RecordingObserver, RoundObserver};

/// Convenient re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::budget::Budget;
    pub use crate::ledger::TradingLedger;
    pub use crate::mechanism::CmabHs;
    pub use crate::round::{RoundOutcome, RoundScratch};
    pub use crate::scenario::Scenario;
    pub use cdt_bandit::{
        CmabUcbPolicy, EpsilonFirstPolicy, OraclePolicy, RandomPolicy, SelectionPolicy,
    };
    pub use cdt_game::{solve_equilibrium, GameContext, SelectedSeller, StackelbergSolution};
    pub use cdt_obs::{NullObserver, RoundObserver};
    pub use cdt_quality::{QualityObserver, SellerPopulation};
    pub use cdt_types::{
        CdtError, JobSpec, PlatformCostParams, PriceBounds, Round, SellerCostParams, SellerId,
        SystemConfig, ValuationParams,
    };
}
