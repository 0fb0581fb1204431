//! # cdt-bandit
//!
//! The combinatorial multi-armed bandit (CMAB) substrate of CMAB-HS
//! (An et al., ICDE 2021, Secs. II-B, III-A and IV-A).
//!
//! The platform treats each of the `M` sellers as an arm and pulls `K` arms
//! per round (Def. 6). This crate provides:
//!
//! - [`estimator`]: the sample-mean quality learner of Eqs. 17–18 (the
//!   counter credits `L` observations per selection because a selected
//!   seller covers all `L` PoIs);
//! - [`index`]: the extended UCB index of Eq. 19,
//!   `q̂_i = q̄_i + sqrt((K+1)·ln(Σ_j n_j) / n_i)`;
//! - [`topk`]: deterministic top-K selection: one integer-key ranking
//!   routine for three candidate generators, a threshold pass over every
//!   score and, for CMAB-HS, count buckets that score `O(G · K)` arms and
//!   a fused bound that scores a few times `K` arms exactly;
//! - [`policy`]: the [`SelectionPolicy`] abstraction plus all policies used
//!   in the paper's evaluation (CMAB-HS UCB, ε-first, random, optimal) and
//!   two extensions (ε-greedy, Thompson sampling, classical CUCB);
//! - [`regret`]: regret accounting against the clairvoyant optimal policy
//!   and the closed-form bound of Lemma 18 / Theorem 19.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod buckets;
pub mod estimator;
mod fused;
pub mod index;
pub mod policies;
pub mod policy;
pub mod regret;
pub mod topk;
pub mod windowed;

pub use estimator::QualityEstimator;
pub use index::{ucb_indices, UcbConfig};
pub use policies::{
    CmabUcbPolicy, CucbPolicy, EpsilonFirstPolicy, EpsilonGreedyPolicy, OraclePolicy, RandomPolicy,
    SlidingWindowUcbPolicy, ThompsonPolicy,
};
pub use policy::SelectionPolicy;
pub use regret::{gap_statistics, theoretical_regret_bound, GapStatistics, RegretAccountant};
pub use topk::top_k_by_score;
pub use windowed::SlidingWindowEstimator;
