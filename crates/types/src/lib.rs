//! # cdt-types
//!
//! Shared domain vocabulary for the CMAB-HS crowdsensing data trading (CDT)
//! system (An et al., ICDE 2021).
//!
//! The crate is deliberately dependency-light: it defines the identifiers,
//! validated parameter sets, price bounds, and error types used by every
//! other crate in the workspace, mirroring the notation of Table I of the
//! paper:
//!
//! | Paper symbol | Type here |
//! |---|---|
//! | `i ∈ M` (seller index) | [`SellerId`] |
//! | `l ∈ L` (PoI index) | [`PoiId`] |
//! | `t ∈ [1, N]` (round index) | [`Round`] |
//! | `a_i, b_i` (seller cost params) | [`SellerCostParams`] |
//! | `θ, λ` (platform cost params) | [`PlatformCostParams`] |
//! | `ω` (consumer valuation param) | [`ValuationParams`] |
//! | `[p_min, p_max]`, `[p^J_min, p^J_max]` | [`PriceBounds`] |
//! | `⟨L, N, T, Des⟩` (job) | [`JobSpec`] |

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod check;
pub mod config;
pub mod error;
pub mod ids;
pub mod json;
pub mod params;
pub mod rng;
pub mod seed;

pub use config::{JobSpec, SystemConfig, SystemConfigBuilder};
pub use error::{CdtError, Result};
pub use ids::{PoiId, Round, SellerId};
pub use params::{
    PlatformCostParams, PriceBounds, SellerCostParams, ValuationParams, QUALITY_FLOOR,
};
pub use rng::SimRng;
pub use seed::mix_seed;

/// Numerical tolerance used across the workspace when comparing `f64`
/// quantities that result from closed-form algebra (profits, prices, times).
pub const EPSILON: f64 = 1e-9;
