//! # cdt-game
//!
//! The three-stage Hierarchical Stackelberg (HS) game of CMAB-HS
//! (An et al., ICDE 2021, Sec. II-C and III-B).
//!
//! Players, top-down:
//!
//! 1. **Consumer** (first-tier leader) picks the unit data-*service* price
//!    `p^J ∈ [p^J_min, p^J_max]` to maximize `Φ = φ(τ, q̄) − p^J Στ` (Eq. 9).
//! 2. **Platform** (second-tier leader) picks the unit data-*collection*
//!    price `p ∈ [p_min, p_max]` to maximize
//!    `Ω = (p^J − p) Στ − C^J(τ)` (Eq. 7).
//! 3. **Sellers** (followers) pick sensing times `τ_i ∈ [0, T]` to maximize
//!    `Ψ_i = p τ_i − C_i(τ_i, q̄_i)` (Eq. 5).
//!
//! Solved by backward induction with the paper's closed forms
//! (Theorems 14–16); [`numeric`] provides an independent golden-section
//! maximizer used to cross-validate every closed form, and [`verify`]
//! checks the Stackelberg-equilibrium inequalities of Def. 13 directly.
//!
//! # Example
//!
//! ```
//! use cdt_game::{GameContext, SelectedSeller, solve_equilibrium};
//! use cdt_types::{PlatformCostParams, PriceBounds, SellerCostParams, SellerId, ValuationParams};
//!
//! let sellers = vec![
//!     SelectedSeller::new(SellerId(0), 0.8, SellerCostParams::new(0.3, 0.5).unwrap()),
//!     SelectedSeller::new(SellerId(1), 0.6, SellerCostParams::new(0.2, 0.4).unwrap()),
//! ];
//! let ctx = GameContext::new(
//!     sellers,
//!     PlatformCostParams::new(0.1, 1.0).unwrap(),
//!     ValuationParams::new(1000.0).unwrap(),
//!     PriceBounds::unbounded(),
//!     PriceBounds::unbounded(),
//!     f64::MAX,
//! )
//! .unwrap();
//! let eq = solve_equilibrium(&ctx);
//! assert!(eq.profits.consumer > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod best_response;
pub mod context;
pub mod equilibrium;
pub mod initial;
pub mod numeric;
pub mod profit;
pub mod verify;
pub mod welfare;

pub use best_response::{
    consumer_best_response, platform_best_response, seller_best_response, Aggregates,
};
pub use context::{GameContext, SelectedSeller};
pub use equilibrium::{solve_equilibrium, solve_equilibrium_into, Profits, StackelbergSolution};
pub use initial::initial_round_strategy;
pub use profit::{consumer_profit, platform_profit, seller_profit};
pub use verify::{verify_equilibrium, DeviationReport};
pub use welfare::{efficient_allocation, social_welfare, welfare_report, WelfareReport};
