//! # cdt-quality
//!
//! Sensing-quality ground truth and observation substrate for CMAB-HS.
//!
//! The paper (Sec. V-A) generates each seller's *expected* quality `q_i`
//! uniformly from `[0, 1]` and draws the per-PoI *observed* qualities
//! `q_{i,l}^t` from a truncated Gaussian on `[0, 1]` centred at `q_i`.
//! This crate provides:
//!
//! - [`math`]: special functions (erf, the normal CDF and density, the
//!   truncated-normal mean) implemented in-crate so the workspace needs no
//!   external statistics dependency;
//! - [`distribution`]: the observation model, [`TruncatedGaussian`];
//! - [`population`]: seeded generation of whole seller populations;
//! - [`observe`]: the per-round observation matrix `{q_{i,l}^t}`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod distribution;
pub mod drift;
pub mod math;
pub mod observe;
pub mod population;

pub use distribution::TruncatedGaussian;
pub use drift::{DriftModel, DriftingObserver};
pub use observe::{ObservationMatrix, QualityObserver};
pub use population::{SellerPopulation, SellerProfile};
