//! The [`RoundObserver`] trait: structured hooks into the trading-round
//! lifecycle.
//!
//! The hooks mirror the phases of Algorithm 1's loop body — selection,
//! Stackelberg solve, observation, accounting — and carry borrowed payloads
//! so that emitting an event never allocates on its own. Every hook has a
//! no-op default, and [`NullObserver`] sets [`RoundObserver::ENABLED`] to
//! `false`, so instrumented code can skip event construction *and* clock
//! reads entirely when nobody is listening: the null path monomorphizes to
//! exactly the uninstrumented code.

use cdt_types::{Round, SellerId};

/// The phases of one trading round, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Seller selection (UCB index + top-K, Alg. 1 steps 7–10).
    Selection,
    /// Stackelberg equilibrium solve (step 11) including game-context setup.
    Solve,
    /// Quality observation sampling plus estimator update (steps 5 / 12).
    Observe,
    /// Caller-side accounting: regret bookkeeping, profit sums, checkpoints.
    Account,
}

impl Phase {
    /// All phases, in execution order.
    pub const ALL: [Phase; 4] = [
        Phase::Selection,
        Phase::Solve,
        Phase::Observe,
        Phase::Account,
    ];

    /// Stable lower-case name (used as the `phase` metric label).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Selection => "selection",
            Phase::Solve => "solve",
            Phase::Observe => "observe",
            Phase::Account => "account",
        }
    }
}

/// Payload of the [`RoundObserver::selection`] hook.
#[derive(Debug, Clone, Copy)]
pub struct SelectionEvent<'a> {
    /// The sellers selected this round, in selection order.
    pub selected: &'a [SellerId],
    /// The policy's ranking score for each selected seller, parallel to
    /// `selected` — the extended-UCB index `q̂_i` (Eq. 19) for CMAB-HS,
    /// the plain quality estimate for policies without an index.
    pub scores: &'a [f64],
}

/// Payload of the [`RoundObserver::equilibrium`] hook: the Stackelberg
/// strategy `⟨p^{J*}, p*, τ*⟩` and the profits it induces.
#[derive(Debug, Clone, Copy)]
pub struct EquilibriumEvent<'a> {
    /// Consumer's service price `p^{J*}`.
    pub service_price: f64,
    /// Platform's collection price `p*`.
    pub collection_price: f64,
    /// Sellers' sensing times `τ_i*`, in selection order.
    pub sensing_times: &'a [f64],
    /// Consumer profit at the equilibrium.
    pub consumer_profit: f64,
    /// Platform profit at the equilibrium.
    pub platform_profit: f64,
    /// Total seller profit at the equilibrium.
    pub seller_profit: f64,
}

/// Payload of the [`RoundObserver::observation`] hook.
#[derive(Debug, Clone, Copy)]
pub struct ObservationEvent {
    /// Realized revenue `Σ_i Σ_l q_{i,l}` of the round's observations.
    pub observed_revenue: f64,
    /// Number of quality samples drawn (`|selected| × L`).
    pub samples: usize,
}

/// Payload of the [`RoundObserver::round_end`] hook: the round's outcome
/// plus the monotonic phase timings measured inside the round.
#[derive(Debug, Clone, Copy)]
pub struct RoundEndEvent {
    /// Realized (sampled) revenue of the round.
    pub observed_revenue: f64,
    /// Consumer profit of the round's strategy.
    pub consumer_profit: f64,
    /// Platform profit of the round's strategy.
    pub platform_profit: f64,
    /// Total seller profit of the round's strategy.
    pub seller_profit: f64,
    /// Nanoseconds spent selecting sellers ([`Phase::Selection`]).
    pub selection_ns: u64,
    /// Nanoseconds spent solving the game ([`Phase::Solve`]).
    pub solve_ns: u64,
    /// Nanoseconds spent sampling + learning ([`Phase::Observe`]).
    pub observe_ns: u64,
}

/// Structured hooks into the round lifecycle.
///
/// Implementations must be *passive*: a hook must never touch the RNG
/// streams or mutate anything the trading loop reads, so that results stay
/// bit-for-bit identical with any observer attached (enforced by the
/// `integration_obs` tests).
pub trait RoundObserver {
    /// Whether this observer wants events at all. Instrumented code gates
    /// event construction and every `Instant` read on this constant, so a
    /// `false` observer compiles down to the uninstrumented hot path.
    const ENABLED: bool = true;

    /// The round is about to execute.
    fn round_start(&mut self, round: Round) {
        let _ = round;
    }

    /// Sellers have been selected.
    fn selection(&mut self, round: Round, event: &SelectionEvent<'_>) {
        let _ = (round, event);
    }

    /// The incentive strategy for the round has been determined.
    fn equilibrium(&mut self, round: Round, event: &EquilibriumEvent<'_>) {
        let _ = (round, event);
    }

    /// The selected sellers' qualities have been observed.
    fn observation(&mut self, round: Round, event: &ObservationEvent) {
        let _ = (round, event);
    }

    /// The round finished (selection/solve/observe timings included).
    fn round_end(&mut self, round: Round, event: &RoundEndEvent) {
        let _ = (round, event);
    }

    /// Cumulative expected regret after the caller's accounting phase.
    /// Emitted by evaluation loops that track regret (not by the bare
    /// mechanism, which has no clairvoyant reference).
    fn regret(&mut self, round: Round, cumulative_regret: f64, account_ns: u64) {
        let _ = (round, cumulative_regret, account_ns);
    }
}

/// The default observer: statically disabled, zero overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        const { assert!(!NullObserver::ENABLED) };
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(names, ["selection", "solve", "observe", "account"]);
    }

    #[test]
    fn default_hooks_are_no_ops() {
        struct Plain;
        impl RoundObserver for Plain {}
        const { assert!(Plain::ENABLED) };
        let mut p = Plain;
        p.round_start(Round(0));
        p.observation(
            Round(0),
            &ObservationEvent {
                observed_revenue: 1.0,
                samples: 4,
            },
        );
        p.regret(Round(0), 0.5, 10);
    }
}
