//! One trading round: selection → incentive game → data collection →
//! learning (the loop body of Algorithm 1).
//!
//! The round body reports per-phase wall time through the passive
//! [`RoundObserver`] hooks; with span tracing enabled the observability
//! pipeline turns those same hook timings into `selection`/`solve`/
//! `observe` child spans of the round — this module never touches span or
//! trace state itself, so the hot path stays observer-gated only.

use cdt_bandit::SelectionPolicy;
use cdt_game::{
    initial_round_strategy, solve_equilibrium_into, GameContext, SelectedSeller,
    StackelbergSolution,
};
use cdt_obs::{
    EquilibriumEvent, ObservationEvent, PhaseTimer, RoundEndEvent, RoundObserver, SelectionEvent,
};
use cdt_quality::{ObservationMatrix, QualityObserver};
use cdt_types::{Result, Round, SellerId, SimRng, SystemConfig};

/// Whether a reused context's economic parameters still match the config —
/// the precondition for refilling the seller columns in place instead of
/// reconstructing (and revalidating) the context.
fn context_params_match(ctx: &GameContext, config: &SystemConfig) -> bool {
    ctx.platform_cost == config.platform_cost
        && ctx.valuation == config.valuation
        && ctx.collection_price_bounds == config.collection_price_bounds
        && ctx.service_price_bounds == config.service_price_bounds
        && ctx.max_sensing_time == config.job.round_duration
}

/// Everything that happened in one round of data trading.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Which round this was.
    pub round: Round,
    /// The sellers selected this round (all `M` in round 0, `K` after).
    pub selected: Vec<SellerId>,
    /// The incentive strategy `⟨p^J, p, τ⟩` and the induced profits.
    pub strategy: StackelbergSolution,
    /// Realized revenue: the sum of all observed qualities
    /// `Σ_i Σ_l q_{i,l}^t` (Eq. 1's per-round contribution).
    pub observed_revenue: f64,
}

impl RoundOutcome {
    /// Number of sellers selected this round.
    #[must_use]
    pub fn selection_size(&self) -> usize {
        self.selected.len()
    }
}

/// Reusable buffers for the round hot path.
///
/// One round touches several growable buffers: the selection, the game
/// context's seller columns, the observation matrix, and the equilibrium
/// solution's sensing-time/profit vectors. A `RoundScratch` owns all of
/// them so that [`crate::CmabHs::step`] runs allocation-free after the
/// first round — essential when the evaluation loop executes `N = 10⁵`
/// rounds per (policy × replication) cell. Every non-initial round solves
/// the game afresh into the strategy buffer (Alg. 1 step 11); the closed
/// forms of Thms 14–16 cost well under a microsecond at Table II.
#[derive(Debug)]
pub struct RoundScratch {
    outcome: RoundOutcome,
    /// The reusable game context: economic parameters validated once, the
    /// seller columns refilled in place each round.
    ctx: Option<GameContext>,
    observations: ObservationMatrix,
    /// Selection-score buffer, filled only when an enabled observer asks
    /// for the per-seller indices (never touched on the null path).
    scores: Vec<f64>,
}

impl RoundScratch {
    /// Fresh, empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self {
            outcome: RoundOutcome {
                round: Round(0),
                selected: Vec::new(),
                strategy: StackelbergSolution::empty(),
                observed_revenue: 0.0,
            },
            ctx: None,
            observations: ObservationMatrix::empty(),
            scores: Vec::new(),
        }
    }
}

impl Default for RoundScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Executes one complete round against a hidden environment, writing it
/// into `scratch`:
///
/// 1. the policy selects sellers (Alg. 1 steps 2–3 / 7–10);
/// 2. the incentive strategy is determined — the fixed initial-round
///    profile in round 0 (steps 3–4), the Stackelberg equilibrium
///    otherwise (step 11);
/// 3. the selected sellers collect data at all `L` PoIs
///    ([`QualityObserver::observe_round_into`]);
/// 4. the policy learns from the observations (steps 5 / 12).
///
/// The body is policy-generic, so the evaluation's baselines (ε-first,
/// random, optimal) trade through the *identical* loop; its one caller is
/// [`crate::CmabHs::step`].
///
/// Emits structured events to `obs` and measures per-phase wall clock
/// (selection / solve / observe). Statically dispatched: with
/// [`cdt_obs::NullObserver`] (whose [`RoundObserver::ENABLED`] is `false`)
/// every event construction and every clock read compiles away, leaving
/// exactly the uninstrumented hot path. Observer hooks run *between*
/// phases and the timer re-arms after each one, so hook time never
/// pollutes phase measurements — and because observers are passive (no
/// RNG access), results are bit-identical with any observer attached.
///
/// # Errors
/// Propagates [`cdt_types::CdtError`] from game-context construction
/// (e.g. an empty selection).
pub(crate) fn play_round<'a, O: RoundObserver>(
    policy: &mut dyn SelectionPolicy,
    config: &SystemConfig,
    observer: &QualityObserver,
    round: Round,
    rng: &mut SimRng,
    scratch: &'a mut RoundScratch,
    obs: &mut O,
) -> Result<&'a RoundOutcome> {
    let RoundScratch {
        outcome,
        ctx: ctx_slot,
        observations,
        scores,
    } = scratch;
    if O::ENABLED {
        obs.round_start(round);
    }
    let mut timer = PhaseTimer::start(O::ENABLED);

    policy.select_into(round, rng, &mut outcome.selected);
    let selection_ns = timer.lap();
    if O::ENABLED {
        scores.clear();
        scores.extend(
            outcome
                .selected
                .iter()
                .map(|&id| policy.selection_score(id)),
        );
        obs.selection(
            round,
            &SelectionEvent {
                selected: &outcome.selected,
                scores,
            },
        );
        timer.skip();
    }

    // Build the game context — in place when the slot already holds one
    // for the same economic parameters (validated once at construction),
    // from scratch otherwise.
    {
        let selected = &outcome.selected;
        let sellers = selected
            .iter()
            .map(|&id| SelectedSeller::new(id, policy.game_quality(id), config.seller_cost(id)));
        match &mut *ctx_slot {
            Some(ctx) if context_params_match(ctx, config) => ctx.refill_sellers(sellers)?,
            slot => {
                *slot = Some(GameContext::new(
                    sellers.collect(),
                    config.platform_cost,
                    config.valuation,
                    config.collection_price_bounds,
                    config.service_price_bounds,
                    config.job.round_duration,
                )?);
            }
        }
    }
    let ctx = ctx_slot.as_ref().expect("context was just built");

    if round.is_initial() {
        outcome.strategy = initial_round_strategy(ctx, config.initial_sensing_time);
    } else {
        solve_equilibrium_into(ctx, &mut outcome.strategy);
    }
    let solve_ns = timer.lap();
    if O::ENABLED {
        let strategy = &outcome.strategy;
        obs.equilibrium(
            round,
            &EquilibriumEvent {
                service_price: strategy.service_price,
                collection_price: strategy.collection_price,
                sensing_times: &strategy.sensing_times,
                consumer_profit: strategy.profits.consumer,
                platform_profit: strategy.profits.platform,
                seller_profit: strategy.profits.total_seller(),
            },
        );
        timer.skip();
    }

    observer.observe_round_into(&outcome.selected, rng, observations);
    outcome.observed_revenue = observations.total();
    policy.observe(round, observations);
    let observe_ns = timer.lap();
    if O::ENABLED {
        obs.observation(
            round,
            &ObservationEvent {
                observed_revenue: outcome.observed_revenue,
                samples: observations.sellers().len() * observations.num_pois(),
            },
        );
        let strategy = &outcome.strategy;
        obs.round_end(
            round,
            &RoundEndEvent {
                observed_revenue: outcome.observed_revenue,
                consumer_profit: strategy.profits.consumer,
                platform_profit: strategy.profits.platform,
                seller_profit: strategy.profits.total_seller(),
                selection_ns,
                solve_ns,
                observe_ns,
            },
        );
    }

    outcome.round = round;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_bandit::{CmabUcbPolicy, RandomPolicy};
    use cdt_obs::NullObserver;
    use cdt_quality::{QualityObserver, SellerPopulation, SellerProfile, TruncatedGaussian};
    use cdt_types::{JobSpec, SellerCostParams};

    fn setup(m: usize, k: usize, l: usize) -> (SystemConfig, QualityObserver) {
        let profiles: Vec<SellerProfile> = (0..m)
            .map(|i| SellerProfile {
                quality: TruncatedGaussian::new(0.2 + 0.6 * (i as f64 / m as f64), 0.1),
                cost: SellerCostParams { a: 0.2, b: 0.3 },
            })
            .collect();
        let pop = SellerPopulation::from_profiles(profiles);
        let config = SystemConfig::builder()
            .job(JobSpec::new(l, 20, 1e6).unwrap())
            .sellers(m, k)
            .seller_costs(pop.cost_params())
            .collection_price_bounds(cdt_types::PriceBounds::new(0.0, 5.0).unwrap())
            .build()
            .unwrap();
        (config, QualityObserver::new(pop, l))
    }

    /// Plays `round` unobserved on a fresh scratch, so its game context
    /// is constructed (and validated) from scratch.
    fn play(
        policy: &mut dyn SelectionPolicy,
        config: &SystemConfig,
        observer: &QualityObserver,
        round: Round,
        rng: &mut SimRng,
    ) -> RoundOutcome {
        let mut scratch = RoundScratch::new();
        play_round(
            policy,
            config,
            observer,
            round,
            rng,
            &mut scratch,
            &mut NullObserver,
        )
        .unwrap()
        .clone()
    }

    #[test]
    fn initial_round_selects_all_and_breaks_even() {
        let (config, observer) = setup(6, 2, 4);
        let mut policy = CmabUcbPolicy::new(6, 2);
        let mut rng = SimRng::new(1);
        let out = play(&mut policy, &config, &observer, Round(0), &mut rng);
        assert_eq!(out.selection_size(), 6);
        assert_eq!(out.strategy.collection_price, 5.0);
        assert!(out.strategy.profits.platform.abs() < 1e-9);
        // Everyone contributes τ⁰ = 1.
        assert!(out.strategy.sensing_times.iter().all(|&t| t == 1.0));
    }

    #[test]
    fn later_rounds_select_k_and_play_equilibrium() {
        let (config, observer) = setup(6, 2, 4);
        let mut policy = CmabUcbPolicy::new(6, 2);
        let mut rng = SimRng::new(2);
        play(&mut policy, &config, &observer, Round(0), &mut rng);
        let out = play(&mut policy, &config, &observer, Round(1), &mut rng);
        assert_eq!(out.selection_size(), 2);
        assert!(out.strategy.service_price > out.strategy.collection_price);
        assert!(out.strategy.profits.consumer > 0.0);
    }

    #[test]
    fn observed_revenue_is_bounded_by_selection() {
        let (config, observer) = setup(5, 3, 4);
        let mut policy = RandomPolicy::new(5, 3);
        let mut rng = SimRng::new(3);
        for t in 0..10 {
            let out = play(&mut policy, &config, &observer, Round(t), &mut rng);
            let max = (out.selection_size() * 4) as f64; // K sellers × L PoIs × q ≤ 1
            assert!(out.observed_revenue >= 0.0 && out.observed_revenue <= max);
        }
    }

    #[test]
    fn observed_round_is_bit_identical_and_emits_events() {
        use cdt_obs::{EventRecord, RecordingObserver};
        let (config, observer) = setup(6, 2, 4);
        let mut plain_policy = CmabUcbPolicy::new(6, 2);
        let mut plain_rng = SimRng::new(11);
        let mut plain_scratch = RoundScratch::new();
        let mut obs_policy = CmabUcbPolicy::new(6, 2);
        let mut obs_rng = SimRng::new(11);
        let mut obs_scratch = RoundScratch::new();
        let mut recorder = RecordingObserver::new("unit");
        for t in 0..4 {
            let plain = play_round(
                &mut plain_policy,
                &config,
                &observer,
                Round(t),
                &mut plain_rng,
                &mut plain_scratch,
                &mut NullObserver,
            )
            .unwrap()
            .clone();
            let observed = play_round(
                &mut obs_policy,
                &config,
                &observer,
                Round(t),
                &mut obs_rng,
                &mut obs_scratch,
                &mut recorder,
            )
            .unwrap();
            assert_eq!(&plain, observed, "round {t} diverged under observation");
        }
        // 5 events per round: start, selection, equilibrium, observation, end.
        assert_eq!(recorder.records.len(), 4 * 5);
        let selections: Vec<_> = recorder
            .records
            .iter()
            .filter(|r| matches!(r, EventRecord::Selection { .. }))
            .collect();
        assert_eq!(selections.len(), 4);
        match selections[1] {
            EventRecord::Selection {
                selected, scores, ..
            } => {
                assert_eq!(selected.len(), 2);
                assert_eq!(scores.len(), 2);
                // Post-sweep UCB indices are finite and ≥ the plain mean.
                assert!(scores.iter().all(|s| s.is_finite()));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn refilled_context_is_bit_identical_to_a_fresh_one() {
        use cdt_bandit::OraclePolicy;
        let (config, observer) = setup(6, 2, 4);
        let mut reused_policy = OraclePolicy::new(observer.population().expected_qualities(), 2);
        let mut reused_rng = SimRng::new(13);
        let mut scratch = RoundScratch::new();
        let mut fresh_policy = OraclePolicy::new(observer.population().expected_qualities(), 2);
        let mut fresh_rng = SimRng::new(13);
        for t in 0..8 {
            // The reused scratch refills its game context in place every
            // round after the first.
            let reused = play_round(
                &mut reused_policy,
                &config,
                &observer,
                Round(t),
                &mut reused_rng,
                &mut scratch,
                &mut NullObserver,
            )
            .unwrap()
            .clone();
            let fresh = play(
                &mut fresh_policy,
                &config,
                &observer,
                Round(t),
                &mut fresh_rng,
            );
            assert_eq!(reused, fresh, "round {t} diverged with a reused scratch");
        }
    }

    #[test]
    fn policy_learns_from_executed_rounds() {
        let (config, observer) = setup(4, 2, 8);
        let mut policy = CmabUcbPolicy::new(4, 2);
        let mut rng = SimRng::new(4);
        play(&mut policy, &config, &observer, Round(0), &mut rng);
        assert_eq!(policy.estimator().total_count(), 4 * 8);
    }
}
