//! Figures 7–12: total revenue, regret, and per-round profits as one
//! dimension of the trading scenario grows — the rounds `N` (Figs. 7–8),
//! the candidate pool `M` (Figs. 9–10) or the selection size `K`
//! (Figs. 11–12), with the other two at Table II's defaults at paper
//! scale.
//!
//! Each axis is one sweep whose [`SweepResult`] serves both of its
//! figures: [`SweepResult::revenue_regret`] (Figs. 7, 9, 11),
//! [`SweepResult::delta_profits`] (Figs. 8, 10) and
//! [`SweepResult::mean_profits`] (Fig. 12).
//!
//! Every grid point takes the first `M` profiles of one seeded master
//! population, as large as the largest `M` on the grid. On the `M` axis the
//! populations are therefore *nested*, mirroring the paper's "choose M
//! taxis as satisfied sellers" from a fixed 300-taxi trace; on the `N` and
//! `K` axes every point shares the whole population, so the curves vary
//! only through the swept value.
//!
//! ε-first is horizon-aware (its exploration phase is `εN` rounds), so each
//! `N` point is a fresh run for every policy rather than a checkpoint of
//! one long run.
//!
//! The grid runs on the pool via [`compare_policies_grid`] — one
//! `CellJob` per (grid point × policy) pair.

use super::Scale;
use crate::compare::{compare_policies_grid, ComparisonResult};
use crate::parallel::RunConfig;
use crate::policy_spec::PolicySpec;
use crate::report::{Series, Table};
use crate::runner::RunResult;
use crate::settings::SimSettings;
use cdt_core::Scenario;
use cdt_quality::SellerPopulation;
use cdt_types::{Result, SimRng};

/// The scenario dimension a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Total rounds `N` (Figs. 7–8).
    N,
    /// Number of sellers `M` (Figs. 9–10).
    M,
    /// Selection size `K` (Figs. 11–12).
    K,
}

impl Axis {
    /// The axis's name in table headers and titles: `N`, `M` or `K`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Axis::N => "N",
            Axis::M => "M",
            Axis::K => "K",
        }
    }

    /// The shape `(M, K, N)` of a grid point: `fixed` with this axis's
    /// entry replaced by `value`.
    #[must_use]
    pub fn point(self, fixed: (usize, usize, usize), value: usize) -> (usize, usize, usize) {
        let (m, k, n) = fixed;
        match self {
            Axis::N => (m, k, value),
            Axis::M => (value, k, n),
            Axis::K => (m, value, n),
        }
    }
}

/// Configuration of one axis sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// The swept dimension.
    pub axis: Axis,
    /// The values the axis takes, one grid point each.
    pub grid: Vec<usize>,
    /// Number of sellers `M` (replaced by the grid on the `M` axis).
    pub m: usize,
    /// Selection size `K` (replaced by the grid on the `K` axis).
    pub k: usize,
    /// Number of PoIs `L`.
    pub l: usize,
    /// Rounds per run `N` (replaced by the grid on the `N` axis).
    pub n: usize,
    /// Master seed.
    pub seed: u64,
}

/// The sweep configuration of `axis` at a scale.
#[must_use]
pub fn config(axis: Axis, scale: Scale) -> Config {
    let s = SimSettings::paper_defaults();
    // At test scale a 0 marks the entry the grid replaces.
    let (grid, m, k, l, n) = match (scale, axis) {
        (Scale::Paper, Axis::N) => (SimSettings::n_grid(), s.m, s.k, s.l, s.n),
        (Scale::Paper, Axis::M) => (SimSettings::m_grid(), s.m, s.k, s.l, s.n),
        (Scale::Paper, Axis::K) => (SimSettings::k_grid(), s.m, s.k, s.l, s.n),
        (Scale::Test, Axis::N) => (vec![50, 150, 400], 30, 5, 4, 0),
        (Scale::Test, Axis::M) => (vec![10, 20, 30], 0, 4, 4, 250),
        (Scale::Test, Axis::K) => (vec![3, 6, 9], 30, 0, 4, 250),
    };
    Config {
        axis,
        grid,
        m,
        k,
        l,
        n,
        seed: s.seed,
    }
}

/// Result of one axis sweep: one comparison per grid point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The swept dimension.
    pub axis: Axis,
    /// The values it took.
    pub grid: Vec<usize>,
    /// Policy labels, in run order.
    pub labels: Vec<String>,
    /// `comparisons[i]` is the multi-policy result at `grid[i]`.
    pub comparisons: Vec<ComparisonResult>,
}

/// Runs the sweep.
///
/// # Errors
/// Propagates run errors.
pub fn run(cfg: &Config, rc: &RunConfig) -> Result<SweepResult> {
    let shapes: Vec<(usize, usize, usize)> = cfg
        .grid
        .iter()
        .map(|&value| cfg.axis.point((cfg.m, cfg.k, cfg.n), value))
        .collect();
    let max_m = shapes.iter().map(|&(m, _, _)| m).max();
    let master = SellerPopulation::generate_paper_defaults(
        max_m.expect("a sweep has at least one grid point"),
        cdt_core::scenario::DEFAULT_NOISE_SIGMA,
        &mut SimRng::new(cfg.seed),
    );
    let scenarios = shapes
        .iter()
        .map(|&(m, k, n)| {
            let profiles = master.iter().take(m).map(|(_, p)| *p).collect();
            Scenario::from_population(SellerPopulation::from_profiles(profiles), k, cfg.l, n)
        })
        .collect::<Result<Vec<_>>>()?;
    let stride = match cfg.axis {
        Axis::N => 1000,
        Axis::M => 2000,
        Axis::K => 3000,
    };
    let seeds: Vec<u64> = (0..cfg.grid.len())
        .map(|i| cfg.seed.wrapping_add(stride * i as u64))
        .collect();
    let policies = PolicySpec::paper_set();
    let comparisons = compare_policies_grid(&scenarios, &policies, &seeds, &[], rc)?;
    Ok(SweepResult {
        axis: cfg.axis,
        grid: cfg.grid.clone(),
        labels: policies.iter().map(PolicySpec::label).collect(),
        comparisons,
    })
}

/// One panel of a figure: its name and the per-run metric it plots.
type Panel = (&'static str, fn(&RunResult) -> f64);

/// The mean per-round profits of Figs. 8, 10 and 12: the consumer's, the
/// platform's, and the mean selected seller's.
const PROFITS: [Panel; 3] = [
    ("PoC", |r| r.mean_consumer_profit),
    ("PoP", |r| r.mean_platform_profit),
    ("PoS(s)", |r| r.mean_seller_profit),
];

impl SweepResult {
    /// Figs. 7, 9, 11: total (expected) revenue and regret.
    #[must_use]
    pub fn revenue_regret(&self, figure: u32) -> Vec<Table> {
        let panels: [Panel; 2] = [
            ("total revenue", |r| r.expected_revenue),
            ("regret", |r| r.regret),
        ];
        self.panels(figure, "", false, &panels)
    }

    /// Figs. 8, 10: Δ-PoC, Δ-PoP, Δ-PoS(s), the optimal policy's mean
    /// per-round profit minus each other policy's (the optimal policy is
    /// the reference, so it has no curve).
    #[must_use]
    pub fn delta_profits(&self, figure: u32) -> Vec<Table> {
        self.panels(figure, "Δ-", true, &PROFITS)
    }

    /// Fig. 12: average per-round PoC, PoP, and per-seller PoS(s).
    #[must_use]
    pub fn mean_profits(&self, figure: u32) -> Vec<Table> {
        self.panels(figure, "average ", false, &PROFITS)
    }

    /// One table per panel, `Fig. {figure}({a, b, …}): {prefix}{name} vs
    /// {axis}`, with one curve per policy: the panel's metric at every grid
    /// point, or with `delta` the optimal run's metric minus it.
    fn panels(&self, figure: u32, prefix: &str, delta: bool, panels: &[Panel]) -> Vec<Table> {
        let x: Vec<f64> = self.grid.iter().map(|&v| v as f64).collect();
        let axis = self.axis.label();
        panels
            .iter()
            .zip('a'..)
            .map(|(&(name, metric), panel)| {
                let series: Vec<Series> = self
                    .labels
                    .iter()
                    .filter(|label| !delta || *label != "optimal")
                    .map(|label| {
                        let y = self.comparisons.iter().map(|c| {
                            let at = |policy: &str| {
                                metric(c.run(policy).expect("every policy ran at every point"))
                            };
                            if delta {
                                at("optimal") - at(label)
                            } else {
                                at(label)
                            }
                        });
                        Series::new(label.clone(), x.clone(), y.collect())
                    })
                    .collect();
                Series::tabulate(
                    format!("Fig. {figure}({panel}): {prefix}{name} vs {axis}"),
                    axis,
                    &series,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(axis: Axis) -> SweepResult {
        run(&config(axis, Scale::Test), &RunConfig::default()).unwrap()
    }

    #[test]
    fn shapes_match_figure7() {
        let r = sweep(Axis::N);
        // Revenue grows with N for every policy.
        for label in &r.labels {
            let revs: Vec<f64> = r
                .comparisons
                .iter()
                .map(|c| c.run(label).unwrap().expected_revenue)
                .collect();
            assert!(
                revs.windows(2).all(|w| w[1] > w[0]),
                "{label} revenue not increasing: {revs:?}"
            );
        }
        // Learners beat random at the longest horizon.
        let last = r.comparisons.last().unwrap();
        assert!(
            last.run("CMAB-HS").unwrap().expected_revenue
                > last.run("random").unwrap().expected_revenue
        );
    }

    #[test]
    fn delta_profits_shrink_with_n_for_cmab() {
        let r = sweep(Axis::N);
        let first = r.comparisons.first().unwrap().delta_poc("CMAB-HS").unwrap();
        let last = r.comparisons.last().unwrap().delta_poc("CMAB-HS").unwrap();
        assert!(
            last.abs() < first.abs() + 1e-9,
            "Δ-PoC should shrink: {first} → {last}"
        );
    }

    #[test]
    fn tables_have_grid_rows() {
        let r = sweep(Axis::N);
        for t in r.revenue_regret(7).iter().chain(r.delta_profits(8).iter()) {
            assert_eq!(t.rows.len(), 3);
        }
    }

    #[test]
    fn learners_beat_random_across_m() {
        let r = sweep(Axis::M);
        for c in &r.comparisons {
            assert!(
                c.run("CMAB-HS").unwrap().expected_revenue
                    > c.run("random").unwrap().expected_revenue
            );
        }
    }

    #[test]
    fn revenue_is_relatively_stable_in_m() {
        // Fig. 9's claim: revenue "keeps stable and grows very slightly"
        // as M increases — the top-K dominates. Allow generous slack at
        // test scale; the point is no order-of-magnitude drift.
        let r = sweep(Axis::M);
        let revs: Vec<f64> = r
            .comparisons
            .iter()
            .map(|c| c.run("optimal").unwrap().expected_revenue)
            .collect();
        let min = revs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let max = revs.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(max / min < 2.0, "optimal revenue swings too much: {revs:?}");
    }

    #[test]
    fn figure_tables_cover_grid() {
        let r = sweep(Axis::M);
        for t in r.revenue_regret(9).iter().chain(r.delta_profits(10).iter()) {
            assert_eq!(t.rows.len(), 3);
        }
    }

    #[test]
    fn revenue_increases_with_k() {
        let r = sweep(Axis::K);
        for label in &r.labels {
            let revs: Vec<f64> = r
                .comparisons
                .iter()
                .map(|c| c.run(label).unwrap().expected_revenue)
                .collect();
            assert!(
                revs.windows(2).all(|w| w[1] > w[0]),
                "{label}: revenue vs K not increasing: {revs:?}"
            );
        }
    }

    #[test]
    fn per_seller_profit_decreases_with_k() {
        // Fig. 12(c): "average PoS(s) achieved in each round decreases
        // dramatically along with the increase of K".
        let r = sweep(Axis::K);
        let pos: Vec<f64> = r
            .comparisons
            .iter()
            .map(|c| c.run("optimal").unwrap().mean_seller_profit)
            .collect();
        assert!(
            pos.windows(2).all(|w| w[1] < w[0]),
            "PoS(s) vs K not decreasing: {pos:?}"
        );
    }

    #[test]
    fn regret_grows_with_k_for_learners() {
        let r = sweep(Axis::K);
        let regs: Vec<f64> = r
            .comparisons
            .iter()
            .map(|c| c.run("random").unwrap().regret)
            .collect();
        assert!(
            regs.windows(2).all(|w| w[1] > w[0]),
            "random regret vs K not increasing: {regs:?}"
        );
    }
}
