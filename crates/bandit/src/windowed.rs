//! The non-stationary estimator: a sliding-window sample mean.
//!
//! The paper assumes fixed expected qualities `q_i` (Def. 3); its Remark
//! acknowledges exogenous factors can move them.
//! [`SlidingWindowEstimator`] forgets old observations so the UCB machinery
//! can track drifting qualities: it keeps the exact mean over the last `W`
//! observations per seller (Garivier & Moulines' SW-UCB statistic).

use cdt_quality::ObservationMatrix;
use cdt_types::SellerId;
use std::collections::VecDeque;

/// How many observations a seller may accumulate before its incremental
/// window sum is re-derived from scratch (float-drift guard).
const DRIFT_RESYNC_INTERVAL: u64 = 1 << 20;

/// Per-seller mean over the most recent `W` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindowEstimator {
    windows: Vec<VecDeque<f64>>,
    sums: Vec<f64>,
    window: usize,
    total_seen: u64,
    /// Observations folded into each seller since its sum was last
    /// re-derived; compared `>=` against the interval so multi-observation
    /// rows that step over the threshold still trigger the resync.
    since_resync: Vec<u64>,
    resync_interval: u64,
    resyncs: u64,
}

impl SlidingWindowEstimator {
    /// Creates an estimator over `m` sellers with window size `window`.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(m: usize, window: usize) -> Self {
        Self::with_resync_interval(m, window, DRIFT_RESYNC_INTERVAL)
    }

    /// As [`SlidingWindowEstimator::new`], with an explicit drift-resync
    /// interval (observations per seller between exact re-summations).
    ///
    /// # Panics
    /// Panics if `window == 0` or `resync_interval == 0`.
    #[must_use]
    pub fn with_resync_interval(m: usize, window: usize, resync_interval: u64) -> Self {
        assert!(window > 0, "window must hold at least one observation");
        assert!(resync_interval > 0, "resync interval must be positive");
        Self {
            windows: (0..m).map(|_| VecDeque::with_capacity(window)).collect(),
            sums: vec![0.0; m],
            window,
            total_seen: 0,
            since_resync: vec![0; m],
            resync_interval,
            resyncs: 0,
        }
    }

    /// How many times a drift resync has fired (any seller).
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Number of sellers.
    #[must_use]
    pub fn num_sellers(&self) -> usize {
        self.windows.len()
    }

    /// Observations currently inside seller `i`'s window.
    #[must_use]
    pub fn count(&self, id: SellerId) -> u64 {
        self.windows[id.index()].len() as u64
    }

    /// Lifetime observation count across all sellers (for the UCB log).
    #[must_use]
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Windowed mean of seller `i` (0 before any observation).
    #[must_use]
    pub fn mean(&self, id: SellerId) -> f64 {
        let i = id.index();
        if self.windows[i].is_empty() {
            0.0
        } else {
            self.sums[i] / self.windows[i].len() as f64
        }
    }

    /// Folds one seller's per-PoI observations in, evicting beyond the
    /// window.
    pub fn update(&mut self, id: SellerId, observations: &[f64]) {
        let i = id.index();
        for &q in observations {
            debug_assert!((0.0..=1.0).contains(&q));
            if self.windows[i].len() == self.window {
                let old = self.windows[i].pop_front().expect("window is full");
                self.sums[i] -= old;
            }
            self.windows[i].push_back(q);
            self.sums[i] += q;
            self.total_seen += 1;
        }
        // Guard against drift of the incremental sum over very long runs.
        // Tracked per seller with a `>=` threshold: an L-observation row
        // that steps over the interval still triggers, and every seller
        // gets its own correction (a global exact-multiple check on
        // `total_seen` would essentially never fire for L > 1 and would
        // only ever refresh the seller being updated).
        self.since_resync[i] += observations.len() as u64;
        if self.since_resync[i] >= self.resync_interval {
            self.sums[i] = self.windows[i].iter().sum();
            self.since_resync[i] = 0;
            self.resyncs += 1;
        }
    }

    /// Folds a whole round in.
    pub fn update_round(&mut self, observations: &ObservationMatrix) {
        for (id, row) in observations.iter() {
            self.update(id, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::check::check;
    use cdt_types::SimRng;

    #[test]
    fn window_mean_tracks_recent_values() {
        let mut e = SlidingWindowEstimator::new(1, 4);
        e.update(SellerId(0), &[0.2, 0.2, 0.2, 0.2]);
        assert!((e.mean(SellerId(0)) - 0.2).abs() < 1e-12);
        // Regime change: four new high values evict the old ones.
        e.update(SellerId(0), &[0.9, 0.9, 0.9, 0.9]);
        assert!((e.mean(SellerId(0)) - 0.9).abs() < 1e-12);
        assert_eq!(e.count(SellerId(0)), 4);
        assert_eq!(e.total_seen(), 8);
    }

    #[test]
    fn partial_window() {
        let mut e = SlidingWindowEstimator::new(2, 10);
        e.update(SellerId(1), &[0.4, 0.8]);
        assert!((e.mean(SellerId(1)) - 0.6).abs() < 1e-12);
        assert_eq!(e.count(SellerId(1)), 2);
        assert_eq!(e.mean(SellerId(0)), 0.0);
    }

    #[test]
    fn window_eviction_is_fifo() {
        let mut e = SlidingWindowEstimator::new(1, 3);
        e.update(SellerId(0), &[0.0, 0.3, 0.6, 0.9]);
        // Window holds {0.3, 0.6, 0.9}.
        assert!((e.mean(SellerId(0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn drift_resync_fires_across_multi_observation_rows() {
        // Regression: rows of L=3 observations never land `total_seen` on
        // an exact multiple of the interval, so the old global
        // `is_multiple_of` guard never fired. The per-seller `>=` counter
        // must fire on the row that steps over the threshold.
        let mut e = SlidingWindowEstimator::with_resync_interval(2, 4, 8);
        for _ in 0..2 {
            e.update(SellerId(0), &[0.5, 0.4, 0.3]); // 6 < 8: no resync yet
        }
        assert_eq!(e.resyncs(), 0);
        e.update(SellerId(0), &[0.2, 0.1, 0.6]); // 9 >= 8: fires
        assert_eq!(e.resyncs(), 1);
        // The counter is per seller: seller 1's rows do not inherit
        // seller 0's progress.
        e.update(SellerId(1), &[0.5, 0.5, 0.5]);
        e.update(SellerId(1), &[0.5, 0.5, 0.5]);
        assert_eq!(e.resyncs(), 1);
        e.update(SellerId(1), &[0.5, 0.5]); // 8 >= 8: fires
        assert_eq!(e.resyncs(), 2);
        // The re-derived sum still matches the window exactly.
        assert!((e.mean(SellerId(0)) - (0.3 + 0.2 + 0.1 + 0.6) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn drift_resync_counter_resets_after_firing() {
        let mut e = SlidingWindowEstimator::with_resync_interval(1, 2, 4);
        e.update(SellerId(0), &[0.1, 0.2, 0.3, 0.4]); // 4 >= 4: fires
        assert_eq!(e.resyncs(), 1);
        e.update(SellerId(0), &[0.5, 0.6, 0.7]); // 3 < 4 after reset
        assert_eq!(e.resyncs(), 1);
        e.update(SellerId(0), &[0.8]); // 4 >= 4: fires again
        assert_eq!(e.resyncs(), 2);
    }

    #[test]
    #[should_panic(expected = "window must hold")]
    fn zero_window_rejected() {
        let _ = SlidingWindowEstimator::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "resync interval must be positive")]
    fn zero_resync_interval_rejected() {
        let _ = SlidingWindowEstimator::with_resync_interval(1, 4, 0);
    }

    /// The windowed mean equals the mean of the last W observations.
    #[test]
    fn window_matches_suffix_mean() {
        let gen = |rng: &mut SimRng| {
            let len = 1 + rng.below(99);
            let obs: Vec<f64> = (0..len).map(|_| rng.uniform_inclusive(0.0..=1.0)).collect();
            (obs, 1 + rng.below(19) as usize)
        };
        check(256, gen, |(obs, window)| {
            let mut e = SlidingWindowEstimator::new(1, *window);
            e.update(SellerId(0), obs);
            let tail = &obs[obs.len().saturating_sub(*window)..];
            let expect = tail.iter().sum::<f64>() / tail.len() as f64;
            assert!((e.mean(SellerId(0)) - expect).abs() < 1e-9);
            assert_eq!(e.count(SellerId(0)) as usize, tail.len());
        });
    }

    /// Drift resyncs are behavior-preserving: with a tiny interval
    /// (firing on nearly every row) the windowed mean still equals
    /// the exact suffix mean.
    #[test]
    fn resync_preserves_window_mean() {
        let gen = |rng: &mut SimRng| {
            let len = 1 + rng.below(99);
            let obs: Vec<f64> = (0..len).map(|_| rng.uniform_inclusive(0.0..=1.0)).collect();
            (obs, 1 + rng.below(19) as usize, 1 + rng.below(7))
        };
        check(256, gen, |(obs, window, interval)| {
            let mut e = SlidingWindowEstimator::with_resync_interval(1, *window, *interval);
            for row in obs.chunks(3) {
                e.update(SellerId(0), row);
            }
            let tail = &obs[obs.len().saturating_sub(*window)..];
            let expect = tail.iter().sum::<f64>() / tail.len() as f64;
            assert!((e.mean(SellerId(0)) - expect).abs() < 1e-9);
        });
    }
}
