//! Log₂-bucketed latency histograms over nanoseconds.
//!
//! Bucket `i` covers the power-of-two latency range `[2^i − 1, 2^{i+1} − 1)`
//! ns: a value lands in bucket `⌊log₂(ns + 1)⌋`, an integer bit length.
//! The classic log-bucket layout, 64 buckets spanning 1 ns to ~584 years.

/// Number of log₂ buckets (covers the full `u64` nanosecond range).
const BINS: usize = 64;

/// A latency histogram with power-of-two nanosecond buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Boxed, so a `Metric` or an `Option` holding a histogram stays small.
    bins: Box<[u64; BINS]>,
    count: u64,
    sum_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bins: Box::new([0; BINS]),
            count: 0,
            sum_ns: 0,
        }
    }

    /// The bucket `ns` lands in: `⌊log₂(ns + 1)⌋`, with `u64::MAX`
    /// saturating into the top bucket.
    fn bucket(ns: u64) -> usize {
        ns.saturating_add(1).ilog2() as usize
    }

    /// The latency at `pos` along the bucket axis, where bucket `i` spans
    /// `[i, i + 1)`: `2^pos − 1` ns. The cast saturates, so the top
    /// bucket's upper end reads `u64::MAX`.
    fn ns_at(pos: f64) -> u64 {
        (pos.exp2() - 1.0) as u64
    }

    /// Upper bound (exclusive, in ns) of log₂ bucket `i`: bucket `i`
    /// covers `[2^i − 1, 2^{i+1} − 1)`. The top bucket saturates at
    /// `u64::MAX` — `2^64 − 1` is not representable, so its bound is the
    /// inclusive ceiling of the nanosecond domain rather than one past it.
    #[must_use]
    pub fn bucket_upper_ns(i: usize) -> u64 {
        if i + 1 >= BINS {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one latency observation.
    pub fn record_ns(&mut self, ns: u64) {
        self.bins[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded nanoseconds (saturating).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean latency in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count() as f64
        }
    }

    /// Approximate `q`-quantile in nanoseconds (`None` when empty): the
    /// target rank is interpolated linearly along the log₂ axis within
    /// the bucket that holds it.
    ///
    /// # Panics
    /// Panics unless `q ∈ [0, 1]`.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile requires q in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = q * self.count as f64;
        let mut cum = 0.0;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
                return Some(Self::ns_at(i as f64 + frac));
            }
            cum = next;
        }
        Some(u64::MAX)
    }

    /// Merges another latency histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// The non-empty buckets as `(upper_bound_ns, cumulative_count)` pairs
    /// in ascending order — the shape a Prometheus `_bucket{le=...}` series
    /// wants. The final implicit `+Inf` bucket is [`LatencyHistogram::count`].
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((Self::bucket_upper_ns(i), cum));
        }
        out
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::check::check;
    use cdt_types::SimRng;

    /// The inclusive lower bound of bucket `i`, `2^i − 1`.
    fn lower_ns(i: usize) -> u64 {
        (1u64 << i) - 1
    }

    #[test]
    fn records_and_counts() {
        let mut h = LatencyHistogram::new();
        h.record_ns(100);
        h.record_ns(200);
        h.record_ns(100_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 100_300);
        assert!((h.mean_ns() - 100_300.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record_ns(1_000);
        }
        for _ in 0..100 {
            h.record_ns(1_000_000);
        }
        let p25 = h.quantile_ns(0.25).unwrap();
        let p99 = h.quantile_ns(0.99).unwrap();
        // Log buckets are coarse (powers of two): check the right octaves.
        assert!((500..=2_100).contains(&p25), "p25 = {p25}");
        assert!((500_000..=2_100_000).contains(&p99), "p99 = {p99}");
        assert!(h.quantile_ns(0.0).unwrap() <= p99);
    }

    /// `(seed, records, max bit length, quantiles at QS)`: the values the
    /// `[0, 1]`-histogram mapping this layout replaced returned, so the
    /// `--obs-summary` p50/p99 and the watchdog's p99 thresholds read as
    /// they did.
    const PINNED: [(u64, usize, u64, [u64; 7]); 4] = [
        (
            1,
            1,
            40,
            [
                4_294_967_295,
                4_324_841_155,
                5_107_605_666,
                6_074_000_998,
                8_014_692_368,
                8_530_599_578,
                8_589_934_591,
            ],
        ),
        (
            2,
            10,
            40,
            [
                63,
                67,
                623_486,
                2_097_151,
                2_147_483_647,
                512_940_311_645,
                549_755_813_887,
            ],
        ),
        (
            3,
            1_000,
            40,
            [
                0,
                0,
                461,
                697_465,
                45_624_538_320,
                617_080_036_925,
                1_099_511_627_775,
            ],
        ),
        (
            4,
            1_000,
            64,
            [
                0,
                0,
                34_217,
                1_454_120_820,
                63_761_249_152_073_104,
                7_566_258_183_444_160_512,
                u64::MAX,
            ],
        ),
    ];
    const QS: [f64; 7] = [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0];

    #[test]
    fn quantiles_match_pinned_values() {
        for (seed, records, max_bits, expected) in PINNED {
            let mut rng = SimRng::new(seed);
            let mut h = LatencyHistogram::new();
            for _ in 0..records {
                let bits = rng.below(max_bits) + 1;
                h.record_ns(rng.next_u64() >> (64 - bits));
            }
            let got = QS.map(|q| h.quantile_ns(q).unwrap());
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn empty_quantile_is_none() {
        assert!(LatencyHistogram::new().quantile_ns(0.5).is_none());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::new();
        a.record_ns(10);
        let mut b = LatencyHistogram::new();
        b.record_ns(1_000_000);
        b.record_ns(2_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_ns(), 3_000_010);
    }

    /// Every bucket boundary `2^i − 1` opens bucket `i`, and its
    /// neighbours land on either side of it, in all 64 buckets.
    #[test]
    fn buckets_follow_the_contract_at_every_boundary() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BINS - 1);
        for i in 0..BINS {
            let lo = lower_ns(i);
            assert_eq!(LatencyHistogram::bucket(lo), i, "2^{i} - 1");
            if i > 0 {
                assert_eq!(LatencyHistogram::bucket(lo - 1), i - 1, "2^{i} - 2");
            }
            // 2^i is still in bucket i, except that 1 = 2^1 − 1 opens bucket 1.
            assert_eq!(LatencyHistogram::bucket(lo + 1), i.max(1), "2^{i}");
        }
    }

    #[test]
    fn edge_values_land_in_edge_buckets() {
        let mut h = LatencyHistogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 2);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.first().unwrap().0, 1); // bucket 0: [0, 1) ns
        assert_eq!(buckets.last().unwrap(), &(u64::MAX, 2));
    }

    /// Bucketing is monotone: a smaller latency never lands in a
    /// higher bucket.
    #[test]
    fn prop_bucketing_is_monotone() {
        check(
            256,
            |rng| (rng.next_u64(), rng.next_u64()),
            |&(a, b)| {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                assert!(LatencyHistogram::bucket(lo) <= LatencyHistogram::bucket(hi));
            },
        );
    }

    /// Every recorded observation is counted exactly once: the total,
    /// the per-bin sum, and the final cumulative count all equal the
    /// number of records — including 0 and u64::MAX edge values.
    #[test]
    fn prop_bucketing_preserves_total_count() {
        let gen = |rng: &mut SimRng| {
            let len = rng.below(200);
            let mut values: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let (zeros, maxes) = (rng.below(3) as usize, rng.below(3) as usize);
            values.resize(values.len() + zeros, 0);
            values.resize(values.len() + maxes, u64::MAX);
            values
        };
        check(256, gen, |values| {
            let mut h = LatencyHistogram::new();
            for &ns in values {
                h.record_ns(ns);
            }
            let n = values.len() as u64;
            assert_eq!(h.count(), n);
            assert_eq!(h.bins.iter().sum::<u64>(), n);
            if n > 0 {
                assert_eq!(h.cumulative_buckets().last().unwrap().1, n);
            } else {
                assert!(h.cumulative_buckets().is_empty());
            }
        });
    }

    /// A recorded value lies within its bucket, `[2^i − 1, upper)`, so the
    /// cumulative counts at or above its bucket include it.
    #[test]
    fn prop_recorded_value_is_within_its_bucket() {
        check(256, SimRng::next_u64, |&ns| {
            let mut h = LatencyHistogram::new();
            h.record_ns(ns);
            let buckets = h.cumulative_buckets();
            assert_eq!(buckets.len(), 1);
            let idx = LatencyHistogram::bucket(ns);
            let upper = LatencyHistogram::bucket_upper_ns(idx);
            assert_eq!(buckets[0], (upper, 1));
            assert!(lower_ns(idx) <= ns && (ns < upper || idx == BINS - 1));
        });
    }

    /// Saturation pin: every latency at or above the top bucket's
    /// lower bound (2^63 − 1 ns) lands in bucket 63, whose upper
    /// bound saturates at u64::MAX — never a wrapped or zero bound.
    #[test]
    fn prop_top_bucket_saturates() {
        check(256, SimRng::next_u64, |&offset| {
            let lower = lower_ns(BINS - 1);
            let ns = lower.saturating_add(offset % (u64::MAX - lower + 1));
            assert_eq!(LatencyHistogram::bucket(ns), BINS - 1);
            let mut h = LatencyHistogram::new();
            h.record_ns(ns);
            assert_eq!(h.cumulative_buckets(), vec![(u64::MAX, 1)]);
            assert_eq!(h.quantile_ns(1.0), Some(u64::MAX));
        });
    }

    /// Saturation round-trip pin: `u64::MAX` lands in the top bucket, and
    /// the top of that bucket, `2^64 − 1` ns, reads back as `u64::MAX`
    /// (`2^64` is not a `u64`; the cast saturates rather than wrapping
    /// to 0).
    #[test]
    fn saturation_boundary_round_trips_exactly() {
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BINS - 1);
        assert_eq!(LatencyHistogram::ns_at(BINS as f64), u64::MAX);
        assert_eq!(LatencyHistogram::ns_at(0.0), 0);
        // The helper agrees with the bucketing at both edges of the range.
        assert_eq!(LatencyHistogram::bucket_upper_ns(0), 1);
        assert_eq!(LatencyHistogram::bucket_upper_ns(BINS - 1), u64::MAX);
        assert_eq!(LatencyHistogram::bucket_upper_ns(BINS), u64::MAX);
    }

    #[test]
    fn cumulative_buckets_are_ascending() {
        let mut h = LatencyHistogram::new();
        for ns in [3u64, 3, 40, 5_000, 5_000, 5_000] {
            h.record_ns(ns);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for w in buckets.windows(2) {
            assert!(w[1].0 > w[0].0, "upper bounds ascend");
            assert!(w[1].1 >= w[0].1, "cumulative counts ascend");
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
    }
}
