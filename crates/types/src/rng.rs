//! The workspace's one random number generator.
//!
//! [`SimRng`] is xoshiro256++ (Blackman & Vigna, "Scrambled Linear
//! Pseudorandom Number Generators", ACM TOMS 2021): 256 bits of state,
//! period 2²⁵⁶ − 1, about a nanosecond per `u64`. Its four state words are
//! the first four outputs of SplitMix64 started at the `u64` seed, the
//! seeding its authors recommend; the finalizer is the one
//! [`mix_seed`](crate::mix_seed) already uses.
//!
//! The generator offers exactly the draws the simulator makes: uniform
//! floats and integers on ranges, Bernoulli trials, index subsets and
//! standard normals. Normals come from a 256-layer ziggurat (Marsaglia &
//! Tsang, J. Stat. Software 2000) in Doornik's ZIGNOR layout, the one
//! `rand_distr` uses: one `u64` per attempt, and 98.5% of attempts accept
//! with one multiply and one compare. That accept step is inlined into the
//! caller; the rest of a draw (the wedge test, the tail and the redraw) is
//! one cold call. A [`Normals`] handle holds a run of draws, such as a row
//! of observations, on one local copy of the state.
//!
//! It is one concrete type rather than a trait: every caller takes
//! `&mut SimRng`, so each draw is a direct, inlinable call.

use crate::seed::{splitmix64, GOLDEN_GAMMA};
use std::ops::{Range, RangeInclusive};
use std::sync::OnceLock;

/// `2⁻⁵³`: scales a 53-bit integer into `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// A seeded xoshiro256++ generator. The same seed always yields the same
/// stream.
///
/// ```
/// use cdt_types::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let q = a.uniform(0.0..1.0);
/// assert!((0.0..1.0).contains(&q));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// The generator for `seed`. Its state is four consecutive SplitMix64
    /// outputs, so it is never all-zero and nearby seeds give unrelated
    /// streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let word = |j: u64| splitmix64(seed.wrapping_add(j.wrapping_mul(GOLDEN_GAMMA)));
        Self {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform on `[0, 1)` from the top 53 bits.
    #[inline]
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * UNIT
    }

    /// Uniform on `(0, 1)`: the midpoints of the 2⁵³ cells of [`Self::unit`].
    #[inline]
    fn open_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * UNIT
    }

    /// A float uniform on the half-open `range`; never returns its end.
    ///
    /// # Panics
    /// Panics if the range is empty or not finite.
    #[inline]
    pub fn uniform(&mut self, range: Range<f64>) -> f64 {
        let Range { start, end } = range;
        assert!(
            start < end && (end - start).is_finite(),
            "uniform: bad range {start}..{end}"
        );
        loop {
            // `start + width · u` can round up to `end`; redraw then.
            let x = start + (end - start) * self.unit();
            if x < end {
                return x;
            }
        }
    }

    /// A float uniform on the closed `range`; both ends can occur.
    ///
    /// # Panics
    /// Panics if the range is empty or not finite.
    #[inline]
    pub fn uniform_inclusive(&mut self, range: RangeInclusive<f64>) -> f64 {
        let (start, end) = range.into_inner();
        assert!(
            start <= end && (end - start).is_finite(),
            "uniform_inclusive: bad range {start}..={end}"
        );
        let u = (self.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        (start + (end - start) * u).min(end)
    }

    /// An integer uniform on `[0, n)`, by Lemire's multiply-and-reject
    /// ("Fast Random Integer Generation in an Interval", ACM TOMACS 2019):
    /// unbiased, and the division runs only when a draw lands in the
    /// biased sliver.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0): empty range");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }

    /// An integer uniform on the closed `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn int_inclusive(&mut self, range: RangeInclusive<i64>) -> i64 {
        let (start, end) = range.into_inner();
        assert!(start <= end, "int_inclusive: empty range {start}..={end}");
        // Two's-complement width minus one; u64::MAX is the full range.
        let span = end.wrapping_sub(start) as u64;
        let offset = match span.checked_add(1) {
            Some(n) => self.below(n),
            None => self.next_u64(),
        };
        start.wrapping_add(offset as i64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `p ∈ [0, 1]`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "bernoulli: p = {p} outside [0, 1]"
        );
        self.unit() < p
    }

    /// `k` distinct indices drawn uniformly from `0..m`, in random order,
    /// by Floyd's algorithm (Bentley & Floyd, CACM 1987): `k` draws and
    /// `O(k²)` compares, which suits the `K ≪ M` selections it serves.
    ///
    /// # Panics
    /// Panics if `k > m`.
    pub fn sample_indices(&mut self, m: usize, k: usize) -> Vec<usize> {
        assert!(k <= m, "cannot draw {k} distinct indices from {m}");
        let mut out = Vec::with_capacity(k);
        for j in m - k..m {
            let t = self.below(j as u64 + 1) as usize;
            // If `t` is taken, `j` (never drawn before) replaces it there
            // and `t` moves to the end, which keeps every order equally
            // likely.
            if let Some(pos) = out.iter().position(|&x| x == t) {
                out[pos] = j;
            }
            out.push(t);
        }
        out
    }

    /// A standard normal `N(0, 1)` draw, by the ziggurat. A run of draws
    /// is faster through one [`SimRng::normals`] handle, and draws the
    /// same values.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        self.normals().draw()
    }

    /// A handle for a run of standard normals, such as one row of
    /// observations. It draws from a local copy of this generator's state
    /// and reads the ziggurat tables once; dropping it writes the state
    /// back. Its draws are exactly those of as many
    /// [`SimRng::standard_normal`] calls, so the stream after it is the
    /// same too.
    ///
    /// ```
    /// use cdt_types::SimRng;
    /// let (mut a, mut b) = (SimRng::new(3), SimRng::new(3));
    /// let mut normals = a.normals();
    /// let xs = [normals.draw(), normals.draw()];
    /// drop(normals);
    /// assert_eq!(xs, [b.standard_normal(), b.standard_normal()]);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    #[inline]
    pub fn normals(&mut self) -> Normals<'_> {
        Normals {
            state: self.clone(),
            tables: ziggurat(),
            home: self,
        }
    }

    /// The rest of a ziggurat draw whose first attempt, in layer `i` at
    /// `x = u·x[i]`, missed the layer's core: the wedge test, the tail and
    /// the redraw loop. One attempt in 66 gets here. It takes and returns
    /// the generator by value, so the caller's copy of the state never has
    /// its address taken and can stay in registers.
    #[cold]
    #[inline(never)]
    fn normal_rest(
        mut self,
        z: &Ziggurat,
        (mut i, mut u, mut x): (usize, f64, f64),
    ) -> (f64, Self) {
        loop {
            if i == 0 {
                return (self.normal_tail(u < 0.0), self);
            }
            // In the wedge: accept if a uniform height falls under φ(x).
            let y = z.f[i + 1] + (z.f[i] - z.f[i + 1]) * self.unit();
            if y < (-0.5 * x * x).exp() {
                return (x, self);
            }
            (i, u, x) = z.attempt(self.next_u64());
            if x.abs() < z.x[i + 1] {
                return (x, self);
            }
        }
    }

    /// A draw from the normal tail beyond `±ZIG_R`, by Marsaglia's
    /// exponential method.
    #[cold]
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            let x = self.open_unit().ln() / ZIG_R;
            let y = self.open_unit().ln();
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }
}

/// Standard normal draws from a local copy of a generator's state; see
/// [`SimRng::normals`]. Dropping the handle writes the state back.
pub struct Normals<'a> {
    state: SimRng,
    tables: &'static Ziggurat,
    home: &'a mut SimRng,
}

impl Normals<'_> {
    /// The next standard normal. The ziggurat's accept step (one `u64`,
    /// one multiply, one compare) runs inline and settles 98.5% of
    /// attempts; the rest continue in [`SimRng`]'s cold `normal_rest`.
    #[inline]
    pub fn draw(&mut self) -> f64 {
        let z = self.tables;
        let (i, u, x) = z.attempt(self.state.next_u64());
        // Inside the layer's core rectangle: accept outright.
        if x.abs() < z.x[i + 1] {
            return x;
        }
        let (x, state) = self.state.clone().normal_rest(z, (i, u, x));
        self.state = state;
        x
    }
}

impl Drop for Normals<'_> {
    #[inline]
    fn drop(&mut self) {
        self.home.s = self.state.s;
    }
}

/// Where the ziggurat's base layer meets its tail.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// The common area of the 256 layers under `exp(-x²/2)`.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// Layer edges `x[0] > x[1] = R > … > x[256] = 0` and `f[i] = exp(-x[i]²/2)`.
/// `x[0] = V / f(R)` is the width of a rectangle with the base layer's
/// area, its tail included.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

impl Ziggurat {
    /// One attempt from 64 random bits: the layer `i`, a signed uniform
    /// `u` and the point `x = u·x[i]`. The low 8 bits pick the layer; the
    /// high 52 make a float in [2, 4), shifted to a uniform on [-1, 1).
    #[inline(always)]
    fn attempt(&self, bits: u64) -> (usize, f64, f64) {
        let i = (bits & 0xff) as usize;
        let u = f64::from_bits((bits >> 12) | 0x4000_0000_0000_0000) - 3.0;
        (i, u, u * self.x[i])
    }
}

/// The tables, built on first use by Doornik's recurrence: each layer's
/// rectangle `x[i] · (f[i+1] − f[i])` has area `V`.
#[inline]
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        Ziggurat { x, f: x.map(pdf) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Pearson's statistic of `counts` against equal expected counts.
    fn chi_square(counts: &[u64]) -> f64 {
        let total: u64 = counts.iter().sum();
        let expected = total as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    #[test]
    fn known_answer_from_the_reference_implementation() {
        // xoshiro256plusplus.c from state {1, 2, 3, 4}.
        let mut rng = SimRng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                41_943_041,
                58_720_359,
                3_588_806_011_781_223,
                3_591_011_842_654_386,
                9_228_616_714_210_784_205,
            ]
        );
    }

    #[test]
    fn seeds_give_distinct_streams_and_nonzero_state() {
        let firsts: HashSet<u64> = (0..10_000).map(|s| SimRng::new(s).next_u64()).collect();
        assert_eq!(firsts.len(), 10_000);
        assert_ne!(SimRng::new(0).s, [0; 4]);
    }

    #[test]
    fn half_open_float_draws_never_return_the_end() {
        // Four ulps wide: one raw draw in eight rounds up to the end.
        let (lo, hi) = (1.0, 1.0 + 4.0 * f64::EPSILON);
        let mut rng = SimRng::new(1);
        let seen: HashSet<u64> = (0..10_000)
            .map(|_| {
                let x = rng.uniform(lo..hi);
                assert!((lo..hi).contains(&x), "{x} outside [{lo}, {hi})");
                x.to_bits()
            })
            .collect();
        assert_eq!(seen.len(), 4, "every value below the end occurs");
    }

    #[test]
    fn closed_ranges_hit_both_ends() {
        let mut rng = SimRng::new(2);
        let ints: HashSet<i64> = (0..1_000).map(|_| rng.int_inclusive(-1..=1)).collect();
        assert_eq!(ints, HashSet::from([-1, 0, 1]));
        let _ = rng.int_inclusive(i64::MIN..=i64::MAX);
        assert_eq!(rng.int_inclusive(5..=5), 5);
        let (lo, hi) = (1.0, 1.0 + 2.0 * f64::EPSILON);
        let floats: HashSet<u64> = (0..1_000)
            .map(|_| rng.uniform_inclusive(lo..=hi).to_bits())
            .collect();
        assert!(floats.contains(&lo.to_bits()) && floats.contains(&hi.to_bits()));
        assert_eq!(floats.len(), 3);
    }

    #[test]
    fn below_is_uniform() {
        // 0.1% critical values of χ² with n − 1 degrees of freedom.
        let mut rng = SimRng::new(3);
        for (n, critical) in [(3u64, 13.82), (7, 22.46), (10, 27.88)] {
            let mut counts = vec![0u64; n as usize];
            for _ in 0..100_000 {
                counts[rng.below(n) as usize] += 1;
            }
            let stat = chi_square(&counts);
            assert!(stat < critical, "n = {n}: χ² = {stat} ≥ {critical}");
        }
        assert_eq!(SimRng::new(4).below(1), 0);
    }

    #[test]
    fn bernoulli_hits_its_rate_and_respects_the_ends() {
        let mut rng = SimRng::new(5);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count() as f64;
        // 4 standard errors of a binomial proportion.
        assert!((hits / 1e5 - 0.3).abs() < 4.0 * (0.3f64 * 0.7 / 1e5).sqrt());
        assert!((0..1_000).all(|_| rng.bernoulli(1.0)));
        assert!((0..1_000).all(|_| !rng.bernoulli(0.0)));
    }

    #[test]
    fn sample_indices_are_distinct_and_uniformly_included() {
        let (m, k, reps) = (20usize, 5usize, 20_000);
        let mut rng = SimRng::new(6);
        let mut counts = vec![0u64; m];
        for _ in 0..reps {
            let picked = rng.sample_indices(m, k);
            assert_eq!(picked.len(), k);
            assert_eq!(picked.iter().collect::<HashSet<_>>().len(), k);
            for &i in &picked {
                counts[i] += 1;
            }
        }
        // Each inclusion count is Binomial(reps, k/m); scale Pearson's
        // statistic by 1 − k/m and compare with χ²(m − 1) at 0.1%.
        let stat = chi_square(&counts) / (1.0 - k as f64 / m as f64);
        assert!(stat < 43.82, "χ² = {stat}");
        assert_eq!(rng.sample_indices(4, 4).len(), 4);
        assert!(rng.sample_indices(4, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn sample_indices_rejects_k_beyond_m() {
        let _ = SimRng::new(7).sample_indices(3, 4);
    }

    #[test]
    fn ziggurat_tables_close() {
        let z = ziggurat();
        assert_eq!(z.x[1], ZIG_R);
        assert_eq!(z.x[256], 0.0);
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "edges decrease");
        let relative = |area: f64| (area - ZIG_V).abs() / ZIG_V;
        // The base layer: the rectangle under f(R) plus the tail beyond R,
        // ∫_R^∞ exp(-t²/2) dt by composite Simpson over [R, R + 12].
        let (n, h) = (100_000, 12.0 / 100_000.0);
        let pdf = |t: f64| (-0.5 * t * t).exp();
        let simpson: f64 = (0..=n)
            .map(|j| {
                let w = if j == 0 || j == n {
                    1.0
                } else {
                    [2.0, 4.0][j % 2]
                };
                w * pdf(ZIG_R + j as f64 * h)
            })
            .sum::<f64>()
            * h
            / 3.0;
        let base = ZIG_R * z.f[1] + simpson;
        assert!(
            relative(base) < 1e-8,
            "base layer off by {}",
            relative(base)
        );
        for i in 1..256 {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!(relative(area) < 1e-8, "layer {i} off by {}", relative(area));
        }
    }
}
