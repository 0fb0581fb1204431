//! The split ziggurat draws what the one-loop ziggurat drew: the inline
//! accept step, the cold continuation and the `SimRng::normals` handle
//! give the same normals in the same order, through
//! `TruncatedGaussian::fill_row` rows and through single draws, and leave
//! the generator at the same point.
//!
//! The reference is the sampler as it stood before the split: its tables,
//! its loop and its tail, copied verbatim but for `self` (the generator
//! and the tables are arguments here) and two counters, so the test also
//! shows that both rare paths ran.

use cdt_quality::TruncatedGaussian;
use cdt_types::check::check;
use cdt_types::SimRng;

/// Where the ziggurat's base layer meets its tail.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// The common area of the 256 layers under `exp(-x²/2)`.
const ZIG_V: f64 = 0.004_928_673_233_99;
/// `2⁻⁵³`: scales a 53-bit integer into `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Layer edges and `f[i] = exp(-x[i]²/2)`, built by Doornik's recurrence.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

fn ziggurat() -> Ziggurat {
    let pdf = |x: f64| (-0.5 * x * x).exp();
    let mut x = [0.0; 257];
    x[0] = ZIG_V / pdf(ZIG_R);
    x[1] = ZIG_R;
    for i in 2..256 {
        x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
    }
    Ziggurat { x, f: x.map(pdf) }
}

/// How often the reference took each rare path.
#[derive(Debug, Default)]
struct Paths {
    /// Wedge tests: an attempt outside its layer's core, above the base.
    wedges: u64,
    /// Tail draws: an attempt outside the base layer's core.
    tails: u64,
}

fn unit(rng: &mut SimRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * UNIT
}

fn open_unit(rng: &mut SimRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * UNIT
}

/// A standard normal `N(0, 1)` draw, by the ziggurat.
fn standard_normal(rng: &mut SimRng, z: &Ziggurat, paths: &mut Paths) -> f64 {
    loop {
        let bits = rng.next_u64();
        // The low 8 bits pick the layer; the high 52 make a float in
        // [2, 4), shifted to a signed uniform on [-1, 1).
        let i = (bits & 0xff) as usize;
        let u = f64::from_bits((bits >> 12) | 0x4000_0000_0000_0000) - 3.0;
        let x = u * z.x[i];
        // Inside the layer's core rectangle: accept outright.
        if x.abs() < z.x[i + 1] {
            return x;
        }
        if i == 0 {
            paths.tails += 1;
            return normal_tail(rng, u < 0.0);
        }
        paths.wedges += 1;
        // In the wedge: accept if a uniform height falls under φ(x).
        let y = z.f[i + 1] + (z.f[i] - z.f[i + 1]) * unit(rng);
        if y < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// A draw from the normal tail beyond `±ZIG_R`, by Marsaglia's
/// exponential method.
fn normal_tail(rng: &mut SimRng, negative: bool) -> f64 {
    loop {
        let x = open_unit(rng).ln() / ZIG_R;
        let y = open_unit(rng).ln();
        if -2.0 * y >= x * x {
            return if negative { x - ZIG_R } else { ZIG_R - x };
        }
    }
}

/// One truncated-Gaussian observation by rejection, as
/// `TruncatedGaussian::sample` draws it, from the reference normals.
fn observation(d: &TruncatedGaussian, rng: &mut SimRng, z: &Ziggurat, paths: &mut Paths) -> f64 {
    loop {
        let x = d.mu + d.sigma * standard_normal(rng, z, paths);
        if (0.0..=1.0).contains(&x) {
            return x;
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn split_ziggurat_draws_what_the_one_loop_ziggurat_drew() {
    let z = ziggurat();
    let mut paths = Paths::default();
    check(
        4_000,
        |rng| {
            let mu = match rng.below(4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.uniform_inclusive(0.0..=1.0),
            };
            // σ log-uniform on [0.01, 3].
            let sigma = 0.01 * 300f64.powf(rng.uniform_inclusive(0.0..=1.0));
            let row = rng.below(25) as usize;
            let singles = rng.below(513) as usize;
            (mu, sigma, row, singles, rng.next_u64())
        },
        |&(mu, sigma, len, singles, seed)| {
            let d = TruncatedGaussian::new(mu, sigma);
            let (mut split, mut reference) = (SimRng::new(seed), SimRng::new(seed));

            let mut row = vec![f64::NAN; len];
            d.fill_row(&mut split, &mut row);
            let expected: Vec<f64> = (0..len)
                .map(|_| observation(&d, &mut reference, &z, &mut paths))
                .collect();
            assert_eq!(bits(&row), bits(&expected), "the row");
            assert_eq!(
                split.next_u64(),
                reference.next_u64(),
                "the stream after the row"
            );

            let drawn: Vec<f64> = (0..singles).map(|_| split.standard_normal()).collect();
            let expected: Vec<f64> = (0..singles)
                .map(|_| standard_normal(&mut reference, &z, &mut paths))
                .collect();
            assert_eq!(bits(&drawn), bits(&expected), "the single draws");
            assert_eq!(
                split.next_u64(),
                reference.next_u64(),
                "the stream after the single draws"
            );
        },
    );
    // The tail takes about 2.6 · 10⁻⁴ of attempts and the wedge about
    // 1.5 · 10⁻², so the ~10⁶ attempts here reach the tail a few hundred
    // times (272) and the wedge about 16 600 times.
    assert!(paths.wedges >= 100, "{paths:?}");
    assert!(paths.tails >= 100, "{paths:?}");
}
