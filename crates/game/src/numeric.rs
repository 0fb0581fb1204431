//! Derivative-free scalar maximization.
//!
//! The closed-form best responses of Theorems 14–16 are cross-validated
//! against this independent golden-section maximizer in the unit tests and
//! in the `equilibrium_closed_vs_numeric` ablation bench. It is also used
//! for profit functions whose optimum the paper does not derive (e.g. the
//! consumer profit as a raw function of `p^J` when bounds are active).

/// Result of a scalar maximization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Maximum {
    /// The maximizing argument.
    pub argmax: f64,
    /// The function value at [`Maximum::argmax`].
    pub value: f64,
}

/// Golden-section search for the maximum of a *unimodal* `f` on `[lo, hi]`.
///
/// Converges linearly with ratio `1/φ ≈ 0.618`; with `tol = 1e-9` and a
/// unit-length interval this takes ~45 evaluations. For non-unimodal `f`
/// the result is a local maximum; callers that need the global optimum on a
/// multi-modal profit (Fig. 3 of the paper) should use
/// [`grid_then_golden`].
///
/// # Panics
/// Panics if `lo > hi` or either bound is not finite.
pub fn golden_section_max<F: FnMut(f64) -> f64>(mut f: F, lo: f64, hi: f64, tol: f64) -> Maximum {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "lo must be <= hi");
    const INV_PHI: f64 = 0.618_033_988_749_894_8; // (√5 − 1) / 2
    const INV_PHI2: f64 = 0.381_966_011_250_105_2; // 1 − 1/φ

    if hi - lo < tol {
        let mid = 0.5 * (lo + hi);
        return Maximum {
            argmax: mid,
            value: f(mid),
        };
    }

    let mut a = lo;
    let mut b = hi;
    let mut c = a + INV_PHI2 * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);

    // Ends at `tol`, or once an iteration fails to shrink the bracket: a
    // `tol` below the float spacing of `[a, b]` is never reached.
    let mut width = b - a;
    while width > tol {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = a + INV_PHI2 * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
        if b - a >= width {
            break;
        }
        width = b - a;
    }
    let argmax = 0.5 * (a + b);
    Maximum {
        argmax,
        value: f(argmax),
    }
}

/// Global maximization of a possibly multi-modal scalar function: evaluate
/// `f` on a uniform grid of `grid_points`, then refine around the best grid
/// cell with golden-section search.
///
/// The consumer profit `Φ(Υ)` analysed in Theorem 16 has two stationary
/// points (Fig. 3); a ~1000-point grid separates them reliably for the
/// parameter ranges of the paper.
///
/// # Panics
/// Panics if `grid_points < 2` or bounds are not finite / ordered.
pub fn grid_then_golden<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    grid_points: usize,
    tol: f64,
) -> Maximum {
    assert!(grid_points >= 2, "need at least two grid points");
    assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
    let step = (hi - lo) / (grid_points - 1) as f64;
    let mut best_i = 0;
    let mut best_v = f64::NEG_INFINITY;
    for i in 0..grid_points {
        let x = lo + step * i as f64;
        let v = f(x);
        if v > best_v {
            best_v = v;
            best_i = i;
        }
    }
    let a = lo + step * best_i.saturating_sub(1) as f64;
    let b = (lo + step * (best_i + 1) as f64).min(hi);
    golden_section_max(f, a, b, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_parabola_peak() {
        let m = golden_section_max(|x| -(x - 3.0) * (x - 3.0) + 7.0, 0.0, 10.0, 1e-9);
        assert!((m.argmax - 3.0).abs() < 1e-6);
        assert!((m.value - 7.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_maximum_is_found() {
        // Monotone increasing: the max sits at the right edge.
        let m = golden_section_max(|x| x, 0.0, 5.0, 1e-9);
        assert!((m.argmax - 5.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_interval() {
        let m = golden_section_max(|x| x * x, 2.0, 2.0, 1e-9);
        assert_eq!(m.argmax, 2.0);
        assert_eq!(m.value, 4.0);
    }

    #[test]
    fn log_linear_profit_shape() {
        // ω ln(1+x) − x peaks at x = ω − 1.
        let omega = 50.0;
        let m = golden_section_max(|x| omega * (1.0 + x).ln() - x, 0.0, 100.0, 1e-10);
        assert!((m.argmax - 49.0).abs() < 1e-5, "argmax {}", m.argmax);
    }

    #[test]
    fn grid_then_golden_escapes_local_max() {
        // Two humps: local max near x=1 (height 1), global near x=4 (height 2).
        let f = |x: f64| {
            let h1 = (-(x - 1.0) * (x - 1.0) / 0.1).exp();
            let h2 = 2.0 * (-(x - 4.0) * (x - 4.0) / 0.1).exp();
            h1 + h2
        };
        let m = grid_then_golden(f, 0.0, 5.0, 501, 1e-10);
        assert!((m.argmax - 4.0).abs() < 1e-4, "argmax {}", m.argmax);
        assert!((m.value - 2.0).abs() < 1e-6);
    }

    /// A `tol` below the float spacing of the bracket (1e-9 at 1e20) ends
    /// the search where it stops shrinking instead of looping forever.
    #[test]
    fn stops_once_the_bracket_cannot_shrink() {
        let mut evaluations = 0;
        let m = golden_section_max(
            |x| {
                evaluations += 1;
                assert!(evaluations < 10_000, "the search does not end");
                -(x - 7e19).abs()
            },
            0.0,
            1e20,
            1e-9,
        );
        assert!((m.argmax / 7e19 - 1.0).abs() < 1e-12, "{}", m.argmax);
    }

    #[test]
    #[should_panic(expected = "lo must be <= hi")]
    fn rejects_inverted_bounds() {
        let _ = golden_section_max(|x| x, 1.0, 0.0, 1e-9);
    }

    #[test]
    #[should_panic(expected = "bounds must be finite")]
    fn rejects_infinite_bounds() {
        let _ = golden_section_max(|x| x, 0.0, f64::INFINITY, 1e-9);
    }
}
