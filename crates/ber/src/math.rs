//! Error-function numerics implemented from scratch.
//!
//! The Rust standard library does not provide `erf`/`erfc`, and this workspace
//! deliberately keeps to a small pre-approved dependency set, so the special
//! functions needed by the BER models are implemented here:
//!
//! * [`erfc`] uses the Chebyshev-fitted rational approximation of Numerical
//!   Recipes (fractional error below 1.2 × 10⁻⁷ over the whole real line),
//!   which is ample for link-budget work where device parameters are known to
//!   a few percent at best.
//! * [`erfc_inv`] inverts it by bisection followed by Newton polishing, which
//!   is robust down to arguments of 10⁻³⁰⁰ — far beyond the 10⁻¹² BER floor
//!   explored in the paper.

/// Complementary error function `erfc(x) = 1 − erf(x)`.
///
/// ```
/// use onoc_ber::erfc;
/// assert!((erfc(0.0) - 1.0).abs() < 1e-7);
/// assert!(erfc(5.0) < 2e-11);
/// assert!((erfc(-1.0) + erfc(1.0) - 2.0).abs() < 1e-7);
/// ```
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Chebyshev fit from Numerical Recipes in C, 2nd ed., §6.2.
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x)`.
///
/// ```
/// use onoc_ber::erf;
/// assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
/// assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
/// ```
#[must_use]
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Inverse complementary error function: returns `x` such that `erfc(x) = y`.
///
/// The root is bracketed by up to 200 bisection steps and Newton-polished.
/// The bisection stops early at its exact fixed point: once a step leaves
/// the `(lo, hi)` bracket bitwise unchanged, every later step would too, so
/// the result is bit-identical to running all 200.
///
/// # Panics
///
/// Panics unless `0 < y < 2`.
///
/// ```
/// use onoc_ber::{erfc, erfc_inv};
/// let x = erfc_inv(2e-11);
/// assert!((erfc(x) - 2e-11).abs() / 2e-11 < 1e-6);
/// assert!(x > 4.5 && x < 5.0);
/// ```
#[must_use]
pub fn erfc_inv(y: f64) -> f64 {
    assert!(y > 0.0 && y < 2.0, "erfc_inv argument must be in (0, 2)");
    if (y - 1.0).abs() < 1e-300 {
        return 0.0;
    }
    // erfc is strictly decreasing; bracket the root.
    // erfc(-30) ≈ 2, erfc(30) ≈ 0 to far beyond double precision.
    let mut lo = -30.0f64;
    let mut hi = 30.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let (next_lo, next_hi) = if erfc(mid) > y { (mid, hi) } else { (lo, mid) };
        if next_lo.to_bits() == lo.to_bits() && next_hi.to_bits() == hi.to_bits() {
            break;
        }
        lo = next_lo;
        hi = next_hi;
    }
    let mut x = 0.5 * (lo + hi);
    // Newton polish: d/dx erfc(x) = -2/sqrt(pi) * exp(-x^2).
    for _ in 0..4 {
        let f = erfc(x) - y;
        let dfdx = -2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp();
        if dfdx.abs() < 1e-300 {
            break;
        }
        let step = f / dfdx;
        if !step.is_finite() {
            break;
        }
        x -= step;
    }
    x
}

/// Gaussian Q-function `Q(x) = 0.5·erfc(x/√2)`, the tail probability of a
/// standard normal variable.
#[must_use]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse of the Q-function.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
#[must_use]
pub fn q_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "q_inv argument must be in (0, 1)");
    std::f64::consts::SQRT_2 * erfc_inv(2.0 * p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath (50 digits).
    const ERFC_TABLE: &[(f64, f64)] = &[
        (0.0, 1.0),
        (0.5, 0.479_500_122_186_953_5),
        (1.0, 0.157_299_207_050_285_13),
        (2.0, 0.004_677_734_981_063_127),
        (3.0, 2.209_049_699_858_544e-5),
        (4.0, 1.541_725_790_028_002e-8),
        (5.0, 1.537_459_794_428_035e-12),
        (6.0, 2.151_973_671_249_892e-17),
    ];

    #[test]
    fn erfc_matches_reference_table() {
        for &(x, expected) in ERFC_TABLE {
            let got = erfc(x);
            let rel = if expected == 0.0 {
                got.abs()
            } else {
                ((got - expected) / expected).abs()
            };
            assert!(rel < 2e-7, "erfc({x}) = {got}, expected {expected}");
        }
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.7, 1.3, 2.9, 4.2] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn erf_limits() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(6.0) - 1.0).abs() < 1e-12);
        assert!((erf(-6.0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn erfc_inv_round_trips_over_many_decades() {
        for exp in 1..=15 {
            let y = 10f64.powi(-exp);
            let x = erfc_inv(y);
            let back = erfc(x);
            assert!((back - y).abs() / y < 1e-5, "y = 1e-{exp}: back = {back}");
        }
    }

    /// `erfc_inv` with a fixed 200-step bisection and no early stop.
    fn erfc_inv_200_steps(y: f64) -> f64 {
        if (y - 1.0).abs() < 1e-300 {
            return 0.0;
        }
        let mut lo = -30.0f64;
        let mut hi = 30.0f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if erfc(mid) > y {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mut x = 0.5 * (lo + hi);
        for _ in 0..4 {
            let f = erfc(x) - y;
            let dfdx = -2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp();
            if dfdx.abs() < 1e-300 {
                break;
            }
            let step = f / dfdx;
            if !step.is_finite() {
                break;
            }
            x -= step;
        }
        x
    }

    #[test]
    fn erfc_inv_fixed_point_stop_is_bit_identical_to_200_steps() {
        // A dense linear sweep of (0, 2), log sweeps towards both ends, and
        // the extreme representable arguments.
        let linear = (1..20_000).map(|i| f64::from(i) * 1e-4);
        let towards_zero = (1..=3000).map(|i| 10f64.powf(-f64::from(i) / 10.0));
        let towards_two = (1..=160).map(|i| 2.0 - 10f64.powf(-f64::from(i) / 10.0));
        let extremes = [
            f64::MIN_POSITIVE,
            5e-324,
            1.0 - f64::EPSILON,
            2.0 - f64::EPSILON,
        ];
        for y in linear
            .chain(towards_zero)
            .chain(towards_two)
            .chain(extremes)
            .filter(|&y| y > 0.0 && y < 2.0)
        {
            assert_eq!(
                erfc_inv(y).to_bits(),
                erfc_inv_200_steps(y).to_bits(),
                "erfc_inv({y:e})"
            );
        }
    }

    #[test]
    fn erfc_inv_of_values_above_one_is_negative() {
        let x = erfc_inv(1.5);
        assert!(x < 0.0);
        assert!((erfc(x) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn erfc_inv_of_one_is_zero() {
        assert!(erfc_inv(1.0).abs() < 1e-9);
    }

    #[test]
    fn q_function_reference_points() {
        // Q(0) = 0.5, Q(1.2816) ≈ 0.1, Q(3.09) ≈ 1e-3.
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.281_551_6) - 0.1).abs() < 1e-4);
        assert!((q_function(3.090_232_3) - 1e-3).abs() < 1e-6);
    }

    #[test]
    fn q_inv_round_trips() {
        for &p in &[0.25, 0.1, 1e-3, 1e-6, 1e-9, 1e-12] {
            let x = q_inv(p);
            assert!((q_function(x) - p).abs() / p < 1e-5, "p = {p}");
        }
    }

    #[test]
    fn q_inv_is_monotone_decreasing_in_p() {
        assert!(q_inv(1e-12) > q_inv(1e-9));
        assert!(q_inv(1e-9) > q_inv(1e-3));
    }

    #[test]
    #[should_panic(expected = "erfc_inv argument")]
    fn erfc_inv_rejects_zero() {
        let _ = erfc_inv(0.0);
    }

    #[test]
    #[should_panic(expected = "q_inv argument")]
    fn q_inv_rejects_one() {
        let _ = q_inv(1.0);
    }
}
