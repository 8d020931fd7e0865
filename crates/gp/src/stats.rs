//! Standard-normal density and distribution functions.
//!
//! Expected Improvement (paper Eq. 2) needs the standard normal CDF `Ω(z)`
//! and PDF `ω(z)`. The CDF is computed from an `erf` implementation
//! (Abramowitz & Stegun 7.1.26, |error| ≤ 1.5e-7, plus symmetry), which is
//! plenty for acquisition ranking.

use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Maximum absolute error of [`erf`] (Abramowitz & Stegun 7.1.26); so
/// [`norm_cdf`] is within half of it of the exact `Ω`.
pub const ERF_MAX_ABS_ERROR: f64 = 1.5e-7;

/// Error function `erf(x)` via the Abramowitz & Stegun 7.1.26 rational
/// approximation (absolute error below [`ERF_MAX_ABS_ERROR`]).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal probability density `ω(z)`.
#[must_use]
pub fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * PI).sqrt()
}

/// Standard normal cumulative distribution `Ω(z)`.
#[must_use]
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z * FRAC_1_SQRT_2))
}

/// Arithmetic mean of a slice (`0.0` for an empty slice).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice (`0.0` for fewer than two
/// elements).
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Geometric mean of strictly positive values (`0.0` if any value is ≤ 0,
/// `1.0` for an empty slice). The paper's score function (Eq. 3) is built
/// on geometric means of per-job ratios.
#[must_use]
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    if xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // erf(0)=0, erf(1)≈0.8427007929, erf(2)≈0.9953222650.
        assert!(erf(0.0).abs() < 2e-7);
        assert!((erf(1.0) - 0.842_700_792_9).abs() < 2e-7);
        assert!((erf(2.0) - 0.995_322_265_0).abs() < 2e-7);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12, "odd symmetry");
    }

    #[test]
    fn cdf_reference_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 2e-7);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(norm_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn pdf_symmetry_and_peak() {
        assert!((norm_pdf(0.0) - 0.398_942_280_4).abs() < 1e-9);
        assert!((norm_pdf(1.3) - norm_pdf(-1.3)).abs() < 1e-15);
    }

    #[test]
    fn cdf_monotone() {
        let mut last = 0.0;
        for i in -40..=40 {
            let c = norm_cdf(f64::from(i) * 0.1);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn summary_stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_properties() {
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[1.0, 0.0]), 0.0);
        assert_eq!(geometric_mean(&[1.0, -2.0]), 0.0);
    }
}
