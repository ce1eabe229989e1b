//! The eight hardware-friendly statistical features of the generic
//! classification framework (paper §2.1): Max, Min, Mean, Var, Std, Czero,
//! Skew and Kurt.
//!
//! Each feature exists in two implementations:
//!
//! * a `f64` reference version ([`feature_f64`]) used on the aggregator end,
//!   where cells run in software on a general-purpose CPU, and
//! * a Q16.16 fixed-point version ([`feature_q16`]) reproducing the in-sensor
//!   hardware datapath (§4.4 mandates 32-bit fixed-point with 16/16 split).
//!
//! # Examples
//!
//! ```
//! use xpro_signal::stats::{feature_f64, FeatureKind};
//!
//! let window = [0.0, 1.0, 0.5, -0.5];
//! assert_eq!(feature_f64(FeatureKind::Max, &window), 1.0);
//! assert_eq!(feature_f64(FeatureKind::Mean, &window), 0.25);
//! ```

use crate::fixed::Q16;

/// The statistical feature set of the generic classification framework.
///
/// The discriminants order the features as the paper lists them (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FeatureKind {
    /// Maximal value in the window.
    Max,
    /// Minimal value in the window.
    Min,
    /// Arithmetic mean.
    Mean,
    /// Population variance.
    Var,
    /// Standard deviation (square root of [`FeatureKind::Var`]).
    Std,
    /// Zero-crossing count, normalized by window length.
    Czero,
    /// Skewness (third standardized central moment).
    Skew,
    /// Kurtosis (fourth standardized central moment).
    Kurt,
}

impl FeatureKind {
    /// All eight features in paper order.
    pub const ALL: [FeatureKind; 8] = [
        FeatureKind::Max,
        FeatureKind::Min,
        FeatureKind::Mean,
        FeatureKind::Var,
        FeatureKind::Std,
        FeatureKind::Czero,
        FeatureKind::Skew,
        FeatureKind::Kurt,
    ];

    /// Short mnemonic used in reports and figures (matches the paper).
    pub fn name(self) -> &'static str {
        match self {
            FeatureKind::Max => "Max",
            FeatureKind::Min => "Min",
            FeatureKind::Mean => "Mean",
            FeatureKind::Var => "Var",
            FeatureKind::Std => "Std",
            FeatureKind::Czero => "Czero",
            FeatureKind::Skew => "Skew",
            FeatureKind::Kurt => "Kurt",
        }
    }

    /// Index of the feature in [`FeatureKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Computes one statistical feature over a window in `f64`.
///
/// An empty window yields `0.0` for every feature: hardware cells never fire
/// without data, so this case only arises in defensive software paths.
pub fn feature_f64(kind: FeatureKind, window: &[f64]) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    match kind {
        FeatureKind::Max => window.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        FeatureKind::Min => window.iter().copied().fold(f64::INFINITY, f64::min),
        FeatureKind::Mean => mean_f64(window),
        FeatureKind::Var => central_moment_f64(window, 2),
        FeatureKind::Std => central_moment_f64(window, 2).sqrt(),
        FeatureKind::Czero => zero_crossings(window) as f64 / window.len() as f64,
        FeatureKind::Skew => standardized_moment_f64(window, 3),
        FeatureKind::Kurt => standardized_moment_f64(window, 4),
    }
}

/// Computes every feature of [`FeatureKind::ALL`] over a window in `f64`.
pub fn all_features_f64(window: &[f64]) -> [f64; 8] {
    let mut out = [0.0; 8];
    for (slot, kind) in out.iter_mut().zip(FeatureKind::ALL) {
        *slot = feature_f64(kind, window);
    }
    out
}

fn mean_f64(window: &[f64]) -> f64 {
    window.iter().sum::<f64>() / window.len() as f64
}

fn central_moment_f64(window: &[f64], p: u32) -> f64 {
    let mu = mean_f64(window);
    window.iter().map(|&x| (x - mu).powi(p as i32)).sum::<f64>() / window.len() as f64
}

fn standardized_moment_f64(window: &[f64], p: u32) -> f64 {
    let var = central_moment_f64(window, 2);
    if var <= f64::EPSILON {
        return 0.0;
    }
    central_moment_f64(window, p) / var.powf(p as f64 / 2.0)
}

/// Counts sign changes between consecutive samples.
///
/// A sample exactly at zero is treated as positive, matching a comparator
/// that tests the sign bit only.
pub fn zero_crossings(window: &[f64]) -> usize {
    window
        .windows(2)
        .filter(|w| (w[0] < 0.0) != (w[1] < 0.0))
        .count()
}

/// Computes one statistical feature over a window in Q16.16 fixed point,
/// mirroring the in-sensor hardware datapath.
///
/// The computation order (mean first, then per-sample central moments each
/// divided by `N` before accumulation) matches a serial S-ALU and avoids
/// intermediate overflow for windows of the magnitudes produced by biosignal
/// front-ends.
pub fn feature_q16(kind: FeatureKind, window: &[Q16]) -> Q16 {
    if window.is_empty() {
        return Q16::ZERO;
    }
    let n = Q16::from_int(window.len() as i32);
    match kind {
        FeatureKind::Max => window.iter().copied().fold(Q16::MIN, Q16::max),
        FeatureKind::Min => window.iter().copied().fold(Q16::MAX, Q16::min),
        FeatureKind::Mean => mean_q16(window),
        FeatureKind::Var => central_moment_q16(window, 2),
        FeatureKind::Std => central_moment_q16(window, 2).sqrt(),
        FeatureKind::Czero => {
            let crossings = window
                .windows(2)
                .filter(|w| w[0].is_negative() != w[1].is_negative())
                .count();
            Q16::from_int(crossings as i32) / n
        }
        FeatureKind::Skew => {
            let var = central_moment_q16(window, 2);
            let sigma = var.sqrt();
            let denom = sigma * sigma * sigma;
            if denom == Q16::ZERO {
                Q16::ZERO
            } else {
                central_moment_q16(window, 3) / denom
            }
        }
        FeatureKind::Kurt => {
            let var = central_moment_q16(window, 2);
            let denom = var * var;
            if denom == Q16::ZERO {
                Q16::ZERO
            } else {
                central_moment_q16(window, 4) / denom
            }
        }
    }
}

/// Computes every feature of [`FeatureKind::ALL`] over a fixed-point window,
/// bit-identical to [`feature_q16`] for each kind.
///
/// One pass takes the extremes, the sum and the zero crossings; a second,
/// after the mean, takes the 2nd, 3rd and 4th central moments together.
/// The powers of `x − mean` are the same saturating product chain
/// `feature_q16` forms for each moment, so sharing their prefixes changes
/// no bit.
pub fn all_features_q16(window: &[Q16]) -> [Q16; 8] {
    if window.is_empty() {
        return [Q16::ZERO; 8];
    }
    let n = Q16::from_int(window.len() as i32);
    let (mut max, mut min, mut sum) = (Q16::MIN, Q16::MAX, Q16::ZERO);
    let mut crossings = 0i32;
    let mut prev_negative = window[0].is_negative();
    for &x in window {
        max = max.max(x);
        min = min.min(x);
        sum += x;
        crossings += i32::from(x.is_negative() != prev_negative);
        prev_negative = x.is_negative();
    }
    let mean = sum / n;
    let (mut m2, mut m3, mut m4) = (Q16::ZERO, Q16::ZERO, Q16::ZERO);
    for &x in window {
        let d = x - mean;
        let d2 = Q16::ONE * d * d;
        let d3 = d2 * d;
        m2 += d2 / n;
        m3 += d3 / n;
        m4 += d3 * d / n;
    }
    let sigma = m2.sqrt();
    let skew_denom = sigma * sigma * sigma;
    let kurt_denom = m2 * m2;
    [
        max,
        min,
        mean,
        m2,
        sigma,
        Q16::from_int(crossings) / n,
        if skew_denom == Q16::ZERO {
            Q16::ZERO
        } else {
            m3 / skew_denom
        },
        if kurt_denom == Q16::ZERO {
            Q16::ZERO
        } else {
            m4 / kurt_denom
        },
    ]
}

fn mean_q16(window: &[Q16]) -> Q16 {
    let n = Q16::from_int(window.len() as i32);
    let sum: Q16 = window.iter().copied().sum();
    sum / n
}

fn central_moment_q16(window: &[Q16], p: u32) -> Q16 {
    let n = Q16::from_int(window.len() as i32);
    let mu = mean_q16(window);
    let mut acc = Q16::ZERO;
    for &x in window {
        let d = x - mu;
        let mut term = Q16::ONE;
        for _ in 0..p {
            term = term * d;
        }
        acc += term / n;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "got {a}, want {b}");
    }

    #[test]
    fn max_min_of_known_window() {
        let w = [1.0, -2.0, 3.0, 0.5];
        assert_eq!(feature_f64(FeatureKind::Max, &w), 3.0);
        assert_eq!(feature_f64(FeatureKind::Min, &w), -2.0);
    }

    #[test]
    fn mean_and_var_of_known_window() {
        let w = [1.0, 2.0, 3.0, 4.0];
        approx(feature_f64(FeatureKind::Mean, &w), 2.5, 1e-12);
        approx(feature_f64(FeatureKind::Var, &w), 1.25, 1e-12);
        approx(feature_f64(FeatureKind::Std, &w), 1.25f64.sqrt(), 1e-12);
    }

    #[test]
    fn empty_window_yields_zero() {
        for kind in FeatureKind::ALL {
            assert_eq!(feature_f64(kind, &[]), 0.0, "{kind}");
            assert_eq!(feature_q16(kind, &[]), Q16::ZERO, "{kind}");
        }
    }

    #[test]
    fn zero_crossings_counts_sign_changes() {
        assert_eq!(zero_crossings(&[1.0, -1.0, 1.0, -1.0]), 3);
        assert_eq!(zero_crossings(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(zero_crossings(&[0.0, -1.0]), 1); // zero counts as positive
        assert_eq!(zero_crossings(&[1.0]), 0);
    }

    #[test]
    fn skew_of_symmetric_window_is_zero() {
        let w = [-2.0, -1.0, 0.0, 1.0, 2.0];
        approx(feature_f64(FeatureKind::Skew, &w), 0.0, 1e-12);
    }

    #[test]
    fn skew_sign_follows_asymmetry() {
        let right_tailed = [0.0, 0.0, 0.0, 0.0, 10.0];
        assert!(feature_f64(FeatureKind::Skew, &right_tailed) > 0.5);
        let left_tailed = [0.0, 0.0, 0.0, 0.0, -10.0];
        assert!(feature_f64(FeatureKind::Skew, &left_tailed) < -0.5);
    }

    #[test]
    fn kurtosis_of_uniform_vs_peaked() {
        // A two-point symmetric distribution has kurtosis exactly 1.
        let flat = [1.0, -1.0, 1.0, -1.0];
        approx(feature_f64(FeatureKind::Kurt, &flat), 1.0, 1e-12);
        // A distribution with rare large outliers has high kurtosis.
        let mut peaked = vec![0.01; 99];
        peaked.push(10.0);
        assert!(feature_f64(FeatureKind::Kurt, &peaked) > 10.0);
    }

    #[test]
    fn constant_window_has_zero_higher_moments() {
        let w = [3.0; 16];
        assert_eq!(feature_f64(FeatureKind::Var, &w), 0.0);
        assert_eq!(feature_f64(FeatureKind::Skew, &w), 0.0);
        assert_eq!(feature_f64(FeatureKind::Kurt, &w), 0.0);
    }

    #[test]
    fn fixed_point_tracks_float_on_normalized_data() {
        // Values in [-1, 1], the range cells see after normalization (§4.4).
        let w: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.37).sin() * 0.8).collect();
        let wq: Vec<Q16> = w.iter().map(|&v| Q16::from_f64(v)).collect();
        for kind in [
            FeatureKind::Max,
            FeatureKind::Min,
            FeatureKind::Mean,
            FeatureKind::Var,
            FeatureKind::Std,
            FeatureKind::Czero,
        ] {
            let f = feature_f64(kind, &w);
            let q = feature_q16(kind, &wq).to_f64();
            approx(q, f, 5e-3);
        }
        // Skew/Kurt divide tiny moments; allow a looser tolerance.
        for kind in [FeatureKind::Skew, FeatureKind::Kurt] {
            let f = feature_f64(kind, &w);
            let q = feature_q16(kind, &wq).to_f64();
            approx(q, f, 0.15);
        }
    }

    #[test]
    fn q16_constant_window() {
        let w = vec![Q16::from_f64(0.5); 32];
        assert_eq!(feature_q16(FeatureKind::Mean, &w).to_f64(), 0.5);
        assert_eq!(feature_q16(FeatureKind::Var, &w), Q16::ZERO);
        assert_eq!(feature_q16(FeatureKind::Skew, &w), Q16::ZERO);
        assert_eq!(feature_q16(FeatureKind::Kurt, &w), Q16::ZERO);
    }

    #[test]
    fn all_features_matches_individual_calls() {
        let w = [0.3, -0.1, 0.7, 0.2, -0.6];
        let all = all_features_f64(&w);
        for kind in FeatureKind::ALL {
            assert_eq!(all[kind.index()], feature_f64(kind, &w), "{kind}");
        }
    }
}
