//! Property-based tests for the signal substrate invariants.

use proptest::prelude::*;
use xpro_signal::dwt::{dwt_multilevel, dwt_single, Wavelet};
use xpro_signal::fixed::Q16;
use xpro_signal::stats::{all_features_q16, feature_f64, feature_q16, FeatureKind};
use xpro_signal::window::{fit_length, normalize_unit};

fn small_signal() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 1..256)
}

fn unit_signal() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, 4..128)
}

proptest! {
    #[test]
    fn q16_add_commutes(a in -30000.0f64..30000.0, b in -30000.0f64..30000.0) {
        let (qa, qb) = (Q16::from_f64(a), Q16::from_f64(b));
        prop_assert_eq!(qa + qb, qb + qa);
    }

    #[test]
    fn q16_mul_commutes(a in -150.0f64..150.0, b in -150.0f64..150.0) {
        let (qa, qb) = (Q16::from_f64(a), Q16::from_f64(b));
        prop_assert_eq!(qa * qb, qb * qa);
    }

    #[test]
    fn q16_roundtrip_error_bounded(v in -32000.0f64..32000.0) {
        let q = Q16::from_f64(v);
        prop_assert!((q.to_f64() - v).abs() <= 0.5 / 65536.0 + 1e-12);
    }

    #[test]
    fn q16_sqrt_squares_back(v in 0.0f64..30000.0) {
        let q = Q16::from_f64(v);
        let r = q.sqrt();
        let sq = r.to_f64() * r.to_f64();
        // Relative error bound dominated by Q16 resolution at small values.
        prop_assert!((sq - v).abs() <= 0.02 * v.max(1.0));
    }

    #[test]
    fn q16_exp_is_monotonic(a in -10.0f64..9.0, d in 0.01f64..1.0) {
        let lo = Q16::from_f64(a).exp();
        let hi = Q16::from_f64(a + d).exp();
        prop_assert!(hi >= lo);
    }

    #[test]
    fn all_features_q16_equals_feature_q16_per_kind(
        w in prop::collection::vec(-1.0f64..1.0, 1..129),
        exponent in 0u32..17,
        mantissa in 1.0f64..2.0,
    ) {
        // Scales from unit data up past the ±32768 rails, so every moment
        // chain saturates somewhere in the range.
        let scale = mantissa * f64::from(1u32 << exponent);
        let wq: Vec<Q16> = w.iter().map(|&v| Q16::from_f64(v * scale)).collect();
        let all = all_features_q16(&wq);
        for kind in FeatureKind::ALL {
            prop_assert_eq!(all[kind.index()], feature_q16(kind, &wq), "{} at scale {}", kind, scale);
        }
    }

    #[test]
    fn min_le_mean_le_max(w in small_signal()) {
        let min = feature_f64(FeatureKind::Min, &w);
        let max = feature_f64(FeatureKind::Max, &w);
        let mean = feature_f64(FeatureKind::Mean, &w);
        prop_assert!(min <= mean + 1e-9);
        prop_assert!(mean <= max + 1e-9);
    }

    #[test]
    fn variance_is_non_negative(w in small_signal()) {
        prop_assert!(feature_f64(FeatureKind::Var, &w) >= -1e-9);
    }

    #[test]
    fn std_is_sqrt_of_var(w in small_signal()) {
        let var = feature_f64(FeatureKind::Var, &w);
        let std = feature_f64(FeatureKind::Std, &w);
        prop_assert!((std * std - var).abs() < 1e-6 * (1.0 + var));
    }

    #[test]
    fn czero_is_a_fraction(w in small_signal()) {
        let cz = feature_f64(FeatureKind::Czero, &w);
        prop_assert!((0.0..=1.0).contains(&cz));
    }

    #[test]
    fn shift_invariance_of_central_moments(w in unit_signal(), shift in -5.0f64..5.0) {
        let shifted: Vec<f64> = w.iter().map(|&x| x + shift).collect();
        for kind in [FeatureKind::Var, FeatureKind::Skew, FeatureKind::Kurt] {
            let a = feature_f64(kind, &w);
            let b = feature_f64(kind, &shifted);
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{}: {} vs {}", kind, a, b);
        }
    }

    #[test]
    fn fixed_features_track_float_on_unit_data(w in unit_signal()) {
        let wq: Vec<Q16> = w.iter().map(|&v| Q16::from_f64(v)).collect();
        for kind in [FeatureKind::Max, FeatureKind::Min, FeatureKind::Mean] {
            let f = feature_f64(kind, &w);
            let q = feature_q16(kind, &wq).to_f64();
            prop_assert!((f - q).abs() < 1e-2, "{}: {} vs {}", kind, f, q);
        }
    }

    #[test]
    fn dwt_preserves_energy(w in prop::collection::vec(-10.0f64..10.0, 8..64)) {
        // Per-level Parseval holds for even-length signals with periodic
        // extension and orthonormal filters.
        let w = if w.len() % 2 == 1 { w[..w.len() - 1].to_vec() } else { w };
        let level = dwt_single(&w, Wavelet::Haar);
        let e_in: f64 = w.iter().map(|x| x * x).sum();
        let e_out: f64 = level.approx.iter().chain(&level.detail).map(|x| x * x).sum();
        prop_assert!((e_in - e_out).abs() < 1e-6 * (1.0 + e_in));
    }

    #[test]
    fn dwt_subband_lengths_halve(levels in 1usize..6) {
        let sig = vec![1.0; 128];
        let dec = dwt_multilevel(&sig, levels, Wavelet::Haar);
        let mut expect = 128usize;
        for d in &dec.details {
            expect /= 2;
            prop_assert_eq!(d.len(), expect);
        }
        prop_assert_eq!(dec.approx.len(), expect);
    }

    #[test]
    fn normalize_unit_bounds(w in small_signal()) {
        for v in normalize_unit(&w) {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn fit_length_is_exact(w in small_signal(), target in 1usize..300) {
        prop_assert_eq!(fit_length(&w, target).len(), target);
    }
}
