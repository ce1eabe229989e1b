//! Sketch rank-error soundness: the quantile sketch's documented error
//! bound must hold against the *exact* sorted-order statistics for
//! adversarially shaped sample sets — heavy tails, constants, bimodal
//! splits, single samples and denormal-adjacent floats — not just the
//! friendly uniform grids of the unit tests.
//!
//! The rank rule is pinned too: the sketch uses `rank = ⌈q·n⌉` clamped
//! to `[1, n]`, exactly what [`LatencyStats`] used when it sorted raw
//! samples, so the oracle below is the spec, not an approximation.

#![allow(clippy::unwrap_used)] // tests fail loudly by design

use xpro::runtime::sketch::QuantileSketch;
use xpro::runtime::LatencyStats;

/// The exact order statistic the sketch approximates: `⌈q·n⌉`-th
/// smallest sample, rank clamped to `[1, n]`.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let n = sorted.len() as f64;
    let rank = ((q.clamp(0.0, 1.0) * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Asserts p50/p95/p99 of `samples` stay within the documented relative
/// error of the exact sorted-order quantile, and that min/max/count are
/// exact. Only valid for samples inside `[FLOOR, CAP)`, where the bound
/// is a *relative* one.
fn assert_within_bound(label: &str, samples: &[f64]) {
    for &v in samples {
        assert!(
            (QuantileSketch::FLOOR..QuantileSketch::CAP).contains(&v),
            "{label}: sample {v} outside the relative-error range"
        );
    }
    let sketch = QuantileSketch::from_samples(samples.iter().copied());
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(sketch.count(), samples.len() as u64, "{label}: count");
    assert_eq!(sketch.min(), sorted[0], "{label}: min is exact");
    assert_eq!(sketch.max(), *sorted.last().unwrap(), "{label}: max");
    for q in [0.5, 0.95, 0.99] {
        let exact = exact_quantile(&sorted, q);
        let got = sketch.quantile(q);
        let rel = (got - exact).abs() / exact;
        assert!(
            rel <= QuantileSketch::REL_ERROR,
            "{label}: q{q} reported {got}, exact {exact}, rel err {rel:.6} > {}",
            QuantileSketch::REL_ERROR
        );
    }
    assert_eq!(sketch.quantile(1.0), sketch.max(), "{label}: p100 == max");
}

/// A deterministic xorshift so the adversarial sets are reproducible
/// without pulling in a random-number dependency.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn uniform01(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn heavy_tailed_samples_stay_within_the_bound() {
    // Pareto-ish tail via inverse transform: x = m / u^(1/α) with a
    // small α so the p99 sits orders of magnitude above the median —
    // the shape log-linear buckets exist for. Capped below CAP so the
    // relative bound applies everywhere.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let samples: Vec<f64> = (0..5000)
        .map(|_| {
            let u = uniform01(&mut state).max(1e-12);
            (1e-3 / u.powf(1.0 / 1.1)).min(QuantileSketch::CAP * 0.99)
        })
        .collect();
    assert_within_bound("heavy-tailed", &samples);
}

#[test]
fn constant_samples_report_the_constant_exactly() {
    let samples = vec![0.0371; 1000];
    assert_within_bound("constant", &samples);
    // Stronger than the bound: the [min, max] clamp makes single-valued
    // data exact at every quantile.
    let sketch = QuantileSketch::from_samples(samples.iter().copied());
    for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
        assert_eq!(sketch.quantile(q), 0.0371);
    }
    assert_eq!(sketch.mean(), 0.0371);
}

#[test]
fn bimodal_samples_stay_within_the_bound() {
    // Two tight modes three orders of magnitude apart, split so p50
    // lands in the low mode and p95/p99 in the high one — quantiles
    // must jump the empty gap without smearing.
    let mut samples = Vec::new();
    for i in 0..900 {
        samples.push(2e-4 + i as f64 * 1e-8);
    }
    for i in 0..100 {
        samples.push(0.5 + i as f64 * 1e-5);
    }
    assert_within_bound("bimodal", &samples);
    let sketch = QuantileSketch::from_samples(samples.iter().copied());
    assert!(sketch.quantile(0.5) < 1e-3, "p50 must sit in the low mode");
    assert!(sketch.quantile(0.99) > 0.4, "p99 must sit in the high mode");
}

#[test]
fn single_sample_is_exact_at_every_quantile() {
    let sketch = QuantileSketch::from_samples([0.0123]);
    assert_eq!(sketch.count(), 1);
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(sketch.quantile(q), 0.0123, "q{q}");
    }
    assert_eq!(sketch.mean(), 0.0123);
    assert_eq!(sketch.min(), 0.0123);
    assert_eq!(sketch.max(), 0.0123);
}

#[test]
fn denormal_adjacent_samples_use_the_absolute_floor_bound() {
    // Subnormals, the smallest normal, zero, and values straddling the
    // sketch floor. Below FLOOR the documented bound switches from
    // relative to absolute (≤ FLOOR/2); these must neither panic nor
    // report anything outside [min, max].
    let tiny = [
        0.0,
        f64::MIN_POSITIVE / 4.0, // subnormal
        f64::MIN_POSITIVE,
        QuantileSketch::FLOOR / 2.0,
        QuantileSketch::FLOOR * (1.0 - f64::EPSILON), // just under the floor
        QuantileSketch::FLOOR,                        // first full-precision bucket
        QuantileSketch::FLOOR * (1.0 + f64::EPSILON),
    ];
    let sketch = QuantileSketch::from_samples(tiny);
    assert_eq!(sketch.count(), tiny.len() as u64);
    assert_eq!(sketch.min(), 0.0, "min is exact even for denormals");
    assert_eq!(sketch.max(), QuantileSketch::FLOOR * (1.0 + f64::EPSILON));
    for q in [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
        let got = sketch.quantile(q);
        assert!(got.is_finite());
        assert!(
            (sketch.min()..=sketch.max()).contains(&got),
            "q{q} reported {got} outside [min, max]"
        );
        // Everything here is ≤ FLOOR·(1+ε), so the absolute error of
        // any report is bounded by the floor itself.
        let exact = {
            let mut sorted = tiny.to_vec();
            sorted.sort_by(f64::total_cmp);
            exact_quantile(&sorted, q)
        };
        assert!(
            (got - exact).abs() <= QuantileSketch::FLOOR,
            "q{q}: |{got} - {exact}| > FLOOR"
        );
    }
}

#[test]
fn over_cap_samples_report_conservatively() {
    // At or above CAP the sketch collapses to the exact observed max —
    // never *under*-reporting a tail quantile (the direction soundness
    // checks care about).
    let samples = [0.01, 0.02, 70.0, 100.0, 1000.0];
    let sketch = QuantileSketch::from_samples(samples);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(sketch.max(), 1000.0);
    for q in [0.5, 0.95, 0.99, 1.0] {
        let got = sketch.quantile(q);
        let exact = exact_quantile(&sorted, q);
        assert!(
            got >= exact * (1.0 - QuantileSketch::REL_ERROR),
            "q{q}: {got} under-reports exact {exact}"
        );
        assert!(got <= sketch.max());
    }
    assert_eq!(sketch.quantile(1.0), 1000.0, "p100 is the exact max");
}

#[test]
fn bulk_construction_matches_incremental_insertion() {
    // from_samples must be *identical* to one-by-one insertion — in any
    // order. Mixed shapes: both modes, tails, floor-adjacent values.
    let mut state = 0x1234_5678_9abc_def0u64;
    let samples: Vec<f64> = (0..2000)
        .map(|i| match i % 4 {
            0 => uniform01(&mut state) * 1e-3,
            1 => 0.1 + uniform01(&mut state),
            2 => QuantileSketch::FLOOR * uniform01(&mut state) * 2.0,
            _ => 1e-3 / uniform01(&mut state).max(1e-9),
        })
        .collect();
    let bulk = QuantileSketch::from_samples(samples.iter().copied());
    let mut incremental = QuantileSketch::new();
    for &v in &samples {
        incremental.record(v);
    }
    assert_eq!(bulk, incremental, "forward insertion diverged");
    let mut reversed = QuantileSketch::new();
    for &v in samples.iter().rev() {
        reversed.record(v);
    }
    assert_eq!(bulk, reversed, "reverse insertion diverged");
    // And LatencyStats::from_samples digests exactly that sketch.
    let stats = LatencyStats::from_samples(samples);
    assert_eq!(stats, LatencyStats::from_sketch(&bulk));
}
