//! Randomized soundness checks of the approximate kernels against the
//! static approximation-budget calculus, and determinism of approximate
//! plans across shard counts.
//!
//! The calculus promises, per SVM base, a worst-case envelope on the
//! score deviation between the approximate and exact execution paths
//! (`SvmDeviation::dev_value`). These tests *measure* the deviation on
//! real signals — randomized kernel inputs and whole Table-1 segments —
//! and assert it never exceeds the static envelope. The skipped-DWT knob
//! is excluded from the envelope claims on purpose: its noise enters
//! upstream of the data-dependent feature scaler, which is exactly why
//! the calculus taints downstream SVMs as unconditionally flippable
//! instead of trusting their margin (and why the planner never executes
//! such a rung — the `aggressive` ladder level is never budget-proven).

use std::collections::BTreeMap;
use xpro::analyze::{analyze_approx_budget, AnalyzeOptions, ApproxBudget, SignalBounds};
use xpro::core::analysis::cell_specs;
use xpro::core::{assignment_for_graph, plan_approximate, ApproxLevel, ApproxPlanOptions};
use xpro::data::{generate_case_sized, CaseId, Dataset};
use xpro::ml::SubspaceConfig;
use xpro::prelude::*;
use xpro::runtime::check_score_deviations;
use xpro::signal::fixed::{truncated_mul_error_ulps, Q16};

/// Deterministic PCG-style LCG so the "random" signals are reproducible.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn rand_f64(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let u = (lcg(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + u * (hi - lo)
}

fn quick_pipeline(case: CaseId, seed: u64) -> (XProPipeline, Dataset) {
    let data = generate_case_sized(case, 90, seed);
    let cfg = PipelineConfig::builder()
        .subspace(SubspaceConfig {
            candidates: 10,
            features_per_base: 8,
            keep_fraction: 0.3,
            min_keep: 3,
            folds: 2,
            ..SubspaceConfig::default()
        })
        .build()
        .expect("valid config");
    let p = XProPipeline::train(&data, &cfg).expect("trains");
    (p, data)
}

#[test]
fn truncated_multiplies_never_exceed_their_static_ulp_bound() {
    let mut state = 0x5EED_CAFE_u64;
    for bits in [1u32, 2, 4, 8, 12, 16] {
        let bound = truncated_mul_error_ulps(bits);
        for _ in 0..2_000 {
            let a = Q16::from_f64(rand_f64(&mut state, -8.0, 8.0));
            let b = Q16::from_f64(rand_f64(&mut state, -8.0, 8.0));
            let exact = a.saturating_mul(b);
            let approx = a.truncated_mul(b, bits);
            let dev = (i64::from(exact.raw()) - i64::from(approx.raw())).abs();
            assert!(
                dev <= bound,
                "trunc{bits}: {a:?}*{b:?} deviated {dev} ulps > {bound}"
            );
        }
    }
}

/// Every truncation/pruning ladder rung, executed on real segments under
/// both the all-sensor placement (worst fixed-point stress) and the
/// generator's cut: per-base observed score deviation stays inside the
/// rung's static affine envelope.
#[test]
fn observed_score_deviations_stay_within_the_static_envelopes() {
    let (p, data) = quick_pipeline(CaseId::C1, 23);
    let (lo, hi) = data.signal_range();
    let bounds = SignalBounds::new(lo, hi);
    let instance = XProInstance::try_with_bounds(
        p.built().clone(),
        SystemConfig::default(),
        p.segment_len(),
        bounds,
    )
    .expect("valid instance");
    let generator = XProGenerator::new(&instance);
    let cut = generator.generate().expect("cut");
    let fallback = generator.fallback_cut();
    let specs = cell_specs(&p.built().graph);

    let mut state = 0xD1CE_u64;
    for level in [
        ApproxLevel::Prune1,
        ApproxLevel::SvmTrunc4,
        ApproxLevel::SvmTrunc4Prune1,
    ] {
        let assignment = assignment_for_graph(p.built(), level);
        assert!(!assignment.is_empty(), "{level}: empty assignment");
        let analysis = analyze_approx_budget(
            &specs,
            bounds,
            &AnalyzeOptions::default(),
            &assignment,
            &ApproxBudget::default(),
        )
        .expect("analysis");
        for partition in [&fallback, &cut] {
            for _ in 0..12 {
                let seg = &data.segments[(lcg(&mut state) % data.len() as u64) as usize];
                let exact = p.base_scores_q16(seg, partition);
                let approx = p.base_scores_q16_approx(seg, partition, &assignment);
                let violations = check_score_deviations(&exact, &approx, &analysis);
                assert!(
                    violations.is_empty(),
                    "{level}: observed deviation escaped the static envelope: {violations:?}"
                );
            }
        }
    }
}

/// The planner's own winner — budget-proven, certified, accuracy-floored —
/// honors its envelope on every segment of the dataset it was planned for.
#[test]
fn planned_approximate_deployment_honors_its_envelope_end_to_end() {
    let (p, data) = quick_pipeline(CaseId::E2, 13);
    let out = plan_approximate(
        &p,
        &data,
        SystemConfig::default(),
        &ApproxPlanOptions::default(),
    )
    .expect("plans");
    let Some(level) = out.level else {
        // The exact plan winning is a legal outcome, but this pipeline is
        // known to admit an approximate winner; regressing to exact here
        // would silently gut the test.
        panic!("expected an approximate winner on E2");
    };
    let analysis = out.analysis.as_ref().expect("winner carries its proof");
    let assignment = out.assignment().clone();
    assert!(out.sensor_pj < out.exact_sensor_pj, "{level} did not save");
    for seg in &data.segments {
        let exact = p.base_scores_q16(seg, &out.partition);
        let approx = p.base_scores_q16_approx(seg, &out.partition, &assignment);
        let violations = check_score_deviations(&exact, &approx, analysis);
        assert!(
            violations.is_empty(),
            "{level}: planned deployment broke its envelope: {violations:?}"
        );
    }
}

/// Approximate plans run through the sharded fleet executor exactly like
/// exact ones: reports are equal — and byte-identical once rendered — for
/// any shard count.
#[test]
fn approximate_plans_are_byte_identical_across_shard_counts() {
    let (p, data) = quick_pipeline(CaseId::E2, 13);
    let out = plan_approximate(
        &p,
        &data,
        SystemConfig::default(),
        &ApproxPlanOptions::default(),
    )
    .expect("plans");
    assert!(
        out.instance.is_approximate(),
        "expected an approximate plan"
    );
    let run = |shards: usize| {
        let cfg = RuntimeConfig::builder()
            .nodes(8)
            .duration_s(2.0)
            .drop_rate(0.05)
            .seed(42)
            .build()
            .expect("valid config");
        ExecutorBuilder::new(
            FleetSpec::new(&out.instance, &out.partition, cfg).expect("valid spec"),
        )
        .shards(ShardCount::Fixed(shards))
        .build()
        .expect("valid build")
        .run()
        .report
    };
    let one = run(1);
    assert!(one.total_completed() > 0, "the fleet never completed work");
    for shards in [2usize, 4, 8] {
        let n = run(shards);
        assert_eq!(one, n, "{shards} shards diverged");
        assert_eq!(
            format!("{one:?}"),
            format!("{n:?}"),
            "{shards} shards rendered differently"
        );
    }
}

/// The assignment maps are plain `BTreeMap`s — independently recomputed
/// plans for the same pipeline agree key-for-key, so plan-cache lookups
/// and replans see one canonical approximate instance.
#[test]
fn recomputed_assignments_are_canonical() {
    let (p, _) = quick_pipeline(CaseId::C1, 23);
    for level in ApproxLevel::ALL {
        let a: BTreeMap<_, _> = assignment_for_graph(p.built(), level);
        let b = assignment_for_graph(p.built(), level);
        assert_eq!(a, b, "{level}");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{level}");
    }
}
