//! Bit-for-bit pins on approximate planning.
//!
//! `plan_approximate` builds one front end per segment, memoises each
//! base's per-segment scores by what they depend on, quantises every SVM
//! once at training and reuses range reports across its rungs. These
//! tests hold each shortcut to its reference definition, so a speed-only
//! change cannot move an approximate plan, an accuracy or a score.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpro::core::approx::{
    assignment_for_graph, plan_approximate, ApproxEvaluator, ApproxLevel, ApproxPlanOptions,
};
use xpro::core::layout::FeatureLayout;
use xpro::core::pipeline::{extract_features, PipelineConfig, XProPipeline};
use xpro::core::{SystemConfig, XProGenerator, XProInstance};
use xpro::data::{generate_case_sized, CaseId, Dataset};
use xpro::hw::ProcessNode;
use xpro::ml::kernel::Kernel;
use xpro::ml::svm::{Svm, SvmConfig};
use xpro::ml::{MinMaxScaler, SubspaceConfig};
use xpro::signal::fixed::Q16;
use xpro::signal::stats::FeatureKind;

/// FNV-1a over bytes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// The six Table-1 cases trained at benchmark scale: 240 segments of the
/// seed-1 datasets, the 24-candidate harness ensemble.
fn cases() -> &'static [(CaseId, XProPipeline, Dataset)] {
    static CASES: OnceLock<Vec<(CaseId, XProPipeline, Dataset)>> = OnceLock::new();
    CASES.get_or_init(|| {
        let cfg = PipelineConfig::builder()
            .subspace(SubspaceConfig {
                candidates: 24,
                features_per_base: 12,
                keep_fraction: 0.25,
                min_keep: 4,
                folds: 3,
                ..SubspaceConfig::default()
            })
            .build()
            .expect("valid config");
        CaseId::ALL
            .iter()
            .map(|&case| {
                let data = generate_case_sized(case, 240, 1);
                let pipeline = XProPipeline::train(&data, &cfg).expect("trains");
                (case, pipeline, data)
            })
            .collect()
    })
}

/// Digests of every outcome's level, partition, sensor energies, both
/// cross-validated accuracies and budget verdict, recorded from the
/// planner that classified every segment afresh for every cut.
const PINNED: [(CaseId, ProcessNode, u64); 18] = [
    (CaseId::C1, ProcessNode::N130, 0x6c1f_40f1_05ca_e576),
    (CaseId::C1, ProcessNode::N90, 0x72b2_f26e_182c_4e83),
    (CaseId::C1, ProcessNode::N45, 0x0c26_d9bc_7101_46ff),
    (CaseId::C2, ProcessNode::N130, 0xba3f_d7af_c267_c2eb),
    (CaseId::C2, ProcessNode::N90, 0x03d9_bf9f_aa08_ff02),
    (CaseId::C2, ProcessNode::N45, 0x61a7_7fc0_d488_9a01),
    (CaseId::E1, ProcessNode::N130, 0x0f73_2bba_cafe_cb83),
    (CaseId::E1, ProcessNode::N90, 0x6f98_e4a9_fe99_d857),
    (CaseId::E1, ProcessNode::N45, 0x24e9_ead0_3c5e_5489),
    (CaseId::E2, ProcessNode::N130, 0x8bdf_9f5c_5edd_2ac8),
    (CaseId::E2, ProcessNode::N90, 0x7d42_02b2_08e2_f4ac),
    (CaseId::E2, ProcessNode::N45, 0x503f_4fde_2960_1155),
    (CaseId::M1, ProcessNode::N130, 0x7d50_8fe8_b1ba_57a4),
    (CaseId::M1, ProcessNode::N90, 0x1213_01c2_98c4_997c),
    (CaseId::M1, ProcessNode::N45, 0x6a91_c6d3_a7cc_7ce9),
    (CaseId::M2, ProcessNode::N130, 0x520a_9ac0_0941_657a),
    (CaseId::M2, ProcessNode::N90, 0x59dc_0851_22c4_6696),
    (CaseId::M2, ProcessNode::N45, 0x4324_e128_8bb2_9340),
];

#[test]
fn approximate_plans_match_the_pinned_digests() {
    let mut pins = PINNED.iter();
    for (case, pipeline, data) in cases() {
        for node in ProcessNode::ALL {
            let out = plan_approximate(
                pipeline,
                data,
                SystemConfig::with_node(node),
                &ApproxPlanOptions::default(),
            )
            .expect("plans");
            let mut d = Digest::new();
            d.bytes(out.level.map_or("exact", ApproxLevel::name).as_bytes());
            for &b in &out.partition.in_sensor {
                d.bytes(&[u8::from(b)]);
            }
            d.u64(out.sensor_pj.to_bits())
                .u64(out.exact_sensor_pj.to_bits())
                .u64(out.cv_exact_accuracy.to_bits())
                .u64(out.cv_approx_accuracy.to_bits());
            d.bytes(
                out.analysis
                    .as_ref()
                    .map_or("none", |a| a.verdict.rule())
                    .as_bytes(),
            );
            let &(pin_case, pin_node, pin) = pins.next().expect("a pin per outcome");
            assert_eq!((pin_case, pin_node), (*case, node));
            assert_eq!(
                d.0,
                pin,
                "{case:?}/{node:?}: {} cv {} -> {}",
                out.level.map_or("exact", ApproxLevel::name),
                out.cv_exact_accuracy,
                out.cv_approx_accuracy
            );
        }
    }
}

/// One evaluator per configuration sees the exact cut first and then each
/// rung's cut, as in the planner, then each of those with only the Var
/// cells moved, so a memo key that leaves out anything a score depends on
/// serves a stale score here.
#[test]
fn memoised_scores_equal_the_direct_walk_under_every_cut() {
    for (case, pipeline, data) in cases() {
        for node in ProcessNode::ALL {
            let exact = XProInstance::try_new(
                pipeline.built().clone(),
                SystemConfig::with_node(node),
                pipeline.segment_len(),
            )
            .expect("prices");
            let limit = XProGenerator::new(&exact).default_delay_limit();
            let (exact_cut, _) = XProGenerator::new(&exact)
                .delay_constrained_cut_certified(limit)
                .expect("exact cut");
            let mut cuts = vec![(exact_cut, BTreeMap::new())];
            for level in ApproxLevel::ALL {
                let assignment = assignment_for_graph(pipeline.built(), level);
                let inst = exact.with_approx(assignment.clone()).expect("prices");
                if let Ok((cut, _)) =
                    XProGenerator::new(&inst).delay_constrained_cut_certified(limit)
                {
                    cuts.push((cut, assignment));
                }
            }
            // Cuts that move only the Var cells: a Std that reuses Var
            // then reads a different value from an unmoved cell.
            let var_cells: Vec<usize> = pipeline
                .built()
                .feature_cells
                .iter()
                .filter(|&(&fi, _)| FeatureLayout::decode(fi).1 == FeatureKind::Var)
                .map(|(_, &cid)| cid)
                .collect();
            for (cut, assignment) in cuts.clone() {
                let mut moved = cut;
                for &cid in &var_cells {
                    moved.in_sensor[cid] = !moved.in_sensor[cid];
                }
                cuts.push((moved, assignment));
            }
            let mut evaluator = ApproxEvaluator::new(pipeline, &data.segments);
            for (cut, assignment) in &cuts {
                let predictions = evaluator.predictions(cut, assignment);
                let memoised = evaluator.base_scores(cut, assignment);
                for (s, seg) in data.segments.iter().enumerate() {
                    let direct = pipeline.base_scores_q16_approx(seg, cut, assignment);
                    assert_eq!(direct.len(), memoised.len());
                    for (b, &score) in direct.iter().enumerate() {
                        assert_eq!(
                            memoised[b][s].to_bits(),
                            score.to_bits(),
                            "{case:?}/{node:?} base {b} segment {s} under {assignment:?}"
                        );
                    }
                    assert_eq!(
                        predictions[s],
                        pipeline.classify_partitioned_q16_approx(seg, cut, assignment)
                    );
                }
            }
        }
    }
}

/// The SMO trainer as it was before it tracked the non-zero multipliers:
/// every decision value scans all `n` multipliers and skips the zeros.
/// Returns the support vectors, their coefficients and the bias.
fn dense_smo(xs: &[Vec<f64>], ys: &[f64], cfg: &SvmConfig) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let n = xs.len();
    let mut k = vec![0.0; n * n];
    for i in 0..n {
        for j in i..n {
            let v = cfg.kernel.eval(&xs[i], &xs[j]);
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    let kij = |i: usize, j: usize| k[i * n + j];
    let mut alpha = vec![0.0f64; n];
    let mut b = 0.0f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut passes, mut iters) = (0u32, 0u32);
    let f = |alpha: &[f64], b: f64, i: usize| -> f64 {
        let mut acc = b;
        for j in 0..n {
            if alpha[j] != 0.0 {
                acc += alpha[j] * ys[j] * kij(j, i);
            }
        }
        acc
    };
    while passes < cfg.max_passes && iters < cfg.max_iters {
        iters += 1;
        let mut changed = 0usize;
        for i in 0..n {
            let ei = f(&alpha, b, i) - ys[i];
            let violates = (ys[i] * ei < -cfg.tol && alpha[i] < cfg.c)
                || (ys[i] * ei > cfg.tol && alpha[i] > 0.0);
            if !violates {
                continue;
            }
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let ej = f(&alpha, b, j) - ys[j];
            let (ai_old, aj_old) = (alpha[i], alpha[j]);
            let (lo, hi) = if ys[i] != ys[j] {
                (
                    (alpha[j] - alpha[i]).max(0.0),
                    (cfg.c + alpha[j] - alpha[i]).min(cfg.c),
                )
            } else {
                (
                    (alpha[i] + alpha[j] - cfg.c).max(0.0),
                    (alpha[i] + alpha[j]).min(cfg.c),
                )
            };
            if lo >= hi {
                continue;
            }
            let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
            if eta >= 0.0 {
                continue;
            }
            let aj_new = (aj_old - ys[j] * (ei - ej) / eta).clamp(lo, hi);
            if (aj_new - aj_old).abs() < 1e-7 {
                continue;
            }
            let ai_new = ai_old + ys[i] * ys[j] * (aj_old - aj_new);
            alpha[i] = ai_new;
            alpha[j] = aj_new;
            let b1 = b
                - ei
                - ys[i] * (ai_new - ai_old) * kij(i, i)
                - ys[j] * (aj_new - aj_old) * kij(i, j);
            let b2 = b
                - ej
                - ys[i] * (ai_new - ai_old) * kij(i, j)
                - ys[j] * (aj_new - aj_old) * kij(j, j);
            b = if 0.0 < ai_new && ai_new < cfg.c {
                b1
            } else if 0.0 < aj_new && aj_new < cfg.c {
                b2
            } else {
                (b1 + b2) / 2.0
            };
            changed += 1;
        }
        passes = if changed == 0 { passes + 1 } else { 0 };
    }
    let mut svs = Vec::new();
    let mut coefs = Vec::new();
    for i in 0..n {
        if alpha[i] > 1e-8 {
            svs.push(xs[i].clone());
            coefs.push(alpha[i] * ys[i]);
        }
    }
    (svs, coefs, b)
}

/// `Svm::decision` over explicit model parameters.
fn reference_decision(model: &(Vec<Vec<f64>>, Vec<f64>, f64), kernel: Kernel, x: &[f64]) -> f64 {
    let (svs, coefs, bias) = model;
    let mut acc = *bias;
    for (sv, &coef) in svs.iter().zip(coefs) {
        acc += coef * kernel.eval(sv, x);
    }
    acc
}

/// The Q16.16 decision as it was before the constants were stored: every
/// support-vector coordinate, coefficient, the bias and the kernel
/// parameter are quantised on every call. `bits == 0` is the exact
/// multiplier.
fn reference_decision_q16(
    model: &(Vec<Vec<f64>>, Vec<f64>, f64),
    kernel: Kernel,
    x: &[Q16],
    bits: u32,
) -> Q16 {
    let mul = |a: Q16, b: Q16| {
        if bits == 0 {
            a * b
        } else {
            a.truncated_mul(b, bits)
        }
    };
    let (svs, coefs, bias) = model;
    let mut acc = Q16::from_f64(*bias);
    for (sv, &coef) in svs.iter().zip(coefs) {
        let k = match kernel {
            Kernel::Linear => {
                let mut dot = Q16::ZERO;
                for (&s, &v) in sv.iter().zip(x) {
                    dot += mul(Q16::from_f64(s), v);
                }
                dot
            }
            Kernel::Rbf { gamma } => {
                let mut dist2 = Q16::ZERO;
                for (&s, &v) in sv.iter().zip(x) {
                    let d = Q16::from_f64(s) - v;
                    dist2 += mul(d, d);
                }
                (-mul(Q16::from_f64(gamma), dist2)).exp()
            }
            Kernel::Poly { degree, coef0 } => {
                let mut dot = Q16::from_f64(coef0);
                for (&s, &v) in sv.iter().zip(x) {
                    dot += mul(Q16::from_f64(s), v);
                }
                let mut out = Q16::ONE;
                for _ in 0..degree {
                    out = mul(out, dot);
                }
                out
            }
        };
        acc += mul(Q16::from_f64(coef), k);
    }
    acc
}

/// Training sets: twelve scaled features of two real cases, and two
/// overlapping synthetic clouds, so SMO both converges early and keeps
/// updating to its iteration bound.
fn training_sets() -> Vec<(Vec<Vec<f64>>, Vec<f64>)> {
    let mut sets = Vec::new();
    for case in [CaseId::E1, CaseId::M2] {
        let data = generate_case_sized(case, 120, 3);
        let features: Vec<Vec<f64>> = data
            .segments
            .iter()
            .map(|s| extract_features(s, Default::default()))
            .collect();
        let scaled = MinMaxScaler::fit(&features).transform(&features);
        let xs = scaled
            .iter()
            .map(|x| x.iter().step_by(4).take(12).copied().collect())
            .collect();
        sets.push((xs, data.labels.clone()));
    }
    for seed in [5u64, 9] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for _ in 0..90 {
            let y = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let centre = if y > 0.0 { 0.6 } else { 0.4 };
            xs.push(
                (0..6)
                    .map(|_| (centre + rng.gen_range(-0.3f64..0.3)).clamp(0.0, 1.0))
                    .collect(),
            );
            ys.push(y);
        }
        sets.push((xs, ys));
    }
    sets
}

fn kernels() -> [Kernel; 3] {
    [
        Kernel::Linear,
        Kernel::Rbf { gamma: 1.0 },
        Kernel::Poly {
            degree: 3,
            coef0: 1.0,
        },
    ]
}

#[test]
fn smo_with_a_nonzero_list_matches_the_dense_trainer() {
    for (xs, ys) in training_sets() {
        for kernel in kernels() {
            let cfg = SvmConfig {
                kernel,
                ..SvmConfig::default()
            };
            let svm = Svm::train(&xs, &ys, &cfg).expect("trains");
            let model = dense_smo(&xs, &ys, &cfg);
            assert_eq!(svm.num_support_vectors(), model.0.len(), "{kernel:?}");
            for x in &xs {
                assert_eq!(
                    svm.decision(x).to_bits(),
                    reference_decision(&model, kernel, x).to_bits(),
                    "{kernel:?}"
                );
            }
        }
    }
}

#[test]
fn stored_q16_constants_match_per_call_quantisation() {
    for (xs, ys) in training_sets() {
        for kernel in kernels() {
            let cfg = SvmConfig {
                kernel,
                ..SvmConfig::default()
            };
            let svm = Svm::train(&xs, &ys, &cfg).expect("trains");
            let model = dense_smo(&xs, &ys, &cfg);
            for x in xs.iter().take(30) {
                let xq: Vec<Q16> = x.iter().map(|&v| Q16::from_f64(v)).collect();
                assert_eq!(
                    svm.decision_q16(&xq),
                    reference_decision_q16(&model, kernel, &xq, 0),
                    "{kernel:?}"
                );
                for bits in 0..=16 {
                    assert_eq!(
                        svm.decision_q16_trunc(&xq, bits),
                        reference_decision_q16(&model, kernel, &xq, bits),
                        "{kernel:?} at {bits} bits"
                    );
                }
            }
        }
    }
}
