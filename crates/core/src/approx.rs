//! Approximation-budget planning: per-cell precision as a third axis of
//! the partitioner.
//!
//! The Automatic XPro Generator chooses *where* every functional cell
//! runs. This module extends that choice with *how precisely* a cell
//! computes: a small ladder of per-cell [`ApproxConfig`] assignments
//! (truncated sensor multipliers, a skipped deepest DWT level, pruned
//! ensemble members) is screened by the static approximation-budget
//! calculus ([`analyze_approx_budget`]), priced with the approximate
//! kernels, re-partitioned under the *same* delay limit as the exact
//! plan, and cross-validated against a classification-accuracy floor.
//! The cheapest rung that survives all three checks wins; otherwise the
//! planner falls back to the exact plan.
//!
//! The safety argument is layered exactly like the exact planner's:
//!
//! 1. **Static budget proof** — the rung's worst-case numeric deviation,
//!    injected as fresh affine noise at each approximated cell, must
//!    provably keep the fused decision within the configured budget
//!    (`approx.budget_proven`). Rungs whose proof fails or is unprovable
//!    never reach pricing.
//! 2. **Certified partition** — the approximate instance is re-cut under
//!    the exact plan's delay limit and the winner is re-verified against
//!    its min-cut certificate ([`crate::certificate::verify_plan`]),
//!    like any exact plan.
//! 3. **Accuracy floor** — stratified k-fold evaluation
//!    ([`xpro_ml::cv::stratified_k_fold`]) of the approximate execution
//!    path must stay within [`ApproxPlanOptions::max_accuracy_drop`] of
//!    the exact path's accuracy.

use crate::analysis::cell_specs;
use crate::builder::BuiltGraph;
use crate::certificate::CutCertificate;
use crate::config::SystemConfig;
use crate::error::XProError;
use crate::generator::XProGenerator;
use crate::instance::XProInstance;
use crate::partition::{evaluate, Partition};
use crate::pipeline::{FrontEnd, XProPipeline};
use std::collections::BTreeMap;
use xpro_analyze::{
    analyze_approx_budget_with_exact, AnalyzeOptions, ApproxAnalysis, ApproxBudget, ApproxVerdict,
};
use xpro_data::Dataset;
use xpro_hw::{ApproxConfig, ModuleKind};
use xpro_ml::cv::stratified_k_fold;

/// The approximation ladder the planner screens, mildest first.
///
/// Each level maps to a concrete per-cell assignment via
/// [`assignment_for_graph`]; the planner keeps whichever proven rung
/// yields the cheapest certified plan that holds the accuracy floor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ApproxLevel {
    /// Power-gate the last ensemble member only (it abstains from
    /// fusion); every surviving kernel stays exact. The mildest rung —
    /// its fused deviation is exactly `1.0` regardless of model size,
    /// so it stays provable even for the framework superset graph whose
    /// exact rounding envelopes defeat the truncation rungs' margin
    /// argument.
    Prune1,
    /// Every SVM cell drops the low 4 partial-product bits of its
    /// sensor-side multiplies.
    SvmTrunc4,
    /// [`ApproxLevel::SvmTrunc4`] plus power-gating the last ensemble
    /// member (it abstains from fusion).
    SvmTrunc4Prune1,
    /// 8-bit truncation on every SVM, the two last ensemble members
    /// pruned, and the deepest DWT level replaced by the decimation
    /// approximation. Deliberately past the default budget: the rung
    /// exists to exercise the `approx.budget_exceeded` path.
    Aggressive,
}

impl ApproxLevel {
    /// All ladder rungs, mildest first.
    pub const ALL: [ApproxLevel; 4] = [
        ApproxLevel::Prune1,
        ApproxLevel::SvmTrunc4,
        ApproxLevel::SvmTrunc4Prune1,
        ApproxLevel::Aggressive,
    ];

    /// Stable lowercase name, used in findings labels
    /// (`approx@svm-trunc4`).
    pub fn name(self) -> &'static str {
        match self {
            ApproxLevel::Prune1 => "prune1",
            ApproxLevel::SvmTrunc4 => "svm-trunc4",
            ApproxLevel::SvmTrunc4Prune1 => "svm-trunc4+prune1",
            ApproxLevel::Aggressive => "aggressive",
        }
    }
}

impl std::fmt::Display for ApproxLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Concrete per-cell assignment of a ladder rung for a built graph.
///
/// Truncation and pruning target the graph's SVM cells (pruning the
/// *last* members, matching the random-subspace ordering); `dwt_skip`
/// targets the deepest DWT cell — the only level the reduced-depth
/// kernel applies to.
pub fn assignment_for_graph(
    built: &BuiltGraph,
    level: ApproxLevel,
) -> BTreeMap<usize, ApproxConfig> {
    let mut assignment = BTreeMap::new();
    let (trunc_bits, prune_last, skip_dwt) = match level {
        ApproxLevel::Prune1 => (0u8, 1usize, false),
        ApproxLevel::SvmTrunc4 => (4, 0, false),
        ApproxLevel::SvmTrunc4Prune1 => (4, 1, false),
        ApproxLevel::Aggressive => (8, 2, true),
    };
    let n_svm = built.svm_cells.len();
    for (pos, &cid) in built.svm_cells.iter().enumerate() {
        let cfg = ApproxConfig {
            mul_truncation_bits: trunc_bits,
            svm_prune: pos + prune_last >= n_svm,
            dwt_skip: false,
        };
        if !cfg.is_exact() {
            assignment.insert(cid, cfg);
        }
    }
    if skip_dwt {
        if let Some(cid) = built
            .graph
            .cells()
            .iter()
            .rposition(|c| matches!(c.module, ModuleKind::DwtLevel { .. }))
        {
            assignment.insert(
                cid,
                ApproxConfig {
                    dwt_skip: true,
                    ..ApproxConfig::EXACT
                },
            );
        }
    }
    assignment
}

/// Options of the approximate planner.
#[derive(Clone, Copy, Debug)]
pub struct ApproxPlanOptions {
    /// Budget the static calculus must prove each rung against.
    pub budget: ApproxBudget,
    /// Maximum admissible drop of cross-validated classification
    /// accuracy relative to the exact plan (absolute, e.g. `0.02` =
    /// two percentage points).
    pub max_accuracy_drop: f64,
    /// Stratified folds of the accuracy cross-validation.
    pub folds: usize,
    /// Fold-assignment seed.
    pub fold_seed: u64,
}

impl Default for ApproxPlanOptions {
    fn default() -> Self {
        ApproxPlanOptions {
            budget: ApproxBudget::default(),
            max_accuracy_drop: 0.02,
            folds: 3,
            fold_seed: 42,
        }
    }
}

impl ApproxPlanOptions {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.budget.validate().map_err(|e| e.to_string())?;
        if !(self.max_accuracy_drop >= 0.0 && self.max_accuracy_drop < 1.0) {
            return Err(format!(
                "max_accuracy_drop must be in [0, 1), got {}",
                self.max_accuracy_drop
            ));
        }
        if self.folds < 2 {
            return Err(format!("folds must be at least 2, got {}", self.folds));
        }
        Ok(())
    }
}

/// Result of [`plan_approximate`]: the winning plan plus the evidence
/// trail that admitted it.
#[derive(Clone, Debug)]
pub struct ApproxPlanOutcome {
    /// The winning instance — approximate when a rung won, otherwise
    /// the exact instance.
    pub instance: XProInstance,
    /// The winning partition under the exact plan's delay limit.
    pub partition: Partition,
    /// Min-cut certificate of the winning cut (when cut-derived).
    pub certificate: Option<CutCertificate>,
    /// The winning ladder rung; `None` means the exact plan won.
    pub level: Option<ApproxLevel>,
    /// The budget proof of the winning rung (`None` for exact).
    pub analysis: Option<ApproxAnalysis>,
    /// Delay limit both plans were cut against (seconds).
    pub t_limit_s: f64,
    /// Cross-validated accuracy of the exact execution path.
    pub cv_exact_accuracy: f64,
    /// Cross-validated accuracy of the winning execution path (equals
    /// the exact accuracy when the exact plan won).
    pub cv_approx_accuracy: f64,
    /// Per-event sensor energy of the winning plan (picojoules).
    pub sensor_pj: f64,
    /// Per-event sensor energy of the exact plan (picojoules).
    pub exact_sensor_pj: f64,
}

impl ApproxPlanOutcome {
    /// The per-cell assignment the winning instance is priced under
    /// (empty for an exact winner).
    pub fn assignment(&self) -> &BTreeMap<usize, ApproxConfig> {
        self.instance.approx()
    }

    /// Fractional sensor-energy saving of the winner over the exact
    /// plan, in `[0, 1)`; zero when the exact plan won.
    pub fn energy_saving(&self) -> f64 {
        if self.exact_sensor_pj <= 0.0 {
            0.0
        } else {
            1.0 - self.sensor_pj / self.exact_sensor_pj
        }
    }
}

/// What a base's per-segment scores depend on, beyond the segments
/// themselves: two evaluations with equal keys score every segment
/// bit-identically, so [`ApproxEvaluator`] computes each key's scores
/// once.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ScoreKey {
    /// The base; its index fixes the model and the input features.
    base: usize,
    svm_on_sensor: bool,
    /// The SVM cell's effective knob, with the truncation dropped on the
    /// aggregator, whose multipliers are exact.
    knob: ApproxConfig,
    /// [`XProPipeline::score_placements`]: each input feature cell's
    /// placement, plus the Var cell's for a Std that reuses it.
    features_on_sensor: Vec<bool>,
    skip_deepest_dwt: bool,
}

/// Accuracy evaluation for [`plan_approximate`]: the cross-end Q16
/// prediction of every segment of a dataset under a cut and an
/// approximation assignment, each piece of work done once per planner
/// call.
///
/// * Each segment's front end — padded input, `f64` and Q16 DWTs and the
///   features of every domain that holds a feature cell, on both
///   datapaths — is built once, and once more with the deepest DWT level
///   skipped only if an assignment asks for it.
/// * A base's scores over all segments are computed once per distinct
///   [`ScoreKey`] and reused by every later cut that leaves them
///   unchanged.
///
/// Every score equals [`XProPipeline::base_scores_q16_approx`] on the same
/// segment, cut and assignment, bit for bit.
#[derive(Debug)]
pub struct ApproxEvaluator<'a> {
    pipeline: &'a XProPipeline,
    segments: &'a [Vec<f64>],
    /// Front ends of every segment: exact DWT, then deepest level skipped.
    fronts: [Option<Vec<FrontEnd>>; 2],
    memo: BTreeMap<ScoreKey, Vec<f64>>,
}

impl<'a> ApproxEvaluator<'a> {
    /// An evaluator over `segments`; no work is done until the first
    /// request.
    pub fn new(pipeline: &'a XProPipeline, segments: &'a [Vec<f64>]) -> Self {
        ApproxEvaluator {
            pipeline,
            segments,
            fronts: [None, None],
            memo: BTreeMap::new(),
        }
    }

    /// Per-base scores of every segment: `scores[b][s]` equals
    /// `base_scores_q16_approx(&segments[s], partition, assignment)[b]`.
    ///
    /// # Panics
    ///
    /// Panics if the partition size differs from the cell count.
    pub fn base_scores(
        &mut self,
        partition: &Partition,
        assignment: &BTreeMap<usize, ApproxConfig>,
    ) -> Vec<&[f64]> {
        let pipeline = self.pipeline;
        assert_eq!(
            partition.in_sensor.len(),
            pipeline.built().graph.len(),
            "partition size mismatch"
        );
        let skip = pipeline.skips_deepest_dwt(assignment);
        let keys: Vec<ScoreKey> = (0..pipeline.built().svm_cells.len())
            .map(|b| {
                let svm_on_sensor = partition.in_sensor[pipeline.built().svm_cells[b]];
                let mut knob = pipeline.svm_knob(b, assignment);
                if !svm_on_sensor {
                    knob.mul_truncation_bits = 0;
                }
                ScoreKey {
                    base: b,
                    svm_on_sensor,
                    knob,
                    features_on_sensor: pipeline.score_placements(b, partition),
                    skip_deepest_dwt: skip,
                }
            })
            .collect();
        for key in &keys {
            if self.memo.contains_key(key) {
                continue;
            }
            let segments = self.segments;
            let fronts = self.fronts[usize::from(skip)].get_or_insert_with(|| {
                segments
                    .iter()
                    .map(|s| pipeline.front_end(s, skip))
                    .collect()
            });
            let scores = fronts
                .iter()
                .map(|front| pipeline.base_score(front, key.base, partition, key.knob))
                .collect();
            self.memo.insert(key.clone(), scores);
        }
        keys.iter().map(|key| self.memo[key].as_slice()).collect()
    }

    /// The cross-end Q16 prediction of every segment, equal to
    /// [`XProPipeline::classify_partitioned_q16_approx`] on each.
    ///
    /// # Panics
    ///
    /// Panics if the partition size differs from the cell count.
    pub fn predictions(
        &mut self,
        partition: &Partition,
        assignment: &BTreeMap<usize, ApproxConfig>,
    ) -> Vec<f64> {
        let pipeline = self.pipeline;
        let pruned: Vec<bool> = (0..pipeline.built().svm_cells.len())
            .map(|b| pipeline.svm_knob(b, assignment).svm_prune)
            .collect();
        let n = self.segments.len();
        let scores = self.base_scores(partition, assignment);
        let mut row = vec![0.0; scores.len()];
        (0..n)
            .map(|s| {
                for (slot, base) in row.iter_mut().zip(&scores) {
                    *slot = base[s];
                }
                pipeline.predict_from_scores(&row, &pruned)
            })
            .collect()
    }
}

/// Plans a deployment with per-cell precision as a third optimization
/// axis (see the [module docs](self) for the admission pipeline).
///
/// The exact plan is always generated first and defines the delay limit
/// (`XProGenerator::default_delay_limit`); a rung only wins by *strictly*
/// beating the exact plan's sensor energy while holding the budget
/// proof, the certificate check, and the accuracy floor.
///
/// Each piece of work is done once per call: the exact instance's range
/// analysis serves every rung's budget proof, whose approximate run in
/// turn prices the rung's instance, and one [`ApproxEvaluator`] scores the
/// exact cut and every rung's cut.
///
/// # Errors
///
/// Returns [`XProError::Config`] for invalid options, an empty dataset,
/// a dataset with fewer segments than folds, or one whose label count
/// differs from its segment count, and propagates exact-plan
/// instantiation or generation failure. A failing *approximate* rung is
/// skipped, never fatal.
pub fn plan_approximate(
    pipeline: &XProPipeline,
    dataset: &Dataset,
    config: SystemConfig,
    opts: &ApproxPlanOptions,
) -> Result<ApproxPlanOutcome, XProError> {
    opts.validate().map_err(XProError::config)?;
    let n = dataset.segments.len();
    if n == 0 {
        return Err(XProError::config("dataset has no segments"));
    }
    if dataset.labels.len() != n {
        return Err(XProError::config(format!(
            "dataset has {} labels for {n} segments",
            dataset.labels.len()
        )));
    }
    if n < opts.folds {
        return Err(XProError::config(format!(
            "dataset has {n} segments, fewer than the {} folds",
            opts.folds
        )));
    }
    let exact_inst =
        XProInstance::try_new(pipeline.built().clone(), config, pipeline.segment_len())?;
    let t_limit_s = XProGenerator::new(&exact_inst).default_delay_limit();
    let (exact_part, exact_cert) =
        XProGenerator::new(&exact_inst).delay_constrained_cut_certified(t_limit_s)?;
    let exact_sensor_pj = evaluate(&exact_inst, &exact_part).sensor.total_pj();

    let folds = stratified_k_fold(&dataset.labels, opts.folds, opts.fold_seed);
    let mut evaluator = ApproxEvaluator::new(pipeline, &dataset.segments);
    let mut fold_accuracy =
        |partition: &Partition, assignment: &BTreeMap<usize, ApproxConfig>| -> f64 {
            let predictions = evaluator.predictions(partition, assignment);
            let mut sum = 0.0;
            let mut counted = 0usize;
            for fold in &folds {
                if fold.is_empty() {
                    continue;
                }
                let hits = fold
                    .iter()
                    .filter(|&&i| predictions[i] == dataset.labels[i])
                    .count();
                sum += hits as f64 / fold.len() as f64;
                counted += 1;
            }
            if counted == 0 {
                0.0
            } else {
                sum / counted as f64
            }
        };
    let cv_exact_accuracy = fold_accuracy(&exact_part, &BTreeMap::new());

    let specs = cell_specs(&pipeline.built().graph);
    let analyze_opts = AnalyzeOptions::default();
    let mut best: Option<ApproxPlanOutcome> = None;
    for level in ApproxLevel::ALL {
        let assignment = assignment_for_graph(pipeline.built(), level);
        if assignment.is_empty() {
            continue;
        }
        let analysis = analyze_approx_budget_with_exact(
            &specs,
            exact_inst.bounds(),
            &analyze_opts,
            &assignment,
            &opts.budget,
            exact_inst.analysis().clone(),
        )
        .map_err(|e| XProError::config(e.to_string()))?;
        if analysis.verdict != ApproxVerdict::BudgetProven {
            continue;
        }
        let Ok(inst) = exact_inst.with_approx_analyzed(assignment.clone(), analysis.approx.clone())
        else {
            continue;
        };
        let Ok((partition, certificate)) =
            XProGenerator::new(&inst).delay_constrained_cut_certified(t_limit_s)
        else {
            continue;
        };
        let cv_approx_accuracy = fold_accuracy(&partition, &assignment);
        if cv_approx_accuracy < cv_exact_accuracy - opts.max_accuracy_drop {
            continue;
        }
        let sensor_pj = evaluate(&inst, &partition).sensor.total_pj();
        let incumbent_pj = best.as_ref().map_or(exact_sensor_pj, |b| b.sensor_pj);
        if sensor_pj < incumbent_pj {
            best = Some(ApproxPlanOutcome {
                instance: inst,
                partition,
                certificate,
                level: Some(level),
                analysis: Some(analysis),
                t_limit_s,
                cv_exact_accuracy,
                cv_approx_accuracy,
                sensor_pj,
                exact_sensor_pj,
            });
        }
    }
    Ok(best.unwrap_or(ApproxPlanOutcome {
        instance: exact_inst,
        partition: exact_part,
        certificate: exact_cert,
        level: None,
        analysis: None,
        t_limit_s,
        cv_exact_accuracy,
        cv_approx_accuracy: cv_exact_accuracy,
        sensor_pj: exact_sensor_pj,
        exact_sensor_pj,
    }))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::pipeline::PipelineConfig;
    use xpro_analyze::analyze_approx_budget;
    use xpro_data::{generate_case_sized, CaseId};
    use xpro_ml::SubspaceConfig;

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
            .unwrap();
        let p = XProPipeline::train(&data, &cfg).unwrap();
        (p, data)
    }

    #[test]
    fn ladder_assignments_target_the_expected_cells() {
        let (p, _) = quick_pipeline(CaseId::C1, 11);
        let built = p.built();
        let n_svm = built.svm_cells.len();

        let l0 = assignment_for_graph(built, ApproxLevel::Prune1);
        assert_eq!(l0.len(), 1.min(n_svm), "prune-only rung touches one cell");
        assert!(l0
            .values()
            .all(|c| c.svm_prune && c.mul_truncation_bits == 0 && !c.dwt_skip));
        assert!(l0[built.svm_cells.last().unwrap()].svm_prune);

        let l1 = assignment_for_graph(built, ApproxLevel::SvmTrunc4);
        assert_eq!(l1.len(), n_svm);
        assert!(l1
            .values()
            .all(|c| c.mul_truncation_bits == 4 && !c.svm_prune && !c.dwt_skip));

        let l2 = assignment_for_graph(built, ApproxLevel::SvmTrunc4Prune1);
        assert_eq!(l2.values().filter(|c| c.svm_prune).count(), 1.min(n_svm));
        assert!(l2[built.svm_cells.last().unwrap()].svm_prune);

        let l3 = assignment_for_graph(built, ApproxLevel::Aggressive);
        assert_eq!(l3.values().filter(|c| c.dwt_skip).count(), 1);
        assert_eq!(l3.values().filter(|c| c.svm_prune).count(), 2.min(n_svm));
        let dwt_cell = l3
            .iter()
            .find(|(_, c)| c.dwt_skip)
            .map(|(&i, _)| i)
            .unwrap();
        assert!(matches!(
            built.graph.cells()[dwt_cell].module,
            ModuleKind::DwtLevel { .. }
        ));
    }

    #[test]
    fn planner_beats_or_matches_exact_and_keeps_the_floor() {
        let (p, data) = quick_pipeline(CaseId::E2, 13);
        let out = plan_approximate(
            &p,
            &data,
            SystemConfig::default(),
            &ApproxPlanOptions::default(),
        )
        .unwrap();
        assert!(out.sensor_pj <= out.exact_sensor_pj);
        assert!(out.cv_approx_accuracy >= out.cv_exact_accuracy - 0.02 - 1e-12);
        if let Some(level) = out.level {
            // An approximate winner must carry its budget proof and a
            // strictly cheaper sensor bill.
            let analysis = out.analysis.as_ref().unwrap();
            assert_eq!(analysis.verdict, ApproxVerdict::BudgetProven);
            assert!(out.sensor_pj < out.exact_sensor_pj, "{level} did not save");
            assert!(out.instance.is_approximate());
            assert!(!out.assignment().is_empty());
        } else {
            assert_eq!(out.sensor_pj, out.exact_sensor_pj);
            assert!(out.analysis.is_none());
        }
    }

    #[test]
    fn rejects_invalid_options() {
        let (p, data) = quick_pipeline(CaseId::C1, 17);
        let bad = ApproxPlanOptions {
            folds: 1,
            ..ApproxPlanOptions::default()
        };
        assert!(matches!(
            plan_approximate(&p, &data, SystemConfig::default(), &bad),
            Err(XProError::Config(_))
        ));
    }

    #[test]
    fn fewer_segments_than_folds_is_a_config_error() {
        let (p, mut data) = quick_pipeline(CaseId::C1, 23);
        data.segments.truncate(2);
        data.labels.truncate(2);
        let opts = ApproxPlanOptions {
            folds: 3,
            ..ApproxPlanOptions::default()
        };
        assert!(matches!(
            plan_approximate(&p, &data, SystemConfig::default(), &opts),
            Err(XProError::Config(_))
        ));
    }

    #[test]
    fn label_count_mismatch_is_a_config_error() {
        let (p, mut data) = quick_pipeline(CaseId::C1, 29);
        data.labels.push(1.0);
        assert!(matches!(
            plan_approximate(
                &p,
                &data,
                SystemConfig::default(),
                &ApproxPlanOptions::default()
            ),
            Err(XProError::Config(_))
        ));
    }

    #[test]
    fn aggressive_rung_is_not_budget_proven() {
        // The ladder's top rung exists to exercise the exceeded path:
        // its skipped DWT level taints downstream SVMs.
        let (p, _) = quick_pipeline(CaseId::M1, 19);
        let assignment = assignment_for_graph(p.built(), ApproxLevel::Aggressive);
        let a = analyze_approx_budget(
            &cell_specs(&p.built().graph),
            xpro_analyze::SignalBounds::default(),
            &AnalyzeOptions::default(),
            &assignment,
            &ApproxBudget::default(),
        )
        .unwrap();
        assert_ne!(a.verdict, ApproxVerdict::BudgetProven);
    }
}
