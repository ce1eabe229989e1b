//! Approximation-budget calculus over the dual-run envelope analysis.
//!
//! An *approximate plan* replaces selected cells' exact kernels with
//! cheaper approximate variants ([`ApproxConfig`]: truncated Q16.16
//! multipliers, skipped deepest DWT level, pruned SVM-ensemble members).
//! This module proves, statically, that the end-to-end effect of a given
//! per-cell assignment stays inside a classification budget:
//!
//! 1. Two analysis runs bound each SVM cell's decision value: the exact
//!    run's envelope bounds `|exact fixed-point − ideal real|` and the
//!    approximate run's envelope ([`try_analyze_approx`], which injects
//!    each knob's worst-case deviation as fresh affine noise at the
//!    approximated cell) bounds `|approximate fixed-point − ideal real|`.
//!    By the triangle inequality their sum bounds the *observable*
//!    deviation `|approximate − exact|` of that decision value.
//! 2. A base classifier's ±1 vote flips only when the deviation exceeds
//!    the decision margin `|exact decision|`. The budget assumes a
//!    configured [`ApproxBudget::score_margin`] (validated empirically by
//!    the generator's cross-validated accuracy floor); any SVM whose
//!    deviation bound exceeds the margin is counted as *flippable*.
//! 3. The fused score is a weighted vote with weights in `[0, 1]`, so a
//!    flipped vote moves it by at most 2 and a pruned (abstaining) base by
//!    at most 1. The plan is **budget-proven** when the summed worst-case
//!    movement stays within [`ApproxBudget::fused_dev`].
//!
//! The calculus deliberately sits *above* the per-cell walk: SVM analysis
//! is decoupled from upstream feature ranges by the `MinMaxScaler` clamp
//! (inputs pinned to `[0, 1]`), so the per-SVM margins compose soundly
//! even when a deep feature cell upstream carries a wide envelope. A
//! possible overflow in any SVM or fusion cell of either run voids the
//! envelope argument and yields [`ApproxVerdict::Unprovable`].
//!
//! Verdicts are exported as `approx.*` findings at synthetic cell indices
//! ≥ [`APPROX_CELL_BASE`] through the same gate as the range and
//! timing/energy families.

use crate::analysis::{
    try_analyze, try_analyze_approx, AnalysisReport, AnalyzeError, AnalyzeOptions, CellSpec,
    SignalBounds,
};
use crate::gate::{Finding, Severity, APPROX_CELL_BASE};
use std::collections::BTreeMap;
use xpro_hw::{ApproxConfig, ModuleKind};

/// One ulp of the Q16.16 format in value units.
const ULP: f64 = 1.0 / 65536.0;

/// The classification-deviation budget an approximate plan must prove.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxBudget {
    /// Assumed minimum magnitude of each base SVM's exact decision value
    /// on in-distribution inputs, in value units. A base whose statically
    /// bounded deviation stays below this margin cannot flip its vote.
    /// The generator validates the assumption empirically via the
    /// cross-validated accuracy floor.
    pub score_margin: f64,
    /// Maximum tolerated worst-case movement of the fused score, in vote
    /// units (a flipped vote moves it by 2, a pruned base by 1).
    pub fused_dev: f64,
}

impl Default for ApproxBudget {
    fn default() -> Self {
        ApproxBudget {
            score_margin: 0.25,
            fused_dev: 1.0,
        }
    }
}

impl ApproxBudget {
    /// Validates both fields against NaN, infinities, and sign errors.
    ///
    /// # Errors
    ///
    /// [`AnalyzeError::InvalidOption`] naming the offending field.
    pub fn validate(&self) -> Result<(), AnalyzeError> {
        if !(self.score_margin.is_finite() && self.score_margin > 0.0) {
            return Err(AnalyzeError::InvalidOption {
                name: "score_margin",
                value: self.score_margin,
            });
        }
        if !(self.fused_dev.is_finite() && self.fused_dev >= 0.0) {
            return Err(AnalyzeError::InvalidOption {
                name: "fused_dev",
                value: self.fused_dev,
            });
        }
        Ok(())
    }
}

/// Outcome of the budget proof for one assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApproxVerdict {
    /// Every SVM and fusion cell is overflow-free in both runs and the
    /// worst-case fused-score movement stays within the budget.
    BudgetProven,
    /// The envelopes are sound but the worst-case fused-score movement
    /// exceeds the budget.
    BudgetExceeded,
    /// Some SVM or fusion cell may saturate in one of the runs, voiding
    /// the envelope argument entirely.
    Unprovable,
}

impl ApproxVerdict {
    /// The gate rule id for this verdict.
    pub fn rule(self) -> &'static str {
        match self {
            ApproxVerdict::BudgetProven => "approx.budget_proven",
            ApproxVerdict::BudgetExceeded => "approx.budget_exceeded",
            ApproxVerdict::Unprovable => "approx.unprovable",
        }
    }

    /// The gate severity for this verdict.
    pub fn severity(self) -> Severity {
        match self {
            ApproxVerdict::BudgetProven => Severity::Proven,
            ApproxVerdict::BudgetExceeded => Severity::Violation,
            ApproxVerdict::Unprovable => Severity::MayOverflow,
        }
    }
}

impl std::fmt::Display for ApproxVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ApproxVerdict::BudgetProven => "budget proven",
            ApproxVerdict::BudgetExceeded => "budget exceeded",
            ApproxVerdict::Unprovable => "unprovable",
        })
    }
}

/// Static deviation account of one base SVM under the assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct SvmDeviation {
    /// Cell index of the SVM in the graph.
    pub cell: usize,
    /// The SVM cell's label.
    pub label: String,
    /// Sound bound on `|approximate − exact|` of the decision value, in
    /// value units (sum of both runs' envelopes).
    pub dev_value: f64,
    /// Whether the assignment prunes this base entirely.
    pub pruned: bool,
    /// Whether the deviation bound exceeds the score margin, so the ±1
    /// vote may flip.
    pub flippable: bool,
}

/// Result of the budget calculus for one per-cell assignment.
#[derive(Clone, Debug)]
pub struct ApproxAnalysis {
    /// The proof outcome.
    pub verdict: ApproxVerdict,
    /// Worst-case movement of the fused score in vote units
    /// (`2·flipped + 1·pruned`).
    pub fused_dev: f64,
    /// The budget the calculus ran against.
    pub budget: ApproxBudget,
    /// Per-SVM deviation accounts, in graph order.
    pub svm: Vec<SvmDeviation>,
    /// The exact run's full report.
    pub exact: AnalysisReport,
    /// The approximate run's full report (with injected deviations).
    pub approx: AnalysisReport,
}

impl ApproxAnalysis {
    /// Number of pruned bases under the assignment.
    pub fn pruned(&self) -> usize {
        self.svm.iter().filter(|s| s.pruned).count()
    }

    /// Number of flippable (non-pruned) bases under the assignment.
    pub fn flippable(&self) -> usize {
        self.svm.iter().filter(|s| s.flippable && !s.pruned).count()
    }
}

/// Runs the exact and injected analyses and proves (or refutes) the
/// fused-score budget for `assignment`.
///
/// # Errors
///
/// Returns an [`AnalyzeError`] when the bounds, options, budget, or any
/// assigned [`ApproxConfig`] are invalid.
///
/// # Panics
///
/// Panics if the cell list is not topologically ordered.
pub fn analyze_approx_budget(
    cells: &[CellSpec],
    input: SignalBounds,
    opts: &AnalyzeOptions,
    assignment: &BTreeMap<usize, ApproxConfig>,
    budget: &ApproxBudget,
) -> Result<ApproxAnalysis, AnalyzeError> {
    budget.validate()?;
    let exact = try_analyze(cells, input, opts)?;
    analyze_approx_budget_with_exact(cells, input, opts, assignment, budget, exact)
}

/// [`analyze_approx_budget`] with the exact run supplied by the caller,
/// who must have computed it as `try_analyze(cells, input, opts)`. The
/// exact run does not depend on the assignment, so a planner screening
/// several assignments of one graph runs it once.
///
/// # Errors
///
/// Returns an [`AnalyzeError`] when the bounds, options, budget, or any
/// assigned [`ApproxConfig`] are invalid.
///
/// # Panics
///
/// Panics if the cell list is not topologically ordered.
pub fn analyze_approx_budget_with_exact(
    cells: &[CellSpec],
    input: SignalBounds,
    opts: &AnalyzeOptions,
    assignment: &BTreeMap<usize, ApproxConfig>,
    budget: &ApproxBudget,
    exact: AnalysisReport,
) -> Result<ApproxAnalysis, AnalyzeError> {
    budget.validate()?;
    let approx = try_analyze_approx(cells, input, opts, assignment)?;

    // Taint: a knob applied *upstream* of the feature layer (the skipped
    // DWT level) deviates the features feeding an SVM. The scaler clamp
    // keeps those inputs range-bounded in [0, 1] — so the envelopes stay
    // sound — but the per-SVM *margin* argument does not compose through
    // the data-dependent scaler slope, so any SVM transitively reading an
    // approximated non-SVM cell must be counted as flippable outright.
    let mut tainted = vec![false; cells.len()];
    for (i, cell) in cells.iter().enumerate() {
        let own = assignment
            .get(&i)
            .map(|cfg| cfg.effective_for(&cell.module).dwt_skip)
            .unwrap_or(false);
        tainted[i] = own
            || cell
                .inputs
                .iter()
                .any(|&(producer, _)| producer.is_some_and(|p| tainted[p]));
    }

    let mut svm = Vec::new();
    let mut decision_sound = true;
    for (i, cell) in cells.iter().enumerate() {
        let is_svm = matches!(cell.module, ModuleKind::Svm { .. });
        let is_fusion = matches!(cell.module, ModuleKind::ScoreFusion { .. });
        if !is_svm && !is_fusion {
            continue;
        }
        if !exact.cells[i].verdict.is_overflow_free() || !approx.cells[i].verdict.is_overflow_free()
        {
            decision_sound = false;
        }
        if is_svm {
            let eff = assignment
                .get(&i)
                .map(|cfg| cfg.effective_for(&cell.module))
                .unwrap_or(ApproxConfig::EXACT);
            let dev_value =
                (exact.cells[i].output().err_ulps + approx.cells[i].output().err_ulps) * ULP;
            svm.push(SvmDeviation {
                cell: i,
                label: cell.label.clone(),
                dev_value,
                pruned: eff.svm_prune,
                flippable: !eff.svm_prune && (tainted[i] || dev_value > budget.score_margin),
            });
        }
    }

    let fused_dev = svm
        .iter()
        .map(|s| {
            if s.pruned {
                1.0
            } else if s.flippable {
                2.0
            } else {
                0.0
            }
        })
        .sum::<f64>();
    let verdict = if !decision_sound {
        ApproxVerdict::Unprovable
    } else if fused_dev <= budget.fused_dev {
        ApproxVerdict::BudgetProven
    } else {
        ApproxVerdict::BudgetExceeded
    };

    Ok(ApproxAnalysis {
        verdict,
        fused_dev,
        budget: *budget,
        svm,
        exact,
        approx,
    })
}

/// Renders one budget-calculus outcome as a gate finding at a synthetic
/// cell index `APPROX_CELL_BASE + slot`, labeled `approx@<level>`.
pub fn approx_finding(
    config: &str,
    slot: usize,
    level: &str,
    analysis: &ApproxAnalysis,
) -> Finding {
    let worst_dev = analysis.svm.iter().map(|s| s.dev_value).fold(0.0, f64::max);
    Finding {
        config: config.to_string(),
        cell: APPROX_CELL_BASE + slot,
        label: format!("approx@{level}"),
        rule: analysis.verdict.rule().to_string(),
        severity: analysis.verdict.severity(),
        bound: analysis.fused_dev,
        interval_width: worst_dev,
        affine_width: analysis.budget.fused_dev,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::analysis::Verdict;

    fn svm_cell(label: &str) -> CellSpec {
        CellSpec {
            module: ModuleKind::Svm {
                support_vectors: 40,
                dims: 12,
                rbf: true,
            },
            inputs: vec![(None, 0)],
            label: label.to_string(),
        }
    }

    fn graph(bases: usize) -> Vec<CellSpec> {
        let mut cells: Vec<CellSpec> = (0..bases).map(|b| svm_cell(&format!("SVM{b}"))).collect();
        cells.push(CellSpec {
            module: ModuleKind::ScoreFusion { bases },
            inputs: (0..bases).map(|b| (Some(b), 0)).collect(),
            label: "Fusion".to_string(),
        });
        cells
    }

    #[test]
    fn exact_assignment_is_trivially_proven() {
        let cells = graph(4);
        let a = analyze_approx_budget(
            &cells,
            SignalBounds::default(),
            &AnalyzeOptions::default(),
            &BTreeMap::new(),
            &ApproxBudget::default(),
        )
        .unwrap();
        assert_eq!(a.verdict, ApproxVerdict::BudgetProven);
        assert_eq!(a.fused_dev, 0.0);
        assert_eq!(a.svm.len(), 4);
        assert!(a.svm.iter().all(|s| !s.pruned && !s.flippable));
    }

    #[test]
    fn injected_error_grows_the_envelope_monotonically() {
        let cells = graph(2);
        let opts = AnalyzeOptions::default();
        let mut assignment = BTreeMap::new();
        assignment.insert(
            0,
            ApproxConfig {
                mul_truncation_bits: 4,
                ..ApproxConfig::EXACT
            },
        );
        let exact = try_analyze(&cells, SignalBounds::default(), &opts).unwrap();
        let inj = try_analyze_approx(&cells, SignalBounds::default(), &opts, &assignment).unwrap();
        assert!(
            inj.cells[0].output().err_ulps > exact.cells[0].output().err_ulps,
            "truncation must inflate the envelope"
        );
        assert_eq!(
            inj.cells[1].output().err_ulps,
            exact.cells[1].output().err_ulps,
            "unassigned cells are untouched"
        );
    }

    #[test]
    fn aggressive_truncation_exceeds_the_budget() {
        let cells = graph(4);
        let mut assignment = BTreeMap::new();
        for i in 0..4 {
            assignment.insert(
                i,
                ApproxConfig {
                    mul_truncation_bits: 12,
                    ..ApproxConfig::EXACT
                },
            );
        }
        let a = analyze_approx_budget(
            &cells,
            SignalBounds::default(),
            &AnalyzeOptions::default(),
            &assignment,
            &ApproxBudget::default(),
        )
        .unwrap();
        // 40·(2^12·(1+1+12) + 4) ulps ≈ 35 value units per base: every vote
        // is flippable, so the fused score can move by 8 ≫ 1.
        assert_eq!(a.verdict, ApproxVerdict::BudgetExceeded);
        assert_eq!(a.flippable(), 4);
        assert!(a.fused_dev >= 8.0);
    }

    #[test]
    fn pruning_within_budget_is_proven() {
        let cells = graph(4);
        let mut assignment = BTreeMap::new();
        assignment.insert(
            3,
            ApproxConfig {
                svm_prune: true,
                ..ApproxConfig::EXACT
            },
        );
        let a = analyze_approx_budget(
            &cells,
            SignalBounds::default(),
            &AnalyzeOptions::default(),
            &assignment,
            &ApproxBudget::default(),
        )
        .unwrap();
        assert_eq!(a.verdict, ApproxVerdict::BudgetProven);
        assert_eq!(a.pruned(), 1);
        assert_eq!(a.fused_dev, 1.0);
    }

    #[test]
    fn upstream_dwt_skip_taints_downstream_svms() {
        // DWT → SVM0 → fusion, plus an independent SVM1. Skipping the DWT
        // level deviates SVM0's *inputs*; the margin argument does not
        // compose through the scaler, so SVM0 must count as flippable even
        // though its own kernel is exact. SVM1 is untouched.
        let cells = vec![
            CellSpec {
                module: ModuleKind::DwtLevel {
                    input_len: 64,
                    taps: 2,
                },
                inputs: vec![(None, 0)],
                label: "DWT-L1".to_string(),
            },
            CellSpec {
                inputs: vec![(Some(0), 0)],
                ..svm_cell("SVM0")
            },
            svm_cell("SVM1"),
            CellSpec {
                module: ModuleKind::ScoreFusion { bases: 2 },
                inputs: vec![(Some(1), 0), (Some(2), 0)],
                label: "Fusion".to_string(),
            },
        ];
        let mut assignment = BTreeMap::new();
        assignment.insert(
            0,
            ApproxConfig {
                dwt_skip: true,
                ..ApproxConfig::EXACT
            },
        );
        let a = analyze_approx_budget(
            &cells,
            SignalBounds::default(),
            &AnalyzeOptions::default(),
            &assignment,
            &ApproxBudget::default(),
        )
        .unwrap();
        let svm0 = a.svm.iter().find(|s| s.label == "SVM0").unwrap();
        let svm1 = a.svm.iter().find(|s| s.label == "SVM1").unwrap();
        assert!(svm0.flippable, "tainted SVM must be flippable");
        assert!(!svm1.flippable, "independent SVM stays exact");
        assert_eq!(a.verdict, ApproxVerdict::BudgetExceeded);
    }

    #[test]
    fn overflowing_decision_layer_is_unprovable() {
        // A coefficient bound large enough to saturate the accumulating
        // SVM sum drives the decision layer past the rails.
        let cells = graph(1);
        let opts = AnalyzeOptions {
            svm_coef_bound: 40_000.0,
            ..AnalyzeOptions::default()
        };
        let exact = try_analyze(&cells, SignalBounds::default(), &opts).unwrap();
        if exact.cells[0].verdict.is_overflow_free() {
            // The transfer absorbed it; nothing to assert against.
            return;
        }
        let a = analyze_approx_budget(
            &cells,
            SignalBounds::default(),
            &opts,
            &BTreeMap::new(),
            &ApproxBudget::default(),
        )
        .unwrap();
        assert_eq!(a.verdict, ApproxVerdict::Unprovable);
        assert!(matches!(
            a.exact.cells[0].verdict,
            Verdict::MayOverflow { .. }
        ));
    }

    #[test]
    fn finding_carries_rule_and_synthetic_index() {
        let cells = graph(2);
        let a = analyze_approx_budget(
            &cells,
            SignalBounds::default(),
            &AnalyzeOptions::default(),
            &BTreeMap::new(),
            &ApproxBudget::default(),
        )
        .unwrap();
        let f = approx_finding("default", 1, "svm-trunc4", &a);
        assert_eq!(f.cell, APPROX_CELL_BASE + 1);
        assert_eq!(f.rule, "approx.budget_proven");
        assert_eq!(f.label, "approx@svm-trunc4");
        assert_eq!(f.severity, Severity::Proven);
    }

    #[test]
    fn budget_rejects_nonsense() {
        let bad = ApproxBudget {
            score_margin: 0.0,
            fused_dev: 1.0,
        };
        assert!(bad.validate().is_err());
        let nan = ApproxBudget {
            score_margin: 0.25,
            fused_dev: f64::NAN,
        };
        assert!(nan.validate().is_err());
    }
}
