//! Typed approximation knobs for functional cells and their hardware
//! pricing.
//!
//! XBioSiP-style staged approximation gives the partitioner a third axis
//! beyond delay and energy: a cell may run an *approximate* kernel that is
//! cheaper in the hardware library but deviates from the exact Q16.16
//! datapath by a statically bounded amount. Three knobs are modeled, each
//! matching an approximate kernel in `xpro-signal` / `xpro-ml`:
//!
//! * **Truncated multiplier** (`mul_truncation_bits = k`): the low `k`
//!   partial-product columns of the 16-bit fractional shift are dropped.
//!   The kernel is [`truncated Q16 multiply`](../../xpro_signal/fixed/
//!   struct.Q16.html); its result deviates from the round-to-nearest exact
//!   multiply by at most `2^k` ulps. Energy of the multiplier array
//!   shrinks by the fraction of dropped partial-product cells.
//! * **Reduced DWT depth** (`dwt_skip`): the deepest decomposition level is
//!   replaced by a decimation approximation (`a[i] = √2·x[2i]`, `d[i] = 0`)
//!   that needs one multiply per output instead of a full filter bank.
//! * **Pruned ensemble member** (`svm_prune`): the SVM cell is power-gated
//!   entirely and its vote replaced by zero before score fusion.
//!
//! Which knobs a module honors is defined by
//! [`ApproxConfig::effective_for`]; pricing and the static error analysis
//! in `xpro-analyze` both go through it so the energy model never claims a
//! discount the kernels do not implement.

use crate::alu::AluMode;
use crate::library::{CellCost, CellCostModel};
use crate::module::ModuleKind;
use crate::ops::{Op, OpCounts};
use crate::process::ProcessNode;

/// Largest supported truncation depth: half of the 16-bit fractional
/// shift. Beyond this the worst-case error (`2^k` ulps ≈ 0.0625 value
/// units at `k = 12`) stops being "approximation" and starts being noise.
pub const MAX_TRUNCATION_BITS: u8 = 12;

/// Approximation knobs of one functional cell.
///
/// The default configuration is exact ([`ApproxConfig::EXACT`]); a
/// non-exact configuration must pass [`ApproxConfig::validate`] before it
/// is priced or analyzed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ApproxConfig {
    /// Dropped partial-product bits of the cell's Q16.16 multipliers
    /// (0 = exact round-to-nearest multiply, up to
    /// [`MAX_TRUNCATION_BITS`]). Honored by SVM cells.
    pub mul_truncation_bits: u8,
    /// Replace this DWT level by the one-multiply decimation
    /// approximation. Honored by DWT cells.
    pub dwt_skip: bool,
    /// Power-gate this SVM base classifier and emit a zero vote. Honored
    /// by SVM cells.
    pub svm_prune: bool,
}

impl ApproxConfig {
    /// The exact configuration: every knob off.
    pub const EXACT: ApproxConfig = ApproxConfig {
        mul_truncation_bits: 0,
        dwt_skip: false,
        svm_prune: false,
    };

    /// Whether every knob is off.
    pub fn is_exact(&self) -> bool {
        *self == ApproxConfig::EXACT
    }

    /// Validates the knob ranges.
    ///
    /// # Errors
    ///
    /// Returns a description when `mul_truncation_bits` exceeds
    /// [`MAX_TRUNCATION_BITS`].
    pub fn validate(&self) -> Result<(), String> {
        if self.mul_truncation_bits > MAX_TRUNCATION_BITS {
            return Err(format!(
                "mul_truncation_bits {} exceeds the maximum {MAX_TRUNCATION_BITS}",
                self.mul_truncation_bits
            ));
        }
        Ok(())
    }

    /// Projects this configuration onto the knobs the module actually
    /// honors; everything else is exact. Feature and fusion cells run
    /// exact kernels unconditionally (the standardized-moment features
    /// divide by σ, which would amplify injected error unboundedly, and
    /// fusion is one multiply-accumulate per base — nothing to save).
    pub fn effective_for(&self, module: &ModuleKind) -> ApproxConfig {
        match module {
            ModuleKind::Svm { .. } => ApproxConfig {
                dwt_skip: false,
                ..*self
            },
            ModuleKind::DwtLevel { .. } => ApproxConfig {
                dwt_skip: self.dwt_skip,
                ..ApproxConfig::EXACT
            },
            _ => ApproxConfig::EXACT,
        }
    }
}

impl std::fmt::Display for ApproxConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exact() {
            return f.write_str("exact");
        }
        let mut parts = Vec::new();
        if self.mul_truncation_bits > 0 {
            parts.push(format!("trunc{}", self.mul_truncation_bits));
        }
        if self.dwt_skip {
            parts.push("dwt-skip".to_string());
        }
        if self.svm_prune {
            parts.push("prune".to_string());
        }
        f.write_str(&parts.join("+"))
    }
}

/// Energy scale factor of a Q16.16 array multiplier with the low `bits`
/// partial-product columns dropped.
///
/// A 32×32 array computing the 48 significant output columns spends its
/// switching energy roughly proportionally to the number of active
/// partial-product cells; dropping the low `k` columns of the fractional
/// shift removes a `k(k+33)/2` triangle out of the ~1024-cell half-array
/// that feeds the kept columns. The factor is 1.0 at `k = 0` and ≈ 0.74
/// at `k = 12`.
pub fn trunc_mul_energy_factor(bits: u8) -> f64 {
    let k = f64::from(bits.min(MAX_TRUNCATION_BITS));
    1.0 - k * (k + 33.0) / 2048.0
}

/// Effective operation counts of a module under an approximation
/// configuration (after [`ApproxConfig::effective_for`] projection).
///
/// * A pruned SVM performs no work (and therefore never wakes).
/// * A skipped DWT level computes `⌈n/2⌉` scaled even samples (one
///   multiply each) and zero-fills the detail band: `n` buffer accesses.
/// * Everything else keeps its exact counts — the truncated multiplier
///   changes the *energy per multiply*, not the multiply count.
pub fn approx_op_counts(module: &ModuleKind, cfg: &ApproxConfig) -> OpCounts {
    let eff = cfg.effective_for(module);
    match *module {
        ModuleKind::Svm { .. } if eff.svm_prune => OpCounts::ZERO,
        ModuleKind::DwtLevel { input_len, .. } if eff.dwt_skip => {
            let n = input_len as u64;
            OpCounts {
                mul: n.div_ceil(2),
                mem: n,
                ..OpCounts::ZERO
            }
        }
        _ => module.op_counts(),
    }
}

impl CellCostModel {
    /// Clone of this model with the multiplier energy scaled for a
    /// truncated array.
    fn with_truncated_multiplier(&self, bits: u8) -> CellCostModel {
        let mut model = self.clone();
        let mul = Op::ALL.iter().position(|&o| o == Op::Mul).expect("mul op");
        model.op_energy_pj[mul] *= trunc_mul_energy_factor(bits);
        model
    }

    /// Prices one cell activation under an approximation configuration.
    ///
    /// # Panics
    ///
    /// Panics (debug) on an invalid configuration; see
    /// [`ApproxConfig::validate`].
    pub fn cost_approx(
        &self,
        module: &ModuleKind,
        mode: AluMode,
        node: ProcessNode,
        cfg: &ApproxConfig,
    ) -> CellCost {
        debug_assert!(cfg.validate().is_ok(), "invalid approx config {cfg:?}");
        let eff = cfg.effective_for(module);
        if eff.is_exact() {
            return self.cost(&module.op_counts(), mode, module.lanes(), node);
        }
        let ops = approx_op_counts(module, &eff);
        if eff.mul_truncation_bits > 0 {
            self.with_truncated_multiplier(eff.mul_truncation_bits)
                .cost(&ops, mode, module.lanes(), node)
        } else {
            self.cost(&ops, mode, module.lanes(), node)
        }
    }

    /// The most energy-efficient monotonic mode of a module under an
    /// approximation configuration, and its cost — the approximate
    /// counterpart of [`CellCostModel::best_mode`].
    pub fn best_mode_approx(
        &self,
        module: &ModuleKind,
        node: ProcessNode,
        cfg: &ApproxConfig,
    ) -> (AluMode, CellCost) {
        let mut best = (
            AluMode::ALL[0],
            self.cost_approx(module, AluMode::ALL[0], node, cfg),
        );
        for &mode in &AluMode::ALL[1..] {
            let cost = self.cost_approx(module, mode, node, cfg);
            if cost.energy_pj < best.1.energy_pj {
                best = (mode, cost);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;

    fn svm() -> ModuleKind {
        ModuleKind::Svm {
            support_vectors: 25,
            dims: 12,
            rbf: true,
        }
    }

    fn dwt() -> ModuleKind {
        ModuleKind::DwtLevel {
            input_len: 8,
            taps: 2,
        }
    }

    #[test]
    fn exact_config_prices_like_best_mode() {
        let m = CellCostModel::default();
        let exact = m.best_mode(&svm(), ProcessNode::N90);
        let approx = m.best_mode_approx(&svm(), ProcessNode::N90, &ApproxConfig::EXACT);
        assert_eq!(exact, approx);
    }

    #[test]
    fn truncation_lowers_svm_energy_monotonically() {
        let m = CellCostModel::default();
        let mut last = f64::INFINITY;
        for bits in [0u8, 2, 4, 8, 12] {
            let cfg = ApproxConfig {
                mul_truncation_bits: bits,
                ..ApproxConfig::EXACT
            };
            let (_, cost) = m.best_mode_approx(&svm(), ProcessNode::N90, &cfg);
            assert!(cost.energy_pj < last || bits == 0, "bits {bits}");
            last = cost.energy_pj;
        }
    }

    #[test]
    fn pruned_svm_costs_nothing_including_wake() {
        let m = CellCostModel::default();
        let cfg = ApproxConfig {
            svm_prune: true,
            ..ApproxConfig::EXACT
        };
        let (_, cost) = m.best_mode_approx(&svm(), ProcessNode::N90, &cfg);
        assert_eq!(cost.energy_pj, 0.0);
        assert_eq!(cost.cycles, 0);
    }

    #[test]
    fn skipped_dwt_is_cheaper_than_exact() {
        let m = CellCostModel::default();
        let cfg = ApproxConfig {
            dwt_skip: true,
            ..ApproxConfig::EXACT
        };
        let exact = m.best_mode(&dwt(), ProcessNode::N90).1;
        let skipped = m.best_mode_approx(&dwt(), ProcessNode::N90, &cfg).1;
        assert!(
            skipped.energy_pj < exact.energy_pj / 1.5,
            "skipped {} vs exact {}",
            skipped.energy_pj,
            exact.energy_pj
        );
    }

    #[test]
    fn knobs_only_apply_to_honoring_modules() {
        let everything = ApproxConfig {
            mul_truncation_bits: 8,
            dwt_skip: true,
            svm_prune: true,
        };
        let feature = ModuleKind::ScoreFusion { bases: 4 };
        assert!(everything.effective_for(&feature).is_exact());
        assert!(!everything.effective_for(&svm()).dwt_skip);
        assert!(everything.effective_for(&svm()).svm_prune);
        let d = everything.effective_for(&dwt());
        assert!(d.dwt_skip && d.mul_truncation_bits == 0 && !d.svm_prune);
        let m = CellCostModel::default();
        assert_eq!(
            m.best_mode_approx(&feature, ProcessNode::N90, &everything),
            m.best_mode(&feature, ProcessNode::N90)
        );
    }

    #[test]
    fn energy_factor_is_sane() {
        assert_eq!(trunc_mul_energy_factor(0), 1.0);
        assert!(trunc_mul_energy_factor(4) < 0.95);
        assert!(trunc_mul_energy_factor(12) > 0.7);
        assert!(trunc_mul_energy_factor(12) < trunc_mul_energy_factor(8));
    }

    #[test]
    fn validate_rejects_deep_truncation() {
        let cfg = ApproxConfig {
            mul_truncation_bits: 13,
            ..ApproxConfig::EXACT
        };
        assert!(cfg.validate().is_err());
        assert!(ApproxConfig::EXACT.validate().is_ok());
    }

    #[test]
    fn display_names_the_active_knobs() {
        assert_eq!(ApproxConfig::EXACT.to_string(), "exact");
        let cfg = ApproxConfig {
            mul_truncation_bits: 4,
            svm_prune: true,
            ..ApproxConfig::EXACT
        };
        assert_eq!(cfg.to_string(), "trunc4+prune");
    }
}
