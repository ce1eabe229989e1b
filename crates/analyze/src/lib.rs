//! Static range and overflow analysis for the fixed-point cell dataflow.
//!
//! XPro executes its functional cells — windowed statistics, the discrete
//! wavelet transform, and SVM scoring — in Q16.16 fixed point when they are
//! mapped to the sensor end. Q16.16 saturates at ±32768, and two of the
//! primitive operations have hard cliffs: the exponential overflows to
//! `MAX` once its argument reaches 11, and the central-moment powers grow
//! as the fourth power of the window's spread. Whether a given partition is
//! numerically safe therefore depends on the *input signal's range*, the
//! depth of the DWT chain feeding each cell, and which features the model
//! selected.
//!
//! This crate answers that question statically. [`analyze`] abstractly
//! interprets a cell list over **two cooperating abstract domains**:
//!
//! * an interval domain ([`interval::Interval`]) that mirrors the Q16.16
//!   semantics exactly — same rounding, same rails, same operation order as
//!   the concrete kernels — augmented with a worst-case rounding-error
//!   envelope in ulps;
//! * an affine-arithmetic domain ([`affine::AffineForm`]) whose noise
//!   symbols track correlations, so `x - mean` cancels instead of widening
//!   and relational moment bounds (Popoviciu) apply.
//!
//! Every cell gets a [`Verdict`] per domain plus a combined verdict that
//! takes the tighter sound claim: proven safe, possible overflow (with the
//! op and magnitude), or disproportionate precision loss.
//!
//! `xpro-core` runs this analysis when instantiating a deployment and uses
//! it to reject partition candidates that would place an overflow-prone
//! cell on the fixed-point sensor end; the `analyze` binary prints the
//! per-cell report and can emit machine-readable findings ([`gate`]) for
//! CI regression gating.
//!
//! Beyond value ranges, the crate also bounds a deployment's *dynamics*:
//! [`timing`] derives sound worst-case response-time, queue-occupancy and
//! utilization bounds from a plain-number deployment model, and [`energy`]
//! turns the same model into worst-case per-epoch energy and battery-
//! lifetime floors. Those verdicts flow through the same findings gate at
//! synthetic cell indices ([`gate::TIMING_CELL_BASE`]).
//!
//! [`json`] is the workspace's one JSON writer and strict reader: the
//! findings document and the runtime's run reports are written through
//! it, and findings baselines and `--tenants` tables are read by it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod affine;
pub mod analysis;
pub mod approx;
pub mod energy;
pub mod gate;
pub mod interval;
pub mod json;
pub mod timing;

pub use affine::{AffineForm, SymbolCtx};
pub use analysis::{
    analyze, analyze_approx, try_analyze, try_analyze_approx, AnalysisReport, AnalyzeError,
    AnalyzeOptions, CellReport, CellSpec, DomainReport, SignalBounds, ValueRange, Verdict,
};
pub use approx::{
    analyze_approx_budget, analyze_approx_budget_with_exact, approx_finding, ApproxAnalysis,
    ApproxBudget, ApproxVerdict, SvmDeviation,
};
pub use energy::{analyze_energy, EnergyBounds, EnergyViolation};
pub use gate::{
    diff_findings, parse_findings, render_findings, Finding, Severity, APPROX_CELL_BASE,
    TIMING_CELL_BASE,
};
pub use interval::{Hazard, HazardOp, Interval};
pub use timing::{
    analyze_tenant_timing, analyze_timing, Resource, RetryRegime, TenantModel, TenantTimingBounds,
    TimingBounds, TimingModel, TimingViolation,
};
