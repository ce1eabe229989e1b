//! Abstract interpretation of the functional-cell dataflow.
//!
//! [`analyze`] walks a topologically ordered list of [`CellSpec`]s and
//! propagates value envelopes through transfer functions that mirror each
//! cell's fixed-point implementation op by op, under **two abstract
//! domains run in parallel**:
//!
//! * the *interval* domain ([`Interval`]) mirrors the Q16.16 semantics
//!   exactly — same rounding, same rails, same operation order as the
//!   concrete kernels;
//! * the *affine* domain ([`AffineForm`])
//!   tracks correlations through noise symbols, so `x - mean` cancels
//!   instead of widening and squares stay one-sided; Q16.16 rounding is
//!   covered by the ulp error envelope, which inflates every rail check.
//!
//! Per cell, the report carries both domain envelopes plus their
//! intersection (the *combined* envelope, never wider than either), and a
//! combined [`Verdict`]: a cell is overflow-free if **either** domain
//! proves it — each domain is independently sound, so the tighter claim
//! wins. This is how spurious `MayOverflow` verdicts on short-window
//! deep-domain moment cells (where the deviation `x - mean` can only reach
//! `(n-1)/n` of the window width) are demoted to `Proven`.
//!
//! The transfer functions mirror the concrete kernels:
//!
//! * features follow `xpro_signal::stats::feature_q16` (mean first, then
//!   per-sample central moments, each term divided by `N` before
//!   accumulation);
//! * DWT levels follow `xpro_signal::dwt::dwt_single_q16` (quantized filter
//!   taps, multiply-accumulate per output sample);
//! * SVM cells follow `Svm::decision_q16`, with inputs pinned to `[0, 1]`
//!   because the `MinMaxScaler` clamps every feature before the SVM sees it.
//!
//! Each cell receives a [`Verdict`]: [`Verdict::Proven`] when no operation
//! can reach the saturation rails and rounding stays below the configured
//! threshold, [`Verdict::MayOverflow`] when some reachable input drives an
//! intermediate past ±32768 (with the offending op and its worst pre-clamp
//! magnitude), and [`Verdict::PrecisionLoss`] when the range is safe but the
//! error envelope is large (ill-conditioned cells: Std near zero variance,
//! the standardized moments Skew/Kurt whose denominators quantize badly).

use crate::affine::{AffineForm, SymbolCtx};
use crate::interval::{Hazard, HazardOp, Interval, OpLog};
use std::collections::BTreeMap;
use xpro_hw::{ApproxConfig, ModuleKind};
use xpro_signal::dwt::Wavelet;
use xpro_signal::fixed::Q16;
use xpro_signal::stats::FeatureKind;

/// One ulp of the Q16.16 format in value units.
const ULP: f64 = 1.0 / 65536.0;
/// Upper saturation rail in value units (`i32::MAX / 2^16`).
const RAIL_HI_V: f64 = i32::MAX as f64 * ULP;
/// Lower saturation rail in value units (`i32::MIN / 2^16`).
const RAIL_LO_V: f64 = i32::MIN as f64 * ULP;

/// A typed validation failure of analyzer inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum AnalyzeError {
    /// A signal bound is NaN or infinite.
    NonFiniteBounds {
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
    /// The lower bound exceeds the upper bound.
    InvertedBounds {
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
    /// An [`AnalyzeOptions`] field is out of its valid range.
    InvalidOption {
        /// Name of the offending option.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AnalyzeError::NonFiniteBounds { lo, hi } => {
                write!(f, "non-finite signal bounds [{lo}, {hi}]")
            }
            AnalyzeError::InvertedBounds { lo, hi } => {
                write!(f, "inverted signal bounds [{lo}, {hi}]")
            }
            AnalyzeError::InvalidOption { name, value } => {
                write!(f, "analyze option {name} out of range: {value}")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Bounds on the raw input signal, in value units.
///
/// The default is `[-1, 1]`; dataset metadata (`Dataset::signal_range`)
/// can tighten or widen it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SignalBounds {
    /// Smallest possible sample value.
    pub lo: f64,
    /// Largest possible sample value.
    pub hi: f64,
}

impl Default for SignalBounds {
    fn default() -> Self {
        SignalBounds { lo: -1.0, hi: 1.0 }
    }
}

impl SignalBounds {
    /// Bounds `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite. Use
    /// [`SignalBounds::try_new`] for a fallible construction.
    pub fn new(lo: f64, hi: f64) -> Self {
        match SignalBounds::try_new(lo, hi) {
            Ok(b) => b,
            Err(AnalyzeError::NonFiniteBounds { .. }) => panic!("non-finite bound"),
            Err(_) => panic!("inverted bounds"),
        }
    }

    /// Bounds `[lo, hi]`, rejecting NaN, infinite, or inverted bounds with
    /// a typed error.
    ///
    /// # Errors
    ///
    /// [`AnalyzeError::NonFiniteBounds`] if either bound is NaN or
    /// infinite; [`AnalyzeError::InvertedBounds`] if `lo > hi`.
    pub fn try_new(lo: f64, hi: f64) -> Result<Self, AnalyzeError> {
        if !(lo.is_finite() && hi.is_finite()) {
            return Err(AnalyzeError::NonFiniteBounds { lo, hi });
        }
        if lo > hi {
            return Err(AnalyzeError::InvertedBounds { lo, hi });
        }
        Ok(SignalBounds { lo, hi })
    }

    /// Validates the (publicly constructible) fields.
    ///
    /// # Errors
    ///
    /// Same as [`SignalBounds::try_new`].
    pub fn validate(&self) -> Result<(), AnalyzeError> {
        SignalBounds::try_new(self.lo, self.hi).map(|_| ())
    }
}

/// Analysis tunables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyzeOptions {
    /// Rounding-error threshold in ulps of 2^-16 *per unit of output
    /// magnitude* (floored at one unit) above which a cell is reported as
    /// [`Verdict::PrecisionLoss`] rather than proven.
    pub precision_ulps: f64,
    /// Input range of every SVM dimension. The pipeline's `MinMaxScaler`
    /// clamps features to `[0, 1]` before classification, which decouples
    /// SVM analysis from the (much wider) feature output ranges.
    pub svm_input: SignalBounds,
    /// Bound on the magnitude of each SVM dual coefficient `αᵢyᵢ` — the box
    /// constraint `C` of the trainer (default 1).
    pub svm_coef_bound: f64,
    /// RBF kernel width γ assumed for RBF SVM cells.
    pub svm_gamma: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            precision_ulps: 256.0,
            svm_input: SignalBounds::new(0.0, 1.0),
            svm_coef_bound: 1.0,
            svm_gamma: 1.0,
        }
    }
}

impl AnalyzeOptions {
    /// Validates every field against NaN, infinities, and sign errors.
    ///
    /// # Errors
    ///
    /// [`AnalyzeError::InvalidOption`] naming the offending field, or a
    /// bounds error from the embedded [`SignalBounds`].
    pub fn validate(&self) -> Result<(), AnalyzeError> {
        if !(self.precision_ulps.is_finite() && self.precision_ulps > 0.0) {
            return Err(AnalyzeError::InvalidOption {
                name: "precision_ulps",
                value: self.precision_ulps,
            });
        }
        self.svm_input.validate()?;
        if !(self.svm_coef_bound.is_finite() && self.svm_coef_bound >= 0.0) {
            return Err(AnalyzeError::InvalidOption {
                name: "svm_coef_bound",
                value: self.svm_coef_bound,
            });
        }
        if !(self.svm_gamma.is_finite() && self.svm_gamma >= 0.0) {
            return Err(AnalyzeError::InvalidOption {
                name: "svm_gamma",
                value: self.svm_gamma,
            });
        }
        Ok(())
    }
}

/// An interval of possible values plus an accumulated rounding-error bound
/// (in ulps of 2^-16) relative to exact real arithmetic on the same inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueRange {
    /// Possible values on the port.
    pub interval: Interval,
    /// Rounding-error envelope in ulps.
    pub err_ulps: f64,
}

impl ValueRange {
    fn new(interval: Interval, err_ulps: f64) -> Self {
        ValueRange { interval, err_ulps }
    }

    /// Error envelope in value units (`err_ulps · 2^-16`).
    pub fn err_value(&self) -> f64 {
        self.err_ulps * ULP
    }

    /// Width of the interval in value units.
    pub fn width(&self) -> f64 {
        self.interval.hi_f64() - self.interval.lo_f64()
    }
}

/// The analyzer's view of one functional cell: what it computes and which
/// upstream ports it reads. `inputs` entries are `(producer, port)` with
/// `producer == None` denoting the raw sensed segment.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// The module the cell implements.
    pub module: ModuleKind,
    /// Consumed ports, `(producer cell, port index)`; `None` = raw input.
    pub inputs: Vec<(Option<usize>, usize)>,
    /// Human-readable label (e.g. `"Kurt@a5"`).
    pub label: String,
}

/// Per-cell analysis outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// No reachable input saturates any operation and the rounding envelope
    /// stays below the threshold.
    Proven,
    /// Some reachable input drives an intermediate past the ±32768 rails.
    MayOverflow {
        /// The first-saturating operation class.
        op: HazardOp,
        /// Worst pre-saturation magnitude in value units.
        bound: f64,
    },
    /// Ranges are safe but rounding error can exceed the threshold.
    PrecisionLoss {
        /// Worst-case rounding-error bound in ulps of 2^-16.
        ulps: u32,
    },
}

impl Verdict {
    /// Whether this verdict rules out saturation.
    pub fn is_overflow_free(&self) -> bool {
        !matches!(self, Verdict::MayOverflow { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Verdict::Proven => f.write_str("proven"),
            Verdict::MayOverflow { op, bound } => {
                write!(f, "MAY OVERFLOW ({op}, |x| ≤ {bound:.1})")
            }
            Verdict::PrecisionLoss { ulps } => write!(f, "precision loss ({ulps} ulps)"),
        }
    }
}

/// One abstract domain's view of a cell: its verdict and per-port
/// envelopes.
#[derive(Clone, Debug)]
pub struct DomainReport {
    /// The domain's verdict for the cell.
    pub verdict: Verdict,
    /// The domain's value ranges per output port.
    pub ports: Vec<ValueRange>,
}

impl DomainReport {
    /// Width of the primary (port-0) envelope in value units.
    pub fn output_width(&self) -> f64 {
        self.ports[0].width()
    }
}

/// Analysis result for one cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The cell's label.
    pub label: String,
    /// Display form of the module.
    pub module: String,
    /// Combined (interval ∩ affine) value ranges per output port (port 0
    /// first) — never wider than either domain alone.
    pub ports: Vec<ValueRange>,
    /// The combined verdict: overflow-free if either domain proves it.
    pub verdict: Verdict,
    /// The interval domain's view.
    pub interval: DomainReport,
    /// The affine domain's view.
    pub affine: DomainReport,
}

impl CellReport {
    /// The primary (port-0) output range.
    pub fn output(&self) -> ValueRange {
        self.ports[0]
    }

    /// Whether the interval domain alone flagged the cell as a possible
    /// overflow while the combined verdict clears it — the cells recovered
    /// by the affine domain.
    pub fn demoted_by_affine(&self) -> bool {
        !self.interval.verdict.is_overflow_free() && self.verdict.is_overflow_free()
    }
}

/// The full per-cell report of one analysis run.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// The raw-input bounds the analysis assumed.
    pub input: SignalBounds,
    /// One report per cell, in graph order.
    pub cells: Vec<CellReport>,
}

impl AnalysisReport {
    /// Whether every cell is free of possible saturation.
    pub fn is_overflow_free(&self) -> bool {
        self.cells.iter().all(|c| c.verdict.is_overflow_free())
    }

    /// Cells whose verdict is [`Verdict::MayOverflow`].
    pub fn overflowing(&self) -> Vec<&CellReport> {
        self.cells
            .iter()
            .filter(|c| !c.verdict.is_overflow_free())
            .collect()
    }

    /// Cells the interval domain flagged but the affine domain proved safe.
    pub fn demoted(&self) -> Vec<&CellReport> {
        self.cells
            .iter()
            .filter(|c| c.demoted_by_affine())
            .collect()
    }

    /// Verdict of one cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn verdict(&self, cell: usize) -> Verdict {
        self.cells[cell].verdict
    }
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "static range analysis over raw input [{:.3}, {:.3}]",
            self.input.lo, self.input.hi
        )?;
        writeln!(
            f,
            "{:>4}  {:<12} {:<14} {:>22}  {:>10}  verdict",
            "cell", "label", "module", "range", "err(ulps)"
        )?;
        for (i, c) in self.cells.iter().enumerate() {
            let out = c.output();
            let demoted = if c.demoted_by_affine() {
                "  [affine-demoted]"
            } else {
                ""
            };
            writeln!(
                f,
                "{i:>4}  {:<12} {:<14} {:>22}  {:>10.1}  {}{demoted}",
                c.label,
                c.module,
                out.interval.to_string(),
                out.err_ulps,
                c.verdict
            )?;
        }
        let flagged = self.overflowing().len();
        if flagged == 0 {
            write!(f, "all {} cells proven overflow-free", self.cells.len())
        } else {
            write!(f, "{flagged} of {} cells MAY OVERFLOW", self.cells.len())
        }
    }
}

/// Runs the range analysis over a topologically ordered cell list.
///
/// # Panics
///
/// Panics if the bounds or options are invalid (see [`try_analyze`] for a
/// fallible variant) or if a cell references a not-yet-analyzed producer or
/// an out-of-range port (the list must be topologically ordered, as
/// `CellGraph` guarantees by construction).
pub fn analyze(cells: &[CellSpec], input: SignalBounds, opts: &AnalyzeOptions) -> AnalysisReport {
    match try_analyze(cells, input, opts) {
        Ok(report) => report,
        Err(e) => panic!("invalid analysis input: {e}"),
    }
}

/// Runs the range analysis with approximation knobs, panicking on invalid
/// inputs (see [`try_analyze_approx`] for the fallible variant).
///
/// # Panics
///
/// Panics if the bounds, options, or any assigned [`ApproxConfig`] are
/// invalid, or if the cell list is not topologically ordered.
pub fn analyze_approx(
    cells: &[CellSpec],
    input: SignalBounds,
    opts: &AnalyzeOptions,
    assignment: &BTreeMap<usize, ApproxConfig>,
) -> AnalysisReport {
    match try_analyze_approx(cells, input, opts, assignment) {
        Ok(report) => report,
        Err(e) => panic!("invalid analysis input: {e}"),
    }
}

/// Runs the range analysis, validating bounds and options first.
///
/// # Errors
///
/// Returns an [`AnalyzeError`] when `input` or `opts` contain NaN,
/// infinite, or inverted values.
///
/// # Panics
///
/// Panics if a cell references a not-yet-analyzed producer or an
/// out-of-range port (the list must be topologically ordered).
pub fn try_analyze(
    cells: &[CellSpec],
    input: SignalBounds,
    opts: &AnalyzeOptions,
) -> Result<AnalysisReport, AnalyzeError> {
    try_analyze_approx(cells, input, opts, &BTreeMap::new())
}

/// Runs the range analysis with per-cell approximation knobs applied.
///
/// `assignment` maps cell indices to [`ApproxConfig`]s. For each
/// approximated cell the walk first runs the *exact* transfer functions,
/// then injects the knob's worst-case deviation: the interval envelope's
/// `err_ulps` grows by the deviation bound and the affine form gains a
/// fresh noise symbol of the same radius, so the resulting per-port
/// envelopes bound `|approximate fixed-point − ideal real|` end to end.
/// Cells absent from the map (and knobs a module does not honor, per
/// [`ApproxConfig::effective_for`]) analyze exactly as [`try_analyze`].
///
/// # Errors
///
/// Returns an [`AnalyzeError`] when `input` or `opts` contain NaN,
/// infinite, or inverted values, or when an assigned config fails
/// [`ApproxConfig::validate`].
///
/// # Panics
///
/// Panics if a cell references a not-yet-analyzed producer or an
/// out-of-range port (the list must be topologically ordered).
pub fn try_analyze_approx(
    cells: &[CellSpec],
    input: SignalBounds,
    opts: &AnalyzeOptions,
    assignment: &BTreeMap<usize, ApproxConfig>,
) -> Result<AnalysisReport, AnalyzeError> {
    input.validate()?;
    opts.validate()?;
    for cfg in assignment.values() {
        if cfg.validate().is_err() {
            return Err(AnalyzeError::InvalidOption {
                name: "approx.mul_truncation_bits",
                value: f64::from(cfg.mul_truncation_bits),
            });
        }
    }

    // Raw samples: quantized once on entry (±0.5 ulp); segments shorter than
    // the DWT input are padded with their last sample (in range) or zeros
    // for the defensive empty-segment path, so the hull with zero is sound.
    let raw_iv = Interval::from_f64(input.lo, input.hi).hull(Interval::ZERO);
    let raw = ValueRange::new(raw_iv, 0.5);

    let mut ctx = SymbolCtx::new();
    let raw_af = AffineRange::from_interval(raw_iv, 0.5, &mut ctx);

    let mut iports: Vec<Vec<ValueRange>> = Vec::with_capacity(cells.len());
    let mut aports: Vec<Vec<AffineRange>> = Vec::with_capacity(cells.len());
    let mut reports: Vec<CellReport> = Vec::with_capacity(cells.len());

    for (i, cell) in cells.iter().enumerate() {
        let fetch_iv = |(producer, port): (Option<usize>, usize)| -> ValueRange {
            match producer {
                None => raw,
                Some(p) => {
                    assert!(p < i, "cell {i} references not-yet-analyzed cell {p}");
                    iports[p][port]
                }
            }
        };
        let fetch_af = |(producer, port): (Option<usize>, usize)| -> AffineRange {
            match producer {
                None => raw_af.clone(),
                Some(p) => aports[p][port].clone(),
            }
        };

        let mut log_i = OpLog::new();
        let mut log_a = OpLog::new();
        let (mut outs_i, mut outs_a) = match cell.module {
            ModuleKind::Feature {
                kind,
                input_len,
                reuses_var,
            } => {
                let input_port = *cell.inputs.first().expect("feature cell has an input");
                let x = fetch_iv(input_port);
                let xa = fetch_af(input_port);
                (
                    vec![feature_transfer(kind, x, input_len, reuses_var, &mut log_i)],
                    vec![feature_affine(
                        kind, &xa, input_len, reuses_var, &mut ctx, &mut log_a,
                    )],
                )
            }
            ModuleKind::DwtLevel { taps, .. } => {
                let input_port = *cell.inputs.first().expect("dwt cell has an input");
                let x = fetch_iv(input_port);
                let xa = fetch_af(input_port);
                (
                    dwt_transfer(x, taps, &mut log_i),
                    dwt_affine(&xa, taps, &mut ctx, &mut log_a),
                )
            }
            ModuleKind::Svm {
                support_vectors,
                dims,
                rbf,
            } => (
                vec![svm_transfer(support_vectors, dims, rbf, opts, &mut log_i)],
                vec![svm_affine(
                    support_vectors,
                    dims,
                    rbf,
                    opts,
                    &mut ctx,
                    &mut log_a,
                )],
            ),
            ModuleKind::ScoreFusion { bases } => (
                vec![fusion_transfer(bases, &mut log_i)],
                vec![fusion_affine(bases, &mut ctx, &mut log_a)],
            ),
        };

        // Approximation-knob injection: the exact transfer above bounds the
        // exact kernel; each honored knob's worst-case deviation enters as
        // additional ulp error (both domains) plus a fresh affine noise
        // symbol, so downstream cells see the deviation as an independent
        // bounded perturbation.
        if let Some(cfg) = assignment.get(&i) {
            let eff = cfg.effective_for(&cell.module);
            if !eff.is_exact() {
                let in_iv = cell.inputs.first().map(|&p| fetch_iv(p));
                let extras = approx_injection_ulps(&cell.module, &eff, in_iv, &outs_i, opts);
                for (p, extra) in extras.into_iter().enumerate() {
                    if extra > 0.0 {
                        outs_i[p].err_ulps += extra;
                        let noise = AffineForm::with_fresh(0.0, extra * ULP, &mut ctx);
                        outs_a[p].form = outs_a[p].form.add(&noise);
                        outs_a[p].err_ulps += extra;
                    }
                }
            }
        }

        let affine_vr: Vec<ValueRange> = outs_a.iter().map(AffineRange::to_value_range).collect();
        let verdict_i = verdict_of(&log_i, &outs_i, opts);
        let verdict_a = verdict_of(&log_a, &affine_vr, opts);

        let combined: Vec<ValueRange> = outs_i
            .iter()
            .zip(&affine_vr)
            .map(|(iv, av)| intersect_ranges(*iv, *av))
            .collect();
        let verdict = combine_verdicts(verdict_i, verdict_a, &combined, opts);

        reports.push(CellReport {
            label: cell.label.clone(),
            module: cell.module.to_string(),
            ports: combined.clone(),
            verdict,
            interval: DomainReport {
                verdict: verdict_i,
                ports: outs_i.clone(),
            },
            affine: DomainReport {
                verdict: verdict_a,
                ports: affine_vr,
            },
        });
        iports.push(outs_i);
        aports.push(outs_a);
    }

    Ok(AnalysisReport {
        input,
        cells: reports,
    })
}

/// Intersects two sound envelopes of the same concrete value. The result
/// is never wider than either; if rounding artifacts make them disjoint
/// (which would indicate a domain bug), the interval envelope wins.
fn intersect_ranges(iv: ValueRange, av: ValueRange) -> ValueRange {
    let lo = iv.interval.lo().max(av.interval.lo());
    let hi = iv.interval.hi().min(av.interval.hi());
    if lo > hi {
        debug_assert!(false, "disjoint domain envelopes: {iv:?} vs {av:?}");
        return iv;
    }
    ValueRange::new(Interval::new(lo, hi), iv.err_ulps.min(av.err_ulps))
}

/// Merges the two domains' verdicts. Both domains are sound, so a cell
/// overflows only if *both* say it may; the reported bound is the smaller
/// (tighter) of the two claims. When neither overflows, the precision
/// verdict is recomputed over the combined envelope.
fn combine_verdicts(
    vi: Verdict,
    va: Verdict,
    combined: &[ValueRange],
    opts: &AnalyzeOptions,
) -> Verdict {
    match (vi, va) {
        (Verdict::MayOverflow { op, bound }, Verdict::MayOverflow { op: oa, bound: ba }) => {
            if ba < bound {
                Verdict::MayOverflow { op: oa, bound: ba }
            } else {
                Verdict::MayOverflow { op, bound }
            }
        }
        _ => verdict_of(&OpLog::new(), combined, opts),
    }
}

fn verdict_of(log: &OpLog, outs: &[ValueRange], opts: &AnalyzeOptions) -> Verdict {
    if let Some(Hazard { op, bound }) = log.worst() {
        return Verdict::MayOverflow { op, bound };
    }
    // The precision threshold is relative: a cell may accumulate up to
    // `precision_ulps` of rounding error per unit of output magnitude
    // (floored at one unit), so wide-range cells like SVM decisions are not
    // penalized for error that is proportionally tiny.
    let exceeded = outs
        .iter()
        .any(|v| v.err_ulps > opts.precision_ulps * v.interval.max_abs().max(1.0));
    let worst_err = outs.iter().map(|v| v.err_ulps).fold(0.0, f64::max);
    if exceeded {
        let ulps = if worst_err >= u32::MAX as f64 {
            u32::MAX
        } else {
            worst_err.ceil() as u32
        };
        Verdict::PrecisionLoss { ulps }
    } else {
        Verdict::Proven
    }
}

/// Error of `a · b` in ulps given operand envelopes and magnitudes:
/// `e_a·|b| + e_b·|a| + e_a·e_b·2^-16` plus half an ulp of rounding.
fn mul_err(ea: f64, amax: f64, eb: f64, bmax: f64) -> f64 {
    ea * bmax + eb * amax + ea * eb / 65536.0 + 0.5
}

/// Worst-case deviation, per output port and in ulps, between a cell's
/// approximate kernel and its exact kernel on the same inputs. `eff` is the
/// [`ApproxConfig::effective_for`]-filtered config, `in_iv` the envelope of
/// the cell's first input, `outs_i` the exact interval-domain outputs.
///
/// The bounds mirror the approximate kernels:
///
/// * **DWT level skip** (`dwt_single_q16_skipped`): for Haar (`taps == 2`)
///   both the approximation `√2·s₂ᵢ` and the zeroed detail deviate from the
///   exact pair by at most `|s₂ᵢ − s₂ᵢ₊₁|/√2 ≤ (hi−lo)/√2`; for longer
///   filters the magnitude-sum bound `(√2 + taps)·max|x|` (approx port) and
///   `taps·max|x|` (detail port) applies since every orthonormal tap has
///   magnitude below one. A few ulps of slack cover the kernels' differing
///   rounding.
/// * **SVM truncated multiply** (`decision_q16_trunc`, `k` dropped bits):
///   each truncated product lands within `2^k` ulps *below* the
///   round-to-nearest product; propagating through the (1-Lipschitz on its
///   domain) RBF exponential and the `C`-bounded dual coefficients gives
///   `sv·(2^k·(1 + C + C·γ·dims) + 3C + 1)` ulps (RBF) or
///   `sv·(2^k·(1 + C·dims) + 3C + 1)` (linear).
/// * **SVM prune**: the pruned base emits no vote; the deviation is the
///   full exact output magnitude plus its rounding envelope.
fn approx_injection_ulps(
    module: &ModuleKind,
    eff: &ApproxConfig,
    in_iv: Option<ValueRange>,
    outs_i: &[ValueRange],
    opts: &AnalyzeOptions,
) -> Vec<f64> {
    match *module {
        ModuleKind::DwtLevel { taps, .. } if eff.dwt_skip => {
            let x = in_iv.expect("dwt cell has an input").interval;
            let slack = taps as f64 + 4.0;
            if taps == 2 {
                let dev = (x.hi_f64() - x.lo_f64()) / std::f64::consts::SQRT_2 / ULP + slack;
                vec![dev, dev]
            } else {
                let max_abs = x.max_abs();
                vec![
                    (std::f64::consts::SQRT_2 + taps as f64) * max_abs / ULP + slack,
                    taps as f64 * max_abs / ULP + slack,
                ]
            }
        }
        ModuleKind::Svm {
            support_vectors,
            dims,
            rbf,
        } => {
            if eff.svm_prune {
                // The whole decision value disappears: |0 − exact| is at
                // most the exact magnitude plus its rounding envelope.
                return vec![outs_i[0].interval.max_abs() / ULP + outs_i[0].err_ulps];
            }
            let k = eff.mul_truncation_bits;
            if k == 0 {
                return vec![0.0];
            }
            let c = opts.svm_coef_bound;
            let per_product = f64::from(1u32 << u32::from(k));
            let per_sv = if rbf {
                per_product * (1.0 + c + c * opts.svm_gamma * dims as f64) + 3.0 * c + 1.0
            } else {
                per_product * (1.0 + c * dims as f64) + 3.0 * c + 1.0
            };
            vec![support_vectors as f64 * per_sv]
        }
        _ => vec![0.0; outs_i.len()],
    }
}

// ---------------------------------------------------------------------------
// Interval-domain transfer functions (mirror the Q16.16 kernels op by op).
// ---------------------------------------------------------------------------

/// Abstract mean: sum of `n` samples (exact adds, saturation logged), one
/// division by the exact integer `n` (≤ 1 ulp of rounding).
fn mean_transfer(x: ValueRange, n: usize, log: &mut OpLog) -> ValueRange {
    let sum = x.interval.accumulate(n as u32, log);
    let mean = sum.div_int(n as i32, log);
    ValueRange::new(mean, x.err_ulps + 1.0)
}

/// Abstract `central_moment_q16`: `acc += ((x−μ)^p) / n` over the window.
/// Mirrors the implementation's op order; the first multiply `ONE · d` is
/// exact, the square `d · d` is perfectly correlated (never negative), and
/// higher powers fall back to interval products.
fn central_moment_transfer(x: ValueRange, n: usize, p: u32, log: &mut OpLog) -> ValueRange {
    let mu = mean_transfer(x, n, log);
    let d_iv = x.interval.sub(mu.interval, log);
    let d = ValueRange::new(d_iv, x.err_ulps + mu.err_ulps);

    let mut term = d;
    for step in 2..=p {
        let iv = if step == 2 {
            term.interval.sqr(log)
        } else {
            term.interval.mul(d.interval, log)
        };
        let err = mul_err(
            term.err_ulps,
            term.interval.max_abs(),
            d.err_ulps,
            d.interval.max_abs(),
        );
        term = ValueRange::new(iv, err);
    }

    let per_sample = term.interval.div_int(n as i32, log);
    let acc = per_sample.accumulate(n as u32, log);
    // Per-sample division rounds within 1 ulp; n of them accumulate.
    ValueRange::new(acc, term.err_ulps + n as f64)
}

/// Error of `sqrt(v)` in ulps: `e/(2√v)` away from zero, `√e` at zero (the
/// worst point of the square root's conditioning), plus one ulp for the
/// integer Newton iteration.
fn sqrt_err(v: ValueRange) -> f64 {
    let e_val = v.err_value();
    let lo = v.interval.lo_f64().max(0.0);
    let e_out = if lo.sqrt() > e_val.sqrt() {
        e_val / (2.0 * lo.sqrt())
    } else {
        e_val.sqrt()
    };
    e_out * 65536.0 + 1.0
}

/// Reference σ for the standardized-moment error estimate: an eighth of the
/// worst-case deviation scale. Windows whose spread is far below this see
/// proportionally worse error — which is exactly what the PrecisionLoss
/// verdict communicates.
fn sigma_ref(var: &ValueRange) -> f64 {
    var.interval.hi_f64().max(0.0).sqrt() / 8.0
}

fn feature_transfer(
    kind: FeatureKind,
    x: ValueRange,
    n: usize,
    reuses_var: bool,
    log: &mut OpLog,
) -> ValueRange {
    if reuses_var {
        // Std reusing a Var cell: a lone square root of the upstream scalar.
        return ValueRange::new(x.interval.sqrt(), sqrt_err(x));
    }
    let n = n.max(1);
    match kind {
        // Comparator folds return one of the inputs unchanged.
        FeatureKind::Max | FeatureKind::Min => x,
        FeatureKind::Mean => mean_transfer(x, n, log),
        FeatureKind::Var => central_moment_transfer(x, n, 2, log),
        FeatureKind::Std => {
            let var = central_moment_transfer(x, n, 2, log);
            ValueRange::new(var.interval.sqrt(), sqrt_err(var))
        }
        FeatureKind::Czero => {
            // crossings ∈ [0, n−1], divided by the exact n. The comparator
            // tests the sign bit only, so samples within the quantization
            // envelope of zero can flip the count: allow two flips' worth
            // of output error (2/n in value units).
            let count = Interval::new(Q16::ZERO, Q16::from_int((n - 1) as i32));
            let out = count.div_int(n as i32, log);
            ValueRange::new(out, 2.0 * 65536.0 / n as f64)
        }
        FeatureKind::Skew => {
            let var = central_moment_transfer(x, n, 2, log);
            let m3 = central_moment_transfer(x, n, 3, log);
            standardized_moment_range(n, 3, &var, &m3)
        }
        FeatureKind::Kurt => {
            let var = central_moment_transfer(x, n, 2, log);
            let m4 = central_moment_transfer(x, n, 4, log);
            standardized_moment_range(n, 4, &var, &m4)
        }
    }
}

/// Range and error envelope of a standardized moment `m_p / σ^p`.
///
/// In exact arithmetic the relational bounds `|skew| ≤ √n` and
/// `0 ≤ kurt ≤ n` hold for any data, but the fixed-point quotient does not
/// honor them: on a near-constant window `σ^p` quantizes to a few ulps and
/// the saturating division can land anywhere up to the rails. Unless the
/// window is provably constant (→ exactly zero) the sound output range is
/// therefore the full format — the division saturates rather than wraps,
/// so this is a precision pathology, not an overflow hazard. The *error*
/// is estimated at the reference spread [`sigma_ref`] via first-order
/// perturbation of the quotient; windows with smaller σ see
/// proportionally larger error, which the PrecisionLoss verdict reports.
fn standardized_moment_range(n: usize, p: u32, var: &ValueRange, mp: &ValueRange) -> ValueRange {
    let nf = n as f64;
    let interval = Interval::FULL;
    let sref = sigma_ref(var);
    if sref <= 0.0 {
        // Provably constant window: the implementation returns exactly zero.
        return ValueRange::new(Interval::ZERO, 0.0);
    }
    let ratio_bound = if p == 3 { nf.sqrt() } else { nf };
    // d(m/σ^p) ≤ e_m/σ^p + p·|m/σ^p|·e_σ/σ with e_σ = e_var/(2σ).
    let e_val = mp.err_value() / sref.powi(p as i32)
        + 0.5 * p as f64 * ratio_bound * var.err_value() / (sref * sref);
    ValueRange::new(interval, e_val * 65536.0 + 1.0)
}

/// Abstract `dwt_single_q16`: per output sample, a `taps`-term
/// multiply-accumulate against the quantized low-pass (port 0) and
/// high-pass (port 1) filters.
fn dwt_transfer(x: ValueRange, taps: usize, log: &mut OpLog) -> Vec<ValueRange> {
    let wavelet = wavelet_of(taps);
    let bank = |coeffs: &[f64], log: &mut OpLog| -> ValueRange {
        let mut acc = Interval::ZERO;
        let mut err = 0.0;
        for &c in coeffs {
            let cq = Interval::constant(Q16::from_f64(c));
            acc = acc.add(cq.mul(x.interval, log), log);
            // Quantized coefficient (±0.5 ulp against the real filter),
            // input envelope scaled by |c|, mul rounding.
            err += x.err_ulps * c.abs() + 0.5 * x.interval.max_abs() + 0.5;
        }
        ValueRange::new(acc, err)
    };
    let approx = bank(wavelet.lowpass(), log);
    let detail = bank(&wavelet.highpass(), log);
    vec![approx, detail]
}

fn wavelet_of(taps: usize) -> Wavelet {
    match taps {
        2 => Wavelet::Haar,
        4 => Wavelet::Db2,
        _ => Wavelet::Db4,
    }
}

/// Abstract `Svm::decision_q16` under scaler-clamped inputs.
///
/// Inputs and support-vector coordinates live in `opts.svm_input` (the
/// `MinMaxScaler` clamps both at fit/transform time); dual coefficients are
/// bounded by the box constraint, and the bias by `sv · C` (each SMO bias
/// update moves within the coefficient scale). Non-RBF cells are analyzed
/// as linear kernels — the builder only distinguishes RBF (needs the exp
/// unit) from inner-product kernels.
fn svm_transfer(
    sv: usize,
    dims: usize,
    rbf: bool,
    opts: &AnalyzeOptions,
    log: &mut OpLog,
) -> ValueRange {
    let xiv = Interval::from_f64(opts.svm_input.lo, opts.svm_input.hi);
    let x = ValueRange::new(xiv, 0.5);
    let (k, ek) = if rbf {
        // dist² = Σ (sᵢ − xᵢ)²  over dims, then e^(−γ·dist²).
        let d_iv = x.interval.sub(x.interval, log);
        let ed = x.err_ulps * 2.0;
        let sq = d_iv.sqr(log);
        let esq = mul_err(ed, d_iv.max_abs(), ed, d_iv.max_abs());
        let dist2 = sq.accumulate(dims as u32, log);
        let edist2 = esq * dims as f64;
        let gamma = Interval::constant(Q16::from_f64(opts.svm_gamma));
        let arg = -gamma.mul(dist2, log);
        let earg = edist2 * opts.svm_gamma + 0.5 * dist2.max_abs() + 0.5;
        let k = arg.exp(log);
        // |d e^a| ≤ e^{a_hi} · e_a, plus the polynomial's own error (the
        // fixed exp is accurate to ~3·10^-4 over its working range).
        let ek = earg * arg.hi_f64().exp() + 32.0;
        (k, ek)
    } else {
        // Inner product of two vectors in the scaler range.
        let p = x.interval.mul(x.interval, log);
        let ep = mul_err(
            x.err_ulps,
            x.interval.max_abs(),
            x.err_ulps,
            x.interval.max_abs(),
        );
        let dot = p.accumulate(dims as u32, log);
        (dot, ep * dims as f64)
    };
    let coef = Interval::from_f64(-opts.svm_coef_bound, opts.svm_coef_bound);
    let contrib = coef.mul(k, log);
    let econtrib = mul_err(0.5, opts.svm_coef_bound, ek, k.max_abs());
    let sum = contrib.accumulate(sv as u32, log);
    let bias_bound = opts.svm_coef_bound * sv as f64;
    let bias = Interval::from_f64(-bias_bound, bias_bound);
    let acc = sum.add(bias, log);
    ValueRange::new(acc, econtrib * sv as f64 + 0.5)
}

/// Abstract score fusion: a weighted vote over ±1 base decisions with
/// weights in `[0, 1]` (normalized base accuracies).
fn fusion_transfer(bases: usize, log: &mut OpLog) -> ValueRange {
    let vote = Interval::from_f64(-1.0, 1.0);
    let weight = Interval::from_f64(0.0, 1.0);
    let product = weight.mul(vote, log);
    let acc = product.accumulate(bases as u32, log);
    ValueRange::new(acc, bases as f64)
}

// ---------------------------------------------------------------------------
// Affine-domain transfer functions. Arithmetic is real-valued; Q16.16
// rounding lives in the ulp error envelope, which inflates every rail
// check, so hazards are judged against the concrete (rounded) value.
// ---------------------------------------------------------------------------

/// An affine form plus its rounding-error envelope in ulps — the affine
/// counterpart of [`ValueRange`].
#[derive(Clone, Debug)]
struct AffineRange {
    form: AffineForm,
    err_ulps: f64,
    /// When true, the form was built from an already-concrete (rounded)
    /// interval — e.g. the output of the fixed-point sqrt or exp — so its
    /// range bounds the datapath value directly and concretization must
    /// not inflate it by the error envelope again.
    concrete: bool,
}

impl AffineRange {
    fn new(form: AffineForm, err_ulps: f64) -> Self {
        AffineRange {
            form,
            err_ulps,
            concrete: false,
        }
    }

    fn concrete(form: AffineForm, err_ulps: f64) -> Self {
        AffineRange {
            form,
            err_ulps,
            concrete: true,
        }
    }

    fn from_interval(iv: Interval, err_ulps: f64, ctx: &mut SymbolCtx) -> Self {
        AffineRange::new(
            AffineForm::from_range(iv.lo_f64(), iv.hi_f64(), ctx),
            err_ulps,
        )
    }

    fn err_value(&self) -> f64 {
        self.err_ulps * ULP
    }

    /// Concretizes to a sound [`ValueRange`]: the affine range inflated by
    /// the rounding envelope plus one ulp of outward slack for the f64 →
    /// Q16 conversion, clamped to the rails (the concrete datapath cannot
    /// leave them).
    fn to_value_range(&self) -> ValueRange {
        let (lo, hi) = self.form.range();
        let slack = if self.concrete {
            ULP
        } else {
            self.err_value() + ULP
        };
        let lo_v = (lo - slack).clamp(RAIL_LO_V, RAIL_HI_V);
        let hi_v = (hi + slack).clamp(lo_v, RAIL_HI_V);
        ValueRange::new(Interval::from_f64(lo_v, hi_v), self.err_ulps)
    }
}

/// Rail check for an affine intermediate: the concrete value lives within
/// `err` of the real-arithmetic form, so the check inflates the range by
/// the envelope before comparing against the rails. On a hazard the form
/// is clamped (the concrete datapath saturates), losing its correlations.
fn check_affine(
    op: HazardOp,
    form: AffineForm,
    err_ulps: f64,
    ctx: &mut SymbolCtx,
    log: &mut OpLog,
) -> AffineForm {
    let (lo, hi) = form.range();
    let e = err_ulps * ULP;
    let (wlo, whi) = (lo - e, hi + e);
    if wlo < RAIL_LO_V || whi > RAIL_HI_V {
        log.record(op, wlo.abs().max(whi.abs()));
        let clo = wlo.clamp(RAIL_LO_V, RAIL_HI_V);
        let chi = whi.clamp(clo, RAIL_HI_V);
        return AffineForm::from_range(clo, chi, ctx);
    }
    form
}

/// Instantiates the `n` independent samples of a feature window from the
/// port form, together with their exact affine sum. Every sample shares
/// the port's center and radius but carries its own noise symbol, so the
/// window mean built from the sum stays correlated with each sample.
fn window_affine(x: &AffineRange, n: usize, ctx: &mut SymbolCtx) -> (Vec<AffineForm>, AffineForm) {
    let samples: Vec<AffineForm> = (0..n).map(|_| x.form.independent_copy(ctx)).collect();
    let sum = samples
        .iter()
        .fold(AffineForm::constant(0.0), |acc, s| acc.add(s));
    (samples, sum)
}

/// Affine mean: the window sum divided by the exact `n`. The returned
/// form retains the per-sample symbols, so a later `x − mean` cancels.
fn mean_affine_parts(
    x: &AffineRange,
    n: usize,
    ctx: &mut SymbolCtx,
    log: &mut OpLog,
) -> (Vec<AffineForm>, AffineRange) {
    let (samples, sum) = window_affine(x, n, ctx);
    let sum = check_affine(HazardOp::Sum, sum, x.err_ulps * n as f64, ctx, log);
    let err = x.err_ulps + 1.0;
    let mean = check_affine(HazardOp::Div, sum.scale(1.0 / n as f64), err, ctx, log);
    (samples, AffineRange::new(mean, err))
}

fn mean_affine(x: &AffineRange, n: usize, ctx: &mut SymbolCtx, log: &mut OpLog) -> AffineRange {
    mean_affine_parts(x, n, ctx, log).1
}

/// Affine `central_moment_q16`. The deviation `d = x₀ − mean` is an exact
/// affine difference over shared sample symbols, so its radius is
/// `2r(n−1)/n` — the interval domain's `2r` shrinks by the window-closure
/// factor, which is what rescues short deep-domain windows. The final
/// accumulation is additionally tightened by the relational moment bounds
/// (Popoviciu: `m₂ ≤ r²`; `|m₃| ≤ max|d|·m₂`; `m₄ ≤ max d²·m₂`), which
/// hold for every partial sum as well (the even-power terms are
/// non-negative and the odd bound dominates the ℓ¹ mass).
fn central_moment_affine(
    x: &AffineRange,
    n: usize,
    p: u32,
    ctx: &mut SymbolCtx,
    log: &mut OpLog,
) -> AffineRange {
    let (samples, mu) = mean_affine_parts(x, n, ctx, log);
    let err_d = x.err_ulps + mu.err_ulps;
    let d = check_affine(HazardOp::Add, samples[0].sub(&mu.form), err_d, ctx, log);
    let d = AffineRange::new(d, err_d);

    let mut term = d.clone();
    for step in 2..=p {
        let form = if step == 2 {
            term.form.sqr(ctx)
        } else {
            term.form.mul(&d.form, ctx)
        };
        let err = mul_err(
            term.err_ulps,
            term.form.max_abs(),
            d.err_ulps,
            d.form.max_abs(),
        );
        let form = check_affine(HazardOp::Mul, form, err, ctx, log);
        term = AffineRange::new(form, err);
    }

    let per_sample = check_affine(
        HazardOp::Div,
        term.form.scale(1.0 / n as f64),
        term.err_ulps,
        ctx,
        log,
    );
    let acc = per_sample.accumulate(n as u32, ctx);
    // Relational tightening before the rail check: the bounds hold for the
    // real-valued moments, and the error envelope covers rounding.
    let r = x.form.radius();
    let d_max = d.form.max_abs();
    let acc = match p {
        2 => acc.clamp_to(0.0, r * r, ctx),
        3 => acc.clamp_to(-d_max * r * r, d_max * r * r, ctx),
        4 => acc.clamp_to(0.0, d_max * d_max * r * r, ctx),
        _ => acc,
    };
    let err = term.err_ulps + n as f64;
    let acc = check_affine(HazardOp::Sum, acc, err, ctx, log);
    AffineRange::new(acc, err)
}

/// Square root over the affine range, via the monotone fixed-point sqrt on
/// the concretized endpoints.
fn sqrt_affine(v: &AffineRange, ctx: &mut SymbolCtx) -> AffineRange {
    let vr = v.to_value_range();
    let root = vr.interval.sqrt();
    AffineRange::concrete(
        AffineForm::from_range(root.lo_f64(), root.hi_f64(), ctx),
        sqrt_err(vr),
    )
}

fn feature_affine(
    kind: FeatureKind,
    x: &AffineRange,
    n: usize,
    reuses_var: bool,
    ctx: &mut SymbolCtx,
    log: &mut OpLog,
) -> AffineRange {
    if reuses_var {
        return sqrt_affine(x, ctx);
    }
    let n = n.max(1);
    match kind {
        FeatureKind::Max | FeatureKind::Min => x.clone(),
        FeatureKind::Mean => mean_affine(x, n, ctx, log),
        FeatureKind::Var => central_moment_affine(x, n, 2, ctx, log),
        FeatureKind::Std => {
            let var = central_moment_affine(x, n, 2, ctx, log);
            sqrt_affine(&var, ctx)
        }
        FeatureKind::Czero => {
            // Mirror the interval transfer: crossings ∈ [0, n−1] over the
            // exact n, with the same two-flip error allowance.
            let hi = (n - 1) as f64 / n as f64;
            AffineRange::concrete(
                AffineForm::from_range(0.0, hi, ctx),
                2.0 * 65536.0 / n as f64,
            )
        }
        FeatureKind::Skew => {
            let var = central_moment_affine(x, n, 2, ctx, log);
            let m3 = central_moment_affine(x, n, 3, ctx, log);
            standardized_moment_affine(n, 3, &var, &m3, ctx)
        }
        FeatureKind::Kurt => {
            let var = central_moment_affine(x, n, 2, ctx, log);
            let m4 = central_moment_affine(x, n, 4, ctx, log);
            standardized_moment_affine(n, 4, &var, &m4, ctx)
        }
    }
}

/// Affine counterpart of [`standardized_moment_range`]: the same
/// full-format range and first-order error estimate, evaluated over the
/// (tighter) affine moment envelopes.
fn standardized_moment_affine(
    n: usize,
    p: u32,
    var: &AffineRange,
    mp: &AffineRange,
    ctx: &mut SymbolCtx,
) -> AffineRange {
    let vr = standardized_moment_range(n, p, &var.to_value_range(), &mp.to_value_range());
    AffineRange::concrete(
        AffineForm::from_range(vr.interval.lo_f64(), vr.interval.hi_f64(), ctx),
        vr.err_ulps,
    )
}

/// Affine `dwt_single_q16`: the filter taps read adjacent (independent)
/// samples, so each tap instantiates its own copy of the input form. For
/// the Haar bank this reproduces the interval ranges exactly; mixed-sign
/// longer filters benefit from the exact per-tap scaling.
fn dwt_affine(
    x: &AffineRange,
    taps: usize,
    ctx: &mut SymbolCtx,
    log: &mut OpLog,
) -> Vec<AffineRange> {
    let wavelet = wavelet_of(taps);
    let mut bank = |coeffs: &[f64], log: &mut OpLog| -> AffineRange {
        let mut acc = AffineForm::constant(0.0);
        let mut err = 0.0;
        for &c in coeffs {
            let cq = Q16::from_f64(c).to_f64();
            let tap = x.form.independent_copy(ctx);
            let prod = check_affine(HazardOp::Mul, tap.scale(cq), err, ctx, log);
            err += x.err_ulps * c.abs() + 0.5 * x.form.max_abs() + 0.5;
            acc = check_affine(HazardOp::Add, acc.add(&prod), err, ctx, log);
        }
        AffineRange::new(acc, err)
    };
    let approx = bank(wavelet.lowpass(), log);
    let detail = bank(&wavelet.highpass(), log);
    vec![approx, detail]
}

/// Affine `Svm::decision_q16`. The support vector and the feature vector
/// are independent draws from the scaler range, so no cancellation applies
/// — the affine result matches the interval one, which keeps the combined
/// envelope honest on cells where correlation genuinely does not help.
fn svm_affine(
    sv: usize,
    dims: usize,
    rbf: bool,
    opts: &AnalyzeOptions,
    ctx: &mut SymbolCtx,
    log: &mut OpLog,
) -> AffineRange {
    let x = AffineRange::new(
        AffineForm::from_range(
            Q16::from_f64(opts.svm_input.lo).to_f64(),
            Q16::from_f64(opts.svm_input.hi).to_f64(),
            ctx,
        ),
        0.5,
    );
    let (k, ek) = if rbf {
        let s = x.form.independent_copy(ctx);
        let ed = x.err_ulps * 2.0;
        let d = check_affine(HazardOp::Add, s.sub(&x.form), ed, ctx, log);
        let esq = mul_err(ed, d.max_abs(), ed, d.max_abs());
        let sq = check_affine(HazardOp::Mul, d.sqr(ctx), esq, ctx, log);
        let edist2 = esq * dims as f64;
        let dist2 = check_affine(
            HazardOp::Sum,
            sq.accumulate(dims as u32, ctx),
            edist2,
            ctx,
            log,
        );
        let gq = Q16::from_f64(opts.svm_gamma).to_f64();
        let earg = edist2 * opts.svm_gamma + 0.5 * dist2.max_abs() + 0.5;
        let arg = check_affine(HazardOp::Mul, dist2.scale(-gq), earg, ctx, log);
        // Exponential via the monotone fixed-point exp on the concretized
        // argument range, inflated by the argument's envelope.
        let (alo, ahi) = arg.range();
        let e = earg * ULP;
        let arg_iv = Interval::from_f64(
            (alo - e).clamp(RAIL_LO_V, RAIL_HI_V),
            (ahi + e).clamp((alo - e).clamp(RAIL_LO_V, RAIL_HI_V), RAIL_HI_V),
        );
        let k_iv = arg_iv.exp(log);
        let k = AffineForm::from_range(k_iv.lo_f64(), k_iv.hi_f64(), ctx);
        let ek = earg * arg_iv.hi_f64().exp() + 32.0;
        (k, ek)
    } else {
        let x2 = x.form.independent_copy(ctx);
        let ep = mul_err(x.err_ulps, x.form.max_abs(), x.err_ulps, x.form.max_abs());
        let p = check_affine(HazardOp::Mul, x.form.mul(&x2, ctx), ep, ctx, log);
        let edot = ep * dims as f64;
        let dot = check_affine(
            HazardOp::Sum,
            p.accumulate(dims as u32, ctx),
            edot,
            ctx,
            log,
        );
        (dot, edot)
    };
    let coef = AffineForm::from_range(-opts.svm_coef_bound, opts.svm_coef_bound, ctx);
    let econtrib = mul_err(0.5, opts.svm_coef_bound, ek, k.max_abs());
    let contrib = check_affine(HazardOp::Mul, coef.mul(&k, ctx), econtrib, ctx, log);
    let err = econtrib * sv as f64 + 0.5;
    let sum = check_affine(
        HazardOp::Sum,
        contrib.accumulate(sv as u32, ctx),
        err,
        ctx,
        log,
    );
    let bias_bound = opts.svm_coef_bound * sv as f64;
    let bias = AffineForm::from_range(-bias_bound, bias_bound, ctx);
    let acc = check_affine(HazardOp::Add, sum.add(&bias), err, ctx, log);
    AffineRange::new(acc, err)
}

/// Affine score fusion, mirroring [`fusion_transfer`].
fn fusion_affine(bases: usize, ctx: &mut SymbolCtx, log: &mut OpLog) -> AffineRange {
    let vote = AffineForm::from_range(-1.0, 1.0, ctx);
    let weight = AffineForm::from_range(0.0, 1.0, ctx);
    let err = bases as f64;
    let product = check_affine(HazardOp::Mul, weight.mul(&vote, ctx), 0.5, ctx, log);
    let acc = check_affine(
        HazardOp::Sum,
        product.accumulate(bases as u32, ctx),
        err,
        ctx,
        log,
    );
    AffineRange::new(acc, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpro_signal::stats::feature_q16;

    fn window_port() -> Vec<(Option<usize>, usize)> {
        vec![(None, 0)]
    }

    fn feature_spec(kind: FeatureKind, n: usize) -> CellSpec {
        CellSpec {
            module: ModuleKind::Feature {
                kind,
                input_len: n,
                reuses_var: false,
            },
            inputs: window_port(),
            label: format!("{kind}@time"),
        }
    }

    #[test]
    fn features_on_normalized_input_are_overflow_free() {
        let cells: Vec<CellSpec> = FeatureKind::ALL
            .iter()
            .map(|&k| feature_spec(k, 128))
            .collect();
        let report = analyze(&cells, SignalBounds::default(), &AnalyzeOptions::default());
        assert!(report.is_overflow_free(), "{report}");
    }

    #[test]
    fn kurt_overflows_on_wide_input() {
        let cells = vec![feature_spec(FeatureKind::Kurt, 128)];
        let report = analyze(
            &cells,
            SignalBounds::new(-16.0, 16.0),
            &AnalyzeOptions::default(),
        );
        match report.verdict(0) {
            Verdict::MayOverflow { op, bound } => {
                assert_eq!(op, HazardOp::Mul);
                assert!(bound > 32_768.0, "bound {bound}");
            }
            v => panic!("expected overflow, got {v}"),
        }
        // Both domains must agree the hazard is real on a long window.
        assert!(!report.cells[0].interval.verdict.is_overflow_free());
        assert!(!report.cells[0].affine.verdict.is_overflow_free());
    }

    #[test]
    fn short_window_moment_is_demoted_by_the_affine_domain() {
        // A 4-sample window at a range where the interval domain's
        // deviation bound (2r) drives d⁴ past the rails but the affine
        // bound (2r·3/4) stays under them.
        let cells = vec![feature_spec(FeatureKind::Kurt, 4)];
        let report = analyze(
            &cells,
            SignalBounds::new(-7.4, 7.4),
            &AnalyzeOptions::default(),
        );
        let cell = &report.cells[0];
        assert!(
            !cell.interval.verdict.is_overflow_free(),
            "interval should flag: {:?}",
            cell.interval.verdict
        );
        assert!(
            cell.affine.verdict.is_overflow_free(),
            "affine should prove: {:?}",
            cell.affine.verdict
        );
        assert!(cell.demoted_by_affine());
        assert!(report.is_overflow_free(), "{report}");
        assert_eq!(report.demoted().len(), 1);
    }

    #[test]
    fn combined_envelope_is_never_wider_than_interval() {
        let cells: Vec<CellSpec> = FeatureKind::ALL
            .iter()
            .map(|&k| feature_spec(k, 16))
            .collect();
        for scale in [0.5, 1.0, 2.0, 4.0] {
            let report = analyze(
                &cells,
                SignalBounds::new(-scale, scale),
                &AnalyzeOptions::default(),
            );
            for cell in &report.cells {
                for (c, i) in cell.ports.iter().zip(&cell.interval.ports) {
                    assert!(
                        c.interval.lo() >= i.interval.lo() && c.interval.hi() <= i.interval.hi(),
                        "{}: combined {} wider than interval {}",
                        cell.label,
                        c.interval,
                        i.interval
                    );
                }
            }
        }
    }

    #[test]
    fn affine_variance_envelope_honors_popoviciu() {
        // Var over [-1, 1]: the interval domain sees up to (2r)² = 4; the
        // relational bound caps the affine envelope at r² = 1.
        let cells = vec![feature_spec(FeatureKind::Var, 64)];
        let report = analyze(&cells, SignalBounds::default(), &AnalyzeOptions::default());
        let cell = &report.cells[0];
        assert!(cell.affine.ports[0].interval.hi_f64() <= 1.0 + 0.01);
        assert!(cell.interval.ports[0].interval.hi_f64() >= 3.9);
        assert!(cell.ports[0].interval.hi_f64() <= 1.0 + 0.01);
    }

    #[test]
    fn concrete_feature_values_stay_inside_abstract_ranges() {
        // A worst-case-ish window spanning the full input range.
        let window: Vec<Q16> = (0..128)
            .map(|i| Q16::from_f64(if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let cells: Vec<CellSpec> = FeatureKind::ALL
            .iter()
            .map(|&k| feature_spec(k, 128))
            .collect();
        let report = analyze(&cells, SignalBounds::default(), &AnalyzeOptions::default());
        for (i, &kind) in FeatureKind::ALL.iter().enumerate() {
            let v = feature_q16(kind, &window);
            let range = report.cells[i].output().interval;
            assert!(range.contains(v), "{kind}: {v} outside {range}");
        }
    }

    #[test]
    fn dwt_chain_amplifies_by_sqrt2_per_level() {
        let mut cells = Vec::new();
        let mut upstream = (None, 0);
        for level in 0..5usize {
            cells.push(CellSpec {
                module: ModuleKind::DwtLevel {
                    input_len: 128 >> level,
                    taps: 2,
                },
                inputs: vec![upstream],
                label: format!("DWT-L{}", level + 1),
            });
            upstream = (Some(level), 0);
        }
        let report = analyze(&cells, SignalBounds::default(), &AnalyzeOptions::default());
        assert!(report.is_overflow_free());
        let growth: Vec<f64> = report
            .cells
            .iter()
            .map(|c| c.output().interval.hi_f64())
            .collect();
        for (lvl, g) in growth.iter().enumerate() {
            let want = 2.0_f64.sqrt().powi(lvl as i32 + 1);
            assert!((g / want - 1.0).abs() < 0.01, "level {lvl}: {g} vs {want}");
        }
    }

    #[test]
    fn rbf_svm_is_proven_for_scaler_clamped_inputs() {
        let cells = vec![CellSpec {
            module: ModuleKind::Svm {
                support_vectors: 40,
                dims: 12,
                rbf: true,
            },
            inputs: vec![],
            label: "SVM-0".into(),
        }];
        let report = analyze(&cells, SignalBounds::default(), &AnalyzeOptions::default());
        assert_eq!(report.verdict(0), Verdict::Proven, "{report}");
        // The exp argument stays on the safe side of the cliff, so each
        // kernel output is at most 1 and the decision is bounded by
        // bias (sv·C) plus the sv-fold coefficient sum.
        assert!(report.cells[0].output().interval.hi_f64() <= 2.0 * 40.0 + 1.0);
    }

    #[test]
    fn std_reusing_var_takes_a_square_root() {
        let cells = vec![
            feature_spec(FeatureKind::Var, 128),
            CellSpec {
                module: ModuleKind::Feature {
                    kind: FeatureKind::Std,
                    input_len: 128,
                    reuses_var: true,
                },
                inputs: vec![(Some(0), 0)],
                label: "Std@time".into(),
            },
        ];
        let report = analyze(&cells, SignalBounds::default(), &AnalyzeOptions::default());
        let var_hi = report.cells[0].output().interval.hi_f64();
        let std_hi = report.cells[1].output().interval.hi_f64();
        assert!(
            (std_hi * std_hi - var_hi).abs() / var_hi < 0.05,
            "std {std_hi} vs var {var_hi}"
        );
        // Std is ill-conditioned near zero variance.
        assert!(matches!(report.verdict(1), Verdict::PrecisionLoss { .. }));
    }

    #[test]
    fn report_renders_a_table() {
        let cells = vec![feature_spec(FeatureKind::Mean, 64)];
        let report = analyze(&cells, SignalBounds::default(), &AnalyzeOptions::default());
        let text = report.to_string();
        assert!(text.contains("Mean@time"), "{text}");
        assert!(text.contains("proven overflow-free"), "{text}");
    }

    #[test]
    fn invalid_bounds_and_options_are_typed_errors() {
        assert!(matches!(
            SignalBounds::try_new(f64::NAN, 1.0),
            Err(AnalyzeError::NonFiniteBounds { .. })
        ));
        assert!(matches!(
            SignalBounds::try_new(2.0, 1.0),
            Err(AnalyzeError::InvertedBounds { .. })
        ));
        assert!(matches!(
            SignalBounds::try_new(f64::INFINITY, 1.0),
            Err(AnalyzeError::NonFiniteBounds { .. })
        ));
        let bad_opts = AnalyzeOptions {
            svm_gamma: f64::NAN,
            ..AnalyzeOptions::default()
        };
        assert!(matches!(
            bad_opts.validate(),
            Err(AnalyzeError::InvalidOption {
                name: "svm_gamma",
                ..
            })
        ));
        let cells = vec![feature_spec(FeatureKind::Mean, 4)];
        let degenerate = SignalBounds {
            lo: 1.0,
            hi: f64::NEG_INFINITY,
        };
        assert!(try_analyze(&cells, degenerate, &AnalyzeOptions::default()).is_err());
        assert!(AnalyzeError::InvalidOption {
            name: "precision_ulps",
            value: -1.0
        }
        .to_string()
        .contains("precision_ulps"));
    }

    #[test]
    #[should_panic(expected = "not-yet-analyzed")]
    fn forward_reference_panics() {
        let cells = vec![CellSpec {
            module: ModuleKind::Feature {
                kind: FeatureKind::Max,
                input_len: 4,
                reuses_var: false,
            },
            inputs: vec![(Some(3), 0)],
            label: "Max@time".into(),
        }];
        analyze(&cells, SignalBounds::default(), &AnalyzeOptions::default());
    }
}
