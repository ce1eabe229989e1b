//! Machine-readable analysis findings and baseline regression gating.
//!
//! The `analyze` CLI can serialize an [`AnalysisReport`]
//! into a stable, sorted JSON findings document: one finding per cell with a
//! rule id, severity, worst bound, and both domains' envelope widths. The
//! format is deliberately deterministic — findings sorted by `(config,
//! cell)`, floats printed with fixed six-digit precision, one finding per
//! line — so a checked-in baseline diffs byte-for-byte and CI can gate on
//! regressions.
//!
//! Since format version 2 the same pipeline also carries the timing/energy
//! calculus verdicts ([`crate::timing`], [`crate::energy`]): those findings
//! use synthetic cell indices at [`TIMING_CELL_BASE`] and above (sorting
//! after every real cell of a config) and `timing.*` / `energy.*` rule ids,
//! with [`Severity::Violation`] marking an unprovable or exceeded budget.
//!
//! A *regression* is a severity increase for a `(config, label)` pair
//! relative to the baseline, or a newly appearing finding that is not
//! proven. Envelope-width drift alone is not a regression (widths move with
//! legitimate transfer-function refinements); verdicts are the contract.
//!
//! The document is written through the workspace's shared JSON writer
//! and read back by its strict reader ([`crate::json`]).

use crate::analysis::{AnalysisReport, Verdict};
use crate::json::{JsonError, JsonReader, JsonWriter};

/// Findings-format version stamped into every document.
///
/// Version 2 added the timing/energy findings family
/// ([`Severity::Violation`], `timing.*` and `energy.*` rules). Version 3
/// added the approximation-budget family (`approx.*` rules at synthetic
/// cell indices ≥ [`APPROX_CELL_BASE`]). The reader rejects any other
/// version with an explicit "regenerate the baseline" error, so a stale
/// checked-in baseline fails the gate with a migration message instead of
/// a spurious severity regression.
pub const FORMAT_VERSION: u32 = 3;

/// Severity of one finding, ordered from best to worst.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The property is proven: overflow-free with bounded rounding error
    /// (range findings) or statically bounded within budget (timing and
    /// energy findings).
    #[default]
    Proven,
    /// The cell is range-safe but its rounding envelope exceeds the
    /// configured threshold.
    PrecisionLoss,
    /// Some reachable input can drive an intermediate into saturation.
    MayOverflow,
    /// A timing or energy budget is violated or unprovable: a deadline
    /// without a finite WCRT under it, a queue bound above the inbox
    /// capacity, a resource utilization over unity, or an energy budget
    /// exceeded in the worst case.
    Violation,
}

impl Severity {
    /// Stable string form used in the JSON document.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Proven => "proven",
            Severity::PrecisionLoss => "precision",
            Severity::MayOverflow => "overflow",
            Severity::Violation => "violation",
        }
    }

    /// Parses the stable string form.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "proven" => Some(Severity::Proven),
            "precision" => Some(Severity::PrecisionLoss),
            "overflow" => Some(Severity::MayOverflow),
            "violation" => Some(Severity::Violation),
            _ => None,
        }
    }
}

/// Base synthetic cell index for timing/energy findings: far above any
/// real cell index so the canonical `(config, cell)` sort keeps a config's
/// range findings first and its timing verdicts last.
pub const TIMING_CELL_BASE: usize = 10_000;

/// Base synthetic cell index for approximation-budget findings
/// (`approx.*` rules): above [`TIMING_CELL_BASE`] so a config's findings
/// sort as range → timing/energy → approximation.
pub const APPROX_CELL_BASE: usize = 20_000;

/// One machine-readable finding: the combined verdict for one cell of one
/// analyzed configuration, or (at synthetic cell indices ≥
/// [`TIMING_CELL_BASE`]) one timing/energy verdict of that configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Finding {
    /// Configuration the analysis ran on (dataset symbol or `"default"`).
    pub config: String,
    /// Cell index within the graph, or a synthetic index ≥
    /// [`TIMING_CELL_BASE`] for timing/energy findings.
    pub cell: usize,
    /// The cell's label (e.g. `"Kurt@a5"`), or the timing verdict's label
    /// (e.g. `"wcrt@wc"`).
    pub label: String,
    /// Rule id: `range.proven`, `precision.ulps`, `overflow.<op>`,
    /// `timing.<property>`, or `energy.<property>`.
    pub rule: String,
    /// Combined-verdict severity.
    pub severity: Severity,
    /// Worst pre-saturation magnitude (overflow), error ulps (precision),
    /// or 0 (proven).
    pub bound: f64,
    /// Width of the interval domain's port-0 envelope, in value units.
    pub interval_width: f64,
    /// Width of the affine domain's port-0 envelope, in value units.
    pub affine_width: f64,
}

/// Extracts sorted findings from an analysis report under a config name.
pub fn findings_for_report(config: &str, report: &AnalysisReport) -> Vec<Finding> {
    let mut out: Vec<Finding> = report
        .cells
        .iter()
        .enumerate()
        .map(|(cell, c)| {
            let (rule, severity, bound) = match c.verdict {
                Verdict::Proven => ("range.proven".to_string(), Severity::Proven, 0.0),
                Verdict::PrecisionLoss { ulps } => (
                    "precision.ulps".to_string(),
                    Severity::PrecisionLoss,
                    f64::from(ulps),
                ),
                Verdict::MayOverflow { op, bound } => {
                    (format!("overflow.{op}"), Severity::MayOverflow, bound)
                }
            };
            Finding {
                config: config.to_string(),
                cell,
                label: c.label.clone(),
                rule,
                severity,
                bound,
                interval_width: c.interval.output_width(),
                affine_width: c.affine.output_width(),
            }
        })
        .collect();
    sort_findings(&mut out);
    out
}

/// Sorts findings into the canonical `(config, cell)` order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| a.config.cmp(&b.config).then(a.cell.cmp(&b.cell)));
}

/// `x`, or for a value JSON cannot hold the largest finite one of its
/// sign (`f64::MAX` for NaN).
fn finite(x: f64) -> f64 {
    match x {
        x if x.is_finite() => x,
        x if x < 0.0 => f64::MIN,
        _ => f64::MAX,
    }
}

/// Renders findings as the canonical byte-stable JSON document: sorted,
/// fixed float formatting, one finding per line. A non-finite float is
/// written as the largest finite value of its sign, so the document
/// always reads back through [`parse_findings`].
pub fn render_findings(findings: &[Finding]) -> String {
    let mut sorted = findings.to_vec();
    sort_findings(&mut sorted);
    let mut w = JsonWriter::new(64 + 256 * sorted.len(), 0);
    w.uint("{\n  \"version\": ", u64::from(FORMAT_VERSION));
    w.raw(",\n  \"findings\": [\n");
    for (i, f) in sorted.iter().enumerate() {
        w.string("    {\"config\": ", &f.config);
        w.uint(", \"cell\": ", f.cell as u64);
        w.string(", \"label\": ", &f.label);
        w.string(", \"rule\": ", &f.rule);
        w.string(", \"severity\": ", f.severity.as_str());
        w.raw(&format!(
            ", \"bound\": {:.6}, \"interval_width\": {:.6}, \"affine_width\": {:.6}}}",
            finite(f.bound),
            finite(f.interval_width),
            finite(f.affine_width)
        ));
        w.raw(if i + 1 == sorted.len() { "\n" } else { ",\n" });
    }
    w.raw("  ]\n}\n");
    w.finish()
}

/// Parses a findings document: `{"version": N, "findings": [...]}`, each
/// finding a flat object with exactly the keys [`render_findings`]
/// writes, in any order.
///
/// The read is strict: the version comes first and is checked before
/// any finding is decoded; an unknown, duplicate or missing key, a value
/// of the wrong type, a severity outside [`Severity::parse`] and any
/// byte after the document are errors, so an empty or cut-short baseline
/// fails to read instead of gating against too few findings.
///
/// # Errors
///
/// Returns the first error with its byte offset, or a migration message
/// when the document's `"version"` does not match [`FORMAT_VERSION`]
/// (regenerate the baseline with `analyze --table1 --write-baseline`
/// after a format bump).
pub fn parse_findings(text: &str) -> Result<Vec<Finding>, String> {
    read_findings(text).map_err(|e| e.to_string())
}

fn read_findings(text: &str) -> Result<Vec<Finding>, JsonError> {
    let mut r = JsonReader::new(text);
    let mut findings = Vec::new();
    let mut version_read = false;
    r.object(&["version", "findings"], |r, key| {
        match key {
            "version" => {
                let v: u32 = r.parse(key)?;
                if v != FORMAT_VERSION {
                    return Err(r.error(format!(
                        "findings format version {v} does not match the current version \
                         {FORMAT_VERSION}; regenerate the baseline with \
                         `analyze --table1 --write-baseline <path>`"
                    )));
                }
                version_read = true;
            }
            "findings" if !version_read => return Err(r.error("expected \"version\" first")),
            "findings" => r.array(|r| {
                findings.push(read_finding(r)?);
                Ok(())
            })?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    r.end()?;
    Ok(findings)
}

fn read_finding(r: &mut JsonReader<'_>) -> Result<Finding, JsonError> {
    let mut f = Finding::default();
    let keys = [
        "config",
        "cell",
        "label",
        "rule",
        "severity",
        "bound",
        "interval_width",
        "affine_width",
    ];
    r.object(&keys, |r, key| {
        match key {
            "config" => f.config = r.string()?,
            "cell" => f.cell = r.parse(key)?,
            "label" => f.label = r.string()?,
            "rule" => f.rule = r.string()?,
            "severity" => {
                let s = r.string()?;
                f.severity =
                    Severity::parse(&s).ok_or_else(|| r.error(format!("bad severity {s:?}")))?;
            }
            "bound" => f.bound = r.parse(key)?,
            "interval_width" => f.interval_width = r.parse(key)?,
            "affine_width" => f.affine_width = r.parse(key)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(f)
}

/// One gate violation: a finding whose severity regressed past the
/// baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Configuration the regression occurred in.
    pub config: String,
    /// Label of the regressed cell.
    pub label: String,
    /// Baseline severity ([`None`] for a newly appearing finding).
    pub baseline: Option<Severity>,
    /// Current severity.
    pub current: Severity,
    /// Current rule id, naming the op or threshold that fired.
    pub rule: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.baseline {
            Some(b) => write!(
                f,
                "{}/{}: {} -> {} ({})",
                self.config,
                self.label,
                b.as_str(),
                self.current.as_str(),
                self.rule
            ),
            None => write!(
                f,
                "{}/{}: new {} finding ({})",
                self.config,
                self.label,
                self.current.as_str(),
                self.rule
            ),
        }
    }
}

/// Diffs current findings against a baseline, returning every severity
/// regression. Improvements (severity decreases) and envelope-width drift
/// are not regressions; a finding present in the baseline but absent now
/// is ignored (cells can legitimately disappear when a graph shrinks).
pub fn diff_findings(baseline: &[Finding], current: &[Finding]) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for f in current {
        let base = baseline
            .iter()
            .find(|b| b.config == f.config && b.label == f.label);
        let regressed = match base {
            Some(b) => f.severity > b.severity,
            None => f.severity > Severity::Proven,
        };
        if regressed {
            regressions.push(Regression {
                config: f.config.clone(),
                label: f.label.clone(),
                baseline: base.map(|b| b.severity),
                current: f.severity,
                rule: f.rule.clone(),
            });
        }
    }
    regressions.sort_by(|a, b| a.config.cmp(&b.config).then(a.label.cmp(&b.label)));
    regressions
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;

    fn finding(config: &str, cell: usize, label: &str, severity: Severity) -> Finding {
        Finding {
            config: config.into(),
            cell,
            label: label.into(),
            rule: match severity {
                Severity::Proven => "range.proven".into(),
                Severity::PrecisionLoss => "precision.ulps".into(),
                Severity::MayOverflow => "overflow.mul".into(),
                Severity::Violation => "timing.wcrt".into(),
            },
            severity,
            bound: 1.5,
            interval_width: 4.0,
            affine_width: 1.0,
        }
    }

    #[test]
    fn render_is_sorted_and_byte_stable() {
        let a = vec![
            finding("M2", 1, "Kurt@a5", Severity::MayOverflow),
            finding("C1", 0, "Mean@time", Severity::Proven),
        ];
        let b = vec![
            finding("C1", 0, "Mean@time", Severity::Proven),
            finding("M2", 1, "Kurt@a5", Severity::MayOverflow),
        ];
        let ra = render_findings(&a);
        assert_eq!(ra, render_findings(&b));
        let c1 = ra.find("C1").unwrap();
        let m2 = ra.find("M2").unwrap();
        assert!(c1 < m2, "sorted by config:\n{ra}");
        assert!(ra.contains("\"bound\": 1.500000"), "{ra}");
    }

    #[test]
    fn parse_roundtrips_render() {
        let original = vec![
            finding("default", 0, "Mean@time", Severity::Proven),
            finding("default", 7, "Kurt@d5", Severity::PrecisionLoss),
            finding("M2", 3, "Skew@a5", Severity::MayOverflow),
        ];
        let parsed = parse_findings(&render_findings(&original)).expect("parse");
        let mut sorted = original;
        sort_findings(&mut sorted);
        assert_eq!(parsed, sorted);
    }

    #[test]
    fn labels_with_quotes_survive_the_roundtrip() {
        let mut a = finding("c\"fg\\", 0, "we\"ird", Severity::Proven);
        a.rule = "range.\"proven\"".into();
        let mut b = finding("c\"fg\\", 1, "back\\slash\\", Severity::MayOverflow);
        b.label.push_str("\n\t\u{1}\"\\\"end");
        let original = vec![a, b];
        let parsed = parse_findings(&render_findings(&original)).expect("parse");
        assert_eq!(parsed, original);
    }

    #[test]
    fn severity_increase_is_a_regression() {
        let baseline = vec![finding("C1", 0, "Var@d3", Severity::Proven)];
        let current = vec![finding("C1", 0, "Var@d3", Severity::MayOverflow)];
        let regs = diff_findings(&baseline, &current);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].baseline, Some(Severity::Proven));
        assert_eq!(regs[0].current, Severity::MayOverflow);
        assert!(regs[0].to_string().contains("proven -> overflow"));
    }

    #[test]
    fn improvements_and_width_drift_are_not_regressions() {
        let mut base = finding("C1", 0, "Var@d3", Severity::PrecisionLoss);
        let mut cur = finding("C1", 0, "Var@d3", Severity::Proven);
        cur.interval_width = base.interval_width * 10.0;
        assert!(diff_findings(&[base.clone()], &[cur.clone()]).is_empty());
        // Same severity, different bound: still fine.
        base.severity = Severity::Proven;
        base.rule = "range.proven".into();
        cur.bound = 99.0;
        assert!(diff_findings(&[base], &[cur]).is_empty());
    }

    #[test]
    fn new_unproven_finding_is_a_regression() {
        let baseline = vec![finding("C1", 0, "Var@d3", Severity::Proven)];
        let current = vec![
            finding("C1", 0, "Var@d3", Severity::Proven),
            finding("C1", 1, "Kurt@d5", Severity::MayOverflow),
        ];
        let regs = diff_findings(&baseline, &current);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].baseline, None);
        assert!(regs[0].to_string().contains("new overflow finding"));
    }

    #[test]
    fn violation_is_the_worst_severity_and_roundtrips() {
        assert!(Severity::Violation > Severity::MayOverflow);
        assert_eq!(Severity::parse("violation"), Some(Severity::Violation));
        let f = finding("C1", TIMING_CELL_BASE, "wcrt@wc", Severity::Violation);
        let parsed = parse_findings(&render_findings(std::slice::from_ref(&f))).expect("parse");
        assert_eq!(parsed, vec![f]);
    }

    #[test]
    fn timing_findings_sort_after_real_cells() {
        let a = finding("C1", TIMING_CELL_BASE, "wcrt@wc", Severity::Proven);
        let b = finding("C1", 63, "Fusion", Severity::Proven);
        let doc = render_findings(&[a, b]);
        let fusion = doc.find("Fusion").expect("fusion present");
        let wcrt = doc.find("wcrt@wc").expect("wcrt present");
        assert!(fusion < wcrt, "range findings come first:\n{doc}");
    }

    #[test]
    fn new_violation_finding_is_a_regression() {
        let baseline = vec![finding("C1", 0, "Var@d3", Severity::Proven)];
        let current = vec![
            finding("C1", 0, "Var@d3", Severity::Proven),
            finding("C1", TIMING_CELL_BASE, "wcrt@wc", Severity::Violation),
        ];
        let regs = diff_findings(&baseline, &current);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].current, Severity::Violation);
    }

    #[test]
    fn parse_rejects_garbage_fields() {
        let doc = "{\"config\": \"C1\", \"cell\": x, \"label\": \"a\"}";
        assert!(parse_findings(doc).is_err());
    }

    /// Malformed documents: nothing, no version, findings ahead of the
    /// version, a finding with a key too many, twice or too few, a bad
    /// severity, or bytes after the closing brace.
    #[test]
    fn malformed_documents_are_errors_with_offsets() {
        let doc = render_findings(&[finding("C1", 0, "Var@d3", Severity::Proven)]);
        let one = &doc[doc.find("{\"config\"").unwrap()..doc.rfind('}').unwrap() - 4];
        for (bad, message) in [
            (String::new(), "expected '{' at byte 0"),
            ("hello".into(), "expected '{' at byte 0"),
            (
                format!("{{\"findings\": [{one}]}}"),
                "expected \"version\" first",
            ),
            (
                format!("{{\"findings\": [], \"version\": {FORMAT_VERSION}}}"),
                "expected \"version\" first",
            ),
            (
                doc.replace("\"rule\"", "\"rules\""),
                "unknown key \"rules\"",
            ),
            (
                doc.replace("\"rule\"", "\"label\""),
                "duplicate key \"label\"",
            ),
            (
                doc.replace("\"rule\": \"range.proven\", ", ""),
                "missing key \"rule\"",
            ),
            (
                doc.replace("\"proven\"", "\"fine\""),
                "bad severity \"fine\"",
            ),
            (format!("{doc}{{}}"), "expected the end of input"),
        ] {
            let err = parse_findings(&bad).expect_err(&bad);
            assert!(
                err.contains(message) && err.contains(" at byte "),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn stale_format_version_asks_for_regeneration() {
        let current = render_findings(&[finding("C1", 0, "Var@d3", Severity::Proven)]);
        let stale = current.replace(&format!("\"version\": {FORMAT_VERSION}"), "\"version\": 2");
        let err = parse_findings(&stale).expect_err("stale version must not parse");
        assert!(err.contains("regenerate the baseline"), "{err}");
        assert!(err.contains("version 2"), "{err}");
    }

    #[test]
    fn current_format_version_parses() {
        let doc = render_findings(&[finding("C1", 0, "Var@d3", Severity::Proven)]);
        assert!(doc.contains(&format!("\"version\": {FORMAT_VERSION}")));
        assert_eq!(parse_findings(&doc).expect("parse").len(), 1);
    }

    /// JSON has no infinity or NaN: such a finding is written as the
    /// largest finite value of its sign, which reads back and renders to
    /// the same bytes.
    #[test]
    fn non_finite_floats_render_to_a_readable_document() {
        let mut f = finding("T", TIMING_CELL_BASE, "wcrt@wc", Severity::Violation);
        (f.bound, f.interval_width, f.affine_width) = (f64::INFINITY, f64::NEG_INFINITY, f64::NAN);
        let doc = render_findings(&[f]);
        assert!(!doc.contains("inf") && !doc.contains("NaN"), "{doc}");
        let back = parse_findings(&doc).expect("a rendered document reads back");
        let g = &back[0];
        assert_eq!(
            (g.bound, g.interval_width, g.affine_width),
            (f64::MAX, f64::MIN, f64::MAX)
        );
        assert_eq!(render_findings(&back), doc);
    }

    #[test]
    fn approx_findings_sort_after_timing() {
        let mut a = finding(
            "C1",
            APPROX_CELL_BASE,
            "approx@svm-trunc4",
            Severity::Proven,
        );
        a.rule = "approx.budget_proven".into();
        let b = finding("C1", TIMING_CELL_BASE, "wcrt@wc", Severity::Proven);
        let doc = render_findings(&[a, b]);
        let wcrt = doc.find("wcrt@wc").expect("wcrt present");
        let approx = doc.find("approx@svm-trunc4").expect("approx present");
        assert!(wcrt < approx, "timing findings come first:\n{doc}");
    }
}
