//! Machine-readable analysis findings and baseline regression gating.
//!
//! The `analyze` CLI can serialize an [`AnalysisReport`](crate::AnalysisReport)
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
//! No serde: the document is hand-rolled and re-parsed by a minimal,
//! format-specific reader, keeping the analyzer dependency-free.

use crate::analysis::{AnalysisReport, Verdict};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The property is proven: overflow-free with bounded rounding error
    /// (range findings) or statically bounded within budget (timing and
    /// energy findings).
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
#[derive(Clone, Debug, PartialEq)]
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

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as the canonical byte-stable JSON document: sorted,
/// fixed float formatting, one finding per line.
pub fn render_findings(findings: &[Finding]) -> String {
    let mut sorted = findings.to_vec();
    sort_findings(&mut sorted);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {FORMAT_VERSION},\n"));
    out.push_str("  \"findings\": [\n");
    for (i, f) in sorted.iter().enumerate() {
        let sep = if i + 1 == sorted.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"cell\": {}, \"label\": \"{}\", \"rule\": \"{}\", \
             \"severity\": \"{}\", \"bound\": {:.6}, \"interval_width\": {:.6}, \
             \"affine_width\": {:.6}}}{sep}\n",
            escape(&f.config),
            f.cell,
            escape(&f.label),
            escape(&f.rule),
            f.severity.as_str(),
            f.bound,
            f.interval_width,
            f.affine_width,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the value of `key` on one rendered line: a string, undoing every
/// escape [`escape`] writes, or the trimmed raw text of a number. `None`
/// when the key is absent, the string is unterminated or an escape is
/// malformed.
fn field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let Some(body) = rest.strip_prefix('"') else {
        return rest.split([',', '}']).next().map(|v| v.trim().to_string());
    };
    let mut out = String::new();
    let mut chars = body.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .ok()
                        .filter(|_| hex.len() == 4)?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Parses a findings document produced by [`render_findings`].
///
/// The reader is format-specific: it understands exactly the canonical
/// one-finding-per-line layout (which is what the gate compares against)
/// and rejects anything else with a line-numbered message.
///
/// # Errors
///
/// Returns a description of the first malformed line, or a migration
/// message when the document's `"version"` header does not match
/// [`FORMAT_VERSION`] (regenerate the baseline with
/// `analyze --table1 --write-baseline` after a format bump).
pub fn parse_findings(text: &str) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut version: Option<u32> = None;
    for (num, line) in text.lines().enumerate() {
        let line = line.trim();
        if version.is_none() {
            if let Some(v) = field(line, "version") {
                let v: u32 = v
                    .parse()
                    .map_err(|e| format!("line {}: version: {e}", num + 1))?;
                if v != FORMAT_VERSION {
                    return Err(format!(
                        "findings format version {v} does not match the current version \
                         {FORMAT_VERSION}; regenerate the baseline with \
                         `analyze --table1 --write-baseline <path>`"
                    ));
                }
                version = Some(v);
                continue;
            }
        }
        if !line.starts_with("{\"config\"") && !line.starts_with("{ \"config\"") {
            continue;
        }
        let get = |key: &str| {
            field(line, key)
                .ok_or_else(|| format!("line {}: missing or malformed field {key}", num + 1))
        };
        let severity = Severity::parse(&get("severity")?)
            .ok_or_else(|| format!("line {}: bad severity", num + 1))?;
        let parse_f64 = |key: &str| -> Result<f64, String> {
            get(key)?
                .parse()
                .map_err(|e| format!("line {}: {key}: {e}", num + 1))
        };
        findings.push(Finding {
            config: get("config")?,
            cell: get("cell")?
                .parse()
                .map_err(|e| format!("line {}: cell: {e}", num + 1))?,
            label: get("label")?,
            rule: get("rule")?,
            severity,
            bound: parse_f64("bound")?,
            interval_width: parse_f64("interval_width")?,
            affine_width: parse_f64("affine_width")?,
        });
    }
    Ok(findings)
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
    fn malformed_strings_are_rejected() {
        assert_eq!(
            field(r#"{"label": "a\u0041\"b"}"#, "label").as_deref(),
            Some("aA\"b")
        );
        for bad in [
            r#""label": "\q""#,
            r#""label": "\u00""#,
            r#""label": "\ud800""#,
            r#""label": "open"#,
        ] {
            assert_eq!(field(bad, "label"), None, "{bad}");
        }
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
