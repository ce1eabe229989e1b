//! Hostile-input tests for the findings-baseline reader
//! (`analyze::parse_findings`), the text the CI gate reads back from disk.
//!
//! Every truncation, every single-bit flip and every numeric field set to
//! an out-of-range or non-finite value must come back as `Ok` or `Err`,
//! never as a panic. The document is a rendered one: a finding of each
//! rule family from the checked-in baseline, plus a label that exercises
//! every escape the writer emits.

use proptest::prelude::*;
use std::sync::OnceLock;
use xpro::analyze::{diff_findings, parse_findings, render_findings, Finding};

/// Values no numeric field holds in a well-formed document.
const HOSTILE: [&str; 4] = ["18446744073709551615", "-1", "1e400", "NaN"];

/// A small rendered document: the first finding of each rule family in
/// `analysis-baseline.json`, and one whose label needs every escape.
fn document() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(render_document)
}

fn render_document() -> String {
    let baseline = parse_findings(include_str!("../analysis-baseline.json")).expect("baseline");
    let mut picked: Vec<Finding> = Vec::new();
    for f in &baseline {
        let family = f.rule.split('.').next().unwrap_or("");
        if !picked.iter().any(|p| p.rule.starts_with(family)) {
            picked.push(f.clone());
        }
    }
    assert!(picked.len() >= 4, "baseline covers too few rule families");
    let mut escaped = picked[0].clone();
    escaped.label = "q\"uo\\te\nctl\u{1}é".into();
    picked.push(escaped);
    render_findings(&picked)
}

/// Byte ranges of every numeric field value (`"key": <number>`).
fn numeric_fields(doc: &str) -> Vec<std::ops::Range<usize>> {
    let b = doc.as_bytes();
    let mut spans = Vec::new();
    for (i, w) in b.windows(3).enumerate() {
        let start = i + 3;
        if w == b"\": " && start < b.len() && b"-0123456789".contains(&b[start]) {
            let len = b[start..]
                .iter()
                .position(|c| b",}\n ".contains(c))
                .unwrap_or(b.len() - start);
            spans.push(start..start + len);
        }
    }
    spans
}

/// Parses `text` and, when it parses, diffs it against itself and the
/// original: reading and gating must both return without panicking.
fn read(text: &str, original: &[Finding]) {
    if let Ok(findings) = parse_findings(text) {
        diff_findings(original, &findings);
        diff_findings(&findings, original);
    }
}

#[test]
fn rendered_document_round_trips() {
    let doc = document();
    let parsed = parse_findings(doc).expect("parses");
    assert_eq!(render_findings(&parsed), doc);
    assert!(parsed.iter().any(|f| f.label == "q\"uo\\te\nctl\u{1}é"));
}

#[test]
fn every_truncation_returns() {
    let doc = document();
    let original = parse_findings(doc).expect("parses");
    for n in 0..=doc.len() {
        read(&String::from_utf8_lossy(&doc.as_bytes()[..n]), &original);
    }
}

#[test]
fn hostile_numbers_in_every_numeric_field_return() {
    let doc = document();
    let original = parse_findings(doc).expect("parses");
    let spans = numeric_fields(doc);
    // version + (cell, bound, interval_width, affine_width) per finding
    assert_eq!(spans.len(), 1 + 4 * original.len());
    for span in spans {
        for value in HOSTILE {
            let mut text = doc.to_string();
            text.replace_range(span.clone(), value);
            read(&text, &original);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A flipped bit may break UTF-8 (read lossily, as a caller that
    /// tolerates it would), a key, a quote or a digit.
    #[test]
    fn any_single_bit_flip_returns(pos in 0usize..1 << 20, bit in 0u32..8) {
        let doc = document();
        let original = parse_findings(doc).expect("parses");
        let mut bytes = doc.as_bytes().to_vec();
        let byte = pos % bytes.len();
        bytes[byte] ^= 1 << bit;
        read(&String::from_utf8_lossy(&bytes), &original);
    }
}
