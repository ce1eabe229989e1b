//! Segment windowing and normalization utilities.
//!
//! The paper normalizes all statistical features to the range `[0, 1]`
//! (§4.4) before classification, and pads segments to a power-of-two length
//! so the 5-level DWT produces the 64/32/16/8/4 sub-band lengths.

/// Normalizes values to `[0, 1]` by min-max scaling.
///
/// A constant slice maps to all `0.5` (the midpoint), so downstream cells
/// never see the degenerate 0/0 case.
///
/// # Examples
///
/// ```
/// use xpro_signal::window::normalize_unit;
///
/// let n = normalize_unit(&[0.0, 5.0, 10.0]);
/// assert_eq!(n, vec![0.0, 0.5, 1.0]);
/// ```
pub fn normalize_unit(values: &[f64]) -> Vec<f64> {
    let (min, max) = min_max(values);
    let span = max - min;
    if span <= f64::EPSILON {
        return vec![0.5; values.len()];
    }
    values.iter().map(|&v| (v - min) / span).collect()
}

/// Returns `(min, max)` of a slice; `(0, 0)` when empty.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Pads a segment to `target_len` by repeating the last sample, or truncates
/// if it is longer.
///
/// The Table-1 cases include segment lengths that are not powers of two (82,
/// 136, 132); XPro pads them to 128 before the 5-level DWT so every case
/// shares one DWT cell structure.
///
/// # Examples
///
/// ```
/// use xpro_signal::window::fit_length;
///
/// assert_eq!(fit_length(&[1.0, 2.0], 4), vec![1.0, 2.0, 2.0, 2.0]);
/// assert_eq!(fit_length(&[1.0, 2.0, 3.0], 2), vec![1.0, 2.0]);
/// ```
pub fn fit_length(segment: &[f64], target_len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(target_len);
    if segment.is_empty() {
        out.resize(target_len, 0.0);
        return out;
    }
    out.extend(segment.iter().take(target_len));
    let last = *segment.last().expect("non-empty");
    out.resize(target_len, last);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_unit_spans_zero_one() {
        let n = normalize_unit(&[-3.0, 1.0, 5.0]);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn normalize_unit_of_constant_is_midpoint() {
        assert_eq!(normalize_unit(&[7.0, 7.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn normalize_unit_of_empty_is_empty() {
        assert!(normalize_unit(&[]).is_empty());
    }

    #[test]
    fn fit_length_pads_with_last_sample() {
        assert_eq!(
            fit_length(&[1.0, 2.0, 3.0], 5),
            vec![1.0, 2.0, 3.0, 3.0, 3.0]
        );
    }

    #[test]
    fn fit_length_truncates() {
        assert_eq!(fit_length(&[1.0, 2.0, 3.0], 2), vec![1.0, 2.0]);
    }

    #[test]
    fn fit_length_of_empty_zero_fills() {
        assert_eq!(fit_length(&[], 3), vec![0.0, 0.0, 0.0]);
    }
}
