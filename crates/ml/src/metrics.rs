//! Classification quality metrics.

/// Fraction of predictions equal to the reference labels.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    assert!(!predicted.is_empty(), "no predictions");
    let correct = predicted.iter().zip(actual).filter(|(p, a)| p == a).count();
    correct as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1.0, -1.0, 1.0], &[1.0, 1.0, 1.0]), 2.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatched_lengths() {
        accuracy(&[1.0], &[1.0, -1.0]);
    }
}
