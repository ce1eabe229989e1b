//! Least-squares weighted score fusion.
//!
//! "The random subspace takes weighted voting scheme which is trained by the
//! least square method" (paper §4.4). Each base classifier casts a ±1 vote;
//! the fusion stage combines votes with weights `w` chosen to minimize
//! `‖V·w − y‖²` over the validation samples, where `V` is the vote matrix and
//! `y` the ±1 labels. The fused score is the weighted vote sum; its sign is
//! the ensemble prediction.
//!
//! In the wearable system the Score Fusion module is itself a functional cell
//! (Fig. 2) whose operation count is one multiply-accumulate per base
//! classifier.

use crate::linalg::{least_squares, Matrix};

/// Fitted fusion weights for an ensemble of base classifiers.
#[derive(Clone, Debug, PartialEq)]
pub struct FusionWeights {
    weights: Vec<f64>,
}

impl FusionWeights {
    /// Fits weights by ridge-regularized least squares on a vote matrix.
    ///
    /// `votes[i]` holds the ±1 votes of every base classifier for validation
    /// sample `i`; `labels[i]` is that sample's true ±1 label.
    ///
    /// # Panics
    ///
    /// Panics if `votes` is empty or ragged, or the label count mismatches.
    pub fn fit(votes: &[Vec<f64>], labels: &[f64]) -> Self {
        assert!(!votes.is_empty(), "cannot fit fusion on no votes");
        assert_eq!(votes.len(), labels.len(), "label count mismatch");
        let n_bases = votes[0].len();
        assert!(n_bases > 0, "vote matrix has zero columns");
        let mut data = Vec::with_capacity(votes.len() * n_bases);
        for row in votes {
            assert_eq!(row.len(), n_bases, "ragged vote matrix");
            data.extend_from_slice(row);
        }
        let a = Matrix::from_rows(votes.len(), n_bases, data);
        let weights = least_squares(&a, labels, 1e-6);
        FusionWeights { weights }
    }

    /// Fused score: the weighted vote sum. Positive means class +1.
    ///
    /// # Panics
    ///
    /// Panics if the vote count differs from the number of weights.
    pub fn score(&self, votes: &[f64]) -> f64 {
        assert_eq!(votes.len(), self.weights.len(), "vote count mismatch");
        votes.iter().zip(&self.weights).map(|(&v, &w)| v * w).sum()
    }

    /// Fused prediction: the sign of [`FusionWeights::score`] (ties → +1).
    pub fn predict(&self, votes: &[f64]) -> f64 {
        if self.score(votes) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// The fitted weight vector, one entry per base classifier.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of base classifiers the weights were fitted for.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the weight vector is empty (never true for fitted weights).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_base_gets_dominant_weight() {
        // Base 0 always right, base 1 always wrong, base 2 random-ish.
        let votes = vec![
            vec![1.0, -1.0, 1.0],
            vec![-1.0, 1.0, 1.0],
            vec![1.0, -1.0, -1.0],
            vec![-1.0, 1.0, -1.0],
        ];
        let labels = vec![1.0, -1.0, 1.0, -1.0];
        let w = FusionWeights::fit(&votes, &labels);
        assert!(w.weights()[0] > 0.4, "weights {:?}", w.weights());
        assert!(w.weights()[0] > w.weights()[2].abs());
        // The always-wrong base should get a negative (corrective) weight.
        assert!(w.weights()[1] < 0.0, "weights {:?}", w.weights());
        // Fused predictions are perfect.
        for (v, &y) in votes.iter().zip(&labels) {
            assert_eq!(w.predict(v), y);
        }
    }

    #[test]
    fn score_is_linear_in_votes() {
        let w = FusionWeights {
            weights: vec![0.5, 0.5],
        };
        assert_eq!(w.score(&[1.0, 1.0]), 1.0);
        assert_eq!(w.score(&[1.0, -1.0]), 0.0);
        assert_eq!(w.predict(&[1.0, -1.0]), 1.0); // tie → +1
    }

    #[test]
    fn fit_is_deterministic() {
        let votes = vec![vec![1.0, 1.0], vec![-1.0, 1.0]];
        let labels = vec![1.0, -1.0];
        assert_eq!(
            FusionWeights::fit(&votes, &labels),
            FusionWeights::fit(&votes, &labels)
        );
    }

    #[test]
    #[should_panic(expected = "no votes")]
    fn fit_rejects_empty() {
        FusionWeights::fit(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "vote count")]
    fn score_rejects_wrong_arity() {
        FusionWeights {
            weights: vec![0.5, 0.5],
        }
        .score(&[1.0]);
    }
}
