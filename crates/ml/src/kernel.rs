//! SVM kernel functions.
//!
//! The paper uses a binary SVM with a radial-basis-function kernel as the
//! base classifier of the random-subspace ensemble (§4.4). Linear and
//! polynomial kernels are provided as well: the in-sensor prior art the paper
//! contrasts against ("SVM with linear kernel", §1) is the linear case.

/// An SVM kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    /// Dot-product kernel `⟨x, y⟩`.
    Linear,
    /// Gaussian RBF kernel `exp(−γ‖x − y‖²)`.
    Rbf {
        /// Width parameter γ (> 0).
        gamma: f64,
    },
    /// Polynomial kernel `(⟨x, y⟩ + c)^d`.
    Poly {
        /// Degree `d` (≥ 1).
        degree: u32,
        /// Offset `c`.
        coef0: f64,
    },
}

impl Default for Kernel {
    /// The paper's default: RBF with γ = 1 (features are normalized to
    /// `[0, 1]`, so unit γ is a natural scale).
    fn default() -> Self {
        Kernel::Rbf { gamma: 1.0 }
    }
}

impl Kernel {
    /// Evaluates the kernel on two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != b.len()`.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "kernel arguments differ in length");
        match *self {
            Kernel::Linear => dot(a, b),
            Kernel::Rbf { gamma } => {
                let mut dist2 = 0.0;
                for (&x, &y) in a.iter().zip(b) {
                    let d = x - y;
                    dist2 += d * d;
                }
                (-gamma * dist2).exp()
            }
            Kernel::Poly { degree, coef0 } => (dot(a, b) + coef0).powi(degree as i32),
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_is_one_at_zero_distance() {
        let k = Kernel::Rbf { gamma: 0.5 };
        assert_eq!(k.eval(&[1.0, -2.0], &[1.0, -2.0]), 1.0);
    }

    #[test]
    fn rbf_decays_with_distance() {
        let k = Kernel::Rbf { gamma: 1.0 };
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[2.0]);
        assert!(near > far);
        assert!((far - (-4.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn poly_matches_closed_form() {
        let k = Kernel::Poly {
            degree: 2,
            coef0: 1.0,
        };
        assert_eq!(k.eval(&[1.0, 1.0], &[1.0, 1.0]), 9.0); // (2+1)^2
    }

    #[test]
    fn rbf_is_symmetric() {
        let k = Kernel::default();
        let (a, b) = ([0.3, 0.9, 0.1], [0.7, 0.2, 0.5]);
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_panic() {
        Kernel::Linear.eval(&[1.0], &[1.0, 2.0]);
    }
}
