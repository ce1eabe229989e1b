//! Minimal dense linear algebra: just enough to solve the least-squares
//! weighted-voting problem of the score-fusion stage (paper §4.4).

/// A dense row-major matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Computes `Aᵀ·A` (a `cols × cols` Gram matrix).
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut acc = 0.0;
                for r in 0..self.rows {
                    acc += self.get(r, i) * self.get(r, j);
                }
                out.set(i, j, acc);
                out.set(j, i, acc);
            }
        }
        out
    }

    /// Computes `Aᵀ·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows`.
    pub fn transpose_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            for (c, slot) in out.iter_mut().enumerate() {
                *slot += self.get(r, c) * vr;
            }
        }
        out
    }
}

/// Error returned when a linear system cannot be solved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularMatrixError;

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrixError {}

/// Solves the square system `A·x = b` by Gaussian elimination with partial
/// pivoting.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] when a pivot falls below `1e-12`.
///
/// # Panics
///
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    assert_eq!(b.len(), a.rows(), "rhs length mismatch");
    let n = a.rows();
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivoting.
        let mut pivot_row = col;
        let mut pivot_mag = m.get(col, col).abs();
        for r in (col + 1)..n {
            let mag = m.get(r, col).abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag < 1e-12 {
            return Err(SingularMatrixError);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m.get(col, c);
                m.set(col, c, m.get(pivot_row, c));
                m.set(pivot_row, c, tmp);
            }
            rhs.swap(col, pivot_row);
        }
        // Eliminate below.
        let pivot = m.get(col, col);
        for r in (col + 1)..n {
            let factor = m.get(r, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                m.set(r, c, m.get(r, c) - factor * m.get(col, c));
            }
            rhs[r] -= factor * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = rhs[r];
        for (c, &xc) in x.iter().enumerate().skip(r + 1) {
            acc -= m.get(r, c) * xc;
        }
        x[r] = acc / m.get(r, r);
    }
    Ok(x)
}

/// Solves the (possibly rank-deficient) least-squares problem
/// `min ‖A·x − b‖²` via ridge-regularized normal equations
/// `(AᵀA + λI)·x = Aᵀb`.
///
/// The small ridge `lambda` both regularizes near-duplicate base classifiers
/// (common in random-subspace ensembles) and guarantees solvability.
///
/// # Panics
///
/// Panics if `b.len() != a.rows()` or `lambda < 0`.
pub fn least_squares(a: &Matrix, b: &[f64], lambda: f64) -> Vec<f64> {
    assert!(lambda >= 0.0, "ridge parameter must be non-negative");
    let mut gram = a.gram();
    let n = gram.rows();
    // A strictly positive floor keeps the system non-singular even for λ = 0
    // callers (the floor is far below any meaningful score scale).
    let ridge = lambda.max(1e-9);
    for i in 0..n {
        gram.set(i, i, gram.get(i, i) + ridge);
    }
    let rhs = a.transpose_mul_vec(b);
    solve(&gram, &rhs).expect("ridge-regularized Gram matrix is positive definite")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;

    #[test]
    fn solves_identity() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        let x = solve(&a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(SingularMatrixError));
    }

    #[test]
    fn least_squares_recovers_exact_solution() {
        // Overdetermined but consistent: y = 2*x1 - x2.
        let a = Matrix::from_rows(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 1.0]);
        let b = vec![2.0, -1.0, 1.0, 3.0];
        let x = least_squares(&a, &b, 0.0);
        assert!((x[0] - 2.0).abs() < 1e-4);
        assert!((x[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn least_squares_with_duplicate_columns_is_stable() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = least_squares(&a, &[2.0, 4.0, 6.0], 1e-6);
        // Fitted values should reproduce b even though the split between the
        // two identical columns is arbitrary.
        for (r, b) in [2.0, 4.0, 6.0].into_iter().enumerate() {
            let f = a.get(r, 0) * x[0] + a.get(r, 1) * x[1];
            assert!((f - b).abs() < 1e-3);
        }
    }

    #[test]
    fn gram_is_symmetric() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gram();
        assert_eq!(g.get(0, 1), g.get(1, 0));
        assert_eq!(g.get(0, 0), 1.0 + 9.0 + 25.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn solve_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        let _ = solve(&a, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = Matrix::zeros(0, 3);
    }
}
