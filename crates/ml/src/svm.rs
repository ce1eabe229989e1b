//! Binary support vector machine trained with sequential minimal
//! optimization (SMO).
//!
//! The random-subspace ensemble of the generic classification framework uses
//! a binary SVM with RBF kernel as its base classifier (paper §4.4). This is
//! a from-scratch implementation of Platt's simplified SMO with full kernel
//! caching for the training set.
//!
//! The number of support vectors of each trained base classifier matters
//! architecturally: it determines the operation count — and therefore the
//! energy — of the corresponding SVM functional cell in the sensor node
//! (paper §5.5: "some basic SVM classifiers have fewer supporting vectors due
//! to the good data separability of the dataset").

use crate::kernel::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpro_signal::fixed::Q16;

/// Training hyper-parameters for [`Svm::train`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SvmConfig {
    /// Kernel function.
    pub kernel: Kernel,
    /// Box constraint C (> 0): soft-margin penalty.
    pub c: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Number of full passes without any update before convergence is
    /// declared.
    pub max_passes: u32,
    /// Hard iteration bound (protects against pathological inputs).
    pub max_iters: u32,
    /// Seed for the randomized second-multiplier choice.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            kernel: Kernel::default(),
            c: 1.0,
            tol: 1e-3,
            max_passes: 5,
            max_iters: 200,
            seed: 0x5eed,
        }
    }
}

/// Error returned by [`Svm::train`] on invalid training input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainSvmError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// Sample vectors have inconsistent dimensionality.
    DimensionMismatch,
    /// A label other than ±1 was supplied.
    InvalidLabel,
    /// Training data contained only one class.
    SingleClass,
}

impl std::fmt::Display for TrainSvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TrainSvmError::EmptyTrainingSet => "training set is empty",
            TrainSvmError::DimensionMismatch => "samples have inconsistent dimensions",
            TrainSvmError::InvalidLabel => "labels must be +1 or -1",
            TrainSvmError::SingleClass => "training data contains a single class",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TrainSvmError {}

/// A trained binary SVM.
///
/// # Examples
///
/// ```
/// use xpro_ml::svm::{Svm, SvmConfig};
/// use xpro_ml::kernel::Kernel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let xs = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![1.0, 1.0], vec![0.9, 1.0]];
/// let ys = vec![-1.0, -1.0, 1.0, 1.0];
/// let cfg = SvmConfig { kernel: Kernel::Linear, ..SvmConfig::default() };
/// let svm = Svm::train(&xs, &ys, &cfg)?;
/// assert_eq!(svm.predict(&[0.05, 0.0]), -1.0);
/// assert_eq!(svm.predict(&[0.95, 1.0]), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Svm {
    kernel: Kernel,
    support_vectors: Vec<Vec<f64>>,
    /// αᵢ·yᵢ for each support vector.
    coefficients: Vec<f64>,
    bias: f64,
    dim: usize,
    /// The same model quantized to Q16.16 once, at training: what an
    /// in-sensor SVM cell holds in its constant memory.
    q16: QuantizedSvm,
}

/// The Q16.16 constants of a trained [`Svm`], each rounded from its `f64`
/// value exactly as [`Q16::from_f64`] would round it on use.
#[derive(Clone, Debug, PartialEq)]
struct QuantizedSvm {
    /// Support-vector coordinates, row-major, `dim` per vector.
    support_vectors: Vec<Q16>,
    coefficients: Vec<Q16>,
    bias: Q16,
    /// γ of an RBF kernel, `coef0` of a polynomial one, zero otherwise.
    kernel_param: Q16,
}

impl QuantizedSvm {
    fn new(kernel: Kernel, support_vectors: &[Vec<f64>], coefficients: &[f64], bias: f64) -> Self {
        QuantizedSvm {
            support_vectors: support_vectors
                .iter()
                .flatten()
                .map(|&v| Q16::from_f64(v))
                .collect(),
            coefficients: coefficients.iter().map(|&c| Q16::from_f64(c)).collect(),
            bias: Q16::from_f64(bias),
            kernel_param: match kernel {
                Kernel::Linear => Q16::ZERO,
                Kernel::Rbf { gamma } => Q16::from_f64(gamma),
                Kernel::Poly { coef0, .. } => Q16::from_f64(coef0),
            },
        }
    }
}

impl Svm {
    /// Trains a binary SVM with SMO.
    ///
    /// Labels must be exactly `+1.0` or `-1.0`.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainSvmError`] if the input is empty, ragged, uses labels
    /// other than ±1, or contains a single class.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], cfg: &SvmConfig) -> Result<Svm, TrainSvmError> {
        if xs.is_empty() || ys.is_empty() || xs.len() != ys.len() {
            return Err(TrainSvmError::EmptyTrainingSet);
        }
        let dim = xs[0].len();
        if xs.iter().any(|x| x.len() != dim) || dim == 0 {
            return Err(TrainSvmError::DimensionMismatch);
        }
        if ys.iter().any(|&y| y != 1.0 && y != -1.0) {
            return Err(TrainSvmError::InvalidLabel);
        }
        if ys.iter().all(|&y| y == 1.0) || ys.iter().all(|&y| y == -1.0) {
            return Err(TrainSvmError::SingleClass);
        }

        let n = xs.len();
        // Cache the full kernel matrix: training sets here are at most ~1k
        // samples, so the O(n²) memory is the right trade for SMO speed.
        let mut k = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let v = cfg.kernel.eval(&xs[i], &xs[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }
        let kij = |i: usize, j: usize| k[i * n + j];

        let mut alpha = vec![0.0f64; n];
        // Ascending indices of the non-zero multipliers, so the decision
        // value sums exactly the terms a scan over all `n` would, in the
        // same order.
        let mut nonzero: Vec<usize> = Vec::new();
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut passes = 0u32;
        let mut iters = 0u32;

        // Decision value on training sample i under current alpha/b. The
        // kernel matrix is symmetric, so row i holds K(j, i) contiguously.
        let f = |alpha: &[f64], nonzero: &[usize], b: f64, i: usize| -> f64 {
            let row = &k[i * n..(i + 1) * n];
            let mut acc = b;
            for &j in nonzero {
                acc += alpha[j] * ys[j] * row[j];
            }
            acc
        };

        while passes < cfg.max_passes && iters < cfg.max_iters {
            iters += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = f(&alpha, &nonzero, b, i) - ys[i];
                let violates = (ys[i] * ei < -cfg.tol && alpha[i] < cfg.c)
                    || (ys[i] * ei > cfg.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                // Pick a random j != i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&alpha, &nonzero, b, j) - ys[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                // Compute clip bounds.
                let (lo, hi) = if ys[i] != ys[j] {
                    (
                        (alpha[j] - alpha[i]).max(0.0),
                        (cfg.c + alpha[j] - alpha[i]).min(cfg.c),
                    )
                } else {
                    (
                        (alpha[i] + alpha[j] - cfg.c).max(0.0),
                        (alpha[i] + alpha[j]).min(cfg.c),
                    )
                };
                if lo >= hi {
                    continue;
                }
                let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj_new = aj_old - ys[j] * (ei - ej) / eta;
                aj_new = aj_new.clamp(lo, hi);
                if (aj_new - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai_new = ai_old + ys[i] * ys[j] * (aj_old - aj_new);
                alpha[i] = ai_new;
                alpha[j] = aj_new;
                track_nonzero(&mut nonzero, i, ai_new);
                track_nonzero(&mut nonzero, j, aj_new);
                // Update bias.
                let b1 = b
                    - ei
                    - ys[i] * (ai_new - ai_old) * kij(i, i)
                    - ys[j] * (aj_new - aj_old) * kij(i, j);
                let b2 = b
                    - ej
                    - ys[i] * (ai_new - ai_old) * kij(i, j)
                    - ys[j] * (aj_new - aj_old) * kij(j, j);
                b = if 0.0 < ai_new && ai_new < cfg.c {
                    b1
                } else if 0.0 < aj_new && aj_new < cfg.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Collect support vectors.
        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-8 {
                support_vectors.push(xs[i].clone());
                coefficients.push(alpha[i] * ys[i]);
            }
        }
        let q16 = QuantizedSvm::new(cfg.kernel, &support_vectors, &coefficients, b);
        Ok(Svm {
            kernel: cfg.kernel,
            support_vectors,
            coefficients,
            bias: b,
            dim,
            q16,
        })
    }

    /// Signed decision value `Σ αᵢyᵢ·K(svᵢ, x) + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn decision(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let mut acc = self.bias;
        for (sv, &coef) in self.support_vectors.iter().zip(&self.coefficients) {
            acc += coef * self.kernel.eval(sv, x);
        }
        acc
    }

    /// Predicted label: `+1.0` or `-1.0` (ties map to `+1.0`).
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Signed decision value computed entirely on the Q16.16 fixed-point
    /// datapath — how an in-sensor SVM functional cell evaluates (paper
    /// §4.4: 32-bit fixed point; §3.1.1: the S-ALU's exponent unit serves
    /// the RBF kernel).
    ///
    /// Support-vector coordinates, coefficients, the bias and the kernel
    /// parameter were quantized once, at training; inputs are expected to
    /// already be normalized to `[0, 1]`, so no saturation occurs in
    /// practice.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn decision_q16(&self, x: &[Q16]) -> Q16 {
        self.decision_q16_with(x, |a, b| a * b)
    }

    /// Signed decision value on the Q16.16 datapath with every multiply
    /// running on a truncated multiplier array (`bits` dropped
    /// partial-product columns) — the approximate SVM kernel behind the
    /// `mul_truncation_bits` knob.
    ///
    /// With `bits == 0` this is bit-identical to [`Svm::decision_q16`].
    /// Each truncated multiply deviates by at most `2^bits` ulps from the
    /// exact one, and the exponential unit is 1-Lipschitz on the RBF's
    /// non-positive arguments, so the score deviation is statically
    /// bounded by `sv · 2^bits · (1 + C + C·γ·dims)` ulps for coefficient
    /// bound `C` — the envelope the approximation analysis injects and the
    /// approx-soundness proptests check.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn decision_q16_trunc(&self, x: &[Q16], bits: u32) -> Q16 {
        if bits == 0 {
            return self.decision_q16(x);
        }
        self.decision_q16_with(x, |a, b| a.truncated_mul(b, bits))
    }

    /// The Q16.16 decision walk over the stored constants, with every
    /// multiply done by `mul`.
    fn decision_q16_with(&self, x: &[Q16], mul: impl Fn(Q16, Q16) -> Q16) -> Q16 {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let q = &self.q16;
        let mut acc = q.bias;
        for (sv, &coef) in q
            .support_vectors
            .chunks_exact(self.dim)
            .zip(&q.coefficients)
        {
            let k = match self.kernel {
                Kernel::Linear => {
                    let mut dot = Q16::ZERO;
                    for (&s, &v) in sv.iter().zip(x) {
                        dot += mul(s, v);
                    }
                    dot
                }
                Kernel::Rbf { .. } => {
                    let mut dist2 = Q16::ZERO;
                    for (&s, &v) in sv.iter().zip(x) {
                        let d = s - v;
                        dist2 += mul(d, d);
                    }
                    (-mul(q.kernel_param, dist2)).exp()
                }
                Kernel::Poly { degree, .. } => {
                    let mut dot = q.kernel_param;
                    for (&s, &v) in sv.iter().zip(x) {
                        dot += mul(s, v);
                    }
                    let mut out = Q16::ONE;
                    for _ in 0..degree {
                        out = mul(out, dot);
                    }
                    out
                }
            };
            acc += mul(coef, k);
        }
        acc
    }

    /// Number of support vectors — the main driver of the SVM functional
    /// cell's operation count in the sensor node.
    pub fn num_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Kernel used by this model.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

/// Keeps `nonzero` (ascending) in step with multiplier `idx` now holding
/// `value`.
fn track_nonzero(nonzero: &mut Vec<usize>, idx: usize, value: f64) {
    match (nonzero.binary_search(&idx), value != 0.0) {
        (Ok(pos), false) => {
            nonzero.remove(pos);
        }
        (Err(pos), true) => nonzero.insert(pos, idx),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use rand::Rng;

    fn linearly_separable(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let cls: bool = rng.gen();
            let base = if cls { 1.0 } else { -1.0 };
            xs.push(vec![
                base + rng.gen_range(-0.3..0.3),
                base + rng.gen_range(-0.3..0.3),
            ]);
            ys.push(if cls { 1.0 } else { -1.0 });
        }
        (xs, ys)
    }

    #[test]
    fn separates_linear_data_with_linear_kernel() {
        let (xs, ys) = linearly_separable(60, 7);
        let cfg = SvmConfig {
            kernel: Kernel::Linear,
            ..SvmConfig::default()
        };
        let svm = Svm::train(&xs, &ys, &cfg).unwrap();
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        assert!(correct >= 58, "only {correct}/60 correct");
    }

    #[test]
    fn rbf_solves_xor() {
        // XOR is not linearly separable; RBF must handle it.
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![-1.0, 1.0, 1.0, -1.0];
        let cfg = SvmConfig {
            kernel: Kernel::Rbf { gamma: 2.0 },
            c: 10.0,
            ..SvmConfig::default()
        };
        let svm = Svm::train(&xs, &ys, &cfg).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(svm.predict(x), y, "at {x:?}");
        }
    }

    #[test]
    fn easy_data_needs_few_support_vectors() {
        // Paper §5.5: well-separated data yields few support vectors.
        let (xs, ys) = linearly_separable(100, 11);
        let cfg = SvmConfig {
            kernel: Kernel::Linear,
            ..SvmConfig::default()
        };
        let svm = Svm::train(&xs, &ys, &cfg).unwrap();
        assert!(
            svm.num_support_vectors() < xs.len() / 2,
            "{} SVs out of {}",
            svm.num_support_vectors(),
            xs.len()
        );
    }

    #[test]
    fn rejects_empty_input() {
        let cfg = SvmConfig::default();
        assert_eq!(
            Svm::train(&[], &[], &cfg),
            Err(TrainSvmError::EmptyTrainingSet)
        );
    }

    #[test]
    fn rejects_bad_labels() {
        let cfg = SvmConfig::default();
        let xs = vec![vec![0.0], vec![1.0]];
        assert_eq!(
            Svm::train(&xs, &[0.0, 1.0], &cfg),
            Err(TrainSvmError::InvalidLabel)
        );
    }

    #[test]
    fn rejects_single_class() {
        let cfg = SvmConfig::default();
        let xs = vec![vec![0.0], vec![1.0]];
        assert_eq!(
            Svm::train(&xs, &[1.0, 1.0], &cfg),
            Err(TrainSvmError::SingleClass)
        );
    }

    #[test]
    fn rejects_ragged_input() {
        let cfg = SvmConfig::default();
        let xs = vec![vec![0.0], vec![1.0, 2.0]];
        assert_eq!(
            Svm::train(&xs, &[1.0, -1.0], &cfg),
            Err(TrainSvmError::DimensionMismatch)
        );
    }

    #[test]
    fn decision_is_continuous_and_signed() {
        let (xs, ys) = linearly_separable(40, 3);
        let svm = Svm::train(&xs, &ys, &SvmConfig::default()).unwrap();
        let d_pos = svm.decision(&[1.0, 1.0]);
        let d_neg = svm.decision(&[-1.0, -1.0]);
        assert!(d_pos > 0.0);
        assert!(d_neg < 0.0);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let (xs, ys) = linearly_separable(50, 21);
        let cfg = SvmConfig::default();
        let a = Svm::train(&xs, &ys, &cfg).unwrap();
        let b = Svm::train(&xs, &ys, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn q16_decision_tracks_float() {
        let (xs, ys) = linearly_separable(60, 13);
        // Normalize inputs to [0, 1] as the pipeline does.
        let xs: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| x.iter().map(|&v| (v + 2.0) / 4.0).collect())
            .collect();
        let cfg = SvmConfig::default();
        let svm = Svm::train(&xs, &ys, &cfg).unwrap();
        let mut agree = 0;
        for x in &xs {
            let xq: Vec<Q16> = x.iter().map(|&v| Q16::from_f64(v)).collect();
            let d_float = svm.decision(x);
            let d_fixed = svm.decision_q16(&xq).to_f64();
            assert!(
                (d_float - d_fixed).abs() < 0.05 * (1.0 + d_float.abs()),
                "float {d_float} vs fixed {d_fixed}"
            );
            // Same sign, ties to +1 on both datapaths.
            if (d_float >= 0.0) == (d_fixed >= 0.0) {
                agree += 1;
            }
        }
        assert!(agree >= xs.len() - 2, "only {agree}/{} agree", xs.len());
    }

    #[test]
    fn q16_linear_kernel_matches() {
        let (xs, ys) = linearly_separable(40, 19);
        let xs: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| x.iter().map(|&v| (v + 2.0) / 4.0).collect())
            .collect();
        let cfg = SvmConfig {
            kernel: Kernel::Linear,
            ..SvmConfig::default()
        };
        let svm = Svm::train(&xs, &ys, &cfg).unwrap();
        let xq: Vec<Q16> = xs[0].iter().map(|&v| Q16::from_f64(v)).collect();
        let diff = (svm.decision(&xs[0]) - svm.decision_q16(&xq).to_f64()).abs();
        assert!(diff < 0.01, "diff {diff}");
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn decision_rejects_wrong_dim() {
        let (xs, ys) = linearly_separable(20, 5);
        let svm = Svm::train(&xs, &ys, &SvmConfig::default()).unwrap();
        svm.decision(&[0.0]);
    }

    #[test]
    fn truncated_decision_zero_bits_is_exact() {
        let (xs, ys) = linearly_separable(40, 23);
        let xs: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| x.iter().map(|&v| (v + 2.0) / 4.0).collect())
            .collect();
        let svm = Svm::train(&xs, &ys, &SvmConfig::default()).unwrap();
        for x in xs.iter().take(10) {
            let xq: Vec<Q16> = x.iter().map(|&v| Q16::from_f64(v)).collect();
            assert_eq!(svm.decision_q16(&xq), svm.decision_q16_trunc(&xq, 0));
        }
    }

    #[test]
    fn truncated_decision_stays_within_static_envelope() {
        let (xs, ys) = linearly_separable(60, 29);
        let xs: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| x.iter().map(|&v| (v + 2.0) / 4.0).collect())
            .collect();
        for kernel in [Kernel::Rbf { gamma: 1.0 }, Kernel::Linear] {
            let cfg = SvmConfig {
                kernel,
                ..SvmConfig::default()
            };
            let svm = Svm::train(&xs, &ys, &cfg).unwrap();
            let sv = svm.num_support_vectors() as f64;
            let dims = svm.dim() as f64;
            // Same per-SV bounds the static analyzer injects (C = γ = 1).
            for bits in [1u32, 4, 8, 12] {
                let per = f64::from(1u32 << bits);
                let per_sv = match kernel {
                    Kernel::Rbf { .. } => per * (1.0 + 1.0 + dims) + 4.0,
                    _ => per * (1.0 + dims) + 4.0,
                };
                let envelope = sv * per_sv / 65536.0;
                for x in &xs {
                    let xq: Vec<Q16> = x.iter().map(|&v| Q16::from_f64(v)).collect();
                    let exact = svm.decision_q16(&xq).to_f64();
                    let approx = svm.decision_q16_trunc(&xq, bits).to_f64();
                    assert!(
                        (approx - exact).abs() <= envelope,
                        "bits {bits}: |{approx} - {exact}| > {envelope}"
                    );
                }
            }
        }
    }
}
