//! Affine-arithmetic (zonotope) domain over the cell dataflow.
//!
//! An [`AffineForm`] represents a value as `c + Σᵢ aᵢ·εᵢ`, where each noise
//! symbol `εᵢ ∈ [-1, 1]` stands for one independent source of uncertainty
//! (a raw sample, a nonlinear-op residue). Unlike a plain interval, two
//! forms that share a symbol stay *correlated*: `x - x` is exactly zero,
//! and `x - mean(x₁..xₙ)` — the central-moment deviation — cancels the
//! common part and leaves a radius of `2r(n-1)/n` instead of the interval
//! domain's `2r`. That cancellation is what lets the analyzer demote
//! spurious `MayOverflow` verdicts on deep-domain moment cells whose
//! windows are short (the level-5 DWT bands hold four samples, so the
//! deviation can only reach three quarters of the window width).
//!
//! Arithmetic is exact real arithmetic over `f64` coefficients; Q16.16
//! rounding is *not* mirrored here (the interval domain does that) and is
//! instead covered by the caller's separate ulp error envelope, which must
//! be added to [`AffineForm::range`] before comparing against the
//! saturation rails. Linear operations (add, sub, negate, scaling) are
//! exact on the affine part; nonlinear operations (products) keep the
//! bilinear cross terms in a fresh symbol, with squares one-sided
//! (`L² ∈ [0, r²]` rather than `[-r², r²]`).

/// Identifier of a noise symbol.
pub type Symbol = u32;

/// Allocator of fresh noise symbols for one analysis run.
///
/// Symbols are meaningful only relative to the context that issued them:
/// forms built under different contexts must not be combined.
#[derive(Clone, Debug, Default)]
pub struct SymbolCtx {
    next: Symbol,
}

impl SymbolCtx {
    /// A fresh context with no symbols issued.
    pub fn new() -> Self {
        SymbolCtx::default()
    }

    /// Issues a fresh, never-before-used symbol.
    pub fn fresh(&mut self) -> Symbol {
        let s = self.next;
        self.next += 1;
        s
    }
}

/// A value represented as `center + Σ coeff·ε` with `ε ∈ [-1, 1]`.
///
/// Terms are kept sorted by symbol with no zero coefficients, so equality
/// of representation coincides with syntactic equality of the form.
#[derive(Clone, Debug, PartialEq)]
pub struct AffineForm {
    center: f64,
    /// `(symbol, coefficient)` pairs, sorted by symbol, coefficients ≠ 0.
    terms: Vec<(Symbol, f64)>,
}

impl AffineForm {
    /// The constant `v` (no uncertainty).
    pub fn constant(v: f64) -> Self {
        AffineForm {
            center: v,
            terms: Vec::new(),
        }
    }

    /// The form `center + coeff·ε` over a fresh symbol.
    pub fn with_fresh(center: f64, coeff: f64, ctx: &mut SymbolCtx) -> Self {
        let mut terms = Vec::new();
        if coeff != 0.0 {
            terms.push((ctx.fresh(), coeff.abs()));
        }
        AffineForm { center, terms }
    }

    /// The form covering `[lo, hi]` with one fresh symbol.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn from_range(lo: f64, hi: f64, ctx: &mut SymbolCtx) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "non-finite range");
        assert!(lo <= hi, "inverted range");
        AffineForm::with_fresh((lo + hi) / 2.0, (hi - lo) / 2.0, ctx)
    }

    /// The central value.
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Total deviation radius `Σ |coeff|`.
    pub fn radius(&self) -> f64 {
        self.terms.iter().map(|&(_, a)| a.abs()).sum()
    }

    /// Concretization: the interval `[center - radius, center + radius]`.
    pub fn range(&self) -> (f64, f64) {
        let r = self.radius();
        (self.center - r, self.center + r)
    }

    /// Largest absolute value the form can take.
    pub fn max_abs(&self) -> f64 {
        let (lo, hi) = self.range();
        lo.abs().max(hi.abs())
    }

    /// Renames every symbol to a fresh one, collapsing the linear part into
    /// a single term of the same radius. Used to instantiate independent
    /// draws from the distribution a port form describes (e.g. the `n`
    /// samples of a feature window): each draw shares the center and
    /// radius, but none of the correlations.
    pub fn independent_copy(&self, ctx: &mut SymbolCtx) -> AffineForm {
        AffineForm::with_fresh(self.center, self.radius(), ctx)
    }

    /// Exact affine sum `self + rhs` (shared symbols combine term-wise).
    pub fn add(&self, rhs: &AffineForm) -> AffineForm {
        let mut terms = Vec::with_capacity(self.terms.len() + rhs.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() || j < rhs.terms.len() {
            let take_left = match (self.terms.get(i), rhs.terms.get(j)) {
                (Some(&(sa, _)), Some(&(sb, _))) => {
                    if sa == sb {
                        let a = self.terms[i].1 + rhs.terms[j].1;
                        if a != 0.0 {
                            terms.push((sa, a));
                        }
                        i += 1;
                        j += 1;
                        continue;
                    }
                    sa < sb
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if take_left {
                terms.push(self.terms[i]);
                i += 1;
            } else {
                terms.push(rhs.terms[j]);
                j += 1;
            }
        }
        AffineForm {
            center: self.center + rhs.center,
            terms,
        }
    }

    /// Exact affine difference `self - rhs`: shared symbols cancel.
    pub fn sub(&self, rhs: &AffineForm) -> AffineForm {
        self.add(&rhs.neg())
    }

    /// Exact negation.
    pub fn neg(&self) -> AffineForm {
        AffineForm {
            center: -self.center,
            terms: self.terms.iter().map(|&(s, a)| (s, -a)).collect(),
        }
    }

    /// Exact scaling by a constant.
    pub fn scale(&self, k: f64) -> AffineForm {
        if k == 0.0 {
            return AffineForm::constant(0.0);
        }
        AffineForm {
            center: self.center * k,
            terms: self.terms.iter().map(|&(s, a)| (s, a * k)).collect(),
        }
    }

    /// Exact translation by a constant.
    pub fn add_const(&self, k: f64) -> AffineForm {
        AffineForm {
            center: self.center + k,
            terms: self.terms.clone(),
        }
    }

    /// Product `self · rhs` for *independent or partially shared* forms:
    /// the affine part `ca·cb + ca·Lb + cb·La` is kept exactly and the
    /// bilinear residue `La·Lb ∈ [-ra·rb, ra·rb]` goes into a fresh symbol.
    ///
    /// For a self-product use [`AffineForm::sqr`], which exploits the
    /// perfect correlation to stay one-sided.
    pub fn mul(&self, rhs: &AffineForm, ctx: &mut SymbolCtx) -> AffineForm {
        let linear = self
            .scale(rhs.center)
            .add(&rhs.scale(self.center))
            .add_const(-self.center * rhs.center);
        let residue = self.radius() * rhs.radius();
        if residue == 0.0 {
            return linear;
        }
        linear.add(&AffineForm::with_fresh(0.0, residue, ctx))
    }

    /// Square of the form: `x² = c² + 2c·L + L²` with the quadratic part
    /// one-sided (`L² ∈ [0, r²]`), represented as `r²/2 + (r²/2)·ε` over a
    /// fresh symbol. Never dips below zero for a zero-centered form —
    /// unlike the interval product of two copies.
    pub fn sqr(&self, ctx: &mut SymbolCtx) -> AffineForm {
        let c = self.center;
        let r = self.radius();
        let linear = self.scale(2.0 * c).add_const(-c * c);
        if r == 0.0 {
            return linear;
        }
        let half = r * r / 2.0;
        linear.add(&AffineForm::with_fresh(half, half, ctx))
    }

    /// `n`-fold sum of *independent* draws from this form (the abstract
    /// image of accumulating a window): center and radius scale by `n`,
    /// correlation with the originating form is dropped.
    pub fn accumulate(&self, n: u32, ctx: &mut SymbolCtx) -> AffineForm {
        let nf = f64::from(n);
        AffineForm::with_fresh(self.center * nf, self.radius() * nf, ctx)
    }

    /// Tightens the form against an externally derived sound bound
    /// `[lo, hi]` (e.g. a relational moment inequality). The result covers
    /// the intersection of the two; if they do not overlap the original
    /// form is returned unchanged (the caller's bound is then vacuous).
    pub fn clamp_to(&self, lo: f64, hi: f64, ctx: &mut SymbolCtx) -> AffineForm {
        let (flo, fhi) = self.range();
        let (nlo, nhi) = (flo.max(lo), fhi.min(hi));
        if nlo > nhi {
            return self.clone();
        }
        if nlo == flo && nhi == fhi {
            return self.clone();
        }
        AffineForm::from_range(nlo, nhi, ctx)
    }
}

impl std::fmt::Display for AffineForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.center, self.radius())?;
        if !self.terms.is_empty() {
            write!(f, " ({} syms)", self.terms.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SymbolCtx {
        SymbolCtx::new()
    }

    #[test]
    fn self_difference_cancels_exactly() {
        let mut c = ctx();
        let x = AffineForm::from_range(-3.0, 5.0, &mut c);
        let d = x.sub(&x);
        assert_eq!(d.range(), (0.0, 0.0));
    }

    #[test]
    fn independent_difference_widens() {
        let mut c = ctx();
        let x = AffineForm::from_range(-3.0, 5.0, &mut c);
        let y = x.independent_copy(&mut c);
        let d = x.sub(&y);
        let (lo, hi) = d.range();
        assert!((lo + 8.0).abs() < 1e-12 && (hi - 8.0).abs() < 1e-12);
    }

    #[test]
    fn window_mean_deviation_has_reduced_radius() {
        // d = x₀ - (x₀+x₁+x₂+x₃)/4 over independent samples of radius r:
        // the affine cancellation leaves 2r(n-1)/n = 1.5r, not 2r.
        let mut c = ctx();
        let port = AffineForm::from_range(-1.0, 1.0, &mut c);
        let samples: Vec<AffineForm> = (0..4).map(|_| port.independent_copy(&mut c)).collect();
        let sum = samples
            .iter()
            .fold(AffineForm::constant(0.0), |acc, s| acc.add(s));
        let mean = sum.scale(0.25);
        let d = samples[0].sub(&mean);
        assert!((d.radius() - 1.5).abs() < 1e-12, "radius {}", d.radius());
        assert!(d.center().abs() < 1e-12);
    }

    #[test]
    fn sqr_of_zero_centered_form_is_one_sided() {
        let mut c = ctx();
        let x = AffineForm::from_range(-2.0, 2.0, &mut c);
        let sq = x.sqr(&mut c);
        let (lo, hi) = sq.range();
        assert!(lo.abs() < 1e-12, "lo {lo}");
        assert!((hi - 4.0).abs() < 1e-12, "hi {hi}");
    }

    #[test]
    fn sqr_matches_interval_on_offset_forms() {
        let mut c = ctx();
        let x = AffineForm::from_range(1.0, 3.0, &mut c);
        let sq = x.sqr(&mut c);
        let (lo, hi) = sq.range();
        // x² over [1,3] is [1,9]; the affine square gives 4 + 4ε₀ + [0,1],
        // i.e. [0,9] — sound, within a symbol of tight.
        assert!(lo <= 1.0 + 1e-12 && hi >= 9.0 - 1e-12);
        assert!(lo >= -1e-12 && hi <= 9.0 + 1e-12);
    }

    #[test]
    fn mul_keeps_linear_correlation() {
        let mut c = ctx();
        let x = AffineForm::from_range(0.0, 2.0, &mut c);
        // (x)·(3) must be exact.
        let p = x.mul(&AffineForm::constant(3.0), &mut c);
        assert_eq!(p.range(), (0.0, 6.0));
        // x·y over independent [0,2]×[0,2] ⊆ affine result.
        let y = x.independent_copy(&mut c);
        let q = x.mul(&y, &mut c);
        let (lo, hi) = q.range();
        assert!(lo <= 0.0 + 1e-12 && hi >= 4.0 - 1e-12);
    }

    #[test]
    fn accumulate_scales_center_and_radius() {
        let mut c = ctx();
        let x = AffineForm::from_range(-0.5, 1.25, &mut c);
        let acc = x.accumulate(100, &mut c);
        let (lo, hi) = acc.range();
        assert!((lo + 50.0).abs() < 1e-9 && (hi - 125.0).abs() < 1e-9);
    }

    #[test]
    fn clamp_to_tightens_and_ignores_disjoint_bounds() {
        let mut c = ctx();
        let x = AffineForm::from_range(-4.0, 4.0, &mut c);
        let t = x.clamp_to(0.0, 1.0, &mut c);
        assert_eq!(t.range(), (0.0, 1.0));
        let v = x.clamp_to(10.0, 20.0, &mut c);
        assert_eq!(v.range(), (-4.0, 4.0));
    }

    #[test]
    fn display_shows_center_and_radius() {
        let mut c = ctx();
        let x = AffineForm::from_range(-1.0, 3.0, &mut c);
        assert!(x.to_string().contains("1.0000 ± 2.0000"), "{x}");
    }
}
