//! Q16.16 fixed-point arithmetic.
//!
//! The XPro paper (§4.4) adopts a 32-bit fixed-point number format with 16
//! integer bits and 16 fractional bits for all in-sensor functional cells.
//! [`Q16`] reproduces that datapath exactly so the sensor-side feature values
//! match what the hardware would compute, including rounding behaviour.
//!
//! All arithmetic saturates instead of wrapping: a hardware datapath clamps at
//! the rails rather than aliasing, and saturation keeps downstream feature
//! values well-behaved for classification.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of fractional bits in the [`Q16`] format.
pub const FRAC_BITS: u32 = 16;
/// Scale factor (2^16) between the raw integer representation and the value.
pub const SCALE: i64 = 1 << FRAC_BITS;

/// A 32-bit fixed-point number with 16 integer and 16 fractional bits.
///
/// This is the number format of every in-sensor functional cell in XPro.
/// Construct values with [`Q16::from_f64`], [`Q16::from_int`] or
/// [`Q16::from_raw`].
///
/// # Examples
///
/// ```
/// use xpro_signal::fixed::Q16;
///
/// let a = Q16::from_f64(1.5);
/// let b = Q16::from_f64(2.25);
/// assert_eq!((a * b).to_f64(), 3.375);
/// assert_eq!((a + b).to_f64(), 3.75);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q16(i32);

impl Q16 {
    /// The additive identity.
    pub const ZERO: Q16 = Q16(0);
    /// The multiplicative identity.
    pub const ONE: Q16 = Q16(1 << FRAC_BITS);
    /// Smallest positive representable increment (2^-16).
    pub const EPSILON: Q16 = Q16(1);
    /// Largest representable value (~32767.99998).
    pub const MAX: Q16 = Q16(i32::MAX);
    /// Smallest (most negative) representable value (-32768).
    pub const MIN: Q16 = Q16(i32::MIN);

    /// Creates a value from its raw two's-complement bit pattern.
    #[inline]
    pub const fn from_raw(raw: i32) -> Self {
        Q16(raw)
    }

    /// Returns the raw two's-complement bit pattern.
    #[inline]
    pub const fn raw(self) -> i32 {
        self.0
    }

    /// Creates a value from an integer, saturating at the format limits.
    #[inline]
    pub fn from_int(v: i32) -> Self {
        let wide = (v as i64) << FRAC_BITS;
        Q16(clamp_i64(wide))
    }

    /// Converts from `f64`, rounding to nearest and saturating.
    ///
    /// Non-finite inputs saturate: `NAN` maps to zero, `±INFINITY` to the
    /// corresponding rail.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        if v.is_nan() {
            return Q16::ZERO;
        }
        let scaled = (v * SCALE as f64).round();
        if scaled >= i32::MAX as f64 {
            Q16::MAX
        } else if scaled <= i32::MIN as f64 {
            Q16::MIN
        } else {
            Q16(scaled as i32)
        }
    }

    /// Converts to `f64` exactly (every `Q16` is representable in an `f64`).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Returns the absolute value, saturating on `MIN`.
    #[inline]
    pub fn abs(self) -> Self {
        if self.0 == i32::MIN {
            Q16::MAX
        } else {
            Q16(self.0.abs())
        }
    }

    /// Returns `true` when the value is negative.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Q16(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Q16(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication with round-to-nearest.
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = (self.0 as i64) * (rhs.0 as i64);
        // Round to nearest: add half an ulp before shifting.
        let rounded = (wide + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        Q16(clamp_i64(rounded))
    }

    /// Saturating multiplication on a truncated multiplier array: the low
    /// `bits` partial-product columns of the fractional shift are dropped,
    /// so the result floors toward −∞ and zeroes its low `bits` bits.
    ///
    /// This is the approximate-computing kernel behind the
    /// `mul_truncation_bits` knob: a hardware array multiplier that omits
    /// the cheapest partial-product cells. Relative to the exact
    /// round-to-nearest [`Q16::saturating_mul`] the deviation is at most
    /// [`truncated_mul_error_ulps`]`(bits)` ulps — one ulp for dropping
    /// the rounding increment plus up to `2^bits − 1` from the masked low
    /// bits, both toward −∞.
    ///
    /// `bits == 0` degenerates to the exact multiply.
    ///
    /// # Examples
    ///
    /// ```
    /// use xpro_signal::fixed::{truncated_mul_error_ulps, Q16};
    ///
    /// let (a, b) = (Q16::from_f64(1.5), Q16::from_f64(2.25));
    /// let exact = a.saturating_mul(b);
    /// let approx = a.truncated_mul(b, 4);
    /// let dev = (exact.raw() as i64 - approx.raw() as i64).abs();
    /// assert!(dev <= truncated_mul_error_ulps(4));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics (debug) if `bits > 16`.
    #[inline]
    pub fn truncated_mul(self, rhs: Self, bits: u32) -> Self {
        debug_assert!(bits <= FRAC_BITS, "cannot drop more than {FRAC_BITS} bits");
        if bits == 0 {
            return self.saturating_mul(rhs);
        }
        let wide = (self.0 as i64) * (rhs.0 as i64);
        // Arithmetic shift floors toward −∞ (no rounding increment), and
        // the mask floors the low columns away in two's complement.
        let floored = wide >> FRAC_BITS;
        let masked = floored & !((1i64 << bits) - 1);
        Q16(clamp_i64(masked))
    }

    /// Saturating division; division by zero saturates to the signed rail.
    #[inline]
    pub fn saturating_div(self, rhs: Self) -> Self {
        if rhs.0 == 0 {
            return if self.0 >= 0 { Q16::MAX } else { Q16::MIN };
        }
        let wide = ((self.0 as i64) << FRAC_BITS) / (rhs.0 as i64);
        Q16(clamp_i64(wide))
    }

    /// Fixed-point square root via integer Newton iteration.
    ///
    /// Mirrors the "super computation" unit of the S-ALU (§3.1.1), which
    /// provides square root for the Std cell. Negative inputs return zero
    /// (hardware clamps; variance can only be non-negative in exact math).
    ///
    /// # Examples
    ///
    /// ```
    /// use xpro_signal::fixed::Q16;
    /// let v = Q16::from_f64(2.0).sqrt().to_f64();
    /// assert!((v - 1.41421356).abs() < 1e-4);
    /// ```
    pub fn sqrt(self) -> Self {
        if self.0 <= 0 {
            return Q16::ZERO;
        }
        // sqrt(x) in Q16.16: sqrt(raw / 2^16) = sqrt(raw) / 2^8,
        // so result_raw = sqrt(raw << 16) = isqrt(raw * 2^16).
        let wide = (self.0 as u64) << FRAC_BITS;
        Q16(isqrt_u64(wide) as i32)
    }

    /// Fixed-point natural exponential, `e^x`.
    ///
    /// Implemented with range reduction (x = k·ln2 + r, |r| ≤ ln2/2) and a
    /// degree-6 polynomial in Q16.16, matching the S-ALU exponent unit used by
    /// the RBF-kernel SVM cells. Overflow saturates at [`Q16::MAX`]; large
    /// negative inputs underflow to zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use xpro_signal::fixed::Q16;
    /// let v = Q16::from_f64(-1.0).exp().to_f64();
    /// assert!((v - 0.36787944).abs() < 1e-3);
    /// ```
    pub fn exp(self) -> Self {
        const LN2: i64 = 45_426; // ln(2) * 2^16, rounded
        let x = self.0 as i64;
        // e^x with x >= 11 overflows Q16.16 (e^11 > 32768).
        if x >= 11 * SCALE {
            return Q16::MAX;
        }
        // e^x with x <= -12 underflows to zero at Q16.16 resolution.
        if x <= -12 * SCALE {
            return Q16::ZERO;
        }
        // Range reduction: x = k*ln2 + r with r in [-ln2/2, ln2/2].
        let k = div_round_nearest(x, LN2);
        let r = x - k * LN2;
        // Polynomial e^r ~= 1 + r + r^2/2 + r^3/6 + r^4/24 + r^5/120 + r^6/720
        // with terms accumulated iteratively, all in Q16.16.
        let mut acc: i64 = SCALE; // 1
        let mut term: i64 = SCALE; // r^0 / 0!
        for n in 1..=6 {
            term = mul_q(term, r);
            term = div_round_nearest(term, n);
            acc += term;
        }
        // Scale by 2^k.
        let scaled = if k >= 0 {
            if k >= 32 {
                i64::MAX
            } else {
                acc.saturating_mul(1i64 << k)
            }
        } else {
            let shift = (-k) as u32;
            if shift >= 63 {
                0
            } else {
                div_round_nearest(acc, 1i64 << shift)
            }
        };
        Q16(clamp_i64(scaled))
    }

    /// Returns the smaller of two values.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two values.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

/// Worst-case deviation of [`Q16::truncated_mul`] from
/// [`Q16::saturating_mul`] in ulps: one ulp of forfeited rounding plus the
/// `2^bits − 1` masked low bits.
///
/// The static approximation analysis injects exactly this bound as fresh
/// affine noise at truncated cells; the approx-soundness proptests verify
/// it is never exceeded by the concrete kernel.
#[inline]
pub const fn truncated_mul_error_ulps(bits: u32) -> i64 {
    1i64 << bits
}

#[inline]
fn clamp_i64(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

/// Multiplies two Q16.16 numbers held in i64, with rounding.
///
/// Unlike [`Q16::saturating_mul`] this raw helper has no rails: operands
/// must stay within the extended 32-bit datapath range or the wide product
/// wraps `i64` silently in release builds.
#[inline]
fn mul_q(a: i64, b: i64) -> i64 {
    debug_assert!(
        a.unsigned_abs() < 1 << 31 && b.unsigned_abs() < 1 << 31,
        "mul_q operand outside the extended datapath range: {a} * {b}"
    );
    let wide = a * b;
    (wide + (1 << (FRAC_BITS - 1))) >> FRAC_BITS
}

/// Division rounded to the nearest integer (ties away from zero).
///
/// The pre-division bias `a ± b/2` is unguarded raw arithmetic: it wraps
/// silently in release builds if `a` sits within `b/2` of the `i64` rails.
#[inline]
fn div_round_nearest(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "divisor must be positive: {b}");
    debug_assert!(
        a.checked_add(b / 2).is_some() && a.checked_sub(b / 2).is_some(),
        "div_round_nearest bias would wrap: {a} / {b}"
    );
    if a >= 0 {
        (a + b / 2) / b
    } else {
        (a - b / 2) / b
    }
}

/// Integer square root of a u64 by Newton's method.
fn isqrt_u64(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut x = 1u64 << ((64 - v.leading_zeros()).div_ceil(2));
    loop {
        let next = (x + v / x) / 2;
        if next >= x {
            break;
        }
        x = next;
    }
    x
}

impl Add for Q16 {
    type Output = Q16;
    #[inline]
    fn add(self, rhs: Q16) -> Q16 {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Q16 {
    #[inline]
    fn add_assign(&mut self, rhs: Q16) {
        *self = *self + rhs;
    }
}

impl Sub for Q16 {
    type Output = Q16;
    #[inline]
    fn sub(self, rhs: Q16) -> Q16 {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Q16 {
    #[inline]
    fn sub_assign(&mut self, rhs: Q16) {
        *self = *self - rhs;
    }
}

impl Mul for Q16 {
    type Output = Q16;
    #[inline]
    fn mul(self, rhs: Q16) -> Q16 {
        self.saturating_mul(rhs)
    }
}

impl Div for Q16 {
    type Output = Q16;
    #[inline]
    fn div(self, rhs: Q16) -> Q16 {
        self.saturating_div(rhs)
    }
}

impl Neg for Q16 {
    type Output = Q16;
    #[inline]
    fn neg(self) -> Q16 {
        Q16(self.0.saturating_neg())
    }
}

impl Sum for Q16 {
    fn sum<I: Iterator<Item = Q16>>(iter: I) -> Q16 {
        iter.fold(Q16::ZERO, |a, b| a + b)
    }
}

impl From<i16> for Q16 {
    fn from(v: i16) -> Self {
        Q16::from_int(v as i32)
    }
}

impl fmt::Debug for Q16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q16({})", self.to_f64())
    }
}

impl fmt::Display for Q16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_integers() {
        for v in [-32768, -1, 0, 1, 2, 100, 32767] {
            assert_eq!(Q16::from_int(v).to_f64(), f64::from(v), "value {v}");
        }
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        // 2^-17 is exactly half an ulp; rounds away from zero.
        let half_ulp = 1.0 / 131072.0;
        assert_eq!(Q16::from_f64(half_ulp), Q16::EPSILON);
        assert_eq!(Q16::from_f64(half_ulp / 2.0), Q16::ZERO);
    }

    #[test]
    fn from_f64_handles_non_finite() {
        assert_eq!(Q16::from_f64(f64::NAN), Q16::ZERO);
        assert_eq!(Q16::from_f64(f64::INFINITY), Q16::MAX);
        assert_eq!(Q16::from_f64(f64::NEG_INFINITY), Q16::MIN);
    }

    #[test]
    fn addition_saturates() {
        assert_eq!(Q16::MAX + Q16::ONE, Q16::MAX);
        assert_eq!(Q16::MIN - Q16::ONE, Q16::MIN);
    }

    #[test]
    fn multiplication_matches_float_within_ulp() {
        let cases = [(1.5, 2.25), (-3.0, 0.5), (100.0, 0.01), (-7.25, -2.0)];
        for (a, b) in cases {
            let (qa, qb) = (Q16::from_f64(a), Q16::from_f64(b));
            let got = (qa * qb).to_f64();
            // Compare against the exact product of the *quantized* inputs;
            // the multiply itself introduces at most one ulp of rounding.
            let want = qa.to_f64() * qb.to_f64();
            assert!(
                (got - want).abs() <= 1.0 / SCALE as f64,
                "{a} * {b} = {got}"
            );
        }
    }

    #[test]
    fn multiplication_saturates() {
        let big = Q16::from_int(30000);
        assert_eq!(big * big, Q16::MAX);
        assert_eq!(big * -big, Q16::MIN);
    }

    #[test]
    fn truncated_mul_zero_bits_is_exact() {
        let (a, b) = (Q16::from_f64(-7.25), Q16::from_f64(3.125));
        assert_eq!(a.truncated_mul(b, 0), a.saturating_mul(b));
    }

    #[test]
    fn truncated_mul_stays_within_declared_ulps() {
        // Deterministic pseudo-random coverage of the whole working range.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Q16::from_raw((state >> 33) as i32)
        };
        for bits in [1u32, 4, 8, 12, 16] {
            for _ in 0..500 {
                let (a, b) = (next(), next());
                let exact = a.saturating_mul(b).raw() as i64;
                let approx = a.truncated_mul(b, bits).raw() as i64;
                assert!(
                    (exact - approx).abs() <= truncated_mul_error_ulps(bits),
                    "{a:?} * {b:?} with {bits} bits: exact {exact}, approx {approx}"
                );
                // Truncation floors: never above the exact product.
                assert!(approx <= exact, "{a:?} * {b:?}");
            }
        }
    }

    #[test]
    fn truncated_mul_zeroes_low_bits_and_saturates() {
        let v = Q16::from_f64(1.0 + 1.0 / 65536.0);
        let got = v.truncated_mul(Q16::ONE, 8);
        assert_eq!(got.raw() & 0xff, 0);
        let big = Q16::from_int(30000);
        assert_eq!(big.truncated_mul(big, 8), Q16::MAX);
    }

    #[test]
    fn division_by_zero_saturates() {
        assert_eq!(Q16::ONE / Q16::ZERO, Q16::MAX);
        assert_eq!(-Q16::ONE / Q16::ZERO, Q16::MIN);
    }

    #[test]
    fn division_matches_float() {
        let got = (Q16::from_f64(1.0) / Q16::from_f64(3.0)).to_f64();
        assert!((got - 1.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn sqrt_matches_float() {
        for v in [0.25, 1.0, 2.0, 9.0, 1000.0, 0.0001] {
            let got = Q16::from_f64(v).sqrt().to_f64();
            assert!((got - v.sqrt()).abs() < 2e-2, "sqrt({v}) = {got}");
        }
    }

    #[test]
    fn sqrt_of_negative_is_zero() {
        assert_eq!(Q16::from_f64(-4.0).sqrt(), Q16::ZERO);
    }

    #[test]
    fn exp_matches_float_over_working_range() {
        for v in [-8.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 2.0, 5.0, 9.0] {
            let got = Q16::from_f64(v).exp().to_f64();
            let want = v.exp();
            let tol = (want * 1e-3).max(3e-4);
            assert!((got - want).abs() < tol, "exp({v}) = {got}, want {want}");
        }
    }

    #[test]
    fn exp_saturates_and_underflows() {
        assert_eq!(Q16::from_int(20).exp(), Q16::MAX);
        assert_eq!(Q16::from_int(-20).exp(), Q16::ZERO);
    }

    #[test]
    fn abs_handles_min() {
        assert_eq!(Q16::MIN.abs(), Q16::MAX);
        assert_eq!(Q16::from_f64(-1.5).abs().to_f64(), 1.5);
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Q16::from_f64(1.5).to_string(), "1.5");
        assert_eq!(format!("{:?}", Q16::from_f64(-2.0)), "Q16(-2)");
    }

    #[test]
    fn sum_folds_from_zero() {
        let total: Q16 = [1.0, 2.0, 3.5].iter().map(|&v| Q16::from_f64(v)).sum();
        assert_eq!(total.to_f64(), 6.5);
    }

    #[test]
    fn ordering_follows_value() {
        assert!(Q16::from_f64(-1.0) < Q16::ZERO);
        assert!(Q16::from_f64(0.5) < Q16::ONE);
        assert_eq!(Q16::from_f64(2.0).max(Q16::from_f64(3.0)).to_f64(), 3.0);
        assert_eq!(Q16::from_f64(2.0).min(Q16::from_f64(3.0)).to_f64(), 2.0);
    }
}
