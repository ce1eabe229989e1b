//! Interval domain over the Q16.16 datapath.
//!
//! An [`Interval`] bounds every value a signal can take on one port of the
//! cell graph, in raw Q16.16 representation. Transfer functions mirror the
//! corresponding [`Q16`] operations *including their
//! rounding*, so the abstract result always contains the concrete one:
//! rounding in `saturating_mul`/`saturating_div` is monotone, hence applying
//! the concrete op to interval endpoints yields sound bounds.
//!
//! Saturation is the event of interest: the concrete datapath clamps at the
//! ±32768 rails, silently corrupting downstream features. Every transfer
//! function therefore checks the *pre-clamp* wide result against the rails
//! and records a [`Hazard`] in the caller's [`OpLog`] when any value in the
//! interval could saturate.

use xpro_signal::fixed::{FRAC_BITS, Q16, SCALE};

/// The operation class in which a saturation hazard was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HazardOp {
    /// Two-operand saturating addition or subtraction.
    Add,
    /// A running accumulation (`n`-fold sum).
    Sum,
    /// Saturating multiplication.
    Mul,
    /// Saturating division, including division by a possibly-zero divisor.
    Div,
    /// The exponent unit's overflow cliff (`e^x` with `x ≥ 11`).
    Exp,
}

impl std::fmt::Display for HazardOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HazardOp::Add => "add",
            HazardOp::Sum => "sum",
            HazardOp::Mul => "mul",
            HazardOp::Div => "div",
            HazardOp::Exp => "exp",
        };
        f.write_str(s)
    }
}

/// One possible saturation, with the worst pre-clamp magnitude (in value
/// units, i.e. raw / 2^16) the operation could reach.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hazard {
    /// The operation that can saturate.
    pub op: HazardOp,
    /// Worst-case pre-saturation magnitude, in value units.
    pub bound: f64,
}

/// Collects the hazards encountered while evaluating one cell's transfer
/// function.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    hazards: Vec<Hazard>,
}

impl OpLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        OpLog::default()
    }

    /// Records a hazard.
    pub fn record(&mut self, op: HazardOp, bound: f64) {
        self.hazards.push(Hazard { op, bound });
    }

    /// All recorded hazards.
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// The hazard with the largest pre-saturation magnitude, if any.
    pub fn worst(&self) -> Option<Hazard> {
        self.hazards
            .iter()
            .copied()
            .max_by(|a, b| a.bound.total_cmp(&b.bound))
    }
}

const RAIL_HI: i64 = i32::MAX as i64;
const RAIL_LO: i64 = i32::MIN as i64;

/// A closed interval of Q16.16 values, stored as raw bit patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    lo: i32,
    hi: i32,
}

impl Interval {
    /// The degenerate interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0, hi: 0 };

    /// The full representable range.
    pub const FULL: Interval = Interval {
        lo: i32::MIN,
        hi: i32::MAX,
    };

    /// The interval `[lo, hi]` of two `Q16` endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: Q16, hi: Q16) -> Self {
        assert!(lo <= hi, "inverted interval");
        Interval {
            lo: lo.raw(),
            hi: hi.raw(),
        }
    }

    /// A single-point interval.
    pub fn constant(v: Q16) -> Self {
        Interval {
            lo: v.raw(),
            hi: v.raw(),
        }
    }

    /// The interval covering `[lo, hi]` after round-to-nearest quantization.
    ///
    /// Quantization is monotone, so quantizing the real endpoints bounds
    /// every quantized sample drawn from the real interval.
    pub fn from_f64(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "inverted interval");
        Interval::new(Q16::from_f64(lo), Q16::from_f64(hi))
    }

    /// Lower endpoint.
    pub fn lo(self) -> Q16 {
        Q16::from_raw(self.lo)
    }

    /// Upper endpoint.
    pub fn hi(self) -> Q16 {
        Q16::from_raw(self.hi)
    }

    /// Lower endpoint as `f64`.
    pub fn lo_f64(self) -> f64 {
        self.lo().to_f64()
    }

    /// Upper endpoint as `f64`.
    pub fn hi_f64(self) -> f64 {
        self.hi().to_f64()
    }

    /// Largest absolute value in the interval, in value units.
    pub fn max_abs(self) -> f64 {
        self.lo_f64().abs().max(self.hi_f64().abs())
    }

    /// Whether the interval contains a value.
    pub fn contains(self, v: Q16) -> bool {
        self.lo <= v.raw() && v.raw() <= self.hi
    }

    /// Whether zero lies in the interval.
    pub fn contains_zero(self) -> bool {
        self.lo <= 0 && 0 <= self.hi
    }

    /// The smallest interval containing both operands.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Clamps a wide (pre-saturation) range to the rails, recording a hazard
    /// when any part of it saturates.
    fn saturate(op: HazardOp, lo: i64, hi: i64, log: &mut OpLog) -> Interval {
        if lo < RAIL_LO || hi > RAIL_HI {
            let bound = (lo.unsigned_abs().max(hi.unsigned_abs())) as f64 / SCALE as f64;
            log.record(op, bound);
        }
        Interval {
            lo: lo.clamp(RAIL_LO, RAIL_HI) as i32,
            hi: hi.clamp(RAIL_LO, RAIL_HI) as i32,
        }
    }

    /// Saturating addition.
    pub fn add(self, rhs: Interval, log: &mut OpLog) -> Interval {
        Interval::saturate(
            HazardOp::Add,
            self.lo as i64 + rhs.lo as i64,
            self.hi as i64 + rhs.hi as i64,
            log,
        )
    }

    /// Saturating subtraction.
    pub fn sub(self, rhs: Interval, log: &mut OpLog) -> Interval {
        Interval::saturate(
            HazardOp::Add,
            self.lo as i64 - rhs.hi as i64,
            self.hi as i64 - rhs.lo as i64,
            log,
        )
    }

    /// `n`-fold accumulation of values drawn from this interval — the
    /// abstract image of `for _ in 0..n { acc += x }`.
    pub fn accumulate(self, n: u32, log: &mut OpLog) -> Interval {
        Interval::saturate(
            HazardOp::Sum,
            self.lo as i64 * n as i64,
            self.hi as i64 * n as i64,
            log,
        )
    }

    /// Saturating multiplication with round-to-nearest, mirroring
    /// `Q16::saturating_mul`. Endpoint products bound the bilinear (and
    /// monotonically rounded) concrete product.
    pub fn mul(self, rhs: Interval, log: &mut OpLog) -> Interval {
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for a in [self.lo, self.hi] {
            for b in [rhs.lo, rhs.hi] {
                let p = mul_round(a as i64, b as i64);
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        Interval::saturate(HazardOp::Mul, lo, hi, log)
    }

    /// Abstract squaring: the image of `x * x` for a *single* value `x`
    /// drawn from the interval, which is tighter than `self.mul(self, ..)`
    /// because both factors are perfectly correlated (the result is never
    /// negative).
    pub fn sqr(self, log: &mut OpLog) -> Interval {
        let cands = [
            mul_round(self.lo as i64, self.lo as i64),
            mul_round(self.hi as i64, self.hi as i64),
        ];
        let hi = cands[0].max(cands[1]);
        let lo = if self.contains_zero() {
            0
        } else {
            cands[0].min(cands[1])
        };
        Interval::saturate(HazardOp::Mul, lo, hi, log)
    }

    /// Saturating division, mirroring `Q16::saturating_div`.
    ///
    /// A divisor interval containing zero makes the quotient unbounded (the
    /// concrete op saturates to a rail); this records a [`HazardOp::Div`]
    /// hazard and returns [`Interval::FULL`].
    pub fn div(self, rhs: Interval, log: &mut OpLog) -> Interval {
        if rhs.contains_zero() {
            log.record(HazardOp::Div, f64::from(i32::MAX) / SCALE as f64);
            return Interval::FULL;
        }
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for a in [self.lo, self.hi] {
            for b in [rhs.lo, rhs.hi] {
                let q = ((a as i64) << FRAC_BITS) / b as i64;
                lo = lo.min(q);
                hi = hi.max(q);
            }
        }
        // Truncating division is monotone in the dividend but its extremes
        // over a divisor range sit at the endpoints only up to rounding;
        // widen by one ulp on both sides to stay sound.
        Interval::saturate(HazardOp::Div, lo - 1, hi + 1, log)
    }

    /// Division by an exact positive integer (`x / from_int(n)`).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 0`.
    pub fn div_int(self, n: i32, log: &mut OpLog) -> Interval {
        assert!(n > 0, "divisor must be positive");
        self.div(Interval::constant(Q16::from_int(n)), log)
    }

    /// Fixed-point square root on both endpoints (`Q16::sqrt` is monotone:
    /// the integer Newton iteration computes a floor-like isqrt).
    pub fn sqrt(self) -> Interval {
        Interval {
            lo: self.lo().sqrt().raw(),
            hi: self.hi().sqrt().raw(),
        }
    }

    /// Fixed-point exponential on both endpoints, recording the exponent
    /// unit's overflow cliff (`x ≥ 11` saturates to `Q16::MAX`).
    pub fn exp(self, log: &mut OpLog) -> Interval {
        if self.hi as i64 >= 11 * SCALE {
            log.record(HazardOp::Exp, (self.hi as f64 / SCALE as f64).exp());
        }
        let a = self.lo().exp().raw();
        let b = self.hi().exp().raw();
        // The polynomial evaluation is monotone only up to rounding; widen
        // by one ulp and clamp to the non-negative exp range.
        Interval {
            lo: a.min(b).saturating_sub(1).max(0),
            hi: a.max(b).saturating_add(1),
        }
    }
}

impl std::ops::Neg for Interval {
    type Output = Interval;

    /// Negation (saturating on `MIN`, like `Q16::neg`).
    fn neg(self) -> Interval {
        Interval {
            lo: self.hi.saturating_neg(),
            hi: self.lo.saturating_neg(),
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.4}, {:.4}]", self.lo_f64(), self.hi_f64())
    }
}

/// The pre-saturation wide product with round-to-nearest, exactly as
/// `Q16::saturating_mul` computes it before clamping.
fn mul_round(a: i64, b: i64) -> i64 {
    (a * b + (1 << (FRAC_BITS - 1))) >> FRAC_BITS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::from_f64(lo, hi)
    }

    /// Samples a handful of concrete values inside an interval.
    fn samples(i: Interval) -> Vec<Q16> {
        let (lo, hi) = (i.lo().raw() as i64, i.hi().raw() as i64);
        (0..=8)
            .map(|k| Q16::from_raw((lo + (hi - lo) * k / 8) as i32))
            .collect()
    }

    #[test]
    fn concrete_ops_stay_inside_abstract_results() {
        let xs = iv(-2.5, 3.0);
        let ys = iv(0.25, 4.0);
        let mut log = OpLog::new();
        let add = xs.add(ys, &mut log);
        let sub = xs.sub(ys, &mut log);
        let mul = xs.mul(ys, &mut log);
        let div = xs.div(ys, &mut log);
        for x in samples(xs) {
            for y in samples(ys) {
                assert!(add.contains(x + y), "{x} + {y}");
                assert!(sub.contains(x - y), "{x} - {y}");
                assert!(mul.contains(x * y), "{x} * {y}");
                assert!(div.contains(x / y), "{x} / {y}");
            }
        }
        assert!(log.hazards().is_empty());
    }

    #[test]
    fn unary_ops_stay_inside_abstract_results() {
        let xs = iv(-1.5, 9.0);
        let mut log = OpLog::new();
        let sq = xs.sqr(&mut log);
        let ex = xs.exp(&mut log);
        for x in samples(xs) {
            assert!(sq.contains(x * x), "{x}^2");
            assert!(ex.contains(x.exp()), "exp({x})");
            if x.raw() >= 0 {
                assert!(xs.sqrt().contains(x.sqrt()), "sqrt({x})");
            }
        }
        assert!(log.hazards().is_empty());
        assert!(!sq.contains_zero() || sq.lo() == Q16::ZERO);
    }

    #[test]
    fn sqr_of_mixed_sign_interval_is_nonnegative() {
        let mut log = OpLog::new();
        let sq = iv(-3.0, 2.0).sqr(&mut log);
        assert_eq!(sq.lo(), Q16::ZERO);
        assert!((sq.hi_f64() - 9.0).abs() < 1e-3);
    }

    #[test]
    fn mul_overflow_is_detected_with_bound() {
        let mut log = OpLog::new();
        let big = iv(-300.0, 300.0);
        big.mul(big, &mut log);
        let worst = log.worst().expect("overflow expected");
        assert_eq!(worst.op, HazardOp::Mul);
        assert!(
            (worst.bound - 90_000.0).abs() < 1.0,
            "bound {}",
            worst.bound
        );
    }

    #[test]
    fn accumulate_matches_repeated_addition() {
        let xs = iv(-0.5, 1.25);
        let mut log = OpLog::new();
        let acc = xs.accumulate(100, &mut log);
        assert!(log.hazards().is_empty());
        assert!((acc.lo_f64() + 50.0).abs() < 1e-3);
        assert!((acc.hi_f64() - 125.0).abs() < 1e-3);
        // Large enough accumulations trip the rail.
        iv(-400.0, 400.0).accumulate(100, &mut log);
        assert_eq!(log.worst().map(|h| h.op), Some(HazardOp::Sum));
    }

    #[test]
    fn division_by_zero_containing_interval_is_flagged() {
        let mut log = OpLog::new();
        let q = iv(1.0, 2.0).div(iv(-1.0, 1.0), &mut log);
        assert_eq!(q, Interval::FULL);
        assert_eq!(log.worst().map(|h| h.op), Some(HazardOp::Div));
    }

    #[test]
    fn exp_cliff_is_flagged() {
        let mut log = OpLog::new();
        let e = iv(0.0, 12.0).exp(&mut log);
        let worst = log.worst().expect("exp overflow expected");
        assert_eq!(worst.op, HazardOp::Exp);
        assert!(worst.bound > 32_768.0);
        assert_eq!(e.hi(), Q16::MAX);
        // Bounded arguments stay silent.
        let mut clean = OpLog::new();
        let e = iv(-12.0, 0.0).exp(&mut clean);
        assert!(clean.hazards().is_empty());
        assert!(e.hi_f64() <= 1.0001);
        assert!(e.lo_f64() >= 0.0);
    }

    #[test]
    fn hull_and_contains() {
        let h = iv(-1.0, 0.5).hull(iv(0.0, 2.0));
        assert_eq!(h, iv(-1.0, 2.0));
        assert!(h.contains(Q16::from_f64(1.7)));
        assert!(!h.contains(Q16::from_f64(2.5)));
        assert!(h.contains_zero());
        assert!((h.max_abs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats_value_units() {
        assert_eq!(iv(-1.0, 2.5).to_string(), "[-1.0000, 2.5000]");
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        Interval::from_f64(2.0, 1.0);
    }
}
