//! Abstract operation counts of a functional cell.
//!
//! The paper characterizes each functional cell with Synopsys VCS/DC/Power
//! Compiler on TSMC standard-cell libraries (§4.3). Without those proprietary
//! tools, we characterize cells analytically: each cell is reduced to counts
//! of datapath operations, and the [`crate::library::CellCostModel`] prices
//! those operations per process node and ALU mode. `DESIGN.md` §3 documents
//! this substitution.

use std::ops::{Add, AddAssign, Mul};

/// Datapath operation classes of the specialized ALU (S-ALU, paper §3.1.1).
///
/// `Exp`, `Sqrt` and `Div` belong to the "super computation" unit the paper
/// calls out ("exponent, square root and reciprocal").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Addition / subtraction.
    Add,
    /// Comparison (also sign tests).
    Cmp,
    /// Multiplication.
    Mul,
    /// Division / reciprocal.
    Div,
    /// Square root (iterative in serial mode).
    Sqrt,
    /// Exponential (RBF kernel).
    Exp,
    /// Buffer/memory access.
    Mem,
}

impl Op {
    /// All operation classes.
    pub const ALL: [Op; 7] = [
        Op::Add,
        Op::Cmp,
        Op::Mul,
        Op::Div,
        Op::Sqrt,
        Op::Exp,
        Op::Mem,
    ];
}

/// Operation counts of one functional cell per event (one segment analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct OpCounts {
    /// Additions / subtractions.
    pub add: u64,
    /// Comparisons.
    pub cmp: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions.
    pub div: u64,
    /// Square roots.
    pub sqrt: u64,
    /// Exponentials.
    pub exp: u64,
    /// Memory/buffer accesses.
    pub mem: u64,
}

impl OpCounts {
    /// A zero count.
    pub const ZERO: OpCounts = OpCounts {
        add: 0,
        cmp: 0,
        mul: 0,
        div: 0,
        sqrt: 0,
        exp: 0,
        mem: 0,
    };

    /// Count for one operation class.
    pub fn get(&self, op: Op) -> u64 {
        match op {
            Op::Add => self.add,
            Op::Cmp => self.cmp,
            Op::Mul => self.mul,
            Op::Div => self.div,
            Op::Sqrt => self.sqrt,
            Op::Exp => self.exp,
            Op::Mem => self.mem,
        }
    }

    /// Total number of operations of all classes.
    pub fn total(&self) -> u64 {
        Op::ALL.iter().map(|&op| self.get(op)).sum()
    }

    /// `true` when every count is zero.
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }

    /// Iterates `(op, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        Op::ALL
            .iter()
            .map(move |&op| (op, self.get(op)))
            .filter(|&(_, n)| n > 0)
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            add: self.add + rhs.add,
            cmp: self.cmp + rhs.cmp,
            mul: self.mul + rhs.mul,
            div: self.div + rhs.div,
            sqrt: self.sqrt + rhs.sqrt,
            exp: self.exp + rhs.exp,
            mem: self.mem + rhs.mem,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for OpCounts {
    type Output = OpCounts;
    fn mul(self, k: u64) -> OpCounts {
        OpCounts {
            add: self.add * k,
            cmp: self.cmp * k,
            mul: self.mul * k,
            div: self.div * k,
            sqrt: self.sqrt * k,
            exp: self.exp * k,
            mem: self.mem * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_classes() {
        let ops = OpCounts {
            add: 1,
            cmp: 2,
            mul: 3,
            div: 4,
            sqrt: 5,
            exp: 6,
            mem: 7,
        };
        assert_eq!(ops.total(), 28);
        assert!(!ops.is_zero());
        assert!(OpCounts::ZERO.is_zero());
    }

    #[test]
    fn get_matches_fields() {
        let ops = OpCounts {
            mul: 9,
            ..OpCounts::ZERO
        };
        assert_eq!(ops.get(Op::Mul), 9);
    }

    #[test]
    fn add_and_scale_are_fieldwise() {
        let a = OpCounts {
            add: 1,
            mul: 2,
            ..OpCounts::ZERO
        };
        let b = OpCounts {
            add: 3,
            exp: 1,
            ..OpCounts::ZERO
        };
        let sum = a + b;
        assert_eq!(sum.add, 4);
        assert_eq!(sum.mul, 2);
        assert_eq!(sum.exp, 1);
        let scaled = a * 3;
        assert_eq!(scaled.add, 3);
        assert_eq!(scaled.mul, 6);
    }

    #[test]
    fn iter_skips_zero_counts() {
        let ops = OpCounts {
            mul: 5,
            mem: 2,
            ..OpCounts::ZERO
        };
        let pairs: Vec<(Op, u64)> = ops.iter().collect();
        assert_eq!(pairs, vec![(Op::Mul, 5), (Op::Mem, 2)]);
    }
}
