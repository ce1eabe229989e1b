//! The asynchronous micro-computing-unit state machine of a functional cell
//! (paper Fig. 3).
//!
//! Each cell is "an independent and asynchronous micro-computing unit" with
//! a private S-ALU, buffer and clock, controlled by an Enable module: while
//! inputs are missing the cell idles with every processing module
//! power-gated; when the last input arrives it wakes (paying the wake-up
//! energy once), runs for its latency, emits an ACK and returns to idle.
//! This module models that control behaviour cycle-accurately; the
//! energy/latency numbers come from [`crate::library::CellCostModel`].

use crate::library::CellCost;

/// Operating state of a functional cell (paper §3.1.1: "the functional cell
/// has two states, idle and working").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellState {
    /// Power-gated: only the input channel passively waits for data.
    Idle,
    /// All modules woken (clock, MUX, S-ALU, buffer); computing.
    Working {
        /// Cycles of work remaining.
        remaining: u64,
    },
}

/// One asynchronous functional-cell unit.
#[derive(Clone, Debug, PartialEq)]
pub struct CellUnit {
    num_inputs: usize,
    cost: CellCost,
    ready: Vec<bool>,
    state: CellState,
    /// Completed activations (events processed).
    completions: u64,
}

impl CellUnit {
    /// Creates an idle unit expecting `num_inputs` data-ready signals.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs == 0`.
    pub fn new(num_inputs: usize, cost: CellCost) -> Self {
        assert!(num_inputs > 0, "a cell consumes at least one input");
        CellUnit {
            num_inputs,
            cost,
            ready: vec![false; num_inputs],
            state: CellState::Idle,
            completions: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> CellState {
        self.state
    }

    /// Asserts the data-ready line of one input (paper Fig. 3: "Data Ready
    /// N"). Returns `true` if this was the last missing input and the cell
    /// transitioned to working.
    ///
    /// Data arriving while the cell is working is buffered for the next
    /// activation (the input buffer of Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn offer_input(&mut self, input: usize) -> bool {
        assert!(input < self.num_inputs, "input index out of range");
        self.ready[input] = true;
        if self.state == CellState::Idle && self.ready.iter().all(|&r| r) {
            self.state = CellState::Working {
                remaining: self.cost.cycles,
            };
            true
        } else {
            false
        }
    }

    /// Advances the private clock by one cycle. Returns `true` on the cycle
    /// the cell completes (the ACK pulse of Fig. 3).
    pub fn tick(&mut self) -> bool {
        match self.state {
            CellState::Idle => false,
            CellState::Working { remaining } => {
                if remaining <= 1 {
                    self.state = CellState::Idle;
                    self.completions += 1;
                    for r in &mut self.ready {
                        *r = false;
                    }
                    true
                } else {
                    self.state = CellState::Working {
                        remaining: remaining - 1,
                    };
                    false
                }
            }
        }
    }

    /// Energy consumed so far in pJ: one full cell activation per
    /// completion (the cost model already folds in the wake-up energy).
    pub fn energy_pj(&self) -> f64 {
        self.completions as f64 * self.cost.energy_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(inputs: usize, cycles: u64) -> CellUnit {
        CellUnit::new(
            inputs,
            CellCost {
                energy_pj: 1000.0,
                cycles,
            },
        )
    }

    #[test]
    fn idles_until_all_inputs_arrive() {
        let mut cell = unit(3, 5);
        assert_eq!(cell.state(), CellState::Idle);
        assert!(!cell.offer_input(0));
        assert!(!cell.offer_input(2));
        assert!(!cell.tick(), "must not run on partial inputs");
        assert_eq!(cell.state(), CellState::Idle);
        assert!(cell.offer_input(1), "last input wakes the cell");
        assert!(matches!(cell.state(), CellState::Working { remaining: 5 }));
    }

    #[test]
    fn works_for_exactly_its_latency() {
        let mut cell = unit(1, 3);
        cell.offer_input(0);
        assert!(!cell.tick());
        assert!(!cell.tick());
        assert!(cell.tick(), "third cycle completes");
        assert_eq!(cell.state(), CellState::Idle);
        assert_eq!(cell.energy_pj(), 1000.0);
    }

    #[test]
    fn ready_lines_clear_after_completion() {
        let mut cell = unit(2, 1);
        cell.offer_input(0);
        cell.offer_input(1);
        cell.tick();
        // A single input is not enough for the next event.
        assert!(!cell.offer_input(0));
        assert_eq!(cell.state(), CellState::Idle);
    }

    #[test]
    fn duplicate_ready_signals_are_idempotent() {
        let mut cell = unit(2, 2);
        assert!(!cell.offer_input(0));
        assert!(!cell.offer_input(0));
        assert!(cell.offer_input(1));
        assert!(matches!(cell.state(), CellState::Working { remaining: 2 }));
    }

    #[test]
    fn energy_accrues_per_completion() {
        let mut cell = unit(1, 2);
        for _ in 0..3 {
            cell.offer_input(0);
            cell.tick();
            cell.tick();
        }
        assert_eq!(cell.energy_pj(), 3000.0);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_rejected() {
        unit(0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_input_rejected() {
        unit(1, 1).offer_input(1);
    }
}
