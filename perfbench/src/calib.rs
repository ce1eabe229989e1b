//! A fixed reference kernel timed between the workload's passes, so each
//! timing can be scaled to a host of fixed speed.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to ~30 %
//! over tens of seconds (neighbours' load on the shared cache, memory and
//! power budget), in CPU time as well as wall time. Medians inside one run
//! cannot remove drift that lasts longer than the run. The kernel below is
//! the benchmark's own code and calls nothing in the repository, so no
//! change to the program under test can change its cost; only the host
//! can. Dividing a timing by the kernel's time around it removes the
//! host's speed from the timing while keeping every change of the
//! program's own cost.

use std::hint::black_box;
use std::time::Instant;

/// Median time of one [`Reference::time`] call on the host the benchmark
/// was sized on (shared x86-64 VM, 2 vCPUs at 2.1 GHz). A scaled timing
/// reads as the time on a host where the kernel takes this long.
pub const NOMINAL_REF_S: f64 = 0.040;

/// Entries of the pointer-chase table (32 MiB of `u32`): far beyond L2,
/// like the fleet state the executor walks.
const CHASE_ENTRIES: usize = 1 << 23;
/// Dependent loads per chase.
const CHASE_STEPS: usize = 100_000;
/// Register-only arithmetic steps per call.
const COMPUTE_STEPS: u64 = 4_000_000;

/// The reference kernel: register arithmetic, a dependent random walk
/// over a table beyond L2, and a sequential read of that table (about 15,
/// 15 and 6 ms on the host [`NOMINAL_REF_S`] was measured on).
#[derive(Debug)]
pub struct Reference {
    next: Vec<u32>,
    at: u32,
}

impl Reference {
    /// Builds the chase table: one random cycle through every entry
    /// (Sattolo's algorithm over a fixed xorshift stream), then runs the
    /// kernel once to warm it.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE_ENTRIES).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        let mut r = Reference { next, at: 0 };
        r.time();
        r
    }

    /// Runs the kernel once and returns its host time in seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let (mut a, mut f) = (0x2545_f491_4f6c_dd1du64, 1.0f64);
        for i in 0..COMPUTE_STEPS {
            a = xorshift(a);
            f = f.mul_add(1.000_000_1, (a & 0xff) as f64 * 1e-9) - (i & 1) as f64 * 1e-12;
        }
        black_box((a, f));
        let mut at = self.at;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        let sum = self
            .next
            .iter()
            .fold(0u64, |s, &v| s.wrapping_add(u64::from(v)));
        black_box(sum);
        t0.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Factor that scales a timing taken between two kernel calls of
/// `before_s` and `after_s` to the nominal host.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    2.0 * NOMINAL_REF_S / (before_s + after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_table_is_one_cycle_through_every_entry() {
        let r = Reference::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = r.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_ENTRIES);
    }

    #[test]
    fn scale_is_one_at_the_nominal_speed_and_halves_on_a_slow_host() {
        assert!((scale(NOMINAL_REF_S, NOMINAL_REF_S) - 1.0).abs() < 1e-12);
        assert!((scale(2.0 * NOMINAL_REF_S, 2.0 * NOMINAL_REF_S) - 0.5).abs() < 1e-12);
    }
}
