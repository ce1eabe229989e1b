//! Node lifecycle faults: crash/reboot windows and aggregator outages.
//!
//! Crash schedules are *precomputed* per node from exponential up/down
//! draws on a dedicated, node-salted RNG stream. Like the burst channel's
//! state chain, this makes the fault environment a pure function of the
//! seed and the lifecycle parameters: an adaptive run and a static run
//! with the same seed crash at the same instants, so their outcomes are
//! directly comparable.
//!
//! Aggregator outages are deterministic periodic windows (the k-th outage,
//! k ≥ 1, covers `[k·period, k·period + duration)`), modelling scheduled
//! unavailability such as gateway radio duty-cycling or phone OS doze.

use crate::rng::{stream_seed, XorShiftRng};

/// Salt multiplied by `(node + 1)` and XOR-ed into the seed so each node's
/// lifecycle draws come from an independent stream.
const LIFECYCLE_STREAM_SALT: u64 = 0x5851_F42D_4C95_7F2D;

/// Precomputed crash schedule of one node.
///
/// `windows` holds the node's down intervals `[start, end)` — crash to end
/// of reboot warm-up — sorted and non-overlapping by construction.
#[derive(Clone, Debug, Default)]
pub struct NodeLifecycle {
    windows: Vec<(f64, f64)>,
}

impl NodeLifecycle {
    /// A node that never crashes.
    pub fn healthy() -> Self {
        NodeLifecycle::default()
    }

    /// Draws the crash schedule of node `node` over `[0, duration_s)`:
    /// exponential up-times with mean `mtbf_s`, exponential repair times
    /// with mean `mttr_s`, plus a fixed `warmup_s` after every repair
    /// before the node produces segments again.
    pub fn generate(
        node: usize,
        mtbf_s: f64,
        mttr_s: f64,
        warmup_s: f64,
        duration_s: f64,
        seed: u64,
    ) -> Self {
        if mtbf_s <= 0.0 {
            return NodeLifecycle::healthy();
        }
        let mut rng = XorShiftRng::new(stream_seed(seed, LIFECYCLE_STREAM_SALT, node as u64));
        let mut exp = move |mean: f64| -> f64 {
            // Inverse-CDF sample; next_f64() < 1 keeps ln(1-u) finite.
            -mean * (1.0 - rng.next_f64()).ln()
        };
        let mut windows = Vec::new();
        let mut t = 0.0;
        loop {
            t += exp(mtbf_s);
            if t >= duration_s {
                break;
            }
            let down = exp(mttr_s) + warmup_s;
            windows.push((t, t + down));
            t += down;
        }
        NodeLifecycle { windows }
    }

    /// If the node is down at `t_s`, returns when its current down window
    /// ends (crash repair + warm-up).
    pub fn down_at(&self, t_s: f64) -> Option<f64> {
        self.windows
            .iter()
            .find(|(start, end)| (*start..*end).contains(&t_s))
            .map(|(_, end)| *end)
    }

    /// Whether a segment in flight since `arrival_s` is lost by time
    /// `now_s`: the node is currently down, or it crashed somewhere in
    /// `(arrival_s, now_s]` (a reboot wipes in-flight segment state, so
    /// the segment is gone even if the node is back up).
    pub fn interrupted(&self, arrival_s: f64, now_s: f64) -> bool {
        self.down_at(now_s).is_some()
            || self
                .windows
                .iter()
                .any(|(start, _)| *start > arrival_s && *start <= now_s)
    }

    /// Number of crashes scheduled within the run.
    pub fn crashes(&self) -> u64 {
        self.windows.len() as u64
    }
}

/// Deterministic periodic aggregator outage schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutageSchedule {
    period_s: f64,
    duration_s: f64,
}

impl OutageSchedule {
    /// Recurring outages of `duration_s` every `period_s` (first at
    /// `period_s`, never at t = 0). Non-positive values disable it.
    pub fn new(period_s: f64, duration_s: f64) -> Self {
        if period_s > 0.0 && duration_s > 0.0 {
            OutageSchedule {
                period_s,
                duration_s,
            }
        } else {
            OutageSchedule::default()
        }
    }

    /// If the aggregator is out at `t_s`, returns when the window ends.
    pub fn outage_at(&self, t_s: f64) -> Option<f64> {
        if self.period_s <= 0.0 {
            return None;
        }
        let k = (t_s / self.period_s).floor();
        if k >= 1.0 && t_s < k * self.period_s + self.duration_s {
            Some(k * self.period_s + self.duration_s)
        } else {
            None
        }
    }

    /// Total outage time overlapping `[0, run_s)`.
    pub fn total_outage_s(&self, run_s: f64) -> f64 {
        if self.period_s <= 0.0 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut k = 1.0;
        while k * self.period_s < run_s {
            total += self.duration_s.min(run_s - k * self.period_s);
            k += 1.0;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_node_is_always_up() {
        let life = NodeLifecycle::healthy();
        assert_eq!(life.down_at(0.0), None);
        assert_eq!(life.down_at(1e6), None);
        assert!(!life.interrupted(0.0, 1e6));
        assert_eq!(life.crashes(), 0);
    }

    #[test]
    fn generated_windows_are_sorted_and_disjoint() {
        let life = NodeLifecycle::generate(3, 5.0, 1.0, 0.25, 1_000.0, 42);
        assert!(life.crashes() > 10, "expected many crashes over 1000 s");
        for pair in life.windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlapping windows {pair:?}");
        }
        for (start, end) in &life.windows {
            assert!(end - start >= 0.25, "warm-up not applied: {start}..{end}");
            assert!(*start < 1_000.0);
        }
    }

    #[test]
    fn down_at_and_interrupted_agree_with_the_windows() {
        let life = NodeLifecycle {
            windows: vec![(2.0, 3.0), (10.0, 12.5)],
        };
        assert_eq!(life.down_at(2.5), Some(3.0));
        assert_eq!(life.down_at(3.0), None); // end is exclusive
        assert_eq!(life.down_at(11.0), Some(12.5));
        // Crash at 2.0 wipes a segment that arrived at 1.5 even though the
        // node is back up at 5.0.
        assert!(life.interrupted(1.5, 5.0));
        // A segment arriving after the reboot is fine.
        assert!(!life.interrupted(3.5, 5.0));
        // Currently down counts as interrupted regardless of arrival.
        assert!(life.interrupted(10.5, 11.0));
        assert_eq!(life.crashes(), 2);
    }

    #[test]
    fn same_seed_reproduces_the_schedule_per_node() {
        let a = NodeLifecycle::generate(1, 7.0, 2.0, 0.0, 500.0, 9);
        let b = NodeLifecycle::generate(1, 7.0, 2.0, 0.0, 500.0, 9);
        assert_eq!(a.windows, b.windows);
        let c = NodeLifecycle::generate(2, 7.0, 2.0, 0.0, 500.0, 9);
        assert_ne!(a.windows, c.windows, "nodes must draw distinct streams");
    }

    #[test]
    fn outage_schedule_is_periodic_and_skips_time_zero() {
        let sched = OutageSchedule::new(10.0, 2.0);
        assert_eq!(sched.outage_at(0.0), None);
        assert_eq!(sched.outage_at(1.0), None);
        assert_eq!(sched.outage_at(10.0), Some(12.0));
        assert_eq!(sched.outage_at(11.999), Some(12.0));
        assert_eq!(sched.outage_at(12.0), None);
        assert_eq!(sched.outage_at(20.5), Some(22.0));
        assert!((sched.total_outage_s(35.0) - 6.0).abs() < 1e-12);
        assert!((sched.total_outage_s(11.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_outage_schedule_is_inert() {
        let sched = OutageSchedule::new(0.0, 5.0);
        assert_eq!(sched.outage_at(100.0), None);
        assert_eq!(sched.total_outage_s(1e6), 0.0);
    }
}
