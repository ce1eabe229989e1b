//! Structured results of a streaming run: per-node statistics, aggregator
//! and channel utilization, and fault/adaptation logs. Fleet totals are
//! folds over these typed fields (e.g. [`RunReport::total_completed`]);
//! the report keeps no second, string-keyed copy of them.

use crate::controller::{PartitionSwitch, PlanAudit, TierTimes};
use crate::sketch::QuantileSketch;
use std::fmt::Write as _;
use xpro_analyze::json::JsonWriter;
use xpro_core::PlanCacheStats;

/// Latency percentiles over the completed segments of one node, digested
/// from a fixed-size mergeable [`QuantileSketch`]: `count` and `max_s`
/// are exact, the percentiles and mean carry the sketch's documented
/// worst-case relative error ([`QuantileSketch::REL_ERROR`] ≈ 0.39 %).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of (finite) samples the statistics were computed from
    /// (exact).
    pub count: u64,
    /// Mean latency in seconds (within the sketch error of the exact
    /// sample mean).
    pub mean_s: f64,
    /// Median (within the sketch error).
    pub p50_s: f64,
    /// 95th percentile (within the sketch error).
    pub p95_s: f64,
    /// 99th percentile (within the sketch error).
    pub p99_s: f64,
    /// Worst observed (exact — the sketch tracks the maximum outside the
    /// bucket array, so soundness checks against static WCRT bounds need
    /// no sketch slack).
    pub max_s: f64,
}

impl LatencyStats {
    /// Digests a finished sketch. An empty sketch yields the zeroed
    /// statistics with an explicit `count` of 0, never a panic.
    pub fn from_sketch(sketch: &QuantileSketch) -> Self {
        if sketch.count() == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            count: sketch.count(),
            mean_s: sketch.mean(),
            p50_s: sketch.quantile(0.50),
            p95_s: sketch.quantile(0.95),
            p99_s: sketch.quantile(0.99),
            max_s: sketch.max(),
        }
    }

    /// Statistics of a sample set, via the same sketch the executor
    /// feeds incrementally — bulk construction and one-by-one insertion
    /// are identical by construction (property-tested in the sketch
    /// suite).
    ///
    /// Non-finite samples (NaN, ±∞) are discarded — a NaN must not
    /// poison the percentiles. An empty (or all-non-finite) input yields
    /// the zeroed statistics with an explicit `count` of 0.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        LatencyStats::from_sketch(&QuantileSketch::from_samples(samples))
    }
}

/// One sensor node's view of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Node index in the fleet.
    pub node: usize,
    /// Segments that arrived during the run.
    pub segments_offered: u64,
    /// Segments whose classification result reached the aggregator.
    pub segments_completed: u64,
    /// Segments abandoned after exhausting frame retries.
    pub segments_dropped: u64,
    /// Segments skipped at their deadline (graceful degradation).
    pub segments_timed_out: u64,
    /// Segments lost because the node was down (crash window, reboot
    /// warm-up or battery depletion) or crashed while they were in flight.
    pub segments_lost_to_crash: u64,
    /// Segments intentionally skipped by the controller's shedding tier.
    pub segments_shed: u64,
    /// Segments rejected by the aggregator's bounded inbox.
    pub segments_overflowed: u64,
    /// Segments rejected by the tenant's rate quota at admission (0
    /// without a tenant table).
    pub segments_admission_rejected: u64,
    /// Segments dropped while the tenant was quarantined by its circuit
    /// breaker (0 without a tenant table).
    pub segments_quarantined: u64,
    /// Crashes scheduled for this node during the run.
    pub crashes: u64,
    /// Whether the node exhausted its energy budget and shut down.
    pub battery_depleted: bool,
    /// Frame transmission attempts, including retransmissions.
    pub frame_attempts: u64,
    /// Attempts lost on the link.
    pub frame_drops: u64,
    /// Retransmissions performed.
    pub retries: u64,
    /// Completed segments per simulated second.
    pub throughput_hz: f64,
    /// End-to-end latency of completed segments.
    pub latency: LatencyStats,
    /// In-sensor compute energy spent over the run (pJ).
    pub compute_pj: f64,
    /// Sensor radio energy spent over the run (pJ), retransmissions
    /// included.
    pub wireless_pj: f64,
    /// Sensor battery life at this run's average power draw (hours).
    pub battery_hours: f64,
    /// Fraction of the sensor battery consumed during the run.
    pub battery_drawdown: f64,
}

impl NodeReport {
    /// Total sensor energy over the run in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.wireless_pj
    }

    /// Segments that did not complete, over every loss bucket.
    pub fn segments_lost(&self) -> u64 {
        self.segments_dropped
            + self.segments_timed_out
            + self.segments_lost_to_crash
            + self.segments_shed
            + self.segments_overflowed
            + self.segments_admission_rejected
            + self.segments_quarantined
    }
}

/// The shared aggregator's view of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregatorReport {
    /// Batches the CPU woke up for (consecutive segments processed
    /// back-to-back count as one batch).
    pub batches: u64,
    /// Largest number of segments served in one batch.
    pub max_batch: u64,
    /// Worst inbox occupancy observed (jobs queued or in service) — the
    /// dynamic counterpart of the static queue bound derived by
    /// `xpro_analyze::timing`.
    pub peak_inbox: u64,
    /// Time the CPU spent executing cells.
    pub busy_s: f64,
    /// CPU busy time over the simulated duration.
    pub utilization: f64,
    /// Aggregator energy (radio + compute) over the run (pJ).
    pub energy_pj: f64,
    /// Aggregator battery life at this run's average power draw (hours).
    pub battery_hours: f64,
    /// Total scheduled outage time during the run.
    pub outage_s: f64,
    /// Segments rejected by the bounded inbox (fleet-wide).
    pub inbox_overflows: u64,
    /// Segments rejected by tenant rate quotas (fleet-wide; 0 without a
    /// tenant table).
    pub admission_rejected: u64,
    /// Segments dropped at the door of quarantined tenants (fleet-wide;
    /// 0 without a tenant table).
    pub quarantine_dropped: u64,
}

/// One tenant's view of the run: its nodes' traffic folded in node
/// order, its admission counters, and its tier/breaker history. Present
/// only when the configuration carries a tenant table.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    /// Tenant name from its [`crate::TenantSpec`].
    pub name: String,
    /// First global node index of the tenant's contiguous range.
    pub first_node: usize,
    /// Number of nodes the tenant owns.
    pub nodes: usize,
    /// Segments its nodes offered (arrivals seen).
    pub segments_offered: u64,
    /// Jobs admitted past quota and inbox checks.
    pub admitted: u64,
    /// Segments completed at the aggregator.
    pub completed: u64,
    /// Jobs rejected by the rate quota.
    pub admission_rejected: u64,
    /// Jobs rejected by inbox capacity (reserved + shared exhausted).
    pub inbox_overflow: u64,
    /// Jobs dropped while quarantined.
    pub quarantine_dropped: u64,
    /// Times the circuit breaker tripped.
    pub quarantines: u64,
    /// Reserved inbox slots under the weighted-fair split.
    pub reserved_inbox: u64,
    /// Worst per-tenant inbox occupancy observed.
    pub peak_inbox: u64,
    /// Completed over offered (0 when nothing was offered).
    pub delivery_rate: f64,
    /// End-to-end latency over the tenant's completed segments.
    pub latency: LatencyStats,
    /// Time the tenant spent per degradation tier.
    pub tier_times: TierTimes,
}

/// Results of one [`crate::FleetExecutor::run`]. Deliberately ignorant of
/// how the run was sharded: the report is byte-identical for any shard
/// count.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Per-node statistics, indexed by node.
    pub nodes: Vec<NodeReport>,
    /// Per-tenant statistics, in tenant declaration order (empty without
    /// a tenant table).
    pub tenants: Vec<TenantReport>,
    /// Fleet-wide latency, digested from the merge of every node's
    /// quantile sketch (merged in global node order; exact count/max,
    /// sketch-bounded percentiles).
    pub fleet: LatencyStats,
    /// Aggregator statistics.
    pub aggregator: AggregatorReport,
    /// Time the shared channel carried frames.
    pub channel_busy_s: f64,
    /// Channel busy time over the simulated duration.
    pub channel_utilization: f64,
    /// Time the bursty channel spent in its bad state (0 without bursts).
    pub channel_bad_s: f64,
    /// Every partition switch the adaptive controller applied, in order.
    pub partition_switches: Vec<PartitionSwitch>,
    /// Time the run spent per degradation tier (all normal when the
    /// controller is off).
    pub tier_times: TierTimes,
    /// Certified vs rejected epoch plans: every re-plan's min-cut
    /// certificate is re-checked before the cut is committed (all zero
    /// when the controller is off or never left the band).
    pub plan_audit: PlanAudit,
    /// The controller's memoized plan-cache counters: hits (re-verified
    /// against the min-cut certificate), misses (fresh λ-sweeps) and
    /// rejected entries (failed re-verification, evicted and
    /// regenerated). All zero when the controller is off.
    pub plan_cache: PlanCacheStats,
}

impl RunReport {
    /// Segments completed fleet-wide.
    pub fn total_completed(&self) -> u64 {
        self.nodes.iter().map(|n| n.segments_completed).sum()
    }

    /// Segments lost fleet-wide: retry exhaustion, deadline skips, crash
    /// and battery losses, controller shedding and inbox overflows.
    pub fn total_lost(&self) -> u64 {
        self.nodes.iter().map(NodeReport::segments_lost).sum()
    }

    /// Retransmissions fleet-wide.
    pub fn total_retries(&self) -> u64 {
        self.nodes.iter().map(|n| n.retries).sum()
    }

    /// Fleet-wide latency over every completed segment: the digest of
    /// the merged per-node sketches, within [`QuantileSketch::REL_ERROR`].
    pub fn fleet_latency(&self) -> LatencyStats {
        self.fleet
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fleet = self.fleet_latency();
        let _ = writeln!(
            out,
            "fleet: {} nodes, {:.1} s simulated — {} segments completed, {} lost, {} retries",
            self.nodes.len(),
            self.duration_s,
            self.total_completed(),
            self.total_lost(),
            self.total_retries(),
        );
        let _ = writeln!(
            out,
            "latency (fleet): p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
            fleet.p50_s * 1e3,
            fleet.p95_s * 1e3,
            fleet.p99_s * 1e3,
            fleet.max_s * 1e3,
        );
        let _ = writeln!(
            out,
            "channel: {:.1} % busy; aggregator CPU: {:.1} % busy, {} batches (max {}), inbox peak {}",
            self.channel_utilization * 100.0,
            self.aggregator.utilization * 100.0,
            self.aggregator.batches,
            self.aggregator.max_batch,
            self.aggregator.peak_inbox,
        );
        let crashes: u64 = self.nodes.iter().map(|n| n.crashes).sum();
        if crashes > 0
            || self.channel_bad_s > 0.0
            || self.aggregator.outage_s > 0.0
            || self.aggregator.inbox_overflows > 0
        {
            let _ = writeln!(
                out,
                "faults: {} crashes, {:.1} s channel bursts, {:.1} s aggregator outage, {} inbox overflows",
                crashes,
                self.channel_bad_s,
                self.aggregator.outage_s,
                self.aggregator.inbox_overflows,
            );
        }
        if !self.tenants.is_empty() {
            let _ = writeln!(
                out,
                "{:>12} {:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>5} {:>9} {:>7}",
                "tenant",
                "nodes",
                "offered",
                "done",
                "quota-rej",
                "overflow",
                "quarant",
                "trips",
                "p99 ms",
                "deliv %"
            );
            for t in &self.tenants {
                let _ = writeln!(
                    out,
                    "{:>12} {:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>5} {:>9.3} {:>7.1}",
                    t.name,
                    t.nodes,
                    t.segments_offered,
                    t.completed,
                    t.admission_rejected,
                    t.inbox_overflow,
                    t.quarantine_dropped,
                    t.quarantines,
                    t.latency.p99_s * 1e3,
                    t.delivery_rate * 100.0,
                );
            }
        }
        if !self.partition_switches.is_empty()
            || self.tier_times.classify_only_s > 0.0
            || self.tier_times.shed_s > 0.0
        {
            let _ = writeln!(
                out,
                "adaptation: {} partition switches ({} plans certified, {} rejected); tiers: {:.1} s normal, {:.1} s classify-only, {:.1} s shed",
                self.partition_switches.len(),
                self.plan_audit.certified,
                self.plan_audit.rejected,
                self.tier_times.normal_s,
                self.tier_times.classify_only_s,
                self.tier_times.shed_s,
            );
            if self.plan_cache.hits + self.plan_cache.misses > 0 {
                let _ = writeln!(
                    out,
                    "plan cache: {} hits, {} misses, {} rejected ({:.0} % hit rate)",
                    self.plan_cache.hits,
                    self.plan_cache.misses,
                    self.plan_cache.rejected,
                    self.plan_cache.hit_rate() * 100.0,
                );
            }
            for s in &self.partition_switches {
                let _ = writeln!(
                    out,
                    "  t={:<8.3} -> {} ({} sensor cells, factor {:.2})",
                    s.time_s,
                    s.tier.as_str(),
                    s.sensor_cells,
                    s.factor,
                );
            }
        }
        let _ = writeln!(
            out,
            "{:>4} {:>9} {:>9} {:>6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>12}",
            "node",
            "offered",
            "done",
            "lost",
            "retries",
            "p50 ms",
            "p99 ms",
            "thru Hz",
            "energy nJ",
            "battery h"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "{:>4} {:>9} {:>9} {:>6} {:>7} {:>9.3} {:>9.3} {:>9.2} {:>10.2} {:>12.1}",
                n.node,
                n.segments_offered,
                n.segments_completed,
                n.segments_lost(),
                n.retries,
                n.latency.p50_s * 1e3,
                n.latency.p99_s * 1e3,
                n.throughput_hz,
                n.total_pj() * 1e-3,
                n.battery_hours,
            );
        }
        out
    }

    /// The report as a JSON object. Every byte is appended by the shared
    /// [`JsonWriter`] straight into a buffer sized for the node records,
    /// which dominate large fleets; float texts are memoized per report,
    /// so a large fleet's repeated values are formatted once.
    pub fn to_json(&self) -> String {
        // Node records run ~560 bytes each.
        let mut w = JsonWriter::new(
            1024 + 640 * self.nodes.len() + 512 * self.tenants.len(),
            // Ten floats per node record, a few dozen elsewhere.
            10 * self.nodes.len() + 32 * (self.tenants.len() + 2),
        );
        let fleet = self.fleet_latency();
        w.float("{\"duration_s\":", self.duration_s);
        w.uint(",\"completed\":", self.total_completed());
        w.uint(",\"lost\":", self.total_lost());
        w.uint(",\"retries\":", self.total_retries());
        latency(&mut w, ",\"latency\":", &fleet);
        w.float(",\"channel_utilization\":", self.channel_utilization);
        w.float(",\"channel_bad_s\":", self.channel_bad_s);
        w.raw(",\"partition_switches\":[");
        for (i, s) in self.partition_switches.iter().enumerate() {
            w.float(
                if i == 0 {
                    "{\"time_s\":"
                } else {
                    ",{\"time_s\":"
                },
                s.time_s,
            );
            w.string(",\"tier\":", s.tier.as_str());
            w.uint(",\"sensor_cells\":", s.sensor_cells as u64);
            w.float(",\"factor\":", s.factor);
            w.raw("}");
        }
        tier_times(&mut w, "],\"tier_times\":", &self.tier_times);
        w.uint(",\"plan_audit\":{\"certified\":", self.plan_audit.certified);
        w.uint(",\"rejected\":", self.plan_audit.rejected);
        w.uint("},\"plan_cache\":{\"hits\":", self.plan_cache.hits);
        w.uint(",\"misses\":", self.plan_cache.misses);
        w.uint(",\"rejected\":", self.plan_cache.rejected);
        let agg = &self.aggregator;
        w.uint("},\"aggregator\":{\"batches\":", agg.batches);
        w.uint(",\"max_batch\":", agg.max_batch);
        w.uint(",\"peak_inbox\":", agg.peak_inbox);
        w.float(",\"busy_s\":", agg.busy_s);
        w.float(",\"utilization\":", agg.utilization);
        w.float(",\"energy_pj\":", agg.energy_pj);
        w.float(",\"battery_hours\":", agg.battery_hours);
        w.float(",\"outage_s\":", agg.outage_s);
        w.uint(",\"inbox_overflows\":", agg.inbox_overflows);
        w.uint(",\"admission_rejected\":", agg.admission_rejected);
        w.uint(",\"quarantine_dropped\":", agg.quarantine_dropped);
        w.raw("},\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            w.string(if i == 0 { "{\"name\":" } else { ",{\"name\":" }, &t.name);
            w.uint(",\"first_node\":", t.first_node as u64);
            w.uint(",\"nodes\":", t.nodes as u64);
            w.uint(",\"offered\":", t.segments_offered);
            w.uint(",\"admitted\":", t.admitted);
            w.uint(",\"completed\":", t.completed);
            w.uint(",\"admission_rejected\":", t.admission_rejected);
            w.uint(",\"inbox_overflow\":", t.inbox_overflow);
            w.uint(",\"quarantine_dropped\":", t.quarantine_dropped);
            w.uint(",\"quarantines\":", t.quarantines);
            w.uint(",\"reserved_inbox\":", t.reserved_inbox);
            w.uint(",\"peak_inbox\":", t.peak_inbox);
            w.float(",\"delivery_rate\":", t.delivery_rate);
            latency(&mut w, ",\"latency\":", &t.latency);
            tier_times(&mut w, ",\"tier_times\":", &t.tier_times);
            w.raw("}");
        }
        w.raw("],\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            w.uint(
                if i == 0 { "{\"node\":" } else { ",{\"node\":" },
                n.node as u64,
            );
            w.uint(",\"offered\":", n.segments_offered);
            w.uint(",\"completed\":", n.segments_completed);
            w.uint(",\"dropped\":", n.segments_dropped);
            w.uint(",\"timed_out\":", n.segments_timed_out);
            w.uint(",\"lost_to_crash\":", n.segments_lost_to_crash);
            w.uint(",\"shed\":", n.segments_shed);
            w.uint(",\"overflowed\":", n.segments_overflowed);
            w.uint(",\"admission_rejected\":", n.segments_admission_rejected);
            w.uint(",\"quarantined\":", n.segments_quarantined);
            w.uint(",\"crashes\":", n.crashes);
            w.raw(if n.battery_depleted {
                ",\"battery_depleted\":true"
            } else {
                ",\"battery_depleted\":false"
            });
            w.uint(",\"frame_attempts\":", n.frame_attempts);
            w.uint(",\"frame_drops\":", n.frame_drops);
            w.uint(",\"retries\":", n.retries);
            w.float(",\"throughput_hz\":", n.throughput_hz);
            latency(&mut w, ",\"latency\":", &n.latency);
            w.float(",\"compute_pj\":", n.compute_pj);
            w.float(",\"wireless_pj\":", n.wireless_pj);
            w.float(",\"battery_hours\":", n.battery_hours);
            w.float(",\"battery_drawdown\":", n.battery_drawdown);
            w.raw("}");
        }
        w.raw("]}");
        w.finish()
    }
}

/// `prefix`, then `l` as a JSON object.
fn latency(w: &mut JsonWriter, prefix: &str, l: &LatencyStats) {
    w.raw(prefix);
    w.uint("{\"count\":", l.count);
    w.float(",\"mean_s\":", l.mean_s);
    w.float(",\"p50_s\":", l.p50_s);
    w.float(",\"p95_s\":", l.p95_s);
    w.float(",\"p99_s\":", l.p99_s);
    w.float(",\"max_s\":", l.max_s);
    w.raw("}");
}

/// `prefix`, then `t` as a JSON object.
fn tier_times(w: &mut JsonWriter, prefix: &str, t: &TierTimes) {
    w.raw(prefix);
    w.float("{\"normal_s\":", t.normal_s);
    w.float(",\"classify_only_s\":", t.classify_only_s);
    w.float(",\"shed_s\":", t.shed_s);
    w.raw("}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_track_order_statistics_within_the_sketch_bound() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-2).collect();
        let s = LatencyStats::from_samples(samples);
        assert_eq!(s.count, 100, "count is exact");
        assert_eq!(s.max_s, 1.0, "max is exact");
        let err = QuantileSketch::REL_ERROR;
        for (got, exact) in [(s.p50_s, 0.50), (s.p95_s, 0.95), (s.p99_s, 0.99)] {
            assert!((got - exact).abs() / exact <= err, "{got} vs exact {exact}");
        }
        assert!((s.mean_s - 0.505).abs() / 0.505 <= err);
        assert!(s.p50_s <= s.p95_s && s.p95_s <= s.p99_s && s.p99_s <= s.max_s);
    }

    #[test]
    fn empty_latency_is_all_zero_with_zero_count() {
        let s = LatencyStats::from_samples(Vec::new());
        assert_eq!(s, LatencyStats::default());
        assert_eq!(s.count, 0);
    }

    #[test]
    fn single_sample_fills_every_percentile() {
        let s = LatencyStats::from_samples(vec![0.25]);
        assert_eq!(s.p50_s, 0.25);
        assert_eq!(s.p99_s, 0.25);
        assert_eq!(s.max_s, 0.25);
    }

    #[test]
    fn nan_samples_do_not_poison_the_statistics() {
        let s = LatencyStats::from_samples(vec![f64::NAN, 3.0, 1.0, f64::NAN, 2.0]);
        assert_eq!(s.count, 3, "NaNs are discarded, not counted");
        assert!((s.p50_s - 2.0).abs() / 2.0 <= QuantileSketch::REL_ERROR);
        assert_eq!(s.max_s, 3.0, "max is exact");
        assert!((s.mean_s - 2.0).abs() / 2.0 <= QuantileSketch::REL_ERROR);
        assert!(s.mean_s.is_finite() && s.p99_s.is_finite());
    }

    #[test]
    fn infinities_are_discarded_too() {
        let s = LatencyStats::from_samples(vec![f64::INFINITY, 5.0, f64::NEG_INFINITY]);
        assert_eq!(s.count, 1);
        assert_eq!(s.max_s, 5.0);
    }

    #[test]
    fn all_non_finite_input_degrades_to_the_empty_stats() {
        let s = LatencyStats::from_samples(vec![f64::NAN, f64::INFINITY]);
        assert_eq!(s, LatencyStats::default());
        assert_eq!(s.count, 0);
    }
}
