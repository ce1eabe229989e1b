//! The adaptive cross-end partition controller.
//!
//! The static generator picks a partition assuming the radio's nominal
//! per-bit prices. A deployed channel drifts: bursts, interference and
//! contention inflate the attempts actually paid per planned frame. The
//! controller closes the loop:
//!
//! 1. every terminal frame outcome feeds a sliding-window
//!    [`EffectiveEnergyEstimator`] (attempts per planned frame);
//! 2. when the estimated inflation factor leaves the hysteresis band
//!    around the factor the current plan was chosen under — and a minimum
//!    dwell has passed — the controller re-enters the generator through
//!    the certificate-guarded plan cache ([`xpro_core::PlanCache`]) with
//!    the radio derated by the observed factor, against the *baseline*
//!    delay limit of the pristine instance; repeated decisions at the
//!    same effective configuration reuse the memoized cut (after it
//!    re-passes certificate verification) instead of re-running the
//!    λ-sweep;
//! 3. every re-plan the cache hands out has passed
//!    [`xpro_core::verify_plan`] once, against the repriced instance and
//!    the baseline limit: the max-flow/min-cut witness attached by the
//!    generator is checked edge by edge and the delay bound is re-derived
//!    independently of the planner's evaluator. Certified plans are
//!    applied at the next segment boundary (tier [`Tier::Normal`]) and
//!    counted in [`PlanAudit::certified`]; a plan whose certificate fails
//!    ([`XProError::Certificate`]) is *not* trusted — it is counted in
//!    [`PlanAudit::rejected`] and treated exactly like an infeasible
//!    re-plan;
//! 4. if no certified cut meets the
//!    baseline limit the fleet degrades to classification-only
//!    transmission ([`Tier::ClassifyOnly`]: every cell on the sensor, only
//!    the one-sample result frame crosses), and when even that cannot fit
//!    the deadline it additionally sheds every other segment
//!    ([`Tier::Shed`]);
//! 5. recovery is symmetric: when the factor falls back out of the band a
//!    feasible (and certified) re-plan returns the fleet to
//!    [`Tier::Normal`].
//!
//! Every decision is logged as a [`PartitionSwitch`] and the time spent
//! per tier is accumulated into [`TierTimes`]; both surface in the
//! [`crate::RunReport`].

use crate::config::RuntimeConfig;
use xpro_core::generator::XProGenerator;
use xpro_core::instance::XProInstance;
use xpro_core::partition::Partition;
use xpro_core::{segment_profile, PlanCache, PlanCacheStats, XProError};
use xpro_wireless::{EffectiveEnergyEstimator, TransferSample};

/// Degradation tier the fleet is operating in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// A generator cut meets the baseline delay limit.
    Normal,
    /// No feasible cut: everything runs on the sensor and only the
    /// one-sample classification result crosses the channel.
    ClassifyOnly,
    /// Even the result frame cannot reliably meet the deadline: on top of
    /// classification-only transmission, only every k-th segment is
    /// attempted at all.
    Shed,
}

impl Tier {
    /// Stable lower-case name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Normal => "normal",
            Tier::ClassifyOnly => "classify_only",
            Tier::Shed => "shed",
        }
    }
}

/// One applied controller decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSwitch {
    /// Virtual time the new plan took effect.
    pub time_s: f64,
    /// Tier entered.
    pub tier: Tier,
    /// Cells mapped to the sensor end under the new partition.
    pub sensor_cells: usize,
    /// Attempt-inflation factor the decision was based on.
    pub factor: f64,
}

/// Outcome counts of the controller's plan-certification gate.
///
/// Every feasible re-plan the generator proposes mid-run carries a
/// max-flow/min-cut certificate; it is checked (and the delay bound
/// independently re-derived) once before the controller commits the cut.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanAudit {
    /// Epoch plans whose cut certificate and delay bound verified.
    pub certified: u64,
    /// Epoch plans refused because certificate checking or independent
    /// delay re-derivation failed; the fleet degraded instead of trusting
    /// the cut.
    pub rejected: u64,
}

/// Time the run spent in each degradation tier.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TierTimes {
    /// Seconds under a feasible generator cut.
    pub normal_s: f64,
    /// Seconds in classification-only transmission.
    pub classify_only_s: f64,
    /// Seconds shedding segments.
    pub shed_s: f64,
}

impl TierTimes {
    pub(crate) fn add(&mut self, tier: Tier, dt_s: f64) {
        let dt = dt_s.max(0.0);
        match tier {
            Tier::Normal => self.normal_s += dt,
            Tier::ClassifyOnly => self.classify_only_s += dt,
            Tier::Shed => self.shed_s += dt,
        }
    }
}

/// The runtime half of the adaptive loop (the planning half lives in
/// [`xpro_core::replan`]).
#[derive(Clone, Debug)]
pub(crate) struct Controller {
    estimator: EffectiveEnergyEstimator,
    hysteresis: f64,
    min_dwell_s: f64,
    /// Frame observations required before the first decision.
    min_evidence: usize,
    /// The delay bound the deployment promised, from the pristine
    /// instance; re-plans are judged against it, never recomputed.
    baseline_limit_s: f64,
    /// The classification-only fallback partition
    /// ([`XProGenerator::fallback_cut`]).
    fallback: Partition,
    /// Airtime of the fallback's largest cross-end frame; `factor` times
    /// this must fit the deadline or the controller sheds.
    fallback_airtime_s: f64,
    timeout_s: f64,
    /// Inflation factor the active plan was chosen under.
    planned_factor: f64,
    tier: Tier,
    current: Partition,
    last_decision_s: f64,
    tier_entered_s: f64,
    times: TierTimes,
    audit: PlanAudit,
    switches: Vec<PartitionSwitch>,
    /// In [`Tier::Shed`], one segment in `shed_keep_every` is attempted.
    shed_keep_every: u64,
    /// Certificate-guarded memoization of the generator: repeated
    /// decisions at the same effective configuration (instance × derated
    /// radio × baseline limit) reuse the memoized cut after it re-passes
    /// certificate verification, instead of re-running the λ-sweep.
    cache: PlanCache,
}

impl Controller {
    pub fn new(instance: &XProInstance, initial: &Partition, cfg: &RuntimeConfig) -> Self {
        let generator = XProGenerator::new(instance);
        let fallback = generator.fallback_cut();
        let fallback_airtime_s = segment_profile(instance, &fallback)
            .frames
            .iter()
            .map(|f| f.airtime_s)
            .fold(0.0f64, f64::max);
        Controller {
            estimator: EffectiveEnergyEstimator::new(cfg.adaptive_window),
            hysteresis: cfg.hysteresis,
            min_dwell_s: cfg.min_dwell_s,
            min_evidence: (cfg.adaptive_window / 2).max(1),
            baseline_limit_s: generator.default_delay_limit(),
            fallback,
            fallback_airtime_s,
            timeout_s: cfg.timeout_s,
            planned_factor: 1.0,
            tier: Tier::Normal,
            current: initial.clone(),
            // The first decision is evidence-gated, never dwell-gated.
            last_decision_s: -cfg.min_dwell_s,
            tier_entered_s: 0.0,
            times: TierTimes::default(),
            audit: PlanAudit::default(),
            switches: Vec::new(),
            shed_keep_every: 2,
            cache: PlanCache::new(8),
        }
    }

    /// Feeds one terminal frame outcome (delivered, retries exhausted, or
    /// deadline-abandoned) into the estimator.
    pub fn observe(&mut self, attempts: u64) {
        self.estimator.record(TransferSample {
            planned_frames: 1,
            attempts,
        });
    }

    /// Whether a segment with this per-node sequence number is shed under
    /// the current tier. The engine applies the tier through
    /// [`Controller::shed_every`] broadcasts; this predicate remains the
    /// executable specification of the shed rule.
    #[cfg(test)]
    pub fn sheds(&self, segment_seq: u64) -> bool {
        self.tier == Tier::Shed && !segment_seq.is_multiple_of(self.shed_keep_every)
    }

    /// Shed modulus in effect: `Some(k)` when the fleet is in
    /// [`Tier::Shed`] (one segment in `k` is attempted, judged against the
    /// per-node sequence number as in [`Controller::sheds`]), `None`
    /// otherwise. The sharded executor broadcasts this to every shard at
    /// each barrier so shards apply the tier without consulting the
    /// controller mid-round.
    pub fn shed_every(&self) -> Option<u64> {
        (self.tier == Tier::Shed).then_some(self.shed_keep_every)
    }

    /// The active degradation tier.
    #[cfg(test)]
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Called at a segment boundary: decides whether the partition should
    /// change. Returns the new partition when a switch is due.
    pub fn maybe_replan(&mut self, now_s: f64, instance: &XProInstance) -> Option<Partition> {
        if self.estimator.len() < self.min_evidence
            || now_s - self.last_decision_s < self.min_dwell_s
        {
            return None;
        }
        let factor = self.estimator.factor();
        if factor >= self.planned_factor / self.hysteresis
            && factor <= self.planned_factor * self.hysteresis
        {
            return None;
        }
        // Any decision — even one that re-confirms the current plan —
        // re-baselines the band and restarts the dwell, so the min-cut
        // sweep runs at most once per dwell.
        self.last_decision_s = now_s;
        self.planned_factor = factor;
        let radio = instance.config().radio.derated(factor);
        // The plan cache hands out a plan only after `verify_plan` passed
        // against the repriced instance and this limit (on a hit by the
        // cache, on a miss by the generator): its min-cut certificate
        // checked out against an independently rebuilt network and the
        // delay bound re-derived under the limit. A plan that fails the
        // gate is treated exactly like an infeasible one.
        let certified_cut = match self.cache.replan(instance, radio, self.baseline_limit_s) {
            Ok((_, cut, _)) => {
                self.audit.certified += 1;
                Some(cut)
            }
            Err(XProError::Certificate(_)) => {
                self.audit.rejected += 1;
                None
            }
            Err(_) => None,
        };
        let (tier, partition) = match certified_cut {
            Some(cut) => (Tier::Normal, cut),
            None => {
                // No certified cut meets the promised bound. Fall back to
                // classification-only transmission unless even its frames,
                // inflated by the observed factor, blow the deadline —
                // then additionally shed segments.
                if factor * self.fallback_airtime_s <= self.timeout_s {
                    (Tier::ClassifyOnly, self.fallback.clone())
                } else {
                    (Tier::Shed, self.fallback.clone())
                }
            }
        };
        if tier == self.tier && partition == self.current {
            return None;
        }
        self.times.add(self.tier, now_s - self.tier_entered_s);
        self.tier_entered_s = now_s;
        self.tier = tier;
        self.current = partition.clone();
        self.switches.push(PartitionSwitch {
            time_s: now_s,
            tier,
            sensor_cells: partition.in_sensor.iter().filter(|b| **b).count(),
            factor,
        });
        Some(partition)
    }

    /// Closes the books at the end of the run.
    pub fn finish(
        mut self,
        duration_s: f64,
    ) -> (Vec<PartitionSwitch>, TierTimes, PlanAudit, PlanCacheStats) {
        let dt = duration_s - self.tier_entered_s;
        self.times.add(self.tier, dt);
        (self.switches, self.times, self.audit, self.cache.stats())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::testutil::tiny_instance;
    use xpro_core::generator::Engine;

    fn controller(cfg: &RuntimeConfig) -> (XProInstance, Partition, Controller) {
        let inst = tiny_instance(0);
        let cut = XProGenerator::new(&inst)
            .partition_for(Engine::CrossEnd)
            .unwrap();
        let ctl = Controller::new(&inst, &cut, cfg);
        (inst, cut, ctl)
    }

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::builder()
            .adaptive(true)
            .adaptive_window(8)
            .hysteresis(1.5)
            .min_dwell_s(0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn no_decision_without_evidence() {
        let (inst, _, mut ctl) = controller(&cfg());
        assert!(ctl.maybe_replan(10.0, &inst).is_none());
        assert_eq!(ctl.tier(), Tier::Normal);
    }

    #[test]
    fn healthy_channel_never_switches() {
        let (inst, _, mut ctl) = controller(&cfg());
        for _ in 0..20 {
            ctl.observe(1);
        }
        assert!(ctl.maybe_replan(10.0, &inst).is_none());
        let (switches, times, audit, cache) = ctl.finish(20.0);
        assert_eq!(cache, PlanCacheStats::default(), "no decisions, no lookups");
        assert!(switches.is_empty());
        assert_eq!(times.normal_s, 20.0);
        assert_eq!(times.classify_only_s + times.shed_s, 0.0);
        assert_eq!(audit, PlanAudit::default(), "no decisions, nothing audited");
    }

    #[test]
    fn severe_inflation_degrades_and_recovery_restores() {
        let (inst, initial, mut ctl) = controller(&cfg());
        // ~40x attempt inflation: no cut can meet the baseline limit.
        for _ in 0..8 {
            ctl.observe(40);
        }
        let degraded = ctl.maybe_replan(1.0, &inst).expect("must switch");
        assert_ne!(ctl.tier(), Tier::Normal);
        assert!(
            degraded.in_sensor.iter().filter(|b| **b).count()
                >= initial.in_sensor.iter().filter(|b| **b).count(),
            "degradation must move work toward the sensor"
        );
        // Channel recovers: window refills with clean transfers.
        for _ in 0..8 {
            ctl.observe(1);
        }
        let restored = ctl.maybe_replan(2.0, &inst).expect("must recover");
        assert_eq!(ctl.tier(), Tier::Normal);
        assert_eq!(restored, initial, "recovery returns the static cut");
        let (switches, times, audit, cache) = ctl.finish(3.0);
        assert_eq!(
            cache.hits + cache.misses,
            2,
            "every decision consults the plan cache exactly once"
        );
        assert!(
            audit.certified >= 1,
            "the recovery re-plan must pass the certificate gate: {audit:?}"
        );
        assert_eq!(audit.rejected, 0, "honest generator cuts never fail");
        assert_eq!(switches.len(), 2);
        assert_ne!(switches[0].tier, Tier::Normal);
        assert_eq!(switches[1].tier, Tier::Normal);
        assert!(switches[0].factor > switches[1].factor);
        assert!(times.normal_s > 0.0);
        assert!(times.classify_only_s + times.shed_s > 0.0);
        assert!(
            (times.normal_s + times.classify_only_s + times.shed_s - 3.0).abs() < 1e-9,
            "tier times must partition the run"
        );
    }

    #[test]
    fn dwell_and_hysteresis_gate_decisions() {
        let mut c = cfg();
        c.min_dwell_s = 5.0;
        let (inst, _, mut ctl) = controller(&c);
        for _ in 0..8 {
            ctl.observe(40);
        }
        assert!(ctl.maybe_replan(1.0, &inst).is_some());
        for _ in 0..8 {
            ctl.observe(1);
        }
        // Inside the dwell window: no decision despite the recovered band.
        assert!(ctl.maybe_replan(2.0, &inst).is_none());
        assert!(ctl.maybe_replan(7.0, &inst).is_some());
    }

    #[test]
    fn mild_drift_inside_the_band_is_ignored() {
        let (inst, _, mut ctl) = controller(&cfg());
        // factor ≈ 1.25 < hysteresis 1.5: stay put.
        for _ in 0..8 {
            ctl.observe(5);
        }
        for _ in 0..24 {
            ctl.observe(1);
        }
        assert!((ctl.estimator.factor() - 1.5).abs() < 0.6);
        if ctl.estimator.factor() <= 1.5 {
            assert!(ctl.maybe_replan(1.0, &inst).is_none());
        }
    }

    #[test]
    fn impossible_deadline_sheds_segments() {
        let mut c = cfg();
        c.timeout_s = 1e-7; // nothing fits: even the result frame is late
        let (inst, _, mut ctl) = controller(&c);
        for _ in 0..8 {
            ctl.observe(40);
        }
        ctl.maybe_replan(1.0, &inst).expect("must switch");
        assert_eq!(ctl.tier(), Tier::Shed);
        assert!(ctl.sheds(1));
        assert!(!ctl.sheds(0), "every k-th segment still flows");
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(Tier::Normal.as_str(), "normal");
        assert_eq!(Tier::ClassifyOnly.as_str(), "classify_only");
        assert_eq!(Tier::Shed.as_str(), "shed");
    }
}
