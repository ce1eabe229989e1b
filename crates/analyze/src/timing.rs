//! Sound static timing calculus for a partitioned streaming deployment.
//!
//! The executor in `xpro-runtime` measures what a fleet *did*; this module
//! bounds what it *can ever do*. Given the plain-number [`TimingModel`] of
//! one deployment — per-segment phase times from the shared
//! `segment_profile` walk, the retransmission/backoff policy, the arrival
//! period and the fleet size — it derives sound upper bounds on:
//!
//! * worst-case per-segment end-to-end response time (WCRT),
//! * peak aggregator-inbox occupancy,
//! * per-resource utilization (front end, channel, aggregator CPU).
//!
//! # Arrival and service model
//!
//! Each of `nodes` sensor nodes releases one segment every `period_s`
//! seconds (the executor staggers phases, which only helps; the bounds
//! assume nothing about phasing). A segment is served by three FIFO,
//! work-conserving resources in series: its node's private front end, the
//! shared half-duplex channel, and the shared aggregator CPU. Under the
//! bounded-retry worst case every frame is transmitted
//! `attempts = max_retries + 1` times with the full exponential backoff
//! (`backoff_base_s · 2^min(a, 20)` after failed attempt `a`, mirroring
//! the executor's shift cap) between attempts.
//!
//! # The WCRT fixed point and its soundness
//!
//! Let `R` bound the response time of every segment. By induction on
//! arrival order, any segment arrived at or before `t − R` has left the
//! system by `t`, so the segments with unfinished work at `t` arrived
//! within the last `R` seconds — at most `R/period + 1` per node. Each
//! contributes at most `S_att = attempts · Σ_f airtime_f` of channel work
//! and `job = back_s + batch_wake_s` of CPU work. Because the channel and
//! CPU are FIFO and work-conserving (`start = max(now, free)`), an
//! arrival's wait on either resource is at most the unfinished work queued
//! there. Summing the phases:
//!
//! ```text
//! R ≤ front_s                                   (front: exact when front_s ≤ period)
//!   + F·attempts·n·S_att·(R/period + 1)          (channel waits, per attempt)
//!   + attempts·Σ_f airtime_f + F·B               (own airtime + backoffs, B = Σ backoff_a)
//!   + n·job·(R/period + 1) + job                 (CPU wait + own job)
//! ```
//!
//! which is affine, `R ≤ A·R + C`. When the contraction factor `A < 1`
//! the least fixed point `C / (1 − A)` is a sound WCRT; when `A ≥ 1` the
//! system is not provably schedulable and the analyzer reports
//! [`TimingViolation::DeadlineUnprovable`] rather than a number. The same
//! window argument bounds the inbox occupancy by `⌈n·(R/period + 1)⌉`
//! jobs (queued *and* in service — exactly what the executor's bounded
//! inbox holds).
//!
//! The bounds are conservative by construction: the executor's deadline
//! skips, staggered phases and first-attempt deliveries only *remove*
//! work relative to the model. The `timing_soundness` integration test
//! drives seeded executor runs against these bounds and asserts observed
//! latency, queue depth and energy never exceed them — the dynamic-vs-
//! static contract of the findings gate.
//!
//! Findings flow through the canonical byte-stable pipeline
//! ([`crate::gate`]) at synthetic cell indices, so `analyze --table1
//! --gate` diffs timing verdicts exactly as it diffs overflow verdicts.

use crate::analysis::AnalyzeError;
use crate::gate::{Finding, Severity, TIMING_CELL_BASE};

/// Which fault envelope the bounds cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryRegime {
    /// Lossless channel: every frame is delivered on its first attempt.
    FaultFree,
    /// Bounded-retry worst case: every frame spends all
    /// `max_retries + 1` attempts with full exponential backoff.
    WorstCaseRetry,
}

impl RetryRegime {
    /// Stable short tag used in finding labels (`"ff"` / `"wc"`).
    pub fn tag(self) -> &'static str {
        match self {
            RetryRegime::FaultFree => "ff",
            RetryRegime::WorstCaseRetry => "wc",
        }
    }

    /// Offset of this regime's block of synthetic finding cell indices.
    fn cell_offset(self) -> usize {
        match self {
            RetryRegime::FaultFree => 0,
            RetryRegime::WorstCaseRetry => 10,
        }
    }
}

/// The shared resources a deployment can saturate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// A node's private front-end processor.
    FrontEnd,
    /// The shared half-duplex wireless channel.
    Channel,
    /// The shared serial aggregator CPU.
    AggregatorCpu,
}

impl Resource {
    /// Stable name used in messages.
    pub fn as_str(self) -> &'static str {
        match self {
            Resource::FrontEnd => "front-end",
            Resource::Channel => "channel",
            Resource::AggregatorCpu => "aggregator-cpu",
        }
    }
}

/// A typed timing verdict the deployment fails.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TimingViolation {
    /// No finite WCRT under the per-segment deadline could be proven:
    /// either the fixed point diverges (`contraction ≥ 1`), an unmodeled
    /// fault knob is enabled, or the WCRT exceeds the deadline.
    DeadlineUnprovable {
        /// The WCRT when one exists (it exceeded the deadline), or
        /// [`None`] when the fixed point diverges.
        wcrt_s: Option<f64>,
        /// The per-segment deadline the bound was checked against.
        deadline_s: f64,
        /// The contraction factor `A` of the affine fixed point.
        contraction: f64,
    },
    /// The peak-inbox bound exceeds the configured capacity (or is
    /// unprovable because the WCRT is), so backpressure drops cannot be
    /// excluded.
    QueueBoundExceeded {
        /// The static occupancy bound, [`None`] when unprovable.
        bound: Option<u64>,
        /// The configured inbox capacity.
        capacity: usize,
    },
    /// A resource's long-run demand exceeds its service capacity: the
    /// deployment is unschedulable regardless of deadlines.
    UtilizationOverUnity {
        /// The saturated resource.
        resource: Resource,
        /// Its demanded utilization (> 1).
        utilization: f64,
    },
}

impl std::fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingViolation::DeadlineUnprovable {
                wcrt_s,
                deadline_s,
                contraction,
            } => match wcrt_s {
                Some(w) => write!(f, "WCRT {w:.6} s exceeds deadline {deadline_s:.6} s"),
                None => write!(
                    f,
                    "no finite WCRT (contraction {contraction:.3} >= 1 or unmodeled faults)"
                ),
            },
            TimingViolation::QueueBoundExceeded { bound, capacity } => match bound {
                Some(b) => write!(f, "inbox bound {b} exceeds capacity {capacity}"),
                None => write!(f, "inbox occupancy unprovable (capacity {capacity})"),
            },
            TimingViolation::UtilizationOverUnity {
                resource,
                utilization,
            } => write!(f, "{} utilization {utilization:.3} > 1", resource.as_str()),
        }
    }
}

/// Plain-number description of one deployment, as both the timing and the
/// energy analyzer consume it.
///
/// The struct deliberately carries no `XProInstance` or `RuntimeConfig`:
/// `xpro-analyze` sits below `xpro-core` in the dependency order, so the
/// extraction glue lives with the runtime (`xpro_runtime::soundness`),
/// which derives every field from the shared `segment_profile` walk and
/// the run configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingModel {
    /// Sensor nodes sharing the channel and aggregator.
    pub nodes: usize,
    /// Per-node segment inter-arrival time in seconds.
    pub period_s: f64,
    /// Per-segment deadline in seconds (the executor's `timeout_s`).
    pub deadline_s: f64,
    /// Front-end compute time per segment in seconds.
    pub front_s: f64,
    /// Back-end compute time per segment in seconds.
    pub back_s: f64,
    /// Single-attempt air time of each cross-end frame, in seconds.
    pub frame_airtimes_s: Vec<f64>,
    /// Maximum retransmissions per frame before the segment is dropped.
    pub max_retries: u32,
    /// Base backoff delay in seconds (doubled per failed attempt, shift
    /// capped at 2^20 exactly as the executor caps it).
    pub backoff_base_s: f64,
    /// Batch wake-up penalty charged when the aggregator CPU was idle.
    pub batch_wake_s: f64,
    /// Aggregator inbox capacity in jobs (queued + in service).
    pub inbox_capacity: usize,
    /// Epoch length in seconds (the run duration), used by the energy
    /// analyzer's per-epoch budget check.
    pub duration_s: f64,
    /// In-sensor compute energy per segment in picojoules.
    pub sensor_compute_pj: f64,
    /// Sensor-side radio energy of one attempt of each frame, in pJ
    /// (parallel to `frame_airtimes_s`).
    pub frame_sensor_pj: Vec<f64>,
    /// Per-node sensor energy budget in pJ for the epoch (0 = unlimited).
    pub battery_budget_pj: f64,
    /// Whether a fault knob outside the retry model is enabled (channel
    /// bursts, crash/reboot lifecycles, aggregator outages, the adaptive
    /// controller). The calculus does not model those, so the analyzer
    /// conservatively refuses to prove deadline or queue bounds for such
    /// configurations instead of reporting unsound numbers.
    pub unmodeled_faults: bool,
}

impl TimingModel {
    /// Attempts per frame under a regime: one, or the full retry budget.
    pub fn attempts(&self, regime: RetryRegime) -> u32 {
        match regime {
            RetryRegime::FaultFree => 1,
            RetryRegime::WorstCaseRetry => self.max_retries + 1,
        }
    }

    /// Single-attempt wireless time of the whole segment, in seconds.
    pub fn wireless_s(&self) -> f64 {
        self.frame_airtimes_s.iter().sum()
    }

    /// Uncontended fault-free end-to-end delay — the same number as the
    /// shared `segment_profile` delay derivation, used as the analyzer's
    /// best-case sanity floor (a WCRT below it would be a calculus bug).
    pub fn best_case_s(&self) -> f64 {
        self.front_s + self.wireless_s() + self.back_s
    }

    /// Worst-case channel occupancy of one segment under a regime, in
    /// seconds: every frame spends all of its attempts.
    pub fn channel_demand_s(&self, regime: RetryRegime) -> f64 {
        f64::from(self.attempts(regime)) * self.wireless_s()
    }

    /// Worst-case serialized backoff of one frame under a regime: the sum
    /// of every backoff delay the executor can schedule before the final
    /// attempt, in seconds.
    pub fn frame_backoff_s(&self, regime: RetryRegime) -> f64 {
        match regime {
            RetryRegime::FaultFree => 0.0,
            RetryRegime::WorstCaseRetry => (0..self.max_retries)
                .map(|a| self.backoff_base_s * f64::from(1u32 << a.min(20)))
                .sum(),
        }
    }

    fn validate(&self) -> Result<(), AnalyzeError> {
        let checks: [(&'static str, f64, bool); 6] = [
            ("nodes", self.nodes as f64, self.nodes > 0),
            (
                "period_s",
                self.period_s,
                self.period_s.is_finite() && self.period_s > 0.0,
            ),
            (
                "deadline_s",
                self.deadline_s,
                self.deadline_s.is_finite() && self.deadline_s > 0.0,
            ),
            (
                "duration_s",
                self.duration_s,
                self.duration_s.is_finite() && self.duration_s > 0.0,
            ),
            (
                "backoff_base_s",
                self.backoff_base_s,
                self.backoff_base_s.is_finite() && self.backoff_base_s >= 0.0,
            ),
            (
                "battery_budget_pj",
                self.battery_budget_pj,
                self.battery_budget_pj.is_finite() && self.battery_budget_pj >= 0.0,
            ),
        ];
        for (name, value, ok) in checks {
            if !ok {
                return Err(AnalyzeError::InvalidOption { name, value });
            }
        }
        for (name, value) in [
            ("front_s", self.front_s),
            ("back_s", self.back_s),
            ("batch_wake_s", self.batch_wake_s),
            ("sensor_compute_pj", self.sensor_compute_pj),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(AnalyzeError::InvalidOption { name, value });
            }
        }
        for &a in &self.frame_airtimes_s {
            if !(a.is_finite() && a >= 0.0) {
                return Err(AnalyzeError::InvalidOption {
                    name: "frame_airtimes_s",
                    value: a,
                });
            }
        }
        for &e in &self.frame_sensor_pj {
            if !(e.is_finite() && e >= 0.0) {
                return Err(AnalyzeError::InvalidOption {
                    name: "frame_sensor_pj",
                    value: e,
                });
            }
        }
        Ok(())
    }
}

/// The statically derived bounds of one deployment under one regime.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingBounds {
    /// Regime the bounds cover.
    pub regime: RetryRegime,
    /// Attempts per frame assumed by the bounds.
    pub attempts: u32,
    /// Front-end demand per period over the period (private per node).
    pub front_utilization: f64,
    /// Fleet channel demand per period over the period.
    pub channel_utilization: f64,
    /// Fleet aggregator-CPU demand per period over the period.
    pub aggregator_utilization: f64,
    /// Contraction factor `A` of the affine fixed point `R = A·R + C`.
    pub contraction: f64,
    /// Sound worst-case per-segment response time; [`None`] when the
    /// fixed point diverges or unmodeled faults are enabled.
    pub wcrt_s: Option<f64>,
    /// Sound peak aggregator-inbox occupancy (queued + in service);
    /// [`None`] exactly when `wcrt_s` is.
    pub queue_bound: Option<u64>,
    /// Per-segment worst-case channel occupancy, in seconds.
    pub channel_demand_s: f64,
    /// Uncontended fault-free delay (the shared profile derivation).
    pub best_case_s: f64,
    /// The deadline the verdicts were checked against.
    pub deadline_s: f64,
    /// The inbox capacity the queue verdict was checked against.
    pub inbox_capacity: usize,
}

impl TimingBounds {
    /// Every timing verdict the deployment fails, in a stable order
    /// (deadline, queue, then utilizations).
    pub fn violations(&self) -> Vec<TimingViolation> {
        let mut out = Vec::new();
        let deadline_met = self.wcrt_s.is_some_and(|w| w <= self.deadline_s);
        if !deadline_met {
            out.push(TimingViolation::DeadlineUnprovable {
                wcrt_s: self.wcrt_s,
                deadline_s: self.deadline_s,
                contraction: self.contraction,
            });
        }
        let queue_ok = self
            .queue_bound
            .is_some_and(|b| b <= self.inbox_capacity as u64);
        if !queue_ok {
            out.push(TimingViolation::QueueBoundExceeded {
                bound: self.queue_bound,
                capacity: self.inbox_capacity,
            });
        }
        for (resource, utilization) in [
            (Resource::FrontEnd, self.front_utilization),
            (Resource::Channel, self.channel_utilization),
            (Resource::AggregatorCpu, self.aggregator_utilization),
        ] {
            if utilization > 1.0 {
                out.push(TimingViolation::UtilizationOverUnity {
                    resource,
                    utilization,
                });
            }
        }
        out
    }

    /// The worst single-resource utilization.
    pub fn peak_utilization(&self) -> f64 {
        self.front_utilization
            .max(self.channel_utilization)
            .max(self.aggregator_utilization)
    }

    /// The bounds as canonical findings for the baseline/gate pipeline.
    ///
    /// Three rows per regime at synthetic cell indices (sorting after
    /// every real cell): the WCRT verdict, the queue verdict and the
    /// utilization verdict. Field reuse in the fixed schema: `bound`
    /// carries the derived bound (WCRT seconds, inbox jobs, peak
    /// utilization), `interval_width` the budget it was checked against
    /// (deadline, capacity, 1), and `affine_width` the contraction factor.
    pub fn findings(&self, config: &str) -> Vec<Finding> {
        let base = TIMING_CELL_BASE + self.regime.cell_offset();
        let tag = self.regime.tag();
        let violations = self.violations();
        let deadline_bad = violations
            .iter()
            .any(|v| matches!(v, TimingViolation::DeadlineUnprovable { .. }));
        let queue_bad = violations
            .iter()
            .any(|v| matches!(v, TimingViolation::QueueBoundExceeded { .. }));
        let util_bad = violations
            .iter()
            .any(|v| matches!(v, TimingViolation::UtilizationOverUnity { .. }));
        let verdict = |bad: bool, ok_rule: &str, bad_rule: &str| {
            if bad {
                (bad_rule.to_string(), Severity::Violation)
            } else {
                (ok_rule.to_string(), Severity::Proven)
            }
        };
        let (wcrt_rule, wcrt_sev) = verdict(
            deadline_bad,
            "timing.wcrt.proven",
            "timing.deadline_unprovable",
        );
        let (queue_rule, queue_sev) = verdict(
            queue_bad,
            "timing.queue.proven",
            "timing.queue_bound_exceeded",
        );
        let (util_rule, util_sev) = verdict(
            util_bad,
            "timing.utilization.proven",
            "timing.utilization_over_unity",
        );
        vec![
            Finding {
                config: config.to_string(),
                cell: base,
                label: format!("wcrt@{tag}"),
                rule: wcrt_rule,
                severity: wcrt_sev,
                bound: self.wcrt_s.unwrap_or(0.0),
                interval_width: self.deadline_s,
                affine_width: self.contraction,
            },
            Finding {
                config: config.to_string(),
                cell: base + 1,
                label: format!("queue@{tag}"),
                rule: queue_rule,
                severity: queue_sev,
                bound: self.queue_bound.map_or(0.0, |b| b as f64),
                interval_width: self.inbox_capacity as f64,
                affine_width: self.contraction,
            },
            Finding {
                config: config.to_string(),
                cell: base + 2,
                label: format!("util@{tag}"),
                rule: util_rule,
                severity: util_sev,
                bound: self.peak_utilization(),
                interval_width: 1.0,
                affine_width: self.contraction,
            },
        ]
    }
}

/// Plain-number description of one tenant sharing the deployment — the
/// admission-relevant slice of `xpro_runtime::TenantSpec`, kept free of
/// runtime types because `xpro-analyze` sits below `xpro-core`.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantModel {
    /// Tenant name (propagated into finding labels).
    pub name: String,
    /// Nodes the tenant owns (tenant node counts must sum to the fleet).
    pub nodes: usize,
    /// Token-bucket refill rate in admitted jobs per second (0 =
    /// unlimited).
    pub quota_hz: f64,
    /// Token-bucket depth in jobs.
    pub quota_burst: u32,
    /// Whether the tenant's plan degrades under overload. Plan swaps are
    /// outside the static model, so a degrading tenant's bounds are
    /// refused rather than proven unsoundly.
    pub degrade: bool,
}

/// Per-tenant bounds derived from the fleet envelope: a tenant's segment
/// is served by the same three shared resources, so the fleet WCRT bounds
/// every tenant's response time, and the tenant's admitted-job window
/// (or its token bucket, when tighter) bounds its inbox share.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantTimingBounds {
    /// Tenant name.
    pub name: String,
    /// Nodes the tenant owns.
    pub nodes: usize,
    /// Sound per-segment WCRT for the tenant's segments; [`None`] when
    /// refused (fleet unprovable, or the tenant degrades).
    pub wcrt_s: Option<f64>,
    /// Sound bound on the tenant's aggregator-inbox occupancy:
    /// `min(⌈n_t·(R/period + 1)⌉, ⌈burst + quota_hz·R⌉)` — the window
    /// argument per tenant, tightened by the token bucket when a rate
    /// quota is set. [`None`] exactly when `wcrt_s` is.
    pub queue_bound: Option<u64>,
    /// Whether the bounds were refused (fleet unprovable, or the tenant
    /// degrades).
    pub unprovable: bool,
}

/// Derives per-tenant bounds from a deployment's fleet envelope.
///
/// The `model` must already be the *envelope* of every plan a tenant can
/// run under (the caller maxes the primary and fallback profiles
/// per-term), so the fleet fixed point dominates any mixed-plan fleet.
/// Tenant node counts must sum to `model.nodes`.
///
/// A tenant's bounds are refused (`wcrt_s = None`, `unprovable = true`)
/// when the fleet fixed point itself is unprovable or when the tenant
/// degrades under overload — a mid-run plan swap is an adaptation the
/// static calculus does not model.
///
/// # Errors
///
/// [`AnalyzeError::InvalidOption`] when the model is out of range, a
/// tenant has zero nodes or a non-finite/negative quota, or the node
/// counts do not sum to the fleet size.
pub fn analyze_tenant_timing(
    model: &TimingModel,
    tenants: &[TenantModel],
    regime: RetryRegime,
) -> Result<(TimingBounds, Vec<TenantTimingBounds>), AnalyzeError> {
    let fleet = analyze_timing(model, regime)?;
    let mut covered = 0usize;
    for t in tenants {
        if t.nodes == 0 {
            return Err(AnalyzeError::InvalidOption {
                name: "tenant.nodes",
                value: 0.0,
            });
        }
        if !t.quota_hz.is_finite() || t.quota_hz < 0.0 {
            return Err(AnalyzeError::InvalidOption {
                name: "tenant.quota_hz",
                value: t.quota_hz,
            });
        }
        covered += t.nodes;
    }
    if covered != model.nodes {
        return Err(AnalyzeError::InvalidOption {
            name: "tenant.nodes",
            value: covered as f64,
        });
    }
    let bounds = tenants
        .iter()
        .map(|t| {
            let provable = fleet.wcrt_s.is_some() && !t.degrade;
            let wcrt_s = provable.then_some(fleet.wcrt_s).flatten();
            let queue_bound = wcrt_s.map(|r| {
                let window = (t.nodes as f64 * (r / model.period_s + 1.0)).ceil() as u64;
                if t.quota_hz > 0.0 {
                    let bucket = (f64::from(t.quota_burst) + t.quota_hz * r).ceil() as u64;
                    window.min(bucket)
                } else {
                    window
                }
            });
            TenantTimingBounds {
                name: t.name.clone(),
                nodes: t.nodes,
                wcrt_s,
                queue_bound,
                unprovable: !provable,
            }
        })
        .collect();
    Ok((fleet, bounds))
}

/// Derives the sound timing bounds of a deployment under a regime.
///
/// See the module documentation for the arrival/service model and the
/// soundness argument behind the affine fixed point.
///
/// # Errors
///
/// [`AnalyzeError::InvalidOption`] when a model field is out of range
/// (non-positive period/deadline, negative or non-finite times/energies,
/// zero nodes).
pub fn analyze_timing(
    model: &TimingModel,
    regime: RetryRegime,
) -> Result<TimingBounds, AnalyzeError> {
    model.validate()?;
    let n = model.nodes as f64;
    let attempts = model.attempts(regime);
    let s_att = model.channel_demand_s(regime);
    let frames = model.frame_airtimes_s.len() as f64;
    let job_s = model.back_s + model.batch_wake_s;
    let period = model.period_s;

    let front_utilization = model.front_s / period;
    let channel_utilization = n * s_att / period;
    let aggregator_utilization = n * job_s / period;

    // R ≤ A·R + C; see the module docs for the window argument.
    let contraction = (frames * f64::from(attempts) * n * s_att + n * job_s) / period;
    let constant = model.front_s
        + frames * f64::from(attempts) * n * s_att
        + f64::from(attempts) * model.wireless_s()
        + frames * model.frame_backoff_s(regime)
        + n * job_s
        + job_s;

    let provable = !model.unmodeled_faults && front_utilization <= 1.0 && contraction < 1.0;
    let wcrt_s = if provable {
        let r = constant / (1.0 - contraction);
        r.is_finite().then_some(r)
    } else {
        None
    };
    let queue_bound = wcrt_s.map(|r| (n * (r / period + 1.0)).ceil() as u64);

    Ok(TimingBounds {
        regime,
        attempts,
        front_utilization,
        channel_utilization,
        aggregator_utilization,
        contraction,
        wcrt_s,
        queue_bound,
        channel_demand_s: s_att,
        best_case_s: model.best_case_s(),
        deadline_s: model.deadline_s,
        inbox_capacity: model.inbox_capacity,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;

    /// A lightly loaded 4-node deployment: 2 ms of airtime against a
    /// 500 ms period.
    fn light_model() -> TimingModel {
        TimingModel {
            nodes: 4,
            period_s: 0.5,
            deadline_s: 1.0,
            front_s: 0.002,
            back_s: 0.001,
            frame_airtimes_s: vec![0.002, 0.0001],
            max_retries: 3,
            backoff_base_s: 1e-3,
            batch_wake_s: 0.0,
            inbox_capacity: 256,
            duration_s: 10.0,
            sensor_compute_pj: 5.0e5,
            frame_sensor_pj: vec![6.0e6, 5.0e4],
            battery_budget_pj: 0.0,
            unmodeled_faults: false,
        }
    }

    #[test]
    fn light_load_is_provably_schedulable_in_both_regimes() {
        let m = light_model();
        for regime in [RetryRegime::FaultFree, RetryRegime::WorstCaseRetry] {
            let b = analyze_timing(&m, regime).unwrap();
            assert!(b.contraction < 1.0, "{regime:?}: A = {}", b.contraction);
            let wcrt = b.wcrt_s.unwrap();
            assert!(wcrt <= m.deadline_s, "{regime:?}: WCRT {wcrt}");
            assert!(b.queue_bound.unwrap() <= 256);
            assert!(b.violations().is_empty(), "{:?}", b.violations());
        }
    }

    #[test]
    fn wcrt_dominates_the_best_case_and_grows_with_retries() {
        let m = light_model();
        let ff = analyze_timing(&m, RetryRegime::FaultFree).unwrap();
        let wc = analyze_timing(&m, RetryRegime::WorstCaseRetry).unwrap();
        // The analyzer's best-case sanity floor is the shared profile
        // delay; a WCRT below it would be a calculus bug.
        assert!(ff.wcrt_s.unwrap() >= ff.best_case_s);
        assert!(wc.wcrt_s.unwrap() >= ff.wcrt_s.unwrap());
        assert!(wc.channel_utilization >= ff.channel_utilization);
    }

    #[test]
    fn saturated_channel_is_deadline_unprovable_and_over_unity() {
        let mut m = light_model();
        m.frame_airtimes_s = vec![0.2]; // 4 nodes x 200 ms per 500 ms
        let b = analyze_timing(&m, RetryRegime::FaultFree).unwrap();
        assert!(b.channel_utilization > 1.0);
        assert!(b.wcrt_s.is_none());
        let v = b.violations();
        assert!(v
            .iter()
            .any(|v| matches!(v, TimingViolation::DeadlineUnprovable { wcrt_s: None, .. })));
        assert!(v.iter().any(|v| matches!(
            v,
            TimingViolation::UtilizationOverUnity {
                resource: Resource::Channel,
                ..
            }
        )));
        assert!(v
            .iter()
            .any(|v| matches!(v, TimingViolation::QueueBoundExceeded { bound: None, .. })));
    }

    #[test]
    fn tight_deadline_fails_with_a_finite_wcrt() {
        let mut m = light_model();
        m.deadline_s = 1e-6;
        let b = analyze_timing(&m, RetryRegime::FaultFree).unwrap();
        let v = b.violations();
        assert!(matches!(
            v[0],
            TimingViolation::DeadlineUnprovable {
                wcrt_s: Some(_),
                ..
            }
        ));
        assert!(v[0].to_string().contains("exceeds deadline"), "{}", v[0]);
    }

    #[test]
    fn tiny_inbox_fails_the_queue_bound() {
        let mut m = light_model();
        m.inbox_capacity = 2;
        m.nodes = 8;
        // Fault-free keeps the fixed point convergent, so the bound is a
        // concrete job count that exceeds the two-slot inbox.
        let b = analyze_timing(&m, RetryRegime::FaultFree).unwrap();
        assert!(b.violations().iter().any(|v| matches!(
            v,
            TimingViolation::QueueBoundExceeded { bound: Some(_), .. }
        )));
    }

    #[test]
    fn unmodeled_faults_refuse_a_proof() {
        let mut m = light_model();
        m.unmodeled_faults = true;
        let b = analyze_timing(&m, RetryRegime::FaultFree).unwrap();
        assert!(b.wcrt_s.is_none());
        assert!(b.contraction < 1.0, "the refusal is the flag, not the math");
    }

    #[test]
    fn backoff_envelope_mirrors_the_executor_shift_cap() {
        let mut m = light_model();
        m.max_retries = 3;
        m.backoff_base_s = 1e-3;
        // 2^0 + 2^1 + 2^2 = 7 backoff units.
        let b = m.frame_backoff_s(RetryRegime::WorstCaseRetry);
        assert!((b - 7e-3).abs() < 1e-12, "{b}");
        assert_eq!(m.frame_backoff_s(RetryRegime::FaultFree), 0.0);
        assert_eq!(m.attempts(RetryRegime::WorstCaseRetry), 4);
    }

    #[test]
    fn findings_carry_verdicts_through_the_gate_schema() {
        let m = light_model();
        let b = analyze_timing(&m, RetryRegime::WorstCaseRetry).unwrap();
        let f = b.findings("C1");
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|f| f.severity == Severity::Proven));
        assert!(f.iter().all(|f| f.cell >= TIMING_CELL_BASE));
        assert_eq!(f[0].label, "wcrt@wc");
        assert_eq!(f[0].rule, "timing.wcrt.proven");
        assert!((f[0].bound - b.wcrt_s.unwrap()).abs() < 1e-12);

        let mut sat = m;
        sat.frame_airtimes_s = vec![0.2];
        let bad = analyze_timing(&sat, RetryRegime::WorstCaseRetry).unwrap();
        let f = bad.findings("C1");
        assert_eq!(f[0].rule, "timing.deadline_unprovable");
        assert!(f.iter().all(|f| f.severity == Severity::Violation));
    }

    #[test]
    fn tenant_bounds_follow_the_fleet_envelope() {
        let m = light_model();
        let tenants = vec![
            TenantModel {
                name: "a".into(),
                nodes: 3,
                quota_hz: 0.0,
                quota_burst: 8,
                degrade: false,
            },
            TenantModel {
                name: "b".into(),
                nodes: 1,
                quota_hz: 1.0,
                quota_burst: 1,
                degrade: false,
            },
        ];
        let (fleet, tb) = analyze_tenant_timing(&m, &tenants, RetryRegime::FaultFree).unwrap();
        let r = fleet.wcrt_s.unwrap();
        assert_eq!(tb[0].wcrt_s, Some(r), "tenant WCRT is the fleet envelope");
        // Tenant a: window bound over its 3 nodes.
        assert_eq!(
            tb[0].queue_bound,
            Some((3.0 * (r / m.period_s + 1.0)).ceil() as u64)
        );
        // Tenant b: the token bucket (1 + 1·R, R < 1 s) beats its window.
        assert_eq!(tb[1].queue_bound, Some(2));
        assert!(tb[1].queue_bound < tb[0].queue_bound);
        // The tenant bounds must sum to no less than... nothing; but each
        // must be at most the fleet queue bound.
        let fleet_q = fleet.queue_bound.unwrap();
        assert!(tb.iter().all(|t| t.queue_bound.unwrap() <= fleet_q));
    }

    #[test]
    fn degrading_or_unprovable_tenants_are_refused() {
        let m = light_model();
        let degrading = vec![TenantModel {
            name: "d".into(),
            nodes: 4,
            quota_hz: 0.0,
            quota_burst: 8,
            degrade: true,
        }];
        let (_, tb) = analyze_tenant_timing(&m, &degrading, RetryRegime::FaultFree).unwrap();
        assert!(tb[0].unprovable);
        assert!(tb[0].wcrt_s.is_none() && tb[0].queue_bound.is_none());

        let mut saturated = light_model();
        saturated.frame_airtimes_s = vec![0.2];
        let steady = vec![TenantModel {
            name: "s".into(),
            nodes: 4,
            quota_hz: 0.0,
            quota_burst: 8,
            degrade: false,
        }];
        let (fleet, tb) =
            analyze_tenant_timing(&saturated, &steady, RetryRegime::FaultFree).unwrap();
        assert!(fleet.wcrt_s.is_none());
        assert!(tb[0].unprovable, "fleet unprovable refuses every tenant");
    }

    #[test]
    fn tenant_tables_must_cover_the_fleet() {
        let m = light_model();
        let short = vec![TenantModel {
            name: "a".into(),
            nodes: 3,
            quota_hz: 0.0,
            quota_burst: 8,
            degrade: false,
        }];
        assert!(analyze_tenant_timing(&m, &short, RetryRegime::FaultFree).is_err());
        let bad_quota = vec![TenantModel {
            name: "a".into(),
            nodes: 4,
            quota_hz: f64::NAN,
            quota_burst: 8,
            degrade: false,
        }];
        assert!(analyze_tenant_timing(&m, &bad_quota, RetryRegime::FaultFree).is_err());
    }

    #[test]
    fn invalid_models_are_rejected() {
        let mut m = light_model();
        m.period_s = 0.0;
        assert!(analyze_timing(&m, RetryRegime::FaultFree).is_err());
        let mut m = light_model();
        m.nodes = 0;
        assert!(analyze_timing(&m, RetryRegime::FaultFree).is_err());
        let mut m = light_model();
        m.frame_airtimes_s = vec![f64::NAN];
        assert!(analyze_timing(&m, RetryRegime::FaultFree).is_err());
    }
}
