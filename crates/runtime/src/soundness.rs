//! Glue between the static timing/energy calculus and the dynamic
//! executor: model extraction and the bound-vs-observation cross-check.
//!
//! `xpro-analyze` sits below `xpro-core` in the dependency order, so its
//! [`TimingModel`] is a plain-number struct. This module derives those
//! numbers from a concrete deployment — the same
//! [`segment_profile`] walk the analytic evaluator and the executor plan
//! from, plus the [`RuntimeConfig`] knobs — and checks a finished
//! [`RunReport`] against the resulting bounds.
//!
//! The contract is one-directional: a seeded run whose fault envelope the
//! calculus models (iid drops with bounded retries, or no faults at all)
//! must never *observe* a latency, inbox occupancy, energy spend or
//! channel busy-time above the static bound. Config knobs outside that
//! envelope (channel bursts, crash lifecycles, aggregator outages, the
//! adaptive controller) set the model's `unmodeled_faults` flag, which
//! makes the analyzer refuse the deadline/queue proofs instead of
//! reporting unsound numbers.

use crate::config::RuntimeConfig;
use crate::report::RunReport;
use xpro_analyze::energy::EnergyBounds;
use xpro_analyze::timing::{
    RetryRegime, TenantModel, TenantTimingBounds, TimingBounds, TimingModel,
};
use xpro_analyze::{analyze_energy, analyze_tenant_timing, analyze_timing};
use xpro_core::generator::XProGenerator;
use xpro_core::instance::XProInstance;
use xpro_core::partition::Partition;
use xpro_core::profile::segment_profile;
use xpro_core::XProError;

/// Extracts the plain-number timing/energy model of one deployment.
///
/// Every field comes from the shared per-segment profile walk (so the
/// model prices segments exactly as the executor does) and the runtime
/// configuration (fleet size, retry policy, deadline, inbox, epoch).
///
/// # Panics
///
/// Panics if the partition size differs from the instance's cell count
/// (the profile walk's contract).
pub fn timing_model(
    instance: &XProInstance,
    partition: &Partition,
    cfg: &RuntimeConfig,
) -> TimingModel {
    let profile = segment_profile(instance, partition);
    let period_s = instance.segment_len() as f64 / instance.config().sampling_hz;
    TimingModel {
        nodes: cfg.nodes,
        period_s,
        deadline_s: cfg.timeout_s,
        front_s: profile.front_s,
        back_s: profile.back_s,
        frame_airtimes_s: profile.frames.iter().map(|f| f.airtime_s).collect(),
        max_retries: cfg.max_retries,
        backoff_base_s: cfg.backoff_base_s,
        batch_wake_s: cfg.batch_wake_s,
        inbox_capacity: cfg.agg_inbox,
        duration_s: cfg.duration_s,
        sensor_compute_pj: profile.sensor_compute_pj,
        frame_sensor_pj: profile.frames.iter().map(|f| f.sensor_pj).collect(),
        battery_budget_pj: cfg.battery_budget_pj,
        unmodeled_faults: cfg.burst_enabled()
            || cfg.lifecycle_enabled()
            || cfg.outage_enabled()
            || cfg.adaptive,
    }
}

/// Derives both bound sets of a deployment under one retry regime, with
/// the lifetime floor evaluated against the instance's sensor battery.
///
/// # Errors
///
/// Returns [`XProError::Config`] when the extracted model is rejected by
/// the analyzers (out-of-range period, deadline or cost — in practice a
/// sign the runtime configuration itself is out of range).
///
/// # Panics
///
/// Panics if the partition size differs from the instance's cell count.
pub fn deployment_bounds(
    instance: &XProInstance,
    partition: &Partition,
    cfg: &RuntimeConfig,
    regime: RetryRegime,
) -> Result<(TimingBounds, EnergyBounds), XProError> {
    let model = timing_model(instance, partition, cfg);
    let timing = analyze_timing(&model, regime)
        .map_err(|e| XProError::config(format!("timing model rejected: {e}")))?;
    let energy = analyze_energy(&model, regime, Some(&instance.config().sensor_battery))
        .map_err(|e| XProError::config(format!("energy model rejected: {e}")))?;
    Ok((timing, energy))
}

/// Maps the configured tenant table into the analyzer's plain-number
/// tenant models (same order as `cfg.tenants`). Empty when tenancy is
/// off.
pub fn tenant_models(cfg: &RuntimeConfig) -> Vec<TenantModel> {
    cfg.tenants
        .iter()
        .map(|t| TenantModel {
            name: t.name.clone(),
            nodes: t.nodes,
            quota_hz: t.quota_hz,
            quota_burst: t.quota_burst,
            degrade: t.degrade,
        })
        .collect()
}

/// Builds the *envelope* timing model of a multi-tenant deployment: a
/// per-term upper bound over the primary plan and the degradation
/// fallback plan ([`XProGenerator::fallback_cut`], the same plan the
/// executor installs at epoch 1). A node may
/// run either plan depending on its tenant's tier, so every envelope
/// term must dominate both:
///
/// - `front_s`/`back_s`: pointwise max.
/// - frame vectors: the plan with the larger total airtime, zero-padded
///   to the larger frame count — both the frame count and the summed
///   airtime then dominate any mix of the two plans (a zero-airtime pad
///   frame only adds pessimism to the retry terms).
///
/// # Panics
///
/// Panics if the partition size differs from the instance's cell count.
pub fn envelope_timing_model(
    instance: &XProInstance,
    partition: &Partition,
    cfg: &RuntimeConfig,
) -> TimingModel {
    let mut model = timing_model(instance, partition, cfg);
    let fallback = XProGenerator::new(instance).fallback_cut();
    let fb = segment_profile(instance, &fallback);
    model.front_s = model.front_s.max(fb.front_s);
    model.back_s = model.back_s.max(fb.back_s);
    let fb_air: Vec<f64> = fb.frames.iter().map(|f| f.airtime_s).collect();
    let fb_pj: Vec<f64> = fb.frames.iter().map(|f| f.sensor_pj).collect();
    let frames = model.frame_airtimes_s.len().max(fb_air.len());
    if fb_air.iter().sum::<f64>() > model.frame_airtimes_s.iter().sum::<f64>() {
        model.frame_airtimes_s = fb_air;
    }
    model.frame_airtimes_s.resize(frames, 0.0);
    if fb_pj.iter().sum::<f64>() > model.frame_sensor_pj.iter().sum::<f64>() {
        model.frame_sensor_pj = fb_pj;
    }
    model.frame_sensor_pj.resize(frames, 0.0);
    model.sensor_compute_pj = model.sensor_compute_pj.max(fb.sensor_compute_pj);
    model
}

/// Derives the fleet envelope plus per-tenant WCRT/queue bounds for one
/// retry regime. Tenants with degradation enabled (or an unprovable
/// fleet) come back `unprovable` — the refusal, not a number, is the
/// sound answer there.
///
/// # Errors
///
/// Returns [`XProError::Config`] when the tenant table does not cover
/// the fleet or the extracted model is rejected by the analyzer.
///
/// # Panics
///
/// Panics if the partition size differs from the instance's cell count.
pub fn tenant_bounds(
    instance: &XProInstance,
    partition: &Partition,
    cfg: &RuntimeConfig,
    regime: RetryRegime,
) -> Result<(TimingBounds, Vec<TenantTimingBounds>), XProError> {
    let model = envelope_timing_model(instance, partition, cfg);
    let tenants = tenant_models(cfg);
    analyze_tenant_timing(&model, &tenants, regime)
        .map_err(|e| XProError::config(format!("tenant timing model rejected: {e}")))
}

/// One observed quantity exceeding its static bound — a soundness bug in
/// either the calculus or the executor, never an expected outcome.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum BoundViolation {
    /// A node's worst completed-segment latency exceeded the WCRT.
    LatencyAboveWcrt {
        /// The offending node.
        node: usize,
        /// Worst observed latency in seconds.
        observed_s: f64,
        /// The static WCRT in seconds.
        bound_s: f64,
    },
    /// A node's p99 latency exceeded the WCRT even after discounting the
    /// quantile sketch's worst-case relative error — a redundant guard
    /// over [`BoundViolation::LatencyAboveWcrt`] that stays sound for
    /// sketch-derived quantiles.
    TailLatencyAboveWcrt {
        /// The offending node.
        node: usize,
        /// Observed (sketch-derived) p99 latency in seconds.
        observed_s: f64,
        /// The static WCRT in seconds.
        bound_s: f64,
    },
    /// A tenant's p99 latency exceeded its envelope WCRT after
    /// discounting the sketch error (tenant counterpart of
    /// [`BoundViolation::TailLatencyAboveWcrt`]).
    TenantTailLatencyAboveWcrt {
        /// The offending tenant's name.
        tenant: String,
        /// Observed (sketch-derived) p99 latency in seconds.
        observed_s: f64,
        /// The static WCRT in seconds.
        bound_s: f64,
    },
    /// The aggregator inbox grew past the static occupancy bound.
    InboxAboveBound {
        /// Peak observed occupancy (jobs queued + in service).
        observed: u64,
        /// The static occupancy bound.
        bound: u64,
    },
    /// A node spent more sensor energy than the per-epoch worst case.
    EnergyAboveBound {
        /// The offending node.
        node: usize,
        /// Observed compute + wireless spend in pJ.
        observed_pj: f64,
        /// The static per-epoch bound in pJ.
        bound_pj: f64,
    },
    /// The channel carried more traffic than the fleet-wide demand
    /// envelope allows.
    ChannelAboveBound {
        /// Observed channel busy time in seconds.
        observed_s: f64,
        /// The static fleet-wide demand bound in seconds.
        bound_s: f64,
    },
    /// A tenant's worst completed-segment latency exceeded its envelope
    /// WCRT.
    TenantLatencyAboveWcrt {
        /// The offending tenant's name.
        tenant: String,
        /// Worst observed latency in seconds.
        observed_s: f64,
        /// The static per-tenant WCRT in seconds.
        bound_s: f64,
    },
    /// A tenant occupied more inbox slots at once than its static queue
    /// bound allows.
    TenantInboxAboveBound {
        /// The offending tenant's name.
        tenant: String,
        /// Peak observed per-tenant inbox occupancy.
        observed: u64,
        /// The static per-tenant occupancy bound.
        bound: u64,
    },
    /// An approximate kernel's observed decision-score deviation from the
    /// exact execution exceeded the static approximation envelope.
    ScoreDeviationAboveEnvelope {
        /// The offending ensemble base (position in the score vectors).
        base: usize,
        /// Observed `|approx − exact|` decision-score deviation.
        observed: f64,
        /// The static per-base deviation envelope.
        bound: f64,
    },
}

impl std::fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundViolation::LatencyAboveWcrt {
                node,
                observed_s,
                bound_s,
            } => write!(
                f,
                "node {node}: observed latency {observed_s:.6} s > WCRT {bound_s:.6} s"
            ),
            BoundViolation::TailLatencyAboveWcrt {
                node,
                observed_s,
                bound_s,
            } => write!(
                f,
                "node {node}: p99 latency {observed_s:.6} s > WCRT {bound_s:.6} s beyond sketch error"
            ),
            BoundViolation::TenantTailLatencyAboveWcrt {
                tenant,
                observed_s,
                bound_s,
            } => write!(
                f,
                "tenant {tenant}: p99 latency {observed_s:.6} s > WCRT {bound_s:.6} s beyond sketch error"
            ),
            BoundViolation::InboxAboveBound { observed, bound } => {
                write!(f, "inbox peak {observed} > static bound {bound}")
            }
            BoundViolation::EnergyAboveBound {
                node,
                observed_pj,
                bound_pj,
            } => write!(
                f,
                "node {node}: spent {observed_pj:.0} pJ > epoch bound {bound_pj:.0} pJ"
            ),
            BoundViolation::ChannelAboveBound {
                observed_s,
                bound_s,
            } => write!(
                f,
                "channel busy {observed_s:.6} s > demand envelope {bound_s:.6} s"
            ),
            BoundViolation::TenantLatencyAboveWcrt {
                tenant,
                observed_s,
                bound_s,
            } => write!(
                f,
                "tenant {tenant}: observed latency {observed_s:.6} s > WCRT {bound_s:.6} s"
            ),
            BoundViolation::TenantInboxAboveBound {
                tenant,
                observed,
                bound,
            } => write!(
                f,
                "tenant {tenant}: inbox peak {observed} > static bound {bound}"
            ),
            BoundViolation::ScoreDeviationAboveEnvelope {
                base,
                observed,
                bound,
            } => write!(
                f,
                "base {base}: score deviation {observed:.6} > static envelope {bound:.6}"
            ),
        }
    }
}

/// Whether an observation exceeds its bound beyond floating-point
/// accumulation noise: the executor accumulates costs term by term while
/// the analyzer computes closed-form products, so the two can differ by a
/// few ulps on *equal* quantities. The slack is relative at `1e-9` — far
/// below any real bound violation, far above accumulated rounding.
///
/// This tight slack is only valid for *exactly measured* quantities.
/// [`LatencyStats::max_s`](crate::LatencyStats) stays exact under the
/// quantile sketch (the sketch tracks min/max outside the bucket array),
/// so every max-vs-WCRT check below keeps the 1e-9 slack unchanged;
/// sketch-*derived* quantiles (p50/p95/p99) must go through
/// [`exceeds_quantile`] instead, which widens the slack by the sketch's
/// documented worst-case relative error.
fn exceeds(observed: f64, bound: f64) -> bool {
    observed > bound + bound.abs() * 1e-9
}

/// [`exceeds`] for sketch-derived quantiles: the observation may sit up
/// to [`QuantileSketch::REL_ERROR`] above its exact value purely from
/// bucketing, so the bound is inflated by that factor before the 1e-9
/// rounding slack applies — a reported excess inside the sketch error
/// band is not a violation.
fn exceeds_quantile(observed: f64, bound: f64) -> bool {
    let sketch_bound = bound * (1.0 + crate::sketch::QuantileSketch::REL_ERROR);
    observed > sketch_bound + sketch_bound.abs() * 1e-9
}

/// Checks a finished run against the static bounds, returning every
/// observation that exceeds its bound (empty = the soundness contract
/// held).
///
/// Unprovable bounds (`wcrt_s`/`queue_bound` of [`None`]) check nothing:
/// the analyzer already refused the claim, so there is no bound to
/// violate. Energy and channel envelopes are always finite and always
/// checked.
pub fn check_report(
    report: &RunReport,
    timing: &TimingBounds,
    energy: &EnergyBounds,
) -> Vec<BoundViolation> {
    let mut out = Vec::new();
    if let Some(wcrt) = timing.wcrt_s {
        for n in &report.nodes {
            if exceeds(n.latency.max_s, wcrt) {
                out.push(BoundViolation::LatencyAboveWcrt {
                    node: n.node,
                    observed_s: n.latency.max_s,
                    bound_s: wcrt,
                });
            }
            // Redundant tail guard on the sketch-derived p99: in an
            // honest report p99 ≤ max makes this strictly weaker, but it
            // keeps the check sound if a caller compares quantiles
            // directly — the slack accounts for the sketch error.
            if exceeds_quantile(n.latency.p99_s, wcrt) {
                out.push(BoundViolation::TailLatencyAboveWcrt {
                    node: n.node,
                    observed_s: n.latency.p99_s,
                    bound_s: wcrt,
                });
            }
        }
    }
    // `peak_inbox` is measured on the *merged* inbox — the aggregator
    // phase runs single-threaded in the executor regardless of how many
    // shards simulated the fleet — so the static queue bound is
    // checked against the same quantity for every shard count.
    if let Some(bound) = timing.queue_bound {
        if report.aggregator.peak_inbox > bound {
            out.push(BoundViolation::InboxAboveBound {
                observed: report.aggregator.peak_inbox,
                bound,
            });
        }
    }
    for n in &report.nodes {
        if exceeds(n.total_pj(), energy.per_epoch_pj) {
            out.push(BoundViolation::EnergyAboveBound {
                node: n.node,
                observed_pj: n.total_pj(),
                bound_pj: energy.per_epoch_pj,
            });
        }
    }
    let channel_bound_s =
        report.nodes.len() as f64 * energy.segments_per_epoch as f64 * timing.channel_demand_s;
    if exceeds(report.channel_busy_s, channel_bound_s) {
        out.push(BoundViolation::ChannelAboveBound {
            observed_s: report.channel_busy_s,
            bound_s: channel_bound_s,
        });
    }
    out
}

/// Checks a finished multi-tenant run against the per-tenant bounds,
/// returning every observation above its bound. Tenants are matched by
/// position (the report and the bound table both follow the configured
/// tenant order); unprovable tenants check nothing — the analyzer
/// already refused the claim for them.
pub fn check_tenant_report(
    report: &RunReport,
    tenants: &[TenantTimingBounds],
) -> Vec<BoundViolation> {
    let mut out = Vec::new();
    for (tr, tb) in report.tenants.iter().zip(tenants) {
        if tb.unprovable {
            continue;
        }
        if let Some(wcrt) = tb.wcrt_s {
            if exceeds(tr.latency.max_s, wcrt) {
                out.push(BoundViolation::TenantLatencyAboveWcrt {
                    tenant: tr.name.clone(),
                    observed_s: tr.latency.max_s,
                    bound_s: wcrt,
                });
            }
            if exceeds_quantile(tr.latency.p99_s, wcrt) {
                out.push(BoundViolation::TenantTailLatencyAboveWcrt {
                    tenant: tr.name.clone(),
                    observed_s: tr.latency.p99_s,
                    bound_s: wcrt,
                });
            }
        }
        if let Some(bound) = tb.queue_bound {
            if tr.peak_inbox > bound {
                out.push(BoundViolation::TenantInboxAboveBound {
                    tenant: tr.name.clone(),
                    observed: tr.peak_inbox,
                    bound,
                });
            }
        }
    }
    out
}

/// Cross-checks an approximate execution's per-base decision scores
/// against the exact execution and the static approximation envelopes:
/// every observed `|approx − exact|` must sit within the budget proof's
/// per-base deviation bound ([`SvmDeviation::dev_value`]). This is the
/// approximate-kernel counterpart of [`check_report`] — a violation is a
/// soundness bug in the injection calculus or the kernels, never an
/// expected outcome.
///
/// Pruned bases are skipped: their score is a forced abstention (`0.0`),
/// a *semantic* change the fused-deviation budget accounts for, not a
/// numeric deviation the envelope bounds.
///
/// [`SvmDeviation::dev_value`]: xpro_analyze::SvmDeviation::dev_value
///
/// # Panics
///
/// Panics if the score vectors and the analysis disagree on the number
/// of ensemble bases.
pub fn check_score_deviations(
    exact_scores: &[f64],
    approx_scores: &[f64],
    analysis: &xpro_analyze::ApproxAnalysis,
) -> Vec<BoundViolation> {
    assert_eq!(
        exact_scores.len(),
        approx_scores.len(),
        "score length mismatch"
    );
    assert_eq!(
        exact_scores.len(),
        analysis.svm.len(),
        "analysis base-count mismatch"
    );
    let mut out = Vec::new();
    for (base, ((&e, &a), dev)) in exact_scores
        .iter()
        .zip(approx_scores)
        .zip(&analysis.svm)
        .enumerate()
    {
        if dev.pruned {
            continue;
        }
        let observed = (a - e).abs();
        if exceeds(observed, dev.dev_value) {
            out.push(BoundViolation::ScoreDeviationAboveEnvelope {
                base,
                observed,
                bound: dev.dev_value,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::executor::{ExecutorBuilder, FleetSpec};
    use crate::report::RunReport;
    use crate::testutil::tiny_instance;
    use xpro_core::generator::{Engine, XProGenerator};

    fn cross_end(inst: &XProInstance) -> Partition {
        XProGenerator::new(inst)
            .partition_for(Engine::CrossEnd)
            .unwrap()
    }

    fn run(inst: &XProInstance, p: &Partition, cfg: RuntimeConfig) -> RunReport {
        ExecutorBuilder::new(FleetSpec::new(inst, p, cfg).unwrap())
            .build()
            .unwrap()
            .run()
            .report
    }

    #[test]
    fn model_extraction_matches_the_shared_profile() {
        let inst = tiny_instance(1);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::default();
        let m = timing_model(&inst, &p, &cfg);
        let profile = segment_profile(&inst, &p);
        assert_eq!(m.nodes, cfg.nodes);
        assert_eq!(m.frame_airtimes_s.len(), profile.frames.len());
        assert!((m.best_case_s() - profile.delay_s()).abs() < 1e-15);
        assert!(!m.unmodeled_faults);
        let with_burst = RuntimeConfig::builder()
            .burst_bad_rate(0.5)
            .burst_p_enter(0.1)
            .build()
            .unwrap();
        assert!(timing_model(&inst, &p, &with_burst).unmodeled_faults);
    }

    #[test]
    fn fault_free_run_stays_under_every_bound() {
        let inst = tiny_instance(2);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(2.0)
            .drop_rate(0.0)
            .seed(7)
            .build()
            .unwrap();
        let (timing, energy) = deployment_bounds(&inst, &p, &cfg, RetryRegime::FaultFree).unwrap();
        assert!(timing.wcrt_s.is_some(), "a tiny fleet must be provable");
        let report = run(&inst, &p, cfg);
        let violations = check_report(&report, &timing, &energy);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn lossy_run_stays_under_the_worst_case_retry_bounds() {
        let inst = tiny_instance(3);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(2.0)
            .drop_rate(0.3)
            .seed(11)
            .build()
            .unwrap();
        let (timing, energy) =
            deployment_bounds(&inst, &p, &cfg, RetryRegime::WorstCaseRetry).unwrap();
        let report = run(&inst, &p, cfg);
        let violations = check_report(&report, &timing, &energy);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn check_report_flags_fabricated_excesses() {
        let inst = tiny_instance(4);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::default();
        let (timing, energy) = deployment_bounds(&inst, &p, &cfg, RetryRegime::FaultFree).unwrap();
        let mut report = run(&inst, &p, cfg);
        report.nodes[0].latency.max_s = timing.wcrt_s.unwrap() + 1.0;
        report.aggregator.peak_inbox = timing.queue_bound.unwrap() + 1;
        report.nodes[1].wireless_pj = energy.per_epoch_pj + 1.0;
        let v = check_report(&report, &timing, &energy);
        assert!(v
            .iter()
            .any(|v| matches!(v, BoundViolation::LatencyAboveWcrt { node: 0, .. })));
        assert!(v
            .iter()
            .any(|v| matches!(v, BoundViolation::InboxAboveBound { .. })));
        assert!(v
            .iter()
            .any(|v| matches!(v, BoundViolation::EnergyAboveBound { node: 1, .. })));
        for violation in &v {
            assert!(!violation.to_string().is_empty());
        }
    }

    #[test]
    fn tenant_run_stays_under_the_per_tenant_bounds() {
        use crate::tenant::TenantSpec;
        let inst = tiny_instance(6);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(2.0)
            .drop_rate(0.0)
            .seed(9)
            .tenants(vec![
                TenantSpec::new("steady", 2).degrade(false),
                TenantSpec::new("metered", 2).quota_hz(50.0).degrade(false),
            ])
            .build()
            .unwrap();
        let (fleet, tenants) = tenant_bounds(&inst, &p, &cfg, RetryRegime::FaultFree).unwrap();
        assert!(
            fleet.wcrt_s.is_some(),
            "tiny fleet envelope must be provable"
        );
        assert!(tenants.iter().all(|t| !t.unprovable));
        let report = run(&inst, &p, cfg);
        assert_eq!(report.tenants.len(), 2);
        let violations = check_tenant_report(&report, &tenants);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn degrading_tenants_are_refused_not_checked() {
        use crate::tenant::TenantSpec;
        let inst = tiny_instance(7);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(1.0)
            .drop_rate(0.0)
            .seed(3)
            .tenants(vec![
                TenantSpec::new("calm", 2).degrade(false),
                TenantSpec::new("wild", 2).quota_hz(0.5).quota_burst(1),
            ])
            .build()
            .unwrap();
        let (_, tenants) = tenant_bounds(&inst, &p, &cfg, RetryRegime::WorstCaseRetry).unwrap();
        assert!(!tenants[0].unprovable);
        assert!(tenants[1].unprovable, "degrade-enabled tenants are refused");
        let mut report = run(&inst, &p, cfg);
        // Fabricate an excess on the refused tenant: nothing may fire.
        report.tenants[1].latency.max_s = 1e9;
        report.tenants[1].peak_inbox = u64::MAX;
        assert!(check_tenant_report(&report, &tenants).is_empty());
        // The same excess on the proven tenant is flagged, with a
        // readable message.
        report.tenants[0].latency.max_s = 1e9;
        report.tenants[0].peak_inbox = u64::MAX;
        let v = check_tenant_report(&report, &tenants);
        assert_eq!(v.len(), 2);
        assert!(v
            .iter()
            .any(|v| matches!(v, BoundViolation::TenantLatencyAboveWcrt { tenant, .. } if tenant == "calm")));
        assert!(v
            .iter()
            .any(|v| matches!(v, BoundViolation::TenantInboxAboveBound { tenant, .. } if tenant == "calm")));
        for violation in &v {
            assert!(!violation.to_string().is_empty());
        }
    }

    #[test]
    fn envelope_model_dominates_both_plans() {
        let inst = tiny_instance(8);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::default();
        let env = envelope_timing_model(&inst, &p, &cfg);
        let primary = timing_model(&inst, &p, &cfg);
        assert!(env.front_s >= primary.front_s);
        assert!(env.back_s >= primary.back_s);
        assert!(env.frame_airtimes_s.len() >= primary.frame_airtimes_s.len());
        assert!(
            env.frame_airtimes_s.iter().sum::<f64>()
                >= primary.frame_airtimes_s.iter().sum::<f64>()
        );
        let fallback = XProGenerator::new(&inst).fallback_cut();
        let fb = timing_model(&inst, &fallback, &cfg);
        assert!(env.front_s >= fb.front_s);
        assert!(env.back_s >= fb.back_s);
        assert!(env.frame_airtimes_s.len() >= fb.frame_airtimes_s.len());
        assert!(
            env.frame_airtimes_s.iter().sum::<f64>() >= fb.frame_airtimes_s.iter().sum::<f64>()
        );
    }

    #[test]
    fn score_deviation_check_flags_only_envelope_breaches() {
        use std::collections::BTreeMap;
        use xpro_analyze::{
            analyze_approx_budget, AnalyzeOptions, ApproxBudget, CellSpec, SignalBounds,
        };
        use xpro_hw::{ApproxConfig, ModuleKind};
        let svm = |label: &str| CellSpec {
            module: ModuleKind::Svm {
                support_vectors: 20,
                dims: 8,
                rbf: true,
            },
            inputs: vec![(None, 0)],
            label: label.to_string(),
        };
        let cells = vec![
            svm("SVM0"),
            svm("SVM1"),
            CellSpec {
                module: ModuleKind::ScoreFusion { bases: 2 },
                inputs: vec![(Some(0), 0), (Some(1), 0)],
                label: "Fusion".to_string(),
            },
        ];
        let mut assignment = BTreeMap::new();
        assignment.insert(
            0,
            ApproxConfig {
                mul_truncation_bits: 4,
                ..ApproxConfig::EXACT
            },
        );
        assignment.insert(
            1,
            ApproxConfig {
                svm_prune: true,
                ..ApproxConfig::EXACT
            },
        );
        let analysis = analyze_approx_budget(
            &cells,
            SignalBounds::default(),
            &AnalyzeOptions::default(),
            &assignment,
            &ApproxBudget::default(),
        )
        .unwrap();
        let env = analysis.svm[0].dev_value;
        assert!(env > 0.0);
        // Deviation inside the envelope is clean; the pruned base's forced
        // abstention (score 0.0 vs exact 0.9) is skipped by design.
        assert!(check_score_deviations(&[0.5, 0.9], &[0.5 + 0.5 * env, 0.0], &analysis).is_empty());
        // A breach on base 0 is flagged with the offending pair.
        let v = check_score_deviations(&[0.5, 0.9], &[0.5 + 2.0 * env, 0.0], &analysis);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            BoundViolation::ScoreDeviationAboveEnvelope { base: 0, .. }
        ));
    }

    #[test]
    fn unmodeled_faults_disable_the_refutable_checks() {
        let inst = tiny_instance(5);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .mtbf_s(1.0)
            .mttr_s(0.5)
            .build()
            .unwrap();
        let (timing, energy) =
            deployment_bounds(&inst, &p, &cfg, RetryRegime::WorstCaseRetry).unwrap();
        assert!(timing.wcrt_s.is_none());
        assert!(timing.queue_bound.is_none());
        // Energy/channel envelopes still hold: crashes only remove work.
        let report = run(&inst, &p, cfg);
        let violations = check_report(&report, &timing, &energy);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
