//! The two fleet workloads: `fleet_large` (one barrier round over a
//! 50 000-node fleet) and `fleet_chaos` (hundreds of barrier rounds over
//! 512 nodes with tenants, faults, the adaptive controller and the
//! timestep recorder). Both time C1's certified cross-end cut on one
//! shard; the checks and the traced run also run it on two.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xpro::analyze::RetryRegime;
use xpro::core::config::SystemConfig;
use xpro::core::generator::XProGenerator;
use xpro::core::partition::Partition;
use xpro::core::plancache::PlanCache;
use xpro::core::XProError;
use xpro::data::CaseId;
use xpro::runtime::{
    check_report, deployment_bounds, node_columns, summarize_timesteps, ColumnBatch, ColumnData,
    ExecutorBuilder, FleetSpec, RunHandle, RunReport, RuntimeConfig, TenantSpec,
};

use crate::report::Outcome;
use crate::setup::{self, Trained};
use crate::stats::Fnv;
use crate::trace::{SpanTotals, Tracer};
use crate::workload::Workload;

/// Shards every timed fleet run uses. One: a timed run is a single
/// thread, so it does not contend for the second core of the two-core
/// host the benchmark is sized for.
pub const SHARDS: usize = 1;

/// Shards of the run the checks compare the timed report against, and
/// of the traced run's sharded baseline.
pub const CHECK_SHARDS: usize = 2;

/// Which fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 50 000 nodes, 5 % i.i.d. loss, single round.
    Large,
    /// 512 nodes, tenants, faults, controller and recorder.
    Chaos,
}

/// Pinned digests of the simulated results at [`setup::DEFAULT_SEED`].
const PINNED_LARGE: u64 = 0x17ea_5204_97f0_cede;
const PINNED_CHAOS: u64 = 0x2ec1_99f1_97e9_3f31;

/// The fleet configuration of a workload.
///
/// # Errors
///
/// Propagates configuration validation.
pub fn fleet_config(kind: Kind, trained: &Trained, seed: u64) -> Result<RuntimeConfig, XProError> {
    match kind {
        Kind::Large => RuntimeConfig::builder()
            .nodes(50_000)
            .duration_s(0.5)
            .drop_rate(0.05)
            .seed(seed)
            .build(),
        Kind::Chaos => {
            // Per-node arrival rate of the case; quotas are per tenant.
            let rate_hz = trained.instance.events_per_second();
            RuntimeConfig::builder()
                .nodes(512)
                .duration_s(30.0)
                .drop_rate(0.05)
                .max_retries(4)
                .seed(seed)
                .burst_bad_rate(0.6)
                .burst_p_enter(0.05)
                .burst_p_exit(0.3)
                .burst_slot_s(0.1)
                .mtbf_s(20.0)
                .mttr_s(0.5)
                .reboot_warmup_s(0.05)
                .agg_outage_period_s(2.0)
                .agg_outage_s(0.2)
                .agg_inbox(128)
                // A narrow band makes the controller decide at nearly every
                // dwell, so each seed runs about the same number of cold
                // replans (27-29 per run over seeds 1-10).
                .adaptive(true)
                .adaptive_window(64)
                .hysteresis(1.05)
                .min_dwell_s(1.0)
                .tenants(vec![
                    TenantSpec::new("uncapped", 256)
                        .weight(2)
                        .degrade(false)
                        .breaker_rounds(0),
                    TenantSpec::new("metered", 192)
                        .quota_hz(0.6 * 192.0 * rate_hz)
                        .quota_burst(32)
                        .degrade(true)
                        .breaker_rounds(0),
                    TenantSpec::new("offender", 64)
                        .quota_hz(5.0)
                        .quota_burst(2)
                        .degrade(true)
                        .breaker_rounds(2)
                        .cooldown_s(0.5),
                ])
                .build()
        }
    }
}

/// A set-up fleet workload.
#[derive(Debug)]
pub struct Fleet {
    kind: Kind,
    seed: u64,
    out_dir: PathBuf,
    trained: Trained,
    cut: Partition,
    cfg: RuntimeConfig,
    last: Option<FleetPass>,
    /// The traced run's [`CHECK_SHARDS`]-shard replay of the last pass,
    /// reused by the byte-identity check.
    last_sharded: Option<RunHandle>,
}

/// What one fleet pass produced.
#[derive(Debug)]
pub struct FleetPass {
    /// The run.
    pub handle: RunHandle,
    /// `RunReport::to_json` of the run.
    pub json: String,
    /// Bytes written to `timesteps.xpc` and `nodes.xpc` (chaos only).
    pub written: Option<(Vec<u8>, Vec<u8>)>,
}

impl Fleet {
    /// Dataset, training, base instance, certified cut and spec build.
    ///
    /// # Errors
    ///
    /// Propagates any set-up failure.
    pub fn setup(kind: Kind, seed: u64, out_dir: &Path) -> Result<Self, XProError> {
        // The dataset is fixed so that every seed runs the same cut, which
        // keeps every cell on the sensor; the seed drives the fleet's
        // random streams. (C1's cut flips between all-sensor and a
        // feature-upload cut with the dataset, and the upload cut
        // saturates the 50 000-node shared channel.)
        let trained = setup::train(CaseId::C1, setup::DATASET_SEED)?;
        let cut = setup::certified_cut(&trained.instance)?;
        let cfg = fleet_config(kind, &trained, seed)?;
        FleetSpec::new(&trained.instance, &cut, cfg.clone())?;
        Ok(Fleet {
            kind,
            seed,
            out_dir: out_dir.to_path_buf(),
            trained,
            cut,
            cfg,
            last: None,
            last_sharded: None,
        })
    }

    fn run(&self, shards: usize) -> Result<RunHandle, XProError> {
        Ok(ExecutorBuilder::new(FleetSpec::new(
            &self.trained.instance,
            &self.cut,
            self.cfg.clone(),
        )?)
        .shards(shards)
        .record_timesteps(self.kind == Kind::Chaos)
        .build()?
        .run())
    }

    fn run_pass(&self, tr: &mut Tracer) -> Result<FleetPass, XProError> {
        let handle = tr.span("runtime.run", |_| self.run(SHARDS))?;
        let json = tr.span("runtime.report_json", |_| handle.report.to_json());
        let written = match &handle.timesteps {
            Some(batch) => Some(tr.span("runtime.export", |_| {
                export(&self.out_dir, batch, &handle.report)
            })?),
            None => None,
        };
        Ok(FleetPass {
            handle,
            json,
            written,
        })
    }
}

/// Encodes and writes `timesteps.xpc` and `nodes.xpc`, returning the
/// bytes written.
fn export(
    dir: &Path,
    timesteps: &ColumnBatch,
    report: &RunReport,
) -> Result<(Vec<u8>, Vec<u8>), XProError> {
    let io = |e: std::io::Error| XProError::config(format!("export to {}: {e}", dir.display()));
    std::fs::create_dir_all(dir).map_err(io)?;
    let steps = timesteps.to_bytes();
    std::fs::write(dir.join("timesteps.xpc"), &steps).map_err(io)?;
    let nodes = node_columns(report).to_bytes();
    std::fs::write(dir.join("nodes.xpc"), &nodes).map_err(io)?;
    Ok((steps, nodes))
}

/// Whether two reports are byte-identical; a mismatch counts as one
/// failed operation.
pub fn reports_identical(a: &str, b: &str) -> bool {
    a.as_bytes() == b.as_bytes()
}

/// Digest of the simulated statistics the benchmark reads from a run:
/// per-node counters, energies and latency quantiles, the fleet, tenant
/// and aggregator figures, the controller's decisions and the exported
/// timesteps. Floats enter by bit pattern, so any change to a simulated
/// result changes the digest, while a change to how the report is
/// formatted does not.
pub fn digest(handle: &RunHandle) -> u64 {
    let r = &handle.report;
    let mut h = Fnv::default();
    let latency = |h: &mut Fnv, l: &xpro::runtime::LatencyStats| {
        h.u64(l.count)
            .f64(l.mean_s)
            .f64(l.p50_s)
            .f64(l.p95_s)
            .f64(l.p99_s)
            .f64(l.max_s);
    };
    h.f64(r.duration_s).u64(r.nodes.len() as u64);
    for n in &r.nodes {
        h.u64(n.segments_offered)
            .u64(n.segments_completed)
            .u64(n.segments_dropped)
            .u64(n.segments_timed_out)
            .u64(n.segments_lost_to_crash)
            .u64(n.segments_shed)
            .u64(n.segments_overflowed)
            .u64(n.segments_admission_rejected)
            .u64(n.segments_quarantined)
            .u64(n.crashes)
            .u64(u64::from(n.battery_depleted))
            .u64(n.frame_attempts)
            .u64(n.frame_drops)
            .u64(n.retries)
            .f64(n.compute_pj)
            .f64(n.wireless_pj);
        latency(&mut h, &n.latency);
    }
    latency(&mut h, &r.fleet);
    let a = &r.aggregator;
    h.u64(a.batches)
        .u64(a.max_batch)
        .u64(a.peak_inbox)
        .f64(a.busy_s)
        .f64(a.energy_pj)
        .f64(a.outage_s)
        .u64(a.inbox_overflows)
        .u64(a.admission_rejected)
        .u64(a.quarantine_dropped)
        .f64(r.channel_busy_s)
        .f64(r.channel_bad_s);
    for t in &r.tenants {
        h.str(&t.name)
            .u64(t.segments_offered)
            .u64(t.admitted)
            .u64(t.completed)
            .u64(t.admission_rejected)
            .u64(t.inbox_overflow)
            .u64(t.quarantine_dropped)
            .u64(t.quarantines)
            .u64(t.peak_inbox);
        latency(&mut h, &t.latency);
    }
    for s in &r.partition_switches {
        h.f64(s.time_s)
            .str(s.tier.as_str())
            .u64(s.sensor_cells as u64)
            .f64(s.factor);
    }
    h.u64(r.plan_audit.certified)
        .u64(r.plan_audit.rejected)
        .u64(r.plan_cache.hits)
        .u64(r.plan_cache.misses)
        .u64(r.plan_cache.rejected);
    if let Some(batch) = &handle.timesteps {
        for name in batch.names() {
            h.str(name);
            match batch.column(name) {
                Some(ColumnData::U64(v)) => v.iter().for_each(|&x| {
                    h.u64(x);
                }),
                Some(ColumnData::F64(v)) => v.iter().for_each(|&x| {
                    h.f64(x);
                }),
                None => {}
            }
        }
    }
    h.finish()
}

/// Fraction of offered segments that completed.
fn delivery_ratio(r: &RunReport) -> f64 {
    let offered: u64 = r.nodes.iter().map(|n| n.segments_offered).sum();
    r.total_completed() as f64 / offered.max(1) as f64
}

impl Workload for Fleet {
    fn pass(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Vec<f64> {
        // Free the previous run first: each pass holds one run's memory.
        self.last = None;
        tr.next_request();
        let t0 = Instant::now();
        let result = tr.span("op.fleet_run", |tr| self.run_pass(tr));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.op(result.is_ok());
        match result {
            Ok(p) => {
                self.last = Some(p);
                vec![ms]
            }
            Err(e) => {
                eprintln!("fleet run failed: {e}");
                Vec::new()
            }
        }
    }

    fn work_units(&self) -> f64 {
        self.last.as_ref().map_or(0.0, |p| {
            p.handle
                .report
                .nodes
                .iter()
                .map(|n| n.segments_offered)
                .sum::<u64>() as f64
        })
    }

    fn replay(&mut self, tr: &mut Tracer) {
        // The sharded baseline of the same spec; the byte-identity check
        // reuses it.
        self.last_sharded = tr.span("op.replay_fleet", |tr| {
            tr.span("runtime.run_2shard", |_| self.run(CHECK_SHARDS))
                .ok()
        });
        // The controller's cold replans run inside `runtime.run`. Replay
        // as many, at the attempt-inflation factors of the applied
        // switches (the factors of decisions that kept the plan are not
        // reported; a cold replan's cost barely depends on the factor).
        let Some(last) = &self.last else { return };
        let r = &last.handle.report;
        let lookups = r.plan_cache.hits + r.plan_cache.misses;
        if lookups == 0 {
            return;
        }
        let factors: Vec<f64> = r.partition_switches.iter().map(|s| s.factor).collect();
        let inst = &self.trained.instance;
        let limit_s = XProGenerator::new(inst).default_delay_limit();
        for i in 0..lookups as usize {
            let factor = factors
                .get(i % factors.len().max(1))
                .copied()
                .unwrap_or(1.5);
            let config = SystemConfig {
                radio: inst.config().radio.derated(factor),
                ..inst.config().clone()
            };
            tr.next_request();
            // A derated radio can leave no cut under the promised limit;
            // the controller then degrades, so an error here is an
            // outcome of the replayed call, not a benchmark failure.
            let _ = tr.span("op.replay_replan", |tr| {
                let priced = tr.span("core.price", |_| inst.reconfigured(config))?;
                tr.span("core.cache_key", |_| PlanCache::key(&priced, limit_s));
                tr.span("core.generate", |_| {
                    XProGenerator::new(&priced).delay_constrained_cut_certified(limit_s)
                })
            });
        }
    }

    fn checks(&mut self, out: &mut Outcome) {
        let Some(last) = &self.last else {
            out.check("a fleet pass produced a report", false);
            return;
        };
        let sharded = match self.last_sharded.take() {
            Some(h) => Ok(h),
            None => self.run(CHECK_SHARDS),
        };
        match sharded {
            Ok(sharded) => out.check(
                &format!(
                    "{CHECK_SHARDS}-shard report is byte-identical to the {SHARDS}-shard report"
                ),
                reports_identical(&sharded.report.to_json(), &last.json),
            ),
            Err(e) => out.check(&format!("{CHECK_SHARDS}-shard run: {e}"), false),
        }
        let report = &last.handle.report;
        let balanced = report
            .nodes
            .iter()
            .filter(|n| n.segments_offered == n.segments_completed + n.segments_lost())
            .count();
        out.check(
            &format!(
                "offered = completed + losses on {balanced} of {} nodes",
                report.nodes.len()
            ),
            balanced == report.nodes.len(),
        );
        match self.kind {
            Kind::Large => {
                let bounds = deployment_bounds(
                    &self.trained.instance,
                    &self.cut,
                    &self.cfg,
                    RetryRegime::WorstCaseRetry,
                );
                match bounds {
                    Ok((timing, energy)) => {
                        let violations = check_report(report, &timing, &energy);
                        out.check(
                            &format!(
                                "soundness::check_report against deployment_bounds ({} violations)",
                                violations.len()
                            ),
                            violations.is_empty(),
                        );
                    }
                    Err(e) => out.check(&format!("deployment_bounds: {e}"), false),
                }
            }
            Kind::Chaos => {
                for (file, written) in [
                    ("timesteps.xpc", last.written.as_ref().map(|w| &w.0)),
                    ("nodes.xpc", last.written.as_ref().map(|w| &w.1)),
                ] {
                    out.check(
                        &format!("{file} round-trips through ColumnBatch::from_bytes"),
                        written.is_some_and(|w| xpc_round_trips(&self.out_dir.join(file), w)),
                    );
                }
                let totals = last
                    .handle
                    .timesteps
                    .as_ref()
                    .and_then(|b| summarize_timesteps(b).ok());
                out.check(
                    "timestep totals match the report counters",
                    totals.is_some_and(|s| {
                        s.offered == report.nodes.iter().map(|n| n.segments_offered).sum::<u64>()
                            && s.completed == report.total_completed()
                            && s.lost == report.total_lost()
                    }),
                );
            }
        }
        let ratio = delivery_ratio(report);
        println!("model delivery_ratio {ratio:.4} (completed / offered)");
        out.check("delivery ratio is in (0, 1]", ratio > 0.0 && ratio <= 1.0);
        let d = digest(&last.handle);
        println!("digest {:?} seed {} = {d:#018x}", self.kind, self.seed);
        if self.seed == setup::DEFAULT_SEED {
            let pinned = match self.kind {
                Kind::Large => PINNED_LARGE,
                Kind::Chaos => PINNED_CHAOS,
            };
            out.check(
                &format!("simulated results match the pinned digest {pinned:#018x}"),
                d == pinned,
            );
        }
    }

    fn layer_metrics(
        &self,
        totals: &std::collections::BTreeMap<&str, SpanTotals>,
        out: &mut Outcome,
    ) {
        let Some(last) = &self.last else { return };
        let r = &last.handle.report;
        let attempts: u64 = r.nodes.iter().map(|n| n.frame_attempts).sum();
        let run = totals.get("runtime.run").copied().unwrap_or_default();
        let sharded = totals
            .get("runtime.run_2shard")
            .copied()
            .unwrap_or_default();
        let mean_ns = |t: SpanTotals| t.total_ns as f64 / t.calls.max(1) as f64;
        let span = |name: &str| totals.get(name).copied().unwrap_or_default();
        let op = mean_ns(span("op.fleet_run"));
        println!(
            "share: report JSON is {:.1}% of a fleet operation",
            100.0 * mean_ns(span("runtime.report_json")) / op
        );
        let replan = span("op.replay_replan");
        if replan.calls > 0 {
            let lookups = (r.plan_cache.hits + r.plan_cache.misses) as f64;
            println!(
                "share: {lookups} cold replans at {:.3} ms each are ~{:.1}% of a fleet operation",
                mean_ns(replan) * 1e-6,
                100.0 * lookups * mean_ns(replan) / op
            );
        }
        out.metric(
            "runtime.shard_speedup",
            // Time on one shard over time on two.
            if run.calls > 0 && sharded.calls > 0 {
                mean_ns(run) / mean_ns(sharded)
            } else {
                0.0
            },
        );
        out.metric("runtime.report_bytes", last.json.len() as f64);
        out.metric(
            "runtime.ns_per_frame_attempt",
            if run.calls > 0 {
                mean_ns(run) / attempts.max(1) as f64
            } else {
                0.0
            },
        );
        out.metric(
            "runtime.telemetry_bytes_per_node",
            last.handle.telemetry_bytes as f64 / r.nodes.len().max(1) as f64,
        );
        // Runs without controller, tenants or recorder drain in one round;
        // the recorder writes one row per barrier round.
        out.metric(
            "runtime.barrier_rounds",
            last.handle.timesteps.as_ref().map_or(1, ColumnBatch::rows) as f64,
        );
        out.metric(
            "runtime.replans",
            (r.plan_cache.hits + r.plan_cache.misses) as f64,
        );
        out.metric("runtime.plan_cache_hit_ratio", r.plan_cache.hit_rate());
        out.metric("runtime.frame_attempts", attempts as f64);
        out.metric("runtime.retries", r.total_retries() as f64);
        out.metric(
            "runtime.admission_rejected",
            r.nodes
                .iter()
                .map(|n| n.segments_admission_rejected)
                .sum::<u64>() as f64,
        );
        out.metric(
            "runtime.quarantined",
            r.nodes.iter().map(|n| n.segments_quarantined).sum::<u64>() as f64,
        );
        out.metric(
            "runtime.partition_switches",
            r.partition_switches.len() as f64,
        );
        out.metric("runtime.delivery_ratio", delivery_ratio(r));
    }
}

/// Reads a written `.xpc` file back and checks that it decodes and
/// re-encodes to the same bytes.
fn xpc_round_trips(path: &Path, written: &[u8]) -> bool {
    let Ok(on_disk) = std::fs::read(path) else {
        return false;
    };
    on_disk == written && ColumnBatch::from_bytes(&on_disk).is_ok_and(|b| b.to_bytes() == on_disk)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small lossy fleet over the benchmark's C1 cut.
    fn small_run(trained: &Trained, cut: &Partition, seed: u64) -> RunHandle {
        let cfg = RuntimeConfig::builder()
            .nodes(16)
            .duration_s(1.0)
            .drop_rate(0.2)
            .seed(seed)
            .build()
            .unwrap();
        ExecutorBuilder::new(FleetSpec::new(&trained.instance, cut, cfg).unwrap())
            .shards(SHARDS)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let trained = setup::train(CaseId::C1, setup::DATASET_SEED).unwrap();
        let cut = setup::certified_cut(&trained.instance).unwrap();
        let a = digest(&small_run(&trained, &cut, 3));
        assert_eq!(a, digest(&small_run(&trained, &cut, 3)));
        assert_ne!(a, digest(&small_run(&trained, &cut, 4)));
    }

    #[test]
    fn one_flipped_byte_in_a_fleet_report_is_a_failure() {
        let trained = setup::train(CaseId::C1, setup::DATASET_SEED).unwrap();
        let cut = setup::certified_cut(&trained.instance).unwrap();
        let json = small_run(&trained, &cut, 3).report.to_json();
        let mut flipped = json.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let flipped = String::from_utf8(flipped).unwrap();
        let mut out = Outcome::default();
        out.check("identical", reports_identical(&json, &json));
        out.check("flipped", reports_identical(&json, &flipped));
        assert_eq!((out.attempted, out.failed), (2, 1));
    }
}
