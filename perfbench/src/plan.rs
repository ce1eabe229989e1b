//! The `plan_sweep` workload: the design-time path over the six Table-1
//! cases.
//!
//! * (a) 216 exact requests — case × process node × paper radio × delay
//!   limits of {1.0, 1.25, 1.5, 2.0}× the generator's default limit —
//!   each priced with `XProInstance::reconfigured` and served by
//!   `PlanCache::plan_for`. One client, no think time, request order
//!   shuffled by the seed; each pass starts with an empty cache, so every
//!   request is cold. The datasets are fixed ([`setup::DATASET_SEED`]),
//!   so every seed does the same work.
//! * (b) `plan_approximate` for each case × process node (18 calls).
//! * (c) `xpro::sweep::table1_findings` with default options, rendered.

use std::collections::BTreeMap;
use std::time::Instant;

use xpro::analyze::{
    analyze_approx_budget, analyze_energy, analyze_timing, diff_findings, parse_findings,
    render_findings, AnalyzeOptions, ApproxVerdict, Finding, RetryRegime, SignalBounds,
};
use xpro::core::analysis::{analyze_graph, cell_specs};
use xpro::core::approx::{
    assignment_for_graph, plan_approximate, ApproxLevel, ApproxPlanOptions, ApproxPlanOutcome,
};
use xpro::core::builder::{build_full_cell_graph, BuildOptions};
use xpro::core::certificate::{check_cut_certificate, verify_plan, CutCertificate};
use xpro::core::config::SystemConfig;
use xpro::core::generator::{Engine, XProGenerator};
use xpro::core::instance::XProInstance;
use xpro::core::layout::{DWT_INPUT_LEN, DWT_LEVELS};
use xpro::core::partition::Partition;
use xpro::core::pipeline::extract_features;
use xpro::core::plancache::PlanCache;
use xpro::core::report::EngineComparison;
use xpro::core::stgraph::{build_network, certified_min_cut_partition};
use xpro::core::XProError;
use xpro::data::{generate_case_sized, CaseId};
use xpro::hw::ProcessNode;
use xpro::ml::Svm;
use xpro::runtime::{deployment_bounds, timing_model, RuntimeConfig};
use xpro::signal::dwt::{dwt_multilevel, dwt_multilevel_q16};
use xpro::signal::stats::{all_features_f64, all_features_q16};
use xpro::signal::window::fit_length;
use xpro::signal::Q16;
use xpro::sweep::{table1_findings, SweepOptions};
use xpro::wireless::TransceiverModel;

use crate::report::Outcome;
use crate::setup::{self, SplitMix, Trained};
use crate::stats::{median, Fnv};
use crate::trace::{SpanTotals, Tracer};
use crate::workload::Workload;

/// Delay limits of the exact requests, as multiples of the generator's
/// default limit. Every one is feasible.
pub const LIMIT_FACTORS: [f64; 4] = [1.0, 1.25, 1.5, 2.0];

/// The findings baseline `diff_findings` must come back clean against,
/// relative to the checkout root.
const BASELINE: &str = "analysis-baseline.json";

/// Pinned digest of the plans and findings. The datasets are fixed and
/// the serving order does not change a plan, so it holds at every seed.
const PINNED: u64 = 0x9acb_0bc0_fbc2_90c7;

/// One exact plan request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Index into the trained cases.
    pub case: usize,
    /// System configuration the case is re-priced under.
    pub config: SystemConfig,
    /// Delay limit of the request (seconds).
    pub limit_s: f64,
}

/// The λ values `XProGenerator::delay_constrained_cut_certified` sweeps,
/// replayed one by one in the traced run.
fn lambda_sweep() -> Vec<f64> {
    let mut out = vec![0.0];
    let mut lambda = 1.0e5;
    while lambda <= 1.0e14 {
        out.push(lambda);
        lambda *= 3.0;
    }
    out
}

/// The exact requests in canonical order (case, node, radio, factor),
/// with their limits computed from each configuration's default limit.
///
/// # Errors
///
/// Propagates pricing failures.
pub fn requests(cases: &[Trained]) -> Result<Vec<Request>, XProError> {
    let mut out = Vec::new();
    for (ci, t) in cases.iter().enumerate() {
        for node in ProcessNode::ALL {
            for radio in TransceiverModel::paper_models() {
                let config = SystemConfig::builder().node(node).radio(radio).build()?;
                let default_s = XProGenerator::new(&t.instance.reconfigured(config.clone())?)
                    .default_delay_limit();
                for factor in LIMIT_FACTORS {
                    out.push(Request {
                        case: ci,
                        config: config.clone(),
                        limit_s: factor * default_s,
                    });
                }
            }
        }
    }
    Ok(out)
}

/// The set-up `plan_sweep` workload.
#[derive(Debug)]
pub struct PlanSweep {
    seed: u64,
    cases: Vec<Trained>,
    requests: Vec<Request>,
    /// Request indices in the seeded serving order.
    order: Vec<usize>,
    /// Last pass: exact plans by canonical request index.
    exact: Vec<Option<(Partition, Option<CutCertificate>)>>,
    /// Last pass: approximate plans by (case, node).
    approx: Vec<Option<ApproxPlanOutcome>>,
    /// Last pass: findings and their rendering.
    findings: Option<(Vec<Finding>, String)>,
    /// Per pass: host seconds of part (b) and ms of part (c).
    approx_sweep_s: Vec<f64>,
    findings_sweep_ms: Vec<f64>,
    /// Traced run: approximate rungs tried and admitted by the budget
    /// proof in the replays.
    rungs: (u64, u64),
    /// Traced run: the findings sweep's deployments, built on first use.
    sweep_deployments: Vec<(XProInstance, Partition)>,
}

impl PlanSweep {
    /// Datasets, training and base instances for the six cases, and the
    /// request list.
    ///
    /// # Errors
    ///
    /// Propagates any set-up failure.
    pub fn setup(seed: u64) -> Result<Self, XProError> {
        let cases = CaseId::ALL
            .iter()
            .map(|&c| setup::train(c, setup::DATASET_SEED))
            .collect::<Result<Vec<_>, _>>()?;
        let requests = requests(&cases)?;
        let mut order: Vec<usize> = (0..requests.len()).collect();
        SplitMix::new(seed, 1).shuffle(&mut order);
        let n = requests.len();
        Ok(PlanSweep {
            seed,
            cases,
            requests,
            order,
            exact: vec![None; n],
            approx: Vec::new(),
            findings: None,
            approx_sweep_s: Vec::new(),
            findings_sweep_ms: Vec::new(),
            rungs: (0, 0),
            sweep_deployments: Vec::new(),
        })
    }

    /// Digest of every plan and finding of the last pass.
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for plan in &self.exact {
            match plan {
                Some((p, _)) => h.bools(&p.in_sensor),
                None => h.str("failed"),
            };
        }
        for out in &self.approx {
            match out {
                Some(o) => {
                    h.str(o.level.map_or("exact", ApproxLevel::name))
                        .bools(&o.partition.in_sensor)
                        .f64(o.sensor_pj)
                        .f64(o.exact_sensor_pj)
                        .f64(o.cv_exact_accuracy)
                        .f64(o.cv_approx_accuracy);
                }
                None => {
                    h.str("failed");
                }
            }
        }
        for f in self.findings.iter().flat_map(|(f, _)| f) {
            h.str(&f.config)
                .u64(f.cell as u64)
                .str(&f.label)
                .str(&f.rule)
                .str(f.severity.as_str())
                .f64(f.bound)
                .f64(f.interval_width)
                .f64(f.affine_width);
        }
        h.finish()
    }

    fn replay_request(&self, tr: &mut Tracer, idx: usize) -> Result<(), XProError> {
        let req = &self.requests[idx];
        let inst = self.cases[req.case]
            .instance
            .reconfigured(req.config.clone())?;
        tr.span("analyze.range", |_| {
            analyze_graph(
                &inst.built().graph,
                inst.bounds(),
                &AnalyzeOptions::default(),
            )
        });
        tr.span("core.cache_key", |_| PlanCache::key(&inst, req.limit_s));
        let (plan, cert) = tr.span("core.generate", |_| {
            XProGenerator::new(&inst).delay_constrained_cut_certified(req.limit_s)
        })?;
        for lambda in lambda_sweep() {
            let st = tr.span("core.build_network", |_| build_network(&inst, lambda));
            let mut net = st.net.clone();
            tr.span("graph.max_flow", |_| net.max_flow(st.source, st.sink));
            let (p, c) = certified_min_cut_partition(&inst, lambda);
            tr.span("core.certificate", |_| check_cut_certificate(&inst, &p, &c))?;
        }
        tr.span("core.verify", |_| {
            verify_plan(&inst, &plan, cert.as_ref(), req.limit_s)
        })?;
        Ok(())
    }

    fn replay_approx(&mut self, tr: &mut Tracer, k: usize) -> Result<(), XProError> {
        let (ci, node) = (k / 3, ProcessNode::ALL[k % 3]);
        let t = &self.cases[ci];
        let pipeline = &t.pipeline;
        let exact = XProInstance::try_new(
            pipeline.built().clone(),
            SystemConfig::with_node(node),
            pipeline.segment_len(),
        )?;
        let generator = XProGenerator::new(&exact);
        let limit_s = generator.default_delay_limit();
        let (exact_cut, _) = generator.delay_constrained_cut_certified(limit_s)?;
        for seg in &t.data.segments {
            tr.span("core.classify_q16", |_| {
                pipeline.classify_partitioned_q16(seg, &exact_cut)
            });
        }
        // The rungs plan_approximate tries: budget proof first, then the
        // accuracy cross-validation of each proven rung's cut.
        let specs = cell_specs(&pipeline.built().graph);
        for level in ApproxLevel::ALL {
            let assignment = assignment_for_graph(pipeline.built(), level);
            if assignment.is_empty() {
                continue;
            }
            let analysis = tr.span("analyze.approx_budget", |_| {
                analyze_approx_budget(
                    &specs,
                    exact.bounds(),
                    &AnalyzeOptions::default(),
                    &assignment,
                    &ApproxPlanOptions::default().budget,
                )
            });
            self.rungs.0 += 1;
            if !analysis.is_ok_and(|a| a.verdict == ApproxVerdict::BudgetProven) {
                continue;
            }
            self.rungs.1 += 1;
            let Ok(inst) = exact.with_approx(assignment.clone()) else {
                continue;
            };
            let Ok((cut, _)) = XProGenerator::new(&inst).delay_constrained_cut_certified(limit_s)
            else {
                continue;
            };
            for seg in &t.data.segments {
                tr.span("core.classify_q16_approx", |_| {
                    pipeline.classify_partitioned_q16_approx(seg, &cut, &assignment)
                });
            }
        }
        // The kernels under those classifications, one segment at a time.
        let wavelet = pipeline.wavelet();
        let bases = pipeline.model().bases();
        for seg in &t.data.segments {
            let padded = fit_length(seg, DWT_INPUT_LEN);
            let fixed: Vec<Q16> = padded.iter().map(|&v| Q16::from_f64(v)).collect();
            tr.span("signal.dwt_q16", |_| {
                dwt_multilevel_q16(&fixed, DWT_LEVELS, wavelet)
            });
            tr.span("signal.dwt_f64", |_| {
                dwt_multilevel(&padded, DWT_LEVELS, wavelet)
            });
            tr.span("signal.features_q16", |_| all_features_q16(&fixed));
            tr.span("signal.features_f64", |_| all_features_f64(&padded));
            let scaled = pipeline
                .scaler()
                .transform_one(&extract_features(seg, wavelet));
            let mut votes = Vec::with_capacity(bases.len());
            for base in bases {
                let x: Vec<f64> = base.feature_indices.iter().map(|&i| scaled[i]).collect();
                let xq: Vec<Q16> = x.iter().map(|&v| Q16::from_f64(v)).collect();
                let svm: &Svm = &base.svm;
                let d = tr.span("ml.svm_decision", |_| svm.decision(&x));
                tr.span("ml.svm_decision_q16", |_| svm.decision_q16(&xq));
                votes.push(if d >= 0.0 { 1.0 } else { -1.0 });
            }
            tr.span("ml.fusion", |_| pipeline.model().fusion().score(&votes));
        }
        Ok(())
    }

    fn replay_findings(&mut self, tr: &mut Tracer) -> Result<(), XProError> {
        if self.sweep_deployments.is_empty() {
            // The deployments table1_findings analyses: the framework
            // graph under the default bounds and each case's bounds.
            let opts = SweepOptions::default();
            let mut bounds = vec![SignalBounds::default()];
            for case in CaseId::ALL {
                let (lo, hi) = generate_case_sized(case, opts.segments, 42).signal_range();
                bounds.push(SignalBounds::new(lo, hi));
            }
            for b in bounds {
                let built = build_full_cell_graph(&BuildOptions::default(), opts.bases, opts.sv);
                let inst = XProInstance::try_with_bounds(
                    built,
                    SystemConfig::default(),
                    opts.segment_len,
                    b,
                )?;
                let cut = XProGenerator::new(&inst).generate()?;
                self.sweep_deployments.push((inst, cut));
            }
        }
        let cfg = RuntimeConfig::default();
        for (inst, cut) in &self.sweep_deployments {
            for regime in [RetryRegime::FaultFree, RetryRegime::WorstCaseRetry] {
                tr.span("runtime.deployment_bounds", |_| {
                    deployment_bounds(inst, cut, &cfg, regime)
                })?;
                let model = timing_model(inst, cut, &cfg);
                tr.span("analyze.timing", |_| analyze_timing(&model, regime))
                    .map_err(|e| XProError::config(e.to_string()))?;
                tr.span("analyze.energy", |_| {
                    analyze_energy(&model, regime, Some(&inst.config().sensor_battery))
                })
                .map_err(|e| XProError::config(e.to_string()))?;
            }
        }
        Ok(())
    }

    fn model_outputs(&self, out: &mut Outcome) {
        for (t, approx) in self.cases.iter().zip(self.approx.iter().skip(1).step_by(3)) {
            let sym = t.case.symbol();
            let Ok(cmp) = EngineComparison::evaluate(sym, &t.instance) else {
                out.check(&format!("{sym}: engine comparison evaluates"), false);
                continue;
            };
            let single = [Engine::InSensor, Engine::InAggregator];
            let gain = single
                .iter()
                .map(|&e| cmp.lifetime_gain_over(e))
                .fold(f64::INFINITY, f64::min);
            let cut = single
                .iter()
                .map(|&e| cmp.delay_reduction_over(e))
                .fold(f64::INFINITY, f64::min);
            let saving = approx
                .as_ref()
                .map_or(f64::NAN, ApproxPlanOutcome::energy_saving);
            println!(
                "model {sym}: battery gain {gain:.3}x (paper 1.6-2.4x), delay cut {:.1}% \
                 (paper 15.6-60.8%), approximation energy saving {:.1}% at N90",
                100.0 * cut,
                100.0 * saving
            );
            out.check(
                &format!("{sym}: cross-end cut is no worse than the best single-end engine"),
                gain >= 1.0 - 1e-9 && cut >= -1e-9,
            );
            out.check(
                &format!("{sym}: approximation saving is in [0, 1)"),
                (0.0..1.0).contains(&saving),
            );
        }
    }
}

impl Workload for PlanSweep {
    fn pass(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Vec<f64> {
        // (a) exact requests, cold cache.
        let mut cache = PlanCache::new(8);
        let mut ms = Vec::with_capacity(self.order.len());
        for &i in &self.order {
            let req = &self.requests[i];
            let base = &self.cases[req.case].instance;
            tr.next_request();
            let t0 = Instant::now();
            let plan = tr.span("op.exact_request", |tr| {
                let inst = tr.span("core.price", |_| base.reconfigured(req.config.clone()))?;
                tr.span("core.plan_for", |_| cache.plan_for(&inst, req.limit_s))
            });
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.op(plan.is_ok());
            self.exact[i] = plan.ok();
        }

        // (b) approximate plans.
        let t0 = Instant::now();
        self.approx.clear();
        for t in &self.cases {
            for node in ProcessNode::ALL {
                tr.next_request();
                let outcome = tr.span("op.approx_plan", |tr| {
                    tr.span("core.plan_approximate", |_| {
                        plan_approximate(
                            &t.pipeline,
                            &t.data,
                            SystemConfig::with_node(node),
                            &ApproxPlanOptions::default(),
                        )
                    })
                });
                out.op(outcome.is_ok());
                self.approx.push(outcome.ok());
            }
        }
        self.approx_sweep_s.push(t0.elapsed().as_secs_f64());

        // (c) findings.
        tr.next_request();
        let t0 = Instant::now();
        let findings = tr.span("op.findings", |tr| {
            let (_, findings) = tr.span("xpro.table1_findings", |_| {
                table1_findings(&SweepOptions::default())
            })?;
            let text = tr.span("analyze.render_findings", |_| render_findings(&findings));
            Ok::<_, XProError>((findings, text))
        });
        self.findings_sweep_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);
        out.op(findings.is_ok());
        self.findings = findings.ok();
        ms
    }

    fn work_units(&self) -> f64 {
        self.requests.len() as f64
    }

    fn replay(&mut self, tr: &mut Tracer) {
        for i in 0..self.requests.len() {
            tr.next_request();
            if let Err(e) = tr.span("op.replay_request", |tr| self.replay_request(tr, i)) {
                eprintln!("replay of request {i} failed: {e}");
            }
        }
        for k in 0..self.cases.len() * ProcessNode::ALL.len() {
            tr.next_request();
            if let Err(e) = tr.span("op.replay_approx", |tr| self.replay_approx(tr, k)) {
                eprintln!("replay of approximate plan {k} failed: {e}");
            }
        }
        tr.next_request();
        if let Err(e) = tr.span("op.replay_findings", |tr| self.replay_findings(tr)) {
            eprintln!("replay of the findings sweep failed: {e}");
        }
    }

    fn checks(&mut self, out: &mut Outcome) {
        // Every exact plan re-verifies on a freshly priced instance and
        // equals a cold generator cut.
        let mut verified = 0;
        for (req, plan) in self.requests.iter().zip(&self.exact) {
            let ok = plan.as_ref().is_some_and(|(p, cert)| {
                let Ok(fresh) = self.cases[req.case]
                    .instance
                    .reconfigured(req.config.clone())
                else {
                    return false;
                };
                verify_plan(&fresh, p, cert.as_ref(), req.limit_s).is_ok()
                    && XProGenerator::new(&fresh)
                        .delay_constrained_cut_certified(req.limit_s)
                        .is_ok_and(|(cold, _)| cold == *p)
            });
            verified += usize::from(ok);
            out.op(ok);
        }
        println!(
            "check {}  {verified} of {} exact plans pass verify_plan and equal a cold cut",
            if verified == self.requests.len() {
                "ok   "
            } else {
                "FAIL "
            },
            self.requests.len()
        );

        // Every admitted approximate rung carries a budget proof that
        // re-derives.
        let mut proven = 0;
        for o in &self.approx {
            let ok = o.as_ref().is_some_and(|o| match o.level {
                None => o.sensor_pj == o.exact_sensor_pj,
                Some(_) => {
                    o.sensor_pj < o.exact_sensor_pj
                        && o.analysis
                            .as_ref()
                            .is_some_and(|a| a.verdict == ApproxVerdict::BudgetProven)
                        && analyze_approx_budget(
                            &cell_specs(&o.instance.built().graph),
                            o.instance.bounds(),
                            &AnalyzeOptions::default(),
                            o.assignment(),
                            &ApproxPlanOptions::default().budget,
                        )
                        .is_ok_and(|a| a.verdict == ApproxVerdict::BudgetProven)
                }
            });
            proven += usize::from(ok);
            out.op(ok);
        }
        println!(
            "check {}  {proven} of {} approximate plans: admitted rungs are BudgetProven",
            if proven == self.approx.len() {
                "ok   "
            } else {
                "FAIL "
            },
            self.approx.len()
        );

        let clean = std::fs::read_to_string(BASELINE)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_findings(&text))
            .map(|baseline| {
                self.findings
                    .as_ref()
                    .map(|(current, _)| diff_findings(&baseline, current).len())
            });
        match clean {
            Ok(Some(regressions)) => out.check(
                &format!("diff_findings against {BASELINE}: {regressions} regressions"),
                regressions == 0,
            ),
            Ok(None) => out.check("findings sweep produced findings", false),
            Err(e) => out.check(&format!("read {BASELINE}: {e}"), false),
        }

        self.model_outputs(out);

        // The first pass is the untimed warm-up.
        let timed = |v: &[f64]| median(if v.len() > 1 { &v[1..] } else { v });
        println!(
            "approx_sweep_s {:.4} s, findings_sweep_ms {:.3} ms (medians over {} passes); \
             op_ms_p50 and op_ms_tail are plan_ms_p50 and plan_ms_p95",
            timed(&self.approx_sweep_s),
            timed(&self.findings_sweep_ms),
            self.approx_sweep_s.len().saturating_sub(1).max(1),
        );

        let d = self.digest();
        println!("digest plan_sweep seed {} = {d:#018x}", self.seed);
        out.check(
            &format!("plans and findings match the pinned digest {PINNED:#018x}"),
            d == PINNED,
        );
    }

    fn layer_metrics(&self, _totals: &BTreeMap<&str, SpanTotals>, out: &mut Outcome) {
        let plans = self.exact.iter().flatten().count() + self.approx.iter().flatten().count();
        out.metric("core.plans", plans as f64);
        let (tried, admitted) = self.rungs;
        out.metric(
            "core.approx_rungs_admitted_ratio",
            admitted as f64 / tried.max(1) as f64,
        );
    }
}
