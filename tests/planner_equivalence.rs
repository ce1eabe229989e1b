//! Bit-for-bit pins on the planner's hot path.
//!
//! The s-t network, the certified delay-constrained sweep, the cell
//! graph's port table, instance re-pricing and plan-cache keys are all
//! derived state; these tests hold each of them to its reference
//! definition so a speed-only change to how they are computed cannot move
//! a plan, a certificate or a cache entry.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use xpro::analyze::SignalBounds;
use xpro::battery::BatteryModel;
use xpro::core::approx::{assignment_for_graph, ApproxLevel};
use xpro::core::builder::{build_full_cell_graph, BuildOptions};
use xpro::core::cellgraph::{CellGraph, CellId, PortRef};
use xpro::core::stgraph::{build_network, certified_min_cut_partition};
use xpro::core::testutil::tiny_instance;
use xpro::core::{
    evaluate, AggregatorModel, CutCertificate, Partition, PipelineConfig, PlanCache,
    PlanCacheStats, SystemConfig, XProGenerator, XProInstance, XProPipeline,
};
use xpro::data::{generate_case_sized, CaseId};
use xpro::hw::{ApproxConfig, ProcessNode};
use xpro::ml::SubspaceConfig;
use xpro::wireless::TransceiverModel;

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// The generator's λ grid: 0, then 1e5·3^k up to 1e14.
fn lambdas() -> Vec<f64> {
    let mut out = vec![0.0];
    let mut lambda = 1.0e5;
    while lambda <= 1.0e14 {
        out.push(lambda);
        lambda *= 3.0;
    }
    out
}

/// The generator's selection rule over a full sweep: the single-end and
/// trivial designs, then every distinct grid cut in grid order with the
/// certificate of the first λ that yields it; the first minimum of sensor
/// energy among the numerically valid candidates that meet the limit.
fn full_sweep_plan(
    inst: &XProInstance,
    cuts: &[(Partition, CutCertificate)],
    limit_s: f64,
) -> Option<(Partition, Option<CutCertificate>)> {
    let gen = XProGenerator::new(inst);
    let n = inst.num_cells();
    let mut candidates = vec![
        (Partition::all_aggregator(n), None),
        (Partition::all_sensor(n), None),
        (gen.trivial_cut(), None),
    ];
    for (p, cert) in cuts {
        if !candidates.iter().any(|(q, _)| q == p) {
            candidates.push((p.clone(), Some(cert.clone())));
        }
    }
    let mut best: Option<(f64, Partition, Option<CutCertificate>)> = None;
    for (p, cert) in candidates {
        let e = evaluate(inst, &p);
        let feasible = e.delay.total_s() <= limit_s + limit_s * 1e-9;
        let energy = e.sensor.total_pj();
        if gen.numerically_valid(&p) && feasible && best.as_ref().is_none_or(|b| energy < b.0) {
            best = Some((energy, p, cert));
        }
    }
    best.map(|(_, p, cert)| (p, cert))
}

/// Holds the generator to the full sweep on `base` re-priced under each
/// derated radio, at each limit relative to `base`'s default limit.
/// Returns how many requests were planned.
fn check_against_full_sweep(tag: &str, base: &XProInstance) -> usize {
    let default_s = XProGenerator::new(base).default_delay_limit();
    let mut planned = 0;
    for derate in [1.0, 1.1, 1.5, 2.0, 4.0, 8.0] {
        let config = SystemConfig {
            radio: base.config().radio.derated(derate),
            ..base.config().clone()
        };
        let inst = base.reconfigured(config).expect("reconfigures");
        let cuts: Vec<_> = lambdas()
            .into_iter()
            .map(|lambda| certified_min_cut_partition(&inst, lambda))
            .collect();
        for factor in [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 4.0] {
            let limit_s = factor * default_s;
            let tag = format!("{tag} derate {derate} limit {factor}x");
            let got = XProGenerator::new(&inst).delay_constrained_cut_certified(limit_s);
            let want = full_sweep_plan(&inst, &cuts, limit_s);
            let ((p, cert), (want_p, want_cert)) = match (got, want) {
                (Ok(got), Some(want)) => (got, want),
                (Err(_), None) => continue,
                (got, want) => panic!(
                    "{tag}: feasibility {:?} vs {:?}",
                    got.is_ok(),
                    want.is_some()
                ),
            };
            planned += 1;
            assert_eq!(p, want_p, "{tag}: partition");
            assert_eq!(
                cert.as_ref()
                    .map(|c| (c.lambda_pj_per_s.to_bits(), &c.witness)),
                want_cert
                    .as_ref()
                    .map(|c| (c.lambda_pj_per_s.to_bits(), &c.witness)),
                "{tag}: certificate"
            );
        }
    }
    planned
}

/// The Table-1 cases as `plan_sweep` trains them: 240 segments of the
/// seed-1 datasets, the 24-candidate harness ensemble. Trained once per
/// test binary.
fn table1_instances() -> &'static [(CaseId, XProInstance)] {
    static INSTANCES: OnceLock<Vec<(CaseId, XProInstance)>> = OnceLock::new();
    INSTANCES.get_or_init(|| {
        let cfg = PipelineConfig::builder()
            .subspace(SubspaceConfig {
                candidates: 24,
                features_per_base: 12,
                keep_fraction: 0.25,
                min_keep: 4,
                folds: 3,
                ..SubspaceConfig::default()
            })
            .build()
            .expect("valid config");
        CaseId::ALL
            .iter()
            .map(|&case| {
                let data = generate_case_sized(case, 240, 1);
                let pipeline = XProPipeline::train(&data, &cfg).expect("trains");
                let inst = XProInstance::try_new(
                    pipeline.built().clone(),
                    SystemConfig::default(),
                    pipeline.segment_len(),
                )
                .expect("valid instance");
                (case, inst)
            })
            .collect()
    })
}

#[test]
fn bisected_sweep_plans_like_the_full_sweep() {
    let mut planned = 0;
    for seed in 0..16 {
        planned += check_against_full_sweep(&format!("tiny {seed}"), &tiny_instance(seed));
    }
    for (case, inst) in table1_instances() {
        for node in ProcessNode::ALL {
            for radio in TransceiverModel::paper_models() {
                let tag = format!("{case:?} {node:?} {}", radio.name());
                let config = SystemConfig::builder()
                    .node(node)
                    .radio(radio)
                    .build()
                    .expect("valid config");
                let base = inst.reconfigured(config).expect("reconfigures");
                planned += check_against_full_sweep(&tag, &base);
            }
        }
    }
    // Most requests are feasible, so the comparison is not vacuous.
    assert!(planned > 1500, "only {planned} requests planned");
}

/// Serves the Table-1 instances under the paper radios at seven limits,
/// each request twice, through one plan cache in a seeded shuffled order:
/// the memoized λ search per priced instance must plan exactly like a
/// fresh generator, and the counters must keep their key-level meaning.
#[test]
fn memoized_searches_plan_like_a_fresh_generator() {
    let mut requests = Vec::new();
    for (case, inst) in table1_instances() {
        for radio in TransceiverModel::paper_models() {
            let config = SystemConfig {
                radio,
                ..inst.config().clone()
            };
            let priced = inst.reconfigured(config).expect("reconfigures");
            let default_s = XProGenerator::new(&priced).default_delay_limit();
            for factor in [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 4.0] {
                let tag = format!("{case:?} {} {factor}x", priced.config().radio.name());
                requests.push((tag, priced.clone(), factor * default_s));
            }
        }
    }
    let mut order: Vec<usize> = (0..requests.len()).chain(0..requests.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(27));

    let mut cache = PlanCache::new(4);
    let mut want = PlanCacheStats::default();
    let mut planned_keys = BTreeSet::new();
    let mut cut_derived = 0;
    for &i in &order {
        let (tag, inst, limit_s) = &requests[i];
        let key = PlanCache::key(inst, *limit_s);
        let got = cache.plan_for(inst, *limit_s);
        let fresh = XProGenerator::new(inst).delay_constrained_cut_certified(*limit_s);
        if planned_keys.contains(&key) {
            want.hits += 1;
        } else {
            want.misses += 1;
        }
        let ((p, cert), (fresh_p, fresh_cert)) = match (got, fresh) {
            (Ok(got), Ok(fresh)) => (got, fresh),
            (Err(_), Err(_)) => continue,
            (got, fresh) => panic!(
                "{tag}: feasibility {:?} vs {:?}",
                got.is_ok(),
                fresh.is_ok()
            ),
        };
        planned_keys.insert(key);
        cut_derived += usize::from(cert.is_some());
        assert_eq!(p, fresh_p, "{tag}: partition");
        assert_eq!(
            cert.map(|c| (c.lambda_pj_per_s.to_bits(), c.witness)),
            fresh_cert.map(|c| (c.lambda_pj_per_s.to_bits(), c.witness)),
            "{tag}: certificate"
        );
    }
    assert_eq!(cache.stats(), want);
    // Not vacuous: most requests plan, and many winners are cuts.
    assert!(planned_keys.len() > 80, "{} planned", planned_keys.len());
    assert!(cut_derived > 100, "{cut_derived} cut-derived plans");
}

/// Digests of the networks and certified plans of `tiny_instance` seeds
/// 0..8, recorded from the quadratic-port-scan, network-per-λ planner
/// that the port table and the s-t template replaced.
const PINNED_NETWORKS: u64 = 0xc30c_95e4_d4c3_f56a;
const PINNED_CUTS: u64 = 0x8736_ff0e_ded2_4725;

#[test]
fn networks_and_certified_cuts_match_the_pinned_digests() {
    let mut networks = Digest::new();
    let mut cuts = Digest::new();
    for seed in 0..8 {
        let inst = tiny_instance(seed);
        for lambda in lambdas() {
            let st = build_network(&inst, lambda);
            networks.u64(st.source as u64).u64(st.sink as u64);
            for &node in &st.cell_node {
                networks.u64(node as u64);
            }
            for (from, to, cap) in st.net.edges() {
                networks.u64(from as u64).u64(to as u64).u64(cap.to_bits());
            }
        }
        let gen = XProGenerator::new(&inst);
        let base = gen.default_delay_limit();
        for factor in [1.0, 1.25, 1.5, 2.0] {
            let (p, cert) = gen
                .delay_constrained_cut_certified(base * factor)
                .expect("tiny instances always plan");
            for &on_sensor in &p.in_sensor {
                cuts.u64(u64::from(on_sensor));
            }
            match cert {
                None => {
                    cuts.u64(0);
                }
                Some(c) => {
                    cuts.u64(1)
                        .u64(c.lambda_pj_per_s.to_bits())
                        .u64(c.witness.value.to_bits());
                    for e in &c.witness.edges {
                        cuts.u64(e.capacity.to_bits()).u64(e.flow.to_bits());
                    }
                    for &side in &c.witness.source_side {
                        cuts.u64(u64::from(side));
                    }
                }
            }
        }
    }
    assert_eq!(
        networks.0, PINNED_NETWORKS,
        "network digest {:#018x}",
        networks.0
    );
    assert_eq!(cuts.0, PINNED_CUTS, "plan digest {:#018x}", cuts.0);
}

/// The port table as it used to be recomputed on every query: ports in
/// first-use order, each with every cell whose inputs contain it.
fn quadratic_port_table(graph: &CellGraph) -> Vec<(PortRef, Vec<CellId>)> {
    let mut ports = Vec::new();
    for cell in graph.cells() {
        for &input in &cell.inputs {
            if !ports.contains(&input) {
                ports.push(input);
            }
        }
    }
    ports
        .into_iter()
        .map(|port| {
            let consumers = (0..graph.len())
                .filter(|&c| graph.cells()[c].inputs.contains(&port))
                .collect();
            (port, consumers)
        })
        .collect()
}

#[test]
fn port_table_matches_the_quadratic_definition() {
    let mut graphs: Vec<CellGraph> = (0..8)
        .map(|s| tiny_instance(s).built().graph.clone())
        .collect();
    graphs.push(build_full_cell_graph(&BuildOptions::default(), 2, 10).graph);
    for graph in &graphs {
        let oracle = quadratic_port_table(graph);
        assert_eq!(graph.port_table(), oracle.as_slice());
        for (port, consumers) in &oracle {
            assert_eq!(graph.consumers_of(*port), consumers.as_slice());
        }
        assert_eq!(graph.raw_consumers(), graph.consumers_of(PortRef::RAW));
    }
}

/// The widened-bounds framework graph: its range analysis flags cells, so
/// reusing the analysis across configurations is actually exercised.
fn framework_instance(approx: bool) -> XProInstance {
    let built = build_full_cell_graph(&BuildOptions::default(), 2, 10);
    let assignment = if approx {
        assignment_for_graph(&built, ApproxLevel::SvmTrunc4Prune1)
    } else {
        BTreeMap::new()
    };
    XProInstance::try_with_approx(
        built,
        SystemConfig::default(),
        128,
        SignalBounds::new(-4.0, 4.0),
        assignment,
    )
    .expect("valid framework instance")
}

#[test]
fn reconfigured_equals_a_fresh_instance() {
    for approx in [false, true] {
        let base = framework_instance(approx);
        assert_eq!(base.is_approximate(), approx);
        assert!(!base.analysis().is_overflow_free());
        for node in ProcessNode::ALL {
            for radio in TransceiverModel::paper_models() {
                let config = SystemConfig {
                    node,
                    radio,
                    ..SystemConfig::default()
                };
                let reconfigured = base.reconfigured(config.clone()).expect("reconfigures");
                let fresh = XProInstance::try_with_approx(
                    base.built().clone(),
                    config,
                    base.segment_len(),
                    base.bounds(),
                    base.approx().clone(),
                )
                .expect("valid instance");
                let tag = format!("approx={approx} {node:?} {:?}", fresh.config().radio);

                assert_eq!(
                    format!("{:?}", reconfigured.analysis()),
                    format!("{:?}", fresh.analysis()),
                    "{tag}: analysis"
                );

                for c in 0..fresh.num_cells() {
                    assert_eq!(reconfigured.sensor_cost(c), fresh.sensor_cost(c), "{tag}");
                    assert_eq!(reconfigured.sensor_mode(c), fresh.sensor_mode(c), "{tag}");
                    assert_eq!(
                        reconfigured.aggregator_energy_pj(c).to_bits(),
                        fresh.aggregator_energy_pj(c).to_bits(),
                        "{tag}"
                    );
                    assert_eq!(
                        reconfigured.aggregator_time_s(c).to_bits(),
                        fresh.aggregator_time_s(c).to_bits(),
                        "{tag}"
                    );
                }

                let limit = XProGenerator::new(&fresh).default_delay_limit();
                assert_eq!(
                    XProGenerator::new(&reconfigured)
                        .default_delay_limit()
                        .to_bits(),
                    limit.to_bits(),
                    "{tag}: delay limit"
                );
                let (p_fresh, c_fresh) = XProGenerator::new(&fresh)
                    .delay_constrained_cut_certified(limit)
                    .expect("fresh plan");
                let (p_re, c_re) = XProGenerator::new(&reconfigured)
                    .delay_constrained_cut_certified(limit)
                    .expect("reconfigured plan");
                assert_eq!(p_re, p_fresh, "{tag}: plan");
                assert_eq!(
                    c_re.map(|c| c.witness),
                    c_fresh.map(|c| c.witness),
                    "{tag}: certificate"
                );
                assert_eq!(
                    PlanCache::key(&reconfigured, limit),
                    PlanCache::key(&fresh, limit),
                    "{tag}: cache key"
                );
            }
        }
    }
}

#[test]
fn plan_cache_key_changes_with_every_input() {
    let base = tiny_instance(2);
    let limit = XProGenerator::new(&base).default_delay_limit();
    let base_key = PlanCache::key(&base, limit);

    // Re-pricing under the same config is the same plan request.
    let same = base
        .reconfigured(base.config().clone())
        .expect("reconfigures");
    assert_eq!(PlanCache::key(&same, limit), base_key);

    let with_config = |edit: &dyn Fn(&mut SystemConfig)| {
        let mut config = base.config().clone();
        edit(&mut config);
        base.reconfigured(config).expect("reconfigures")
    };
    let rebuilt =
        |segment_len: usize, bounds: SignalBounds, approx: BTreeMap<usize, ApproxConfig>| {
            XProInstance::try_with_approx(
                base.built().clone(),
                base.config().clone(),
                segment_len,
                bounds,
                approx,
            )
            .expect("valid instance")
        };
    let svm = base.built().svm_cells[0];
    let knob = |bits: u8| {
        BTreeMap::from([(
            svm,
            ApproxConfig {
                mul_truncation_bits: bits,
                ..ApproxConfig::EXACT
            },
        )])
    };

    let variants: Vec<(&str, XProInstance, f64)> = vec![
        ("node", with_config(&|c| c.node = ProcessNode::N45), limit),
        (
            "radio",
            with_config(&|c| c.radio = TransceiverModel::model1()),
            limit,
        ),
        (
            "aggregator",
            with_config(&|c| c.aggregator = AggregatorModel::new(5.0e8, 100.0)),
            limit,
        ),
        (
            "sensor battery",
            with_config(&|c| c.sensor_battery = BatteryModel::aggregator_2900mah()),
            limit,
        ),
        (
            "aggregator battery",
            with_config(&|c| c.aggregator_battery = BatteryModel::sensor_40mah()),
            limit,
        ),
        (
            "sampling rate",
            with_config(&|c| c.sampling_hz = 1024.0),
            limit,
        ),
        (
            "bounds",
            rebuilt(
                base.segment_len(),
                SignalBounds::new(-2.0, 2.0),
                BTreeMap::new(),
            ),
            limit,
        ),
        (
            "approx knob",
            rebuilt(base.segment_len(), base.bounds(), knob(4)),
            limit,
        ),
        (
            "approx knob value",
            rebuilt(base.segment_len(), base.bounds(), knob(8)),
            limit,
        ),
        (
            "segment length",
            rebuilt(base.segment_len() + 1, base.bounds(), BTreeMap::new()),
            limit,
        ),
        (
            "deadline bits",
            base.clone(),
            f64::from_bits(limit.to_bits() + 1),
        ),
    ];
    let mut keys = vec![("base", base_key)];
    for (name, inst, deadline) in &variants {
        keys.push((name, PlanCache::key(inst, *deadline)));
    }
    for (i, (a, ka)) in keys.iter().enumerate() {
        for (b, kb) in &keys[i + 1..] {
            assert_ne!(ka, kb, "{a} and {b} share a cache key");
        }
    }
}
