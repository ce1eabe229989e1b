//! The noisy-neighbor acceptance property of the multi-tenant admission
//! layer.
//!
//! A tenant offering ~10× its rate quota must be walked through the
//! degradation tiers and quarantined by its circuit breaker, while a
//! compliant tenant sharing the same aggregator stays within 5% of the
//! p99 latency and delivery rate it would see running the fleet alone.
//! The whole episode is deterministic at any shard count, and the
//! compliant tenant never exceeds its static WCRT/queue bounds (the
//! offender is degradation-enabled, so the calculus refuses its bounds
//! — `unprovable` — rather than reporting unsound numbers).

#![allow(clippy::unwrap_used)] // tests fail loudly by design

use std::collections::BTreeMap;
use xpro::analyze::timing::RetryRegime;
use xpro::core::builder::BuiltGraph;
use xpro::core::cellgraph::{Cell, CellGraph, PortRef};
use xpro::core::config::SystemConfig;
use xpro::core::generator::{Engine, XProGenerator};
use xpro::core::instance::XProInstance;
use xpro::core::layout::Domain;
use xpro::core::partition::Partition;
use xpro::hw::ModuleKind;
use xpro::runtime::{
    check_tenant_report, tenant_bounds, ExecutorBuilder, FleetSpec, RunReport, RuntimeConfig,
    TenantSpec,
};
use xpro::signal::stats::FeatureKind;

/// The crate's unit-test fixture shape, rebuilt here because integration
/// tests cannot see it: four time-domain features, one SVM, one fusion.
fn tiny_instance(seed: u64) -> XProInstance {
    let mut graph = CellGraph::new(128);
    let mut feature_cells = BTreeMap::new();
    let kinds = [
        FeatureKind::Max,
        FeatureKind::Var,
        FeatureKind::Skew,
        FeatureKind::Kurt,
    ];
    for (i, &kind) in kinds.iter().enumerate() {
        let id = graph.add_cell(Cell {
            module: ModuleKind::Feature {
                kind,
                input_len: 128,
                reuses_var: false,
            },
            domain: Domain::Time,
            output_samples: vec![1],
            inputs: vec![PortRef::RAW],
            label: format!("f{i}"),
        });
        feature_cells.insert(i, id);
    }
    let svm = graph.add_cell(Cell {
        module: ModuleKind::Svm {
            support_vectors: 10 + (seed % 40) as usize,
            dims: 4,
            rbf: true,
        },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: (0..4).map(|i| PortRef::cell(feature_cells[&i])).collect(),
        label: "svm".into(),
    });
    let fusion = graph.add_cell(Cell {
        module: ModuleKind::ScoreFusion { bases: 1 },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: vec![PortRef::cell(svm)],
        label: "fusion".into(),
    });
    let built = BuiltGraph {
        graph,
        feature_cells,
        svm_cells: vec![svm],
        fusion_cell: fusion,
    };
    XProInstance::try_new(built, SystemConfig::default(), 100).expect("valid test instance")
}

fn run_sharded(
    inst: &XProInstance,
    partition: &Partition,
    cfg: &RuntimeConfig,
    shards: usize,
) -> RunReport {
    ExecutorBuilder::new(FleetSpec::new(inst, partition, cfg.clone()).unwrap())
        .shards(shards)
        .build()
        .unwrap()
        .run()
        .report
}

#[test]
fn noisy_neighbor_is_quarantined_and_the_compliant_tenant_is_isolated() {
    let inst = tiny_instance(2);
    let partition = XProGenerator::new(&inst)
        .partition_for(Engine::CrossEnd)
        .unwrap();

    // Per-node offered rate is sampling_hz / segment_len ≈ 20.5 Hz, so
    // the offender's 4 nodes put ~82 Hz against an 8 Hz quota — a 10×
    // breach, sustained for the whole run.
    let tenants = vec![
        TenantSpec::new("compliant", 4).degrade(false),
        TenantSpec::new("offender", 4)
            .quota_hz(8.0)
            .quota_burst(2)
            .degrade(true)
            .breaker_rounds(2)
            .cooldown_s(0.5),
    ];
    let build = |nodes: usize, tenants: Vec<TenantSpec>| {
        RuntimeConfig::builder()
            .nodes(nodes)
            .duration_s(3.0)
            .drop_rate(0.0)
            .seed(17)
            .agg_inbox(32)
            .tenants(tenants)
            .build()
            .unwrap()
    };
    let cfg = build(8, tenants);
    let report = run_sharded(&inst, &partition, &cfg, 1);

    // The offender walks the degradation tiers and its breaker trips.
    let offender = &report.tenants[1];
    assert!(offender.admission_rejected > 0, "quota never fired");
    assert!(offender.quarantines >= 1, "breaker never tripped");
    assert!(offender.quarantine_dropped > 0, "quarantine shed nothing");
    assert!(
        offender.tier_times.classify_only_s > 0.0 || offender.tier_times.shed_s > 0.0,
        "offender never left the full-fidelity tier: {:?}",
        offender.tier_times
    );
    assert!(
        offender.delivery_rate < 0.5,
        "a 10× breach must gut delivery"
    );

    // The compliant tenant is untouched by admission control...
    let compliant = &report.tenants[0];
    assert_eq!(compliant.admission_rejected, 0);
    assert_eq!(compliant.quarantine_dropped, 0);
    assert_eq!(compliant.quarantines, 0);
    assert_eq!(compliant.tier_times.classify_only_s, 0.0);
    assert_eq!(compliant.tier_times.shed_s, 0.0);

    // ...and stays within 5% of the single-tenant baseline: the same
    // four nodes running the fleet alone, no tenancy at all.
    let baseline = run_sharded(&inst, &partition, &build(4, Vec::new()), 1);
    let base_done: u64 = baseline.nodes.iter().map(|n| n.segments_completed).sum();
    let base_offered: u64 = baseline.nodes.iter().map(|n| n.segments_offered).sum();
    let base_delivery = base_done as f64 / base_offered as f64;
    assert!(
        compliant.delivery_rate >= 0.95 * base_delivery,
        "compliant delivery {} fell >5% below baseline {}",
        compliant.delivery_rate,
        base_delivery
    );
    let base_p99 = baseline
        .nodes
        .iter()
        .map(|n| n.latency.p99_s)
        .fold(0.0f64, f64::max);
    assert!(
        compliant.latency.p99_s <= 1.05 * base_p99,
        "compliant p99 {} exceeded baseline {} by >5%",
        compliant.latency.p99_s,
        base_p99
    );

    // The episode is an execution-strategy-independent simulation:
    // byte-identical at any shard count.
    let json = report.to_json();
    for shards in [2usize, 4] {
        let sharded = run_sharded(&inst, &partition, &cfg, shards);
        assert_eq!(report, sharded, "{shards} shards diverged structurally");
        assert_eq!(json, sharded.to_json(), "{shards} shards diverged in JSON");
    }

    // Static calculus: the compliant tenant's observations stay under
    // its envelope bounds; the degradation-enabled offender is refused
    // (`unprovable`) and therefore checked against nothing.
    for regime in [RetryRegime::FaultFree, RetryRegime::WorstCaseRetry] {
        let (fleet, bounds) = tenant_bounds(&inst, &partition, &cfg, regime).unwrap();
        assert!(fleet.wcrt_s.is_some(), "fleet envelope must be provable");
        assert!(!bounds[0].unprovable, "compliant tenant must be provable");
        assert!(bounds[1].unprovable, "degrading offender must be refused");
        let violations = check_tenant_report(&report, &bounds);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
