//! Soundness of the static timing/energy calculus against the executor.
//!
//! The calculus claims *sound upper bounds*: for any deployment whose
//! fault envelope it models (no faults, or iid frame drops with bounded
//! retries), no seeded run may ever observe a completed-segment latency,
//! aggregator-inbox occupancy, per-node energy spend or channel busy time
//! above the corresponding static bound. These properties drive the real
//! framework graph through the generator's cross-end cut and the real
//! executor across randomized fleets, and assert the cross-check
//! ([`xpro::runtime::check_report`]) finds nothing.
//!
//! The second half pins the CI gate's substrate: `analyze --table1
//! --json` must be byte-stable across separate processes, or baseline
//! diffs would churn on noise.

#![allow(clippy::unwrap_used)] // tests fail loudly by design

use proptest::prelude::*;
use xpro::analyze::timing::RetryRegime;
use xpro::core::builder::{build_full_cell_graph, BuildOptions};
use xpro::core::config::SystemConfig;
use xpro::core::generator::XProGenerator;
use xpro::core::instance::XProInstance;
use xpro::core::partition::Partition;
use xpro::runtime::{
    check_report, deployment_bounds, ExecutorBuilder, FleetSpec, RunReport, RuntimeConfig,
};

fn run_sharded(inst: &XProInstance, p: &Partition, cfg: RuntimeConfig, shards: usize) -> RunReport {
    ExecutorBuilder::new(FleetSpec::new(inst, p, cfg).unwrap())
        .shards(shards)
        .build()
        .unwrap()
        .run()
        .report
}

/// A small framework instance (one SVM base keeps the sweep fast) with
/// the generator's minimum-sensor-energy cross-end cut.
fn framework_deployment() -> (XProInstance, Partition) {
    let built = build_full_cell_graph(&BuildOptions::default(), 1, 4);
    let instance = XProInstance::try_new(built, SystemConfig::default(), 128)
        .expect("framework graph must price");
    let partition = XProGenerator::new(&instance)
        .generate()
        .expect("framework graph must have a feasible cut");
    (instance, partition)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fault-free fleets must stay under the fault-free bounds: every
    /// frame costs exactly one attempt, so the `FaultFree` regime is the
    /// exact envelope.
    #[test]
    fn fault_free_runs_never_exceed_the_static_bounds(
        seed in 0u64..10_000,
        nodes in 1usize..7,
        retries in 0u32..5,
    ) {
        let (instance, partition) = framework_deployment();
        let cfg = RuntimeConfig::builder()
            .nodes(nodes)
            .duration_s(1.5)
            .drop_rate(0.0)
            .max_retries(retries)
            .seed(seed)
            .build()
            .unwrap();
        let (timing, energy) =
            deployment_bounds(&instance, &partition, &cfg, RetryRegime::FaultFree).unwrap();
        let report = run_sharded(&instance, &partition, cfg, 1);
        let violations = check_report(&report, &timing, &energy);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// Lossy fleets with bounded retries must stay under the
    /// worst-case-retry bounds — the analyzer charges every frame its full
    /// retry budget, which dominates any iid drop pattern.
    #[test]
    fn lossy_runs_never_exceed_the_worst_case_retry_bounds(
        seed in 0u64..10_000,
        nodes in 1usize..7,
        drop in 0.0f64..0.4,
        retries in 1u32..5,
    ) {
        let (instance, partition) = framework_deployment();
        let cfg = RuntimeConfig::builder()
            .nodes(nodes)
            .duration_s(1.5)
            .drop_rate(drop)
            .max_retries(retries)
            .seed(seed)
            .build()
            .unwrap();
        let (timing, energy) =
            deployment_bounds(&instance, &partition, &cfg, RetryRegime::WorstCaseRetry)
                .unwrap();
        let report = run_sharded(&instance, &partition, cfg, 1);
        let violations = check_report(&report, &timing, &energy);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// Sharding must not loosen the calculus: the same static bounds that
    /// dominate a 1-shard run dominate every sharded run — in particular
    /// `peak_inbox` bounds the *merged* aggregator inbox, which is a
    /// single global queue regardless of how many shards fed it.
    #[test]
    fn static_bounds_dominate_sharded_runs(
        seed in 0u64..10_000,
        nodes in 2usize..9,
        drop in 0.0f64..0.4,
        shards in 2usize..9,
    ) {
        let (instance, partition) = framework_deployment();
        let cfg = RuntimeConfig::builder()
            .nodes(nodes)
            .duration_s(1.5)
            .drop_rate(drop)
            .max_retries(3)
            .seed(seed)
            .build()
            .unwrap();
        let (timing, energy) =
            deployment_bounds(&instance, &partition, &cfg, RetryRegime::WorstCaseRetry)
                .unwrap();
        let report = run_sharded(&instance, &partition, cfg, shards);
        let violations = check_report(&report, &timing, &energy);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }
}

/// The gate's substrate: two separate invocations of the real `analyze`
/// binary must print byte-identical findings documents, and the document
/// must actually carry the timing/energy rows the gate diffs.
#[test]
fn table1_json_is_byte_stable_across_processes() {
    let run = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyze"))
            .args([
                "--table1",
                "--json",
                "--bases",
                "1",
                "--sv",
                "4",
                "--segments",
                "8",
            ])
            .output()
            .expect("analyze binary must run");
        assert!(
            out.status.success(),
            "analyze failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "findings document differs between runs");
    let text = String::from_utf8(first).expect("findings document is UTF-8");
    assert!(text.contains("\"version\": 3"), "wrong format version");
    assert!(text.contains("wcrt@"), "timing rows missing");
    assert!(text.contains("energy@"), "energy rows missing");
    assert!(
        text.contains("approx@"),
        "approximation-ladder rows missing"
    );
}
