//! Bit-for-bit pins on what a fleet run reports.
//!
//! The JSON report is derived state: a change to how the executor keeps
//! its books (event order, aggregator bookkeeping, report writer) must not
//! move a byte of it. Three runs cover the executor's modes: the chaos
//! scenario CI smokes (8 nodes, bursts, crashes, adaptive controller), the
//! `examples/tenants.json` multi-tenant scenario, and a plain lossy
//! 2 000-node fleet that drains in one round. Two more pin the tie order
//! of aggregator jobs: an unstaggered fleet whose nodes all finish at the
//! same instants, where who overflows a small inbox is decided by node
//! index alone.

use xpro::data::{generate_case_sized, CaseId};
use xpro::ml::SubspaceConfig;
use xpro::prelude::*;
use xpro::runtime::RuntimeConfigBuilder;

/// `to_json` digest per run, recorded from the executor that still counted
/// segments and admission rejections per event. The chaos and tenant
/// digests equal those of the `runtime --json` output CI compares across
/// shard counts.
const CHAOS: u64 = 0x7025_4858_1456_adff;
const TENANTS: u64 = 0x1fe7_ecfe_70a7_cbc7;
const LOSSY: u64 = 0x49d2_b753_8f83_8404;
/// The unstaggered tie-order runs, plain and with a tenant table, recorded
/// from the executor that still popped every event from one shard-wide
/// radix wheel in `(time, node, sequence)` order.
const TIES: u64 = 0x4bdc_4374_3547_8dbe;
const TIES_TENANTS: u64 = 0x20fa_4a04_946c_cc43;

/// FNV-1a over bytes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// The C1 instance and certified cross-end cut the `runtime` CLI builds
/// with its default arguments.
fn cli_instance() -> (XProInstance, Partition) {
    let data = generate_case_sized(CaseId::C1, 60, 42);
    let cfg = PipelineConfig::builder()
        .subspace(SubspaceConfig {
            candidates: 10,
            keep_fraction: 0.3,
            min_keep: 3,
            folds: 2,
            ..SubspaceConfig::default()
        })
        .build()
        .expect("valid config");
    let pipeline = XProPipeline::train(&data, &cfg).expect("trains");
    let len = pipeline.segment_len();
    let inst = XProInstance::try_new(pipeline.into_built(), SystemConfig::default(), len)
        .expect("valid instance");
    let partition = XProGenerator::new(&inst)
        .partition_for(Engine::CrossEnd)
        .expect("cross-end cut");
    (inst, partition)
}

/// Runs `cfg` at one and at three shards, checks the reports agree, and
/// returns the JSON report.
fn run(inst: &XProInstance, p: &Partition, cfg: &RuntimeConfig) -> String {
    let run_at = |shards: usize| {
        ExecutorBuilder::new(FleetSpec::new(inst, p, cfg.clone()).expect("valid spec"))
            .shards(shards)
            .build()
            .expect("valid build")
            .run()
            .report
    };
    let one = run_at(1);
    let three = run_at(3);
    let json = one.to_json();
    assert_eq!(json, three.to_json(), "shard count moved the report");
    json
}

/// The CI chaos scenario's fault stack on 8 nodes for 30 s.
fn chaos_builder() -> RuntimeConfigBuilder {
    RuntimeConfig::builder()
        .nodes(8)
        .duration_s(30.0)
        .drop_rate(0.2)
        .burst_bad_rate(0.95)
        .burst_p_enter(0.3)
        .burst_p_exit(0.05)
        .seed(7)
}

fn check(label: &str, json: String, pinned: u64) {
    let digest = Digest::new().bytes(json.as_bytes()).0;
    assert_eq!(
        digest, pinned,
        "{label}: report JSON digest {digest:#018x} != pinned {pinned:#018x}"
    );
}

#[test]
fn reports_match_the_pinned_digests() {
    let (inst, p) = cli_instance();

    let chaos = chaos_builder()
        .mtbf_s(30.0)
        .mttr_s(2.0)
        .adaptive(true)
        .min_dwell_s(1.0)
        .build()
        .expect("valid chaos config");
    check("chaos", run(&inst, &p, &chaos), CHAOS);

    // `examples/tenants.json`, spec for spec.
    let tenants = vec![
        TenantSpec::new("health", 4)
            .weight(2)
            .quota_hz(0.0)
            .degrade(false),
        TenantSpec::new("fitness", 2)
            .weight(1)
            .quota_hz(6.0)
            .quota_burst(4)
            .degrade(true)
            .breaker_rounds(3)
            .cooldown_s(2.0),
        TenantSpec::new("telemetry", 2)
            .weight(1)
            .quota_hz(2.0)
            .quota_burst(2)
            .degrade(true)
            .breaker_rounds(2)
            .cooldown_s(4.0),
    ];
    let tenancy = chaos_builder()
        .tenants(tenants)
        .build()
        .expect("valid tenant config");
    check("tenants", run(&inst, &p, &tenancy), TENANTS);

    let lossy = RuntimeConfig::builder()
        .nodes(2_000)
        .duration_s(2.0)
        .drop_rate(0.05)
        .seed(3)
        .build()
        .expect("valid lossy config");
    check("lossy 2000", run(&inst, &p, &lossy), LOSSY);
}

/// Every node's arrivals land at the same instants and the link is
/// lossless, so all jobs of one period share `ready_s`. A 5 ms CPU wake
/// keeps the first four in the inbox, so only the node tie-break decides
/// which jobs find room (and in the tenant run, which ones spend a
/// tenant's quota tokens).
#[test]
fn unstaggered_tie_order_matches_the_pinned_digests() {
    let (inst, p) = cli_instance();
    let ties = || {
        RuntimeConfig::builder()
            .nodes(48)
            .duration_s(4.0)
            .drop_rate(0.0)
            .stagger(false)
            .agg_inbox(4)
            .batch_wake_s(0.005)
            .seed(11)
    };
    let plain = ties().build().expect("valid tie config");
    check("ties", run(&inst, &p, &plain), TIES);

    let tenants = vec![
        TenantSpec::new("a", 20).weight(2).quota_hz(0.0),
        TenantSpec::new("b", 16)
            .weight(1)
            .quota_hz(3.0)
            .quota_burst(2)
            .degrade(true)
            .breaker_rounds(2)
            .cooldown_s(1.0),
        TenantSpec::new("c", 12)
            .weight(1)
            .quota_hz(1.0)
            .quota_burst(1),
    ];
    let tenancy = ties().tenants(tenants).build().expect("valid tie tenants");
    check("ties + tenants", run(&inst, &p, &tenancy), TIES_TENANTS);
}
