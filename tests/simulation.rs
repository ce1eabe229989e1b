//! Integration tests for the streaming runtime on real trained pipelines:
//! the single-event dataflow trace must agree with the analytic evaluator,
//! and the fleet executor must reproduce the analytic model at zero loss
//! while degrading gracefully — and deterministically — under fault
//! injection.

use xpro::data::{generate_case_sized, CaseId};
use xpro::ml::SubspaceConfig;
use xpro::prelude::*;
use xpro::runtime::trace::{simulate_event, simulate_stream};

fn run(inst: &XProInstance, p: &Partition, cfg: RuntimeConfig) -> RunReport {
    ExecutorBuilder::new(FleetSpec::new(inst, p, cfg).expect("valid spec"))
        .build()
        .expect("valid build")
        .run()
        .report
}

fn instance(case: CaseId) -> XProInstance {
    let data = generate_case_sized(case, 100, 17);
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
    let p = XProPipeline::train(&data, &cfg).expect("trains");
    let len = p.segment_len();
    XProInstance::try_new(p.into_built(), SystemConfig::default(), len).expect("valid instance")
}

#[test]
fn simulated_energy_equals_analytic_energy_on_trained_graphs() {
    let inst = instance(CaseId::E1);
    let generator = XProGenerator::new(&inst);
    for engine in Engine::ALL {
        let p = generator.partition_for(engine).expect("partition");
        let analytic = evaluate(&inst, &p).sensor.total_pj();
        let simulated = simulate_event(&inst, &p).sensor_energy_pj;
        assert!(
            (analytic - simulated).abs() < 1e-5,
            "{engine}: analytic {analytic} vs simulated {simulated}"
        );
    }
}

#[test]
fn simulated_makespan_bounds_and_ordering() {
    let inst = instance(CaseId::M2);
    let generator = XProGenerator::new(&inst);
    let mut sim_delays = Vec::new();
    for engine in [Engine::InAggregator, Engine::InSensor, Engine::CrossEnd] {
        let p = generator.partition_for(engine).expect("partition");
        let serialized = evaluate(&inst, &p).delay.total_s();
        let trace = simulate_event(&inst, &p);
        assert!(
            trace.makespan_s <= serialized * (1.0 + 1e-9),
            "{engine}: sim {} > serialized {serialized}",
            trace.makespan_s
        );
        sim_delays.push((engine, trace.makespan_s));
    }
    // The asynchronous sensor cells overlap, so the dataflow execution keeps
    // the aggregator engine slowest even under simulation.
    let a = sim_delays[0].1;
    let c = sim_delays[2].1;
    assert!(c < a, "cross-end {c} not faster than aggregator {a}");
}

#[test]
fn event_stream_is_stable_at_the_configured_rate() {
    // At the configured sampling rate, back-to-back events must not queue:
    // every event's makespan equals the first's (steady state).
    let inst = instance(CaseId::C1);
    let generator = XProGenerator::new(&inst);
    let p = generator
        .partition_for(Engine::CrossEnd)
        .expect("partition");
    let period = 1.0 / inst.events_per_second();
    let traces = simulate_stream(&inst, &p, 6, period);
    let first = traces[0].makespan_s;
    for t in &traces {
        assert!(
            (t.makespan_s - first).abs() < 1e-9,
            "queueing at the nominal rate: {} vs {first}",
            t.makespan_s
        );
    }
}

#[test]
fn sensor_parallelism_is_real() {
    // The in-sensor engine's simulated makespan should clearly undercut the
    // serialized sum (independent per-cell ALUs, Fig. 3).
    let inst = instance(CaseId::E2);
    let p = Partition::all_sensor(inst.num_cells());
    let serialized = evaluate(&inst, &p).delay.total_s();
    let trace = simulate_event(&inst, &p);
    assert!(
        trace.makespan_s < serialized * 0.8,
        "sim {} vs serialized {serialized}",
        trace.makespan_s
    );
}

#[test]
fn lossless_streaming_run_reproduces_the_analytic_model() {
    // One uncontended node at zero loss: per-event energy and latency must
    // match `partition::evaluate` within 1 %.
    let inst = instance(CaseId::C1);
    let generator = XProGenerator::new(&inst);
    for engine in [Engine::CrossEnd, Engine::InSensor, Engine::InAggregator] {
        let p = generator.partition_for(engine).expect("partition");
        let analytic = evaluate(&inst, &p);
        let cfg = RuntimeConfig::builder()
            .nodes(1)
            .duration_s(1.0)
            .drop_rate(0.0)
            .build()
            .expect("valid config");
        let report = run(&inst, &p, cfg);
        let node = &report.nodes[0];
        assert_eq!(node.segments_offered, node.segments_completed, "{engine}");
        let energy = node.total_pj() / node.segments_completed as f64;
        let rel_e = (energy - analytic.sensor.total_pj()).abs() / analytic.sensor.total_pj();
        assert!(rel_e < 0.01, "{engine}: energy off by {rel_e}");
        let rel_d =
            (node.latency.p50_s - analytic.delay.total_s()).abs() / analytic.delay.total_s();
        assert!(rel_d < 0.01, "{engine}: delay off by {rel_d}");
    }
}

#[test]
fn retry_counts_rise_monotonically_across_a_drop_rate_sweep() {
    let inst = instance(CaseId::C1);
    let p = XProGenerator::new(&inst).generate().expect("partition");
    let mut last = 0u64;
    for rate in [0.0, 0.05, 0.15, 0.35] {
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(3.0)
            .drop_rate(rate)
            .seed(2024)
            .build()
            .expect("valid config");
        let report = run(&inst, &p, cfg);
        let retries = report.total_retries();
        assert!(
            retries >= last,
            "drop rate {rate}: retries {retries} fell below {last}"
        );
        // Deterministic seeding: the same run twice is identical.
        let cfg2 = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(3.0)
            .drop_rate(rate)
            .seed(2024)
            .build()
            .expect("valid config");
        let again = run(&inst, &p, cfg2);
        assert_eq!(report, again, "non-deterministic at drop rate {rate}");
        last = retries;
    }
    assert!(last > 0, "the sweep never retried");
}

#[test]
fn fleet_run_with_loss_completes_without_stalling() {
    // The acceptance scenario: ≥ 4 nodes, ≥ 0.05 drop rate — the run must
    // finish with every offered segment accounted for and report latency
    // percentiles and fault counters.
    let inst = instance(CaseId::C1);
    let p = XProGenerator::new(&inst).generate().expect("partition");
    let cfg = RuntimeConfig::builder()
        .nodes(4)
        .duration_s(5.0)
        .drop_rate(0.05)
        .seed(42)
        .build()
        .expect("valid config");
    let report = run(&inst, &p, cfg);
    let offered: u64 = report.nodes.iter().map(|n| n.segments_offered).sum();
    assert!(offered > 0);
    assert_eq!(offered, report.total_completed() + report.total_lost());
    let fleet = report.fleet_latency();
    assert!(fleet.p50_s > 0.0 && fleet.p50_s <= fleet.p95_s && fleet.p95_s <= fleet.p99_s);
    let frame_drops: u64 = report.nodes.iter().map(|n| n.frame_drops).sum();
    assert_eq!(
        frame_drops > 0,
        report.total_retries() > 0 || report.total_lost() > 0
    );
    for n in &report.nodes {
        assert!(n.throughput_hz > 0.0, "node {} starved", n.node);
        assert!(n.battery_hours > 0.0);
    }
}

#[test]
fn timeouts_skip_segments_instead_of_stalling_the_stream() {
    // A brutal link with a tight deadline: segments are skipped (timed out
    // or dropped), later segments still complete, and the run terminates.
    let inst = instance(CaseId::C1);
    let p = Partition::all_aggregator(inst.num_cells());
    let cfg = RuntimeConfig::builder()
        .nodes(4)
        .duration_s(3.0)
        .drop_rate(0.8)
        .max_retries(2)
        .timeout_s(0.03)
        .seed(11)
        .build()
        .expect("valid config");
    let report = run(&inst, &p, cfg);
    let offered: u64 = report.nodes.iter().map(|n| n.segments_offered).sum();
    assert_eq!(offered, report.total_completed() + report.total_lost());
    assert!(report.total_lost() > 0, "nothing lost at 80 % drop");
    assert!(
        report.total_completed() > 0,
        "graceful degradation failed: nothing completed"
    );
}
