//! Online re-partitioning under a channel that turns hostile mid-run.
//!
//! Trains a heavy C1 workload (enough support vectors that the pristine
//! optimum is a genuine mid-graph cut), then runs the same fleet twice
//! under an identical seeded Gilbert–Elliott burst that degrades the link
//! partway through: once pinned to the static cross-end cut, once with the
//! adaptive controller allowed to re-partition. The burst timeline is a
//! pure function of the seed, so both runs see the same channel weather —
//! the difference in completions and energy is entirely the controller's.
//!
//! Run: `cargo run --release --example adaptive_fleet`

use xpro::data::{generate_case_sized, CaseId};
use xpro::ml::SubspaceConfig;
use xpro::prelude::*;
use xpro::runtime::NodeReport;
use xpro::wireless::TransceiverModel;

fn main() -> Result<(), XProError> {
    let data = generate_case_sized(CaseId::C1, 400, 17);
    let cfg = PipelineConfig::builder()
        .subspace(SubspaceConfig::default())
        .build()?;
    let pipeline = XProPipeline::train(&data, &cfg)?;
    let segment_len = pipeline.segment_len();
    let system = SystemConfig::builder()
        .radio(TransceiverModel::model3())
        .build()?;
    let instance = XProInstance::try_new(pipeline.into_built(), system, segment_len)?;
    let partition = XProGenerator::new(&instance).generate()?;
    println!(
        "C1 cross-end cut: {} of {} cells on the sensor\n",
        partition.sensor_count(),
        instance.num_cells()
    );

    for adaptive in [false, true] {
        let run_cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(8.0)
            .drop_rate(0.02)
            .burst_bad_rate(0.9)
            .burst_p_enter(0.25)
            .burst_p_exit(0.0)
            .burst_slot_s(0.5)
            .max_retries(6)
            .seed(41)
            .adaptive_window(32)
            .min_dwell_s(0.3)
            .adaptive(adaptive)
            .build()?;
        let report = ExecutorBuilder::new(FleetSpec::new(&instance, &partition, run_cfg)?)
            .build()?
            .run()
            .report;
        let label = if adaptive { "adaptive" } else { "static  " };
        let energy_pj: f64 = report.nodes.iter().map(NodeReport::total_pj).sum();
        println!(
            "{label} — {} completed, {} lost, {} retries, {:.1} nJ per completed segment, \
             {:.1} s of channel bursts",
            report.total_completed(),
            report.total_lost(),
            report.total_retries(),
            energy_pj / report.total_completed() as f64 / 1e3,
            report.channel_bad_s,
        );
        // Fleet-wide latency from the merged per-node quantile sketches:
        // count and max are exact, percentiles carry the sketch's 0.39 %
        // worst-case relative error.
        let fleet = report.fleet_latency();
        println!(
            "  latency over {} segments: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            fleet.count,
            fleet.p50_s * 1e3,
            fleet.p95_s * 1e3,
            fleet.p99_s * 1e3,
            fleet.max_s * 1e3,
        );
        for s in &report.partition_switches {
            println!(
                "  t={:<8.3} -> {} ({} sensor cells, factor {:.2})",
                s.time_s,
                s.tier.as_str(),
                s.sensor_cells,
                s.factor
            );
        }
        let t = &report.tier_times;
        println!(
            "  tiers: {:.1} s normal, {:.1} s classify-only, {:.1} s shed\n",
            t.normal_s, t.classify_only_s, t.shed_s
        );
    }
    Ok(())
}
