//! Wall-clock trajectory of the streaming executor and the generator,
//! written to `BENCH_runtime.json` at the workspace root.
//!
//! Sections: a host reference kernel, fixed executor scenarios at zero
//! loss and under fault injection, a nodes × shards scaling sweep, a
//! tenants × nodes admission sweep, per-node telemetry memory, the
//! approximate planner's quality–energy frontier, and the generator's
//! runtime on synthetic cell graphs of growing size (ablation A5). Every timed row records the
//! min/median/max wall-ns of at least three runs; the deterministic
//! fields (segment counts, telemetry bytes, the quality–energy rows) are
//! identical on every host. The `host_reference` row times a fixed
//! kernel that calls nothing in the repository, five times before the
//! other sections and five times after: rows from files generated at
//! different times compare after scaling by its median, and its spread
//! shows how far the host's speed drifted during the run.
//!
//! Run: `cargo run --release -p xpro-bench --bin bench_runtime`

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use xpro_core::builder::BuiltGraph;
use xpro_core::cellgraph::{Cell, CellGraph, PortRef};
use xpro_core::config::SystemConfig;
use xpro_core::instance::XProInstance;
use xpro_core::layout::Domain;
use xpro_core::pipeline::{PipelineConfig, XProPipeline};
use xpro_core::{plan_approximate, ApproxPlanOptions, Partition, XProGenerator};
use xpro_data::{generate_case_sized, CaseId, Dataset};
use xpro_hw::ModuleKind;
use xpro_ml::SubspaceConfig;
use xpro_runtime::{ExecutorBuilder, FleetSpec, RunHandle, RuntimeConfig, TenantSpec};
use xpro_signal::stats::FeatureKind;

/// `[min, median, max]` of wall-clock samples; an even count takes the
/// mean of the two middle samples as its median. Panics on no samples.
fn spread(samples: &[f64]) -> [f64; 3] {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    [s[0], (s[(n - 1) / 2] + s[n / 2]) / 2.0, s[n - 1]]
}

/// The `"runs"` and `"wall_ns"` fields of a timed row.
fn wall_ns_json(samples: &[f64]) -> String {
    let [min, median, max] = spread(samples);
    format!(
        "\"runs\": {}, \"wall_ns\": {{\"min\": {min:.0}, \"median\": {median:.0}, \"max\": {max:.0}}}",
        samples.len()
    )
}

/// Calls `f` once untimed, then `reps` times under the clock. The untimed
/// warm-up twin makes every timed call start from the heap and page state
/// its own allocation pattern leaves behind, not whatever a differently
/// shaped previous workload left in the allocator (at 100k nodes that
/// swings timings by 2×). Each result is dropped before the next call, so
/// at most one is alive. Returns the wall-ns samples and the last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut last = black_box(f());
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(last);
        let start = Instant::now();
        last = black_box(f());
        samples.push(start.elapsed().as_nanos() as f64);
    }
    (samples, last)
}

/// A fixed host-speed kernel: register arithmetic, a dependent random
/// walk over a 32 MiB table (far beyond L2, like the fleet state the
/// executor walks) and a sequential read of that table. Only the host
/// can change its cost.
struct HostReference {
    next: Vec<u32>,
    at: u32,
}

impl HostReference {
    /// Builds the walk table, one random cycle through every entry
    /// (Sattolo's algorithm over a fixed xorshift stream).
    fn new() -> Self {
        let mut next: Vec<u32> = (0..1u32 << 23).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..next.len()).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        HostReference { next, at: 0 }
    }

    /// Wall-ns of `reps` timed kernel runs after an untimed one.
    fn samples(&mut self, reps: usize) -> Vec<f64> {
        timed(reps, || {
            let (mut a, mut f) = (0x2545_f491_4f6c_dd1du64, 1.0f64);
            for i in 0..4_000_000u64 {
                a = xorshift(a);
                f = f.mul_add(1.000_000_1, (a & 0xff) as f64 * 1e-9) - (i & 1) as f64 * 1e-12;
            }
            for _ in 0..100_000 {
                self.at = self.next[self.at as usize];
            }
            let sum = self
                .next
                .iter()
                .fold(0u64, |s, &v| s.wrapping_add(u64::from(v)));
            (a, f, self.at, sum)
        })
        .0
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A quickly trained pipeline on `segments` segments of `case`, with its
/// dataset.
fn train(case: CaseId, segments: usize, features_per_base: usize) -> (Dataset, XProPipeline) {
    let data = generate_case_sized(case, segments, 42);
    let cfg = PipelineConfig::builder()
        .subspace(SubspaceConfig {
            candidates: 10,
            features_per_base,
            keep_fraction: 0.3,
            min_keep: 3,
            folds: 2,
            ..SubspaceConfig::default()
        })
        .build()
        .expect("valid config");
    let pipeline = XProPipeline::train(&data, &cfg).expect("trains");
    (data, pipeline)
}

fn run_config(nodes: usize, drop_rate: f64, virtual_s: f64) -> RuntimeConfig {
    RuntimeConfig::builder()
        .nodes(nodes)
        .duration_s(virtual_s)
        .drop_rate(drop_rate)
        .seed(7)
        .build()
        .expect("valid config")
}

fn run(inst: &XProInstance, cut: &Partition, cfg: &RuntimeConfig, shards: usize) -> RunHandle {
    ExecutorBuilder::new(FleetSpec::new(inst, cut, cfg.clone()).expect("valid spec"))
        .shards(shards)
        .build()
        .expect("valid build")
        .run()
}

/// The executor scenarios: `(name, nodes, drop rate, virtual seconds)`.
const SCENARIOS: &[(&str, usize, f64, f64)] = &[
    ("lossless_1node", 1, 0.0, 10.0),
    ("fleet4_drop10", 4, 0.1, 10.0),
    ("fleet16_drop30", 16, 0.3, 10.0),
];

/// The nodes axis of the scaling sweep: `(fleet size, virtual seconds,
/// timed repetitions)`. Virtual time shrinks as the fleet grows so every
/// point stays inside a bench-friendly wall budget; repetitions shrink
/// with it because big fleets time stably (millions of events per run),
/// but never below three, so every row has a spread.
const SWEEP: &[(usize, f64, usize)] = &[
    (1, 10.0, 5),
    (100, 10.0, 5),
    (1_000, 5.0, 4),
    (10_000, 3.0, 4),
    (100_000, 2.0, 3),
];

/// The shards axis of the scaling sweep.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// `(feature cells, SVM bases)` of the generator-scaling instances.
const GENERATOR_SIZES: &[(usize, usize)] = &[(16, 4), (32, 8), (56, 16), (56, 32)];

/// Timed repetitions per generator-scaling row.
const GENERATOR_REPS: usize = 11;

/// Each scenario on one shard: a warm-up twin, then five timed runs.
fn scenario_entries(inst: &XProInstance, cut: &Partition) -> Vec<String> {
    SCENARIOS
        .iter()
        .map(|&(name, nodes, drop_rate, virtual_s)| {
            let cfg = run_config(nodes, drop_rate, virtual_s);
            let (samples, report) = timed(5, || run(inst, cut, &cfg, 1).report);
            let median = spread(&samples)[1];
            let completed = report.total_completed();
            format!(
                concat!(
                    "    {{\"scenario\": \"{}\", \"nodes\": {}, \"drop_rate\": {}, ",
                    "\"virtual_s\": {}, {}, \"segments_completed\": {}, ",
                    "\"segments_per_wall_s\": {:.0}, \"speedup_over_realtime\": {:.1}}}"
                ),
                name,
                nodes,
                drop_rate,
                virtual_s,
                wall_ns_json(&samples),
                completed,
                completed as f64 / (median * 1e-9),
                virtual_s / (median * 1e-9),
            )
        })
        .collect()
}

/// The nodes × shards sweep. `reps` interleaved rounds each time every
/// shard count once (after its warm-up twin), which spreads machine drift
/// evenly across shard counts; a per-count series run back to back would
/// cluster each count's repetitions in time. Throughput and
/// `speedup_over_1shard` use the per-count minimum, which discards
/// interference spikes.
fn shard_sweep_entries(inst: &XProInstance, cut: &Partition) -> Vec<String> {
    let mut out = Vec::new();
    for &(nodes, virtual_s, reps) in SWEEP {
        let cfg = run_config(nodes, 0.05, virtual_s);
        let mut samples = vec![Vec::with_capacity(reps); SHARD_COUNTS.len()];
        let mut completed = 0u64;
        for _ in 0..reps {
            for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
                let (ns, report) = timed(1, || run(inst, cut, &cfg, shards).report);
                samples[i].extend(ns);
                completed = report.total_completed();
            }
        }
        let one_shard_min = spread(&samples[0])[0];
        for (samples, &shards) in samples.iter().zip(SHARD_COUNTS) {
            let min = spread(samples)[0];
            out.push(format!(
                concat!(
                    "    {{\"nodes\": {}, \"shards\": {}, \"virtual_s\": {}, {}, ",
                    "\"segments_completed\": {}, \"segments_per_wall_s\": {:.0}, ",
                    "\"speedup_over_1shard\": {:.3}}}"
                ),
                nodes,
                shards,
                virtual_s,
                wall_ns_json(samples),
                completed,
                completed as f64 / (min * 1e-9),
                one_shard_min / min,
            ));
        }
    }
    out
}

/// Tenants × nodes sweep: the admission layer (token buckets,
/// weighted-fair inbox accounting, barrier-round tier machine) prices
/// every aggregator job, so its overhead is the median wall time against
/// the median of the tenancy-off run of the same fleet. Half the tenants
/// are metered below the offered rate, keeping rejection, degradation and
/// quarantine on the hot path rather than benching the all-admitted fast
/// path.
fn tenant_sweep_entries(inst: &XProInstance, cut: &Partition) -> Vec<String> {
    let mut out = Vec::new();
    for &nodes in &[8usize, 64, 512] {
        let cfg_off = run_config(nodes, 0.05, 2.0);
        let (off, _) = timed(3, || run(inst, cut, &cfg_off, 1).report);
        let off_median = spread(&off)[1];
        for &tenants in &[1usize, 4, 16] {
            if tenants > nodes {
                continue;
            }
            let cfg_on = RuntimeConfig {
                tenants: tenant_table(nodes, tenants),
                ..cfg_off.clone()
            };
            let (on, report) = timed(3, || run(inst, cut, &cfg_on, 1).report);
            out.push(format!(
                concat!(
                    "    {{\"nodes\": {}, \"tenants\": {}, \"virtual_s\": 2.0, {}, ",
                    "\"segments_completed\": {}, \"overhead_vs_no_tenancy\": {:.3}}}"
                ),
                nodes,
                tenants,
                wall_ns_json(&on),
                report.total_completed(),
                spread(&on)[1] / off_median,
            ));
        }
    }
    out
}

/// An even split of `nodes` across `tenants`, alternating unmetered and
/// tightly metered (degrading, breaker-armed) tenants.
fn tenant_table(nodes: usize, tenants: usize) -> Vec<TenantSpec> {
    let base = nodes / tenants;
    let extra = nodes % tenants;
    (0..tenants)
        .map(|i| {
            let share = base + usize::from(i < extra);
            let spec = TenantSpec::new(format!("t{i}"), share);
            if i % 2 == 1 {
                spec.quota_hz(2.0)
                    .quota_burst(2)
                    .breaker_rounds(2)
                    .cooldown_s(0.5)
            } else {
                spec.degrade(false)
            }
        })
        .collect()
}

/// Telemetry-memory sweep: per-node latency telemetry is a fixed-size
/// quantile sketch, so the bytes held at digest time must stay flat per
/// node from 1 to 100k nodes, while the raw-sample buffering the sketch
/// replaced would have grown with every completed segment (8 bytes each,
/// fleet-wide). Memory is deterministic: one run per point.
fn telemetry_entries(inst: &XProInstance, cut: &Partition) -> Vec<String> {
    SWEEP
        .iter()
        .map(|&(nodes, virtual_s, _)| {
            let cfg = run_config(nodes, 0.05, virtual_s);
            let handle = run(inst, cut, &cfg, 1);
            let completed = handle.report.total_completed();
            format!(
                concat!(
                    "    {{\"nodes\": {}, \"virtual_s\": {}, \"segments_completed\": {}, ",
                    "\"telemetry_bytes\": {}, \"bytes_per_node\": {:.1}, ",
                    "\"raw_sample_equiv_bytes\": {}}}"
                ),
                nodes,
                virtual_s,
                completed,
                handle.telemetry_bytes,
                handle.telemetry_bytes as f64 / nodes as f64,
                completed * 8,
            )
        })
        .collect()
}

/// The quality–energy frontier of the approximate planner: every
/// Table-1 case × accuracy floor, recording which ladder rung wins, the
/// cross-validated accuracies of both execution paths and the sensor
/// energy bill against the exact plan's. A floor of `0.0` forces the
/// planner to be free (the approximate path must match the exact CV
/// accuracy outright); widening floors trade verified accuracy headroom
/// for sensor energy. Deterministic: one planning pass per point.
fn quality_energy_entries() -> Vec<String> {
    let mut out = Vec::new();
    for case in CaseId::ALL {
        let (data, pipeline) = train(case, 90, 8);
        for &floor in &[0.0f64, 0.01, 0.02, 0.05] {
            let opts = ApproxPlanOptions {
                max_accuracy_drop: floor,
                ..ApproxPlanOptions::default()
            };
            let plan =
                plan_approximate(&pipeline, &data, SystemConfig::default(), &opts).expect("plans");
            out.push(format!(
                concat!(
                    "    {{\"case\": \"{}\", \"max_accuracy_drop\": {}, \"level\": \"{}\", ",
                    "\"cv_exact_accuracy\": {:.4}, \"cv_approx_accuracy\": {:.4}, ",
                    "\"sensor_pj\": {:.1}, \"exact_sensor_pj\": {:.1}, ",
                    "\"energy_saving\": {:.4}}}"
                ),
                case.symbol(),
                floor,
                plan.level.map_or("exact".to_string(), |l| l.to_string()),
                plan.cv_exact_accuracy,
                plan.cv_approx_accuracy,
                plan.sensor_pj,
                plan.exact_sensor_pj,
                plan.energy_saving(),
            ));
        }
    }
    out
}

/// Builds a synthetic instance with `bases` SVM cells over `features`
/// feature cells (round-robin wiring), mimicking trained topologies of
/// different ensemble sizes.
fn synthetic_instance(features: usize, bases: usize) -> XProInstance {
    let mut graph = CellGraph::new(128);
    let mut add = |module, inputs, label| {
        graph.add_cell(Cell {
            module,
            domain: Domain::Time,
            output_samples: vec![1],
            inputs,
            label,
        })
    };
    let feature_cells: BTreeMap<usize, _> = (0..features)
        .map(|i| {
            let kind = FeatureKind::ALL[i % 8];
            let module = ModuleKind::Feature {
                kind,
                input_len: 128,
                reuses_var: false,
            };
            (i, add(module, vec![PortRef::RAW], format!("{kind}-{i}")))
        })
        .collect();
    let svm_cells: Vec<_> = (0..bases)
        .map(|b| {
            let inputs = (0..12)
                .map(|k| PortRef::cell(feature_cells[&((b * 7 + k * 3) % features)]))
                .collect();
            let module = ModuleKind::Svm {
                support_vectors: 40,
                dims: 12,
                rbf: true,
            };
            add(module, inputs, format!("svm-{b}"))
        })
        .collect();
    let fusion_inputs = svm_cells.iter().map(|&c| PortRef::cell(c)).collect();
    let fusion_cell = add(
        ModuleKind::ScoreFusion { bases },
        fusion_inputs,
        "fusion".into(),
    );
    let built = BuiltGraph {
        graph,
        feature_cells,
        svm_cells,
        fusion_cell,
    };
    XProInstance::try_new(built, SystemConfig::default(), 128).expect("valid instance")
}

/// The generator's runtime (ablation A5): the paper claims the optimal
/// partition is found in polynomial time by reduction to min-cut. Times
/// one unconstrained s-t min-cut and the full delay-constrained λ-sweep
/// (`generate`) on synthetic cell graphs of growing size.
fn generator_scaling_entries() -> Vec<String> {
    let mut out = Vec::new();
    for &(features, bases) in GENERATOR_SIZES {
        let inst = synthetic_instance(features, bases);
        let generator = XProGenerator::new(&inst);
        let (cut, _) = timed(GENERATOR_REPS, || generator.unconstrained_cut());
        let (sweep, _) = timed(GENERATOR_REPS, || generator.generate().expect("partition"));
        for (op, samples) in [("unconstrained_cut", cut), ("generate", sweep)] {
            out.push(format!(
                concat!(
                    "    {{\"features\": {}, \"bases\": {}, \"cells\": {}, ",
                    "\"op\": \"{}\", {}}}"
                ),
                features,
                bases,
                inst.num_cells(),
                op,
                wall_ns_json(&samples),
            ));
        }
    }
    out
}

fn main() -> std::io::Result<()> {
    let mut reference = HostReference::new();
    let mut reference_ns = reference.samples(5);
    let (_, pipeline) = train(CaseId::C1, 60, 12);
    let segment_len = pipeline.segment_len();
    let inst = XProInstance::try_new(pipeline.into_built(), SystemConfig::default(), segment_len)
        .expect("valid instance");
    let cut = XProGenerator::new(&inst).generate().expect("cross-end cut");
    let mut sections = vec![
        ("scenarios", scenario_entries(&inst, &cut)),
        ("shard_sweep", shard_sweep_entries(&inst, &cut)),
        ("tenant_sweep", tenant_sweep_entries(&inst, &cut)),
        ("telemetry_sweep", telemetry_entries(&inst, &cut)),
        ("quality_energy_sweep", quality_energy_entries()),
        ("generator_scaling", generator_scaling_entries()),
    ];
    reference_ns.extend(reference.samples(5));
    let kernel = "4e6 xorshift+fma steps, 1e5-step walk and one read of a 32 MiB table";
    let row = format!(
        "    {{\"kernel\": \"{kernel}\", {}}}",
        wall_ns_json(&reference_ns)
    );
    sections.insert(0, ("host_reference", vec![row]));
    let body: Vec<String> = sections
        .iter()
        .map(|(name, rows)| format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n")))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"runtime_executor\",\n{}\n}}\n",
        body.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    std::fs::write(path, json)?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{spread, wall_ns_json};

    #[test]
    fn spread_of_one_two_and_odd_sample_counts() {
        assert_eq!(spread(&[7.0]), [7.0; 3]);
        assert_eq!(spread(&[9.0, 3.0]), [3.0, 6.0, 9.0]);
        assert_eq!(spread(&[5.0, 1.0, 4.0]), [1.0, 4.0, 5.0]);
        assert_eq!(spread(&[30.0, 10.0, 50.0, 20.0, 40.0]), [10.0, 30.0, 50.0]);
    }

    #[test]
    fn json_reports_runs_and_rounded_wall_ns() {
        assert_eq!(
            wall_ns_json(&[3.6, 1.4, 2.4]),
            "\"runs\": 3, \"wall_ns\": {\"min\": 1, \"median\": 2, \"max\": 4}"
        );
    }
}
