//! `runtime` — streaming fleet execution of a partitioned engine.
//!
//! Trains a Table-1 case, lets the Automatic XPro Generator place the
//! cut (or forces one of the reference engines), then streams segments
//! from a fleet of sensor nodes through the partition in virtual time:
//! one lossy half-duplex channel, bounded retransmission with exponential
//! backoff, per-segment deadlines and aggregator batching. Fault knobs
//! inject Gilbert–Elliott channel bursts, node crash/reboot cycles,
//! battery depletion and aggregator outages; `--adaptive` closes the loop
//! by re-partitioning online with graceful-degradation tiers. Prints the
//! run report (per-node throughput, latency percentiles, drop/retry/fault
//! counters, partition-switch log, energy split, battery life) as text or
//! JSON.
//!
//! Run: `cargo run --release --bin runtime -- --nodes 4 --seconds 5 --drop-rate 0.1`
//! Chaos: `cargo run --release --bin runtime -- --nodes 8 --drop-rate 0.2 \
//!         --burst-bad-rate 0.9 --burst-p-enter 0.2 --burst-p-exit 0.1 \
//!         --mtbf-s 30 --mttr-s 2 --adaptive`

use std::process::ExitCode;
use xpro::core::generator::Engine;
use xpro::core::XProError;
use xpro::data::{generate_case_sized, CaseId};
use xpro::ml::SubspaceConfig;
use xpro::prelude::*;

const USAGE: &str = "\
usage: runtime [options]

Streaming cross-end execution of a partitioned engine over a fleet.

options:
  --case <SYM>        Table-1 workload to train (C1, C2, E1, E2, M1, M2;
                      default C1)
  --segments <N>      training-set size (default 60)
  --engine <E>        partition to stream: cross-end (default), in-sensor,
                      in-aggregator, trivial
  --nodes <N>         sensor nodes sharing channel + aggregator (default 4)
  --seconds <S>       simulated (virtual) duration (default 10)
  --drop-rate <P>     per-attempt frame loss probability in [0, 1)
                      (default 0)
  --max-retries <N>   retransmissions per frame before the segment is
                      abandoned (default 3)
  --timeout <S>       per-segment deadline in seconds (default 1)
  --seed <N>          fault-injection RNG seed (default 1)
  --shards <N|auto>   node ranges the fleet is sharded across; an
                      execution knob only — reports are bit-identical
                      for any value (default auto: one per core)

fault injection (all disabled by default):
  --burst-bad-rate <P>   Gilbert-Elliott bad-state drop rate in [0, 1);
                         --drop-rate is the good-state rate
  --burst-p-enter <P>    per-slot probability of entering the bad state
  --burst-p-exit <P>     per-slot probability of leaving it (0 = permanent)
  --burst-slot-s <S>     channel-state slot duration (default 0.1)
  --mtbf-s <S>           mean time between node crashes (0 disables)
  --mttr-s <S>           mean node repair time (default 1)
  --warmup-s <S>         post-reboot warm-up before segments flow again
  --battery-pj <E>       per-node energy budget in pJ (0 = unlimited)
  --aggregator-outage <PERIOD,DUR>
                         recurring aggregator outage: DUR seconds out of
                         every PERIOD
  --agg-inbox <N>        bounded aggregator inbox capacity (default 256)

multi-tenant admission (disabled without --tenants):
  --tenants <FILE>    JSON array of tenant specs partitioning the fleet
                      into contiguous node ranges; each object takes
                      name, nodes, and optional weight, quota_hz, burst,
                      degrade, breaker_rounds, cooldown_s (see
                      examples/tenants.json)

adaptive controller:
  --adaptive             re-partition online from observed channel cost,
                         with graceful-degradation tiers
  --adaptive-window <N>  estimator window in frame transfers (default 64)
  --hysteresis <H>       re-plan band multiplier, must be > 1 (default 1.5)
  --min-dwell-s <S>      minimum time between partition switches
                         (default 0.5)

output:
  --json              emit the report as JSON instead of text
  --export <DIR>      write columnar telemetry into DIR: timesteps.xpc
                      (per-barrier-round event/energy/latency columns)
                      and nodes.xpc (final per-node statistics), both in
                      the .xpc footer-indexed format; byte-identical for
                      any --shards value
  -h, --help          this message";

struct Args {
    case: CaseId,
    segments: usize,
    engine: Engine,
    nodes: usize,
    seconds: f64,
    drop_rate: f64,
    max_retries: u32,
    timeout_s: f64,
    seed: u64,
    shards: ShardCount,
    burst_bad_rate: f64,
    burst_p_enter: f64,
    burst_p_exit: f64,
    burst_slot_s: f64,
    mtbf_s: f64,
    mttr_s: f64,
    warmup_s: f64,
    battery_pj: f64,
    outage: Option<(f64, f64)>,
    agg_inbox: usize,
    tenants: Vec<TenantSpec>,
    adaptive: bool,
    adaptive_window: usize,
    hysteresis: f64,
    min_dwell_s: f64,
    json: bool,
    export: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        case: CaseId::C1,
        segments: 60,
        engine: Engine::CrossEnd,
        nodes: 4,
        seconds: 10.0,
        drop_rate: 0.0,
        max_retries: 3,
        timeout_s: 1.0,
        seed: 1,
        shards: ShardCount::Auto,
        burst_bad_rate: 0.0,
        burst_p_enter: 0.0,
        burst_p_exit: 0.0,
        burst_slot_s: 0.1,
        mtbf_s: 0.0,
        mttr_s: 1.0,
        warmup_s: 0.0,
        battery_pj: 0.0,
        outage: None,
        agg_inbox: 256,
        tenants: Vec::new(),
        adaptive: false,
        adaptive_window: 64,
        hysteresis: 1.5,
        min_dwell_s: 0.5,
        json: false,
        export: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--case" => {
                let sym = value("--case")?;
                args.case = CaseId::ALL
                    .into_iter()
                    .find(|c| c.symbol().eq_ignore_ascii_case(&sym))
                    .ok_or_else(|| format!("unknown case {sym:?}"))?;
            }
            "--segments" => {
                args.segments = value("--segments")?
                    .parse()
                    .map_err(|e| format!("--segments: {e}"))?;
            }
            "--engine" => {
                args.engine = match value("--engine")?.to_ascii_lowercase().as_str() {
                    "cross-end" | "c" => Engine::CrossEnd,
                    "in-sensor" | "s" => Engine::InSensor,
                    "in-aggregator" | "a" => Engine::InAggregator,
                    "trivial" | "t" => Engine::TrivialCut,
                    other => return Err(format!("unknown engine {other:?}")),
                };
            }
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--drop-rate" => {
                args.drop_rate = value("--drop-rate")?
                    .parse()
                    .map_err(|e| format!("--drop-rate: {e}"))?;
            }
            "--max-retries" => {
                args.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?;
            }
            "--timeout" => {
                args.timeout_s = value("--timeout")?
                    .parse()
                    .map_err(|e| format!("--timeout: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--shards" => {
                let spec = value("--shards")?;
                args.shards = if spec.eq_ignore_ascii_case("auto") {
                    ShardCount::Auto
                } else {
                    ShardCount::Fixed(spec.parse().map_err(|e| format!("--shards: {e}"))?)
                };
            }
            "--burst-bad-rate" => {
                args.burst_bad_rate = value("--burst-bad-rate")?
                    .parse()
                    .map_err(|e| format!("--burst-bad-rate: {e}"))?;
            }
            "--burst-p-enter" => {
                args.burst_p_enter = value("--burst-p-enter")?
                    .parse()
                    .map_err(|e| format!("--burst-p-enter: {e}"))?;
            }
            "--burst-p-exit" => {
                args.burst_p_exit = value("--burst-p-exit")?
                    .parse()
                    .map_err(|e| format!("--burst-p-exit: {e}"))?;
            }
            "--burst-slot-s" => {
                args.burst_slot_s = value("--burst-slot-s")?
                    .parse()
                    .map_err(|e| format!("--burst-slot-s: {e}"))?;
            }
            "--mtbf-s" => {
                args.mtbf_s = value("--mtbf-s")?
                    .parse()
                    .map_err(|e| format!("--mtbf-s: {e}"))?;
            }
            "--mttr-s" => {
                args.mttr_s = value("--mttr-s")?
                    .parse()
                    .map_err(|e| format!("--mttr-s: {e}"))?;
            }
            "--warmup-s" => {
                args.warmup_s = value("--warmup-s")?
                    .parse()
                    .map_err(|e| format!("--warmup-s: {e}"))?;
            }
            "--battery-pj" => {
                args.battery_pj = value("--battery-pj")?
                    .parse()
                    .map_err(|e| format!("--battery-pj: {e}"))?;
            }
            "--aggregator-outage" => {
                let spec = value("--aggregator-outage")?;
                let (period, dur) = spec.split_once(',').ok_or_else(|| {
                    format!("--aggregator-outage expects PERIOD,DUR, got {spec:?}")
                })?;
                args.outage = Some((
                    period
                        .trim()
                        .parse()
                        .map_err(|e| format!("--aggregator-outage period: {e}"))?,
                    dur.trim()
                        .parse()
                        .map_err(|e| format!("--aggregator-outage duration: {e}"))?,
                ));
            }
            "--agg-inbox" => {
                args.agg_inbox = value("--agg-inbox")?
                    .parse()
                    .map_err(|e| format!("--agg-inbox: {e}"))?;
            }
            "--tenants" => {
                let path = value("--tenants")?;
                let src = std::fs::read_to_string(&path)
                    .map_err(|e| format!("--tenants: {path}: {e}"))?;
                args.tenants = parse_tenants(&src).map_err(|e| format!("--tenants: {e}"))?;
            }
            "--adaptive" => args.adaptive = true,
            "--adaptive-window" => {
                args.adaptive_window = value("--adaptive-window")?
                    .parse()
                    .map_err(|e| format!("--adaptive-window: {e}"))?;
            }
            "--hysteresis" => {
                args.hysteresis = value("--hysteresis")?
                    .parse()
                    .map_err(|e| format!("--hysteresis: {e}"))?;
            }
            "--min-dwell-s" => {
                args.min_dwell_s = value("--min-dwell-s")?
                    .parse()
                    .map_err(|e| format!("--min-dwell-s: {e}"))?;
            }
            "--json" => args.json = true,
            "--export" => args.export = Some(value("--export")?.into()),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Parses a tenant-spec file: a JSON array of flat objects with string,
/// number and boolean values (the format `examples/tenants.json`
/// documents). Hand-rolled like every other (de)serializer in the
/// workspace — the accepted grammar is exactly the flat subset the spec
/// needs, nothing more.
fn parse_tenants(src: &str) -> Result<Vec<TenantSpec>, String> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let ws = |i: &mut usize| {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let eat = |i: &mut usize, c: u8| -> Result<(), String> {
        ws(i);
        if *i < b.len() && b[*i] == c {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(c), *i))
        }
    };
    let string = |i: &mut usize| -> Result<String, String> {
        eat(i, b'"')?;
        let start = *i;
        while *i < b.len() && b[*i] != b'"' {
            if b[*i] == b'\\' {
                return Err("escape sequences are not supported in tenant specs".into());
            }
            *i += 1;
        }
        if *i >= b.len() {
            return Err("unterminated string".into());
        }
        let s = std::str::from_utf8(&b[start..*i])
            .map_err(|_| "tenant spec is not UTF-8".to_string())?
            .to_string();
        *i += 1;
        Ok(s)
    };
    let scalar = |i: &mut usize| -> Result<String, String> {
        ws(i);
        let start = *i;
        while *i < b.len() && !b[*i].is_ascii_whitespace() && !b",}]".contains(&b[*i]) {
            *i += 1;
        }
        if start == *i {
            return Err(format!("expected a value at byte {start}"));
        }
        Ok(std::str::from_utf8(&b[start..*i]).unwrap_or("").to_string())
    };

    // The closing `]` may be followed by whitespace only.
    let close = |i: &mut usize| -> Result<(), String> {
        eat(i, b']')?;
        ws(i);
        if *i < b.len() {
            return Err(format!(
                "unexpected bytes after the closing ']' at byte {i}"
            ));
        }
        Ok(())
    };

    let mut tenants = Vec::new();
    eat(&mut i, b'[')?;
    ws(&mut i);
    if i < b.len() && b[i] == b']' {
        close(&mut i)?;
        return Ok(tenants);
    }
    loop {
        eat(&mut i, b'{')?;
        let mut name: Option<String> = None;
        let mut nodes: Option<usize> = None;
        let mut spec_of = Vec::new(); // (key, raw value) pairs, applied after name/nodes
        ws(&mut i);
        if i < b.len() && b[i] != b'}' {
            loop {
                let key = string(&mut i)?;
                eat(&mut i, b':')?;
                match key.as_str() {
                    "name" => name = Some(string(&mut i)?),
                    "nodes" => {
                        nodes = Some(scalar(&mut i)?.parse().map_err(|e| format!("nodes: {e}"))?);
                    }
                    _ => spec_of.push((key, scalar(&mut i)?)),
                }
                ws(&mut i);
                if i < b.len() && b[i] == b',' {
                    i += 1;
                } else {
                    break;
                }
            }
        }
        eat(&mut i, b'}')?;
        let name = name.ok_or("tenant object missing \"name\"")?;
        let nodes = nodes.ok_or_else(|| format!("tenant {name:?} missing \"nodes\""))?;
        let mut spec = TenantSpec::new(name.clone(), nodes);
        for (key, raw) in spec_of {
            let err = |e: &dyn std::fmt::Display| format!("tenant {name:?} {key}: {e}");
            let num = || raw.parse::<f64>().map_err(|e| err(&e));
            let int = || raw.parse::<u32>().map_err(|e| err(&e));
            spec = match key.as_str() {
                "weight" => spec.weight(int()?),
                "quota_hz" => spec.quota_hz(num()?),
                "burst" | "quota_burst" => spec.quota_burst(int()?),
                "degrade" => spec.degrade(match raw.as_str() {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("tenant {name:?} degrade: {other:?}")),
                }),
                "breaker_rounds" => spec.breaker_rounds(int()?),
                "cooldown_s" => spec.cooldown_s(num()?),
                other => return Err(format!("tenant {name:?}: unknown key {other:?}")),
            };
        }
        tenants.push(spec);
        ws(&mut i);
        if i < b.len() && b[i] == b',' {
            i += 1;
        } else {
            break;
        }
    }
    close(&mut i)?;
    Ok(tenants)
}

fn run(args: &Args) -> Result<(), XProError> {
    let data = generate_case_sized(args.case, args.segments, 42);
    let cfg = PipelineConfig::builder()
        .subspace(SubspaceConfig {
            candidates: 10,
            keep_fraction: 0.3,
            min_keep: 3,
            folds: 2,
            ..SubspaceConfig::default()
        })
        .build()?;
    let pipeline = XProPipeline::train(&data, &cfg)?;
    let segment_len = pipeline.segment_len();
    let instance =
        XProInstance::try_new(pipeline.into_built(), SystemConfig::default(), segment_len)?;
    let generator = XProGenerator::new(&instance);
    let partition = generator.partition_for(args.engine)?;

    let (outage_period, outage_s) = args.outage.unwrap_or((0.0, 0.0));
    let run_cfg = RuntimeConfig::builder()
        .nodes(args.nodes)
        .duration_s(args.seconds)
        .drop_rate(args.drop_rate)
        .max_retries(args.max_retries)
        .timeout_s(args.timeout_s)
        .seed(args.seed)
        .burst_bad_rate(args.burst_bad_rate)
        .burst_p_enter(args.burst_p_enter)
        .burst_p_exit(args.burst_p_exit)
        .burst_slot_s(args.burst_slot_s)
        .mtbf_s(args.mtbf_s)
        .mttr_s(args.mttr_s)
        .reboot_warmup_s(args.warmup_s)
        .battery_budget_pj(args.battery_pj)
        .agg_outage_period_s(outage_period)
        .agg_outage_s(outage_s)
        .agg_inbox(args.agg_inbox)
        .tenants(args.tenants.clone())
        .adaptive(args.adaptive)
        .adaptive_window(args.adaptive_window)
        .hysteresis(args.hysteresis)
        .min_dwell_s(args.min_dwell_s)
        .build()?;
    let spec = FleetSpec::new(&instance, &partition, run_cfg)?;
    let handle = ExecutorBuilder::new(spec)
        .shards(args.shards)
        .record_timesteps(args.export.is_some())
        .build()?
        .run();
    if let Some(dir) = &args.export {
        export_columns(dir, &handle)?;
    }
    let report = handle.report;

    if args.json {
        println!("{}", report.to_json());
    } else {
        println!(
            "case {} / engine {:?}: {} cells, {} on the sensor",
            args.case.symbol(),
            args.engine,
            instance.num_cells(),
            partition.sensor_count()
        );
        print!("{}", report.render());
    }
    Ok(())
}

/// Writes `timesteps.xpc` and `nodes.xpc` into `dir`, then folds the
/// timestep columns back through the aggregation layer and cross-checks
/// the totals against the report — the export is only useful if it
/// agrees with what the run says happened. The summary goes to stderr so
/// `--json` keeps stdout machine-clean.
fn export_columns(dir: &std::path::Path, handle: &RunHandle) -> Result<(), XProError> {
    use xpro::runtime::{node_columns, summarize_timesteps};
    let timesteps = handle
        .timesteps
        .as_ref()
        .expect("recording was enabled with --export");
    std::fs::create_dir_all(dir).map_err(XProError::from)?;
    timesteps.write(&dir.join("timesteps.xpc"))?;
    node_columns(&handle.report).write(&dir.join("nodes.xpc"))?;
    let summary = summarize_timesteps(timesteps)?;
    let report = &handle.report;
    let offered: u64 = report.nodes.iter().map(|n| n.segments_offered).sum();
    if summary.offered != offered
        || summary.completed != report.total_completed()
        || summary.lost != report.total_lost()
    {
        return Err(XProError::config(format!(
            "columnar export disagrees with the report: \
             offered {}/{}, completed {}/{}, lost {}/{}",
            summary.offered,
            offered,
            summary.completed,
            report.total_completed(),
            summary.lost,
            report.total_lost(),
        )));
    }
    eprintln!(
        "exported {} rounds x {} columns to {} (offered {}, completed {}, lost {}; \
         telemetry sketches held {} bytes)",
        summary.rows,
        timesteps.names().count(),
        dir.display(),
        summary.offered,
        summary.completed,
        summary.lost,
        handle.telemetry_bytes,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_tenants;

    fn one(fields: &str) -> Result<xpro::runtime::TenantSpec, String> {
        let mut specs = parse_tenants(&format!(r#"[{{"name": "t", "nodes": 2{fields}}}]"#))?;
        assert_eq!(specs.len(), 1);
        Ok(specs.remove(0))
    }

    #[test]
    fn example_file_parses_to_its_three_specs() {
        let specs = parse_tenants(include_str!("../../examples/tenants.json")).expect("parses");
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["health", "fitness", "telemetry"]);
        assert_eq!(specs.iter().map(|s| s.nodes).sum::<usize>(), 8);
        let fitness = &specs[1];
        assert_eq!(
            (fitness.weight, fitness.quota_burst, fitness.breaker_rounds),
            (1, 4, 3)
        );
        assert_eq!((fitness.quota_hz, fitness.cooldown_s), (6.0, 2.0));
        assert!(!specs[0].degrade && specs[2].degrade);
    }

    #[test]
    fn integer_fields_accept_only_u32() {
        let spec = one(r#", "weight": 3, "quota_burst": 5, "breaker_rounds": 0"#).expect("parses");
        assert_eq!(
            (spec.weight, spec.quota_burst, spec.breaker_rounds),
            (3, 5, 0)
        );
        for key in ["weight", "burst", "quota_burst", "breaker_rounds"] {
            for bad in ["2.9", "-1", "1e12", "4294967296", "2.0"] {
                let err = one(&format!(r#", "{key}": {bad}"#)).expect_err(bad);
                assert!(err.contains(key), "{key}={bad}: {err}");
            }
        }
    }

    /// Node counts that parse but wrap `usize` when summed reach the
    /// config as an error, not as a panic in the tenancy layer.
    #[test]
    fn wrapping_tenant_node_counts_are_config_errors() {
        let specs =
            parse_tenants(r#"[{"name":"a","nodes":18446744073709551615},{"name":"b","nodes":3}]"#)
                .expect("parses");
        let built = xpro::runtime::RuntimeConfig::builder()
            .nodes(2)
            .tenants(specs)
            .build();
        assert!(
            matches!(built, Err(xpro::core::XProError::Config(_))),
            "{built:?}"
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        assert_eq!(parse_tenants("[] \n\t").expect("whitespace is fine"), []);
        assert!(parse_tenants(r#"[{"name": "t", "nodes": 1}]"#).is_ok());
        for bad in [
            "[]x",
            "[] ]",
            "[][]",
            r#"[{"name": "t", "nodes": 1}],"#,
            r#"[{"name": "t", "nodes": 1},]"#,
        ] {
            assert!(parse_tenants(bad).is_err(), "{bad}");
        }
    }
}
