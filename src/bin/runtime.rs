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
use xpro::analyze::json::{JsonError, JsonReader};
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
  --segments <N>      training-set size, 2..=100000 (default 60)
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

/// Cross-validation folds of the pipeline `run` trains; `--segments`
/// needs at least one segment per fold.
const CV_FOLDS: usize = 2;
/// Largest `--segments`: the generated dataset (at most 136 samples a
/// segment) stays near 100 MiB.
const MAX_SEGMENTS: usize = 100_000;

struct Args {
    case: CaseId,
    segments: usize,
    engine: Engine,
    shards: ShardCount,
    json: bool,
    export: Option<std::path::PathBuf>,
    /// The fleet options, parsed straight into the configuration;
    /// `FleetSpec::new` validates it.
    config: RuntimeConfig,
}

/// Parses the command line (program name excluded). An empty error
/// string asks for the usage text.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        case: CaseId::C1,
        segments: 60,
        engine: Engine::CrossEnd,
        shards: ShardCount::Auto,
        json: false,
        export: None,
        config: RuntimeConfig::default(),
    };
    let cfg = &mut args.config;
    let mut it = argv.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        match flag {
            "--case" => {
                let sym = value(flag, it.next())?;
                args.case = CaseId::ALL
                    .into_iter()
                    .find(|c| c.symbol().eq_ignore_ascii_case(sym))
                    .ok_or_else(|| format!("unknown case {sym:?}"))?;
            }
            "--segments" => {
                args.segments = parsed(flag, it.next())?;
                if !(CV_FOLDS..=MAX_SEGMENTS).contains(&args.segments) {
                    return Err(format!(
                        "--segments must be in {CV_FOLDS}..={MAX_SEGMENTS}, got {}",
                        args.segments
                    ));
                }
            }
            "--engine" => {
                args.engine = match value(flag, it.next())?.to_ascii_lowercase().as_str() {
                    "cross-end" | "c" => Engine::CrossEnd,
                    "in-sensor" | "s" => Engine::InSensor,
                    "in-aggregator" | "a" => Engine::InAggregator,
                    "trivial" | "t" => Engine::TrivialCut,
                    other => return Err(format!("unknown engine {other:?}")),
                };
            }
            "--nodes" => cfg.nodes = parsed(flag, it.next())?,
            "--seconds" => cfg.duration_s = parsed(flag, it.next())?,
            "--drop-rate" => cfg.drop_rate = parsed(flag, it.next())?,
            "--max-retries" => cfg.max_retries = parsed(flag, it.next())?,
            "--timeout" => cfg.timeout_s = parsed(flag, it.next())?,
            "--seed" => cfg.seed = parsed(flag, it.next())?,
            "--shards" => {
                let spec = value(flag, it.next())?;
                args.shards = if spec.eq_ignore_ascii_case("auto") {
                    ShardCount::Auto
                } else {
                    ShardCount::Fixed(parsed(flag, Some(spec))?)
                };
            }
            "--burst-bad-rate" => cfg.burst_bad_rate = parsed(flag, it.next())?,
            "--burst-p-enter" => cfg.burst_p_enter = parsed(flag, it.next())?,
            "--burst-p-exit" => cfg.burst_p_exit = parsed(flag, it.next())?,
            "--burst-slot-s" => cfg.burst_slot_s = parsed(flag, it.next())?,
            "--mtbf-s" => cfg.mtbf_s = parsed(flag, it.next())?,
            "--mttr-s" => cfg.mttr_s = parsed(flag, it.next())?,
            "--warmup-s" => cfg.reboot_warmup_s = parsed(flag, it.next())?,
            "--battery-pj" => cfg.battery_budget_pj = parsed(flag, it.next())?,
            "--aggregator-outage" => {
                let spec = value(flag, it.next())?;
                let (period, dur) = spec.split_once(',').ok_or_else(|| {
                    format!("--aggregator-outage expects PERIOD,DUR, got {spec:?}")
                })?;
                cfg.agg_outage_period_s =
                    parsed("--aggregator-outage period", Some(period.trim()))?;
                cfg.agg_outage_s = parsed("--aggregator-outage duration", Some(dur.trim()))?;
            }
            "--agg-inbox" => cfg.agg_inbox = parsed(flag, it.next())?,
            "--tenants" => {
                let path = value(flag, it.next())?;
                let src =
                    std::fs::read_to_string(path).map_err(|e| format!("--tenants: {path}: {e}"))?;
                cfg.tenants = parse_tenants(&src).map_err(|e| format!("--tenants: {e}"))?;
            }
            "--adaptive" => cfg.adaptive = true,
            "--adaptive-window" => cfg.adaptive_window = parsed(flag, it.next())?,
            "--hysteresis" => cfg.hysteresis = parsed(flag, it.next())?,
            "--min-dwell-s" => cfg.min_dwell_s = parsed(flag, it.next())?,
            "--json" => args.json = true,
            "--export" => args.export = Some(value(flag, it.next())?.into()),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// The value following `flag`, or an error naming the flag.
fn value<'a>(flag: &str, raw: Option<&'a str>) -> Result<&'a str, String> {
    raw.ok_or_else(|| format!("{flag} requires a value"))
}

/// The value following `flag`, parsed as a `T`.
fn parsed<T>(flag: &str, raw: Option<&str>) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value(flag, raw)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Parses a tenant-spec file: a JSON array of flat objects (the format
/// `examples/tenants.json` documents), read strictly: an unknown,
/// duplicate or missing key, a value of the wrong type and any byte after
/// the array are errors.
fn parse_tenants(src: &str) -> Result<Vec<TenantSpec>, XProError> {
    read_tenants(src).map_err(|e| XProError::config(format!("tenant table: {e}")))
}

fn read_tenants(src: &str) -> Result<Vec<TenantSpec>, JsonError> {
    let mut r = JsonReader::new(src);
    let mut tenants = Vec::new();
    r.array(|r| {
        let mut spec = TenantSpec::new(String::new(), 0);
        r.object(&["name", "nodes"], |r, key| {
            match key {
                "name" => spec.name = r.string()?,
                "nodes" => spec.nodes = r.parse(key)?,
                "weight" => spec.weight = r.parse(key)?,
                "quota_hz" => spec.quota_hz = r.parse(key)?,
                "burst" | "quota_burst" => spec.quota_burst = r.parse(key)?,
                "degrade" => spec.degrade = r.bool()?,
                "breaker_rounds" => spec.breaker_rounds = r.parse(key)?,
                "cooldown_s" => spec.cooldown_s = r.parse(key)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        tenants.push(spec);
        Ok(())
    })?;
    r.end()?;
    Ok(tenants)
}

fn run(args: &Args) -> Result<(), XProError> {
    let data = generate_case_sized(args.case, args.segments, 42);
    let cfg = PipelineConfig::builder()
        .subspace(SubspaceConfig {
            candidates: 10,
            keep_fraction: 0.3,
            min_keep: 3,
            folds: CV_FOLDS,
            ..SubspaceConfig::default()
        })
        .build()?;
    let pipeline = XProPipeline::train(&data, &cfg)?;
    let segment_len = pipeline.segment_len();
    let instance =
        XProInstance::try_new(pipeline.into_built(), SystemConfig::default(), segment_len)?;
    let generator = XProGenerator::new(&instance);
    let partition = generator.partition_for(args.engine)?;

    let spec = FleetSpec::new(&instance, &partition, args.config.clone())?;
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
    let Some(timesteps) = handle.timesteps.as_ref() else {
        return Err(XProError::config("--export ran without timestep recording"));
    };
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
    let argv: Result<Vec<String>, String> = std::env::args_os()
        .skip(1)
        .map(|arg| {
            arg.into_string()
                .map_err(|arg| format!("argument {arg:?} is not valid UTF-8"))
        })
        .collect();
    let args = match argv.and_then(|argv| parse_args(&argv)) {
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
    use super::{parse_args, parse_tenants};
    use proptest::prelude::*;

    const EXAMPLE: &str = include_str!("../../examples/tenants.json");

    /// A command line that sets every option: the CI chaos run plus the
    /// remaining knobs, each with a valid value.
    const ARGV: &[&str] = &[
        "--case",
        "E2",
        "--segments",
        "60",
        "--engine",
        "trivial",
        "--nodes",
        "8",
        "--seconds",
        "30",
        "--drop-rate",
        "0.2",
        "--max-retries",
        "3",
        "--timeout",
        "1",
        "--seed",
        "7",
        "--shards",
        "3",
        "--burst-bad-rate",
        "0.95",
        "--burst-p-enter",
        "0.3",
        "--burst-p-exit",
        "0.05",
        "--burst-slot-s",
        "0.1",
        "--mtbf-s",
        "30",
        "--mttr-s",
        "2",
        "--warmup-s",
        "0.5",
        "--battery-pj",
        "1e12",
        "--aggregator-outage",
        "10,1",
        "--agg-inbox",
        "128",
        "--tenants",
        concat!(env!("CARGO_MANIFEST_DIR"), "/examples/tenants.json"),
        "--adaptive",
        "--adaptive-window",
        "64",
        "--hysteresis",
        "1.5",
        "--min-dwell-s",
        "1",
        "--json",
    ];

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_string()).collect()
    }

    /// Parses `argv` and, when it parses, validates the fleet
    /// configuration it describes: neither step may panic.
    fn read_args(argv: &[String]) {
        if let Ok(args) = parse_args(argv) {
            let _ = args.config.validate();
        }
    }

    #[test]
    fn full_command_line_parses_every_option() {
        let args = parse_args(&argv(ARGV)).expect("parses");
        let cfg = &args.config;
        assert_eq!(args.case.symbol(), "E2");
        assert_eq!((cfg.nodes, args.segments, cfg.agg_inbox), (8, 60, 128));
        assert_eq!(args.shards, xpro::runtime::ShardCount::Fixed(3));
        assert_eq!((cfg.agg_outage_period_s, cfg.agg_outage_s), (10.0, 1.0));
        assert_eq!(cfg.tenants.len(), 3);
        assert!(cfg.adaptive && args.json && args.export.is_none());
        cfg.validate().expect("a valid fleet");
        assert_eq!((cfg.battery_budget_pj, cfg.min_dwell_s), (1e12, 1.0));
        assert!(parse_args(&argv(&["--help"])).is_err_and(|e| e.is_empty()));
    }

    #[test]
    fn segments_outside_the_trainable_range_are_rejected() {
        for bad in ["0", "1", "100001", "18446744073709551615"] {
            let Err(err) = parse_args(&argv(&["--segments", bad])) else {
                panic!("--segments {bad} parsed");
            };
            assert!(err.contains("--segments"), "{bad}: {err}");
        }
        assert!(parse_args(&argv(&["--segments", "2"])).is_ok());
    }

    /// Every prefix of the command line, and every argument cut short.
    #[test]
    fn every_truncation_of_the_command_line_returns() {
        let full = argv(ARGV);
        for n in 0..=full.len() {
            read_args(&full[..n]);
        }
        for (i, arg) in ARGV.iter().enumerate() {
            for (cut, _) in arg.char_indices() {
                let mut args = full.clone();
                args[i] = arg[..cut].to_string();
                read_args(&args);
            }
        }
    }

    /// Every numeric value replaced by one out of every option's range
    /// or not finite.
    #[test]
    fn hostile_numbers_in_every_numeric_option_return() {
        let mut options = 0;
        for (i, arg) in ARGV.iter().enumerate() {
            if !arg.starts_with(|c: char| c.is_ascii_digit()) {
                continue;
            }
            options += 1;
            for value in [
                "18446744073709551615",
                "18446744073709551616",
                "-1",
                "1e400",
                "-1e400",
                "NaN",
                "0",
                "",
                "1,NaN",
            ] {
                let mut args = argv(ARGV);
                args[i] = value.to_string();
                read_args(&args);
            }
        }
        assert_eq!(options, 21, "numeric options of the full command line");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A flipped bit may break UTF-8 (read lossily), a flag name, a
        /// digit, the outage separator or the tenants path.
        #[test]
        fn any_single_bit_flip_in_the_command_line_returns(
            pos in 0usize..1 << 20,
            bit in 0u32..8,
        ) {
            let mut args = argv(ARGV);
            let total: usize = ARGV.iter().map(|a| a.len()).sum();
            let (mut arg, mut byte) = (0, pos % total);
            while byte >= ARGV[arg].len() {
                byte -= ARGV[arg].len();
                arg += 1;
            }
            let mut bytes = ARGV[arg].as_bytes().to_vec();
            bytes[byte] ^= 1 << bit;
            args[arg] = String::from_utf8_lossy(&bytes).into_owned();
            read_args(&args);
        }
    }

    /// Parses `text` and, when it parses, validates the table against the
    /// example's 8-node fleet: neither step may panic.
    fn read(text: &str) {
        if let Ok(specs) = parse_tenants(text) {
            let _ = xpro::runtime::RuntimeConfig::builder()
                .nodes(8)
                .tenants(specs)
                .build();
        }
    }

    fn one(fields: &str) -> Result<xpro::runtime::TenantSpec, xpro::core::XProError> {
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
                assert!(err.to_string().contains(key), "{key}={bad}: {err}");
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
    fn every_truncation_returns() {
        for n in 0..=EXAMPLE.len() {
            read(&EXAMPLE[..n]);
        }
    }

    /// Every number of the example file (node counts, weights, quotas,
    /// bursts, breaker rounds, cooldowns) replaced by a value out of every
    /// field's range or not finite.
    #[test]
    fn hostile_numbers_in_every_numeric_field_return() {
        let b = EXAMPLE.as_bytes();
        let mut fields = 0;
        for (i, w) in b.windows(3).enumerate() {
            let start = i + 3;
            if w != b"\": " || !b.get(start).is_some_and(u8::is_ascii_digit) {
                continue;
            }
            let len = b[start..]
                .iter()
                .position(|c| b",}\n ".contains(c))
                .unwrap_or(b.len() - start);
            fields += 1;
            for value in ["18446744073709551615", "-1", "1e400", "NaN"] {
                let mut text = EXAMPLE.to_string();
                text.replace_range(start..start + len, value);
                read(&text);
            }
        }
        assert_eq!(fields, 15, "numeric fields of examples/tenants.json");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A flipped bit may break UTF-8 (read lossily), a key, a quote, a
        /// bracket or a digit.
        #[test]
        fn any_single_bit_flip_returns(pos in 0usize..1 << 20, bit in 0u32..8) {
            let mut bytes = EXAMPLE.as_bytes().to_vec();
            let byte = pos % bytes.len();
            bytes[byte] ^= 1 << bit;
            read(&String::from_utf8_lossy(&bytes));
        }
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
            r#"[{"name": "t", "nodes": 1, "nodes": 2}]"#,
            r#"[{"name": "t", "nodes": 1, "quota_hz": NaN}]"#,
            r#"[{"name": "t", "nodes": 1, "quota_hz": Infinity}]"#,
            r#"[{"name": "t", "nodes": 01}]"#,
            r#"[{"name": "t", "nodes": +1}]"#,
            r#"[{"name": "t", "nodes": 1,}]"#,
        ] {
            let err = parse_tenants(bad).expect_err(bad);
            assert!(
                matches!(&err, xpro::core::XProError::Config(msg) if msg.contains(" at byte ")),
                "{bad}: {err}"
            );
        }
    }

    /// Tenant names needing every escape the report writer emits read
    /// back to exactly those names.
    #[test]
    fn escaped_names_parse_to_the_exact_string() {
        let names = [
            "q\"uote",
            "back\\slash",
            "ctl\u{1}\u{1f}\t\n\r",
            "ünï\u{200b}code",
        ];
        let mut w = xpro::analyze::json::JsonWriter::new(0, 0);
        w.raw("[");
        for (i, name) in names.iter().enumerate() {
            w.string(if i == 0 { "{\"name\":" } else { ",{\"name\":" }, name);
            w.raw(",\"nodes\":3}");
        }
        w.raw("]");
        let text = w.finish();
        assert!(text.contains(r#""ctl\u0001\u001f\t\n\r""#), "{text}");
        let specs = parse_tenants(&text).expect("parses");
        let parsed: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(parsed, names);
    }
}
