//! `analyze` — static range & overflow report for the fixed-point cell
//! dataflow.
//!
//! By default the tool analyzes the *generic framework* graph (full DWT
//! chain, every feature on every domain, an RBF SVM ensemble) over the
//! normalized `[-1, 1]` input range and prints a per-cell verdict table.
//! Input bounds can instead be taken from a Table-1 dataset's metadata
//! (`--case`), widened explicitly (`--lo/--hi/--scale`), and the analysis
//! can run against a trained pipeline's graph rather than the framework
//! superset (`--trained`).
//!
//! For CI the tool also speaks a machine-readable dialect: `--table1`
//! analyzes the framework graph under every Table-1 dataset's signal
//! bounds — per-cell range/overflow verdicts plus the static
//! timing/energy verdicts (WCRT, queue, utilization, energy budget) of
//! the generator's cross-end cut under the default fleet — `--json` emits
//! the findings in the canonical byte-stable baseline format,
//! `--write-baseline` records them to a file, and `--gate` diffs the
//! current findings against a checked-in baseline and fails on any
//! severity regression.
//!
//! Exit status: 0 on success, 1 on bad usage, 2 if `--fail-on-overflow`
//! was given and some cell may overflow, 3 if `--gate` found a verdict
//! regression against the baseline.

use std::process::ExitCode;
use xpro::analyze::gate::findings_for_report;
use xpro::analyze::{diff_findings, parse_findings, render_findings, Finding, SignalBounds};
use xpro::core::builder::{build_full_cell_graph, BuildOptions};
use xpro::core::config::SystemConfig;
use xpro::core::generator::XProGenerator;
use xpro::core::instance::XProInstance;
use xpro::core::pipeline::{PipelineConfig, XProPipeline};
use xpro::core::XProError;
use xpro::data::{generate_case_sized, CaseId};
use xpro::ml::SubspaceConfig;
use xpro::sweep::{table1_findings, SweepOptions};

const USAGE: &str = "\
usage: analyze [options]

Static range & overflow analysis of the Q16.16 functional-cell dataflow.

options:
  --case <SYM>          take input bounds from a Table-1 dataset
                        (C1, C2, E1, E2, M1, M2)
  --segments <N>        dataset size for --case (default 80)
  --lo <X> --hi <Y>     explicit input bounds (default -1 1)
  --scale <S>           shorthand for --lo -S --hi S
  --bases <N>           SVM bases in the framework graph (default 4)
  --sv <N>              support vectors per base (default 40)
  --trained             with --case: train the pipeline on the dataset and
                        analyze the trained graph instead of the framework
                        superset (also reports the generator's verdict)
  --fail-on-overflow    exit with status 2 if any cell may overflow
  --table1              analyze the framework graph under the normalized
                        default bounds plus every Table-1 dataset's signal
                        bounds, one findings set per config (range rows
                        plus static timing/energy verdicts per regime)
  --json                print the machine-readable findings document
                        instead of the human verdict table
  --gate <FILE>         diff the findings against the baseline in FILE and
                        exit with status 3 on any severity regression
  --write-baseline <FILE>
                        write the findings to FILE in baseline format

exit status: 0 ok, 1 usage or config error, 2 may-overflow under
--fail-on-overflow, 3 baseline regression under --gate";

/// Cross-validation folds of the pipeline `--trained` trains: a dataset
/// needs at least one segment per fold.
const CV_FOLDS: usize = 2;
/// Largest `--segments`: a generated dataset (at most 136 samples a
/// segment) stays near 100 MiB.
const MAX_SEGMENTS: usize = 100_000;
/// Largest `--bases` and `--sv`: the framework graph holds one SVM cell
/// per base, and the analysis walks every support vector of each.
const MAX_BASES: usize = 1_024;
const MAX_SV: usize = 100_000;

struct Args {
    case: Option<CaseId>,
    segments: usize,
    lo: Option<f64>,
    hi: Option<f64>,
    scale: Option<f64>,
    bases: usize,
    sv: usize,
    trained: bool,
    fail_on_overflow: bool,
    table1: bool,
    json: bool,
    gate: Option<String>,
    write_baseline: Option<String>,
}

/// Parses the command line (program name excluded). An empty error
/// string asks for the usage text.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        case: None,
        segments: 80,
        lo: None,
        hi: None,
        scale: None,
        bases: 4,
        sv: 40,
        trained: false,
        fail_on_overflow: false,
        table1: false,
        json: false,
        gate: None,
        write_baseline: None,
    };
    let mut it = argv.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        match flag {
            "--case" => {
                let sym = value(flag, it.next())?;
                args.case = Some(
                    CaseId::ALL
                        .into_iter()
                        .find(|c| c.symbol().eq_ignore_ascii_case(sym))
                        .ok_or_else(|| format!("unknown case {sym:?}"))?,
                );
            }
            "--segments" => args.segments = in_range(flag, it.next(), CV_FOLDS, MAX_SEGMENTS)?,
            "--lo" => args.lo = Some(finite(flag, it.next())?),
            "--hi" => args.hi = Some(finite(flag, it.next())?),
            "--scale" => {
                let s = finite(flag, it.next())?;
                if s <= 0.0 {
                    return Err(format!("--scale must be positive, got {s}"));
                }
                args.scale = Some(s);
            }
            "--bases" => args.bases = in_range(flag, it.next(), 1, MAX_BASES)?,
            "--sv" => args.sv = in_range(flag, it.next(), 1, MAX_SV)?,
            "--trained" => args.trained = true,
            "--fail-on-overflow" => args.fail_on_overflow = true,
            "--table1" => args.table1 = true,
            "--json" => args.json = true,
            "--gate" => args.gate = Some(value(flag, it.next())?.to_string()),
            "--write-baseline" => args.write_baseline = Some(value(flag, it.next())?.to_string()),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.trained && args.case.is_none() {
        return Err("--trained requires --case".into());
    }
    if args.table1 {
        if args.case.is_some() || args.trained {
            return Err("--table1 conflicts with --case/--trained".into());
        }
        if args.lo.is_some() || args.hi.is_some() || args.scale.is_some() {
            return Err("--table1 conflicts with explicit bounds".into());
        }
        if args.fail_on_overflow {
            return Err("--table1 analyzes overflowing configs by design; gate with --gate".into());
        }
    }
    Ok(args)
}

/// The value following `flag`, or an error naming the flag.
fn value<'a>(flag: &str, raw: Option<&'a str>) -> Result<&'a str, String> {
    raw.ok_or_else(|| format!("{flag} requires a value"))
}

/// The value following `flag` as an integer in `min..=max`.
fn in_range(flag: &str, raw: Option<&str>, min: usize, max: usize) -> Result<usize, String> {
    let v: usize = value(flag, raw)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))?;
    if !(min..=max).contains(&v) {
        return Err(format!("{flag} must be in {min}..={max}, got {v}"));
    }
    Ok(v)
}

/// The value following `flag` as a finite number.
fn finite(flag: &str, raw: Option<&str>) -> Result<f64, String> {
    let v: f64 = value(flag, raw)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))?;
    if !v.is_finite() {
        return Err(format!("{flag} must be finite, got {v}"));
    }
    Ok(v)
}

/// Analyzes the framework graph under the normalized default bounds plus
/// every Table-1 dataset's measured signal bounds, one findings set per
/// config — range/overflow rows per cell plus the timing/energy verdicts
/// of the generator's cross-end cut. Configs that may overflow are
/// reported, not refused — the baseline records their severity so the
/// gate can catch regressions. The sweep itself lives in [`xpro::sweep`]
/// so the byte-stability tests exercise the same code path.
fn run_table1(args: &Args) -> Result<(bool, Vec<Finding>), XProError> {
    table1_findings(&SweepOptions {
        bases: args.bases,
        sv: args.sv,
        segments: args.segments,
        verbose: !args.json,
        ..SweepOptions::default()
    })
}

fn run(args: &Args) -> Result<(bool, Vec<Finding>), XProError> {
    if args.table1 {
        return run_table1(args);
    }
    // Resolve input bounds: explicit flags beat dataset metadata beats the
    // normalized default.
    let dataset = args
        .case
        .map(|case| generate_case_sized(case, args.segments, 42));
    let mut bounds = match &dataset {
        Some(data) => {
            let (lo, hi) = data.signal_range();
            if !args.json {
                println!(
                    "dataset {} ({}): {} segments of {} samples, range [{lo:.3}, {hi:.3}]",
                    data.symbol,
                    data.name,
                    data.len(),
                    data.segment_len
                );
            }
            SignalBounds::new(lo, hi)
        }
        None => SignalBounds::default(),
    };
    if let Some(s) = args.scale {
        bounds = SignalBounds::new(-s, s);
    }
    if args.lo.is_some() || args.hi.is_some() {
        let (lo, hi) = (args.lo.unwrap_or(bounds.lo), args.hi.unwrap_or(bounds.hi));
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(XProError::config(format!(
                "invalid bounds: --lo {lo} --hi {hi}"
            )));
        }
        bounds = SignalBounds::new(lo, hi);
    }

    let (built, segment_len, label) = if args.trained {
        let data = dataset.as_ref().expect("--trained requires --case");
        let cfg = PipelineConfig::builder()
            .subspace(SubspaceConfig {
                candidates: 10,
                keep_fraction: 0.3,
                min_keep: 3,
                folds: 2,
                ..SubspaceConfig::default()
            })
            .build()?;
        let pipeline = XProPipeline::train(data, &cfg)?;
        let len = pipeline.segment_len();
        (pipeline.into_built(), len, "trained pipeline graph")
    } else {
        (
            build_full_cell_graph(&BuildOptions::default(), args.bases, args.sv),
            128,
            "generic framework graph",
        )
    };

    if !args.json {
        println!("analyzing {label} ({} cells)", built.graph.len());
    }
    let instance =
        XProInstance::try_with_bounds(built, SystemConfig::default(), segment_len, bounds)?;
    let report = instance.analysis();
    if !args.json {
        println!("{report}");
    }

    if args.trained && !args.json {
        let generator = XProGenerator::new(&instance);
        let cut = generator.generate()?;
        println!(
            "generator: cross-end cut maps {} of {} cells to the sensor; numerically valid: {}",
            cut.sensor_count(),
            instance.num_cells(),
            generator.numerically_valid(&cut)
        );
    }

    let config = args.case.map_or("default", |c| c.symbol());
    let findings = findings_for_report(config, report);
    Ok((report.is_overflow_free(), findings))
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
    let (overflow_free, findings) = match run(&args) {
        Ok(result) => result,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let document = render_findings(&findings);
    if args.json {
        print!("{document}");
    }
    if let Some(path) = &args.write_baseline {
        if let Err(e) = std::fs::write(path, &document) {
            eprintln!("error: cannot write baseline {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.json {
            println!("baseline written to {path} ({} findings)", findings.len());
        }
    }
    if let Some(path) = &args.gate {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read baseline {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match parse_findings(&text) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("error: baseline {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let regressions = diff_findings(&baseline, &findings);
        if !regressions.is_empty() {
            eprintln!(
                "error: {} verdict regression(s) against baseline {path}:",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            return ExitCode::from(3);
        }
        if !args.json {
            println!(
                "gate: {} findings match baseline {path}, no regressions",
                findings.len()
            );
        }
    }
    if !overflow_free && args.fail_on_overflow {
        eprintln!("error: some cells may overflow (see report above)");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{parse_args, CaseId};
    use proptest::prelude::*;

    /// A command line that sets every option `--table1` does not conflict
    /// with, each with a valid value.
    const ARGV: &[&str] = &[
        "--case",
        "m2",
        "--segments",
        "80",
        "--lo",
        "-2",
        "--hi",
        "2.5",
        "--scale",
        "3",
        "--bases",
        "4",
        "--sv",
        "40",
        "--trained",
        "--fail-on-overflow",
        "--json",
        "--gate",
        "analysis-baseline.json",
        "--write-baseline",
        "findings.json",
    ];

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn full_command_line_parses_every_option() {
        let args = parse_args(&argv(ARGV)).expect("parses");
        assert_eq!(args.case.map(CaseId::symbol), Some("M2"));
        assert_eq!((args.segments, args.bases, args.sv), (80, 4, 40));
        assert_eq!(
            (args.lo, args.hi, args.scale),
            (Some(-2.0), Some(2.5), Some(3.0))
        );
        assert!(args.trained && args.fail_on_overflow && args.json && !args.table1);
        assert_eq!(args.gate.as_deref(), Some("analysis-baseline.json"));
        assert_eq!(args.write_baseline.as_deref(), Some("findings.json"));
        let table1 = parse_args(&argv(&["--table1", "--segments", "2", "--json"])).expect("parses");
        assert!(table1.table1 && table1.case.is_none());
        assert!(parse_args(&argv(&["--help"])).is_err_and(|e| e.is_empty()));
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        for (flag, bad) in [
            ("--segments", "0"),
            ("--segments", "1"),
            ("--segments", "100001"),
            ("--segments", "18446744073709551615"),
            ("--bases", "0"),
            ("--bases", "1025"),
            ("--bases", "18446744073709551615"),
            ("--sv", "0"),
            ("--sv", "100001"),
            ("--scale", "0"),
            ("--scale", "-1"),
            ("--scale", "NaN"),
            ("--scale", "inf"),
            ("--lo", "-inf"),
            ("--hi", "NaN"),
        ] {
            let Err(err) = parse_args(&argv(&["--case", "C1", flag, bad])) else {
                panic!("{flag} {bad} parsed");
            };
            assert!(err.contains(flag), "{flag} {bad}: {err}");
        }
        assert!(parse_args(&argv(&["--segments", "2", "--bases", "1024", "--sv", "1"])).is_ok());
    }

    /// Every prefix of the command line, and every argument cut short.
    #[test]
    fn every_truncation_of_the_command_line_returns() {
        let full = argv(ARGV);
        for n in 0..=full.len() {
            let _ = parse_args(&full[..n]);
        }
        for (i, arg) in ARGV.iter().enumerate() {
            for (cut, _) in arg.char_indices() {
                let mut args = full.clone();
                args[i] = arg[..cut].to_string();
                let _ = parse_args(&args);
            }
        }
    }

    /// Every numeric value replaced by one out of every option's range
    /// or not finite.
    #[test]
    fn hostile_numbers_in_every_numeric_option_return() {
        let mut options = 0;
        for (i, arg) in ARGV.iter().enumerate() {
            if !arg.starts_with(|c: char| c.is_ascii_digit() || c == '-') || arg.starts_with("--") {
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
            ] {
                let mut args = argv(ARGV);
                args[i] = value.to_string();
                let _ = parse_args(&args);
            }
        }
        assert_eq!(options, 6, "numeric options of the full command line");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A flipped bit may break UTF-8 (read lossily), a flag name, a
        /// case symbol, a digit or a path.
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
            let _ = parse_args(&args);
        }
    }
}
