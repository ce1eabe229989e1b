//! XPro benchmark: end-to-end and per-layer metrics of the planner and the
//! fleet executor. See `NOTES.md` for the workloads, the metrics and the
//! layer → end-to-end map.
//!
//! ```text
//! xpro-perfbench --workload <fleet_large|fleet_chaos|plan_sweep> --seed <n>
//!                --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod calib;
mod fleet;
mod plan;
mod report;
mod setup;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use workload::{run_traced, run_untraced, RunOptions, Workload};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["fleet_large", "fleet_chaos", "plan_sweep"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: setup::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn drive<W: Workload>(
    args: &Args,
    opts: RunOptions,
    setup: impl FnMut() -> Result<W, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    if args.trace {
        run_traced(opts, setup, out)
    } else {
        run_untraced(opts, setup, out)
    }
}

fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let seed = args.seed;
    match args.workload.as_str() {
        "plan_sweep" => drive(
            args,
            RunOptions {
                seconds: args.seconds,
                setup_reps: 3,
                min_passes: 1,
            },
            || plan::PlanSweep::setup(seed).map_err(|e| e.to_string()),
            out,
        ),
        name => {
            let kind = if name == "fleet_large" {
                fleet::Kind::Large
            } else {
                fleet::Kind::Chaos
            };
            drive(
                args,
                RunOptions {
                    seconds: args.seconds,
                    setup_reps: 5,
                    min_passes: 21,
                },
                || fleet::Fleet::setup(kind, seed, &args.out_dir).map_err(|e| e.to_string()),
                out,
            )
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = Outcome::default();
    if let Err(e) = run(&args, &mut out) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
