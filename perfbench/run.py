#!/usr/bin/env python3
"""Builds the XPro benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <fleet_large|fleet_chaos|plan_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Its standard output is passed
through unchanged; the last line is the JSON result. Build or run failures
exit non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "xpro-perfbench")
    run = subprocess.run(
        [
            binary,
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            repr(args.seconds),
            "--trace",
            args.trace,
            "--out-dir",
            os.path.join(ROOT, ".bench_out", args.workload),
        ],
        cwd=ROOT,
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
