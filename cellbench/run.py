#!/usr/bin/env python3
"""Builds the cellbench binary from source and runs one benchmark invocation.

Usage, from the repository root:

    python3 cellbench/run.py --workload <paper3|committee256|lossy64> \
        [--seed <n>] [--cell-seed <n>] [--seconds <s>] [--trace <0|1>]

Cargo's output goes to stderr, so the last line on stdout is the
benchmark's JSON result. The build lands in $CARGO_TARGET_DIR, or in
cellbench/target when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longer than any run the benchmark makes, shorter than a caller's limit.
RUN_TIMEOUT_S = 170


def fact(cmd, cwd=ROOT):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target, BLOCKFED_THREADS="1")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("cellbench: build failed", file=sys.stderr)
        return build.returncode
    env["CELLBENCH_RUSTC"] = fact(["rustc", "--version"])
    env["CELLBENCH_GIT_REV"] = (
        fact(["git", "rev-parse", "--short", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown"
    )
    binary = os.path.join(target, "release", "cellbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"cellbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
