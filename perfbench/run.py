#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the JSON
result; set-up and build chatter go to standard error. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["dracc-sweep", "spec-stream", "serve-replay", "static-fuzz"]
BUILD_TIMEOUT_S = 880


def run_timeout_s(seconds):
    """Kill a hung run: a traced run spends `seconds` in its loops plus
    set-up, probes and isolated rows, well inside this."""
    return max(170, 60 + 4 * seconds)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(target, "perfbench-scratch")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=run_timeout_s(args.seconds))
    except (OSError, subprocess.TimeoutExpired) as e:
        # subprocess.run kills and reaps the child on timeout.
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
