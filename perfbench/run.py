#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload of it.

Usage (from the repository root):

    python3 perfbench/run.py --workload metro_flood|roam_tunnel|chaos_campaign \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default: .bench_build) and runs the workload in a process of its own, so
its peak RSS is the workload's alone. Human-readable lines come first; the
last line of standard output is the JSON result. A traced run (--trace 1)
also writes a Chrome span file to <target dir>/perfbench-out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "mobicast-perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    run = subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir],
                         env=env, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
