#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dense-alg2 --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset, then runs
its binary with the same arguments. The binary prints one JSON object as
the last line of standard output; this script passes it through and
exits with the binary's exit code. Build output goes to standard error.
A traced run (`--trace 1`) also writes its spans, as JSON lines, to
`spans-<workload>.jsonl` in the target directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Seconds allowed for the build (a first build compiles every crate with
# link-time optimisation) and for one benchmark process.
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"run.py: build failed with exit code {built.returncode}", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    args = [exe] + sys.argv[1:] + ["--spans-dir", target]
    try:
        ran = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(ran.stdout)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
