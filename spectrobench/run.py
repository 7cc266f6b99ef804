#!/usr/bin/env python3
"""Build and run the spectro-ai benchmark.

Usage (from the repository root):

    python3 spectrobench/run.py --workload serve-poisson --seed 1 --seconds 10 --trace 0

Builds the `spectrobench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it with the same
arguments. The last line of standard output is the result object; host
facts and phase summaries come before it. Exits non-zero, without a
result, when the build fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("spectrobench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "spectrobench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"spectrobench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
