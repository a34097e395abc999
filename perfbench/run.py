#!/usr/bin/env python3
"""Build and run the CPR benchmark from the root of a checkout.

    python3 perfbench/run.py --workload kv-resident --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) against the crates of
the checkout, then runs it with the given arguments. The benchmark's
standard output is passed through unchanged; its last line is the JSON
result. The exit status is the benchmark's: 0 when every check passed,
non-zero otherwise (including a failed build or missing sources).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Crates the benchmark builds against, relative to the checkout root.
SOURCES = ["crates/faster", "crates/memdb", "crates/metrics", "crates/net", "crates/storage"]
# A run stops on its own after at most two minutes of rounds; this is
# the backstop for a benchmark wedged inside an engine call.
RUN_TIMEOUT_S = 170


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        print("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>", file=sys.stderr)
        return 2
    root = os.path.dirname(HERE)
    missing = [s for s in SOURCES if not os.path.isfile(os.path.join(root, s, "Cargo.toml"))]
    if missing:
        print(f"run.py: sources missing from the checkout: {', '.join(missing)}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    # A fixed glibc mmap threshold: large buffers are always mapped and
    # unmapped, so the resident set follows live memory instead of what
    # the allocator kept from an earlier round (peak_rss_mb).
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        run = subprocess.run([exe] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
