#!/usr/bin/env python3
"""Builds the paging stack and the benchmark from source, then runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload node-hit|node-solve|cluster-mix \
        --seed N --seconds S --trace 0|1

Builds `pager-serve` and `pager-cluster` from the repository's workspace
and the `perfbench` package beside this file into `$CARGO_TARGET_DIR`
(default `.bench_build`), then execs `perfbench` with the same
arguments. Build output goes to stderr; the benchmark's last stdout line
is its JSON result. Exits non-zero without a result when the sources to
build are missing or a build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    workspace = os.path.join(root, "Cargo.toml")
    if not os.path.isfile(workspace) or not os.path.isdir(os.path.join(root, "crates")):
        print("perfbench: run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "conference-call",
         "-p", "pager-cluster", "--bin", "pager-serve", "--bin", "pager-cluster"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
    ]
    for build in builds:
        done = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(build)}", file=sys.stderr)
            return done.returncode or 1
    bin_dir = os.path.join(target, "release")
    bench = [os.path.join(bin_dir, "perfbench"), *sys.argv[1:], "--bin-dir", bin_dir]
    return subprocess.run(bench, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
