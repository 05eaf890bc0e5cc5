#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: perfbench/target), with cargo's home inside it; cargo's
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero without a result when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    # Every dependency is a path dependency, so cargo needs nothing from
    # its home; a private one keeps its cache files inside the checkout.
    env = dict(os.environ, CARGO_HOME=os.path.abspath(os.path.join(target, "cargo-home")))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
