#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload rate-mcf --seed 1 --seconds 20 --trace 0

The benchmark is a cargo package of its own. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then run with the same
arguments; its scratch stores and result files go under
<target>/perfbench. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    package = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(package / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [
            str(target / "release" / "perfbench"), *sys.argv[1:],
            "--work", str(target / "perfbench"),
        ],
        env=env,
    )
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
