#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fir-bb --seed 1 --seconds 20 --trace 0

The build output, the Go build cache, the go command's config and telemetry
files and the traced run's span file all go under the build directory
($CARGO_TARGET_DIR, else .bench_build), so the benchmark writes nothing
outside the checkout. GOPROXY=off and GOTOOLCHAIN=local keep the build
offline. The last line of standard output is the benchmark's JSON result;
every other line is its report.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    run = subprocess.run(
        [binary, "-workload", args.workload, "-seed", str(args.seed),
         "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", build],
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
