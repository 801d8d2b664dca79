#!/usr/bin/env python3
"""Build and run rockcress's host-performance benchmark.

Run from the root of a rockcress checkout:

    python3 perfbench/run.py --workload mimd_mesh --seed 1 --seconds 25 --trace 0

It builds perfbench (a Go module of its own that imports the simulator
from the checkout) with the Go build cache, module cache and temporary
files kept inside the checkout, then runs it. The benchmark's last line of
standard output is its JSON result. Exits non-zero, printing no result, when
the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["mimd_mesh", "vector_dense", "dram_bound", "observed_sweep"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        sys.exit("perfbench: run from the root of a rockcress checkout (go.mod and internal/ not found)")

    work = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    out = os.path.join(work, "out")
    for d in ("gocache", "gomodcache", "gopath", "tmp", "out", "config"):
        os.makedirs(os.path.join(work, d), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(work, "gocache"),
        GOMODCACHE=os.path.join(work, "gomodcache"),
        GOPATH=os.path.join(work, "gopath"),
        GOTMPDIR=os.path.join(work, "tmp"),
        TMPDIR=os.path.join(work, "tmp"),
        # The go command keeps its telemetry counters under the user config
        # directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(work, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
    )
    binary = os.path.join(work, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        # VCS stamping fails inside some repositories; the revision is only
        # descriptive, so build without it rather than not at all.
        build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                               cwd=bench_dir, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", out]
    run = subprocess.run(cmd, cwd=root, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
