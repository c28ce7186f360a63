#!/usr/bin/env python3
"""Build perfbench, the AED benchmark, from source and run it.

Run from the repository root; every argument goes to the benchmark:

    python3 perfbench/run.py --workload cold_fleet --seed 1 --seconds 20 --trace 0

The Go build cache and the binary live under .bench_build/ at the root
of the checkout, and module downloads are disabled, so the build reads
and writes nothing outside the checkout. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.path.dirname(bench_dir), ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOMODCACHE=os.path.join(build_dir, "gomodcache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        # The go command keeps its env file and telemetry counters here.
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    build = ["go", "build", "-o", binary, "."]
    # Stamping the commit into the binary needs a usable git checkout;
    # without one, build unstamped and report the commit as unknown.
    for extra in ([], ["-buildvcs=false"]):
        done = subprocess.run(build[:2] + extra + build[2:], cwd=bench_dir, env=env,
                              stdout=sys.stderr)
        if done.returncode == 0:
            break
    else:
        sys.exit(done.returncode)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
