#!/usr/bin/env python3
"""Build distiq's benchmark from source and run one workload.

Run from the root of a distiq checkout:

    python3 perfbench/run.py --workload fp-solo --seed 0 --seconds 20 --trace 0

Every argument is passed to the perfbench binary (see perfbench/README.md).
Build outputs, the Go build cache and the benchmark's scratch files go to
the directory named by CARGO_TARGET_DIR, or .bench_build, under the
checkout root; nothing is written outside the checkout. The last line of
standard output is the result object.
"""

import os
import subprocess
import sys

# The benchmark itself must end within this many seconds once built.
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isfile(os.path.join(bench, "go.mod"))):
        print("perfbench: run from the root of a distiq checkout "
              "(needs go.mod and perfbench/go.mod)", file=sys.stderr)
        return 2

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(build, name)
            for name in ("gocache", "gopath", "tmp", "config", "work")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=dirs["gocache"], GOPATH=dirs["gopath"],
               GOTMPDIR=dirs["tmp"], TMPDIR=dirs["tmp"],
               XDG_CONFIG_HOME=dirs["config"],
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="")

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=bench, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    try:
        proc = subprocess.run([binary, *sys.argv[1:], "--workdir", dirs["work"]],
                              cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
