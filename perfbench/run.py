#!/usr/bin/env python3
"""Build and run the scheduler benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cnn-solve --seed 1 --seconds 25 --trace 0

perfbench/ is a Go module of its own that builds against the repository's
module one directory up, so the benchmark always measures the code of the
checkout it sits in. The build and the runs write only under the build
directory inside the checkout (CARGO_TARGET_DIR when set, else .bench_build):
the Go build cache, the binary, sweep journals and trace files. A failed
build exits non-zero without printing a result line.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "bin", "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    except OSError as err:
        print(f"perfbench: cannot run the go toolchain: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = [binary] + sys.argv[1:] + ["--workdir", os.path.join(build, "work")]
    os.chdir(root)
    os.execve(binary, args, env)
    return 1  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
