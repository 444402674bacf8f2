#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve|join|churn|shard-batch \
        --seed N --seconds S --trace 0|1 [--inject-wrong-answer]

The first run configures and compiles the library and the benchmark into
.bench_build/perfbench (Release, 4 compile jobs); later runs only check
that the build is current. Build output goes to stderr, so the last line
of stdout is always the benchmark's JSON result. The exit code is the
benchmark's: nonzero when the build fails or any answer was wrong.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build(env):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "perfbench")


def main():
    # Compilers and the benchmark keep their temporary files inside the
    # checkout.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    work = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    try:
        proc = subprocess.run([binary] + sys.argv[1:] + ["--work-dir", work],
                              timeout=RUN_TIMEOUT_S, env=env)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        for name in os.listdir(work):
            if name.startswith("spans-"):
                shutil.move(os.path.join(work, name),
                            os.path.join(traces, name))
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
