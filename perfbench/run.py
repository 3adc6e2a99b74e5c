#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

usage (from the root of a source checkout):
  python3 perfbench/run.py --workload api_pdtx|dag_small|dag_wide \
      --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which builds the runtime
libraries from the checkout's src/) under .bench_build/perfbench; later runs
only re-check the build. Build output goes to .bench_build/build.log. The
driver's output is passed through; its last line is the JSON result. Spans
of traced runs and the IPC socket live under .bench_out/. The exit code is
the driver's: non-zero when an operation failed or an output check did not
pass, and also when the sources or the build are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cedr_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Sources the driver is built from and the document dag_small reads; their
# digest identifies what ran.
SOURCE_ROOTS = ["CMakeLists.txt", "src", "include", "perfbench/CMakeLists.txt",
                "perfbench/src", "examples/fd_filter_dag.json"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    digest = hashlib.sha256()
    paths = []
    for root in SOURCE_ROOTS:
        if os.path.isfile(root):
            paths.append(root)
        for base, _, files in os.walk(root):
            paths.extend(os.path.join(base, f) for f in files)
    for path in sorted(paths):
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:12]


def commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cedr_perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(".bench_build", "build.log"), "a") as log:
        for step in steps:
            remaining = deadline - time.monotonic()
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, remaining))
            except subprocess.TimeoutExpired:
                fail("build timed out; see .bench_build/build.log")
            if done.returncode != 0:
                fail("build failed; see .bench_build/build.log")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["api_pdtx", "dag_small", "dag_wide"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    for path in SOURCE_ROOTS:
        if not os.path.exists(path):
            fail("run from the root of a CEDR source checkout "
                 "(missing %s)" % path)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
