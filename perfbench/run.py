#!/usr/bin/env python3
"""Build and run the edge-to-answer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oselm --seed 1 --seconds 10 --trace 0

Builds the seqge library and perfbench/edge_to_answer.cpp with CMake
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one measurement. Build output goes to stderr; the benchmark's
last stdout line is the result JSON object. Exits non-zero without a
result when the repository sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oselm", "dataflow_ivf", "sgd")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: repository sources not found next to perfbench/",
              file=sys.stderr)
        return None
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "edge_to_answer",
                 "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(build_dir, "edge_to_answer")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(ROOT, target, "perfbench"))
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run.py: benchmark timed out after %.0f s"
              % (time.monotonic() - start), file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(out)
        print("run.py: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
