#!/usr/bin/env python3
"""Build and run one workload of the quorum-placement benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and the repository's
libraries it links) in Release mode under .bench_build/perfbench; later calls
only re-run the incremental build. The workload runs in its own process with
QP_THREADS = min(4, nproc) and QP_OBS=0 (--trace 0) or QP_OBS=1 (--trace 1).

Standard output: the benchmark's details line, a provenance line, and as the
last line the result object {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "qp_perfbench")
MAX_THREADS = 4
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(jobs):
    """Configure once, then build incrementally; output goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"repository sources not found ({needed} missing in {ROOT})")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "qp_perfbench",
                      "-j", str(jobs)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_fingerprint():
    """Line count and content hash of src/ (the program, without tests)."""
    digest = hashlib.sha256()
    lines = 0
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                data = handle.read()
            lines += data.count(b"\n")
            digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def provenance(seed, threads):
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    lines, src_hash = src_fingerprint()
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": (status != "") if status is not None else None,
        "src_sha256_16": src_hash,
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "threads": threads,
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    threads = max(1, min(MAX_THREADS, os.cpu_count() or 1))
    build(threads)
    os.makedirs(TRACE_DIR, exist_ok=True)

    env = dict(os.environ, QP_THREADS=str(threads), QP_OBS=args.trace)
    env.pop("QP_TRACE", None)
    env.pop("QP_OBS_EXPORT", None)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-dir", TRACE_DIR]
    try:
        run = subprocess.run(command, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload exited with status {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload printed no result line")
    if set(result) != RESULT_KEYS:
        fail("result line has the wrong keys")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"provenance": provenance(args.seed, threads)}))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
