#!/usr/bin/env python3
"""Builds and runs the repository benchmark (lls_perfbench) for one workload.

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The binary is built from source
with CMake into $CARGO_TARGET_DIR (default .bench_build) on first use. The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; earlier lines print every
figure by name with its unit, plus the provenance of the run. The full
result, provenance included, is also written under <build dir>/results/,
and a traced run (--trace 1) writes its spans under <build dir>/traces/.
A run whose checks fail prints the failures and no result, and exits 1.
"""

import argparse
import datetime
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = (
    "sim-steady", "sim-failover", "udp-steady", "udp-ladder", "udp-closed")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(out_dir):
    """Configures and builds lls_perfbench; returns the binary path."""
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    binary = os.path.join(cmake_dir, "lls_perfbench")
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "lls_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return binary


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_binary(binary, args, out_dir, tag):
    """Runs the binary once; returns its full report and its result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, "traces", tag + ".jsonl")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    report = next((json.loads(l[len("report "):]) for l in lines
                   if l.startswith("report ")), None)
    for line in lines:
        if not line.startswith(("report ", "{")):
            print(line)
    if done.returncode != 0 or report is None or not lines:
        fail(f"{args.workload} failed its checks (exit {done.returncode})")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    return report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src", 2)

    out_dir = build_dir()
    binary = build(out_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report, result = run_binary(binary, args, out_dir, tag)

    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "report": report,
                   "result": result}, f, indent=1)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
