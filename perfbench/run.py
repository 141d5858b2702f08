#!/usr/bin/env python3
"""Same-box benchmark of the HSGF system.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload csr_direct --seed 1 --seconds 40 --trace 0

Builds perfbench/ (the library sources under src/ plus the benchmark
program, Release) into $CARGO_TARGET_DIR or .bench_build, runs one workload,
and relays its output. Stdout carries a provenance line, one line per
correctness gate and per metric, and last the result object
{"correct", "attempted", "failed", "metrics"}. Workloads, metrics and
bounds are documented in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def workload_names():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def build(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return build_dir / "perfbench"


def cache_value(build_dir, key):
    text = (build_dir / "CMakeCache.txt").read_text(errors="replace")
    match = re.search(r"^%s:[A-Z]+=(.*)$" % re.escape(key), text, re.M)
    return match.group(1) if match else ""


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_commit():
    try:
        head = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over every file under src/ and perfbench/, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO_ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, build_dir):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = compiler or "unknown"
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": build_type,
        "release_build": build_type == "Release",
        "commit": source_commit(),
        "source_digest": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.workload not in workload_names():
        log("unknown workload %r" % args.workload)
        return 2

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 1

    stamp = provenance(args, build_dir)
    print("provenance " + json.dumps(stamp, sort_keys=True), flush=True)
    if not stamp["release_build"]:
        log("WARNING: %s build; timings are not comparable"
            % (stamp["build_type"] or "unspecified"))

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", ".perfbench_work"]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        log("benchmark exited with status %d" % run.returncode)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
