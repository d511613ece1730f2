#!/usr/bin/env python3
"""Builds the benchmark program (perfbench.cc) from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Paths are relative to this file, not the working directory. The first call
configures and builds perfbench/CMakeLists.txt (the simulator library from
src/ plus perfbench.cc) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so stdout holds only the
program's report, whose last line is the JSON result.

Besides the program's in-process checks, every run's virtual digest is
recorded per (binary, workload, seed) under the build directory: a later
run of the same binary and seed whose digest differs is a failed run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("udp_blast", "tcp_bulk", "c10k_churn", "rpc_server")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources at src/ next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed")


def digest_path(workload, seed):
    with open(BINARY, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    return os.path.join(BUILD, "digests", binary, f"{workload}-{seed}")


def check_digest(lines, workload, seed):
    """True unless an earlier run of this binary and seed saw another digest."""
    seen = [ln.split()[1] for ln in lines if ln.startswith("digest ")]
    if len(seen) != 1:
        return False
    path = digest_path(workload, seed)
    if os.path.isfile(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != seen[0]:
            print(f"perfbench: digest {seen[0]} differs from an earlier run's {earlier}",
                  file=sys.stderr)
            return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(seen[0] + "\n")
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        die(f"perfbench printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"perfbench's last line is not JSON (exit {proc.returncode})")
    code = proc.returncode
    if not check_digest(lines, args.workload, args.seed):
        result["correct"] = False
        code = code or 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
