#!/usr/bin/env python3
"""Builds and runs the served-path benchmark from the root of a checkout.

    python3 nwcbench/run.py --workload ca_mixed --seed 1 --seconds 55 --trace 0

The first run configures and compiles the library sources and the
benchmark into .bench_build/nwcbench (later runs rebuild only what
changed). The benchmark's output is passed through; its last line, one JSON
object with the keys correct/attempted/failed/metrics, is the result. Exits
non-zero, and prints no result, when the sources are missing, the build
fails or the benchmark does not produce a valid result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "nwcbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "nwc_bench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"nwcbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at src/ next to nwcbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout; the lock is released on exit.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(os.cpu_count() or 1)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "nwc_bench", "-j", jobs])
        # Compiler temporaries stay inside the checkout too.
        env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
        os.makedirs(env["TMPDIR"], exist_ok=True)
        for step in steps:
            # Build chatter goes to stderr so stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))
    if not os.access(BINARY, os.X_OK):
        fail("build produced no nwc_bench binary")


def source_fingerprint():
    """git sha when available, and a digest of the library and benchmark sources."""
    sha = "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return sha, digest.hexdigest()[:16]


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}; {os.cpu_count()} cpus; {platform.system()} {platform.release()}"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict) and len(result["metrics"]) > 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    sha, digest = source_fingerprint()
    print(f"host: {host_fingerprint()}")
    print(f"source: git {sha}, digest {digest}")
    sys.stdout.flush()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--spans",
                    os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode} without a valid result")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
