#!/usr/bin/env python3
"""Build and run the Javelin benchmark for one workload.

    python3 perfbench/run.py --workload poisson3d --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark from source into .bench_build/ (CMake,
Release), runs one workload, and passes the program's report through. The
last stdout line is the JSON result object. Exits non-zero, without a
result line, when the build or the run fails.

--record FILE appends {workload, seed, trace, fingerprint, info, result} as
one JSON line to FILE; compare.py reads such files.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("poisson3d", "powerflow")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def source_id():
    """git SHA when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if res.returncode == 0:
            return "git:" + res.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    """Configure once, then bring the benchmark binary up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("library sources not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S, check=False)
        if res.returncode != 0:
            sys.stderr.write(res.stdout + res.stderr)
            raise RuntimeError("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def parse_result(line):
    obj = json.loads(line)
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(obj))
    return obj


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result to this JSONL file")
    args = ap.parse_args()

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(),
           "--trace-dir", str(ROOT / ".bench_build" / "traces")]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stderr.write(res.stderr)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        if res.returncode != 0:
            raise ValueError("exit code %d" % res.returncode)
        result = parse_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(res.stdout)
        print("perfbench: no valid result (%s)" % e, file=sys.stderr)
        return 1

    extra = {"fingerprint": None, "info": None}
    for line in lines[:-1]:
        for key in extra:
            if line.startswith(key + ": "):
                extra[key] = json.loads(line[len(key) + 2:])
        print(line)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fp:
            fp.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **extra,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
