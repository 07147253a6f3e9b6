#!/usr/bin/env python3
"""MPA end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
repository's src/ libraries in Release) under .bench_build/, then runs
two processes of the built `mpabench`:

  prepare  generates workload W's dataset from the seed and the 1-thread
           reference digests every output is checked against;
  run      measures W for about T seconds. It never generated the data,
           so its VmHWM is the workload's own peak RSS.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
The line before it (`info ...`) records nproc, git sha, seed, dataset
shape and bytes, and thread counts. Exits 1 when a correctness check
fails, and without a result line when the build or a step fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# prepare + run must finish this long after the build.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MPA sources (src/CMakeLists.txt) beside perfbench/")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "mpabench")


def step(cmd, deadline):
    """Run one mpabench step and parse its last stdout line as JSON."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"step failed with code {proc.returncode}: " + " ".join(cmd))
    return json.loads(lines[-1])


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    exe = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(os.path.dirname(build_dir()), "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
        prep = step([exe, "prepare"] + common, deadline)
        res = step([exe, "run"] + common + ["--seconds", str(args.seconds),
                                            "--trace", str(args.trace)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(res["metrics"])
    measured.setdefault("setup_s", prep["setup_s"])
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    info = dict(prep["info"], **res["info"])
    info.update(nproc=os.cpu_count(), git_sha=git_sha(), workload=args.workload,
                trace=args.trace, prepare_setup_s=prep["setup_s"])
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
