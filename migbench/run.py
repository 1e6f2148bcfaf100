#!/usr/bin/env python3
"""Build the simulator from source and run one migbench workload.

Usage, from the repository root:

    python3 migbench/run.py --workload churn-exec --seed 42 --seconds 25 --trace 0

Workloads: churn-exec, churn-migrate, bigspace-lazy, lossy-bulk.  The
development seed is 42 (at which churn-exec must reproduce the 1000-host
contract run exactly); 1987 is the held-out seed.

The benchmark program is built with `dune build --profile release` into
.bench_build/ (dune's shared cache is disabled, so nothing is written
outside the checkout).  Its stdout is passed through; the last line is
one JSON object with the keys correct, attempted, failed and metrics,
checked here against BENCHMARK.json.  --trace 1 also writes the run's
spans as a Chrome trace to .bench_build/trace-<workload>-<seed>.json.
Exits non-zero on a build failure, a failed correctness check, or output
that does not match BENCHMARK.json.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "migbench", "main.exe")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"migbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for top in ("lib", "migbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found under {ROOT}: not a complete checkout")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./migbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def check_result(line, trace):
    """The last line must carry exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    build()
    trace_out = os.path.join(BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--commit", git_commit(),
           "--source-digest", source_digest()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        sys.exit(r.returncode)
    problem = check_result(lines[-1] if lines else "", args.trace == 1)
    if problem:
        die(problem)


if __name__ == "__main__":
    main()
