#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `experiments` binary of the
repository and the `ksa-perfbench` harness in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), runs the harness with
KSA_THREADS pinned to THREADS, and prints its report
lines followed by one JSON line holding exactly the metrics
BENCHMARK.json lists: the end-to-end ones with `--trace 0`, the
per-layer ones with `--trace 1`. Exits nonzero without a result line
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".bench_out"
# Worker threads of the program under test (KSA_THREADS). One, not nproc:
# on a 2-vCPU virtual machine whose hypervisor steals 0-40% of CPU time in
# phases lasting minutes, two-thread wall times swung by about ±25%
# between identical runs and one-thread wall times by about ±12%.
THREADS = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    """Release builds of the `experiments` binary and the harness."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in [
        ("Cargo.toml", ["-p", "ksa-bench", "--bin", "experiments"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs from a
    checkout that is not a git repository can still be told apart."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
    files = []
    for top in roots:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for d, dirs, names in os.walk(path):
            dirs[:] = [x for x in dirs if x not in ("target", "__pycache__")]
            files.extend(os.path.join(d, f) for f in names)
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the repository the benchmark runs in, or None when the
    checkout is not a git repository of its own."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    build(target_dir)

    harness = os.path.join(target_dir, "release", "ksa-perfbench")
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--experiments", os.path.join(target_dir, "release", "experiments"),
           "--out", OUT]
    env = dict(os.environ, KSA_THREADS=str(THREADS))
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"harness exited with {r.returncode}")
    result = json.loads(lines[-1])

    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        fail(f"harness reported metrics BENCHMARK.json does not list: {unknown}")
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                fail(f"no value for end-to-end metric {m['name']}")
            value = 0.0  # a layer this workload never calls
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    report = result["report"]
    report.update(git_rev=git_rev(), source_digest=source_digest())
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    record = os.path.join(
        ROOT, OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump(dict(result, metrics=metrics), f, indent=1)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
