#!/usr/bin/env python3
"""Builds and runs the shp benchmark.

    python3 perfbench/run.py --workload <bisect|bsp|serve-live> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick

Run from the repository root. The first call builds the harness (perfbench/) and the shp
CLI in release mode into $CARGO_TARGET_DIR (default .bench_build). The harness's last stdout
line is the result: {"correct", "attempted", "failed", "metrics"}. --quick runs every
workload briefly on small inputs, with tracing off and on, and exits nonzero unless every
check passed and every metric named in BENCHMARK.json was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("bisect", "bsp", "serve-live")
RUN_TIMEOUT_S = 175


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(target):
    """Builds the harness and the shp CLI; returns their paths. Cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, package in ((BENCH_DIR / "Cargo.toml", None), (ROOT / "Cargo.toml", "shp-cli")):
        if not manifest.is_file():
            sys.exit(f"run.py: {manifest} is missing")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
        if package:
            cmd += ["-p", package]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: {' '.join(cmd)} failed")
    return target / "release" / "perfbench", target / "release" / "shp"


def source_rev():
    """The git revision, or a hash of the sources when the checkout is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            if "target" in f.relative_to(ROOT).parts:
                continue
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics():
    """Metric names BENCHMARK.json declares for trace 0 and trace 1 (None without the file)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}


def run_harness(harness, shp, target, workload, seed, seconds, trace, quick, rev):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = target / "perfbench-work" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(harness), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work), "--shp", str(shp), "--rev", rev]
    if quick:
        cmd.append("--quick")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        code, lines = out.returncode, out.stdout.splitlines()
    except subprocess.TimeoutExpired as err:
        code = 124
        lines = (err.stdout.decode() if isinstance(err.stdout, bytes) else err.stdout or "").splitlines()
        lines.append(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
    spans = work / "spans.jsonl"
    if spans.is_file():
        traces = target / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        shutil.move(str(spans), str(traces / f"{workload}-seed{seed}.spans.jsonl"))
    shutil.rmtree(work, ignore_errors=True)
    return code, lines


def validate(lines, trace, expected):
    """Problems with the result line, if any."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["the last line is not a JSON result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if expected is not None and set(result.get("metrics", {})) != expected[trace]:
        got = set(result.get("metrics", {}))
        problems.append(f"metrics missing {sorted(expected[trace] - got)}, extra {sorted(got - expected[trace])}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"checks: attempted {result.get('attempted')}, failed {result.get('failed')}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="run every workload briefly on small inputs")
    args = parser.parse_args()
    if not args.quick and not args.workload:
        parser.error("--workload is required unless --quick is given")

    target = target_dir()
    harness, shp = build(target)
    rev = source_rev()
    expected = expected_metrics()

    if not args.quick:
        code, lines = run_harness(harness, shp, target, args.workload, args.seed, args.seconds,
                                  args.trace, False, rev)
        problems = validate(lines, args.trace, expected) if code == 0 else []
        for problem in problems:
            print(f"run.py: {problem}", file=sys.stderr)
        print("\n".join(lines))
        sys.exit(code or (1 if problems else 0))

    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_harness(harness, shp, target, workload, args.seed, min(args.seconds, 2),
                                      trace, True, rev)
            print(f"== {workload} trace={trace} (exit {code})")
            print("\n".join(lines))
            problems = validate(lines, trace, expected) if code == 0 else [f"exit code {code}"]
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
    for failure in failures:
        print(f"FAILED {failure}")
    print("quick mode: " + ("all workloads passed" if not failures else f"{len(failures)} problems"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
