#!/usr/bin/env python3
"""Benchmark entry point: builds the harness, runs one workload, checks it.

    python3 perfbench/run.py --workload serve_hot --seed 7 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The harness is built from source into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench) on first use; scratch files and the full
result record go to .perfbench_out/. Every metric is printed by name with
its unit and sample count, then the output checks, and the last stdout line
is the one-line JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (the harness also writes a Chrome trace, which is fed to
lamo_trace_summary as a check that it is readable). The workloads are
serve_hot and serve_churn (README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build(build_dir):
    """Configures (once) and builds the harness into `build_dir`."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} not found: run from a full checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        command = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    result = subprocess.run(
        ["cmake", "--build", str(build_dir), "--parallel", "4"],
        stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the library sources and this benchmark: the code identity
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    files.append(ROOT / "tools" / "lamo_trace_summary.cc")
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def trace_summary_check(build_dir, trace_file):
    """The traced run's Chrome trace must parse with lamo_trace_summary."""
    result = subprocess.run(
        [str(build_dir / "lamo_trace_summary"), trace_file, "--top", "12"],
        capture_output=True, text=True)
    first = result.stdout.splitlines()[0] if result.stdout else ""
    print(result.stdout, end="")
    return {"name": "trace_summary_readable",
            "ok": result.returncode == 0 and first.startswith("trace: "),
            "detail": first or result.stderr.strip()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    started = time.monotonic()
    build(build_dir)
    build_s = time.monotonic() - started

    work = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = subprocess.run(
            [str(build_dir / "perfbench_harness"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"harness exited with {result.returncode}")
    record = json.loads(lines[-1])
    for name in ("dataset.graph.txt", "dataset.obo", "dataset.annotations.tsv"):
        (work / name).unlink(missing_ok=True)

    record["descriptor"].update(
        commit=commit(), source_digest=source_digest(), seed=args.seed,
        workload=args.workload, build_s=round(build_s, 3))
    if args.trace:
        record["checks"].append(
            trace_summary_check(build_dir, record["trace_file"]))
    section = "per_layer" if args.trace else "end_to_end"
    measured = record[section]
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in measured:
            fail(f"harness did not report {name}")
        if measured[name]["unit"] != metric["unit"]:
            fail(f"{name}: unit {measured[name]['unit']} != {metric['unit']}")
        metrics[name] = {"value": measured[name]["value"],
                         "unit": metric["unit"]}

    print(f"run: {json.dumps(record['descriptor'], sort_keys=True)}")
    for check in record["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"check {status} {check['name']}: {check['detail']}")
    for kind in ("end_to_end", "per_layer"):
        for name, metric in sorted(record[kind].items()):
            samples = metric.get("samples")
            suffix = f"  (n={samples})" if samples else ""
            print(f"{kind:10} {name:36} {metric['value']:>16.6g} "
                  f"{metric['unit']}{suffix}")
    print(f"operations: attempted {record['attempted']}, "
          f"failed {record['failed']}")
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = all(check["ok"] for check in record["checks"])
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
