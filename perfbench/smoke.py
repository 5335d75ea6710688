"""Smoke test of the benchmark itself, at the smallest budget.

    python3 perfbench/smoke.py

1. Runs every workload with ``--seconds 0`` (set-up, the checked pass and
   one timed pass), untraced and traced, and requires the last stdout
   line to name every metric of BENCHMARK.json with its unit, each also
   printed as a ``name = value unit`` line, and no failed operation.
2. Runs one search command in process with ``bellgap.io.write_json``
   flipping the report's r to 2 - r, and requires the benchmark to count
   that run as a failure (and the same command, unflipped, as a success).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_printed_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr.strip()}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} missing or extra")
            for name, unit in want.items():
                entry = got.get(name, {})
                value = entry.get("value")
                if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} reported as {entry!r}, unit {unit}")
                elif not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
                    problems.append(f"{where}: no '{name} = ... {unit}' line printed")
            print(f"{where}: {len(got)} metrics, {result['attempted']} operations")
    return problems


def check_flipped_report() -> list[str]:
    bellgap = run.import_bellgap()
    import workloads

    work = run.WORK_DIR / f"smoke-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    original = bellgap.io.write_json

    def flip_r(path, payload):
        if payload.get("kind") == "report":
            for block in payload["functionals"]:
                block["r"] = 2.0 - block["r"]
        original(path, payload)

    try:
        ops = workloads.search_chsh(work, 1)
        fastest = len(ops) - 1
        control = run.Runner(ops)
        control.run(fastest, bellgap.cli.main)
        corrupted = run.Runner(ops)
        bellgap.io.write_json = flip_r
        try:
            corrupted.run(fastest, bellgap.cli.main)
        finally:
            bellgap.io.write_json = original
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    if control.failed != 0:
        problems.append("an intact report was counted as a failure")
    if corrupted.failed != 1:
        problems.append("a report with a flipped r was not counted as a failure")
    print(f"flipped r: {corrupted.failed} of {corrupted.attempted} counted as failed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_printed_metrics(spec) + check_flipped_report()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
