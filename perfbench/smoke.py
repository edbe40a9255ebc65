"""Smoke test of the benchmark; run from the repository root:

    python3 perfbench/smoke.py

Runs a tiny version of every workload in ``BENCHMARK.json``, untraced and
traced, and checks that each run prints every named metric with its unit and
fails no op.  Then checks that the benchmark exits with an error, printing no
result, in a directory holding only ``BENCHMARK.json`` and the benchmark's
own files.  Exits 1 on the first problem.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def bench(spec: dict, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *spec["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = bench(spec, [*args, "--tiny"], ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        counts = {k: result[k] for k in ("correct", "attempted", "failed")}
        problems.append(f"{where}: {counts}: {proc.stderr.strip()}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in named}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for m in named:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} reported as {got}")
        if printed.get(m["name"]) != m["unit"]:
            problems.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
        if not trace and not got.get("value"):
            problems.append(f"{where}: end-to-end metric {m['name']} is 0")
    if printed.get("error_rate") != "ratio":
        problems.append(f"{where}: error_rate not printed")
    if not any(line.startswith("provenance ") for line in lines):
        problems.append(f"{where}: no provenance line")
    return problems


def check_without_sources(spec: dict) -> list[str]:
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = bench(spec, args, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def report(label: str, problems: list[str]) -> bool:
    for p in problems:
        print(f"FAIL {p}")
    if not problems:
        print(f"ok {label}")
    return not problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            if not report(f"{workload} --trace {trace}", check_run(spec, workload, trace)):
                return 1
    without = check_without_sources(spec)
    return 0 if report("refuses to run without the package sources", without) else 1


if __name__ == "__main__":
    sys.exit(main())
