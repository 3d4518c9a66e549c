"""Toy-scale self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` through ``run.py --toy`` (the same
code paths on graphs of about a thousand vertices), untraced and traced, and
checks that each run reports exactly the metrics ``BENCHMARK.json`` names,
with their units, and no failures.  Takes about a minute::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(workload: str, trace: int) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=600,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct\n{proc.stderr[-2000:]}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    if set(emitted) != set(expected):
        problems.append(
            f"{where}: missing {sorted(set(expected) - set(emitted))}, "
            f"unexpected {sorted(set(emitted) - set(expected))}"
        )
    for name, unit in expected.items():
        got = emitted.get(name)
        if got is None:
            continue
        if got["unit"] != unit:
            problems.append(f"{where}: {name} unit {got['unit']!r}, expected {unit!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{where}: {name} value {got['value']!r}")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
