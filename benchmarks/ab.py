"""A/B perf gate: perfbench at a base commit against HEAD, run in pairs.

Usage (from anywhere inside the repository)::

    python3 benchmarks/ab.py BASE

``BASE`` is any commit-ish (a merge-base SHA, ``main``, ``HEAD~1``).  The
script checks ``BASE`` and ``HEAD`` out as two detached ``git worktree``s in
a temporary directory outside the checkout and runs each tree's own
``perfbench/run.py --workload W --seed 1 --seconds 5 --trace 1`` on
:data:`WORKLOADS`, :data:`PAIRS` pairs per workload.  The side that goes
first alternates from pair to pair (ABBA), so slow drift of the host lands
on both sides.  Uncommitted changes are not measured.

For every ``per_layer`` metric of ``BENCHMARK.json`` it prints the median of
each side and the median *paired* ratio, oriented so that a ratio above 1
is worse (``head / base`` for lower-is-better metrics, ``base / head`` for
higher-is-better ones).  It exits 1 when, on any workload:

* a seconds layer whose base median is at least :data:`MIN_GATED_S` gets
  worse by more than :data:`T`;
* a count layer (``*_calls``, ``parallel.pool_starts``, ``sparsifier.nnz``)
  goes up;
* head's runs fail more often than base's (``failed`` summed over the runs;
  a perfbench run that exits non-zero counts as one failure).

``host.*`` (bandwidth probe) and ``trace.overhead_s`` are reported but never
gated.  Exit status 2 means the script could not run (bad arguments, unknown
commit).  The script only reads ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("rmat17-default", "sbm17-sparsify")
PAIRS = 3
# Largest tolerated slowdown of a gated seconds layer (median paired ratio
# minus 1).  Three null invocations (HEAD against itself) on a shared
# 2-core host put single-pair ratios' IQR at 0.08-0.42 per layer and the
# gated statistic, the median of three pairs, between 0.88 and 1.145
# (sd 0.066), so a lower threshold would have failed an unchanged tree;
# 0.15 is the ceiling that keeps a 20% slowdown above it.  Even so, host
# bandwidth swings between adjacent runs (host.triad_gbps pair ratios
# 0.53-1.68) failed 3 of 4 further invocations on that host whose two
# sides had identical pipeline code (CHANGES.md).
T = 0.15
# Layers shorter than this (base median) are too noisy to gate on.
MIN_GATED_S = 0.5
UNGATED = ("host.", "trace.overhead_s")
RUN_ARGS = ("--seed", "1", "--seconds", "5", "--trace", "1")

Result = Dict[str, object]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, text=True,
        stdout=subprocess.PIPE,
    ).stdout.strip()


def run_perfbench(tree: Path, workload: str) -> Result:
    """One perfbench run in ``tree``; a crash counts as one failed run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *RUN_ARGS],
        cwd=tree, text=True, stdout=subprocess.PIPE,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"ab: perfbench exited {proc.returncode} in {tree}\n")
        return {"failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def _value(result: Result, name: str) -> Optional[float]:
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else float(entry["value"])


def _worse_ratio(base: float, head: float, better: str) -> Optional[float]:
    """``head`` relative to ``base``, above 1 when ``head`` is worse."""
    if base == head:
        return 1.0
    if base <= 0 or head <= 0:
        return None  # signed or zero values (overheads) have no ratio
    return head / base if better == "lower" else base / head


def _median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def compare(
    per_layer: Sequence[dict],
    base_runs: Sequence[Result],
    head_runs: Sequence[Result],
) -> Tuple[List[dict], List[str]]:
    """Rows of the comparison table and the gate's failure reasons.

    ``per_layer`` is ``BENCHMARK.json``'s metric list; ``base_runs[i]`` and
    ``head_runs[i]`` are the two perfbench results of pair ``i``.
    """
    rows: List[dict] = []
    failures: List[str] = []
    for spec in per_layer:
        name, better, unit = spec["name"], spec["better"], spec["unit"]
        base_values, head_values, ratios = [], [], []
        for base, head in zip(base_runs, head_runs):
            b, h = _value(base, name), _value(head, name)
            if b is None or h is None:
                continue
            base_values.append(b)
            head_values.append(h)
            ratio = _worse_ratio(b, h, better)
            if ratio is not None:
                ratios.append(ratio)
        base_med, head_med, ratio = (
            _median(base_values), _median(head_values), _median(ratios)
        )
        verdict = ""
        if ratio is not None and not name.startswith(UNGATED):
            if unit == "count":
                verdict = "FAIL" if ratio > 1.0 else "ok"
            elif unit == "s" and base_med >= MIN_GATED_S:
                verdict = "FAIL" if ratio - 1.0 > T else "ok"
        if verdict == "FAIL":
            failures.append(
                f"{name}: {base_med:.6g} -> {head_med:.6g} {unit} "
                f"(median paired ratio {ratio:.3f})"
            )
        rows.append({
            "metric": name, "base": base_med, "head": head_med,
            "ratio": ratio, "pairs": ratios, "verdict": verdict,
        })
    base_failed = sum(int(r.get("failed", 0)) for r in base_runs)
    head_failed = sum(int(r.get("failed", 0)) for r in head_runs)
    rows.append({
        "metric": "failed", "base": base_failed, "head": head_failed,
        "ratio": None, "pairs": [],
        "verdict": "FAIL" if head_failed > base_failed else "ok",
    })
    if head_failed > base_failed:
        failures.append(f"failed: {base_failed} -> {head_failed} runs")
    return rows, failures


def format_rows(title: str, rows: Sequence[dict]) -> str:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import format_table

    return f"=== {title} ===\n" + format_table([
        {**row, "pairs": " ".join(f"{r:.3f}" for r in row["pairs"])}
        for row in rows
    ])


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.stderr.write("usage: python3 benchmarks/ab.py BASE\n")
        return 2
    # Termination unwinds through the finally below, which drops the trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        revs = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
                for side, rev in (("base", argv[0]), ("head", "HEAD"))}
    except subprocess.CalledProcessError:
        sys.stderr.write(f"ab: {argv[0]!r} is not a commit\n")
        return 2
    per_layer = json.loads(SPEC.read_text())["per_layer"]
    sys.stderr.write(f"ab: base {revs['base'][:12]} head {revs['head'][:12]}\n")

    scratch = Path(tempfile.mkdtemp(prefix="lightne-ab-"))
    trees: Dict[str, Path] = {}
    failures: List[str] = []
    try:
        for side, rev in revs.items():
            trees[side] = scratch / side
            _git("worktree", "add", "--detach", str(trees[side]), rev)
        for workload in WORKLOADS:
            runs: Dict[str, List[Result]] = {"base": [], "head": []}
            for pair in range(PAIRS):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    sys.stderr.write(
                        f"ab: {workload} pair {pair + 1}/{PAIRS} {side}\n"
                    )
                    runs[side].append(run_perfbench(trees[side], workload))
            rows, failed = compare(per_layer, runs["base"], runs["head"])
            print(format_rows(workload, rows), flush=True)
            failures += [f"{workload} {reason}" for reason in failed]
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, check=False)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    for reason in failures:
        print(f"REGRESSION {reason}")
    print("ab: FAIL" if failures else "ab: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
