"""Verdict logic of the A/B perf gate (``benchmarks/ab.py``).

Canned perfbench results go straight into :func:`compare`; no worktree is
checked out and no benchmark runs.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab_gate", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PER_LAYER = json.loads(ab.SPEC.read_text())["per_layer"]

# Base values: every seconds layer at 1 s except the short ones below.
SHORT = {"embedding.unattributed_s": 0.02, "linalg.factorize_self_s": 0.3}


def result(failed=0, **changes):
    """One perfbench result; ``changes`` maps ``a__b`` to ``a.b`` values."""
    metrics = {}
    for spec in PER_LAYER:
        name, unit = spec["name"], spec["unit"]
        value = {"count": 6.0, "s": SHORT.get(name, 1.0)}.get(unit, 2.0)
        metrics[name] = {"value": value, "unit": unit}
    for key, value in changes.items():
        metrics[key.replace("__", ".")]["value"] = value
    return {"correct": failed == 0, "attempted": 1, "failed": failed,
            "metrics": metrics}


def gate(head, base=None):
    base = base or result()
    rows, failures = ab.compare(PER_LAYER, [base] * ab.PAIRS, [head] * ab.PAIRS)
    return {row["metric"]: row for row in rows}, failures


def test_threshold_lets_a_20_percent_slowdown_fail():
    assert 0 < ab.T <= 0.15


def test_identical_runs_pass():
    rows, failures = gate(result())
    assert failures == []
    assert rows["spectral.chebyshev_s"]["ratio"] == 1.0
    assert rows["spectral.chebyshev_s"]["verdict"] == "ok"


def test_slow_long_layer_fails_and_is_named():
    rows, failures = gate(result(spectral__chebyshev_s=1.3))
    assert len(failures) == 1
    assert failures[0].startswith("spectral.chebyshev_s")
    assert rows["spectral.chebyshev_s"]["ratio"] == pytest.approx(1.3)
    assert rows["spectral.chebyshev_s"]["verdict"] == "FAIL"


def test_slow_short_layer_is_reported_not_gated():
    rows, failures = gate(result(linalg__factorize_self_s=0.6,
                                 embedding__unattributed_s=0.04))
    assert failures == []
    assert rows["linalg.factorize_self_s"]["ratio"] == pytest.approx(2.0)
    assert rows["linalg.factorize_self_s"]["verdict"] == ""
    assert rows["embedding.unattributed_s"]["verdict"] == ""


def test_host_and_trace_overhead_are_never_gated():
    rows, failures = gate(result(host__triad_gbps=0.5,
                                 trace__overhead_s=-3.0),
                          base=result(trace__overhead_s=2.0))
    assert failures == []
    assert rows["host.triad_gbps"]["ratio"] == pytest.approx(4.0)
    assert rows["host.triad_gbps"]["verdict"] == ""
    assert rows["trace.overhead_s"]["ratio"] is None  # signed: no ratio
    assert rows["trace.overhead_s"]["head"] == -3.0


def test_one_more_spmm_call_fails():
    rows, failures = gate(result(linalg__spmm_calls=7.0))
    assert [f.split(":")[0] for f in failures] == ["linalg.spmm_calls"]
    assert rows["linalg.spmm_calls"]["verdict"] == "FAIL"


def test_fewer_calls_pass():
    _, failures = gate(result(linalg__spmm_calls=5.0, sparsifier__nnz=5.0))
    assert failures == []


def test_one_more_failure_fails():
    rows, failures = gate(result(failed=1))
    assert failures == [f"failed: 0 -> {ab.PAIRS} runs"]
    assert rows["failed"]["verdict"] == "FAIL"
    _, failures = gate(result(), base=result(failed=1))
    assert failures == []


def test_higher_is_better_metric_is_oriented():
    rows, failures = gate(result(linalg__spmm_gbps=1.0))  # base 2.0 GB/s
    assert rows["linalg.spmm_gbps"]["ratio"] == pytest.approx(2.0)
    rows, _ = gate(result(linalg__spmm_gbps=4.0))
    assert rows["linalg.spmm_gbps"]["ratio"] == pytest.approx(0.5)
    assert failures == []  # throughputs are reported, not gated


def test_median_of_pairs_ignores_one_outlier():
    base = result()
    heads = [result(), result(spectral__chebyshev_s=1.5), result()]
    rows, failures = ab.compare(PER_LAYER, [base] * 3, heads)
    assert failures == []
    assert rows[[r["metric"] for r in rows].index("spectral.chebyshev_s")][
        "pairs"
    ] == pytest.approx([1.0, 1.5, 1.0])


def test_crashed_run_counts_as_failure_and_has_no_values():
    rows, failures = ab.compare(
        PER_LAYER, [result()] * 3,
        [result(), {"failed": 1, "metrics": {}}, result()],
    )
    assert failures == ["failed: 0 -> 1 runs"]
    assert {row["metric"]: row for row in rows}["linalg.spmm_s"]["pairs"] == [
        1.0, 1.0,
    ]


def test_usage_error_without_exactly_one_base(capsys):
    assert ab.main([]) == 2
    assert ab.main(["HEAD", "extra"]) == 2
    assert ab.main(["--help"]) == 2
    assert "usage" in capsys.readouterr().err
