"""Reusable experiment runners behind the paper-table benchmarks.

Each runner loads a registered dataset analog (or accepts a prepared
graph/labels pair), runs one or more embedding methods, evaluates with the
paper's protocol, and returns plain list-of-dict rows that
:func:`format_table` renders as aligned text — the same rows the
``benchmarks/bench_e*.py`` files assert on and print.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.datasets import LabeledGraph, load_dataset
from repro.embedding.base import EmbeddingResult
from repro.embedding.registry import canonical_name, run_method
from repro.errors import EvaluationError
from repro.eval import evaluate_node_classification
from repro.systems.cost import SYSTEM_INSTANCE, estimate_cost

DEFAULT_SEED = 2021

Row = Dict[str, object]


def dispatch_method(
    method: str,
    graph,
    *,
    dimension: int = 32,
    window: int = 5,
    multiplier: float = 1.0,
    propagate: bool = True,
    downsample: bool = True,
    workers: Optional[int] = None,
    precision: Optional[str] = None,
    sparsifier: Optional[str] = None,
    factorizer: Optional[str] = None,
    seed: int = DEFAULT_SEED,
) -> EmbeddingResult:
    """Run one named method with the harness-level knobs.

    Any name or alias in :mod:`repro.embedding.registry` is accepted (the
    paper tables' spellings ``prone+`` and ``graphvite`` are registered
    aliases).  The knob set is shared across methods, so knobs a method does
    not support are dropped (``strict=False``); unknown method names raise
    :class:`repro.errors.UnknownMethodError`.  ``sparsifier`` selects the
    count-matrix backend (``"path"``/``"ppr"``) on the methods that expose
    it (lightne, sketchne, netsmf); ``factorizer`` the factorization backend
    (``"rsvd"``/``"single_pass"``) on the methods that call the shared
    factorize dispatcher.
    """
    return run_method(
        method,
        graph,
        seed=seed,
        strict=False,
        dimension=dimension,
        window=window,
        multiplier=multiplier,
        propagate=propagate,
        downsample=downsample,
        workers=workers,
        precision=precision,
        sparsifier=sparsifier,
        factorizer=factorizer,
    )


def _resolve(dataset: Union[str, LabeledGraph], seed: int) -> LabeledGraph:
    from repro.telemetry import ledger

    if isinstance(dataset, LabeledGraph):
        ledger.set_dataset(dataset.name)
        return dataset
    bundle = load_dataset(dataset, seed=seed)
    ledger.set_dataset(bundle.name)
    return bundle


def _cost(method: str, seconds: float) -> float:
    key = method.lower()
    if key not in SYSTEM_INSTANCE:
        key = canonical_name(method)
    return round(estimate_cost(key, seconds), 6)


def run_method_comparison(
    dataset: Union[str, LabeledGraph],
    methods: Sequence[str],
    *,
    ratios: Sequence[float] = (0.1,),
    dimension: int = 32,
    window: int = 5,
    multiplier: float = 1.0,
    repeats: int = 2,
    workers: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> List[Row]:
    """Node-classification comparison (the Table 4 / Figure 4 shape).

    One row per method: time, cost, and Micro-F1 (percent) per ratio.
    """
    bundle = _resolve(dataset, seed)
    if bundle.labels is None:
        raise EvaluationError(f"dataset {bundle.name!r} has no labels")
    rows: List[Row] = []
    for method in methods:
        result = dispatch_method(
            method, bundle.graph, dimension=dimension, window=window,
            multiplier=multiplier, workers=workers, seed=seed,
        )
        row: Row = {
            "method": method,
            "time_s": round(result.total_seconds, 3),
            "cost_$": _cost(method, result.total_seconds),
        }
        for ratio in ratios:
            score = evaluate_node_classification(
                result.vectors, bundle.labels, ratio, repeats=repeats, seed=seed
            )
            row[f"micro@{ratio:g}"] = round(100 * score.micro_f1, 2)
            row[f"macro@{ratio:g}"] = round(100 * score.macro_f1, 2)
        rows.append(row)
    return rows


def format_table(rows: Sequence[Row]) -> str:
    """Render rows as an aligned text table (column order from row 0)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())

    def fmt(value) -> str:
        if value is None:
            return "NA"
        if isinstance(value, (float, np.floating)):
            return f"{value:.4g}"
        return str(value)

    widths = {c: max(len(str(c)), *(len(fmt(r.get(c))) for r in rows)) for c in columns}
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    rule = "-" * len(header)
    body = "\n".join(
        "  ".join(fmt(r.get(c)).ljust(widths[c]) for c in columns) for r in rows
    )
    return f"{header}\n{rule}\n{body}"
