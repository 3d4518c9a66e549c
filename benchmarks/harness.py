"""Shared helpers for the experiment benchmarks (E1–E12).

Keeps each ``bench_e*.py`` down to the experiment logic: load the dataset
analog, run the method, evaluate with the paper's protocol, report a table.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datasets import load_dataset
from repro.embedding.base import EmbeddingResult
from repro.eval import (
    evaluate_link_prediction,
    evaluate_node_classification,
    link_prediction_auc,
    train_test_split_edges,
)
from repro.systems.cost import estimate_cost

SEED = 2021  # the year of the paper; fixed everywhere for comparability


def embed(method: str, graph, *, dimension=32, window=5, multiplier=1.0, seed=SEED,
          propagate=True, downsample=True, workers=None,
          precision=None, sparsifier=None, factorizer=None) -> EmbeddingResult:
    """Uniform dispatch used by the cross-method benchmarks.

    Thin wrapper over :func:`repro.experiments.runner.dispatch_method` (which
    resolves ``method`` through :mod:`repro.embedding.registry`) so the
    benchmarks and the library's programmatic experiment API stay in sync.
    """
    from repro.experiments.runner import dispatch_method

    return dispatch_method(
        method, graph, dimension=dimension, window=window,
        multiplier=multiplier, propagate=propagate, downsample=downsample,
        workers=workers, precision=precision, sparsifier=sparsifier,
        factorizer=factorizer, seed=seed,
    )


def classification_row(
    vectors: np.ndarray,
    labels: np.ndarray,
    ratios: Sequence[float],
    *,
    repeats: int = 2,
    seed: int = SEED,
) -> Dict[str, float]:
    """Micro-F1 (percent) at each training ratio, keyed ``micro@<ratio>``."""
    row: Dict[str, float] = {}
    for ratio in ratios:
        result = evaluate_node_classification(
            vectors, labels, ratio, repeats=repeats, seed=seed
        )
        row[f"micro@{ratio:g}"] = round(100 * result.micro_f1, 2)
    return row


def macro_row(
    vectors: np.ndarray,
    labels: np.ndarray,
    ratios: Sequence[float],
    *,
    repeats: int = 2,
    seed: int = SEED,
) -> Dict[str, float]:
    """Macro-F1 (percent) at each training ratio, keyed ``macro@<ratio>``."""
    row: Dict[str, float] = {}
    for ratio in ratios:
        result = evaluate_node_classification(
            vectors, labels, ratio, repeats=repeats, seed=seed
        )
        row[f"macro@{ratio:g}"] = round(100 * result.macro_f1, 2)
    return row


def link_prediction_rows(
    graph,
    methods: Sequence[str],
    *,
    dimension=32,
    window=5,
    multiplier=2.0,
    test_fraction=0.02,
    num_negatives=100,
    seed: int = SEED,
) -> List[Dict[str, object]]:
    """PBG-protocol comparison rows: time, cost, MR, MRR, HITS@10 per method."""
    train, pos_u, pos_v = train_test_split_edges(graph, test_fraction, seed=seed)
    rows = []
    for method in methods:
        result = embed(
            method, train, dimension=dimension, window=window, multiplier=multiplier
        )
        metrics = evaluate_link_prediction(
            result.vectors, pos_u, pos_v, num_negatives=num_negatives,
            ks=(1, 10, 50), seed=seed,
        )
        rows.append(
            {
                "method": method,
                "time_s": round(result.total_seconds, 3),
                "cost_$": cost_of(method, result.total_seconds),
                "MR": round(metrics.mean_rank, 2),
                "MRR": round(metrics.mrr, 3),
                "HITS@10": round(metrics.hits[10], 3),
            }
        )
    return rows


def auc_row(graph, method: str, *, dimension=32, window=5, multiplier=2.0,
            seed: int = SEED) -> Dict[str, object]:
    """GraphVite protocol: held-out AUC plus time/cost for one method."""
    train, pos_u, pos_v = train_test_split_edges(graph, 0.02, seed=seed)
    result = embed(method, train, dimension=dimension, window=window,
                   multiplier=multiplier)
    auc = link_prediction_auc(result.vectors, train, pos_u, pos_v, seed=seed)
    return {
        "method": method,
        "time_s": round(result.total_seconds, 3),
        "cost_$": cost_of(method, result.total_seconds),
        "AUC": round(100 * auc, 2),
    }


def cost_of(method: str, seconds: float) -> float:
    """Azure-pricing cost (Table 2 methodology), rounded for tables.

    ``SYSTEM_INSTANCE`` covers every registry name and alias, so no name
    remapping is needed here anymore.
    """
    return round(estimate_cost(method, seconds), 6)


def load(name: str):
    """Dataset loader with the harness-wide seed."""
    return load_dataset(name, seed=SEED)


def run_probe(script: str, *, env: Optional[Dict[str, str]] = None) -> Dict:
    """Run ``script`` in a fresh interpreter and parse its last JSON line.

    Memory benchmarks need fresh processes: RSS / VmData high-water marks
    never shrink, so comparing two configurations inside one process would
    let the first run's peak mask the second's.  The child is expected to
    ``print(json.dumps(...))`` as its final stdout line.
    """
    import json
    import subprocess
    import sys

    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = src_dir + os.pathsep + child_env.get("PYTHONPATH", "")
    if env:
        child_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=child_env, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"probe subprocess failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])

