"""E16 — parallel single-precision kernel layer: SPMM scaling + dtype sweep.

The PR's tentpole: the dense stages (randomized SVD, spectral propagation)
now dispatch through :mod:`repro.linalg.kernels` — a threaded row-blocked
SPMM plus a ``precision`` dtype policy mirroring the paper's single-precision
MKL routines.  Three benchmarks:

* **SPMM thread scaling** — a ~2M-nnz operator times a 64-column block,
  workers ∈ {1, 2, 4, 8}.  Output is asserted bit-identical to scipy's
  serial product at every width; the ≥2× speedup-at-8-workers check fires
  only on machines that actually have 8 cores.
* **Propagation thread scaling** — the full Chebyshev filter over the same
  worker sweep, bit-identity asserted.
* **Single-vs-double sweep** — the factorize + propagate path of ProNE at
  both precisions: tracemalloc peak memory (single must cut the double
  path's peak by ≥1.5×) and node-classification quality (micro-F1 within
  0.05 of the float64 run).

Timings use ``time.perf_counter`` directly (best of ``REPEATS``).
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from benchmarks.harness import SEED, load
from repro.embedding.prone import prone_factorization_matrix
from repro.eval.node_classification import evaluate_node_classification
from repro.linalg.kernels import spmm
from repro.linalg.randomized_svd import embedding_from_svd, randomized_svd
from repro.linalg.spectral import chebyshev_gaussian_filter, spectral_propagation

WORKER_SWEEP = (1, 2, 4, 8)
REPEATS = 3
DIMENSION = 128

def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def big_operator():
    """A ~2M-nnz square CSR operator (large enough to amortize pool setup)."""
    rng = np.random.default_rng(SEED)
    n, nnz = 100_000, 2_000_000
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()
    return matrix


@pytest.fixture(scope="module")
def bundle():
    return load("livejournal_like")


def test_e16_spmm_thread_scaling(big_operator, table):
    rng = np.random.default_rng(SEED + 1)
    dense = rng.standard_normal((big_operator.shape[1], 64))
    expected = big_operator @ dense
    out = np.empty_like(expected)

    rows = []
    timings = {}
    for workers in WORKER_SWEEP:
        result = spmm(big_operator, dense, out=out, workers=workers)
        np.testing.assert_array_equal(result, expected)  # bit parity, every width
        timings[workers] = _best_of(
            lambda w=workers: spmm(big_operator, dense, out=out, workers=w)
        )
    for workers in WORKER_SWEEP:
        rows.append(
            {
                "workers": workers,
                "seconds": round(timings[workers], 4),
                "gflops": round(
                    2.0 * big_operator.nnz * dense.shape[1]
                    / timings[workers] / 1e9, 2,
                ),
                "speedup": round(timings[1] / timings[workers], 2),
            }
        )
    table(
        "E16 — threaded SPMM (2M nnz x 64 cols) vs worker count; "
        "bit-identical to scipy at every width",
        rows,
    )

    cores = os.cpu_count() or 1
    if cores >= 8:
        eight = next(r for r in rows if r["workers"] == 8)
        assert eight["speedup"] >= 2.0, (
            f"expected >=2x SPMM speedup at 8 workers on a {cores}-core "
            f"machine, got {eight['speedup']}x"
        )


def test_e16_propagation_thread_scaling(bundle, table):
    graph = bundle.graph
    rng = np.random.default_rng(SEED + 2)
    embedding = rng.standard_normal((graph.num_vertices, DIMENSION))

    baseline = chebyshev_gaussian_filter(graph, embedding, order=10, workers=1)
    rows = []
    for workers in WORKER_SWEEP:
        result = chebyshev_gaussian_filter(
            graph, embedding, order=10, workers=workers
        )
        np.testing.assert_array_equal(result, baseline)
        seconds = _best_of(
            lambda w=workers: chebyshev_gaussian_filter(
                graph, embedding, order=10, workers=w
            )
        )
        rows.append({"workers": workers, "seconds": round(seconds, 4)})
    for row in rows:
        row["speedup"] = round(rows[0]["seconds"] / row["seconds"], 2)
    table(
        "E16 — Chebyshev propagation (order 10, d=128) vs worker count; "
        "bit-identical at every width",
        rows,
    )


def _factorize_and_propagate(graph, matrix, precision):
    u, sigma, _ = randomized_svd(
        matrix, DIMENSION, seed=SEED, precision=precision
    )
    vectors = embedding_from_svd(u, sigma)
    return spectral_propagation(graph, vectors, order=10, precision=precision)


def test_e16_precision_sweep(bundle, table):
    graph, labels = bundle.graph, bundle.labels
    matrix = prone_factorization_matrix(graph)

    rows = []
    results = {}
    for precision in ("double", "single"):
        tracemalloc.start()
        start = time.perf_counter()
        vectors = _factorize_and_propagate(graph, matrix, precision)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        score = evaluate_node_classification(
            vectors.astype(np.float64), labels, 0.1, repeats=2, seed=SEED
        )
        results[precision] = {
            "vectors": vectors,
            "peak": peak,
            "micro_f1": score.micro_f1,
        }
        rows.append(
            {
                "precision": precision,
                "dtype": str(vectors.dtype),
                "seconds": round(seconds, 3),
                "peak_mib": round(peak / (1 << 20), 1),
                "micro@0.1": round(100 * score.micro_f1, 2),
            }
        )
    ratio = results["double"]["peak"] / max(results["single"]["peak"], 1)
    for row in rows:
        row["peak_ratio"] = round(results["double"]["peak"] / results[row["precision"]]["peak"], 2)
    table(
        "E16 — factorize + propagate (ProNE matrix, d=128) single vs double: "
        f"peak-memory ratio {ratio:.2f}x",
        rows,
    )

    assert results["single"]["vectors"].dtype == np.float32
    assert ratio >= 1.5, (
        f"expected float32 to cut factorize+propagate peak memory by >=1.5x, "
        f"got {ratio:.2f}x"
    )
    assert results["single"]["micro_f1"] >= results["double"]["micro_f1"] - 0.05, (
        "float32 quality fell more than 0.05 micro-F1 below float64: "
        f"{results['single']['micro_f1']:.4f} vs {results['double']['micro_f1']:.4f}"
    )
