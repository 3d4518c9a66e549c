"""Temporal replay: timestamped edge batches scored per refresh epoch.

The paper's streaming discussion (§6) stops at "re-embed when stale"; this
module closes the loop into an evaluated temporal workload.  A timestamped
edge list is split chronologically into an initial graph plus ``epochs``
arrival batches (:func:`temporal_edge_stream`), and
:func:`replay_temporal_link_prediction` plays the batches through a
:class:`~repro.streaming.dynamic.DynamicEmbedder` with the *standard
temporal protocol*: each epoch's arriving edges are first scored as
link-prediction positives against the embedding trained on everything
earlier (:func:`repro.eval.link_prediction.evaluate_link_prediction`), then
applied and re-embedded.  When the run ledger is enabled every epoch appends
a :class:`~repro.telemetry.ledger.RunRecord` carrying the scores in its
``quality`` field, so temporal quality trajectories live next to the static
runs in the same JSONL.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.eval.link_prediction import evaluate_link_prediction
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.streaming.dynamic import DynamicEmbedder, RefreshPolicy
from repro.streaming.stream import EdgeBatch
from repro.utils.rng import derive_seed


def temporal_edge_stream(
    sources: np.ndarray,
    targets: np.ndarray,
    timestamps: np.ndarray,
    *,
    epochs: int = 4,
    initial_fraction: float = 0.5,
    num_vertices: Optional[int] = None,
) -> Tuple[CSRGraph, List[EdgeBatch]]:
    """Split a timestamped edge list chronologically.

    The earliest ``initial_fraction`` of edges (stable-sorted by timestamp,
    ties in input order) become the initial graph; the remainder is cut into
    ``epochs`` contiguous arrival batches.  Returns
    ``(initial_graph, [EdgeBatch, ...])``.
    """
    src = np.asarray(sources, dtype=np.int64).ravel()
    dst = np.asarray(targets, dtype=np.int64).ravel()
    ts = np.asarray(timestamps).ravel()
    if not (src.shape == dst.shape == ts.shape):
        raise GraphConstructionError(
            "sources, targets and timestamps must be parallel arrays"
        )
    if not 0.0 < initial_fraction < 1.0:
        raise GraphConstructionError(
            f"initial_fraction must be in (0, 1), got {initial_fraction}"
        )
    if epochs < 1:
        raise GraphConstructionError(f"epochs must be >= 1, got {epochs}")
    if src.size < epochs + 1:
        raise GraphConstructionError("too few timestamped edges to replay")

    order = np.argsort(ts, kind="stable")
    src, dst = src[order], dst[order]
    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max()) + 1)
    initial_count = max(1, int(round(initial_fraction * src.size)))
    initial_count = min(initial_count, src.size - epochs)
    initial = from_edges(
        src[:initial_count], dst[:initial_count],
        num_vertices=num_vertices, symmetrize=True,
    )
    batches = [
        EdgeBatch(add_sources=chunk_src.copy(), add_targets=chunk_dst.copy())
        for chunk_src, chunk_dst in zip(
            np.array_split(src[initial_count:], epochs),
            np.array_split(dst[initial_count:], epochs),
        )
    ]
    return initial, batches


def replay_temporal_link_prediction(
    sources: np.ndarray,
    targets: np.ndarray,
    timestamps: np.ndarray,
    *,
    method: str = "lightne",
    params: Optional[object] = None,
    epochs: int = 4,
    initial_fraction: float = 0.5,
    num_negatives: int = 50,
    num_vertices: Optional[int] = None,
    policy: Optional[RefreshPolicy] = None,
    seed: Optional[int] = 0,
) -> List[Dict[str, object]]:
    """Replay timestamped edges; score each epoch before absorbing it.

    For epoch ``k`` with arriving edges ``E_k``: rank every edge of ``E_k``
    against ``num_negatives`` corrupted tails using the *current* embedding
    (trained on strictly earlier edges — predicting the future), then apply
    the batch to the :class:`DynamicEmbedder` (full ``params`` forwarded,
    sparsifier backend included) and let the refresh policy re-embed.

    Returns one row per epoch (``epoch``, ``edges``, ``MRR``, ``HITS@10``,
    ``refreshed``, ``drift``).  When the run ledger is enabled
    (:func:`repro.telemetry.ledger.enabled_scope` / ``--observe``), each
    epoch's scores are appended as the ``quality`` field of a RunRecord with
    context ``"temporal.epoch<k>"``.
    """
    from repro.telemetry import ledger

    initial, batches = temporal_edge_stream(
        sources, targets, timestamps,
        epochs=epochs, initial_fraction=initial_fraction,
        num_vertices=num_vertices,
    )
    embedder = DynamicEmbedder(
        initial, params, method=method, policy=policy, seed=seed
    )
    rows: List[Dict[str, object]] = []
    for k, batch in enumerate(batches):
        metrics = evaluate_link_prediction(
            embedder.vectors, batch.add_sources, batch.add_targets,
            num_negatives=num_negatives, ks=(1, 10),
            seed=derive_seed(seed, 1000 + k) if seed is not None else None,
        )
        refreshed = embedder.apply(batch)
        row: Dict[str, object] = {
            "epoch": k,
            "edges": batch.num_additions,
            "MRR": round(metrics.mrr, 4),
            "HITS@10": round(metrics.hits[10], 4),
            "refreshed": bool(refreshed),
            "drift": round(embedder.drift_history[-1], 4)
            if refreshed and embedder.drift_history else None,
        }
        rows.append(row)
        if ledger.is_enabled():
            ledger.record_result(
                embedder.result,
                seed=seed,
                context=f"temporal.epoch{k}",
                quality={
                    "mrr": float(metrics.mrr),
                    "hits@10": float(metrics.hits[10]),
                    "mean_rank": float(metrics.mean_rank),
                },
                extra={"epoch": k, "epoch_edges": int(batch.num_additions)},
            )
    return rows
