"""Workload definitions: input generation, pipeline parameters, quality.

Every workload derives all of its randomness from the benchmark seed, so the
same seed gives the same graph, held-out split, embedding seed and
evaluation sample.  The program under test only ever sees the generated
inputs.  ``toy=True`` shrinks each input to a few thousand vertices while
keeping the workload's code path (used by ``selftest.py``).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

# Embedding pool width for every workload (the reference host has 2 cores).
WORKERS = 2

# Share of R-MAT edges held out for link prediction.
HELDOUT_FRACTION = 0.01
# PBG protocol: each held-out edge is ranked against this many corrupted tails.
LP_NEGATIVES = 100
# Positives scored per evaluation chunk (bounds the gathered-negatives array).
LP_CHUNK = 1024
# Vertices in the fixed node-classification subsample, and its train share.
NC_SAMPLE = 8192
NC_TRAIN_RATIO = 0.5

# Quality floors: an embedding scoring below these is counted as failed.
# They sit far below what a correct embedding reaches and far above what an
# uninformative one does (random vectors give MRR ~0.05 with 100 negatives
# and micro-F1 ~0.1 with 20 labels).
QUALITY_FLOORS = {"mrr": 0.2, "micro_f1": 0.4}


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # "rmat" or "sbm"
    params: Dict[str, Any]
    quality: str  # "mrr" or "micro_f1"
    out_of_core: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rmat17-default", "rmat", {}, "mrr"),
        Workload(
            "sbm17-sparsify", "sbm",
            {"dimension": 32, "precision": "single"}, "micro_f1",
        ),
        Workload(
            "rmat17-outofcore", "rmat",
            {
                "backend": "process", "aggregator": "hash-sharded",
                "factorizer": "single_pass", "precision": "single",
            },
            "mrr", out_of_core=True,
        ),
    )
}


def derive_seed(seed: int, purpose: str) -> int:
    """A 32-bit seed for one purpose (graph, split, embed, eval) of a run."""
    words = [seed] + [ord(ch) for ch in purpose]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


@dataclass
class Inputs:
    """What one run embeds and how its result is scored."""

    graph: Any
    params: Any
    embed_seed: int
    eval_seed: int
    test_sources: Optional[np.ndarray] = None
    test_targets: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    eval_vertices: Optional[np.ndarray] = None
    container: Optional[str] = None
    info: Dict[str, float] = field(default_factory=dict)

    def close(self) -> None:
        """Drop the memmapped graph and delete its CSR v2 container."""
        self.graph = None
        if self.container is not None:
            shutil.rmtree(self.container, ignore_errors=True)
            self.container = None


def build_inputs(workload: Workload, seed: int, scratch: str, toy: bool = False) -> Inputs:
    """Generate the workload's input graph and evaluation data from ``seed``.

    For out-of-core workloads the training graph is written as a CSR v2
    container under ``scratch`` and reopened memmapped.
    """
    from repro.embedding.lightne import LightNEParams
    from repro.eval.link_prediction import train_test_split_edges
    from repro.graph.generators import dcsbm_graph, rmat_graph
    from repro.graph.io import load_csr, save_csr_v2

    graph_seed = derive_seed(seed, "graph")
    params = LightNEParams(workers=WORKERS, **workload.params)
    inputs = Inputs(
        graph=None, params=params,
        embed_seed=derive_seed(seed, "embed"),
        eval_seed=derive_seed(seed, "eval"),
    )
    if workload.graph == "rmat":
        full = rmat_graph(10 if toy else 17, 8, seed=graph_seed)
        graph, inputs.test_sources, inputs.test_targets = train_test_split_edges(
            full, HELDOUT_FRACTION, seed=derive_seed(seed, "split")
        )
        del full
    else:
        n = 2048 if toy else 131072
        graph, inputs.labels = dcsbm_graph(
            n, 20, avg_degree=16, mixing=0.3, labels_per_node=2,
            seed=graph_seed,
        )
        rng = np.random.default_rng(derive_seed(seed, "nc-sample"))
        inputs.eval_vertices = np.sort(
            rng.choice(n, size=min(NC_SAMPLE, n // 2), replace=False)
        )
    if workload.out_of_core:
        path = os.path.join(scratch, f"graph-{os.getpid()}.csrv2")
        inputs.container = save_csr_v2(graph, path)
        del graph
        graph = load_csr(inputs.container)
    inputs.graph = graph
    inputs.info = {"n": graph.num_vertices, "m": graph.num_edges}
    return inputs


def score(workload: Workload, inputs: Inputs, vectors: np.ndarray) -> float:
    """The workload's quality score for ``vectors`` (deterministic per seed)."""
    if workload.quality == "mrr":
        from repro.eval.link_prediction import evaluate_link_prediction

        # Cosine comparator: rows are L2-normalized before the dot product.
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors = vectors / np.where(norms > 0, norms, 1.0)
        # Chunked so the gathered negatives stay ~LP_CHUNK x 100 x d; MRR is
        # a mean over positives, so the chunk-size-weighted mean is exact.
        total, count = 0.0, 0
        for start in range(0, inputs.test_sources.size, LP_CHUNK):
            stop = min(start + LP_CHUNK, inputs.test_sources.size)
            result = evaluate_link_prediction(
                vectors, inputs.test_sources[start:stop],
                inputs.test_targets[start:stop], num_negatives=LP_NEGATIVES,
                seed=derive_seed(inputs.eval_seed, f"lp-{start}"),
            )
            total += result.mrr * (stop - start)
            count += stop - start
        return total / count
    from repro.eval.node_classification import evaluate_node_classification

    rows = inputs.eval_vertices
    result = evaluate_node_classification(
        vectors[rows], inputs.labels[rows], NC_TRAIN_RATIO, repeats=1,
        seed=inputs.eval_seed,
    )
    return result.micro_f1
