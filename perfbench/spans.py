"""Outside-in layer tracing: forwarding wrappers at each layer boundary.

:class:`Tracer` replaces each boundary function with a wrapper that forwards
its arguments unchanged and records a span (name, start, end, parent span)
plus a few counts read from the arguments and the result.  Each thread keeps
its own span stack, so a span's parent is the innermost open span of the
thread that made the call.  Callers
bind these functions with ``from module import name``, so the wrapper is
installed under every name in every loaded ``repro`` module that refers to
the original object.  Modules are fetched with :func:`importlib.import_module`
because some package attributes shadow their submodule (``repro.linalg.
randomized_svd`` is a function there).  Spans stay in memory; the per-layer
metrics are computed from them after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


def _kernel_bytes(args, kwargs, result) -> Dict[str, float]:
    """Computed bytes of a sparse x dense product: operator, operand, output."""
    matrix, dense = args[0], args[1]
    moved = sum(
        getattr(getattr(matrix, part, None), "nbytes", 0)
        for part in ("data", "indices", "indptr")
    ) or getattr(matrix, "nbytes", 0)
    return {"bytes": float(moved + dense.nbytes + result.nbytes)}


def _sample_counts(args, kwargs, result) -> Dict[str, float]:
    return {"samples": float(result[0].size)}


def _aggregate_counts(args, kwargs, result) -> Dict[str, float]:
    return {"inserts": float(args[0].size), "distinct": float(result[0].size)}


def _sparsifier_counts(args, kwargs, result) -> Dict[str, float]:
    return {
        "nnz": float(result.counts.nnz),
        "mass": float(result.stats["total_mass"]),
        "draws": float(result.num_draws),
    }


# (module, attribute, span name, counts read from the call).
BOUNDARIES = (
    ("repro.sparsifier.backends", "build_sparsifier", "sparsifier.build", _sparsifier_counts),
    ("repro.sparsifier.builder", "sample_sparsifier_edges", "sparsifier.sample", _sample_counts),
    ("repro.sparsifier.builder", "aggregate_sample_counts", "sparsifier.aggregate", _aggregate_counts),
    ("repro.sparsifier.builder", "sparsifier_to_netmf_matrix", "sparsifier.netmf_matrix", None),
    ("repro.linalg.single_pass", "factorize", "linalg.factorize", None),
    ("repro.linalg.kernels", "spmm", "kernel.spmm", _kernel_bytes),
    ("repro.linalg.kernels", "spmm_chunked", "kernel.spmm", _kernel_bytes),
    ("repro.linalg.kernels", "orthonormalize", "linalg.orthonormalize", None),
    ("repro.linalg.sketch", "sparse_sign_sketch", "linalg.sketch", None),
    ("repro.linalg.randomized_svd", "_gaussian_sketch", "linalg.sketch", None),
    ("repro.linalg.randomized_svd", "embedding_from_svd", "linalg.embedding_from_svd", None),
    ("repro.linalg.spectral", "spectral_propagation", "spectral.propagation", None),
    ("repro.linalg.spectral", "chebyshev_gaussian_filter", "spectral.chebyshev", None),
    ("repro.linalg.spectral", "rescale_embedding", "spectral.rescale", None),
    ("repro.utils.parallel", "parallel_map", "parallel.map", None),
    ("repro.utils.parallel", "ThreadPoolExecutor", "parallel.pool_start", None),
    ("repro.utils.parallel", "ProcessPoolExecutor", "parallel.pool_start", None),
)

ROOT = "embedding.lightne"


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Dict[str, float] = {}


class Tracer:
    """Records spans at the :data:`BOUNDARIES` while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None, counts=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        kwargs = kwargs or {}
        stack = self._stack()
        span = Span(name, 0.0, stack[-1] if stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if counts is not None:
            span.counts = counts(args, kwargs, result)
        return result

    def _wrap(self, name: str, original: Callable, counts) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, counts)

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "repro" or key.startswith("repro."))
        ]
        for module_name, attribute, name, counts in BOUNDARIES:
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = self._wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        if not self._patches:
            raise RuntimeError("no layer boundary found to trace")

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans: List[Span], chebyshev_terms: int) -> Dict[str, float]:
    """Per-layer metrics of one traced embedding (one ``ROOT`` span).

    Times are summed over the outermost spans of a name, so a kernel nested
    in another call of the same kernel (``spmm`` inside ``spmm_chunked``) is
    counted once.  Kernel spans count toward the layer (factorize or
    propagation) whose span encloses them.
    """
    children: Dict[int, list] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)

    def ancestors(i: int):
        parent = spans[i].parent
        while parent is not None:
            yield spans[parent].name
            parent = spans[parent].parent

    def self_time(i: int) -> float:
        span = spans[i]
        inner = [(spans[c].start, spans[c].end) for c in children.get(i, ())]
        return (span.end - span.start) - _covered(inner)

    def outermost(name: str, layer: Optional[str] = None) -> List[int]:
        return [
            i for i, span in enumerate(spans)
            if span.name == name
            and name not in ancestors(i)
            and (layer is None or layer in ancestors(i))
        ]

    def seconds(indices) -> float:
        return sum((spans[i].end - spans[i].start for i in indices), 0.0)

    def count(indices, key: str) -> float:
        return sum(spans[i].counts.get(key, 0.0) for i in indices)

    def only(name: str) -> int:
        found = outermost(name)
        if len(found) != 1:
            raise RuntimeError(f"expected one {name} span, found {len(found)}")
        return found[0]

    root = only(ROOT)
    build = only("sparsifier.build")
    sample = outermost("sparsifier.sample")
    aggregate = outermost("sparsifier.aggregate")
    factorize = only("linalg.factorize")
    chebyshev = only("spectral.chebyshev")
    f_spmm = outermost("kernel.spmm", "linalg.factorize")
    p_spmm = outermost("kernel.spmm", "spectral.chebyshev")
    ortho = outermost("linalg.orthonormalize", "linalg.factorize")
    maps = outermost("parallel.map")

    sample_s, aggregate_s = seconds(sample), seconds(aggregate)
    f_spmm_s, p_spmm_s = seconds(f_spmm), seconds(p_spmm)
    chebyshev_s = seconds([chebyshev])
    inserts = count(aggregate, "inserts")
    return {
        "sparsifier.build_s": seconds([build]),
        "sparsifier.sample_s": sample_s,
        "sparsifier.samples_per_s": count(sample, "samples") / sample_s,
        "sparsifier.aggregate_s": aggregate_s,
        "sparsifier.inserts_per_s": inserts / aggregate_s,
        "sparsifier.distinct_ratio": count(aggregate, "distinct") / inserts,
        "sparsifier.kept_ratio": count(sample, "samples") / spans[build].counts["draws"],
        "sparsifier.netmf_matrix_s": seconds(outermost("sparsifier.netmf_matrix")),
        "sparsifier.nnz": spans[build].counts["nnz"],
        "sparsifier.mass_ratio": spans[build].counts["mass"] / spans[build].counts["draws"],
        "linalg.factorize_s": seconds([factorize]),
        "linalg.spmm_s": f_spmm_s,
        "linalg.spmm_calls": float(len(f_spmm)),
        "linalg.spmm_gbps": count(f_spmm, "bytes") / f_spmm_s / 1e9,
        "linalg.orthonormalize_s": seconds(ortho),
        "linalg.orthonormalize_calls": float(len(ortho)),
        "linalg.sketch_s": seconds(outermost("linalg.sketch", "linalg.factorize")),
        "linalg.factorize_self_s": self_time(factorize),
        "spectral.propagation_s": seconds([only("spectral.propagation")]),
        "spectral.chebyshev_s": chebyshev_s,
        "spectral.term_s": chebyshev_s / chebyshev_terms,
        "spectral.spmm_s": p_spmm_s,
        "spectral.spmm_gbps": count(p_spmm, "bytes") / p_spmm_s / 1e9,
        "spectral.elementwise_s": self_time(chebyshev),
        "spectral.rescale_s": seconds(outermost("spectral.rescale")),
        "parallel.map_calls": float(sum(s.name == "parallel.map" for s in spans)),
        "parallel.map_s": seconds(maps),
        "parallel.pool_starts": float(sum(s.name == "parallel.pool_start" for s in spans)),
        "embedding.embed_s": seconds([root]),
        "embedding.unattributed_s": self_time(root),
    }
