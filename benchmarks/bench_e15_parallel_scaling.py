"""E15 — end-to-end sparsifier construction scaling with worker count.

The PR's tentpole: PathSampling batches and the hash-partitioned aggregation
shards both run on a thread pool whose width is the ``workers`` knob.  This
benchmark sweeps workers ∈ {1, 2, 4, 8} over the full sampling + aggregation
path and reports wall-clock, samples/sec and speedup over the serial run.

Two invariants are asserted unconditionally:

* the sparsifier triple is **bit-identical** for every worker count (the
  per-batch-index RNG stream design);
* the samples/sec counter is populated.

The ≥1.5× speedup-at-8-workers check only fires on machines that actually
have 8 cores — numpy kernels release the GIL, but a single-core container
cannot exhibit parallel speedup no matter how the code is structured.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.harness import SEED, load, run_probe
from repro.sparsifier.aggregation import aggregate_hash_sharded
from repro.sparsifier.path_sampling import PathSamplingConfig, sample_sparsifier_edges

WINDOW = 10
WORKER_SWEEP = (1, 2, 4, 8)
BATCH_SIZE = 50_000  # small enough that every worker count gets many batches


@pytest.fixture(scope="module")
def graph():
    return load("oag_like").graph


@pytest.fixture(scope="module")
def config(graph):
    return PathSamplingConfig(
        window=WINDOW,
        num_samples=PathSamplingConfig.samples_for_multiplier(graph, WINDOW, 5.0),
        downsample=True,
    )


def _run_once(graph, config, workers):
    stats = {}
    start = time.perf_counter()
    u, v, w, draws = sample_sparsifier_edges(
        graph, config, SEED, batch_size=BATCH_SIZE, workers=workers, stats=stats
    )
    sampling = time.perf_counter() - start
    start = time.perf_counter()
    # Shard count pinned (as in the builder): the decomposition must not vary
    # with workers or the fp summation order — and thus bit-identity — breaks.
    rows, cols, vals = aggregate_hash_sharded(
        u, v, w, graph.num_vertices, workers=workers, num_shards=8
    )
    aggregation = time.perf_counter() - start
    return {
        "triple": (u, v, w, draws, rows, cols, vals),
        "seconds": sampling + aggregation,
        "samples_per_sec": stats["walk_samples"] / max(sampling, 1e-12),
        "batches": int(stats["batches"]),
    }


def test_e15_parallel_scaling(benchmark, graph, config, table):
    benchmark.group = "scaling"

    def run():
        return {w: _run_once(graph, config, w) for w in WORKER_SWEEP}

    runs = benchmark.pedantic(run, rounds=1, iterations=1)

    serial = runs[1]
    rows = []
    for w in WORKER_SWEEP:
        r = runs[w]
        rows.append(
            {
                "workers": w,
                "batches": r["batches"],
                "seconds": round(r["seconds"], 3),
                "samples_per_sec": int(r["samples_per_sec"]),
                "speedup": round(serial["seconds"] / r["seconds"], 2),
            }
        )
    table(
        "E15 — sparsifier construction (sampling + sharded aggregation) "
        "vs worker count; output is bit-identical at every width",
        rows,
    )

    # Determinism: every worker count must produce the same sparsifier.
    for w in WORKER_SWEEP[1:]:
        for a, b in zip(serial["triple"], runs[w]["triple"]):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    assert all(r["samples_per_sec"] > 0 for r in rows)

    cores = os.cpu_count() or 1
    if cores >= 8:
        eight = next(r for r in rows if r["workers"] == 8)
        assert eight["speedup"] >= 1.5, (
            f"expected >=1.5x speedup at 8 workers on a {cores}-core machine, "
            f"got {eight['speedup']}x"
        )


# --------------------------------------------------------------------------
# Out-of-core mode (PR 6): the process backend + memmapped CSR v2 + chunked
# SPMM must (a) stay bit-identical to the in-RAM thread path and (b) actually
# shrink the working set.  Each configuration runs in a fresh interpreter via
# harness.run_probe — RSS / VmData high-water marks never shrink inside one
# process, so in-process comparison would be meaningless.
#
# The memory assertion targets the propagation stage in isolation: that is
# the stage the offload rewrites (ping-pong n×d buffers → unlinked temp-file
# memmaps streamed in row blocks), whereas the end-to-end anonymous peak is
# set by the randomized SVD's dense intermediates, which out-of-core mode
# deliberately leaves alone.  Two figures are reported per run:
#
# * ``anon`` — VmData peak: heap + private mappings.  File-backed memmap
#   pages do not count, so a drop here is genuine working-set reduction.
# * ``rss`` — resident peak: also counts the (reclaimable) file-backed
#   pages still resident; the chunked kernels madvise written/consumed
#   blocks away, so this drops too, by a smaller margin.

_PROP_PROBE = """
import json, tempfile
import numpy as np
from repro.graph.generators import rmat_graph
from repro.linalg.spectral import spectral_propagation
from repro.telemetry.memory import MemorySampler
g = rmat_graph(17, 8, seed=13)
emb = np.random.default_rng(99).standard_normal((g.num_vertices, 64))
with MemorySampler(0.005) as sampler:
    if __OFFLOAD__:
        with tempfile.TemporaryDirectory() as d:
            out = spectral_propagation(g, emb, order=10, offload_dir=d)
    else:
        out = spectral_propagation(g, emb, order=10)
p = sampler.profile
print(json.dumps(dict(anon=p.anon_peak_bytes, rss=p.rss_peak_bytes,
                      checksum=float(out.sum()))))
"""

_E2E_PROBE = """
import json, os, tempfile
import numpy as np
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.graph import io as graph_io
from repro.graph.generators import rmat_graph
from repro.telemetry.memory import MemorySampler
backend = "__BACKEND__"
g = rmat_graph(15, 8, seed=13)
with tempfile.TemporaryDirectory() as d:
    if backend == "process":
        path = os.path.join(d, "g" + graph_io.CSR_V2_SUFFIX)
        graph_io.save_csr_v2(g, path)
        g = graph_io.load_csr(path, mmap=True)
    with MemorySampler(0.005) as sampler:
        result = lightne_embedding(
            g,
            LightNEParams(dimension=64, window=5, sample_multiplier=1.0,
                          workers=__WORKERS__, backend=backend),
            seed=2021,
        )
p = sampler.profile
print(json.dumps(dict(anon=p.anon_peak_bytes, rss=p.rss_peak_bytes,
                      checksum=float(result.vectors.sum()),
                      backend=result.info.get("backend"))))
"""


def _mib(value):
    return None if value is None else round(value / 2**20, 1)


def test_e15_out_of_core_propagation_memory(table):
    inmem = run_probe(_PROP_PROBE.replace("__OFFLOAD__", "False"))
    offload = run_probe(_PROP_PROBE.replace("__OFFLOAD__", "True"))

    table(
        "E15 — spectral propagation peak memory, rmat(17,8) n=131k d=64 "
        "order=10 (fresh process per row)",
        [
            {"mode": mode, "anon_peak_MiB": _mib(r["anon"]),
             "rss_peak_MiB": _mib(r["rss"]), "checksum": r["checksum"]}
            for mode, r in (("in-RAM", inmem), ("offload", offload))
        ],
    )

    # Offload is bit-transparent: same floats, different residency.
    assert offload["checksum"] == inmem["checksum"]
    if inmem["anon"] is None or offload["anon"] is None:
        pytest.skip("no /proc/self/status on this platform")
    # The real acceptance bar: the offloaded filter's unreclaimable
    # working set shrinks substantially (measured ~0.76x)...
    assert offload["anon"] < 0.85 * inmem["anon"], (
        f"offload anon peak {_mib(offload['anon'])} MiB not < 85% of "
        f"in-RAM {_mib(inmem['anon'])} MiB"
    )
    # ...and even the resident peak — which still counts reclaimable
    # file-backed pages — lands below the in-RAM run (measured ~0.90x).
    assert offload["rss"] < inmem["rss"], (
        f"offload rss peak {_mib(offload['rss'])} MiB not below in-RAM "
        f"{_mib(inmem['rss'])} MiB"
    )


def test_e15_out_of_core_end_to_end(table):
    def probe(backend, workers):
        script = (
            _E2E_PROBE
            .replace("__BACKEND__", backend)
            .replace("__WORKERS__", str(workers))
        )
        return (backend, workers, run_probe(script))

    runs = [probe("thread", 2), probe("process", 1), probe("process", 3)]

    table(
        "E15 — end-to-end LightNE rmat(15,8) d=64 w=5: thread/in-RAM vs "
        "process/memmapped CSR v2 (bit-identical)",
        [
            {"backend": backend, "workers": workers,
             "anon_peak_MiB": _mib(r["anon"]), "rss_peak_MiB": _mib(r["rss"]),
             "checksum": r["checksum"]}
            for backend, workers, r in runs
        ],
    )

    reference = runs[0][2]
    for backend, workers, r in runs[1:]:
        assert r["checksum"] == reference["checksum"], (
            f"{backend}/workers={workers} diverged from thread reference"
        )
        assert r["backend"] == "process"
