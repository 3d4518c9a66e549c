"""One task body per parallel stage: the contracts that make it safe.

``parallel_map`` hands every task a shared context; the sparsifier stages
(PathSampling, PPR push, sharded aggregation) each run one module-level task
over it on every backend.  These tests pin what that relies on: memmapped
graphs pickle as their path, thread-task spans nest under the dispatching
span, per-batch statistics are summed by the parent, and a dying process
worker surfaces as a typed error without leaking shared memory or spool
directories.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import telemetry
from repro.errors import WorkerError
from repro.graph.generators import erdos_renyi_graph
from repro.graph.io import load_csr_v2, save_csr_v2
from repro.sparsifier import aggregation, path_sampling
from repro.sparsifier.aggregation import aggregate_hash_sharded
from repro.sparsifier.path_sampling import PathSamplingConfig, sample_sparsifier_edges
from repro.sparsifier.ppr import sample_ppr_counts
from repro.utils.parallel import SharedArrays, parallel_map


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(150, 0.06, seed=4)


@pytest.fixture
def enabled():
    tracer = telemetry.enable()
    telemetry.reset_metrics()
    yield tracer
    telemetry.reset_metrics()
    telemetry.disable()


def _config(graph, multiplier=2.0):
    samples = PathSamplingConfig.samples_for_multiplier(graph, 4, multiplier)
    return PathSamplingConfig(window=4, num_samples=samples)


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _sum_keys(context, start, stop):
    return int(context["keys"][start:stop].sum())


class TestCSRGraphPickling:
    def test_memmapped_graph_pickles_as_its_path(self, graph, tmp_path):
        path = save_csr_v2(graph, tmp_path / "g.csrv2")
        memmapped = load_csr_v2(path)
        payload = pickle.dumps(memmapped)
        assert len(payload) < 4096
        assert graph.targets.nbytes > 4096  # the by-value form would not fit
        reopened = pickle.loads(payload)
        assert reopened.mmap_source == memmapped.mmap_source
        assert isinstance(reopened.targets.base, np.memmap)
        np.testing.assert_array_equal(reopened.offsets, graph.offsets)
        np.testing.assert_array_equal(reopened.targets, graph.targets)

    def test_in_memory_graph_round_trips_by_value(self, graph):
        payload = pickle.dumps(graph)
        assert len(payload) > graph.targets.nbytes
        copy = pickle.loads(payload)
        assert copy.mmap_source is None
        assert copy == graph


class TestSharedArrays:
    def test_pickles_as_segment_name_and_unlinks_on_close(self):
        before = _shm_entries()
        with SharedArrays(1000, {"keys": np.int64, "values": np.float64}) as shared:
            shared["keys"][:] = np.arange(1000)
            shared["values"][:] = 0.5
            payload = pickle.dumps(shared)
            assert len(payload) < 1024
            attached = pickle.loads(payload)
            np.testing.assert_array_equal(attached["keys"], np.arange(1000))
            assert attached["values"].sum() == 500.0
            attached.close()
        assert _shm_entries() <= before

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_as_parallel_map_context(self, backend):
        with SharedArrays(100, {"keys": np.int64}) as shared:
            shared["keys"][:] = np.arange(100)
            got = parallel_map(
                _sum_keys, [(0, 50), (50, 100)], context=shared,
                workers=2, backend=backend,
            )
        assert got == [sum(range(50)), sum(range(50, 100))]


class TestThreadSpansNestUnderCaller:
    """Thread-worker spans are children of the span that called parallel_map."""

    def _assert_children(self, tracer, name, outer):
        spans = tracer.find_spans(name)
        assert len(spans) >= 2
        assert all(span.parent is outer for span in spans)
        assert {span.thread_id for span in spans} != {outer.thread_id}

    def test_sampling_batches(self, graph, enabled):
        with telemetry.span("caller") as outer:
            sample_sparsifier_edges(
                graph, _config(graph), 0, batch_size=500, workers=2
            )
        self._assert_children(enabled, "sparsifier.batch", outer)

    def test_ppr_batches(self, graph, enabled):
        with telemetry.span("caller") as outer:
            sample_ppr_counts(
                graph, _config(graph), 0, batch_size=40, workers=2
            )
        self._assert_children(enabled, "sparsifier.ppr.batch", outer)

    def test_aggregation_shards(self, enabled):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 50, size=2000)
        cols = rng.integers(0, 50, size=2000)
        with telemetry.span("caller") as outer:
            aggregate_hash_sharded(
                rows, cols, np.ones(2000), 50, num_shards=4, workers=2
            )
        self._assert_children(enabled, "aggregate.shard", outer)


def test_ppr_pushes_stat_is_backend_and_worker_independent(graph):
    pushes = []
    for workers, backend in [(1, "thread"), (2, "thread"), (2, "process")]:
        stats = {}
        sample_ppr_counts(
            graph, _config(graph), 3, batch_size=40, workers=workers,
            backend=backend, stats=stats,
        )
        pushes.append(stats["pushes"])
    assert pushes[0] > 0
    assert pushes == [pushes[0]] * 3


class TestWorkerDeath:
    """SIGKILL one process worker mid-stage, telemetry on."""

    @pytest.fixture
    def private_tmp(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    @staticmethod
    def _killing(original):
        parent = os.getpid()

        def wrapper(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args, **kwargs)

        return wrapper

    def _check(self, excinfo, stage, shm_before, tmp):
        assert stage in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
        assert _shm_entries() <= shm_before
        assert not [p for p in os.listdir(tmp) if p.startswith("repro-spool-")]

    def test_during_path_sampling(self, graph, enabled, private_tmp, monkeypatch):
        monkeypatch.setattr(
            path_sampling, "path_sample_pairs",
            self._killing(path_sampling.path_sample_pairs),
        )
        shm_before = _shm_entries()
        with pytest.raises(WorkerError) as excinfo:
            sample_sparsifier_edges(
                graph, _config(graph), 0, batch_size=500, workers=2,
                backend="process",
            )
        self._check(excinfo, "sparsifier.sampling", shm_before, private_tmp)

    def test_during_sharded_aggregation(self, enabled, private_tmp, monkeypatch):
        monkeypatch.setattr(
            aggregation, "SparseParallelHashTable",
            self._killing(aggregation.SparseParallelHashTable),
        )
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 50, size=2000)
        cols = rng.integers(0, 50, size=2000)
        shm_before = _shm_entries()
        with pytest.raises(WorkerError) as excinfo:
            aggregate_hash_sharded(
                rows, cols, np.ones(2000), 50, num_shards=4, workers=2,
                backend="process",
            )
        self._check(excinfo, "sparsifier.aggregation", shm_before, private_tmp)
