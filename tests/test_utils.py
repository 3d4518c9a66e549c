"""Tests for repro.utils: rng plumbing, timers, validation, chunking."""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils.parallel import (
    BACKENDS,
    chunk_ranges,
    parallel_map,
    resolve_backend,
)


# Module-level so the process backend can pickle them; every task takes the
# parallel_map context first.
def _double(_context, x):
    return x * 2


def _add(_context, a, b):
    return a + b


def _boom(_context, x):
    if x == 2:
        raise RuntimeError("worker failure")
    time.sleep(0.01)
    return x


def _scaled(context, x):
    return context["scale"] * x
from repro.utils.rng import derive_seed, ensure_rng, spawn_batch_rngs, spawn_rngs
from repro.utils.timer import StageTimer, Timer
from repro.utils.validation import (
    as_int_array,
    check_fraction,
    check_positive,
    check_square_sparse,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(9)
        gen = ensure_rng(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_independent(self):
        a, b = spawn_rngs(7, 2)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_reproducible_from_int(self):
        first = [g.random(3) for g in spawn_rngs(5, 3)]
        second = [g.random(3) for g in spawn_rngs(5, 3)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_from_generator(self):
        children = spawn_rngs(np.random.default_rng(1), 2)
        assert len(children) == 2


class TestSpawnBatchRngs:
    def test_count_and_reproducibility(self):
        first = [g.random(3) for g in spawn_batch_rngs(5, 3)]
        second = [g.random(3) for g in spawn_batch_rngs(5, 3)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_prefix_stable_across_counts(self):
        # Unlike spawn_rngs with a Generator parent, the stream for batch i
        # must not depend on how many batches exist in total.
        few = [g.random(4) for g in spawn_batch_rngs(9, 2)]
        many = [g.random(4) for g in spawn_batch_rngs(9, 6)]
        for x, y in zip(few, many):
            np.testing.assert_array_equal(x, y)

    def test_generator_input_consumes_one_draw(self):
        # The parent generator must advance identically no matter the count,
        # so downstream consumers see the same rng state.
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        spawn_batch_rngs(a, 2)
        spawn_batch_rngs(b, 10)
        np.testing.assert_array_equal(a.random(5), b.random(5))

    def test_seed_sequence_input(self):
        x = [g.random(2) for g in spawn_batch_rngs(np.random.SeedSequence(4), 3)]
        y = [g.random(2) for g in spawn_batch_rngs(np.random.SeedSequence(4), 3)]
        for u, v in zip(x, y):
            np.testing.assert_array_equal(u, v)

    def test_children_independent(self):
        a, b = spawn_batch_rngs(7, 2)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_zero_count(self):
        assert spawn_batch_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_batch_rngs(0, -1)


class TestDeriveSeed:
    def test_none_passthrough(self):
        assert derive_seed(None, 3) is None

    def test_deterministic(self):
        assert derive_seed(10, 1) == derive_seed(10, 1)

    def test_salt_changes_seed(self):
        assert derive_seed(10, 1) != derive_seed(10, 2)


class TestTimer:
    def test_elapsed_positive(self):
        with Timer() as t:
            time.sleep(0.001)
        assert t.elapsed > 0

    def test_reusable(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            time.sleep(0.002)
        assert t.elapsed >= 0 and t.elapsed != first or t.elapsed >= 0

    def test_nested_reentry_raises(self):
        t = Timer()
        with t:
            with pytest.raises(RuntimeError, match="not re-entrant"):
                with t:
                    pass
        # The failed re-entry must not corrupt the outer measurement.
        assert t.elapsed >= 0
        with t:  # and sequential reuse still works afterwards
            pass


class TestStageTimer:
    def test_stage_accumulates(self):
        timer = StageTimer()
        with timer.stage("a"):
            pass
        with timer.stage("a"):
            pass
        assert timer.stages["a"] >= 0
        assert timer._order == ["a"]

    def test_total(self):
        timer = StageTimer()
        timer.add("x", 1.0)
        timer.add("y", 2.0)
        assert timer.total == pytest.approx(3.0)

    def test_add_negative_raises(self):
        with pytest.raises(ValueError):
            StageTimer().add("x", -1.0)

    def test_order_preserved(self):
        timer = StageTimer()
        timer.add("b", 1.0)
        timer.add("a", 1.0)
        assert [name for name, _ in timer.as_rows()] == ["b", "a"]

    def test_format_empty(self):
        assert "no stages" in StageTimer().format()

    def test_format_contains_stage_names(self):
        timer = StageTimer()
        timer.add("sparsifier", 1.5)
        text = timer.format()
        assert "sparsifier" in text and "total" in text

    def test_counter_set_get(self):
        timer = StageTimer()
        timer.set_counter("sparsifier", "workers", 4)
        assert timer.get_counter("sparsifier", "workers") == 4
        assert timer.get_counter("sparsifier", "missing", default=-1.0) == -1.0
        assert timer.get_counter("nope", "workers") == 0.0

    def test_counter_overwrites(self):
        timer = StageTimer()
        timer.set_counter("s", "batches", 1)
        timer.set_counter("s", "batches", 9)
        assert timer.get_counter("s", "batches") == 9

    def test_counter_rows_follow_stage_order(self):
        timer = StageTimer()
        timer.add("svd", 1.0)
        timer.add("sparsifier", 1.0)
        timer.set_counter("sparsifier", "samples_per_sec", 10.5)
        timer.set_counter("svd", "rank", 32)
        timer.set_counter("orphan", "x", 1)  # counter without a timed stage
        rows = timer.counter_rows()
        assert rows == [
            ("svd", "rank", 32),
            ("sparsifier", "samples_per_sec", 10.5),
            ("orphan", "x", 1),
        ]

    def test_format_includes_counters(self):
        timer = StageTimer()
        timer.add("sparsifier", 0.5)
        timer.set_counter("sparsifier", "samples_per_sec", 1234567.0)
        timer.set_counter("sparsifier", "batches", 3)
        text = timer.format()
        assert "sparsifier.samples_per_sec = 1,234,567" in text
        assert "sparsifier.batches = 3" in text

    def test_format_counters_only(self):
        """Counters must survive format() even with zero timed stages."""
        timer = StageTimer()
        timer.set_counter("sparsifier", "workers", 4)
        text = timer.format()
        assert "no stages" not in text
        assert "sparsifier.workers = 4" in text

    def test_counter_rows_for_never_timed_stages(self):
        """Counters whose stages were never timed keep registration order."""
        timer = StageTimer()
        timer.set_counter("zeta", "a", 1)
        timer.set_counter("alpha", "b", 2)
        assert timer.counter_rows() == [("zeta", "a", 1), ("alpha", "b", 2)]
        # Timing one of them promotes it to stage order, ahead of orphans.
        timer.add("alpha", 0.1)
        assert timer.counter_rows() == [("alpha", "b", 2), ("zeta", "a", 1)]

    def test_stage_nesting_is_safe(self):
        timer = StageTimer()
        with timer.stage("outer"):
            with timer.stage("inner"):
                time.sleep(0.001)
        assert set(timer.stages) == {"outer", "inner"}
        assert timer.stages["outer"] >= timer.stages["inner"]
        # Inner completes first, so it appears first in record order.
        assert timer._order == ["inner", "outer"]

    def test_stage_yields_span_and_writes_through_to_tracer(self):
        from repro import telemetry

        tracer = telemetry.enable()
        try:
            timer = StageTimer()
            with timer.stage("svd", rank=8) as span:
                span.set_attribute("extra", 1)
            assert tracer.find_spans("svd")[0].attributes == {
                "rank": 8, "extra": 1,
            }
        finally:
            telemetry.disable()
            telemetry.reset_metrics()
        assert "svd" in timer.stages

    def test_from_spans_builds_table5_view(self):
        from repro import telemetry

        tracer = telemetry.enable()
        try:
            with telemetry.span("sparsifier", workers=2):
                pass
            with telemetry.span("svd", rank=16, label="x"):
                pass
            timer = StageTimer.from_spans(tracer.roots)
        finally:
            telemetry.disable()
        assert timer._order == ["sparsifier", "svd"]
        assert timer.get_counter("svd", "rank") == 16.0
        assert timer.get_counter("sparsifier", "workers") == 2.0
        # Non-numeric attributes are not counters.
        assert timer.get_counter("svd", "label", default=-1.0) == -1.0


class TestValidation:
    def test_check_positive_ok(self):
        check_positive("x", 1)

    def test_check_positive_zero_strict(self):
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_positive_zero_nonstrict(self):
        check_positive("x", 0, strict=False)

    def test_check_fraction_bounds(self):
        check_fraction("p", 0.0)
        check_fraction("p", 1.0)
        with pytest.raises(ValueError):
            check_fraction("p", 1.5)

    def test_check_fraction_exclusive(self):
        with pytest.raises(ValueError):
            check_fraction("p", 0.0, inclusive=False)

    def test_check_square_sparse(self):
        check_square_sparse("m", sp.eye(3))
        with pytest.raises(ValueError):
            check_square_sparse("m", np.eye(3))
        with pytest.raises(ValueError):
            check_square_sparse("m", sp.csr_matrix((2, 3)))

    def test_as_int_array(self):
        out = as_int_array("x", [1.0, 2.0])
        assert out.dtype == np.int64

    def test_as_int_array_rejects_fractional(self):
        with pytest.raises(ValueError):
            as_int_array("x", [1.5])

    def test_as_int_array_rejects_2d(self):
        with pytest.raises(ValueError):
            as_int_array("x", [[1, 2]])


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split(self):
        assert chunk_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_chunks_than_items(self):
        ranges = chunk_ranges(2, 5)
        assert ranges == [(0, 1), (1, 2)]

    def test_zero_total(self):
        assert chunk_ranges(0, 3) == []

    def test_covers_everything(self):
        ranges = chunk_ranges(17, 4)
        flat = [i for start, stop in ranges for i in range(start, stop)]
        assert flat == list(range(17))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)


class TestParallelMap:
    def test_serial(self):
        assert parallel_map(_double, [(1,), (2,), (3,)]) == [2, 4, 6]

    def test_threaded_order_preserved(self):
        def work(_context, x):
            time.sleep(0.001 * (5 - x))
            return x

        assert parallel_map(work, [(i,) for i in range(5)], workers=4) == list(range(5))

    def test_multiple_args(self):
        assert parallel_map(_add, [(1, 2), (3, 4)]) == [3, 7]

    def test_empty(self):
        assert parallel_map(_double, []) == []

    def test_process_backend(self):
        got = parallel_map(_double, [(i,) for i in range(6)],
                           workers=3, backend="process")
        assert got == [0, 2, 4, 6, 8, 10]

    def test_process_backend_multiple_args(self):
        assert parallel_map(_add, [(1, 2), (3, 4)],
                            workers=2, backend="process") == [3, 7]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            parallel_map(_double, [(1,), (2,)], workers=2, backend="fiber")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fail_fast_first_error_wins(self, backend):
        # The exception raised must be the earliest failure in submission
        # order, and the pool must shut down without waiting for the rest.
        with pytest.raises(RuntimeError, match="worker failure"):
            parallel_map(_boom, [(i,) for i in range(8)],
                         workers=4, backend=backend)

    @pytest.mark.parametrize(
        "workers, backend", [(1, "thread"), (2, "thread"), (2, "process")]
    )
    def test_context_reaches_every_task(self, workers, backend):
        got = parallel_map(_scaled, [(i,) for i in range(5)],
                           context={"scale": 3}, workers=workers,
                           backend=backend)
        assert got == [0, 3, 6, 9, 12]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_process_context_is_not_copied(self, workers):
        context = {"scale": 1}
        got = parallel_map(lambda ctx, _: ctx, [(0,), (1,)],
                           context=context, workers=workers)
        assert all(ctx is context for ctx in got)


class TestResolveBackend:
    def test_none_is_thread(self):
        assert resolve_backend(None) == "thread"

    def test_passthrough(self):
        assert resolve_backend("process") == "process"
        assert resolve_backend("thread") == "thread"

    def test_invalid(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("fiber")


class TestLogging:
    def test_logger_namespaced(self):
        from repro.utils.log import get_logger

        assert get_logger("repro.embedding.lightne").name == "repro.embedding.lightne"
        assert get_logger("custom").name == "repro.custom"

    def test_silent_by_default(self, capsys):
        from repro.embedding import LightNEParams, lightne_embedding
        from repro.graph.generators import erdos_renyi_graph

        g = erdos_renyi_graph(30, 0.3, seed=0)
        lightne_embedding(
            g, LightNEParams(dimension=4, window=2, propagate=False), seed=0
        )
        captured = capsys.readouterr()
        assert "lightne:" not in captured.err

    def test_debug_lines_emitted(self, caplog):
        import logging

        from repro.embedding import LightNEParams, lightne_embedding
        from repro.graph.generators import erdos_renyi_graph

        g = erdos_renyi_graph(30, 0.3, seed=0)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            lightne_embedding(
                g, LightNEParams(dimension=4, window=2, propagate=False), seed=0
            )
        messages = " ".join(record.message for record in caplog.records)
        assert "sparsifier nnz" in messages
        assert "done in" in messages


class TestConfigureLogging:
    @pytest.fixture(autouse=True)
    def _cleanup_handlers(self):
        import logging

        root = logging.getLogger("repro")
        before_level = root.level
        yield
        root.setLevel(before_level)
        for handler in list(root.handlers):
            if getattr(handler, "_repro_configured", False):
                root.removeHandler(handler)

    def test_explicit_level_wins(self):
        import logging

        from repro.utils.log import configure_logging

        assert configure_logging("DEBUG").level == logging.DEBUG
        assert configure_logging("warning").level == logging.WARNING

    def test_default_is_info(self):
        import logging

        from repro.utils.log import configure_logging

        assert configure_logging().level == logging.INFO

    def test_idempotent_handler(self):
        import logging

        from repro.utils.log import configure_logging

        root = logging.getLogger("repro")
        before = len(root.handlers)
        configure_logging("INFO")
        configure_logging("DEBUG")
        configure_logging("10")
        ours = [
            h for h in root.handlers if getattr(h, "_repro_configured", False)
        ]
        assert len(ours) == 1
        assert len(root.handlers) == before + 1
        assert root.level == logging.DEBUG

    def test_unknown_level_raises(self):
        from repro.utils.log import configure_logging

        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("LOUD")

    def test_messages_reach_stream(self):
        import io

        from repro.utils.log import configure_logging, get_logger

        buf = io.StringIO()
        configure_logging("DEBUG", stream=buf)
        get_logger("repro.test_stream").debug("hello from the pipeline")
        assert "hello from the pipeline" in buf.getvalue()


class TestFileIO:
    """Crash-safe write/append primitives (repro.utils.fileio)."""

    def test_atomic_write_creates_parents(self, tmp_path):
        from repro.utils.fileio import atomic_write_text

        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "payload")
        assert path.read_text() == "payload"

    def test_atomic_write_json_roundtrip(self, tmp_path):
        import json

        from repro.utils.fileio import atomic_write_json

        path = tmp_path / "out.json"
        atomic_write_json(path, {"k": [1, 2]}, indent=2)
        assert json.loads(path.read_text()) == {"k": [1, 2]}

    def test_failed_write_preserves_previous_file(self, tmp_path):
        from repro.utils.fileio import atomic_write_text, atomic_write_with

        path = tmp_path / "out.txt"
        atomic_write_text(path, "original")

        def exploding_writer(out):
            out.write("partial")
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            atomic_write_with(path, exploding_writer)
        # The target still holds the previous payload, and no temp litter.
        assert path.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_append_line_creates_parents_and_adds_newline(self, tmp_path):
        from repro.utils.fileio import append_line

        path = tmp_path / "deep" / "runs.jsonl"
        append_line(path, "one")
        append_line(path, "two\n")
        assert path.read_text() == "one\ntwo\n"
