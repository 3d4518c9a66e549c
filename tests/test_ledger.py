"""Tests for the run ledger: records, atomic append, pipeline wiring."""

from __future__ import annotations

import json
import os

import pytest

from repro.embedding.registry import get_method, run_method
from repro.graph.generators import dcsbm_graph
from repro.telemetry import environment, ledger
from repro.telemetry.ledger import (
    RunLedger,
    RunRecord,
    compact_metrics,
    params_hash,
    validate_record,
)
from repro.utils.timer import StageTimer


@pytest.fixture
def graph():
    g, _ = dcsbm_graph(150, 3, avg_degree=8, seed=7)
    return g


@pytest.fixture(autouse=True)
def _clean_ledger_state():
    """Every test starts with no dataset context."""
    ledger.set_dataset(None)
    yield
    ledger.set_dataset(None)


# ---------------------------------------------------------------------------
# Environment fingerprint
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_shape(self):
        env = environment.collect_fingerprint()
        for key in (
            "cpu_model", "cpu_count", "platform", "python",
            "numpy", "scipy", "blas", "git_sha",
        ):
            assert key in env
        assert env["cpu_count"] >= 1
        assert env["numpy"]

    def test_cached(self):
        assert environment.collect_fingerprint() is environment.collect_fingerprint()

    def test_key_excludes_git_sha(self):
        env = dict(environment.collect_fingerprint())
        key_a = environment.fingerprint_key(env)
        env["git_sha"] = "0" * 40
        assert environment.fingerprint_key(env) == key_a

    def test_key_changes_with_hardware(self):
        env = dict(environment.collect_fingerprint())
        key_a = environment.fingerprint_key(env)
        env["cpu_model"] = "Imaginary CPU 9000"
        assert environment.fingerprint_key(env) != key_a

    def test_result_info_carries_env(self, graph):
        result = run_method("lightne", graph, seed=0, dimension=8, window=3)
        assert result.info["env"] == environment.collect_fingerprint()


# ---------------------------------------------------------------------------
# RunRecord / schema
# ---------------------------------------------------------------------------


class TestRunRecord:
    def test_params_hash_order_independent(self):
        assert params_hash({"a": 1, "b": 2}) == params_hash({"b": 2, "a": 1})
        assert params_hash({"a": 1}) != params_hash({"a": 2})

    def test_roundtrip(self):
        record = RunRecord(
            method="lightne",
            dataset="ds",
            params={"dimension": 8},
            stages={"sparsifier": 0.5, "svd": 1.0},
            total_s=1.5,
            seed=3,
            env=dict(environment.collect_fingerprint()),
            quality={"micro@0.1": 31.2},
        )
        back = RunRecord.from_dict(json.loads(record.to_json()))
        assert back.to_dict() == record.to_dict()

    def test_schema_valid(self):
        record = RunRecord(method="m", dataset="d", env={"cpu_model": "x"})
        assert validate_record(record.to_dict()) == []

    def test_validate_flags_missing_fields(self):
        problems = validate_record({"method": "m"})
        assert any("run_id" in p for p in problems)
        assert any("stages" in p for p in problems)

    def test_compact_metrics_drops_buckets(self):
        snapshot = {
            "counters": {"c": 3.0},
            "gauges": {"g": {"value": 1.0, "max": 2.0}},
            "histograms": {
                "h": {
                    "buckets": [1, 2], "counts": [0, 1, 0],
                    "count": 1, "sum": 1.5, "mean": 1.5, "min": 1.5, "max": 1.5,
                }
            },
        }
        compact = compact_metrics(snapshot)
        assert compact["counters"] == {"c": 3.0}
        assert "buckets" not in compact["histograms"]["h"]
        assert compact["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------------
# RunLedger file behaviour
# ---------------------------------------------------------------------------


class TestRunLedger:
    def test_append_creates_parents_and_reads_back(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "runs.jsonl"
        book = RunLedger(path)
        book.append(RunRecord(method="m", dataset="d", total_s=1.0))
        book.append(RunRecord(method="m", dataset="d", total_s=2.0))
        records = book.records()
        assert [r.total_s for r in records] == [1.0, 2.0]

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunLedger(path).append(RunRecord(method="m", dataset="d"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write("[1, 2, 3]\n")
        RunLedger(path).append(RunRecord(method="m2", dataset="d"))
        records = RunLedger(path).records()
        assert [r.method for r in records] == ["m", "m2"]

    def test_missing_file_is_empty(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").records() == []


# ---------------------------------------------------------------------------
# Pipeline wiring (run_pipeline -> maybe_record)
# ---------------------------------------------------------------------------


class TestPipelineWiring:
    def test_disabled_by_default(self, graph, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger.set_dataset("ds")
        run_method("lightne", graph, seed=0, dimension=8, window=3)
        assert not path.exists()

    def test_enabled_scope_records(self, graph, tmp_path):
        path = tmp_path / "runs.jsonl"
        with ledger.enabled_scope(path=path, dataset="scoped"):
            result = run_method("lightne", graph, seed=5, dimension=8, window=3)
        assert not ledger.is_enabled()  # scope restored
        (record,) = RunLedger(path).records()
        assert record.method == "lightne"
        assert record.dataset == "scoped"
        assert record.seed == 5
        assert record.params == result.info["params"]
        assert record.params_hash == params_hash(result.info["params"])
        assert record.fingerprint == environment.fingerprint_key()
        assert record.total_s == pytest.approx(result.timer.total)
        assert validate_record(record.to_dict()) == []

    def test_stage_order_matches_registry(self, graph, tmp_path):
        """Ledger stage order is the registry's Table-5 order, not execution order."""
        with ledger.enabled_scope(path=tmp_path / "r.jsonl", dataset="ds"):
            run_method("lightne", graph, seed=0, dimension=8, window=3)
        (record,) = RunLedger(tmp_path / "r.jsonl").records()
        declared = list(get_method("lightne").stages)
        recorded = [s for s in record.stages if s in declared]
        assert recorded == declared

    def test_record_failure_does_not_break_run(self, graph, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        # Path whose parent is a regular file -> append must fail internally.
        with ledger.enabled_scope(path=blocker / "runs.jsonl", dataset="ds"):
            result = run_method("lightne", graph, seed=0, dimension=8, window=3)
        assert result.vectors.shape == (graph.num_vertices, 8)

    def test_record_result_with_quality(self, graph, tmp_path):
        result = run_method("lightne", graph, seed=0, dimension=8, window=3)
        record = ledger.record_result(
            result,
            path=tmp_path / "q.jsonl",
            dataset="ds",
            quality={"micro@0.1": 30.5},
            context="test",
        )
        (back,) = RunLedger(tmp_path / "q.jsonl").records()
        assert back.quality == {"micro@0.1": 30.5}
        assert back.run_id == record.run_id
        assert back.context == "test"

    def test_record_result_needs_a_path_outside_a_scope(self, graph):
        result = run_method("lightne", graph, seed=0, dimension=8, window=3)
        with pytest.raises(ValueError, match="path"):
            ledger.record_result(result)


# ---------------------------------------------------------------------------
# StageTimer.ordered_stages (the stable Table-5 ordering)
# ---------------------------------------------------------------------------


class TestOrderedStages:
    def test_declared_order_wins(self):
        timer = StageTimer()
        timer.add("propagation", 1.0)
        timer.add("sparsifier", 2.0)
        timer.add("svd", 3.0)
        ordered = timer.ordered_stages(("sparsifier", "svd", "propagation"))
        assert list(ordered) == ["sparsifier", "svd", "propagation"]
        assert ordered["sparsifier"] == 2.0

    def test_extra_stages_appended(self):
        timer = StageTimer()
        timer.add("warmup", 0.1)
        timer.add("svd", 3.0)
        ordered = timer.ordered_stages(("sparsifier", "svd"))
        assert list(ordered) == ["svd", "warmup"]

    def test_empty_order_keeps_insertion(self):
        timer = StageTimer()
        timer.add("b", 1.0)
        timer.add("a", 2.0)
        assert list(timer.ordered_stages()) == ["b", "a"]
