"""Tests for the programmatic experiment runners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import LabeledGraph
from repro.errors import EvaluationError, UnknownMethodError
from repro.experiments import format_table, run_method_comparison
from repro.experiments.runner import dispatch_method
from repro.graph.generators import dcsbm_graph


@pytest.fixture(scope="module")
def bundle():
    graph, labels = dcsbm_graph(150, 3, avg_degree=10, mixing=0.15, seed=2)
    return LabeledGraph(name="tiny", graph=graph, labels=labels)


@pytest.fixture(scope="module")
def unlabeled(bundle):
    return LabeledGraph(name="tiny-lp", graph=bundle.graph, labels=None)


class TestDispatch:
    @pytest.mark.parametrize(
        "method", ["lightne", "netsmf", "prone+", "line", "nrp"]
    )
    def test_matrix_methods(self, bundle, method):
        result = dispatch_method(
            method, bundle.graph, dimension=8, window=2, multiplier=1.0, seed=0
        )
        assert result.vectors.shape == (150, 8)

    def test_unknown_method(self, bundle):
        with pytest.raises(UnknownMethodError):
            dispatch_method("wat", bundle.graph)

    def test_workers_threaded_through(self, bundle):
        # workers is a performance knob: vectors must match the default run.
        base = dispatch_method(
            "lightne", bundle.graph, dimension=8, window=2, seed=0
        )
        threaded = dispatch_method(
            "lightne", bundle.graph, dimension=8, window=2, seed=0, workers=2
        )
        assert threaded.info["workers"] == 2
        np.testing.assert_array_equal(base.vectors, threaded.vectors)


class TestRunners:
    def test_method_comparison_rows(self, bundle):
        rows = run_method_comparison(
            bundle, ["prone+", "lightne"], ratios=(0.3,), dimension=8,
            window=2, multiplier=1.0, repeats=1, seed=0,
        )
        assert [r["method"] for r in rows] == ["prone+", "lightne"]
        for row in rows:
            assert 0 <= row["micro@0.3"] <= 100
            assert row["time_s"] > 0 and row["cost_$"] > 0

    def test_method_comparison_needs_labels(self, unlabeled):
        with pytest.raises(EvaluationError):
            run_method_comparison(unlabeled, ["lightne"])

    def test_method_comparison_by_name(self):
        rows = run_method_comparison(
            "blogcatalog_like", ["prone+"], ratios=(0.3,), dimension=8,
            window=2, repeats=1, seed=0,
        )
        assert rows[0]["method"] == "prone+"



class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment_and_na(self):
        text = format_table(
            [{"a": 1, "b": None}, {"a": 22, "b": 3.14159}]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "NA" in lines[2]
        assert "3.142" in lines[3]

    def test_column_order_from_first_row(self):
        text = format_table([{"z": 1, "a": 2}])
        header = text.splitlines()[0]
        assert header.index("z") < header.index("a")
