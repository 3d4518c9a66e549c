"""Tests for the partition-then-embed workload (paper intro)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph
from repro.graph.partition import (
    bfs_partition,
    embed_partitioned,
    partition_edge_cut,
)


@pytest.fixture(scope="module")
def sbm():
    return dcsbm_graph(200, 4, avg_degree=12, mixing=0.1, seed=6)


class TestBFSPartition:
    def test_every_vertex_assigned(self, sbm):
        graph, _ = sbm
        assignment = bfs_partition(graph, 4, seed=0)
        assert assignment.min() >= 0
        assert assignment.max() < 4

    def test_balanced_sizes(self, sbm):
        graph, _ = sbm
        assignment = bfs_partition(graph, 4, seed=0)
        sizes = np.bincount(assignment, minlength=4)
        assert sizes.max() - sizes.min() <= max(2, graph.num_vertices // 10)

    def test_single_part(self, sbm):
        graph, _ = sbm
        assignment = bfs_partition(graph, 1, seed=0)
        assert np.all(assignment == 0)

    def test_invalid_args(self, sbm):
        graph, _ = sbm
        with pytest.raises(GraphConstructionError):
            bfs_partition(graph, 0)
        with pytest.raises(GraphConstructionError):
            bfs_partition(graph, graph.num_vertices + 1)

    def test_disconnected_graph(self):
        g = from_edges([0, 2], [1, 3], num_vertices=6)  # + 2 isolated
        assignment = bfs_partition(g, 2, seed=0)
        assert assignment.size == 6
        assert set(np.unique(assignment)) <= {0, 1}

    def test_bfs_parts_locally_coherent(self, sbm):
        """Region-grown parts should cut far fewer edges than random parts."""
        graph, _ = sbm
        rng = np.random.default_rng(0)
        bfs_cut = partition_edge_cut(graph, bfs_partition(graph, 4, seed=0))
        random_cut = partition_edge_cut(
            graph, rng.integers(0, 4, size=graph.num_vertices)
        )
        assert bfs_cut < random_cut


class TestEdgeCut:
    def test_no_cut_single_part(self, sbm):
        graph, _ = sbm
        assert partition_edge_cut(graph, np.zeros(graph.num_vertices, int)) == 0.0

    def test_full_cut(self):
        g = from_edges([0], [1])
        assert partition_edge_cut(g, np.array([0, 1])) == 1.0

    def test_validation(self, sbm):
        graph, _ = sbm
        with pytest.raises(GraphConstructionError):
            partition_edge_cut(graph, np.zeros(3, int))

    def test_empty_graph(self):
        g = from_edges([], [], num_vertices=4)
        assert partition_edge_cut(g, np.zeros(4, int)) == 0.0


class TestEmbedPartitioned:
    @staticmethod
    def _embedder(subgraph, seed):
        from repro.embedding import LightNEParams, lightne_embedding

        dim = min(16, subgraph.num_vertices)
        return lightne_embedding(
            subgraph,
            LightNEParams(dimension=dim, window=2, sample_multiplier=2,
                          propagate=False),
            seed,
        )

    def test_rows_align_with_original_ids(self, sbm):
        graph, _ = sbm
        assignment = bfs_partition(graph, 3, seed=0)
        result = embed_partitioned(
            graph, assignment, self._embedder, dimension=16, seed=0
        )
        assert result.vectors.shape == (graph.num_vertices, 16)
        assert result.info["num_parts"] == 3
        assert 0.0 <= result.info["edge_cut"] <= 1.0

    def test_partitioning_loses_quality(self, sbm):
        """The paper's motivating deficiency: per-part embedding discards
        cross-partition edges, so whole-graph LightNE should classify at
        least as well."""
        from repro.eval.node_classification import evaluate_node_classification

        graph, labels = sbm
        # Partition *against* community structure to make the cut visible.
        rng = np.random.default_rng(1)
        adversarial = rng.integers(0, 4, size=graph.num_vertices)
        partitioned = embed_partitioned(
            graph, adversarial, self._embedder, dimension=16, seed=0
        )
        whole = self._embedder(graph, 0)
        f1_part = evaluate_node_classification(
            partitioned.vectors, labels, 0.5, repeats=2, seed=1
        ).micro_f1
        f1_whole = evaluate_node_classification(
            whole.vectors, labels, 0.5, repeats=2, seed=1
        ).micro_f1
        assert f1_whole >= f1_part

    def test_isolated_part_stays_zero(self):
        g = from_edges([0], [1], num_vertices=4)
        assignment = np.array([0, 0, 1, 1])  # part 1 has no edges
        result = embed_partitioned(
            g, assignment, self._embedder, dimension=2, seed=0
        )
        np.testing.assert_array_equal(result.vectors[2:], 0.0)

    def test_validation(self, sbm):
        graph, _ = sbm
        with pytest.raises(GraphConstructionError):
            embed_partitioned(
                graph, np.zeros(3, int), self._embedder, dimension=4
            )
