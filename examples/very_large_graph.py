#!/usr/bin/env python
"""The very-large-graph recipe (paper §5.3) at laptop scale.

Demonstrates every memory lever the paper pulls for its 100-billion-edge
runs, on a scaled-down crawl:

* Ligra+ parallel-byte **compression** of the input graph (the paper shrinks
  ClueWeb from 564 GB to 107 GB; we print our ratio and embed the CSR);
* **degree downsampling** to keep the sparsifier at O(n log n) entries;
* the §5.3 hyper-parameters — T=2, d=32, **no spectral propagation**;
* the Figure-3 effect: HITS@K grows as the sample budget M grows.

Run:  python examples/very_large_graph.py
"""

from __future__ import annotations

from repro import LightNEParams, compress_graph, lightne_embedding, rmat_graph
from repro.eval import evaluate_link_prediction, train_test_split_edges
from repro.systems.memory import hash_table_bytes


def main() -> None:
    graph = rmat_graph(scale=13, edge_factor=10, seed=3)
    print(f"crawl analog: {graph}")

    compressed = compress_graph(graph, block_size=64)
    raw_bytes = graph.offsets.nbytes + graph.targets.nbytes
    print(
        f"compression: {raw_bytes:,} B CSR -> {compressed.size_in_bytes():,} B "
        f"({compressed.size_in_bytes() / raw_bytes:.2f}x)  "
        "(paper: ClueWeb 564 GB -> 107 GB)"
    )

    train, pos_u, pos_v = train_test_split_edges(graph, 0.002, seed=0)
    print(f"link-prediction split: {pos_u.size} held-out edges\n")

    print(f"{'M':>7} {'samples':>10} {'sparsifier nnz':>15} "
          f"{'table bytes':>12} {'HITS@10':>8} {'HITS@50':>8}")
    for multiplier in (0.25, 1.0, 4.0):
        params = LightNEParams.very_large(dimension=32).with_multiplier(multiplier)
        result = lightne_embedding(train, params, seed=0)
        metrics = evaluate_link_prediction(
            result.vectors, pos_u, pos_v, num_negatives=200, ks=(10, 50), seed=0
        )
        nnz = result.info["sparsifier_nnz"]
        print(
            f"{format(multiplier, 'g') + 'Tm':>7} "
            f"{result.info['num_draws']:>10,} {nnz:>15,} "
            f"{hash_table_bytes(nnz):>12,} "
            f"{metrics.hits[10]:>8.3f} {metrics.hits[50]:>8.3f}"
        )

    print(
        "\nAs in Figure 3: more samples -> higher HITS@K, with memory "
        "growing only via distinct sparsifier entries (hash table), not "
        "via the raw sample count."
    )


if __name__ == "__main__":
    main()
