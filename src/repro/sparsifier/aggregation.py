"""Edge-sample aggregation strategies (paper Section 4.2).

The paper considered several ways to count how often each distinct edge is
sampled: per-processor lists merged by GBBS's sparse histogram (a semisort),
per-processor hash tables merged periodically, and a single shared sparse
parallel hash table — the last being fastest and most memory-efficient on
their hardware.  We implement analogs of every strategy so benchmark E12 can
compare them:

* :func:`aggregate_hash` — the shared :class:`SparseParallelHashTable`;
* :func:`aggregate_hash_sharded` — per-processor tables over a hash
  partition of the key space, built concurrently and merged at the end
  (the paper's second alternative);
* :func:`aggregate_sort` — semisort analog: ``np.unique`` on packed keys;
* :func:`aggregate_histogram` — per-processor lists + sparse histogram;
* :func:`aggregate_dict` — plain Python dict (reference implementation used
  by the tests as ground truth).

All return identical ``(rows, cols, values)`` triples up to ordering.  The
hash-based aggregators accept an optional ``stats`` dict that receives
``peak_table_bytes`` (the backing-array footprint the paper's §5.2.4 memory
model tracks) and ``distinct`` entries.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.sparsifier.hashtable import SparseParallelHashTable, hash_partition
from repro.telemetry.metrics import PROBE_BUCKETS
from repro.utils.parallel import (
    SharedArrays,
    default_workers,
    parallel_map,
    resolve_backend,
)

Triple = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _record_table_metrics(table: SparseParallelHashTable, kind: str) -> None:
    """Publish a table's probe/occupancy figures to the metrics registry.

    No-ops (cheap: one ``is_enabled`` check) when telemetry is disabled.
    ``kind`` distinguishes the shared table from shard/merge tables.
    """
    if not telemetry.is_enabled():
        return
    metrics = telemetry.get_metrics()
    if table.insert_calls:
        metrics.histogram("hashtable.probe_rounds", PROBE_BUCKETS).observe(
            table.total_probe_rounds / table.insert_calls
        )
    metrics.gauge(f"hashtable.{kind}.load_factor").set(table.load_factor)
    metrics.gauge(f"hashtable.{kind}.max_probe_rounds").set_max(
        table.max_probe_rounds
    )
    metrics.counter("hashtable.distinct_keys").inc(len(table))
    metrics.gauge("hashtable.table_bytes").set_max(table.size_in_bytes())


def _as_arrays(rows, cols, values) -> Triple:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (rows.shape == cols.shape == values.shape):
        raise ValueError("rows, cols and values must be parallel arrays")
    return rows, cols, values


def aggregate_hash(
    rows,
    cols,
    values,
    n: int,
    *,
    batch_size: int = 1_000_000,
    stats: Optional[Dict[str, float]] = None,
) -> Triple:
    """Aggregate with the shared sparse parallel hash table (paper's choice)."""
    rows, cols, values = _as_arrays(rows, cols, values)
    with telemetry.span("aggregate.hash", samples=int(rows.size)):
        table = SparseParallelHashTable(capacity_hint=max(1024, rows.size // 4))
        for start in range(0, rows.size, batch_size):
            stop = start + batch_size
            table.add_pairs(
                rows[start:stop], cols[start:stop], values[start:stop], n
            )
    _record_table_metrics(table, "shared")
    if stats is not None:
        stats["peak_table_bytes"] = table.size_in_bytes()
        stats["distinct"] = len(table)
        stats["probe_rounds"] = table.total_probe_rounds
    return table.to_pairs(n)


def _build_shard(ctx, start: int, stop: int, batch_size: int):
    """Build one shard table — the sharded-aggregation task on every backend.

    ``ctx["keys"]``/``ctx["values"]`` hold the sample stream grouped by
    shard with a stable sort (plain arrays on the thread backend, a
    :class:`~repro.utils.parallel.SharedArrays` segment on the process
    backend), so ``[start, stop)`` is one shard's keys in stream order and
    the table — and therefore its ``items()`` order — is the same on every
    backend and worker count.  Returns the compacted ``(keys, values)`` plus
    (table_bytes, distinct, probe_rounds) telemetry; shipping the compacted
    items instead of the table keeps a process worker's pickled result
    proportional to the distinct-edge count, not the sample count.
    """
    shard_keys = ctx["keys"][start:stop]
    shard_values = ctx["values"][start:stop]
    with telemetry.span(
        "aggregate.shard", start=int(start), stop=int(stop),
        size=int(shard_keys.size),
    ):
        table = SparseParallelHashTable(capacity_hint=max(64, shard_keys.size // 4))
        for batch_start in range(0, shard_keys.size, batch_size):
            batch_stop = batch_start + batch_size
            table.add_batch(
                shard_keys[batch_start:batch_stop],
                shard_values[batch_start:batch_stop],
            )
    _record_table_metrics(table, "shard")
    out_keys, out_values = table.items()
    return out_keys, out_values, (
        table.size_in_bytes(), len(table), table.total_probe_rounds
    )


def aggregate_hash_sharded(
    rows,
    cols,
    values,
    n: int,
    *,
    num_shards: Optional[int] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    batch_size: int = 1_000_000,
    stats: Optional[Dict[str, float]] = None,
) -> Triple:
    """Per-processor hash tables over a hash partition of the key space.

    The §4.2 alternative to the single shared table: the packed ``row*n+col``
    keys are partitioned by :func:`hash_partition` into ``num_shards``
    disjoint slices, each slice is accumulated into its own
    :class:`SparseParallelHashTable` (concurrently, on a thread pool, when
    ``workers > 1``), and the shard tables are merged into one result table
    via ``add_batch``.  Because shard membership is a pure function of the
    key, the aggregated key set always matches :func:`aggregate_hash`, and
    for a *fixed* ``num_shards`` the output is bit-identical for every
    ``workers`` value.  Varying ``num_shards`` can permute the output order
    and reassociate floating-point sums (values then agree only up to
    rounding).

    ``num_shards`` defaults to the resolved worker count; ``workers=None``
    resolves to :func:`repro.utils.parallel.default_workers`.

    Both backends group the packed keys/values by shard with a stable sort
    and run the same task over contiguous slices.  ``backend="process"``
    builds the shard tables in worker *processes*, publishing the grouped
    arrays once through a shared-memory segment
    (:class:`~repro.utils.parallel.SharedArrays`, unlinked before this
    returns or raises); the compacted per-shard items come back for the
    same ``add_batch`` merge.  Because each shard table sees the identical
    key sequence and batch boundaries on both backends, the output is
    bit-identical to ``backend="thread"`` at every worker count (for a fixed
    ``num_shards``).
    """
    rows, cols, values = _as_arrays(rows, cols, values)
    backend = resolve_backend(backend)
    if workers is None:
        workers = default_workers()
    if num_shards is None:
        num_shards = max(1, workers)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if rows.size == 0:
        return rows, cols, values
    keys = rows * np.int64(n) + cols
    shard_of = hash_partition(keys, num_shards)
    order = np.argsort(shard_of, kind="stable")
    bounds = np.zeros(num_shards + 1, dtype=np.int64)
    np.cumsum(np.bincount(shard_of, minlength=num_shards), out=bounds[1:])
    args = [
        (int(bounds[shard]), int(bounds[shard + 1]), batch_size)
        for shard in range(num_shards)
    ]
    if backend == "process" and workers > 1:
        store = SharedArrays(keys.size, {"keys": np.int64, "values": np.float64})
    else:
        store = nullcontext(
            {"keys": np.empty_like(keys), "values": np.empty_like(values)}
        )
    with store as grouped:
        np.take(keys, order, out=grouped["keys"])
        np.take(values, order, out=grouped["values"])
        del order
        shard_items = parallel_map(
            _build_shard,
            args,
            context=grouped,
            workers=workers,
            backend=backend,
            label="sparsifier.aggregation",
        )

    with telemetry.span("aggregate.merge", shards=num_shards):
        merged = SparseParallelHashTable(
            capacity_hint=max(1024, sum(item[2][1] for item in shard_items))
        )
        for shard_keys, shard_values, _ in shard_items:
            merged.add_batch(shard_keys, shard_values)
    _record_table_metrics(merged, "merged")
    if stats is not None:
        shard_bytes = sum(item[2][0] for item in shard_items)
        # Shard tables and the merged table coexist during the merge.
        stats["peak_table_bytes"] = shard_bytes + merged.size_in_bytes()
        stats["shard_table_bytes"] = shard_bytes
        stats["num_shards"] = num_shards
        stats["distinct"] = len(merged)
        stats["probe_rounds"] = merged.total_probe_rounds + sum(
            item[2][2] for item in shard_items
        )
    return merged.to_pairs(n)


def aggregate_sort(rows, cols, values, n: int) -> Triple:
    """Semisort-analog aggregation: sort packed keys, reduce runs."""
    rows, cols, values = _as_arrays(rows, cols, values)
    if rows.size == 0:
        return rows, cols, values
    keys = rows * np.int64(n) + cols
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(unique_keys.size)
    np.add.at(sums, inverse, values)
    return unique_keys // n, unique_keys % n, sums


def aggregate_histogram(
    rows, cols, values, n: int, *, num_partitions: int = 8
) -> Triple:
    """Per-processor lists merged by a sparse histogram (GBBS alternative #1).

    Simulates the first strategy §4.2 considered: each "processor" buffers
    its own list of samples; the merge phase builds a histogram over the
    union.  We partition the stream round-robin (as a work-stealing scheduler
    would), locally sort-reduce each partition, then merge the partial
    histograms.  Results match the other aggregators exactly.
    """
    rows, cols, values = _as_arrays(rows, cols, values)
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if rows.size == 0:
        return rows, cols, values
    partials = []
    for start in range(num_partitions):
        sl = slice(start, None, num_partitions)
        if rows[sl].size:
            partials.append(aggregate_sort(rows[sl], cols[sl], values[sl], n))
    merged_rows = np.concatenate([p[0] for p in partials])
    merged_cols = np.concatenate([p[1] for p in partials])
    merged_vals = np.concatenate([p[2] for p in partials])
    return aggregate_sort(merged_rows, merged_cols, merged_vals, n)


def aggregate_dict(rows, cols, values, n: int) -> Triple:
    """Reference dict-of-floats aggregation (slow, obviously correct)."""
    rows, cols, values = _as_arrays(rows, cols, values)
    table: Dict[int, float] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        key = r * n + c
        table[key] = table.get(key, 0.0) + v
    if not table:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0)
    keys = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
    sums = np.fromiter(table.values(), dtype=np.float64, count=len(table))
    return keys // n, keys % n, sums
