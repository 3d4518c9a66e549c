"""Chunked parallel-map helpers — the Python analog of GBBS bulk parallelism.

The paper's C++ substrate executes ``MapEdges`` style primitives with a
work-stealing scheduler.  In Python the heavy lifting happens inside numpy
kernels (which release the GIL), so the default shape is: split the index
space into chunks, run one vectorized task per chunk, optionally on a worker
pool.  ``parallel_map`` degrades gracefully to a serial loop when
``workers <= 1``, which keeps unit tests deterministic and cheap.

Every task runs as ``func(context, *args)``: ``context`` is the read-only
state all tasks share (a graph, derived arrays, scalar settings) and the
argument tuple is what one task owns (a batch of indices, its RNG stream).
How the context reaches a task depends on the execution backend:

* serial (``workers <= 1``) and ``backend="thread"`` (default, a
  ``ThreadPoolExecutor``) — the caller's object itself, never copied.
  Right for numpy-kernel-dominated tasks (the kernels release the GIL).
  With tracing on, every thread task runs under the span that called
  ``parallel_map``, so the spans a task opens nest under the stage that
  dispatched it.
* ``backend="process"`` — a ``ProcessPoolExecutor``.  Escapes the GIL for
  Python-side batching and keeps large per-task temporaries in the worker
  processes' address spaces (the out-of-core execution mode's substrate).
  The pool initializer installs the context once per worker: under the
  ``fork`` start method the worker inherits the parent's object (pages are
  shared copy-on-write, nothing is pickled); under ``spawn``/``forkserver``
  it is pickled once per worker.  Large objects choose their own pickled
  form — a memmapped :class:`~repro.graph.csr.CSRGraph` travels as its
  container path and a :class:`SharedArrays` as its segment name, so
  workers reopen or attach instead of receiving copies.  Tasks must be
  module-level functions; argument tuples and results are pickled per task.

Failure semantics (both backends): the first task that raises wins — every
not-yet-started task is cancelled, the pool is torn down, and the original
exception is re-raised.  A process worker that dies (killed, segfault,
``os._exit``) surfaces as :class:`~repro.errors.WorkerError` naming the
stage ``label``, with the executor's ``BrokenProcessPool`` as its cause.

Observability: when telemetry or progress rendering is enabled, a
process-backend ``parallel_map`` transparently installs the cross-process
telemetry shim (:mod:`repro.telemetry.worker`) in every worker — worker
spans/metrics/memory spool to per-worker files and are merged into the
parent tracer/registry when the pool finishes, and worker heartbeats feed
a stall detector.  ``label`` names the stage for progress lines, stall
warnings, worker Perfetto lanes and worker-death errors; with telemetry off
and no progress the whole machinery is skipped (one gated call).
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import WorkerError

T = TypeVar("T")

BACKENDS = ("thread", "process")


def default_workers() -> int:
    """Worker count used when callers pass ``workers=None``."""
    return min(8, os.cpu_count() or 1)


def resolve_backend(backend: Optional[str]) -> str:
    """Validate and normalize an execution-backend name.

    ``None`` means "the default" (``"thread"``); anything else must be one of
    :data:`BACKENDS`.
    """
    if backend is None:
        return "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


def chunk_ranges(total: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``chunks`` contiguous half-open ranges.

    The first ``total % chunks`` ranges get one extra element so sizes differ
    by at most one.  Empty ranges are never returned.

    >>> chunk_ranges(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if chunks <= 0:
        raise ValueError(f"chunks must be positive, got {chunks}")
    chunks = min(chunks, total) or 1
    base, extra = divmod(total, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        ranges.append((start, start + size))
        start += size
    return ranges


def _attach_progress(futures, label: Optional[str]) -> None:
    """Feed parent-side task completions into the progress renderer."""
    if label is None:
        return
    from repro.telemetry import progress

    if not progress.is_enabled():
        return
    progress.begin(label, total=len(futures))
    for future in futures:
        future.add_done_callback(lambda _f: progress.task_completed(label))


def _collect_fail_fast(pool, futures) -> List[T]:
    """Results in submission order; on first failure cancel the rest, re-raise.

    ``wait(..., FIRST_EXCEPTION)`` returns as soon as any future raises (or
    all complete); pending futures are then cancelled before the original
    exception propagates, so one bad batch does not leave the rest of the
    queue burning CPU behind the traceback.
    """
    done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
    failed = next(
        (f for f in futures if f in done and f.exception() is not None), None
    )
    if failed is not None:
        for future in not_done:
            future.cancel()
        pool.shutdown(wait=True, cancel_futures=True)
        raise failed.exception()
    return [future.result() for future in futures]


class SharedArrays:
    """Equal-length 1-D arrays published through one shared-memory segment.

    The creating process allocates the arrays, fills them in place through
    ``shared[name]`` and finally calls :meth:`close` (or uses the object as
    a context manager), which unlinks the segment.  The pickled form is the
    segment name plus the layout, so a process-pool context holding a
    ``SharedArrays`` reaches spawned workers as a name they attach to —
    never as a copy of the data — and forked workers inherit the mapping.

    >>> with SharedArrays(3, {"keys": np.int64}) as shared:
    ...     shared["keys"][:] = [4, 5, 6]
    ...     int(shared["keys"].sum())
    15
    """

    def __init__(
        self, size: int, dtypes: Dict[str, object], name: Optional[str] = None
    ) -> None:
        self.size = int(size)
        self.dtypes = {key: np.dtype(dtype) for key, dtype in dtypes.items()}
        nbytes = sum(self.size * dtype.itemsize for dtype in self.dtypes.values())
        self._owner = name is None
        if self._owner:
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        self._arrays: Dict[str, np.ndarray] = {}
        offset = 0
        for key, dtype in self.dtypes.items():
            self._arrays[key] = np.ndarray(
                self.size, dtype=dtype, buffer=self._shm.buf, offset=offset
            )
            offset += self.size * dtype.itemsize

    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def __reduce__(self):
        return SharedArrays, (self.size, self.dtypes, self._shm.name)

    def close(self) -> None:
        """Unlink (creating process only), drop the views and unmap."""
        if self._owner:
            self._shm.unlink()
        self._arrays.clear()
        try:
            self._shm.close()
        except BufferError:
            # A caller still holds a view (e.g. a traceback frame of a failed
            # task); the mapping goes away with the last view.
            pass

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# The context of the calling ``parallel_map``, installed in each process-pool
# worker by :func:`_install_context` (the pool initializer).
_worker_context: object = None


def _install_context(context: object) -> None:
    global _worker_context
    _worker_context = context


def _run_in_context(func: Callable[..., T], *args) -> T:
    return func(_worker_context, *args)


def parallel_map(
    func: Callable[..., T],
    argument_tuples: Sequence[tuple],
    *,
    context: object = None,
    workers: int = 1,
    backend: str = "thread",
    label: Optional[str] = None,
) -> List[T]:
    """Apply ``func(context, *args)`` for every tuple, serially or on a pool.

    Results are returned in input order regardless of completion order.

    Parameters
    ----------
    context:
        Read-only state shared by every task, passed as the first argument
        (see the module docstring for how each backend delivers it).
    workers:
        Pool width; ``None`` resolves to :func:`default_workers`, ``<= 1``
        runs a plain serial loop.
    backend:
        ``"thread"`` (default) or ``"process"`` — see the module docstring.
        Process tasks must be picklable module-level callables.
    label:
        Stage name for observability: the stderr progress line,
        stall-detector warnings, worker trace lanes and
        :class:`~repro.errors.WorkerError` messages.  ``None`` opts the call
        out of progress rendering (telemetry spooling still engages for
        process pools when tracing is on, under the generic ``"parallel"``
        label).
    """
    backend = resolve_backend(backend)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(argument_tuples) <= 1:
        return [func(context, *args) for args in argument_tuples]
    if backend == "process":
        # Cross-process telemetry: with tracing or progress on, chain the
        # worker shim in front of the context installer, wrap each task so
        # workers account completions, and merge the spools afterwards.
        from repro.telemetry import worker as worker_telemetry

        collector = worker_telemetry.maybe_collector(label, len(argument_tuples))
        initializer, initargs = _install_context, (context,)
        if collector is not None:
            initializer, initargs = collector.initializer(initializer, initargs)
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(argument_tuples)),
            initializer=initializer,
            initargs=initargs,
        )
        try:
            with pool:
                if collector is not None:
                    collector.start()
                    futures = [
                        pool.submit(
                            worker_telemetry.run_task, _run_in_context,
                            (func, *args),
                        )
                        for args in argument_tuples
                    ]
                else:
                    futures = [
                        pool.submit(_run_in_context, func, *args)
                        for args in argument_tuples
                    ]
                _attach_progress(futures, label)
                return _collect_fail_fast(pool, futures)
        except BrokenProcessPool as exc:
            raise WorkerError(
                f"{label or 'parallel'}: a worker process died ({exc})"
            ) from exc
        finally:
            if collector is not None:
                collector.finish()
    from repro.telemetry.tracer import bind_current_span

    task = bind_current_span(func)
    pool = ThreadPoolExecutor(max_workers=workers)
    with pool:
        futures = [pool.submit(task, context, *args) for args in argument_tuples]
        _attach_progress(futures, label)
        return _collect_fail_fast(pool, futures)
