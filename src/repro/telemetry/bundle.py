"""One switch for a complete run record: the ``--observe DIR`` run bundle.

:func:`observe` turns every observability layer on for one block and
leaves behind a directory describing it:

``DIR/trace.json``
    Chrome/Perfetto trace of every span (worker lanes included);
``DIR/metrics.json``
    the metrics-registry snapshot, with the ``memory.rss_peak_bytes`` gauge
    sampled on the root span;
``DIR/runs.jsonl``
    one ledger :class:`~repro.telemetry.ledger.RunRecord` per pipeline run,
    carrying stage ``digests`` (health policy ``warn``).  It *appends*, so
    two runs into one directory can be diffed with
    ``lightne audit --ledger DIR/runs.jsonl 1 2``;
``DIR/log.txt``
    every library log line, DEBUG and up.

``trace.json``, ``metrics.json`` and ``log.txt`` describe the last block
observed into the directory.  They are written on exit, including exit by
exception, and every piece of process state the block changed (tracer,
ledger scope, health policy, ``repro`` logger) is restored.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.telemetry import health
from repro.telemetry import ledger
from repro.telemetry import metrics as metrics_mod
from repro.telemetry import tracer as tracer_mod
from repro.telemetry.memory import profile_memory
from repro.utils.log import log_to

TRACE_FILE = "trace.json"
METRICS_FILE = "metrics.json"
LEDGER_FILE = "runs.jsonl"
LOG_FILE = "log.txt"


@dataclass
class RunBundle:
    """What one :func:`observe` block wrote (filled in on exit)."""

    directory: str
    span_count: int = 0
    ledger_lines: int = 0
    rss_peak_bytes: Optional[int] = None

    def path(self, name: str) -> str:
        """Path of one bundle file (``trace.json``, ``runs.jsonl``, ...)."""
        return os.path.join(self.directory, name)

    def summary(self) -> str:
        """One line naming the directory and what was written into it."""
        parts = [
            f"spans={self.span_count}",
            f"ledger lines appended={self.ledger_lines}",
        ]
        if self.rss_peak_bytes is not None:
            parts.append(f"peak RSS={self.rss_peak_bytes / (1 << 20):,.1f} MiB")
        return f"run bundle -> {self.directory}: {', '.join(parts)}"


def _count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


@contextmanager
def observe(
    directory: Union[str, "os.PathLike"],
    span_name: str = "observe",
    **attributes: object,
) -> Iterator[RunBundle]:
    """Record the block into the run bundle ``directory``.

    The block runs under a fresh tracer (metrics reset) inside a root span
    ``span_name`` carrying ``attributes`` and the sampled RSS peak, with the
    run ledger on ``directory/runs.jsonl``, health policy ``warn`` and a
    DEBUG file handler on ``directory/log.txt``.  Yields the
    :class:`RunBundle`, whose counts are filled in on exit.
    """
    bundle = RunBundle(os.fspath(directory))
    os.makedirs(bundle.directory, exist_ok=True)
    ledger_path = bundle.path(LEDGER_FILE)
    lines_before = _count_lines(ledger_path)
    log_file = logging.FileHandler(bundle.path(LOG_FILE), mode="w")
    previous_tracer = tracer_mod.get_tracer()
    tracer = tracer_mod.enable()
    metrics_mod.reset_metrics()
    sampler = None
    try:
        with log_to(log_file, logging.DEBUG), ledger.enabled_scope(
            path=ledger_path
        ), health.policy_scope("warn"):
            with tracer.span(span_name, **attributes) as root, profile_memory(
                span=root
            ) as sampler:
                yield bundle
    finally:
        # The root span is closed and the RSS peak published by now.
        tracer.write_chrome_trace(bundle.path(TRACE_FILE))
        metrics_mod.get_metrics().write_json(bundle.path(METRICS_FILE))
        if previous_tracer is None:
            tracer_mod.disable()
        else:
            tracer_mod.enable(previous_tracer)
        bundle.span_count = tracer.span_count
        bundle.ledger_lines = _count_lines(ledger_path) - lines_before
        if sampler is not None and sampler.profile is not None:
            bundle.rss_peak_bytes = sampler.profile.rss_peak_bytes
