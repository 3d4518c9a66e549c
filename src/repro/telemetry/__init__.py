"""repro.telemetry — hierarchical tracing, metrics and memory profiling.

The observability substrate for the whole pipeline (see
``docs/observability.md``).  Three pieces:

* **Spans** (:mod:`repro.telemetry.tracer`) — nested, thread-aware timed
  intervals forming a trace tree, exportable as Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``) or a JSONL event stream;
* **Metrics** (:mod:`repro.telemetry.metrics`) — counters, gauges and
  fixed-bucket histograms in a snapshot-able registry;
* **Memory** (:mod:`repro.telemetry.memory`) — a background RSS /
  ``tracemalloc`` peak sampler attachable to any span;
* **Workers** (:mod:`repro.telemetry.worker`) — the cross-process layer:
  pool workers spool their spans/metrics/memory to per-worker JSONL files
  and emit heartbeats; the parent merges the spools into the main tracer
  and registry (clock-corrected, per-pid Perfetto lanes) and flags stalled
  workers;
* **Progress** (:mod:`repro.telemetry.progress`) — single-line terminal
  progress driven by task completions and worker heartbeats (the CLI
  renders it whenever stderr is a terminal).

On top of the substrate sits the *persistence* layer:

* **Ledger** (:mod:`repro.telemetry.ledger`) — every pipeline run inside
  a ledger scope appends one :class:`RunRecord` (params hash, environment
  fingerprint, Table-5 stage times, metrics, peak RSS, stage digests) to a
  JSONL file;
* **Numerical health** (:mod:`repro.telemetry.health`) — per-stage
  content digests plus contract probes (sparsifier mass,
  factorization residual, finiteness), recorded into spans, metrics and
  the ledger's ``health``/``digests`` blocks under a configurable
  ``off|record|warn|raise`` policy;
* **Determinism audit** (:mod:`repro.telemetry.audit`, CLI
  ``lightne audit`` / ``python -m repro.telemetry.audit``) — diffs two
  ledger runs digest by digest and localizes the first diverging stage.

Everything is **disabled by default**: each hook in the hot paths checks
one flag and returns (``docs/observability.md`` has the measured tracer
cost).  One switch
turns all of it on for a block and writes the run bundle
(:mod:`repro.telemetry.bundle`: ``trace.json``, ``metrics.json``,
``runs.jsonl``, ``log.txt``)::

    from repro import telemetry

    with telemetry.observe("runs/r1"):
        result = lightne_embedding(graph, params, seed=0)

or from the CLI: ``lightne embed ... --observe runs/r1``.  The layers stay
usable one by one: :func:`enable` / :func:`disable` for spans and metrics,
``ledger.enabled_scope()`` for the ledger, ``health.policy_scope()`` for
the health policy (including ``raise``).
"""

from repro.telemetry.tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    disable,
    enable,
    get_tracer,
    is_enabled,
    span,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    PROBE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_metrics,
    histogram,
    reset_metrics,
)
from repro.telemetry.memory import (
    MemoryProfile,
    MemorySampler,
    current_rss_bytes,
    peak_rss_bytes,
    profile_memory,
)
from repro.telemetry.environment import collect_fingerprint, fingerprint_key
from repro.telemetry.ledger import RunLedger, RunRecord
from repro.telemetry.bundle import RunBundle, observe
from repro.telemetry.health import (
    HealthRecorder,
    ProbeResult,
    StageDigest,
    digest_csr,
    digest_dense,
    fingerprint,
)

# Submodules imported for attribute access (telemetry.progress.enable()
# etc.); ``worker`` must come after ``progress``, which it imports;
# ``health`` is also re-imported as a submodule so ``telemetry.health.
# policy_scope(...)`` works without a separate import.
from repro.telemetry import health
from repro.telemetry import progress
from repro.telemetry import worker

__all__ = [
    # tracer
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "current_span",
    "enable",
    "disable",
    "is_enabled",
    "get_tracer",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "get_metrics",
    "reset_metrics",
    "DEFAULT_LATENCY_BUCKETS",
    "PROBE_BUCKETS",
    # memory
    "MemoryProfile",
    "MemorySampler",
    "profile_memory",
    "current_rss_bytes",
    "peak_rss_bytes",
    # environment & ledger
    "collect_fingerprint",
    "fingerprint_key",
    "RunLedger",
    "RunRecord",
    # run bundle
    "RunBundle",
    "observe",
    # numerical health
    "HealthRecorder",
    "ProbeResult",
    "StageDigest",
    "digest_csr",
    "digest_dense",
    "fingerprint",
    "health",
    # cross-process layer
    "progress",
    "worker",
]
