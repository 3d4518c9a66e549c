"""The run ledger: every pipeline run becomes one persisted ``RunRecord``.

Spans and metrics evaporate at process exit; the ledger keeps what a later
comparison needs.  Each run appends one structured JSON line — method,
canonical params hash, dataset, seed, environment fingerprint, the Table-5
per-stage wall times lifted from the run's
:class:`~repro.utils.timer.StageTimer`, a compacted metrics snapshot, peak
RSS, optional quality metrics and the numerical-health ``digests`` — via a
crash-safe atomic append (:func:`repro.utils.fileio.append_line`).
Downstream, ``lightne audit`` (:mod:`repro.telemetry.audit`) diffs two
records' stage digests.

Recording is **opt-in** and piggybacks on :func:`repro.embedding.base.run_pipeline`:
runs inside an :func:`enabled_scope` block are recorded.  The CLI's
``--observe DIR`` bundle (:func:`repro.telemetry.bundle.observe`) opens one
on ``DIR/runs.jsonl``.

Because graphs don't know their dataset name (``CSRGraph`` is slotted),
the dataset travels through a module-level context: loaders call
:func:`set_dataset` and the next recorded runs carry that name.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.telemetry.environment import collect_fingerprint, fingerprint_key
from repro.utils.fileio import append_line
from repro.utils.log import get_logger

logger = get_logger(__name__)

SCHEMA_VERSION = 1

# Fields every schema-valid record line must carry.
REQUIRED_FIELDS = (
    "schema",
    "run_id",
    "timestamp",
    "method",
    "dataset",
    "params",
    "params_hash",
    "env",
    "fingerprint",
    "stages",
    "total_s",
)


def params_hash(params: Mapping[str, object]) -> str:
    """Canonical short hash of a params dict (order-independent)."""
    payload = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def compact_metrics(snapshot: Mapping[str, object]) -> Dict[str, object]:
    """Shrink a registry snapshot for ledger lines.

    Counters and gauges pass through; histograms keep only their summary
    stats (bucket arrays would dominate the line size without helping
    cross-run comparison).
    """
    histograms = {}
    for name, hist in dict(snapshot.get("histograms", {})).items():
        histograms[name] = {
            key: hist.get(key) for key in ("count", "sum", "mean", "min", "max")
        }
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": histograms,
    }


@dataclass
class RunRecord:
    """One persisted run: identity, environment, timings, metrics, quality."""

    method: str
    dataset: str
    params: Dict[str, object] = field(default_factory=dict)
    stages: Dict[str, float] = field(default_factory=dict)
    total_s: float = 0.0
    seed: Optional[int] = None
    env: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    quality: Dict[str, float] = field(default_factory=dict)
    # Numerical-health blocks (repro.telemetry.health): ``digests`` maps
    # stage name -> content-digest hex, ``health`` holds the full recorder
    # summary (policy, per-stage stats, probe results).  Both empty when the
    # run recorded with the health layer off; optional for old ledger lines.
    health: Dict[str, object] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    peak_rss_bytes: Optional[int] = None
    context: str = ""
    extra: Dict[str, object] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    timestamp: float = field(default_factory=time.time)
    params_hash: str = ""
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.params_hash:
            self.params_hash = params_hash(self.params)
        if not self.fingerprint:
            self.fingerprint = fingerprint_key(self.env) if self.env else ""

    # ----------------------------------------------------------- (de)ser
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dict, field order fixed for readable lines."""
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "method": self.method,
            "dataset": self.dataset,
            "seed": self.seed,
            "params": self.params,
            "params_hash": self.params_hash,
            "env": self.env,
            "fingerprint": self.fingerprint,
            "stages": self.stages,
            "total_s": self.total_s,
            "peak_rss_bytes": self.peak_rss_bytes,
            "metrics": self.metrics,
            "quality": self.quality,
            "health": self.health,
            "digests": self.digests,
            "context": self.context,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        """The record as one JSONL line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=False, default=str)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        """Rebuild a record from a parsed ledger line (tolerant of extras)."""
        return cls(
            method=str(data.get("method", "")),
            dataset=str(data.get("dataset", "")),
            params=dict(data.get("params") or {}),
            stages={
                str(k): v for k, v in dict(data.get("stages") or {}).items()
            },
            total_s=float(data.get("total_s") or 0.0),
            seed=data.get("seed"),  # type: ignore[arg-type]
            env=dict(data.get("env") or {}),
            metrics=dict(data.get("metrics") or {}),
            quality=dict(data.get("quality") or {}),
            health=dict(data.get("health") or {}),
            digests={
                str(k): str(v)
                for k, v in dict(data.get("digests") or {}).items()
            },
            peak_rss_bytes=data.get("peak_rss_bytes"),  # type: ignore[arg-type]
            context=str(data.get("context") or ""),
            extra=dict(data.get("extra") or {}),
            schema=int(data.get("schema") or SCHEMA_VERSION),
            run_id=str(data.get("run_id") or uuid.uuid4().hex[:12]),
            timestamp=float(data.get("timestamp") or 0.0),
            params_hash=str(data.get("params_hash") or ""),
            fingerprint=str(data.get("fingerprint") or ""),
        )


def validate_record(data: Mapping[str, object]) -> List[str]:
    """Schema problems in a parsed ledger line (empty list = valid)."""
    problems = [f"missing field {name!r}" for name in REQUIRED_FIELDS if name not in data]
    if "stages" in data and not isinstance(data["stages"], Mapping):
        problems.append("'stages' must be an object")
    if "params" in data and not isinstance(data["params"], Mapping):
        problems.append("'params' must be an object")
    if "schema" in data and data["schema"] != SCHEMA_VERSION:
        problems.append(
            f"schema version {data['schema']!r} != {SCHEMA_VERSION}"
        )
    return problems


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` lines."""

    def __init__(self, path: Union[str, "os.PathLike"]) -> None:
        self.path = os.fspath(path)

    def append(self, record: RunRecord) -> RunRecord:
        """Persist ``record`` as one atomically appended line."""
        append_line(self.path, record.to_json())
        return record

    def iter_records(self) -> Iterator[RunRecord]:
        """Yield parsed records, skipping (and logging) malformed lines."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    logger.warning(
                        "ledger %s: skipping malformed line %d", self.path, lineno
                    )
                    continue
                if not isinstance(data, dict) or "method" not in data:
                    logger.warning(
                        "ledger %s: skipping non-record line %d", self.path, lineno
                    )
                    continue
                yield RunRecord.from_dict(data)

    def records(self) -> List[RunRecord]:
        """All parseable records, in append (chronological) order."""
        return list(self.iter_records())


# ---------------------------------------------------------------------------
# Process-level opt-in state: is recording on, where, and for which dataset.
# ---------------------------------------------------------------------------

_state_lock = threading.Lock()
_enabled = False
_path: Optional[str] = None
_dataset: Optional[str] = None


def is_enabled() -> bool:
    """Whether runs are currently recorded (inside an :func:`enabled_scope`)."""
    return _enabled


def active_path() -> Optional[str]:
    """The ledger file new records go to (``None`` outside any scope)."""
    return _path


def set_dataset(name: Optional[str]) -> None:
    """Declare the dataset subsequent runs operate on (loader hook)."""
    global _dataset
    _dataset = name


def current_dataset() -> Optional[str]:
    """The dataset name the next record will carry (``None`` = unknown)."""
    return _dataset


@contextmanager
def enabled_scope(
    path: Union[str, "os.PathLike"],
    dataset: Optional[str] = None,
) -> Iterator[None]:
    """Record every run in the block to the ledger at ``path``; the previous
    state returns on exit."""
    global _enabled, _path, _dataset
    with _state_lock:
        prev = (_enabled, _path, _dataset)
        _enabled = True
        _path = os.fspath(path)
        if dataset is not None:
            _dataset = dataset
    try:
        yield
    finally:
        with _state_lock:
            _enabled, _path, _dataset = prev


# ---------------------------------------------------------------------------
# Record construction from an EmbeddingResult.
# ---------------------------------------------------------------------------


def _registry_stage_order(method: str) -> Tuple[str, ...]:
    """The method's declared Table-5 stage order (empty when unregistered)."""
    try:
        from repro.embedding.registry import get_method

        return tuple(get_method(method).stages)
    except Exception:
        return ()


def _peak_rss(metrics: Mapping[str, object]) -> Optional[int]:
    """Peak RSS: the profiled gauge when present, else the OS lifetime peak."""
    gauges = metrics.get("gauges", {})
    if isinstance(gauges, Mapping):
        gauge = gauges.get("memory.rss_peak_bytes")
        if isinstance(gauge, Mapping) and gauge.get("max") is not None:
            return int(gauge["max"])  # type: ignore[arg-type]
    from repro.telemetry.memory import peak_rss_bytes

    peak = peak_rss_bytes()
    return int(peak) if peak is not None else None


WORKER_SECONDS_PREFIX = "worker.seconds."


def _worker_stage_seconds(metrics: Mapping[str, object]) -> Dict[str, float]:
    """Merged worker span-seconds, keyed ``worker.<span name>``.

    These come from the cross-process spool merge
    (:func:`repro.telemetry.worker.merge_spools` publishes per-span-name
    ``worker.seconds.*`` counters) and are recorded as *extra* stage rows —
    never folded into ``total_s``, which stays the parent's wall-clock sum
    (worker seconds overlap it).
    """
    counters = metrics.get("counters", {})
    stages: Dict[str, float] = {}
    if isinstance(counters, Mapping):
        for name, value in counters.items():
            if not str(name).startswith(WORKER_SECONDS_PREFIX):
                continue
            try:
                seconds = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
            stages[f"worker.{str(name)[len(WORKER_SECONDS_PREFIX):]}"] = seconds
    return stages


def _worker_memory_extra(metrics: Mapping[str, object]) -> Dict[str, object]:
    """Per-worker peak memory gauges, compacted for the ``extra`` field."""
    gauges = metrics.get("gauges", {})
    out: Dict[str, object] = {}
    if not isinstance(gauges, Mapping):
        return out
    peaks: List[Tuple[int, int]] = []
    for name, reading in gauges.items():
        name = str(name)
        if not (
            name.startswith("parallel.worker.")
            and name.endswith(".rss_peak_bytes")
        ):
            continue
        if not isinstance(reading, Mapping) or reading.get("max") is None:
            continue
        try:
            index = int(name.split(".")[2])
            peaks.append((index, int(reading["max"])))  # type: ignore[arg-type]
        except (TypeError, ValueError, IndexError):
            continue
    if peaks:
        out["worker_rss_peak_bytes"] = [v for _, v in sorted(peaks)]
    fleet = gauges.get("parallel.worker_rss_peak_bytes")
    if isinstance(fleet, Mapping) and fleet.get("max") is not None:
        out["worker_rss_peak_max_bytes"] = int(fleet["max"])  # type: ignore[arg-type]
    return out


def build_record(
    result,
    *,
    dataset: Optional[str] = None,
    seed: Optional[object] = None,
    quality: Optional[Mapping[str, float]] = None,
    context: str = "",
    extra: Optional[Mapping[str, object]] = None,
) -> RunRecord:
    """Turn an :class:`~repro.embedding.base.EmbeddingResult` into a record.

    Stage timings come from the result's ``StageTimer`` in the **registry's
    declared stage order** (Table 5 columns), so cross-run diffs line up
    column-for-column regardless of the order stages happened to execute.
    Process-backend runs with telemetry on additionally carry merged worker
    stage-seconds as ``worker.<name>`` stage rows and per-worker peak RSS
    under ``extra``; the resolved worker count and backend are recorded in
    ``extra`` for *every* run, telemetry or not.
    """
    info = dict(getattr(result, "info", {}) or {})
    env = info.get("env") or collect_fingerprint()
    raw_metrics = {}
    telemetry_info = info.get("telemetry")
    if isinstance(telemetry_info, Mapping):
        snapshot = telemetry_info.get("metrics")
        if isinstance(snapshot, Mapping):
            raw_metrics = compact_metrics(snapshot)
    params = dict(info.get("params") or {})
    order = _registry_stage_order(result.method)
    stages = {
        name: float(secs)
        for name, secs in result.timer.ordered_stages(order).items()
    }
    stages.update(_worker_stage_seconds(raw_metrics))
    record_extra = dict(extra or {})
    record_extra.update(_worker_memory_extra(raw_metrics))
    if "backend" not in record_extra:
        record_extra["backend"] = str(
            info.get("resolved_backend") or params.get("backend") or "thread"
        )
    if "resolved_workers" not in record_extra:
        resolved = info.get("resolved_workers")
        if resolved is None:
            if "workers" in params:
                from repro.utils.parallel import default_workers

                resolved = params["workers"] or default_workers()
            else:
                resolved = 1
        record_extra["resolved_workers"] = int(resolved)
    health_block = info.get("health")
    digest_block = info.get("digests")
    return RunRecord(
        method=result.method,
        dataset=dataset or current_dataset() or "unknown",
        params=params,
        stages=stages,
        total_s=float(result.timer.total),
        seed=seed if isinstance(seed, int) else None,
        env=dict(env),
        metrics=raw_metrics,
        quality=dict(quality or {}),
        health=dict(health_block) if isinstance(health_block, Mapping) else {},
        digests=dict(digest_block) if isinstance(digest_block, Mapping) else {},
        peak_rss_bytes=_peak_rss(raw_metrics),
        context=context,
        extra=record_extra,
    )


def record_result(
    result,
    *,
    path: Optional[Union[str, "os.PathLike"]] = None,
    dataset: Optional[str] = None,
    seed: Optional[object] = None,
    quality: Optional[Mapping[str, float]] = None,
    context: str = "",
    extra: Optional[Mapping[str, object]] = None,
) -> RunRecord:
    """Build a record from ``result`` and append it to the ledger at
    ``path`` (default: the enclosing :func:`enabled_scope`'s)."""
    path = path if path is not None else active_path()
    if path is None:
        raise ValueError("record_result needs a path outside a ledger scope")
    record = build_record(
        result, dataset=dataset, seed=seed, quality=quality,
        context=context, extra=extra,
    )
    RunLedger(path).append(record)
    return record


def maybe_record(
    result,
    *,
    seed: Optional[object] = None,
    context: str = "",
) -> Optional[RunRecord]:
    """Record ``result`` iff the ledger is enabled; never raises.

    This is the :func:`run_pipeline` hook: a failed append (read-only
    filesystem, bad path) logs a warning instead of failing the embedding
    run that produced the result.
    """
    if not is_enabled():
        return None
    try:
        return record_result(result, seed=seed, context=context)
    except Exception as exc:
        logger.warning("run ledger append failed: %s", exc)
        return None
