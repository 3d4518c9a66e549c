"""Crash-safe file primitives shared by the telemetry exporters and ledger.

Two write disciplines, for two failure modes:

* **Replace-on-success** (:func:`atomic_write_text` /
  :func:`atomic_write_json`) — the payload is staged in a temp file in the
  destination directory, flushed, fsynced and then :func:`os.replace`-d over
  the target.  A run killed mid-write leaves the *previous* file intact
  instead of a truncated ``metrics.json`` / ``trace.json``.
* **Append-only** (:func:`append_line`) — one line per call, written with a
  single ``os.write`` on an ``O_APPEND`` descriptor and fsynced, so
  concurrent appenders (parallel benchmark shards) interleave whole records,
  never partial ones.  This is the run ledger's discipline.

Both create missing parent directories, so ``--observe out/run1`` works
without a preparatory ``mkdir``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Union

PathLike = Union[str, "os.PathLike"]


def ensure_parent(path: PathLike) -> None:
    """Create the parent directory of ``path`` if it does not exist."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` via temp-file + :func:`os.replace`."""
    atomic_write_with(path, lambda out: out.write(text), encoding=encoding)


def atomic_write_with(
    path: PathLike,
    writer: Callable[..., object],
    encoding: str = "utf-8",
) -> None:
    """Stream ``writer(file)`` into a temp file, then rename over ``path``.

    The callable receives a text-mode file object; the rename happens only
    after ``writer`` returns and the data is fsynced, so a crash anywhere in
    between leaves no partial target file behind.
    """
    path = os.fspath(path)
    ensure_parent(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as out:
            writer(out)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_json(path: PathLike, obj: object, **dumps_kwargs: object) -> None:
    """Serialize ``obj`` as JSON to ``path`` with the replace-on-success discipline."""
    atomic_write_with(path, lambda out: json.dump(obj, out, **dumps_kwargs))


def append_line(path: PathLike, line: str, encoding: str = "utf-8") -> None:
    """Append ``line`` (newline added if missing) with one atomic ``write``.

    POSIX guarantees that writes on an ``O_APPEND`` descriptor are positioned
    atomically, so whole lines from concurrent processes never interleave
    mid-record for reasonably sized payloads.
    """
    path = os.fspath(path)
    ensure_parent(path)
    if not line.endswith("\n"):
        line += "\n"
    payload = line.encode(encoding)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, payload)
        os.fsync(fd)
    finally:
        os.close(fd)
