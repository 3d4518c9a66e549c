"""Library logging.

The library logs under the ``"repro"`` namespace and stays silent by
default (a ``NullHandler``, per library convention) — applications opt in:

>>> import logging
>>> logging.getLogger("repro").setLevel(logging.DEBUG)
>>> logging.basicConfig()

or, without touching the ``logging`` module, via :func:`configure_logging`:

>>> from repro.utils.log import configure_logging
>>> logger = configure_logging("DEBUG")   # doctest: +SKIP

Pipelines emit DEBUG lines at stage boundaries (sample counts, sparsifier
sizes, matrix shapes), which is usually all that is needed to diagnose a
misbehaving configuration without a debugger.  The CLI prints WARNING and
above on stderr for the duration of a command; ``--observe DIR`` captures
every DEBUG line in ``DIR/log.txt``.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Iterator, Union

_ROOT_NAME = "repro"
_DEFAULT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """Logger for a library module (``name`` is typically ``__name__``)."""
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def _coerce_level(level: Union[int, str]) -> int:
    """Accept ints, digit strings and level names (``"debug"``, ``"INFO"``)."""
    if isinstance(level, int):
        return level
    text = str(level).strip()
    if text.isdigit():
        return int(text)
    resolved = logging.getLevelName(text.upper())
    if not isinstance(resolved, int):
        raise ValueError(
            f"unknown log level {level!r} (use DEBUG/INFO/WARNING/ERROR or an int)"
        )
    return resolved


def configure_logging(
    level: Union[int, str] = logging.INFO,
    *,
    stream=None,
    fmt: str = _DEFAULT_FORMAT,
) -> logging.Logger:
    """Opt the process into the library's log lines without ``logging`` boilerplate.

    Attaches one stream handler to the ``"repro"`` logger (idempotent —
    repeated calls adjust the level instead of stacking handlers) and sets
    the level (int, digit string or level name; default ``INFO``).

    Returns the configured ``"repro"`` logger.
    """
    resolved = _coerce_level(level)
    root = logging.getLogger(_ROOT_NAME)
    root.setLevel(resolved)
    handler = None
    for existing in root.handlers:
        if getattr(existing, "_repro_configured", False):
            handler = existing
            break
    if handler is None:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter(fmt))
        handler._repro_configured = True  # type: ignore[attr-defined]
        root.addHandler(handler)
    elif stream is not None:
        handler.setStream(stream)  # type: ignore[attr-defined]
    handler.setLevel(resolved)
    return root


@contextmanager
def log_to(handler: logging.Handler, level: int) -> Iterator[None]:
    """Send the library's records at ``level`` and above to ``handler`` for a block.

    Lowers the ``"repro"`` logger's level when it would filter those records
    out; on exit the handler is removed and closed and the level restored,
    so the logger is left exactly as it was found.
    """
    root = logging.getLogger(_ROOT_NAME)
    previous = root.level
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(_DEFAULT_FORMAT))
    root.addHandler(handler)
    if root.getEffectiveLevel() > level:
        root.setLevel(level)
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(previous)
        handler.close()
