"""Hardware/software fingerprint: *where* a measurement was taken.

Wall-clock numbers are only comparable between runs that executed on the
same machine with the same numerical stack, so every persisted run record
(:mod:`repro.telemetry.ledger`) and every ``EmbeddingResult.info`` carries
the same fingerprint dict: CPU model and count, platform triple, Python /
NumPy / SciPy versions, the BLAS backend NumPy was built against, and the
git SHA of the working tree when one is available.

:func:`collect_fingerprint` is cached per process — the git subprocess and
``/proc/cpuinfo`` parse run once.  :func:`fingerprint_key` hashes the
*comparability-relevant* subset (everything except the git SHA, which
changes per commit but not per machine) into a short stable key stored on
every ledger record.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from functools import lru_cache
from typing import Dict, Optional

# Fields that determine whether two runs' timings are comparable.  The git
# SHA is provenance, not comparability, so it is excluded on purpose.
_KEY_FIELDS = (
    "cpu_model",
    "cpu_count",
    "platform",
    "python",
    "numpy",
    "scipy",
    "blas",
)


def _cpu_model() -> Optional[str]:
    """CPU model string from ``/proc/cpuinfo``, ``platform`` as fallback."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or None


def _blas_backend() -> Optional[str]:
    """Name of the BLAS implementation NumPy links against, best effort."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep elsewhere
        return None
    try:  # numpy >= 1.26
        config = np.show_config(mode="dicts")  # type: ignore[call-arg]
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name")
        version = blas.get("version")
        if name:
            return f"{name} {version}" if version else str(name)
    except TypeError:
        pass
    except Exception:  # pragma: no cover - defensive
        return None
    try:  # legacy numpy.distutils config
        info = getattr(np.__config__, "blas_opt_info", None)
        if info:
            libs = info.get("libraries")
            if libs:
                return ",".join(str(lib) for lib in libs)
    except Exception:  # pragma: no cover - defensive
        pass
    return None


def _git_sha() -> Optional[str]:
    """HEAD commit of the current working directory's repo, or ``None``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


@lru_cache(maxsize=1)
def collect_fingerprint() -> Dict[str, object]:
    """The environment fingerprint dict (cached for the process lifetime).

    Every value degrades to ``None`` rather than raising on exotic
    platforms; the dict shape is stable so downstream consumers can rely on
    the keys existing.
    """
    try:
        import numpy as np

        numpy_version: Optional[str] = np.__version__
    except ImportError:  # pragma: no cover
        numpy_version = None
    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "blas": _blas_backend(),
        "git_sha": _git_sha(),
    }


def fingerprint_key(env: Optional[Dict[str, object]] = None) -> str:
    """Short stable hash of the comparability-relevant fingerprint fields.

    Two runs with the same key ran on interchangeable hardware/software and
    their wall times may be compared directly.
    """
    env = env if env is not None else collect_fingerprint()
    subset = {field: env.get(field) for field in _KEY_FIELDS}
    payload = json.dumps(subset, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
