"""One benchmark interpreter: set up a workload's input, embed, check, report.

Started by ``run.py`` with a clean environment.  It prints ``READY`` on its
own line as soon as the input is ready (the parent times interpreter start
to that line as set-up), then, unless ``--mode setup``, runs the closed loop
and prints ``RESULT <json>`` as its last line.

Modes:

* ``setup``   — build the input and exit.
* ``measure`` — embed back to back until ``--seconds`` have passed (at
  least once), check every output, score the last one.
* ``trace``   — one embedding with the layer tracer installed; reports
  per-layer metrics.
* ``probe``   — STREAM-triad host bandwidth probe (no workload input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import workloads


def _emit(tag: str, payload=None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _digest(vectors: np.ndarray) -> str:
    h = hashlib.sha256(f"{vectors.shape}{vectors.dtype}".encode())
    h.update(np.ascontiguousarray(vectors).tobytes())
    return h.hexdigest()


class Runner:
    """Runs embeddings of one input and collects failures."""

    def __init__(self, workload, inputs, program_tmp: str, floor: float) -> None:
        self.workload = workload
        self.inputs = inputs
        self.program_tmp = program_tmp
        self.floor = floor
        self.attempted = 0
        self.failures: list = []
        self.times: list = []
        self.digests: list = []

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        sys.stderr.write(f"perfbench: {self.workload.name}: {reason}\n")

    def embed(self, call=None):
        """One checked embedding; returns ``(result, seconds)`` or ``None``."""
        from repro.embedding.lightne import lightne_embedding

        inputs = self.inputs
        self.attempted += 1
        shm_before = _shm_segments()
        args = (inputs.graph, inputs.params, inputs.embed_seed)
        try:
            start = time.perf_counter()
            result = call(lightne_embedding, args) if call else lightne_embedding(*args)
            seconds = time.perf_counter() - start
        except Exception:
            self.fail("embedding raised:\n" + traceback.format_exc())
            return None
        vectors = result.vectors
        expected = (inputs.graph.num_vertices, inputs.params.dimension)
        problems = []
        if vectors.shape != expected:
            problems.append(f"shape {vectors.shape}, expected {expected}")
        elif not np.isfinite(vectors).all():
            problems.append("non-finite entries")
        digest = _digest(vectors)
        if self.digests and digest != self.digests[0]:
            problems.append("digest differs from this invocation's first run")
        leaked = sorted(_shm_segments() - shm_before)
        if leaked:
            problems.append(f"left /dev/shm segments {leaked}")
        left = os.listdir(self.program_tmp)
        if left:
            problems.append(f"left temp files {left}")
        self.digests.append(digest)
        if problems:
            self.fail("; ".join(problems))
            return None
        self.times.append(seconds)
        return result, seconds

    def loop(self, seconds: float):
        """Closed loop: the next embedding starts when the previous ends."""
        deadline = time.perf_counter() + seconds
        last = None
        while True:
            last = self.embed() or last
            if time.perf_counter() >= deadline:
                return last

    def report(self, **extra) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "embed_s": statistics.median(self.times) if self.times else None,
            "times": self.times,
            "m": self.inputs.info["m"],
            "digest": self.digests[0] if self.digests else None,
            **extra,
        }


def measure(runner: Runner, seconds: float) -> dict:
    last = runner.loop(seconds)
    quality = None
    if last is not None:
        quality = workloads.score(runner.workload, runner.inputs, last[0].vectors)
        if not quality >= runner.floor:
            runner.fail(f"{runner.workload.quality} {quality:.4f} below floor {runner.floor}")
    own_hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return runner.report(quality=quality, own_hwm_bytes=own_hwm)


def trace(runner: Runner) -> dict:
    """One embedding with the layer tracer installed."""
    import spans
    from repro.telemetry.health import MASS_RTOL

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = runner.embed(lambda fn, args: tracer.call(spans.ROOT, fn, args))
    finally:
        tracer.uninstall()
    if traced is None:
        return runner.report(layers=None)
    layers = spans.layer_metrics(
        tracer.spans, runner.inputs.params.propagation_order - 1
    )
    rel = layers["sparsifier.mass_ratio"] - 1.0
    if not abs(rel) <= MASS_RTOL:
        runner.fail(f"sparsifier mass ratio {1 + rel:.4f} outside 1 +- {MASS_RTOL}")
    return runner.report(layers=layers)


def _llc_bytes() -> int:
    """Size of the largest CPU cache the kernel reports (0 if unknown)."""
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size")) as handle:
                text = handle.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def _available_bytes() -> int:
    """``MemAvailable`` from ``/proc/meminfo`` (0 if unknown)."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    return 0


def probe(workers: int) -> dict:
    """STREAM triad ``a = b + s*c`` on arrays each 4x the LLC, memory permitting.

    Blocked so the ``s*c`` temporary stays in cache: per element the probe
    reads ``b`` and ``c`` and writes ``a`` (24 bytes, the STREAM count).
    Best of five passes, ``workers`` threads over disjoint halves.
    """
    from concurrent.futures import ThreadPoolExecutor

    llc = _llc_bytes()
    array_bytes = max(4 * llc, 256 << 20)
    # The host's memory is shared: the three arrays take at most half of
    # what is available, even if that leaves them under 4x the LLC.
    available = _available_bytes()
    if available:
        array_bytes = min(array_bytes, available // 6)
    n = array_bytes // 8
    array_bytes = n * 8
    a = np.empty(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a.fill(0.0)
    block = 1 << 16

    def part(lo: int, hi: int) -> None:
        tmp = np.empty(block)
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            t = tmp[: stop - start]
            np.multiply(c[start:stop], 3.0, out=t)
            np.add(b[start:stop], t, out=a[start:stop])

    bounds = np.linspace(0, n, workers + 1).astype(int)
    best = float("inf")
    with ThreadPoolExecutor(workers) as pool:
        for _ in range(5):
            start = time.perf_counter()
            for future in [pool.submit(part, lo, hi) for lo, hi in zip(bounds, bounds[1:])]:
                future.result()
            best = min(best, time.perf_counter() - start)
    ok = bool(a[0] == 7.0 and a[-1] == 7.0)
    return {
        "triad_gbps": 3 * array_bytes / best / 1e9,
        "llc_mib": llc / (1 << 20),
        "triad_array_mib": array_bytes / (1 << 20),
        "ok": ok,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "probe"), required=True)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", default=None)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    if args.mode == "probe":
        _emit("RESULT", probe(workloads.WORKERS))
        return 0
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.build_inputs(workload, args.seed, args.scratch, toy=args.toy)
    _emit("READY")
    try:
        if args.mode == "setup":
            return 0
        # Toy inputs are too small for meaningful quality; no floor there.
        floor = 0.0 if args.toy else workloads.QUALITY_FLOORS[workload.quality]
        runner = Runner(workload, inputs, os.environ["TMPDIR"], floor)
        if args.mode == "measure":
            payload = measure(runner, args.seconds)
        else:
            payload = trace(runner)
        payload["failures"] = runner.failures
        payload["info"] = inputs.info
        _emit("RESULT", payload)
    finally:
        inputs.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
