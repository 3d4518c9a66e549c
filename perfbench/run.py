"""LightNE benchmark: one workload, one closed-loop caller, fresh interpreters.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rmat17-default --seed 1 --seconds 5 --trace 0

Each embedding runs in a fresh interpreter started with every ``REPRO_*``
variable removed (so the program's telemetry, health checks and run ledger
stay off), ``workers=2`` and ``TMPDIR`` pointing at a private scratch
directory under ``.bench_tmp/`` in the checkout, which is removed at the end.

``--trace 0`` sets the input up three times (two set-up-only interpreters,
then the measured one) and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs the untraced loop, then one traced
embedding in a second interpreter and a host bandwidth probe in a third, and
reports the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Failures (an embedding that raises, has the wrong shape or non-finite
entries, differs from the invocation's other runs, scores below the quality
floor, breaks the sparsifier mass contract or leaks shared memory or temp
files) count in ``failed``.  The benchmark exits non-zero without a result
when the program cannot be imported or a child interpreter crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 3
# A run must end within 180 s; no single child may take longer than this.
CHILD_TIMEOUT_S = 170


class ChildError(RuntimeError):
    pass


def child_env(program_tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(program_tmp)
    return env


class TreeMemory(threading.Thread):
    """Peak proportional set size (PSS) of a process and its descendants.

    PSS splits pages shared between processes (forked pool workers share
    their parent's pages copy-on-write) so the sum over the tree counts each
    page once.  Sampled every ``interval`` seconds from this process.
    """

    def __init__(self, pid: int, interval: float = 0.1) -> None:
        super().__init__(daemon=True)
        self.pid, self.interval = pid, interval
        self.peak_bytes = 0
        self._done = threading.Event()

    def _tree(self) -> list:
        children: dict = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as handle:
                        ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
                except (OSError, IndexError, ValueError):
                    continue
                children.setdefault(ppid, []).append(int(entry))
        tree, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(children.get(pid, ()))
        return tree

    @staticmethod
    def _pss_bytes(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        return int(line.split()[1]) * 1024
        except (OSError, IndexError, ValueError):
            pass
        return 0

    def run(self) -> None:
        while not self._done.wait(self.interval):
            total = sum(self._pss_bytes(pid) for pid in self._tree())
            self.peak_bytes = max(self.peak_bytes, total)

    def stop(self) -> int:
        self._done.set()
        self.join()
        return self.peak_bytes


def _group_alive(proc: subprocess.Popen) -> bool:
    proc.poll()  # reap the leader, or a zombie keeps the group alive
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return False
    return True


def stop_group(proc: subprocess.Popen, grace: float = 5.0) -> None:
    """End a child's process group and wait until every member is gone.

    SIGTERM first: the multiprocessing resource tracker ignores it and, once
    the processes it serves are gone, unlinks the shared-memory segments they
    left.  Whatever is still alive after ``grace`` seconds gets SIGKILL.
    """
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not _group_alive(proc):
            return
        os.killpg(proc.pid, sig)
        deadline = time.monotonic() + grace
        while _group_alive(proc) and time.monotonic() < deadline:
            time.sleep(0.05)


def run_child(args: list, env: dict, memory: bool = False):
    """Run ``child.py``; return (seconds to its READY line, RESULT payload).

    With ``memory`` the payload gains ``pss_peak_bytes``, the peak PSS of
    the child's process tree.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
        start_new_session=True,
    )
    # A child that hangs is killed with its whole process group (pool workers).
    watchdog = threading.Timer(CHILD_TIMEOUT_S, stop_group, (proc,))
    watchdog.start()
    sampler = TreeMemory(proc.pid) if memory else None
    if sampler is not None:
        sampler.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            stop_group(proc)
        proc.wait()
        proc.stdout.close()
        peak = sampler.stop() if sampler is not None else 0
    if code != 0:
        raise ChildError(f"child {args[:2]} exited with code {code}")
    if result is not None and sampler is not None:
        result["pss_peak_bytes"] = peak
    return ready, result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def workload_args(opts, scratch: Path) -> list:
    return (["--workload", opts.workload, "--seed", str(opts.seed),
             "--scratch", str(scratch)] + (["--toy"] if opts.toy else []))


def end_to_end(opts, env: dict, scratch: Path) -> tuple:
    base = workload_args(opts, scratch)
    setups = [run_child(["--mode", "setup", *base], env)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready, run = run_child(
        ["--mode", "measure", "--seconds", str(opts.seconds), *base], env,
        memory=True,
    )
    setups.append(ready)
    sys.stderr.write(f"perfbench: setup samples {setups}, embed {run['times']}, "
                     f"own hwm {run['own_hwm_bytes']}, tree pss {run['pss_peak_bytes']}\n")
    if run["embed_s"] is None:
        raise ChildError("no embedding succeeded:\n" + "\n".join(run["failures"]))
    metrics = {
        "embed_s": metric(run["embed_s"], "s"),
        "edges_per_s": metric(run["m"] / run["embed_s"], "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        # The measured process's exact high-water RSS, or the sampled peak
        # PSS of its process tree when worker processes push that higher.
        "peak_rss_mb": metric(
            max(run["own_hwm_bytes"], run["pss_peak_bytes"]) / 1e6, "MB"
        ),
        "quality": metric(run["quality"], "score"),
    }
    return run, metrics


def per_layer(opts, env: dict, scratch: Path) -> tuple:
    """Traced embedding in its own interpreter, beside an untraced one.

    Both start cold, as the end-to-end runs do, so their difference is the
    tracing overhead; their digests must match bit for bit.
    """
    base = workload_args(opts, scratch)
    _, plain = run_child(
        ["--mode", "measure", "--seconds", str(opts.seconds), *base], env
    )
    _, run = run_child(["--mode", "trace", *base], env)
    if plain["embed_s"] is None or run["layers"] is None:
        raise ChildError(
            "traced or untraced run failed:\n"
            + "\n".join(plain["failures"] + run["failures"])
        )
    _, host = run_child(["--mode", "probe"], env)
    run["attempted"] += plain["attempted"]
    run["failed"] += plain["failed"] + int(not host["ok"])
    if run["digest"] != plain["digest"]:
        sys.stderr.write("perfbench: traced embedding differs from untraced\n")
        run["failed"] += 1
    units = {"calls": "count", "starts": "count", "nnz": "count",
             "ratio": "ratio", "gbps": "GB/s", "per_s": "1/s"}
    metrics = {}
    for name, value in run["layers"].items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "s")
        metrics[name] = metric(value, unit)
    metrics["trace.overhead_s"] = metric(run["embed_s"] - plain["embed_s"], "s")
    metrics["host.triad_gbps"] = metric(host["triad_gbps"], "GB/s")
    metrics["host.llc_mib"] = metric(host["llc_mib"], "MiB")
    metrics["host.triad_array_mib"] = metric(host["triad_array_mib"], "MiB")
    return run, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs on the same code paths (self-test)")
    opts = parser.parse_args()
    # Termination unwinds through run_child's cleanup, which kills the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        return 2
    spec = json.loads(SPEC.read_text())
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"perfbench: unknown workload {opts.workload!r}\n")
        return 2

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    program_tmp = scratch / "tmp"
    program_tmp.mkdir()
    env = child_env(program_tmp)
    try:
        measure = per_layer if opts.trace else end_to_end
        run, metrics = measure(opts, env, scratch)
    except ChildError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    failed = run["failed"]
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
