"""Shared pieces of the benchmark: its own span recorder, host counters,
percentiles, set-up timing and the result record.

Spans are recorded by the benchmark around the calls it makes into each
toolchain layer; nothing inside ``repro`` is instrumented for this.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: where a traced run writes its spans (ignored by git)
TRACE_DIR = ROOT / ".perfbench"

#: set-ups timed per run; ``setup_s`` is their median
SETUP_REPEATS = 5


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    trace_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans around layer calls; a disabled recorder records
    nothing, so untraced runs pay one generator frame per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int]] = []  # (span_id, trace_id)
        self._next_id = 1
        self._next_trace = 1

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        if self._stack:
            parent_id, trace_id = self._stack[-1]
        else:
            parent_id, trace_id = None, self._next_trace
            self._next_trace += 1
        self._stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent_id, trace_id))

    def self_times(self) -> list[dict[str, float]]:
        """Per trace (one pass or one request): layer name → self seconds.

        A span's self time is its duration minus what its children cover;
        the root span's self time is the part of the pass no layer covers
        and is reported under ``"unattributed"``.
        """
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent_id is not None:
                children[s.parent_id] = children.get(s.parent_id, 0.0) + s.duration
        traces: dict[int, dict[str, float]] = {}
        for s in self.spans:
            own = s.duration - children.get(s.span_id, 0.0)
            key = "unattributed" if s.parent_id is None else s.name
            layers = traces.setdefault(s.trace_id, {})
            layers[key] = layers.get(key, 0.0) + own
        return [traces[t] for t in sorted(traces)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end,
                     "span_id": s.span_id, "parent_id": s.parent_id,
                     "trace_id": s.trace_id}
                    for s in self.spans
                ],
                handle,
            )


# -- host counters -------------------------------------------------------------


class GcCounter:
    """Collector pauses and collections, via ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcCounter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mib() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_MIB


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set size of this process, or of child ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list; with
    fewer than 100 samples the 99th is the maximum."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- set-up --------------------------------------------------------------------


def time_child_ready(argv: list[str], *, keep: bool = False):
    """Seconds from spawning ``argv`` until it prints a line on stdout.

    Returns ``(seconds, first_line, process)``; the process is stopped
    and reaped unless ``keep`` is set.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if not line:
        proc.wait(timeout=30)
        raise RuntimeError(f"{argv} exited ({proc.returncode}) before ready")
    if not keep:
        stop_child(proc)
    return elapsed, line.strip(), proc


def stop_child(proc: subprocess.Popen) -> None:
    """Terminate, then kill if needed, and always reap."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()


def setup_seconds(workload: str) -> float:
    """Median over :data:`SETUP_REPEATS` fresh interpreters that import the
    toolchain and bring the workload's system up (``setup_child.py``)."""
    child = [sys.executable, str(Path(__file__).with_name("setup_child.py")), workload]
    return median(
        [time_child_ready(child)[0] for _ in range(SETUP_REPEATS)]
    )


# -- result --------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured.  ``ops`` counts the caller-visible
    operations (pipeline passes, registry requests, serving passes) and
    ``failed`` those that raised or failed a correctness check."""

    ops: int = 0
    failed: int = 0
    #: end-to-end metric name → value (untraced runs)
    end_to_end: dict = field(default_factory=dict)
    #: per-layer metric name → value (traced runs)
    per_layer: dict = field(default_factory=dict)
    #: workload-level figures printed in the human-readable report
    report: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)


def run_for(seconds: float, one: Callable[[], None], *, minimum: int = 1) -> float:
    """Call ``one()`` until ``seconds`` are used, starting another call
    only if the previous one's duration still fits; returns wall seconds."""
    start = time.perf_counter()
    count, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        if count >= minimum and elapsed + last > seconds:
            return elapsed
        before = time.perf_counter()
        one()
        last = time.perf_counter() - before
        count += 1
