"""Execution traces and run statistics.

Every simulated (or real) run produces a :class:`TraceLog`: per-task
records plus aggregate views (makespan, per-worker utilization, Gantt
rows, CSV export).  The Figure-5 harness and the scheduler-ablation bench
read their numbers from here.
"""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.obs.digest import fingerprint_payload, fingerprint_records

__all__ = ["TaskTrace", "TransferTrace", "FaultTrace", "TraceLog", "RunResult"]


class TaskTrace(NamedTuple):
    """One executed task.

    Trace records are immutable named tuples: a run makes one per task
    (and one per transfer), and a tuple is built about twice as fast as
    a frozen dataclass and carries no per-record ``__dict__``.
    """

    task_id: int
    tag: str
    kernel: str
    worker_id: str
    architecture: str
    start: float
    end: float
    transfer_wait: float  # seconds spent staging operands before start

    @property
    def duration(self) -> float:
        return self.end - self.start


class TransferTrace(NamedTuple):
    """One data movement."""

    handle_name: str
    nbytes: int
    src_node: int
    dst_node: int
    start: float
    end: float


class FaultTrace(NamedTuple):
    """One fault-tolerance event (failure, retry, requeue, watchdog).

    ``kind`` is one of ``task-fault`` (an execution attempt failed),
    ``worker-fault`` (a lane died), ``retry`` (a failed task was given
    another attempt), ``requeue`` (a claimed or queued task migrated off
    a dead or retiring lane), ``watchdog`` (the stall watchdog fired),
    ``retire`` (a lane left the fleet gracefully — scale-down, not a
    failure), or — serving front end — ``shed`` / ``rate-limited`` (an
    arrival was rejected by admission control).
    """

    kind: str
    time: float
    task_tag: str
    worker_id: str
    detail: str = ""


class TraceLog:
    """Accumulates traces during one run.

    ``max_events`` (per record kind) turns the log into a bounded ring
    buffer for long-lived runs — the serving loop records forever, so an
    unbounded list would grow without bound.  Once a ring is full the
    oldest record of that kind is evicted for each new one and the
    matching ``dropped_*`` counter increments; counters and the
    ``dropped`` block in :meth:`to_payload` stay at zero until an
    eviction actually happens, so payloads and fingerprints of runs that
    never hit the bound are byte-identical to the unbounded form.
    """

    def __init__(self, *, max_events: Optional[int] = None):
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events!r}")
        self.max_events = max_events
        if max_events is None:
            self.tasks: list[TaskTrace] = []
            self.transfers: list[TransferTrace] = []
            self.faults: list[FaultTrace] = []
        else:
            self.tasks = deque(maxlen=max_events)  # type: ignore[assignment]
            self.transfers = deque(maxlen=max_events)  # type: ignore[assignment]
            self.faults = deque(maxlen=max_events)  # type: ignore[assignment]
        self.dropped_tasks = 0
        self.dropped_transfers = 0
        self.dropped_faults = 0

    def _full(self, records) -> bool:
        return self.max_events is not None and len(records) == self.max_events

    # -- recording ---------------------------------------------------------
    def record_task(self, trace: TaskTrace) -> None:
        if self._full(self.tasks):
            self.dropped_tasks += 1
        self.tasks.append(trace)

    def record_transfer(self, trace: TransferTrace) -> None:
        if self._full(self.transfers):
            self.dropped_transfers += 1
        self.transfers.append(trace)

    def record_fault(self, trace: FaultTrace) -> None:
        if self._full(self.faults):
            self.dropped_faults += 1
        self.faults.append(trace)

    @property
    def dropped_events(self) -> int:
        """Total records evicted by the ring bound (0 when unbounded)."""
        return self.dropped_tasks + self.dropped_transfers + self.dropped_faults

    # -- aggregates ------------------------------------------------------------
    @property
    def makespan(self) -> float:
        if not self.tasks:
            return 0.0
        end = max(t.end for t in self.tasks)
        if self.transfers:
            end = max(end, max(t.end for t in self.transfers))
        return end

    def busy_time(self, worker_id: str) -> float:
        return sum(t.duration for t in self.tasks if t.worker_id == worker_id)

    def utilization(self) -> dict[str, float]:
        """worker id → busy fraction of the makespan.

        One pass buckets the durations by worker, instead of one
        :meth:`busy_time` scan of every record per worker.  Each bucket
        keeps record order and goes through the same ``sum``, so the
        fractions are bit-identical to ``busy_time(w) / span``.
        """
        span = self.makespan
        if span <= 0:
            return {}
        durations: dict[str, list[float]] = {}
        for t in self.tasks:
            bucket = durations.get(t.worker_id)
            if bucket is None:
                bucket = durations[t.worker_id] = []
            bucket.append(t.end - t.start)
        return {w: sum(durations[w]) / span for w in sorted(durations)}

    def tasks_per_worker(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.tasks:
            counts[t.worker_id] = counts.get(t.worker_id, 0) + 1
        return counts

    def tasks_per_architecture(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.tasks:
            counts[t.architecture] = counts.get(t.architecture, 0) + 1
        return counts

    def fault_counts(self) -> dict[str, int]:
        """fault kind → occurrence count (empty dict for a clean run)."""
        counts: dict[str, int] = {}
        for f in self.faults:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        return counts

    @property
    def bytes_transferred(self) -> float:
        return sum(t.nbytes for t in self.transfers)

    def gantt_rows(self) -> dict[str, list[tuple[float, float, str]]]:
        """worker id → list of (start, end, tag) sorted by start."""
        rows: dict[str, list[tuple[float, float, str]]] = {}
        for t in sorted(self.tasks, key=lambda t: t.start):
            rows.setdefault(t.worker_id, []).append((t.start, t.end, t.tag))
        return rows

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("task_id,tag,kernel,worker,architecture,start,end,transfer_wait\n")
        for t in sorted(self.tasks, key=lambda t: (t.start, t.task_id)):
            out.write(
                f"{t.task_id},{t.tag},{t.kernel},{t.worker_id},"
                f"{t.architecture},{t.start:.9f},{t.end:.9f},{t.transfer_wait:.9f}\n"
            )
        return out.getvalue()

    def to_payload(self) -> dict:
        """Canonical JSON-serializable form of the full event log.

        Every float goes in *exactly* (no rounding): the payload is the
        substrate of the scalar-vs-vectorized parity gate, which demands
        bit-identical timelines, not approximately-equal ones.  Records
        are canonically sorted so that benign reorderings of same-time
        recordings (two transfers issued in one event) cannot produce a
        spurious mismatch while every value still participates.

        A bounded log that actually evicted records gains a ``dropped``
        block; a bounded log that never hit its ring bound emits exactly
        the unbounded payload.
        """
        payload = {name: list(rows) for name, rows in self._records().items()}
        payload.update(self._dropped_block())
        return payload

    def _records(self) -> dict:
        """Record kind → its canonical rows, lazily, in canonical order."""
        return {
            "tasks": (
                {
                    "task_id": t.task_id,
                    "tag": t.tag,
                    "kernel": t.kernel,
                    "worker": t.worker_id,
                    "architecture": t.architecture,
                    "start": t.start,
                    "end": t.end,
                    "transfer_wait": t.transfer_wait,
                }
                for t in sorted(self.tasks, key=lambda t: (t.task_id, t.start))
            ),
            "transfers": (
                {
                    "handle": t.handle_name,
                    "nbytes": t.nbytes,
                    "src": t.src_node,
                    "dst": t.dst_node,
                    "start": t.start,
                    "end": t.end,
                }
                for t in sorted(
                    self.transfers,
                    key=lambda t: (
                        t.start, t.end, t.handle_name, t.src_node,
                        t.dst_node, t.nbytes,
                    ),
                )
            ),
            "faults": (
                {
                    "kind": f.kind,
                    "time": f.time,
                    "task_tag": f.task_tag,
                    "worker": f.worker_id,
                    "detail": f.detail,
                }
                for f in sorted(
                    self.faults,
                    key=lambda f: (
                        f.time, f.kind, f.task_tag, f.worker_id, f.detail
                    ),
                )
            ),
        }

    def _dropped_block(self) -> dict:
        if not self.dropped_events:
            return {}
        return {
            "dropped": {
                "tasks": self.dropped_tasks,
                "transfers": self.dropped_transfers,
                "faults": self.dropped_faults,
            }
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TraceLog":
        """Rehydrate a log from its :meth:`to_payload` form (the replay
        driver feeds saved trace files back in as arrival streams).
        Dropped-event counters survive the round trip; the evicted
        records themselves are gone by construction."""
        log = cls()
        for t in payload.get("tasks", ()):
            log.record_task(
                TaskTrace(
                    task_id=t["task_id"],
                    tag=t["tag"],
                    kernel=t["kernel"],
                    worker_id=t["worker"],
                    architecture=t["architecture"],
                    start=t["start"],
                    end=t["end"],
                    transfer_wait=t["transfer_wait"],
                )
            )
        for t in payload.get("transfers", ()):
            log.record_transfer(
                TransferTrace(
                    handle_name=t["handle"],
                    nbytes=t["nbytes"],
                    src_node=t["src"],
                    dst_node=t["dst"],
                    start=t["start"],
                    end=t["end"],
                )
            )
        for f in payload.get("faults", ()):
            log.record_fault(
                FaultTrace(
                    kind=f["kind"],
                    time=f["time"],
                    task_tag=f["task_tag"],
                    worker_id=f["worker"],
                    detail=f["detail"],
                )
            )
        dropped = payload.get("dropped", {})
        log.dropped_tasks = dropped.get("tasks", 0)
        log.dropped_transfers = dropped.get("transfers", 0)
        log.dropped_faults = dropped.get("faults", 0)
        return log

    def fingerprint(self) -> str:
        """Stable sha256 over :meth:`to_payload` (the shared convention
        of every toolchain report object).  Two runs of the same DAG on
        the same platform fingerprint identically iff their complete
        task/transfer/fault timelines are byte-identical.  The payload is
        hashed record chunk by record chunk, never built whole."""
        return fingerprint_records(self._dropped_block(), self._records())


@dataclass
class RunResult:
    """Outcome of one engine run."""

    makespan: float
    mode: str  # "sim" | "real"
    scheduler: str
    task_count: int
    trace: TraceLog
    transfer_count: int = 0
    bytes_transferred: float = 0.0
    #: wall-clock seconds the run itself took (host time, both modes)
    wall_time: float = 0.0
    #: capacity modeling (when enabled): LRU evictions and write-back volume
    eviction_count: int = 0
    writeback_bytes: float = 0.0
    #: fault tolerance: failed execution attempts (task faults)
    task_failures: int = 0
    #: fault tolerance: failed attempts that were given another try
    retry_count: int = 0
    #: fault tolerance: tasks migrated off a dead/offline lane
    requeue_count: int = 0
    #: fault tolerance: worker lanes lost mid-run
    worker_failures: int = 0
    #: runtime-emitted findings (``engine.diagnostics`` at run end, e.g.
    #: RT001 corrupt-AVAILABLE lane exclusions), as canonical-ordered
    #: JSON payloads — a sweep scoring this platform sees the run was
    #: degraded instead of silently trusting the makespan
    diagnostics: list = field(default_factory=list)

    def gflops(self, total_flops: float) -> float:
        """Achieved GFLOP/s for a computation of ``total_flops``."""
        if self.makespan <= 0:
            return 0.0
        return total_flops / self.makespan / 1e9

    def to_payload(self) -> dict:
        """JSON-serializable aggregate of the run.

        Deterministic for deterministic simulations: ``wall_time`` (host
        time, noisy by nature) is deliberately excluded so two identical
        sim runs fingerprint identically; per-event detail stays on
        :attr:`trace`.
        """
        return {
            "makespan_s": self.makespan,
            "mode": self.mode,
            "scheduler": self.scheduler,
            "task_count": self.task_count,
            "transfer_count": self.transfer_count,
            "bytes_transferred": self.bytes_transferred,
            "eviction_count": self.eviction_count,
            "writeback_bytes": self.writeback_bytes,
            "faults": {
                "task_failures": self.task_failures,
                "retries": self.retry_count,
                "requeues": self.requeue_count,
                "worker_failures": self.worker_failures,
            },
            "tasks_by_architecture": dict(
                sorted(self.trace.tasks_per_architecture().items())
            ),
            "utilization": {
                w: round(u, 9) for w, u in self.trace.utilization().items()
            },
            "diagnostics": list(self.diagnostics),
        }

    def fingerprint(self) -> str:
        """Stable sha256 over :meth:`to_payload` (the shared convention
        of every toolchain report object)."""
        return fingerprint_payload(self.to_payload())

    def summary(self) -> str:
        lines = [
            f"mode={self.mode} scheduler={self.scheduler}"
            f" tasks={self.task_count}",
            f"makespan: {self.makespan:.6f} s",
            f"transfers: {self.transfer_count}"
            f" ({self.bytes_transferred / 2**20:.1f} MiB)",
        ]
        if (
            self.task_failures
            or self.retry_count
            or self.requeue_count
            or self.worker_failures
        ):
            lines.append(
                f"faults: {self.task_failures} task failures,"
                f" {self.retry_count} retries, {self.requeue_count} requeues,"
                f" {self.worker_failures} worker failures"
            )
        util = self.trace.utilization()
        if util:
            per_arch = self.trace.tasks_per_architecture()
            lines.append(
                "tasks by architecture: "
                + ", ".join(f"{a}={n}" for a, n in sorted(per_arch.items()))
            )
            lines.append(
                "utilization: "
                + ", ".join(f"{w}={u:.0%}" for w, u in util.items())
            )
        return "\n".join(lines)
