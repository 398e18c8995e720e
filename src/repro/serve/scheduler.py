"""Deadline-augmented dmda placement (``dmda-slo``).

StarPU's ``dmda`` minimizes estimated finish time.  Under an SLO that is
not quite the right objective: any placement finishing *before* the
deadline is equally acceptable, so among those the scheduler should
optimize fleet efficiency instead — and min-finish does the opposite,
eagerly spilling work onto slow-but-idle lanes the moment a fast lane's
queue builds.  :class:`DeadlineScheduler` keeps the dmda machinery —
per-worker estimated-free clocks, queued-charge accounting, drain rewind
— and changes the *score*:

* lane predicted to **meet** the deadline:
  ``score = cost + (finish - deadline) / miss_weight`` — dominated by
  execution cost, so requests consolidate onto the lanes that execute
  them fastest (the GPUs) even behind a queue, as long as the deadline
  still holds; the slack term (negative for meeting lanes) breaks ties
  toward earlier finishes, and ``miss_weight`` sets the trade-off
  (large = pure consolidation, small = dmda-like).
* lane predicted to **miss**:
  ``score = finish + miss_weight * (finish - deadline)`` — strictly
  positive and above any meeting lane's score, so a meeting lane always
  wins; under total overload the least-late placement wins.

Tasks without a deadline — and the whole policy at ``miss_weight = 0`` —
score by plain finish time, i.e. degenerate to dmda.  Queued tasks
within one lane additionally pop in earliest-deadline-first order, so a
tight-deadline task is not stuck behind a loose-deadline one that merely
arrived earlier.
"""

from __future__ import annotations

import bisect
from typing import Optional

from repro.errors import SchedulerError
from repro.runtime.schedulers import (
    DequeModelScheduler,
    Scheduler,
    make_scheduler,
)
from repro.runtime.workers import WorkerContext

__all__ = ["DeadlineScheduler", "make_serve_scheduler", "SERVE_SCHEDULER_NAMES"]


def _deadline_of(task) -> Optional[float]:
    deadline = getattr(task, "deadline", None)
    if deadline is None or deadline == float("inf"):
        return None
    return deadline


def _edf_key(task) -> tuple[float, int]:
    """Lane-queue order: deadline (none sorts last), then admission id."""
    deadline = _deadline_of(task)
    return (deadline if deadline is not None else float("inf"), task.id)


class DeadlineScheduler(DequeModelScheduler):
    """dmda with predicted-lateness penalties and EDF lane queues."""

    def __init__(self, *, miss_weight: float = 4.0, data_aware: bool = True):
        super().__init__(data_aware=data_aware, steal=False)
        if miss_weight < 0.0:
            raise SchedulerError(
                f"miss_weight must be >= 0, got {miss_weight!r}"
            )
        self.miss_weight = miss_weight
        self.name = "dmda-slo"

    def task_ready(self, task, now: float) -> None:
        # scalar scoring only: serving feeds tasks one arrival at a time,
        # so there is no batch to vectorize over
        best: Optional[WorkerContext] = None
        best_score = float("inf")
        best_finish = 0.0
        best_cost = 0.0
        deadline = _deadline_of(task)
        for worker in self.workers:
            if not self.cost.supports(task, worker):
                continue
            begin = max(now, self._est_free[worker.instance_id])
            cost = self._task_cost(task, worker)
            finish = begin + cost
            if deadline is None or self.miss_weight == 0.0:
                score = finish
            elif finish <= deadline:
                # meets the SLO: consolidate onto the fastest-executing
                # lane; slack (negative) breaks ties toward early finish
                score = cost + (finish - deadline) / self.miss_weight
            else:
                # misses: least predicted lateness, always worse than any
                # meeting lane (which scores at most cost <= finish)
                score = finish + self.miss_weight * (finish - deadline)
            if score < best_score:
                best_score = score
                best_finish = finish
                best = worker
                best_cost = cost
        if best is None:
            raise SchedulerError(f"no worker supports kernel {task.kernel!r}")
        self._insert_edf(best.instance_id, task)
        self._charge[best.instance_id][task.id] = best_cost
        self._set_est_free(best.instance_id, best_finish)

    def _insert_edf(self, instance_id: str, task) -> None:
        """Insert into the lane queue in (deadline, id) order.

        ``id`` breaks deadline ties by admission order, keeping the queue
        deterministic.  Tasks without a deadline sort last (+inf).
        """
        bisect.insort(self._queues[instance_id], task, key=_edf_key)


SERVE_SCHEDULER_NAMES = ("dmda-slo", "dmda", "dm", "eager")


def make_serve_scheduler(name: str, *, miss_weight: float = 4.0) -> Scheduler:
    """Factory over the serving-capable policies.

    ``dmda-slo`` is the deadline-aware policy; the plain runtime policies
    (``dmda``/``dm``/``eager``) serve as ablation baselines.  ``ws`` and
    ``random`` are excluded: neither maintains the est-free accounting the
    autoscaler's drain-down relies on for clean rewinds.
    """
    if name == "dmda-slo":
        return DeadlineScheduler(miss_weight=miss_weight)
    if name in ("dmda", "dm", "eager"):
        return make_scheduler(name)
    raise SchedulerError(
        f"unknown serving scheduler {name!r}; available: {SERVE_SCHEDULER_NAMES}"
    )
