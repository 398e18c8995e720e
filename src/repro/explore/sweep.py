"""Parallel sweep driver: score candidate families across a worker pool.

The classic design-space-exploration harness shape (a pool of processes
draining a queue of configurations, as in Lumos' ``heterosys`` analysis
workers) on top of :func:`~repro.explore.score.score_candidate`.
Candidates are *synthesized in the parent* — deterministically — and
shipped to workers whole (platforms pickle), so workers only ever
score; collation sorts by content digest, which makes the result list,
and every report built from it, independent of worker count and
completion order.

``run_exploration`` is the one-call front door the Session facade and
the CLI share: synthesize → sweep → Pareto report.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Optional, Sequence, Union

from repro.errors import ExploreError
from repro.explore.pareto import FrontierReport, build_report
from repro.explore.score import PointScore, WorkloadSpec, score_candidate
from repro.explore.space import Budget, DesignSpace
from repro.explore.synth import Candidate, SynthesisResult, synthesize
from repro.obs import spans as _obs

__all__ = ["sweep", "run_exploration", "default_processes"]


def default_processes() -> int:
    """Worker count when the caller does not choose: the affinity-visible
    core count (a 4-core box sweeps 4-wide, CI containers stay honest)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def _score_job(job: tuple) -> PointScore:
    """Pool entry point (top-level so every start method can import it)."""
    candidate, workload, tuning_path = job
    return score_candidate(candidate, workload, tuning_path=tuning_path)


def _pool_context(name: Optional[str]):
    """The requested multiprocessing context; ``fork`` where the platform
    offers it (cheap, inherits loaded modules), ``spawn`` otherwise."""
    if name is not None:
        return multiprocessing.get_context(name)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def sweep(
    candidates: Sequence[Candidate],
    workload: WorkloadSpec,
    *,
    processes: Optional[int] = None,
    mp_context: Optional[str] = None,
    tuning_path: Optional[str] = None,
) -> list[PointScore]:
    """Score every candidate; returns scores sorted by content digest.

    ``processes``: ``None``/``0``/``1`` scores inline (serial); larger
    values fan out over a ``multiprocessing`` pool.  Scoring is a pure
    function of (candidate, workload), so the digest-sorted result is
    byte-identical whichever path ran — the determinism tests hold the
    subsystem to that.
    """
    if processes is not None and processes < 0:
        raise ExploreError("processes must be >= 0")
    n_procs = int(processes or 1)
    jobs = [(c, workload, tuning_path) for c in candidates]

    tracer = _obs.get_tracer()
    with _obs.span(
        "explore.sweep",
        points=len(jobs),
        processes=n_procs,
        workload=workload.name,
    ):
        if n_procs <= 1 or len(jobs) <= 1:
            scores = []
            for job in jobs:
                scores.append(_score_job(job))
                if tracer is not None:
                    tracer.metrics.counter("explore.points_evaluated").inc()
        else:
            ctx = _pool_context(mp_context)
            chunksize = max(1, len(jobs) // (n_procs * 4))
            scores = []
            with ctx.Pool(processes=n_procs) as pool:
                for score in pool.imap_unordered(
                    _score_job, jobs, chunksize=chunksize
                ):
                    scores.append(score)
                    if tracer is not None:
                        tracer.metrics.counter("explore.points_evaluated").inc()
    scores.sort(key=lambda s: s.digest)
    return scores


def run_exploration(
    space: Union[str, DesignSpace] = "dgemm-default",
    budget: Union[str, Budget] = "sys-large",
    *,
    workload: Union[None, str, WorkloadSpec] = None,
    seed: int = 0,
    max_points: Optional[int] = None,
    processes: Optional[int] = None,
    mp_context: Optional[str] = None,
    tuning_path: Optional[str] = None,
) -> FrontierReport:
    """Synthesize → sweep → Pareto report, in one call.

    ``space`` and ``budget`` accept shipped preset names or explicit
    objects; ``workload`` a :class:`WorkloadSpec`, a workload name, or
    ``None`` for the default DGEMM setup.  The returned report's
    :attr:`~repro.explore.pareto.FrontierReport.timing` carries the
    wall-clock sweep stats (outside the fingerprinted payload).
    """
    if workload is None:
        workload = WorkloadSpec()
    elif isinstance(workload, str):
        workload = WorkloadSpec(name=workload)

    synthesis: SynthesisResult = synthesize(
        space, budget, seed=seed, max_points=max_points
    )
    t0 = time.perf_counter()
    scores = sweep(
        synthesis.candidates,
        workload,
        processes=processes,
        mp_context=mp_context,
        tuning_path=tuning_path,
    )
    elapsed = time.perf_counter() - t0
    return build_report(
        synthesis,
        scores,
        workload,
        timing={
            "sweep_wall_s": elapsed,
            "points_per_second": (len(scores) / elapsed) if elapsed > 0 else 0.0,
            "processes": int(processes or 1),
        },
    )
