"""The two DAG workloads: PDL text → parse → lint → translate → submit →
simulate → report, one untraced pass at a time.

``fig5-dgemm-32k`` is the paper's Figure-5 box (``xeon_x5550_2gpu``, 10
workers, ~22k transfers); ``mesh16-dgemm-262k`` is a 16x16 many-core mesh
(257 PUs, a 372 KB document) with no transfers at all.  Both DAGs are
seed-independent, so their trace fingerprints are committed below.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import harness
from harness import Outcome, SpanRecorder, median

from repro.analysis.engine import Linter
from repro.cascabel.driver import translate
from repro.experiments.scenarios import synthetic_mesh_platform
from repro.experiments.workloads import submit_tiled_dgemm
from repro.pdl import parse_pdl, write_pdl
from repro.runtime import RuntimeEngine
from repro.session import Session

PDL_DATA = harness.SRC / "repro" / "pdl" / "data"
CASCABEL_DATA = harness.SRC / "repro" / "cascabel" / "data"

#: layers a pass is split into, in call order
LAYERS = (
    "pdl.parse", "analysis.lint", "cascabel.translate", "runtime.engine_init",
    "runtime.submit", "runtime.simulate", "obs.report",
)


@dataclass(frozen=True)
class DagSpec:
    name: str
    n: int
    block: int
    mesh: int  # mesh edge length; 0 = the Figure-5 descriptor
    fingerprint: str  # committed TraceLog fingerprint of the DAG

    @property
    def tasks(self) -> int:
        return (self.n // self.block) ** 3

    def inputs(self) -> tuple[str, str]:
        """(PDL text, annotated program) the pass starts from."""
        source = (CASCABEL_DATA / "dgemm_serial.c").read_text(encoding="utf-8")
        if not self.mesh:
            return (PDL_DATA / "xeon_x5550_2gpu.xml").read_text(encoding="utf-8"), source
        pdl = write_pdl(synthetic_mesh_platform(self.mesh, self.mesh))
        return pdl, source.replace("executionset01", "tiles")


FIG5 = DagSpec(
    "fig5-dgemm-32k", 8192, 256, 0,
    "8e54e78da291230f8ccff8711193c01cf5b29805b8a371e79aada4bda8421eaa",
)
MESH = DagSpec(
    "mesh16-dgemm-262k", 16384, 256, 16,
    "1c6285ffc475e5c93aafeb2317d42cbfbce619f6fe6be0f89acfeaf4d45b6823",
)


class _Pass:
    """What one pass produced.  ``result`` (with its full trace) is only
    needed by :func:`_check`, which drops it so a pass can be kept for its
    counters without holding hundreds of MiB of trace."""

    def __init__(self):
        self.wall = 0.0
        self.result = None
        self.fingerprint = ""
        self.findings = 0
        self.mem_after_submit = 0.0
        self.mem_after_simulate = 0.0

    def keep_counters(self) -> None:
        self.transfer_count = self.result.transfer_count
        self.bytes_transferred = self.result.bytes_transferred
        self.makespan = self.result.makespan
        self.result = None


def _pipeline(spec: DagSpec, pdl: str, source: str, rec: SpanRecorder) -> _Pass:
    out = _Pass()
    start = time.perf_counter()
    with rec.span("pass"):
        with rec.span("pdl.parse"):
            platform = parse_pdl(pdl)
        with rec.span("analysis.lint"):
            out.findings = len(Linter().lint_platform(platform).diagnostics)
        with rec.span("cascabel.translate"):
            translate(source, platform, lint="warn")
        with rec.span("runtime.engine_init"):
            engine = RuntimeEngine(platform, scheduler="dmda")
        with rec.span("runtime.submit"):
            submit_tiled_dgemm(engine, spec.n, spec.block)
        if rec.enabled:
            out.mem_after_submit = harness.rss_mib()
        with rec.span("runtime.simulate"):
            out.result = engine.run()
        if rec.enabled:
            out.mem_after_simulate = harness.rss_mib()
        with rec.span("obs.report"):
            out.result.to_payload()
            out.fingerprint = out.result.trace.fingerprint()
    out.wall = time.perf_counter() - start
    return out


def _session_pass(spec: DagSpec, pdl: str, source: str) -> tuple[_Pass, int]:
    """The same pipeline through ``Session(trace=True)``; returns the pass
    and the number of spans the program's own tracer recorded."""
    out = _Pass()
    start = time.perf_counter()
    with Session(trace=True) as session:
        session.parse(pdl)
        session.lint()
        session.translate(source, lint="warn")
        out.result = session.run(
            lambda engine: submit_tiled_dgemm(engine, spec.n, spec.block)
        )
        out.result.to_payload()
        out.fingerprint = out.result.trace.fingerprint()
        spans = len(session.tracer.spans)
    out.wall = time.perf_counter() - start
    return out, spans


def _check(spec: DagSpec, done: _Pass, outcome: Outcome) -> None:
    """Task count = p³, every task completes exactly once, committed
    fingerprint.  Any failure marks the pass failed (never dropped)."""
    result = done.result
    tags = [t.tag for t in result.trace.tasks]
    problems = []
    if result.task_count != spec.tasks:
        problems.append(f"task_count {result.task_count} != {spec.tasks}")
    if len(tags) != spec.tasks or len(set(tags)) != spec.tasks:
        problems.append(f"{len(tags)} completions of {len(set(tags))} tasks")
    if done.fingerprint != spec.fingerprint:
        problems.append(f"fingerprint {done.fingerprint}")
    outcome.ops += 1
    if problems:
        outcome.fail(f"{spec.name}: " + "; ".join(problems))
    done.keep_counters()


def _guarded(spec: DagSpec, outcome: Outcome, call):
    """Run one pass; an exception counts as a failed op, not a crash."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001  (the pass boundary keeps going)
        outcome.ops += 1
        outcome.fail(f"{spec.name}: {type(exc).__name__}: {exc}")
        return None


def run(spec: DagSpec, seconds: float, trace: bool) -> Outcome:
    pdl, source = spec.inputs()
    outcome = Outcome()
    if not trace:
        walls: list[float] = []
        makespans: list[float] = []  # the same for every pass of a DAG

        def one() -> None:
            gc.collect()
            done = _guarded(spec, outcome, lambda: _pipeline(spec, pdl, source, SpanRecorder(False)))
            if done is not None:
                _check(spec, done, outcome)
                walls.append(done.wall)
                makespans.append(done.makespan)

        harness.run_for(seconds, one)
        rates = [spec.tasks / w for w in walls] or [0.0]
        outcome.end_to_end = {
            "throughput_per_s": median(rates),
            "latency_p50_ms": 1e3 * median(walls),
        }
        outcome.report = {
            "tasks_per_s": (median(rates), "1/s"),
            "passes": (len(walls), "count"),
            "sim_makespan_s": (makespans[0] if makespans else 0.0, "sim_s"),
        }
        return outcome
    return _traced(spec, pdl, source, seconds, outcome)


def _traced(spec: DagSpec, pdl: str, source: str, seconds: float, outcome: Outcome) -> Outcome:
    """Rounds of: untraced pass, pass under the benchmark's spans, and
    (fig5) a Session(trace=True) pass.  Per-layer numbers are medians of
    the spanned passes."""
    rec = SpanRecorder(True)
    plain: list[float] = []
    spanned: list[_Pass] = []
    session_walls: list[float] = []
    session_spans: list[int] = []
    gc_counter = harness.GcCounter()

    def one() -> None:
        gc.collect()
        done = _guarded(spec, outcome, lambda: _pipeline(spec, pdl, source, SpanRecorder(False)))
        if done is not None:
            _check(spec, done, outcome)
            plain.append(done.wall)
        del done  # free this pass before the next one allocates
        gc.collect()
        with gc_counter:
            done = _guarded(spec, outcome, lambda: _pipeline(spec, pdl, source, rec))
        if done is not None:
            _check(spec, done, outcome)
            spanned.append(done)
        if not spec.mesh:
            gc.collect()
            traced = _guarded(spec, outcome, lambda: _session_pass(spec, pdl, source))
            if traced is not None:
                _check(spec, traced[0], outcome)
                session_walls.append(traced[0].wall)
                session_spans.append(traced[1])

    harness.run_for(seconds, one)
    harness.TRACE_DIR.mkdir(exist_ok=True)
    rec.write(harness.TRACE_DIR / f"spans-{spec.name}.json")

    layer_self = rec.self_times()
    per_layer = {
        f"{layer}_s": median([t.get(layer, 0.0) for t in layer_self])
        for layer in LAYERS
    }
    submit_s = per_layer["runtime.submit_s"]
    simulate_s = per_layer["runtime.simulate_s"]
    untraced = median(plain)
    if spanned:
        last = spanned[-1]
        per_layer.update({
            "analysis.findings": last.findings,
            "runtime.transfer_count": last.transfer_count,
            "runtime.transfers_per_task": last.transfer_count / spec.tasks,
            "runtime.bytes_transferred": last.bytes_transferred,
            "runtime.sim_makespan_s": last.makespan,
        })
    per_layer.update({
        "runtime.submit_tasks_per_s": spec.tasks / submit_s if submit_s else 0.0,
        "runtime.simulate_tasks_per_s": spec.tasks / simulate_s if simulate_s else 0.0,
        "mem.after_submit_mib": median([p.mem_after_submit for p in spanned]),
        "mem.after_simulate_mib": median([p.mem_after_simulate for p in spanned]),
        "host.gc_pause_s": gc_counter.pause_s / max(1, len(spanned)),
        "host.gc_collections": gc_counter.collections / max(1, len(spanned)),
        "bench.unattributed_s": median([t.get("unattributed", 0.0) for t in layer_self]),
        "bench.tracing_overhead_ratio": (
            median([p.wall for p in spanned]) / untraced if untraced else 0.0
        ),
    })
    if session_walls:
        traced_wall = median(session_walls)
        per_layer.update({
            "obs.traced_tasks_per_s": spec.tasks / traced_wall,
            "obs.trace_overhead_ratio": traced_wall / untraced if untraced else 0.0,
            "obs.spans_per_task": median(session_spans) / spec.tasks,
        })
    if not spec.mesh:
        per_layer["model.fig5_speedup_error"] = fig5_speedup_error()
    outcome.per_layer = per_layer
    outcome.report = {
        "tasks_per_s": (spec.tasks / untraced if untraced else 0.0, "1/s"),
        "traced_tasks_per_s": (per_layer.get("obs.traced_tasks_per_s", 0.0), "1/s"),
        "sim_makespan_s": (per_layer.get("runtime.sim_makespan_s", 0.0), "sim_s"),
    }
    return outcome


def fig5_speedup_error() -> float:
    """Mean relative error of the simulated Figure-5 speed-ups (paper
    configuration, block 1024) against the paper's.  The references
    ``PAPER_SPEEDUP_STARPU``/``_2GPU`` are read off the paper's bar chart;
    the paper prints no table."""
    from repro.experiments.figure5 import (
        PAPER_SPEEDUP_STARPU,
        PAPER_SPEEDUP_STARPU_2GPU,
        run_figure5,
    )

    result = run_figure5()
    errors = [
        abs(result.row(label).speedup - paper) / paper
        for label, paper in (
            ("starpu", PAPER_SPEEDUP_STARPU),
            ("starpu+2gpu", PAPER_SPEEDUP_STARPU_2GPU),
        )
    ]
    return sum(errors) / len(errors)
