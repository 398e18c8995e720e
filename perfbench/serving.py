"""``serve-slo-60s``: the serving engine's own event loop.

``ServeEngine`` on ``xeon_x5550_2gpu`` with ``dmda-slo`` and autoscale
(the ``BENCH_serve`` full configuration), two tenants at 400 requests/s
each — interactive with a 10 ms deadline, bursty batch — over 60
simulated seconds (~65k requests).  Arrivals are generated up front from
the workload seed; each pass serves the same stream with a fresh engine.
"""

from __future__ import annotations

import gc
import time

import harness
from harness import Outcome, SpanRecorder, median

from repro.pdl.catalog import load_platform
from repro.serve import (
    AutoscalePolicy,
    ServeConfig,
    ServeEngine,
    TenantSpec,
    synthetic_arrivals,
)

PLATFORM = "xeon_x5550_2gpu"
DURATION_S = 60.0
TENANTS = [
    TenantSpec(name="interactive", rate_per_s=400.0, size=256, deadline_s=0.01),
    TenantSpec(name="batch", rate_per_s=400.0, size=256, burst_factor=2.5),
]
CONFIG = ServeConfig(
    scheduler="dmda-slo",
    default_deadline_s=0.03,
    max_queue=512,
    autoscale=AutoscalePolicy(enabled=True, min_workers=2),
)


def build_engine() -> ServeEngine:
    """The system ``setup_s`` brings up (platform load + engine)."""
    return ServeEngine(load_platform(PLATFORM), config=CONFIG)


def run(seconds: float, trace: bool, seed: int) -> Outcome:
    arrivals = synthetic_arrivals(TENANTS, duration_s=DURATION_S, seed=seed)
    platform = load_platform(PLATFORM)
    outcome = Outcome()
    rec = SpanRecorder(trace)
    walls: list[float] = []
    fingerprints: list[str] = []
    first: dict = {}  # figures of the first pass (every pass must repeat it)

    def one() -> None:
        gc.collect()
        start = time.perf_counter()
        try:
            with rec.span("pass"):
                with rec.span("serve.engine_init"):
                    engine = ServeEngine(platform, config=CONFIG)
                with rec.span("serve.run"):
                    report = engine.run(arrivals)
                with rec.span("obs.report"):
                    fingerprint = report.fingerprint()
        except Exception as exc:  # noqa: BLE001  (the pass boundary keeps going)
            outcome.ops += 1
            outcome.fail(f"serve pass: {type(exc).__name__}: {exc}")
            return
        walls.append(time.perf_counter() - start)
        outcome.ops += 1
        totals = report.totals
        accounted = totals["completed"] + totals["shed"] + totals["rate_limited"]
        if accounted != totals["offered"] or totals["offered"] != len(arrivals):
            outcome.fail(
                f"serve: completed+shed+rate_limited={accounted},"
                f" offered={totals['offered']}, stream={len(arrivals)}"
            )
        elif fingerprints and fingerprint != fingerprints[0]:
            outcome.fail(f"serve: report fingerprint {fingerprint} != {fingerprints[0]}")
        fingerprints.append(fingerprint)
        if not first:
            first.update(
                miss_rate=report.miss_rate,
                admitted=totals["admitted"],
                max_active=report.autoscaler["max_active"],
            )

    # two passes at least: the determinism check compares them
    harness.run_for(seconds, one, minimum=2)
    rates = [len(arrivals) / w for w in walls] or [0.0]
    outcome.end_to_end = {
        "throughput_per_s": median(rates),
        "latency_p50_ms": 1e3 * median(walls),
    }
    miss_rate = first.get("miss_rate", 0.0)
    outcome.report = {
        "sim_requests_per_s": (median(rates), "1/s"),
        "slo_miss_rate": (miss_rate, "ratio"),
        "offered": (len(arrivals), "count"),
        "passes": (len(walls), "count"),
    }
    if trace:
        layers = rec.self_times()
        outcome.per_layer = {
            "serve.engine_init_s": median([t.get("serve.engine_init", 0.0) for t in layers]),
            "serve.run_s": median([t.get("serve.run", 0.0) for t in layers]),
            "obs.report_s": median([t.get("obs.report", 0.0) for t in layers]),
            "serve.admitted_ratio": first.get("admitted", 0) / len(arrivals),
            "serve.max_active_lanes": first.get("max_active", 0),
            "serve.slo_miss_rate": miss_rate,
            "bench.unattributed_s": median([t.get("unattributed", 0.0) for t in layers]),
        }
        harness.TRACE_DIR.mkdir(exist_ok=True)
        rec.write(harness.TRACE_DIR / "spans-serve-slo-60s.json")
    return outcome
