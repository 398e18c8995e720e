"""``registry-mixed``: one closed-loop client against a registry server in
a child process.

128 seeded variants of ``xeon_x5550_2gpu`` are published with strict
lint, then a Zipf-skewed stream runs: 60% fetch-by-tag, 35% preselect of
one of 3 annotated programs, 5% publish of a new revision.  One request
is in flight at a time (callers are toolchain sessions that wait for each
reply) and the client's record cache is off, so every op reaches the
server.  The working set (384 preselect keys, 128 documents) exceeds the
store's default caches (256 and 64 slots).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import sys
import time

import harness
from harness import Outcome, SpanRecorder, median, percentile

from repro.pdl import parse_pdl
from repro.service import RegistryClient
from repro.service.async_client import RegistryEndpoint
from repro.session import Session

VARIANTS = 128
ZIPF_S = 1.0
#: cumulative op mix: fetch-by-tag below the first cut, preselect below
#: the second, publish of a new revision above it
FETCH_CUT, PRESELECT_CUT = 0.60, 0.95
KINDS = ("fetch", "preselect", "publish")

PROGRAM_TEMPLATE = """\
#pragma cascabel task : x86 : I{name} : {name}_cpu : (C: readwrite, A: read, B: read)
void {name}(double *C, double *A, double *B) {{ }}

#pragma cascabel task : cuda,opencl : I{name} : {name}_gpu : (C: readwrite, A: read, B: read)
void {name}_gpu(double *C, double *A, double *B) {{ }}
"""
PROGRAMS = [PROGRAM_TEMPLATE.format(name=n) for n in ("dgemm", "dtrsm", "spmv")]

BASE_NAME = 'name="xeon-x5550-2gpu"'
BASE_EFFICIENCY = "<name>DGEMM_EFFICIENCY</name><value>0.90</value>"


def variant_xml(base: str, index: int, revision: int, efficiency: float) -> str:
    """A lint-clean variant: its own platform name and CPU DGEMM efficiency."""
    text = base.replace(BASE_NAME, f'name="xeon-x5550-2gpu-v{index:03d}-r{revision}"', 1)
    return text.replace(
        BASE_EFFICIENCY,
        f"<name>DGEMM_EFFICIENCY</name><value>{efficiency:.3f}</value>", 1,
    )


def start_server():
    """Spawn the registry CLI on an ephemeral port; returns
    ``(setup seconds, base URL, process)`` once it answers health."""
    argv = [sys.executable, "-m", "repro.service.cli", "serve", "--port", "0"]
    start = time.perf_counter()
    _, line, proc = harness.time_child_ready(argv, keep=True)
    try:
        url = line.split(" serving on ")[1].split()[0]
        client = RegistryClient(url)
        try:
            if client.health().get("status") != "ok":
                raise RuntimeError(f"registry at {url} is not healthy")
        finally:
            client.close()
    except BaseException:
        harness.stop_child(proc)
        raise
    return time.perf_counter() - start, url, proc


def _cache_ratio(before: dict, after: dict, key: str) -> float:
    hits = after[key]["hits"] - before[key]["hits"]
    misses = after[key]["misses"] - before[key]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def run(seconds: float, trace: bool, seed: int) -> Outcome:
    rng = random.Random(seed)
    base = (harness.SRC / "repro" / "pdl" / "data" / "xeon_x5550_2gpu.xml").read_text(
        encoding="utf-8"
    )
    efficiency = [rng.uniform(0.80, 0.95) for _ in range(VARIANTS)]
    zipf = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(VARIANTS)))

    setups = []
    for _ in range(harness.SETUP_REPEATS - 1):
        elapsed, _, proc = start_server()
        harness.stop_child(proc)
        setups.append(elapsed)
    elapsed, url, server = start_server()
    setups.append(elapsed)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        if len(cpus) >= 2:
            # one core each for server and client: left to the OS scheduler,
            # sharing or not sharing a core makes per-request latency bimodal
            os.sched_setaffinity(server.pid, {cpus[-1]})
            os.sched_setaffinity(0, {cpus[0]})
        outcome = _drive(url, server.pid, rng, base, efficiency, zipf, seconds, trace)
    finally:
        os.sched_setaffinity(0, cpus)
        harness.stop_child(server)
    outcome.end_to_end["setup_s"] = median(setups)
    return outcome


def _drive(url, server_pid, rng, base, efficiency, zipf, seconds, trace) -> Outcome:
    client = RegistryClient(RegistryEndpoint.parse(url, cache_size=0))
    outcome = Outcome()
    rec = SpanRecorder(trace)
    latest: dict[str, str] = {}  # tag -> digest of its newest revision
    revision = [0] * VARIANTS
    sent: dict[str, str] = {}  # digest -> XML text that produced it
    seen: dict[tuple[str, int], str] = {}  # (digest, program) -> fingerprint
    latencies: dict[str, list[float]] = {kind: [] for kind in KINDS}

    def publish(index: int) -> None:
        xml = variant_xml(base, index, revision[index], efficiency[index])
        reply = client.publish(f"variant-{index:03d}", xml, strict_lint=True)
        latest[f"variant-{index:03d}"] = reply["digest"]
        sent[reply["digest"]] = xml

    try:
        for index in range(VARIANTS):
            publish(index)
        before = client.metrics()["store"]
        requests_before = client.cache_stats()["network_requests"]

        def one() -> None:
            roll = rng.random()
            kind = KINDS[(roll >= FETCH_CUT) + (roll >= PRESELECT_CUT)]
            index = rng.choices(range(VARIANTS), cum_weights=zipf)[0]
            tag = f"variant-{index:03d}"
            program = rng.randrange(len(PROGRAMS))
            start = time.perf_counter()
            try:
                with rec.span(f"service.{kind}"):
                    if kind == "fetch":
                        reply = client.fetch(tag)
                    elif kind == "preselect":
                        reply = client.preselect(tag, PROGRAMS[program])
                    else:
                        revision[index] += 1
                        publish(index)
            except Exception as exc:  # noqa: BLE001  (the loop keeps going)
                outcome.ops += 1
                outcome.fail(f"{kind} {tag}: {type(exc).__name__}: {exc}")
                return
            latencies[kind].append(time.perf_counter() - start)
            outcome.ops += 1
            if kind == "fetch":
                digest = hashlib.sha256(reply["xml"].encode("utf-8")).hexdigest()
                if digest != latest[tag] or reply["digest"] != latest[tag]:
                    outcome.fail(f"fetch {tag}: digest {digest} != {latest[tag]}")
            elif kind == "preselect":
                report = reply["report"]
                if report["digest"] != latest[tag]:
                    outcome.fail(f"preselect {tag}: stale digest {report['digest']}")
                else:
                    seen.setdefault((report["digest"], program), report["fingerprint"])
                    if seen[(report["digest"], program)] != report["fingerprint"]:
                        outcome.fail(f"preselect {tag}: fingerprint changed")

        wall = harness.run_for(seconds, one)
        after = client.metrics()["store"]
        network = client.cache_stats()["network_requests"] - requests_before
        peak = harness.peak_rss_mib(server_pid)
    finally:
        client.close()

    # every distinct preselect report against an in-process Session
    session = Session()
    platforms: dict[str, object] = {}
    for (digest, program), fingerprint in seen.items():
        if digest not in platforms:
            platforms[digest] = parse_pdl(sent[digest])
        local = session.preselect(
            PROGRAMS[program], platforms[digest], with_builtin_variants=False
        ).fingerprint()
        if local != fingerprint:
            outcome.fail(f"preselect {digest[:12]}/{program}: {fingerprint} != {local}")

    every = [x for kind in latencies for x in latencies[kind]] or [0.0]
    outcome.end_to_end = {
        "throughput_per_s": outcome.ops / wall,
        "latency_p50_ms": 1e3 * median(every),
        "peak_rss_mib": peak,
    }
    outcome.report = {
        "ops_per_s": (outcome.ops / wall, "1/s"),
        "op_p50_ms": (1e3 * median(every), "ms"),
        "op_p99_ms": (1e3 * percentile(every, 99), "ms"),
        "ops": (outcome.ops, "count"),
        "preselect_reports_checked": (len(seen), "count"),
    }
    if trace:
        per_layer = {}
        for kind, values in latencies.items():
            per_layer[f"service.{kind}_p50_ms"] = 1e3 * median(values)
            per_layer[f"service.{kind}_p99_ms"] = 1e3 * percentile(values or [0.0], 99)
        spanned = sum(s.duration for s in rec.spans)
        per_layer.update({
            "service.preselect_hit_ratio": _cache_ratio(before, after, "preselect_cache"),
            "service.platform_cache_hit_ratio": _cache_ratio(before, after, "platform_cache"),
            "service.network_requests_per_op": network / max(1, outcome.ops),
            "bench.unattributed_s": wall - spanned,
        })
        outcome.per_layer = per_layer
        harness.TRACE_DIR.mkdir(exist_ok=True)
        rec.write(harness.TRACE_DIR / "spans-registry-mixed.json")
    return outcome
