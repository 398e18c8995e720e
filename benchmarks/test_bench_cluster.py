"""Sharded registry scaling: aggregate throughput from cache capacity.

Serves one mixed closed-loop workload (fetch + pre-selection batches +
periodic re-publishes over 64 platform variants) through two topologies:

* ``1x0`` — a single shard, the pre-cluster deployment;
* ``4x2`` — four shards with two read replicas each.

A third, reported-only row is the equal-memory control: ``1x0-mem384``
is one shard whose caches hold the ``4x2`` topology's aggregate distinct
capacity (4 shards x 96 slots; replicas only copy their primary's keys).
It separates "more cache" from "more shards".

The machine has one core, so the speedup is NOT parallelism: it is
*aggregate cache capacity*.  Every node bounds its pre-selection memo
and parsed-platform LRU; the 64-variant x 3-program working set cycles
through a single shard's memo (classic LRU worst case: zero hits, every
pre-selection recomputed) but partitions across four shards so each
shard's share fits and stays memo-resident.

Two gates guard the numbers:

* **throughput** — aggregate fetch throughput on the mixed load must be
  at least ``SCALE_FLOOR`` x higher on ``4x2`` than on ``1x0``;
* **fingerprint equality** — the fetch payloads collected from both
  topologies must be byte-identical (same sha256 over the sorted
  record list): sharding may change *where* bytes live, never *what*
  bytes come back.

Results land in ``BENCH_cluster.json`` (override ``BENCH_CLUSTER_JSON``).
"""

import asyncio
import json
import os
import time

from benchmarks.conftest import print_report
from repro.experiments.reporting import format_table
from repro.obs.digest import fingerprint_payload
from repro.pdl import load_platform, write_pdl
from repro.service import AsyncClusterClient, ClusterClient, RegistryCluster

BASE_PLATFORM = "xeon_x5550_2gpu"
VARIANTS = 64
WARMUP_ROUNDS = 3  # >= nodes per shard, so every replica's memo warms
MEASURED_ROUNDS = 3
PUBLISH_EVERY = 8  # every 8th loop iteration re-publishes its variant

#: 4 shards must beat 1 shard by at least this factor on fetch ops/s
SCALE_FLOOR = 2.5

TOPOLOGIES = [("1x0", 1, 0), ("4x2", 4, 2)]

#: per-node cache bounds: the full working set (64 variants x 3
#: programs = 192 memo keys) cycles through one node's 96 slots with
#: zero hits, but each of 4 shards owns ~48 keys, which fit
STORE_KWARGS = {"platform_cache_size": 96, "preselect_cache_size": 96}

#: equal-memory control row: one shard with 4 x 96 slots (no gate)
EQUAL_MEMORY = ("1x0-mem384", 1, 0)
EQUAL_MEMORY_KWARGS = {"platform_cache_size": 384, "preselect_cache_size": 384}


def _program(index: int) -> str:
    """An annotated translation unit with three interfaces, each carrying
    an x86 fallback plus accelerator variants (distinct sources so the
    pre-selection memo sees three keys per platform)."""
    lines = []
    for iface in ("Idgemm", "Idtrsm", "Idsyrk"):
        for arch, suffix in (("x86", "cpu"), ("cuda,opencl", "gpu"),
                             ("cellsdk", "spe")):
            fn = f"{iface.lower()}_{suffix}_{index}"
            lines.append(
                f"#pragma cascabel task : {arch} : {iface} : {fn} :"
                " (C: readwrite, A: read, B: read)"
            )
            lines.append(f"void {fn}(double *C, double *A, double *B) {{ }}")
    return "\n".join(lines) + "\n"


PROGRAMS = [_program(i) for i in range(3)]


def _variants() -> list:
    out = []
    for i in range(VARIANTS):
        platform = load_platform(BASE_PLATFORM)
        platform.name = f"variant-{i:03d}"
        out.append((f"variant-{i:03d}", write_pdl(platform)))
    return out


def _run_topology(
    label: str,
    shards: int,
    replicas: int,
    variants: list,
    store_kwargs: dict = STORE_KWARGS,
):
    launcher = RegistryCluster(
        shards=shards,
        replicas=replicas,
        replication_interval_s=0.02,
        store_kwargs=dict(store_kwargs),
    )
    try:
        cluster_map = launcher.start()
        # client record caches off: every fetch must cross the wire, so
        # the measurement exercises the servers, not the client cache
        client = ClusterClient(
            cluster_map, endpoint_overrides={"cache_size": 0}
        )

        publish_s = time.perf_counter()
        for name, xml in variants:
            client.publish(name, xml)
        publish_s = time.perf_counter() - publish_s
        if replicas:
            client.wait_converged(timeout_s=30.0)

        batch = [{"source": source} for source in PROGRAMS]

        def mixed_round(collect=None):
            for index, (name, xml) in enumerate(variants):
                record = client.fetch(name)
                client.preselect_batch(name, batch)
                if index % PUBLISH_EVERY == 0:
                    client.publish(name, xml)  # idempotent re-publish
                if collect is not None:
                    collect.append(record)

        for _ in range(WARMUP_ROUNDS):
            mixed_round()

        records: list = []
        measured_s = time.perf_counter()
        mixed_round(collect=records)
        for _ in range(MEASURED_ROUNDS - 1):
            mixed_round()
        measured_s = time.perf_counter() - measured_s

        fetches = MEASURED_ROUNDS * len(variants)
        preselects = fetches * len(PROGRAMS)
        publishes = MEASURED_ROUNDS * (len(variants) // PUBLISH_EVERY)

        merged = client.metrics()["merged"]
        fingerprint = fingerprint_payload(
            {"fetches": sorted(records, key=lambda r: r["ref"])}
        )

        # concurrency sidebar: a 32-deep burst on one digest shows the
        # per-node single-flight collapse (not part of the timed loop)
        digest = client.resolve(variants[0][0])

        async def burst():
            aclient = AsyncClusterClient(
                cluster_map, endpoint_overrides={"cache_size": 0}
            )
            try:
                await asyncio.gather(*(aclient.fetch(digest) for _ in range(32)))
                return aclient.cache_stats()["total"]["coalesced"]
            finally:
                await aclient.aclose()

        coalesced = asyncio.run(burst())
        client.close()
        return {
            "topology": label,
            "shards": shards,
            "replicas": replicas,
            "store_caches": dict(store_kwargs),
            "publish_s": publish_s,
            "measured_s": measured_s,
            "fetches": fetches,
            "preselects": preselects,
            "publishes": publishes,
            "fetch_ops_per_s": fetches / measured_s,
            "mixed_ops_per_s": (fetches + preselects + publishes) / measured_s,
            "preselect_hit_ratio": merged["preselect_cache"]["hit_ratio"],
            "latency_p50_s": merged["latency_s"]["p50"],
            "latency_p99_s": merged["latency_s"]["p99"],
            "burst_coalesced": coalesced,
            "fetch_fingerprint": fingerprint,
        }
    finally:
        launcher.stop()


def test_bench_cluster_scaling():
    variants = _variants()
    results = {
        label: _run_topology(label, shards, replicas, variants)
        for label, shards, replicas in TOPOLOGIES
    }
    single, sharded = results["1x0"], results["4x2"]
    control = _run_topology(*EQUAL_MEMORY, variants, EQUAL_MEMORY_KWARGS)
    results[control["topology"]] = control
    ratio = sharded["fetch_ops_per_s"] / single["fetch_ops_per_s"]

    payload = {
        "base_platform": BASE_PLATFORM,
        "variants": VARIANTS,
        "programs": len(PROGRAMS),
        "rounds": {"warmup": WARMUP_ROUNDS, "measured": MEASURED_ROUNDS},
        "store_caches": STORE_KWARGS,
        "scale_floor": SCALE_FLOOR,
        "fetch_throughput_ratio": ratio,
        "fingerprints_identical": (
            single["fetch_fingerprint"] == sharded["fetch_fingerprint"]
        ),
        "equal_memory_fingerprint_identical": (
            control["fetch_fingerprint"] == single["fetch_fingerprint"]
        ),
        "topologies": results,
    }
    out = os.environ.get("BENCH_CLUSTER_JSON", "BENCH_cluster.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows = [
        (
            r["topology"],
            f"{r['fetch_ops_per_s']:.0f}",
            f"{r['mixed_ops_per_s']:.0f}",
            f"{(r['preselect_hit_ratio'] or 0.0) * 100:.0f}%",
            f"{(r['latency_p99_s'] or 0.0) * 1e3:.2f}",
            str(r["burst_coalesced"]),
            r["fetch_fingerprint"][:16],
        )
        for r in (single, sharded, control)
    ]
    print_report(
        f"CLUSTER — mixed-load scaling, {VARIANTS} variants"
        f" x {len(PROGRAMS)} programs (single core)",
        format_table(
            ["topology", "fetch/s", "mixed ops/s", "memo hits", "p99 [ms]",
             "coalesced", "fingerprint"],
            rows,
        )
        + f"\nfetch throughput ratio {ratio:.2f}x (floor {SCALE_FLOOR}x),"
        " payloads byte-identical across topologies",
    )

    # gate 1: what comes back never depends on where it lives
    assert single["fetch_fingerprint"] == sharded["fetch_fingerprint"], (
        "sharding changed fetch payload bytes"
    )
    # gate 2: aggregate cache capacity must buy real throughput
    assert ratio >= SCALE_FLOOR, (
        f"4-shard topology is only {ratio:.2f}x the single shard"
        f" (floor {SCALE_FLOOR}x)"
    )
    # the mechanism, not just the effect: one shard's memo thrashes, the
    # partitioned working set stays resident
    assert (single["preselect_hit_ratio"] or 0.0) < 0.2
    assert (sharded["preselect_hit_ratio"] or 0.0) > 0.5
