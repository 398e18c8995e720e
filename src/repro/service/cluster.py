"""Sharded, replicated registry: placement map, launcher, cluster client.

Sharding model
--------------
Content addressing makes sharding safe and coordination-free:

* **Blobs** place by *digest* on a consistent-hash ring
  (:class:`~repro.service.ring.HashRing`) — a blob's identity is its
  content, so its home shard is a pure function of its bytes.
* **Tags** — the only movable refs — place by *name* on the same ring,
  making each tag's owning shard the single serialization point for its
  moves.  A tag record is directory state (``name → digest``); the blob
  it points at usually lives on a different shard, which the owning
  store accepts in ``tag_directory`` mode.

Every client and server derives the identical placement from the shared
:class:`ClusterMap`, so there is no coordinator process, no handshake
and no metadata service: the map *is* the cluster.

Consistency contract
--------------------
Writes go to shard primaries; each primary streams an ordered oplog to
its read replicas (``GET /oplog``).  Immutable digest reads are strongly
consistent everywhere (a replica either has the exact bytes or a
miss — never different bytes).  Tag reads are eventually consistent
with staleness bounded by the replication poll interval: a replica may
serve a tag's *previous* digest for one window, but never a wrong
``(digest, xml)`` pair, and a missing entry falls back to the primary.

Topologies
----------
:class:`RegistryCluster` launches an N-shard × R-replica topology
in-process (each node a full :class:`~repro.service.server.ServerThread`
with its own store and real HTTP port — the same wire path a
multi-process deployment uses; nodes can equally be started as separate
OS processes via ``repro registry serve``/``cluster serve`` given the
same map file).
"""

from __future__ import annotations

import asyncio
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ServiceError, UnknownPlatformError
from repro.model.platform import Platform
from repro.obs import spans as _obs
from repro.pdl.catalog import (
    available_platforms,
    content_digest,
    is_full_digest,
    parse_cached,
    platform_path,
)
from repro.pdl.diff import diff_platforms
from repro.pdl.writer import write_pdl
from repro.service.async_client import (
    LOOP_RUNNER,
    AsyncRegistryClient,
    RegistryEndpoint,
    _ClientCompositions,
    blocking_facade,
)
from repro.service.metrics import ServiceMetrics
from repro.service.ring import HashRing
from repro.service.server import ServerThread, ServiceConfig
from repro.service.store import DescriptorStore

__all__ = [
    "ShardSpec",
    "ClusterMap",
    "RegistryCluster",
    "AsyncClusterClient",
    "ClusterClient",
]

@dataclass(frozen=True)
class ShardSpec:
    """One shard: a write primary plus zero or more read replicas."""

    shard_id: str
    primary: str  # base URL
    replicas: Tuple[str, ...] = ()

    @property
    def nodes(self) -> Tuple[str, ...]:
        """All read-serving node URLs (primary first)."""
        return (self.primary, *self.replicas)

    def to_payload(self) -> dict:
        return {
            "id": self.shard_id,
            "primary": self.primary,
            "replicas": list(self.replicas),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardSpec":
        return cls(
            shard_id=str(payload["id"]),
            primary=str(payload["primary"]),
            replicas=tuple(str(r) for r in payload.get("replicas", ())),
        )


@dataclass(frozen=True)
class ClusterMap:
    """The cluster's entire topology: shard specs + ring parameters.

    Deterministic placement: two processes holding equal maps compute
    identical blob and tag owners with no communication.
    """

    shards: Tuple[ShardSpec, ...]
    vnodes: int = 64

    def __post_init__(self):
        if not self.shards:
            raise ValueError("a cluster map needs at least one shard")
        object.__setattr__(
            self,
            "_ring",
            HashRing([s.shard_id for s in self.shards], vnodes=self.vnodes),
        )
        object.__setattr__(
            self, "_by_id", {s.shard_id: s for s in self.shards}
        )

    # -- placement -----------------------------------------------------------
    def shard_for_blob(self, digest: str) -> ShardSpec:
        """Owning shard of a content digest."""
        return self._by_id[self._ring.node_for(f"blob:{digest}")]

    def shard_for_tag(self, name: str) -> ShardSpec:
        """Owning shard of a tag name (its move serialization point)."""
        return self._by_id[self._ring.node_for(f"tag:{name}")]

    def shard(self, shard_id: str) -> ShardSpec:
        return self._by_id[shard_id]

    # -- (de)serialization ---------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "vnodes": self.vnodes,
            "shards": [s.to_payload() for s in self.shards],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ClusterMap":
        return cls(
            shards=tuple(
                ShardSpec.from_payload(p) for p in payload.get("shards", ())
            ),
            vnodes=int(payload.get("vnodes", 64)),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ClusterMap":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_payload(json.load(handle))

    def __len__(self) -> int:
        return len(self.shards)


class RegistryCluster:
    """Launch an N-shard × R-replica registry topology in one process.

    Every node is a complete :class:`ServerThread` — own
    :class:`DescriptorStore`, own worker pool, own HTTP port — so the
    wire path is identical to a multi-process deployment.  Usable as a
    context manager yielding the :class:`ClusterMap`::

        with RegistryCluster(shards=4, replicas=2) as cluster_map:
            client = ClusterClient(cluster_map)
    """

    def __init__(
        self,
        shards: int = 4,
        replicas: int = 0,
        *,
        host: str = "127.0.0.1",
        vnodes: int = 64,
        replication_interval_s: float = 0.05,
        store_kwargs: Optional[dict] = None,
        config_kwargs: Optional[dict] = None,
        seed_catalog: bool = False,
    ):
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        self.shard_count = shards
        self.replica_count = replicas
        self.host = host
        self.vnodes = vnodes
        self.replication_interval_s = replication_interval_s
        self._store_kwargs = dict(store_kwargs or {})
        self._config_kwargs = dict(config_kwargs or {})
        self._seed = seed_catalog
        self._threads: List[ServerThread] = []
        self.map: Optional[ClusterMap] = None

    def start(self) -> ClusterMap:
        specs = []
        try:
            for index in range(self.shard_count):
                store = DescriptorStore(
                    record_ops=True, tag_directory=True, **self._store_kwargs
                )
                primary = ServerThread(
                    store,
                    config=ServiceConfig(host=self.host, **self._config_kwargs),
                    seed_catalog=False,
                )
                primary_url = primary.start()
                self._threads.append(primary)
                replica_urls = []
                for _ in range(self.replica_count):
                    replica = ServerThread(
                        config=ServiceConfig(
                            host=self.host,
                            replica_of=primary_url,
                            replication_interval_s=self.replication_interval_s,
                            **self._config_kwargs,
                        ),
                    )
                    replica_urls.append(replica.start())
                    self._threads.append(replica)
                specs.append(
                    ShardSpec(
                        shard_id=f"shard-{index}",
                        primary=primary_url,
                        replicas=tuple(replica_urls),
                    )
                )
        except BaseException:
            self.stop()
            raise
        self.map = ClusterMap(shards=tuple(specs), vnodes=self.vnodes)
        if self._seed:
            self.seed_catalog()
        return self.map

    def seed_catalog(self) -> list:
        """Publish the shipped catalog *through the cluster client*, so
        blobs and tags land on their ring owners (a per-node seed would
        put every blob everywhere)."""
        client = ClusterClient(self.map)
        results = []
        try:
            for name in available_platforms():
                with open(platform_path(name), "r", encoding="utf-8") as handle:
                    results.append(client.publish(name, handle.read()))
        finally:
            client.close()
        return results

    def servers(self) -> List[ServerThread]:
        return list(self._threads)

    def stop(self) -> None:
        while self._threads:
            self._threads.pop().stop()

    def __enter__(self) -> ClusterMap:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class AsyncClusterClient(_ClientCompositions):
    """Placement-aware async client over a :class:`ClusterMap`.

    Routes every operation to the owning shard: writes to the shard
    primary, reads round-robin across the shard's primary + replicas
    (with primary fallback when a replica hasn't converged yet).  Each
    node gets its own :class:`AsyncRegistryClient`, so pooling,
    coalescing and the immutable digest cache all apply per node.
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        endpoint_overrides: Optional[dict] = None,
    ):
        self.map = cluster_map
        overrides = dict(endpoint_overrides or {})
        self._clients: Dict[str, AsyncRegistryClient] = {
            url: AsyncRegistryClient(RegistryEndpoint.parse(url, **overrides))
            for spec in cluster_map.shards
            for url in spec.nodes
        }
        self._rr = {
            spec.shard_id: itertools.cycle(range(len(spec.nodes)))
            for spec in cluster_map.shards
        }

    # -- routing helpers -----------------------------------------------------
    def _write_client(self, spec: ShardSpec) -> AsyncRegistryClient:
        return self._clients[spec.primary]

    def _read_client(self, spec: ShardSpec) -> AsyncRegistryClient:
        index = next(self._rr[spec.shard_id])
        return self._clients[spec.nodes[index]]

    async def _read(self, spec: ShardSpec, op, *args, **kwargs):
        """One read on the shard's rotation; a replica that has not yet
        converged (miss on something the primary has) falls back to the
        primary — the 'never wrong, briefly behind' contract."""
        client = self._read_client(spec)
        try:
            return await getattr(client, op)(*args, **kwargs)
        except UnknownPlatformError:
            if client.endpoint.base_url == spec.primary:
                raise
            return await getattr(self._write_client(spec), op)(*args, **kwargs)

    # -- core operations -----------------------------------------------------
    async def publish(
        self,
        name: str,
        descriptor: Union[str, bytes, Platform],
        *,
        strict_lint: bool = False,
    ) -> dict:
        """Two-step cluster publish: blob to its digest owner, tag record
        to its name owner.

        The digest is computed *locally* from the canonical
        serialization, so routing needs no round trip and the blob owner
        verifies the address on arrival.
        """
        if isinstance(descriptor, Platform):
            platform = descriptor
        else:
            if isinstance(descriptor, bytes):
                descriptor = descriptor.decode("utf-8")
            # name=name matches DescriptorStore.publish: nameless
            # documents adopt the tag as a fallback, so single-node and
            # cluster publishes of the same (name, xml) pair produce the
            # same digest
            platform = parse_cached(descriptor, name=name)
        canonical = write_pdl(platform)
        digest = content_digest(canonical)
        blob_shard = self.map.shard_for_blob(digest)
        blob_result = await self._write_client(blob_shard).put_blob(
            canonical, strict_lint=strict_lint
        )
        tag_shard = self.map.shard_for_tag(name)
        tag_result = await self._write_client(tag_shard).retag(name, digest)
        return {
            "name": name,
            "digest": digest,
            "created": blob_result["created"],
            "moved": tag_result["moved"],
            "blob_shard": blob_shard.shard_id,
            "tag_shard": tag_shard.shard_id,
        }

    async def resolve(self, ref: str) -> str:
        """Ref → digest.  Tags resolve on their owning shard; digest
        prefixes (ownerless by construction) fan out to every shard."""
        if is_full_digest(ref):
            return ref
        try:
            return await self._read(
                self.map.shard_for_tag(ref), "resolve", ref
            )
        except UnknownPlatformError:
            digest = await self._resolve_prefix(ref)
            if digest is None:
                raise
            return digest

    async def _resolve_prefix(self, ref: str) -> Optional[str]:
        results = await asyncio.gather(
            *(
                self._read(spec, "resolve", ref)
                for spec in self.map.shards
            ),
            return_exceptions=True,
        )
        digests = {r for r in results if isinstance(r, str)}
        real_errors = [
            r
            for r in results
            if isinstance(r, BaseException)
            and not isinstance(r, UnknownPlatformError)
        ]
        if real_errors:
            raise real_errors[0]
        if len(digests) > 1:
            raise UnknownPlatformError(
                f"ambiguous digest prefix {ref!r}"
                f" ({len(digests)} matches across shards)"
            )
        return digests.pop() if digests else None

    async def fetch(self, ref: str) -> dict:
        """``{"ref", "digest", "name", "xml"}`` — resolve on the tag
        owner, blob bytes from the digest owner, composed client-side."""
        digest = await self.resolve(ref)
        record = await self._read(
            self.map.shard_for_blob(digest), "fetch", digest
        )
        return {
            "ref": ref,
            "digest": record["digest"],
            "name": record["name"] or (ref if not is_full_digest(ref) else None),
            "xml": record["xml"],
        }

    async def delete_tag(self, name: str) -> dict:
        return await self._write_client(self.map.shard_for_tag(name)).delete_tag(
            name
        )

    async def retag(self, name: str, ref: str) -> dict:
        digest = await self.resolve(ref)
        return await self._write_client(self.map.shard_for_tag(name)).retag(
            name, digest
        )

    async def platforms(self) -> list:
        """Merged tag directory of every shard (each owns a disjoint
        subset of tag names)."""
        listings = await asyncio.gather(
            *(self._read(spec, "platforms") for spec in self.map.shards)
        )
        merged = [entry for listing in listings for entry in listing]
        return sorted(merged, key=lambda e: e["name"])

    # -- toolchain delegation (routed by resolved digest) --------------------
    async def query(self, ref: str, selector: Optional[str] = None) -> dict:
        digest = await self.resolve(ref)
        return await self._read(
            self.map.shard_for_blob(digest), "query", digest, selector
        )

    async def lint(self, ref: str) -> dict:
        digest = await self.resolve(ref)
        return await self._read(
            self.map.shard_for_blob(digest), "lint", digest
        )

    async def preselect_batch(self, platform_ref: str, programs: list) -> list:
        """Pre-selection runs on the platform's blob owner, so its memo
        (keyed by digest) concentrates on one shard group instead of
        being diluted N ways."""
        digest = await self.resolve(platform_ref)
        return await self._read(
            self.map.shard_for_blob(digest), "preselect_batch", digest, programs
        )

    async def diff(self, old_ref: str, new_ref: str) -> dict:
        """Structural diff, computed client-side: the two versions may
        live on different shards, so the cluster fetches both canonical
        documents and diffs locally (same payload shape as the
        single-node ``POST /diff``)."""
        old_record, new_record = await asyncio.gather(
            self.fetch(old_ref), self.fetch(new_ref)
        )
        diff = diff_platforms(
            parse_cached(old_record["xml"], digest=old_record["digest"]),
            parse_cached(new_record["xml"], digest=new_record["digest"]),
        )
        return {
            "old": {
                "ref": old_ref,
                "digest": old_record["digest"],
                "name": diff.old_name,
            },
            "new": {
                "ref": new_ref,
                "digest": new_record["digest"],
                "name": diff.new_name,
            },
            "identical": diff.identical,
            "changes": [
                {"kind": c.kind.value, "subject": c.subject, "detail": c.detail}
                for c in diff.changes
            ],
        }

    # -- tuning profiles -----------------------------------------------------
    async def publish_profile(self, ref: str, profile) -> dict:
        digest = await self.resolve(ref)
        return await self._write_client(
            self.map.shard_for_blob(digest)
        ).publish_profile(digest, profile)

    async def fetch_profile(self, ref: str) -> dict:
        digest = await self.resolve(ref)
        return await self._read(
            self.map.shard_for_blob(digest), "fetch_profile", digest
        )

    async def profiles(self) -> list:
        listings = await asyncio.gather(
            *(self._read(spec, "profiles") for spec in self.map.shards)
        )
        merged = [entry for listing in listings for entry in listing]
        return sorted(merged, key=lambda e: e["digest"])

    # -- cluster observability -----------------------------------------------
    async def health(self) -> dict:
        """Fan-out liveness: ``ok`` only when every node answers."""
        urls = [url for spec in self.map.shards for url in spec.nodes]
        results = await asyncio.gather(
            *(self._clients[url].health() for url in urls),
            return_exceptions=True,
        )
        nodes = []
        for url, result in zip(urls, results):
            ok = isinstance(result, dict) and result.get("status") == "ok"
            nodes.append({"url": url, "ok": ok})
        return {
            "ok": all(n["ok"] for n in nodes),
            "shards": len(self.map),
            "nodes": nodes,
        }

    async def metrics(self) -> dict:
        """Whole-cluster metrics under one span: per-node snapshots plus
        the merged view (histogram-merged latency percentiles — see
        :meth:`ServiceMetrics.merge_snapshots`)."""
        tracer = _obs.get_tracer()
        if tracer is None:
            return await self._metrics_impl()
        with tracer.span("registry.cluster.metrics", shards=len(self.map)):
            return await self._metrics_impl()

    async def _metrics_impl(self) -> dict:
        entries = [
            (spec.shard_id, "primary" if url == spec.primary else "replica", url)
            for spec in self.map.shards
            for url in spec.nodes
        ]
        snapshots = await asyncio.gather(
            *(self._clients[url].metrics() for _, _, url in entries)
        )
        per_node = [
            {"shard": shard_id, "role": role, "url": url, "metrics": snap}
            for (shard_id, role, url), snap in zip(entries, snapshots)
        ]
        return {
            "per_node": per_node,
            "merged": ServiceMetrics.merge_snapshots(snapshots),
        }

    async def status(self) -> dict:
        """Topology + replication-lag report (the ``cluster status`` CLI
        payload)."""
        metrics = await self._metrics_impl()
        by_url = {n["url"]: n["metrics"] for n in metrics["per_node"]}
        shards = []
        for spec in self.map.shards:
            primary_stats = by_url[spec.primary].get("store", {})
            head = primary_stats.get("oplog_head", 0)
            replicas = []
            for url in spec.replicas:
                snap = by_url[url]
                applied = snap.get("store", {}).get("applied_seq", 0)
                replicas.append(
                    {"url": url, "applied_seq": applied, "lag": head - applied}
                )
            shards.append(
                {
                    "id": spec.shard_id,
                    "primary": spec.primary,
                    "blobs": primary_stats.get("blobs", 0),
                    "tags": primary_stats.get("tags", 0),
                    "oplog_head": head,
                    "replicas": replicas,
                }
            )
        return {
            "shards": shards,
            "converged": all(
                r["lag"] == 0 for s in shards for r in s["replicas"]
            ),
        }

    async def wait_converged(self, *, timeout_s: float = 10.0) -> dict:
        """Block until every replica has drained its primary's oplog."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            status = await self.status()
            if status["converged"]:
                return status
            if asyncio.get_running_loop().time() > deadline:
                raise ServiceError(
                    f"cluster did not converge within {timeout_s}s:"
                    f" {status['shards']}"
                )
            await asyncio.sleep(0.02)

    def cache_stats(self) -> dict:
        """Per-node client stats plus cluster totals."""
        per_node = {url: c.cache_stats() for url, c in self._clients.items()}
        totals: Dict[str, int] = {}
        for stats in per_node.values():
            for key in (
                "requests",
                "network_requests",
                "coalesced",
                "record_cache_hits",
                "connections_opened",
            ):
                totals[key] = totals.get(key, 0) + stats[key]
        return {"total": totals, "per_node": per_node}

    async def aclose(self) -> None:
        await asyncio.gather(*(c.aclose() for c in self._clients.values()))

    def __repr__(self) -> str:
        return (
            f"AsyncClusterClient(shards={len(self.map)},"
            f" nodes={len(self._clients)})"
        )


@blocking_facade(AsyncClusterClient)
class ClusterClient:
    """Blocking facade generated from :class:`AsyncClusterClient` (same
    shared background loop as :class:`~repro.service.client.RegistryClient`)."""

    def __init__(
        self,
        cluster_map: Union[ClusterMap, str],
        *,
        endpoint_overrides: Optional[dict] = None,
    ):
        if isinstance(cluster_map, str):
            cluster_map = ClusterMap.load(cluster_map)
        self._async = AsyncClusterClient(
            cluster_map, endpoint_overrides=endpoint_overrides
        )
        self.map = self._async.map

    def cache_stats(self) -> dict:
        return self._async.cache_stats()

    def close(self) -> None:
        LOOP_RUNNER.submit(self._async.aclose())

    def __repr__(self) -> str:
        return f"ClusterClient(shards={len(self.map)})"
