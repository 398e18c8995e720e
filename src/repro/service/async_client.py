"""Asynchronous registry client: pooling, coalescing, immutable caching.

This is the registry's primary client; the blocking
:class:`~repro.service.client.RegistryClient` is generated from it.
Three properties make it fast under fan-out load:

* **Connection pooling** — keep-alive HTTP/1.1 connections per endpoint
  (bounded by ``pool_size``), so a burst of requests costs one TCP
  handshake, not one per request.
* **Per-digest request coalescing** — concurrent GETs of the same path
  share one in-flight upstream request (single-flight).  A thundering
  herd of N fetches of one descriptor puts exactly one request on the
  wire.
* **A digest-keyed cache that never revalidates** — content digests are
  immutable by construction, so a cached blob can never be stale and is
  served without any network I/O, forever (LRU-bounded).  Only *tags*
  (the movable refs) carry a TTL (:class:`~repro.service.cache.TTLCache`,
  default 0 = always revalidate).

Endpoints are described by :class:`RegistryEndpoint`, the one
client-construction currency shared by the sync facade, the async
client and ``Session(registry=...)``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import functools
import inspect
import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Union
from urllib.parse import urlencode, urlsplit

from repro.errors import ServiceError
from repro.model.platform import Platform
from repro.obs import spans as _obs
from repro.pdl.catalog import is_full_digest, parse_cached
from repro.pdl.writer import write_pdl
from repro.runtime.faults import FaultPolicy
from repro.service import protocol
from repro.service.cache import LRUCache, TTLCache

__all__ = [
    "RegistryEndpoint",
    "AsyncRegistryClient",
    "blocking_facade",
    "default_retry_policy",
]


def default_retry_policy() -> FaultPolicy:
    """The 429 backoff curve both clients retry under by default."""
    return FaultPolicy(
        max_retries=3,
        backoff_base_s=0.05,
        backoff_factor=2.0,
        backoff_cap_s=1.0,
        watchdog_s=None,
    )


@dataclass(frozen=True)
class RegistryEndpoint:
    """Where and how to talk to one registry node.

    The single entry-point currency for every client flavor: sync,
    async and ``Session(registry=...)`` all accept one of these
    (or a URL string, which :meth:`parse` normalizes); timeouts,
    retry and cache sizing live here rather than on each client.

    ``retry_policy=None`` disables 429 retry entirely (each overload
    response raises immediately); leaving it unset installs
    :func:`default_retry_policy`.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    timeout: float = 30.0
    retry_policy: Optional[FaultPolicy] = field(default_factory=default_retry_policy)
    #: keep-alive connections kept per endpoint
    pool_size: int = 8
    #: digest-keyed record cache entries (0 disables client caching)
    cache_size: int = 256
    #: seconds a tag→digest resolution may be served without
    #: revalidation (0 = tags always revalidate; digests never do)
    tag_ttl_s: float = 0.0

    @classmethod
    def parse(cls, url: Union[str, "RegistryEndpoint"], **overrides) -> "RegistryEndpoint":
        """Normalize a base URL (or ``host:port``) into an endpoint."""
        if isinstance(url, RegistryEndpoint):
            return replace(url, **overrides) if overrides else url
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ServiceError(f"unsupported registry scheme {split.scheme!r}")
        if not split.hostname:
            raise ServiceError(f"invalid registry URL {url!r}")
        return cls(host=split.hostname, port=split.port or 80, **overrides)

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"


# -- shared client event loop ------------------------------------------------
class _LoopRunner:
    """One daemon background event loop shared by all sync facades.

    ``submit`` propagates the *caller's* contextvars into the scheduled
    task, so spans opened inside the coroutine parent correctly under
    the calling thread's active span — the trace shows one tree even
    though the I/O happens on the loop thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def loop(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if self._loop is None or not self._loop.is_running():
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=loop.run_forever,
                    name="registry-client-loop",
                    daemon=True,
                )
                thread.start()
                self._loop, self._thread = loop, thread
            return self._loop

    def submit(self, coro, timeout: Optional[float] = None):
        loop = self.loop()
        ctx = contextvars.copy_context()
        done: concurrent.futures.Future = concurrent.futures.Future()

        def _start() -> None:
            try:
                task = ctx.run(loop.create_task, coro)
            except BaseException as exc:  # pragma: no cover - defensive
                done.set_exception(exc)
                return

            def _transfer(finished: asyncio.Task) -> None:
                if finished.cancelled():
                    done.cancel()
                elif finished.exception() is not None:
                    done.set_exception(finished.exception())
                else:
                    done.set_result(finished.result())

            task.add_done_callback(_transfer)

        loop.call_soon_threadsafe(_start)
        return done.result(timeout)


#: module-wide runner; sync facades share one loop thread
LOOP_RUNNER = _LoopRunner()


def blocking_facade(async_cls):
    """Class decorator: give the class a blocking twin of every public
    coroutine method of ``async_cls`` except ``aclose``, with the same
    signature and docstring, running ``self._async.<name>(...)`` on
    :data:`LOOP_RUNNER` — so a blocking client cannot drift from its
    async client.  Only non-pass-throughs are written by hand."""

    def decorate(cls):
        for name, method in inspect.getmembers(
            async_cls, inspect.iscoroutinefunction
        ):
            if not name.startswith("_") and name != "aclose":
                setattr(cls, name, _blocking_twin(cls, name, method))
        return cls

    return decorate


def _blocking_twin(cls, name: str, method):
    @functools.wraps(method)
    def twin(self, *args, **kwargs):
        return LOOP_RUNNER.submit(getattr(self._async, name)(*args, **kwargs))

    twin.__qualname__ = f"{cls.__qualname__}.{name}"
    return twin


class _ConnectionPool:
    """Bounded pool of keep-alive connections to one endpoint.

    Owned by (and only touched from) the client's event loop, so a
    plain list is race-free; the semaphore bounds total concurrent
    connections, queueing excess requests client-side instead of
    stampeding the server.
    """

    def __init__(self, host: str, port: int, limit: int, timeout: float):
        self.host, self.port = host, port
        self.timeout = timeout
        self.limit = max(1, limit)
        self._idle: list = []
        self._sem = asyncio.Semaphore(self.limit)
        self.opened = 0  # connections dialed (pool efficiency stat)

    async def acquire(self, *, fresh: bool = False):
        await self._sem.acquire()
        try:
            if not fresh:
                while self._idle:
                    reader, writer = self._idle.pop()
                    if not writer.is_closing():
                        return (reader, writer), True
                    writer.close()
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout
            )
            self.opened += 1
            return (reader, writer), False
        except BaseException:
            self._sem.release()
            raise

    def release(self, conn, *, reuse: bool) -> None:
        reader, writer = conn
        if reuse and not writer.is_closing() and len(self._idle) < self.limit:
            self._idle.append(conn)
        else:
            writer.close()
        self._sem.release()

    def close(self) -> None:
        while self._idle:
            _, writer = self._idle.pop()
            writer.close()


class AsyncRegistryClient:
    """Asyncio registry client bound to one :class:`RegistryEndpoint`.

    All coroutines must run on one event loop (the loop the first
    request runs on).  The sync facade funnels every call through the
    shared :data:`LOOP_RUNNER` loop, which satisfies this by
    construction.
    """

    def __init__(self, endpoint: Union[str, RegistryEndpoint] = "127.0.0.1:8787"):
        self.endpoint = RegistryEndpoint.parse(endpoint)
        self._pool = _ConnectionPool(
            self.endpoint.host,
            self.endpoint.port,
            self.endpoint.pool_size,
            self.endpoint.timeout,
        )
        self._inflight: dict = {}  # request key -> asyncio.Future
        #: digest -> fetch record; immutable, never revalidated
        self._records = (
            LRUCache(self.endpoint.cache_size) if self.endpoint.cache_size else None
        )
        #: tag/prefix -> digest within the TTL window
        self._tag_cache = TTLCache(1024, self.endpoint.tag_ttl_s)
        self.negotiated_protocol: Optional[int] = None
        self.stats = {
            "requests": 0,  # logical requests issued by callers
            "network_requests": 0,  # actual upstream HTTP round trips
            "coalesced": 0,  # callers served by piggybacking a flight
            "record_cache_hits": 0,  # digest fetches served with no I/O
        }

    # -- low-level HTTP ------------------------------------------------------
    async def _roundtrip(
        self, method: str, path: str, body: Optional[bytes], trace_id: Optional[str]
    ):
        headers = [
            ("Host", f"{self.endpoint.host}:{self.endpoint.port}"),
            ("Accept", "application/json"),
            (protocol.PROTOCOL_HEADER, str(protocol.PROTOCOL_VERSION)),
            ("Connection", "keep-alive"),
        ]
        if trace_id is not None:
            headers.append(("X-Repro-Trace-Id", trace_id))
        if body is not None:
            content_type = (
                "application/json" if body[:1] in (b"{", b"[") else "application/xml"
            )
            headers.append(("Content-Type", content_type))
            headers.append(("Content-Length", str(len(body))))
        head = f"{method} {path} HTTP/1.1\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers
        )
        payload = head.encode("latin-1") + b"\r\n" + (body or b"")

        last_error: Optional[Exception] = None
        for attempt in ("pooled", "fresh"):
            try:
                conn, pooled = await self._pool.acquire(fresh=attempt == "fresh")
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                raise ServiceError(
                    f"registry at {self.endpoint.host}:{self.endpoint.port}"
                    f" unreachable: {exc}"
                ) from exc
            reader, writer = conn
            try:
                writer.write(payload)
                await asyncio.wait_for(writer.drain(), self.endpoint.timeout)
                status, response_headers, raw = await asyncio.wait_for(
                    self._read_response(reader), self.endpoint.timeout
                )
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ) as exc:
                self._pool.release(conn, reuse=False)
                last_error = exc
                if pooled:
                    # the server closed an idle keep-alive connection
                    # under us; retry exactly once on a fresh dial
                    continue
                raise ServiceError(
                    f"registry at {self.endpoint.host}:{self.endpoint.port}"
                    f" unreachable: {exc}"
                ) from exc
            keep = response_headers.get("connection", "").lower() != "close"
            self._pool.release(conn, reuse=keep)
            self.stats["network_requests"] += 1
            return status, response_headers, raw
        raise ServiceError(
            f"registry at {self.endpoint.host}:{self.endpoint.port}"
            f" unreachable: {last_error}"
        ) from last_error

    @staticmethod
    async def _read_response(reader):
        line = await reader.readline()
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = line.decode("latin-1").split()
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ServiceError(f"malformed response status line: {line[:80]!r}")
        status = int(parts[1])
        headers: dict = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is not None:
            body = await reader.readexactly(int(length))
        else:
            body = await reader.read()
            headers["connection"] = "close"
        return status, headers, body

    async def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        trace_id: Optional[str],
    ) -> dict:
        """One negotiated round trip: 429-aware retry, protocol check,
        error rehydration."""
        attempt = 0
        while True:
            status, headers, raw = await self._roundtrip(method, path, body, trace_id)
            self.negotiated_protocol = protocol.check_protocol(
                headers.get(protocol.PROTOCOL_HEADER.lower()), side="client"
            )
            try:
                payload = protocol.loads(raw) if raw else {}
            except ServiceError:
                raise ServiceError(
                    f"registry returned non-JSON body for {method} {path}"
                    f" (HTTP {status})"
                ) from None
            if status != 429:
                protocol.raise_for_error(status, payload)
                return payload
            retry_after = None
            header = headers.get("retry-after")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            policy = self.endpoint.retry_policy
            if policy is None or attempt >= policy.max_retries:
                protocol.raise_for_error(status, payload, retry_after=retry_after)
            attempt += 1
            delay = policy.backoff(attempt)
            if retry_after is not None:
                delay = max(delay, min(retry_after, policy.backoff_cap_s))
            await asyncio.sleep(delay)

    async def request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[bytes] = None,
        params: Optional[dict] = None,
        coalesce: Optional[bool] = None,
    ) -> dict:
        """One JSON request with coalescing, tracing and retry.

        GETs coalesce by default: concurrent callers of an identical
        (method, path, params) share one in-flight upstream request and
        one response object (treat payloads as read-only).  Traced
        callers get a ``registry.client.request`` span whose id travels
        in ``X-Repro-Trace-Id`` and is echoed by the server.  Error
        responses raise the rehydrated library exception.
        """
        self.stats["requests"] += 1
        if params:
            path = f"{path}?{urlencode(params)}"
        if coalesce is None:
            coalesce = method == "GET"
        if not coalesce:
            return await self._traced_request(method, path, body)
        key = f"{method} {path}"
        existing = self._inflight.get(key)
        if existing is not None:
            self.stats["coalesced"] += 1
            return await asyncio.shield(existing)
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            result = await self._traced_request(method, path, body)
            future.set_result(result)
            return result
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # mark retrieved for lone flights
            raise
        finally:
            self._inflight.pop(key, None)

    async def _traced_request(
        self, method: str, path: str, body: Optional[bytes]
    ) -> dict:
        tracer = _obs.get_tracer()
        if tracer is None:
            return await self._request_once(method, path, body, None)
        with tracer.span(
            "registry.client.request", method=method, path=path
        ) as span_:
            return await self._request_once(method, path, body, span_.trace_id)

    # -- registry operations -------------------------------------------------
    async def health(self) -> dict:
        return await self.request("GET", protocol.route_path("health"))

    async def metrics(self) -> dict:
        return await self.request("GET", protocol.route_path("metrics"))

    async def info(self) -> dict:
        return await self.request("GET", protocol.route_path("index"))

    async def platforms(self) -> list:
        payload = await self.request("GET", protocol.route_path("list"))
        return payload["platforms"]

    async def publish(
        self,
        name: str,
        descriptor: Union[str, bytes, Platform],
        *,
        strict_lint: bool = False,
    ) -> dict:
        """Publish XML text or an in-memory :class:`Platform` under ``name``.

        With ``strict_lint`` the registry lints the descriptor first and
        rejects error-severity findings with
        :class:`~repro.errors.LintError` (the finding payloads ride along
        on the exception's ``diagnostics``).
        """
        if isinstance(descriptor, Platform):
            descriptor = write_pdl(descriptor)
        if isinstance(descriptor, str):
            descriptor = descriptor.encode("utf-8")
        payload = await self.request(
            "PUT",
            protocol.route_path("publish", name=name),
            body=descriptor,
            params={"strict": "1"} if strict_lint else None,
        )
        self._tag_cache.invalidate(name)
        return payload

    async def fetch(self, ref: str) -> dict:
        """``{"ref", "digest", "name", "xml"}`` of a stored version.

        Full-digest refs are served from the client cache with **no
        network traffic** once seen — immutability makes revalidation
        meaningless.  Tag refs revalidate unless within ``tag_ttl_s``.
        """
        if self._records is not None and is_full_digest(ref):
            record = self._records.get(ref)
            if record is not None:
                self.stats["record_cache_hits"] += 1
                return record
        cached_digest = self._tag_cache.get(ref)
        if cached_digest is not None and self._records is not None:
            record = self._records.get(cached_digest)
            if record is not None:
                self.stats["record_cache_hits"] += 1
                return {**record, "ref": ref}
        record = await self.request("GET", protocol.route_path("fetch", ref=ref))
        if self._records is not None:
            # normalize the cached ref to the digest: the cache is
            # digest-keyed, so a later hit must not echo a stale tag
            self._records.put(record["digest"], {**record, "ref": record["digest"]})
        if not is_full_digest(ref):
            self._tag_cache.put(ref, record["digest"])
        return record

    async def resolve(self, ref: str) -> str:
        """Tag/prefix → digest (one tiny round trip, TTL-cached)."""
        if is_full_digest(ref):
            return ref
        cached = self._tag_cache.get(ref)
        if cached is not None:
            return cached
        payload = await self.request(
            "GET", protocol.route_path("resolve", name=ref)
        )
        self._tag_cache.put(ref, payload["digest"])
        return payload["digest"]

    async def delete_tag(self, name: str) -> dict:
        payload = await self.request(
            "DELETE", protocol.route_path("delete_tag", name=name)
        )
        self._tag_cache.invalidate(name)
        return payload

    async def retag(self, name: str, ref: str) -> dict:
        payload = await self.request(
            "POST",
            protocol.route_path("retag"),
            body=protocol.dumps({"name": name, "ref": ref}),
        )
        self._tag_cache.invalidate(name)
        return payload

    async def query(self, ref: str, selector: Optional[str] = None) -> dict:
        return await self.request(
            "GET",
            protocol.route_path("query", ref=ref),
            params={"selector": selector} if selector is not None else None,
        )

    async def lint(self, ref: str) -> dict:
        """Lint a stored version; returns the ``LintReport`` payload plus
        the resolved digest (findings never raise — inspect ``ok``)."""
        return await self.request(
            "POST", protocol.route_path("lint"), body=protocol.dumps({"ref": ref})
        )

    async def diff(self, old_ref: str, new_ref: str) -> dict:
        return await self.request(
            "POST",
            protocol.route_path("diff"),
            body=protocol.dumps({"old": old_ref, "new": new_ref}),
        )

    async def preselect_batch(self, platform_ref: str, programs: list) -> list:
        """Batched pre-selection: one round trip, one result per program."""
        payload = await self.request(
            "POST",
            protocol.route_path("preselect"),
            body=protocol.dumps({"platform": platform_ref, "programs": programs}),
        )
        return payload["results"]

    async def platform(self, ref: str) -> Platform:
        """Fetch and parse a descriptor (digest-keyed parse cache applies)."""
        record = await self.fetch(ref)
        return parse_cached(
            record["xml"], digest=record["digest"], name=record["name"]
        )

    async def preselect(
        self,
        platform_ref: str,
        source: str,
        *,
        expert_variants: bool = False,
        require_fallback: bool = True,
    ) -> dict:
        """Pre-select one program; returns ``{"cached", "report"}``."""
        results = await self.preselect_batch(
            platform_ref,
            [
                {
                    "source": source,
                    "expert_variants": expert_variants,
                    "require_fallback": require_fallback,
                }
            ],
        )
        return results[0]

    # -- tuning profiles -----------------------------------------------------
    async def profiles(self) -> list:
        """Summaries of every tuning profile stored on the registry."""
        payload = await self.request("GET", protocol.route_path("profiles_list"))
        return payload["profiles"]

    async def publish_profile(self, ref: str, profile) -> dict:
        """Attach a tuning profile to a stored descriptor version.

        ``profile`` is either a :class:`~repro.tune.database.TuningDatabase`
        or its wire payload (``TuningDatabase.to_payload()``); it must
        contain samples for the digest ``ref`` resolves to.
        """
        if hasattr(profile, "to_payload"):
            profile = profile.to_payload()
        return await self.request(
            "PUT",
            protocol.route_path("profile_put", ref=ref),
            body=protocol.dumps(profile),
        )

    async def fetch_profile(self, ref: str) -> dict:
        """``{"digest", "profile"}`` — the stored tuning payload of ``ref``."""
        return await self.request(
            "GET", protocol.route_path("profile_get", ref=ref)
        )

    # -- lifecycle -----------------------------------------------------------
    async def aclose(self) -> None:
        self._pool.close()

    def cache_stats(self) -> dict:
        return {
            **self.stats,
            "record_cache_size": len(self._records) if self._records else 0,
            "tag_cache": {
                "hits": self._tag_cache.hits,
                "misses": self._tag_cache.misses,
            },
            "connections_opened": self._pool.opened,
        }

    def __repr__(self) -> str:
        return f"AsyncRegistryClient({self.endpoint.base_url})"
