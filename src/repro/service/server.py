"""Asyncio JSON-over-HTTP server for the platform registry.

Stdlib-only: a deliberately small HTTP/1.1 implementation over
``asyncio.start_server`` streams — request line, headers,
``Content-Length`` bodies, keep-alive.  The event loop only does I/O;
store work (XML parsing, selection, diffing) runs on a small thread pool
so one expensive parse cannot stall every connection.

Endpoints
---------
===========================================  ===========================================
``GET  /``                                   service banner + endpoint list
``GET  /healthz``                            liveness (bypasses admission control)
``GET  /metrics``                            :class:`ServiceMetrics` snapshot (bypasses)
``GET  /platforms``                          tags → digests
``PUT  /platforms/{name}``                   publish XML body (201 new blob, 200 known)
``GET  /platforms/{ref}``                    canonical XML + digest (tag/digest/prefix)
``DELETE /platforms/{name}``                 drop a tag (blob stays)
``GET  /platforms/{ref}/query?selector=…``   delegate to :mod:`repro.query`
``POST /tags``                               move a tag: ``{"name", "ref"}``
``POST /lint``                               lint a stored version: ``{"ref": ...}``
``POST /diff``                               ``{"old", "new"}`` → structural diff
``POST /preselect``                          batched Cascabel pre-selection
``GET  /tags/{name}``                        resolve a tag/prefix to its digest
``GET  /profiles``                           stored tuning profiles (digest summaries)
``PUT  /profiles/{ref}``                     attach a tuning-database payload to a digest
``GET  /profiles/{ref}``                     fetch the tuning profile of a digest
===========================================  ===========================================

The route table itself lives in :data:`repro.service.protocol.ROUTES`;
dispatch patterns, metrics labels and admission exemptions are all
derived from it, so server and clients can never disagree about paths.

Backpressure
------------
Admission control bounds the number of queued + in-flight requests
(``ServiceConfig.max_queue``).  Beyond the bound the server answers
``429`` immediately with a ``Retry-After`` computed from the
:class:`~repro.runtime.faults.FaultPolicy` backoff curve — consecutive
rejections on one connection back off exponentially, mirroring the
runtime's retry idiom.  ``/healthz`` and ``/metrics`` are exempt so the
service stays observable while shedding load.
"""

from __future__ import annotations

import asyncio
import contextvars
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ProtocolMismatchError, ServiceProtocolError
from repro.obs import spans as _obs
from repro.runtime.faults import FaultPolicy
from repro.service import protocol
from repro.service.admission import CapacityGate, default_overload_policy
from repro.service.metrics import ServiceMetrics
from repro.service.store import DescriptorStore

__all__ = ["ServiceConfig", "RegistryServer", "ServerThread"]

_MAX_LINE = 16 * 1024
_MAX_HEADERS = 100

_SERVER_NAME = "repro-registry/1.0"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one registry server instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from the server
    max_queue: int = 64
    executor_threads: int = 4
    max_body_bytes: int = 8 * 1024 * 1024
    idle_timeout_s: float = 30.0
    overload_policy: FaultPolicy = field(default_factory=default_overload_policy)


@dataclass(frozen=True)
class _Request:
    method: str
    path: str
    query: dict
    headers: dict
    body: bytes


@dataclass
class _Response:
    status: int
    payload: dict
    headers: dict = field(default_factory=dict)


class RegistryServer:
    """The registry's asyncio front end over one :class:`DescriptorStore`."""

    def __init__(
        self,
        store: Optional[DescriptorStore] = None,
        *,
        config: Optional[ServiceConfig] = None,
        seed_catalog: Optional[bool] = None,
    ):
        self.config = config or ServiceConfig()
        if store is None:
            store = DescriptorStore()
            if seed_catalog is None:
                seed_catalog = True
        self.store = store
        if seed_catalog:
            self.store.seed_catalog()
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._routes = self._build_routes()
        self._gate = CapacityGate(
            self.config.max_queue, policy=self.config.overload_policy
        )

    # -- lifecycle ----------------------------------------------------------
    @property
    def metrics(self) -> ServiceMetrics:
        return self.store.metrics

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="registry-worker",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        consecutive_overloads = 0
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                    break
                except ServiceProtocolError as exc:
                    status, payload = protocol.error_payload(exc)
                    await self._write_response(
                        writer, _Response(status, payload), close=True
                    )
                    break
                if request is None:
                    break
                started = time.perf_counter()
                endpoint, response = await self._dispatch(
                    request, consecutive_overloads
                )
                consecutive_overloads = (
                    consecutive_overloads + 1 if response.status == 429 else 0
                )
                self.metrics.observe_request(
                    endpoint, response.status, time.perf_counter() - started
                )
                close = request.headers.get("connection", "").lower() == "close"
                await self._write_response(writer, response, close=close)
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels handlers parked on idle keep-alive
            # connections; finish normally so the StreamReaderProtocol
            # done-callback (which calls task.exception()) stays quiet.
            pass
        finally:
            # Shutdown can also cancel a handler that is already closing
            # (its peer hung up a moment before); the close is complete
            # from this side, so that cancellation is swallowed too.
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, OSError):
                pass

    async def _read_request(self, reader) -> Optional[_Request]:
        line = await asyncio.wait_for(
            reader.readline(), timeout=self.config.idle_timeout_s
        )
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise ServiceProtocolError("request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ServiceProtocolError(f"malformed request line: {line[:80]!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > _MAX_LINE:
                raise ServiceProtocolError("header line too long")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise ServiceProtocolError(f"malformed header: {raw[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ServiceProtocolError("too many headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServiceProtocolError("invalid Content-Length") from None
        if length < 0 or length > self.config.max_body_bytes:
            raise ServiceProtocolError(
                f"body of {length} bytes exceeds limit"
                f" {self.config.max_body_bytes}"
            )
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        return _Request(
            method=method.upper(),
            path=unquote(split.path) or "/",
            query=query,
            headers=headers,
            body=body,
        )

    async def _write_response(
        self, writer, response: _Response, *, close: bool
    ) -> None:
        body = protocol.dumps(response.payload)
        phrase = protocol.STATUS_PHRASES.get(response.status, "Unknown")
        headers = {
            "Server": _SERVER_NAME,
            "Content-Type": protocol.JSON_CONTENT_TYPE,
            "Content-Length": str(len(body)),
            "Connection": "close" if close else "keep-alive",
            protocol.PROTOCOL_HEADER: str(protocol.PROTOCOL_VERSION),
            **response.headers,
        }
        head = f"HTTP/1.1 {response.status} {phrase}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    # -- routing / dispatch --------------------------------------------------
    def _build_routes(self) -> list[tuple[str, re.Pattern, str, Callable]]:
        """Compile dispatch entries from the shared protocol route table.

        Every :data:`repro.service.protocol.ROUTES` entry must have a
        matching ``_ep_<name>`` handler — a missing one fails loudly at
        construction, not with a 404 in production.
        """
        routes = []
        for route in protocol.ROUTES:
            handler = getattr(self, f"_ep_{route.name}")
            routes.append((route.method, route.pattern(), route.label, handler))
        return routes

    #: endpoints that must answer even when the service sheds load
    #: (the health/metrics plane)
    _UNGATED = frozenset(r.label for r in protocol.ROUTES if not r.gated)

    #: request header carrying the caller's trace id (lower-cased by the
    #: reader); echoed back on every response so client and server spans
    #: of one round trip share a trace
    _TRACE_HEADER = "x-repro-trace-id"

    async def _dispatch(
        self, request: _Request, consecutive_overloads: int
    ) -> tuple[str, _Response]:
        handler = None
        endpoint = f"{request.method} {request.path}"
        trace_id = request.headers.get(self._TRACE_HEADER) or None
        try:
            protocol.check_protocol(
                request.headers.get(protocol.PROTOCOL_HEADER.lower()), side="server"
            )
        except ProtocolMismatchError as exc:
            status, payload = protocol.error_payload(exc)
            return endpoint, self._echo_trace(trace_id, _Response(status, payload))
        path_matched = False
        for method, pattern, label, fn in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            path_matched = True
            if method == request.method:
                handler, endpoint, params = fn, label, match.groupdict()
                break
        if handler is None:
            status = 405 if path_matched else 404
            code = "method-not-allowed" if path_matched else "not-found"
            return endpoint, self._echo_trace(
                trace_id,
                _Response(
                    status,
                    {
                        "error": {
                            "code": code,
                            "type": "RoutingError",
                            "message": f"no route for {request.method} {request.path}",
                            "status": status,
                        }
                    },
                ),
            )
        if endpoint not in self._UNGATED:
            decision = self._gate.check(
                self.metrics.queue_depth, consecutive=consecutive_overloads
            )
            if not decision:
                retry_after = decision.retry_after_s
                return endpoint, self._echo_trace(
                    trace_id,
                    _Response(
                        429,
                        {
                            "error": {
                                "code": "overloaded",
                                "type": "ServiceOverloadError",
                                "message": (
                                    f"request queue full"
                                    f" ({self.config.max_queue} in flight);"
                                    f" retry after {retry_after:.3f}s"
                                ),
                                "status": 429,
                            }
                        },
                        headers={"Retry-After": f"{retry_after:.3f}"},
                    ),
                )
        self.metrics.enter_queue()
        try:
            tracer = _obs.get_tracer()
            if tracer is None:
                response = await self._execute(handler, request, params)
            else:
                with tracer.span(
                    "registry.server.request",
                    trace_id=trace_id,
                    endpoint=endpoint,
                    method=request.method,
                    path=request.path,
                ) as span_:
                    response = await self._execute(handler, request, params)
                    span_.set(status=response.status)
                    if trace_id is None:
                        trace_id = span_.trace_id
        finally:
            self.metrics.exit_queue()
        return endpoint, self._echo_trace(trace_id, response)

    async def _execute(
        self, handler: Callable, request: _Request, params: dict
    ) -> _Response:
        """Run one handler on the worker pool, carrying the caller's
        context (and with it the current span) into the thread so
        store-level spans attach under the request span."""
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(
            self._executor, ctx.run, self._run_handler, handler, request, params
        )

    @staticmethod
    def _echo_trace(trace_id: Optional[str], response: _Response) -> _Response:
        if trace_id:
            response.headers.setdefault("X-Repro-Trace-Id", trace_id)
        return response

    def _run_handler(
        self, handler: Callable, request: _Request, params: dict
    ) -> _Response:
        try:
            return handler(request, **params)
        except Exception as exc:  # noqa: BLE001 — mapped, never leaked
            status, payload = protocol.error_payload(exc)
            return _Response(status, payload)

    # -- endpoint handlers (run on the worker pool) ---------------------------
    def _ep_index(self, request: _Request) -> _Response:
        return _Response(
            200,
            {
                "service": "repro platform registry",
                "version": "1.0",
                "endpoints": sorted(label for _, _, label, _ in self._routes),
                "store": self.store.stats(),
            },
        )

    def _ep_health(self, request: _Request) -> _Response:
        return _Response(200, {"status": "ok"})

    def _ep_metrics(self, request: _Request) -> _Response:
        payload = self.metrics.snapshot()
        payload["store"] = self.store.stats()
        return _Response(200, payload)

    def _ep_list(self, request: _Request) -> _Response:
        tags = self.store.tags()
        return _Response(
            200,
            {
                "platforms": [
                    {"name": name, "digest": digest}
                    for name, digest in tags.items()
                ],
                "digests": self.store.digests(),
            },
        )

    def _ep_publish(self, request: _Request, name: str) -> _Response:
        if not request.body:
            raise ServiceProtocolError(
                "PUT /platforms/{name} requires a PDL XML body"
            )
        strict = request.query.get("strict", "").lower() in ("1", "true", "yes")
        result = self.store.publish(name, request.body, strict_lint=strict)
        return _Response(201 if result.created else 200, result.to_payload())

    def _ep_fetch(self, request: _Request, ref: str) -> _Response:
        digest = self.store.resolve(ref)
        return _Response(
            200,
            {
                "ref": ref,
                "digest": digest,
                "name": self.store.name_of(digest),
                "xml": self.store.xml(digest),
            },
        )

    def _ep_delete_tag(self, request: _Request, name: str) -> _Response:
        digest = self.store.delete_tag(name)
        return _Response(200, {"name": name, "digest": digest, "deleted": True})

    def _ep_resolve(self, request: _Request, name: str) -> _Response:
        """Tag/prefix → digest without shipping the blob."""
        return _Response(200, {"name": name, "digest": self.store.resolve(name)})

    def _ep_query(self, request: _Request, ref: str) -> _Response:
        return _Response(
            200, self.store.query(ref, request.query.get("selector"))
        )

    def _ep_retag(self, request: _Request) -> _Response:
        body = protocol.loads(request.body)
        if not isinstance(body, dict) or "name" not in body or "ref" not in body:
            raise ServiceProtocolError(
                'POST /tags expects {"name": ..., "ref": ...}'
            )
        result = self.store.retag(str(body["name"]), str(body["ref"]))
        return _Response(200, result.to_payload())

    def _ep_lint(self, request: _Request) -> _Response:
        body = protocol.loads(request.body)
        if not isinstance(body, dict) or "ref" not in body:
            raise ServiceProtocolError('POST /lint expects {"ref": ...}')
        return _Response(200, self.store.lint(str(body["ref"])))

    def _ep_diff(self, request: _Request) -> _Response:
        body = protocol.loads(request.body)
        if not isinstance(body, dict) or "old" not in body or "new" not in body:
            raise ServiceProtocolError('POST /diff expects {"old": ..., "new": ...}')
        return _Response(200, self.store.diff(str(body["old"]), str(body["new"])))

    def _ep_preselect(self, request: _Request) -> _Response:
        body = protocol.loads(request.body)
        if not isinstance(body, dict) or "platform" not in body:
            raise ServiceProtocolError(
                'POST /preselect expects {"platform": ..., "programs": [...]}'
            )
        if "programs" in body:
            programs = body["programs"]
        elif "program" in body:
            programs = [body["program"]]
        else:
            raise ServiceProtocolError(
                'POST /preselect requires "program" or "programs"'
            )
        if not isinstance(programs, list) or not programs:
            raise ServiceProtocolError('"programs" must be a non-empty list')
        ref = str(body["platform"])
        reports = []
        for entry in programs:
            if isinstance(entry, str):
                entry = {"source": entry}
            if not isinstance(entry, dict) or "source" not in entry:
                raise ServiceProtocolError(
                    'each program entry needs a "source" field'
                )
            payload, cached = self.store.preselect(
                ref,
                str(entry["source"]),
                expert_variants=bool(entry.get("expert_variants", False)),
                require_fallback=bool(entry.get("require_fallback", True)),
            )
            reports.append({"cached": cached, "report": payload})
        return _Response(200, {"platform": ref, "results": reports})

    def _ep_profiles_list(self, request: _Request) -> _Response:
        return _Response(200, {"profiles": self.store.profiles()})

    def _ep_profile_put(self, request: _Request, ref: str) -> _Response:
        body = protocol.loads(request.body)
        if not isinstance(body, dict):
            raise ServiceProtocolError(
                "PUT /profiles/{ref} expects a tuning-database JSON payload"
            )
        result = self.store.put_profile(ref, body)
        return _Response(201 if result["created"] else 200, result)

    def _ep_profile_get(self, request: _Request, ref: str) -> _Response:
        return _Response(200, self.store.get_profile(ref))


class ServerThread:
    """Run a :class:`RegistryServer` on a background thread (blocking
    callers: tests, the CLI, :class:`~repro.service.client.RegistryClient`
    examples).  Usable as a context manager::

        with ServerThread(seed_catalog=True) as url:
            client = RegistryClient(url)
    """

    def __init__(
        self,
        store: Optional[DescriptorStore] = None,
        *,
        config: Optional[ServiceConfig] = None,
        seed_catalog: Optional[bool] = None,
    ):
        self._store = store
        self._config = config
        self._seed = seed_catalog
        self._thread = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = None
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[RegistryServer] = None
        self.base_url: Optional[str] = None

    def start(self) -> str:
        import threading

        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="registry-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.base_url is None:
            raise RuntimeError("registry server failed to start in time")
        return self.base_url

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.server = RegistryServer(
                self._store, config=self._config, seed_catalog=self._seed
            )
            await self.server.start()
            self.base_url = self.server.base_url
        except BaseException as exc:  # startup failed: surface in start()
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
