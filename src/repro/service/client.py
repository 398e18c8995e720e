"""Blocking client for the platform registry service.

A **generated sync facade** over
:class:`~repro.service.async_client.AsyncRegistryClient`:
:func:`~repro.service.async_client.blocking_facade` gives it a blocking
twin of every public coroutine method, with the same signature and
docstring.  Every call is submitted to one shared background event loop,
so blocking callers get the async client's connection pooling, request
coalescing and immutable-digest caching for free.  The caller's
contextvars travel into the loop, so traced calls still produce one
client span under the caller's active span.

Construction takes a base URL *or* a
:class:`~repro.service.async_client.RegistryEndpoint` — the unified
entry-point object shared with the async client and with
``Session(registry=...)``.  Timeout, retry policy and cache sizes are
endpoint fields, read back through ``client.endpoint``.

Overload handling mirrors the runtime's fault idiom: on ``429`` the
client honours the server's ``Retry-After`` (bounded by its own
:class:`~repro.runtime.faults.FaultPolicy` backoff curve) and retries up
to ``policy.max_retries`` times before surfacing
:class:`~repro.errors.ServiceOverloadError`.
"""

from __future__ import annotations

from typing import Union

from repro.service.async_client import (
    LOOP_RUNNER,
    AsyncRegistryClient,
    RegistryEndpoint,
    blocking_facade,
)

__all__ = ["RegistryClient"]


@blocking_facade(AsyncRegistryClient)
class RegistryClient:
    """Synchronous registry client bound to one endpoint."""

    def __init__(self, endpoint: Union[str, RegistryEndpoint] = "127.0.0.1:8787"):
        self.endpoint = RegistryEndpoint.parse(endpoint)
        self._async = AsyncRegistryClient(self.endpoint)

    def cache_stats(self) -> dict:
        """Pool/cache/coalescing counters of the underlying async client."""
        return self._async.cache_stats()

    def close(self) -> None:
        """Release pooled connections (idempotent; clients are otherwise
        safe to abandon — the pool holds only daemon-loop resources)."""
        LOOP_RUNNER.submit(self._async.aclose())

    def __repr__(self) -> str:
        return f"RegistryClient({self.endpoint.base_url})"
