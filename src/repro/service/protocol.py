"""Wire protocol of the platform registry: versioned JSON envelopes, the
route table, and error mapping.

Every response body is JSON.  Failures use one structured shape::

    {"error": {"code": "pdl-error", "type": "PDLParseError",
               "message": "...", "status": 422}}

``error_payload`` maps library exceptions onto that shape (and an HTTP
status); ``raise_for_error`` is the client-side inverse, rehydrating the
closest :mod:`repro.errors` class so callers of
:class:`~repro.service.client.RegistryClient` catch the same exception
types as in-process callers of the toolchain.  A traceback never crosses
the wire: unexpected exceptions map to an opaque ``internal-error``.

Protocol versioning
-------------------
Requests and responses carry an explicit ``X-Repro-Protocol`` header.
Version negotiation happens on first contact: the server answers with
its own version on every response and rejects requests advertising a
version it cannot speak with a clear ``protocol-mismatch`` error
(:class:`~repro.errors.ProtocolMismatchError` client-side) instead of a
confusing payload error.  A request without the header negotiates
version 1 and is served: plain HTTP probes (``curl …/healthz``, load
balancer checks) send no custom headers, and no v1-specific code path
exists, so rejecting them would break probes and remove nothing.

Route table
-----------
:data:`ROUTES` is the single authority on paths: the server compiles its
dispatch patterns from it, and both the async client and the sync facade
build request paths through :func:`route_path` — no string-literal paths
scattered across modules.  Each route carries its metrics *label*
(``"GET /platforms/{ref}"``) and whether it bypasses admission control
(``gated``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional
from urllib.parse import quote

from repro.errors import (
    CascabelError,
    LintError,
    PDLError,
    ProtocolMismatchError,
    QueryError,
    ReproError,
    RepositoryError,
    SelectionError,
    ServiceError,
    ServiceOverloadError,
    ServiceProtocolError,
    TuningError,
    UnknownPlatformError,
)

__all__ = [
    "JSON_CONTENT_TYPE",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOLS",
    "PROTOCOL_HEADER",
    "STATUS_PHRASES",
    "Route",
    "ROUTES",
    "route",
    "route_path",
    "check_protocol",
    "dumps",
    "loads",
    "error_payload",
    "raise_for_error",
]

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: current protocol generation (2 adds ``GET /tags/{name}``); 1 = the
#: original wire format
PROTOCOL_VERSION = 2
#: versions this build can serve/speak
SUPPORTED_PROTOCOLS = (1, 2)
#: request *and* response header carrying the speaker's version
PROTOCOL_HEADER = "X-Repro-Protocol"

STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


# -- route table -------------------------------------------------------------
@dataclass(frozen=True)
class Route:
    """One wire endpoint, shared by server dispatch and client path
    building.  ``template`` uses ``{param}`` placeholders; ``gated``
    routes count against admission control."""

    name: str
    method: str
    template: str
    gated: bool = True

    @property
    def label(self) -> str:
        """The metrics/by-endpoint label (``"GET /platforms/{ref}"``)."""
        return f"{self.method} {self.template}"

    def pattern(self) -> re.Pattern:
        regex = re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", self.template)
        return re.compile(f"^{regex}$")

    def path(self, **params: str) -> str:
        path = self.template
        for key, value in params.items():
            path = path.replace("{" + key + "}", quote(str(value), safe=""))
        if "{" in path:
            raise ValueError(f"unfilled parameter in route {self.name}: {path}")
        return path


ROUTES: tuple = (
    Route("index", "GET", "/", gated=False),
    Route("health", "GET", "/healthz", gated=False),
    Route("metrics", "GET", "/metrics", gated=False),
    Route("list", "GET", "/platforms"),
    Route("publish", "PUT", "/platforms/{name}"),
    Route("fetch", "GET", "/platforms/{ref}"),
    Route("delete_tag", "DELETE", "/platforms/{name}"),
    Route("query", "GET", "/platforms/{ref}/query"),
    Route("resolve", "GET", "/tags/{name}"),
    Route("retag", "POST", "/tags"),
    Route("lint", "POST", "/lint"),
    Route("diff", "POST", "/diff"),
    Route("preselect", "POST", "/preselect"),
    Route("profiles_list", "GET", "/profiles"),
    Route("profile_put", "PUT", "/profiles/{ref}"),
    Route("profile_get", "GET", "/profiles/{ref}"),
)

_ROUTES_BY_NAME = {r.name: r for r in ROUTES}


def route(route_name: str) -> Route:
    """Look up a route by name (raises ``KeyError`` on typos at import
    time rather than 404s at request time)."""
    return _ROUTES_BY_NAME[route_name]


def route_path(route_name: str, **params: str) -> str:
    """Build the request path of a named route with quoted parameters.

    (The first parameter is positional-only in spirit: route templates
    own ``name``/``ref``-style keywords.)
    """
    return _ROUTES_BY_NAME[route_name].path(**params)


def check_protocol(raw_version: Optional[str], *, side: str) -> int:
    """Validate a peer's advertised protocol version.

    ``raw_version`` is the :data:`PROTOCOL_HEADER` value (or ``None``
    when absent — a legacy version-1 peer).  Returns the negotiated
    version or raises :class:`ProtocolMismatchError` with a message that
    names both speakers' versions.  ``side`` ("server"/"client") only
    flavors the message.
    """
    if raw_version is None:
        version = 1
    else:
        try:
            version = int(str(raw_version).strip())
        except ValueError:
            raise ProtocolMismatchError(
                f"unparseable {PROTOCOL_HEADER} header {raw_version!r}"
            ) from None
    if version not in SUPPORTED_PROTOCOLS:
        peer = "client" if side == "server" else "server"
        raise ProtocolMismatchError(
            f"{peer} speaks registry protocol {version}, but this {side}"
            f" supports {list(SUPPORTED_PROTOCOLS)};"
            f" upgrade the {'client' if version < PROTOCOL_VERSION else side}"
        )
    return version


#: exception class → (HTTP status, stable error code).  Ordered most
#: specific first; the first isinstance match wins.
_ERROR_MAP: list = [
    (UnknownPlatformError, 404, "unknown-platform"),
    (ServiceOverloadError, 429, "overloaded"),
    (ProtocolMismatchError, 400, "protocol-mismatch"),
    (ServiceProtocolError, 400, "bad-request"),
    (ServiceError, 500, "service-error"),
    (LintError, 422, "lint-error"),
    (SelectionError, 422, "selection-error"),
    (RepositoryError, 422, "repository-error"),
    (CascabelError, 422, "cascabel-error"),
    (PDLError, 422, "pdl-error"),
    (QueryError, 422, "query-error"),
    (TuningError, 422, "tuning-error"),
    (ReproError, 422, "repro-error"),
]

#: error code → exception class for client-side rehydration
_CODE_MAP: dict = {
    "unknown-platform": UnknownPlatformError,
    "overloaded": ServiceOverloadError,
    "protocol-mismatch": ProtocolMismatchError,
    "bad-request": ServiceProtocolError,
    "service-error": ServiceError,
    "lint-error": LintError,
    "selection-error": SelectionError,
    "repository-error": RepositoryError,
    "cascabel-error": CascabelError,
    "pdl-error": PDLError,
    "query-error": QueryError,
    "tuning-error": TuningError,
    "repro-error": ReproError,
}


def dumps(payload) -> bytes:
    """Canonical wire encoding (compact separators, sorted keys)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def loads(body: bytes):
    """Decode a JSON body; raises :class:`ServiceProtocolError` on junk."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceProtocolError(f"request body is not valid JSON: {exc}") from exc


def error_payload(exc: Exception) -> tuple:
    """Map an exception to ``(http_status, structured error body)``.

    Anything outside the library hierarchy becomes an opaque 500 — the
    message is a generic string so internals (and tracebacks) never leak
    to clients.
    """
    for cls, status, code in _ERROR_MAP:
        if isinstance(exc, cls):
            error = {
                "code": code,
                "type": type(exc).__name__,
                "message": str(exc),
                "status": status,
            }
            if isinstance(exc, LintError) and exc.diagnostics:
                error["diagnostics"] = list(exc.diagnostics)
            return status, {"error": error}
    return 500, {
        "error": {
            "code": "internal-error",
            "type": "InternalError",
            "message": "internal server error",
            "status": 500,
        }
    }


def raise_for_error(
    status: int, payload, *, retry_after: Optional[float] = None
) -> None:
    """Client side: re-raise the library exception a failure body encodes."""
    if status < 400:
        return
    error = payload.get("error", {}) if isinstance(payload, dict) else {}
    code = error.get("code", "service-error")
    message = error.get("message", f"registry request failed with HTTP {status}")
    if status == 429 or code == "overloaded":
        raise ServiceOverloadError(message, retry_after=retry_after)
    cls = _CODE_MAP.get(code)
    if cls is None:
        cls = ServiceProtocolError if status < 500 else ServiceError
    if cls is LintError:
        raise LintError(message, diagnostics=error.get("diagnostics"))
    raise cls(message)
