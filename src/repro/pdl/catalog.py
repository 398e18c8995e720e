"""Catalog of PDL descriptors shipped with the library.

The paper envisions that "base descriptors for common platforms may be
provided a priori"; this module is that a-priori collection.  Descriptors
are stored as XML under ``repro/pdl/data`` and loaded on demand.

Parsing is cached: documents are content-addressed by the sha256 digest
of their text (:func:`content_digest`) and parsed at most once per
distinct content.  The cache keeps a pristine master copy of each parsed
:class:`~repro.model.platform.Platform` and hands out
:meth:`~repro.model.platform.Platform.copy` clones, so callers may mutate
the result freely — exactly the semantics ``load_platform`` always had,
minus the repeated XML parse.  The registry service
(:mod:`repro.service.store`) shares this cache for its own hot path.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from importlib import resources
from typing import NamedTuple, Union

from repro.errors import PDLError
from repro.model.platform import Platform
from repro.obs import spans as _obs
from repro.pdl.parser import parse_pdl

__all__ = [
    "available_platforms",
    "load_platform",
    "platform_path",
    "content_digest",
    "is_full_digest",
    "parse_cached",
    "parse_cache_info",
    "clear_parse_cache",
]

_DATA_PACKAGE = "repro.pdl"
_DATA_DIR = "data"

#: maximum number of distinct parsed documents kept as master copies
_PARSE_CACHE_LIMIT = 64

_parse_lock = threading.Lock()
_parse_cache: "OrderedDict[tuple, Platform]" = OrderedDict()
_parse_hits = 0
_parse_misses = 0


def content_digest(text: Union[str, bytes]) -> str:
    """sha256 hex digest of a document's content (its immutable identity)."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


_HEX_DIGITS = frozenset("0123456789abcdef")


def is_full_digest(ref: str) -> bool:
    """True when ``ref`` is a complete :func:`content_digest` (64 lowercase
    hex digits) rather than a tag name or a digest prefix."""
    return len(ref) == 64 and set(ref) <= _HEX_DIGITS


class ParseCacheInfo(NamedTuple):
    hits: int
    misses: int
    size: int
    limit: int


def parse_cache_info() -> ParseCacheInfo:
    """Counters of the module-level parsed-descriptor cache."""
    with _parse_lock:
        return ParseCacheInfo(
            _parse_hits, _parse_misses, len(_parse_cache), _PARSE_CACHE_LIMIT
        )


def clear_parse_cache() -> None:
    """Drop all cached parsed descriptors and reset the counters."""
    global _parse_hits, _parse_misses
    with _parse_lock:
        _parse_cache.clear()
        _parse_hits = 0
        _parse_misses = 0


def parse_cached(
    text: Union[str, bytes],
    *,
    validate: bool = True,
    strict_schema: bool = False,
    name: str | None = None,
    digest: str | None = None,
    **kwargs,
) -> Platform:
    """Parse a PDL document through the content-digest cache.

    Returns an independent :meth:`~repro.model.platform.Platform.copy` of
    the cached master, so mutating the result never corrupts the cache.
    ``digest`` may be passed when the caller already knows the content
    digest (the registry store does).  Extra keyword arguments (e.g. a
    custom schema registry) bypass the cache, since they change the parse
    result in ways the key does not capture.
    """
    global _parse_hits, _parse_misses
    if kwargs:
        return parse_pdl(
            text, validate=validate, strict_schema=strict_schema, name=name, **kwargs
        )
    key = (digest or content_digest(text), name, validate, strict_schema)
    tracer = _obs.get_tracer()
    with _parse_lock:
        master = _parse_cache.get(key)
        if master is not None:
            _parse_cache.move_to_end(key)
            _parse_hits += 1
    if master is not None:
        if tracer is not None:
            tracer.metrics.counter("pdl.parse_cache.hit").inc()
        return master.copy()
    if tracer is not None:
        tracer.metrics.counter("pdl.parse_cache.miss").inc()
    parsed = parse_pdl(text, validate=validate, strict_schema=strict_schema, name=name)
    with _parse_lock:
        _parse_misses += 1
        _parse_cache[key] = parsed.copy()
        _parse_cache.move_to_end(key)
        while len(_parse_cache) > _PARSE_CACHE_LIMIT:
            _parse_cache.popitem(last=False)
    return parsed


def _data_root():
    return resources.files(_DATA_PACKAGE).joinpath(_DATA_DIR)


def available_platforms() -> list[str]:
    """Names of all shipped platform descriptors (without extension)."""
    root = _data_root()
    names = []
    for entry in root.iterdir():
        if entry.name.endswith(".xml"):
            names.append(entry.name[: -len(".xml")])
    return sorted(names)


def platform_path(name: str) -> str:
    """Filesystem path of a shipped descriptor (for tooling/CLI use)."""
    entry = _data_root().joinpath(f"{name}.xml")
    path = str(entry)
    if not os.path.exists(path):
        raise PDLError(
            f"no shipped platform {name!r}; available: {available_platforms()}"
        )
    return path


def load_platform(name: str, *, validate: bool = True, **kwargs) -> Platform:
    """Parse a shipped descriptor by name.

    >>> load_platform("xeon_x5550_2gpu").total_pu_count()
    11
    """
    entry = _data_root().joinpath(f"{name}.xml")
    try:
        text = entry.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise PDLError(
            f"no shipped platform {name!r}; available: {available_platforms()}"
        ) from None
    return parse_cached(text, validate=validate, name=name, **kwargs)
