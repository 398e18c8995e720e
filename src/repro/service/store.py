"""Content-addressed store of PDL descriptors (the registry's heart).

Versioning model
----------------
A descriptor's immutable identity is the sha256 digest of its *canonical*
serialization (parse → :func:`repro.pdl.writer.write_pdl`), so two
documents that differ only in formatting or attribute order share one
version id.  Human-facing *names* are movable tags onto digests, exactly
like git refs: ``publish("gpubox", xml)`` stores the blob under its
digest and points the ``gpubox`` tag at it; re-publishing different
content moves the tag while the old version stays fetchable by digest.

Hot paths
---------
* parsed :class:`~repro.model.platform.Platform` objects are kept in a
  digest-keyed LRU (shared with :mod:`repro.pdl.catalog`'s module cache,
  so catalog loads and registry fetches never parse the same bytes
  twice), and
* pre-selection results are memoized under
  ``(platform digest, program digest, options)``.  Keys embed the
  *digest*, never the tag, so a tag move can't serve a stale result; the
  move additionally evicts memo entries of the orphaned digest.

All operations are thread-safe; the store is shared by the asyncio
server's worker threads and any in-process callers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import UnknownPlatformError
from repro.model.platform import Platform
from repro.pdl.catalog import (
    available_platforms,
    content_digest,
    parse_cached,
    platform_path,
)
from repro.pdl.diff import diff_platforms
from repro.pdl.writer import write_pdl
from repro.query.api import PlatformQuery
from repro.cascabel.frontend import parse_program
from repro.cascabel.repository import TaskRepository
from repro.cascabel.selection import preselect
from repro.service.cache import LRUCache
from repro.service.metrics import ServiceMetrics

__all__ = ["PublishResult", "DescriptorStore"]

#: minimum length of a digest prefix accepted by :meth:`DescriptorStore.resolve`
_MIN_PREFIX = 8

@dataclass(frozen=True)
class PublishResult:
    """Outcome of one publish/retag operation."""

    name: str
    digest: str
    created: bool  # a new blob was stored
    moved: bool  # the tag previously pointed at a different digest

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "digest": self.digest,
            "created": self.created,
            "moved": self.moved,
        }


class DescriptorStore:
    """Concurrent content-addressed PDL store with memoized toolchain ops."""

    def __init__(
        self,
        *,
        platform_cache_size: int = 64,
        preselect_cache_size: int = 256,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.metrics = metrics or ServiceMetrics()
        self._lock = threading.RLock()
        self._blobs: dict[str, str] = {}  # digest -> canonical XML
        self._tags: dict[str, str] = {}  # name -> digest
        self._platforms = LRUCache(platform_cache_size)  # digest -> master copy
        self._preselect = LRUCache(preselect_cache_size)
        #: platform digest -> tuning profile payload (TuningDatabase wire
        #: format restricted to that one platform)
        self._profiles: dict[str, dict] = {}

    # -- publishing ---------------------------------------------------------
    def publish(
        self, name: str, xml_text: Union[str, bytes], *, strict_lint: bool = False
    ) -> PublishResult:
        """Store a descriptor under ``name``.

        The document is parsed (and validated — malformed XML raises
        :class:`~repro.errors.PDLError` before anything is stored),
        canonicalized, and content-addressed.  Publishing identical
        content twice is idempotent.

        With ``strict_lint`` the PDL and interference (IFR) rule packs
        run before anything is stored, and error-severity findings
        reject the publish with :class:`~repro.errors.LintError` — a
        descriptor whose shared channels are undeclared never enters
        the registry.
        """
        if isinstance(xml_text, bytes):
            xml_text = xml_text.decode("utf-8")
        platform = parse_cached(xml_text, name=name)
        if strict_lint:
            from repro.analysis.diagnostics import Severity

            report = self._lint_platform(platform, name)
            errors = report.at_least(Severity.ERROR)
            if errors:
                from repro.errors import LintError

                raise LintError(
                    f"strict lint rejected {name!r}:"
                    f" {len(errors)} error-severity finding(s)",
                    diagnostics=[d.to_payload() for d in errors],
                )
        canonical = write_pdl(platform)
        digest = content_digest(canonical)
        with self._lock:
            created = digest not in self._blobs
            if created:
                self._blobs[digest] = canonical
            previous = self._tags.get(name)
            moved = previous is not None and previous != digest
            self._tags[name] = digest
        # warm the parse cache with the already-parsed document
        if digest not in self._platforms:
            self._platforms.put(digest, platform.copy())
        if moved:
            self._invalidate_preselect(previous)
        return PublishResult(name=name, digest=digest, created=created, moved=moved)

    def retag(self, name: str, ref: str) -> PublishResult:
        """Point tag ``name`` at an existing version (tag or digest ref)."""
        digest = self.resolve(ref)
        with self._lock:
            previous = self._tags.get(name)
            moved = previous is not None and previous != digest
            self._tags[name] = digest
        if moved:
            self._invalidate_preselect(previous)
        return PublishResult(name=name, digest=digest, created=False, moved=moved)

    def delete_tag(self, name: str) -> str:
        """Remove a tag (the blob stays fetchable by digest); returns the
        digest the tag pointed at."""
        with self._lock:
            try:
                digest = self._tags.pop(name)
            except KeyError:
                raise UnknownPlatformError(f"unknown platform tag {name!r}") from None
        self._invalidate_preselect(digest)
        return digest

    def seed_catalog(self) -> list[PublishResult]:
        """Publish every shipped catalog descriptor (the paper's a-priori
        "base descriptors for common platforms")."""
        results = []
        for name in available_platforms():
            with open(platform_path(name), "r", encoding="utf-8") as handle:
                results.append(self.publish(name, handle.read()))
        return results

    def _invalidate_preselect(self, digest: Optional[str]) -> None:
        if digest is None:
            return
        with self._lock:
            referenced = digest in self._tags.values()
        if not referenced:
            self._preselect.evict_where(lambda key: key[0] == digest)

    # -- resolution / fetch -------------------------------------------------
    def resolve(self, ref: str) -> str:
        """Resolve a tag name, full digest, or unique digest prefix."""
        with self._lock:
            if ref in self._tags:
                return self._tags[ref]
            if ref in self._blobs:
                return ref
            if len(ref) >= _MIN_PREFIX:
                matches = [d for d in self._blobs if d.startswith(ref)]
                if len(matches) == 1:
                    return matches[0]
                if len(matches) > 1:
                    raise UnknownPlatformError(
                        f"ambiguous digest prefix {ref!r} ({len(matches)} matches)"
                    )
            known = sorted(self._tags)
        raise UnknownPlatformError(
            f"unknown platform {ref!r}; known tags: {known}"
        )

    def xml(self, ref: str) -> str:
        """Canonical XML of a stored version."""
        digest = self.resolve(ref)
        with self._lock:
            return self._blobs[digest]

    def platform(self, ref: str) -> Platform:
        """Parsed :class:`Platform` for a stored version (LRU-cached).

        Returns an independent copy; mutating it cannot corrupt the
        cache or other callers.
        """
        digest = self.resolve(ref)
        master = self._platforms.get(digest)
        hit = master is not None
        self.metrics.record_platform_cache(hit)
        if not hit:
            text = self.xml(digest)
            master = parse_cached(text, digest=digest)
            self._platforms.put(digest, master.copy())
        return master.copy()

    def tags(self) -> dict[str, str]:
        with self._lock:
            return dict(sorted(self._tags.items()))

    def digests(self) -> list[str]:
        with self._lock:
            return sorted(self._blobs)

    def name_of(self, digest: str) -> Optional[str]:
        """Some tag currently pointing at ``digest`` (alphabetical first)."""
        with self._lock:
            names = sorted(n for n, d in self._tags.items() if d == digest)
        return names[0] if names else None

    # -- toolchain delegation -----------------------------------------------
    def query(self, ref: str, selector: Optional[str] = None) -> dict:
        """Evaluate a selector via :class:`repro.query.PlatformQuery`, or
        summarize the platform when no selector is given."""
        platform = self.platform(ref)
        q = PlatformQuery(platform)
        if selector is None:
            return {
                "platform": platform.name,
                "digest": self.resolve(ref),
                "architectures": sorted(platform.architectures()),
                "total_pus": platform.total_pu_count(),
                "masters": [pu.id for pu in platform.masters],
                "workers": [pu.id for pu in platform.workers()],
            }
        matched = q.select(selector)
        return {
            "platform": platform.name,
            "selector": selector,
            "matches": [
                {
                    "id": pu.id,
                    "kind": pu.kind,
                    "architecture": pu.architecture,
                    "quantity": pu.quantity,
                }
                for pu in matched
            ],
        }

    def diff(self, old_ref: str, new_ref: str) -> dict:
        """Structural diff of two stored versions."""
        old_digest, new_digest = self.resolve(old_ref), self.resolve(new_ref)
        diff = diff_platforms(self.platform(old_digest), self.platform(new_digest))
        return {
            "old": {"ref": old_ref, "digest": old_digest, "name": diff.old_name},
            "new": {"ref": new_ref, "digest": new_digest, "name": diff.new_name},
            "identical": diff.identical,
            "changes": [
                {"kind": c.kind.value, "subject": c.subject, "detail": c.detail}
                for c in diff.changes
            ],
        }

    def preselect(
        self,
        ref: str,
        program_source: str,
        *,
        expert_variants: bool = False,
        require_fallback: bool = True,
    ) -> tuple[dict, bool]:
        """Cascabel variant pre-selection against a stored descriptor.

        Returns ``(payload, cached)``.  Results are memoized under the
        resolved *digest* (never the tag), so identical requests are
        served from memory and a tag move naturally changes the key.
        Raises :class:`~repro.errors.CascabelError` subclasses on bad
        programs or unsatisfiable selections.
        """
        digest = self.resolve(ref)
        key = (
            digest,
            content_digest(program_source),
            bool(expert_variants),
            bool(require_fallback),
        )
        cached = self._preselect.get(key)
        hit = cached is not None
        self.metrics.record_preselect_cache(hit)
        if hit:
            return cached, True
        program = parse_program(program_source)
        repository = TaskRepository()
        repository.register_program(program)
        if expert_variants:
            from repro.cascabel.driver import register_builtin_variants

            register_builtin_variants(repository, program)
        platform = self.platform(digest)
        report = preselect(
            repository, program, platform, require_fallback=require_fallback
        )
        payload = report.to_payload()
        payload["digest"] = digest
        payload["fingerprint"] = report.fingerprint()
        self._preselect.put(key, payload)
        return payload, False

    # -- static analysis -----------------------------------------------------
    @staticmethod
    def _lint_platform(platform: Platform, filename: str):
        from repro.analysis.engine import Linter

        return Linter().lint_platform(platform, filename=filename)

    def lint(self, ref: str) -> dict:
        """Run the PDL + interference rule packs against a stored version.

        Returns the :class:`~repro.analysis.diagnostics.LintReport`
        payload plus the resolved digest; never raises on findings (the
        caller decides what severity gates).
        """
        digest = self.resolve(ref)
        report = self._lint_platform(self.platform(digest), self.name_of(digest) or ref)
        payload = report.to_payload()
        payload["digest"] = digest
        return payload

    # -- tuning profiles -----------------------------------------------------
    def put_profile(self, ref: str, payload: dict) -> dict:
        """Attach a tuning profile to a stored descriptor version.

        ``payload`` is the :class:`~repro.tune.database.TuningDatabase`
        wire format; it must contain a profile for the digest ``ref``
        resolves to (profiles are keyed by content digest, so a profile
        can never silently apply to a different descriptor revision).
        The payload is validated by round-tripping it through the
        database parser before anything is stored.
        """
        from repro.errors import TuningError
        from repro.tune.database import TuningDatabase

        digest = self.resolve(ref)
        database = TuningDatabase.from_payload(payload)
        if digest not in database.platforms():
            raise TuningError(
                f"profile payload has no samples for digest {digest[:12]!r}"
                f" (profiles inside: {[d[:12] for d in database.platforms()]})"
            )
        normalized = database.to_payload(digest)
        with self._lock:
            created = digest not in self._profiles
            self._profiles[digest] = normalized
        return {
            "digest": digest,
            "samples": database.sample_count(digest),
            "created": created,
        }

    def get_profile(self, ref: str) -> dict:
        """Tuning profile payload of a stored descriptor version."""
        digest = self.resolve(ref)
        with self._lock:
            payload = self._profiles.get(digest)
        if payload is None:
            raise UnknownPlatformError(
                f"no tuning profile stored for {ref!r} ({digest[:12]})"
            )
        return {"digest": digest, "profile": payload}

    def profiles(self) -> list[dict]:
        """Summaries of every stored profile (sorted by digest)."""
        with self._lock:
            stored = dict(self._profiles)
        out = []
        for digest in sorted(stored):
            entry = stored[digest]["platforms"][digest]
            out.append(
                {
                    "digest": digest,
                    "name": self.name_of(digest) or entry.get("platform_name", ""),
                    "samples": len(entry.get("samples", ())),
                    "transfers": len(entry.get("transfers", ())),
                }
            )
        return out

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            blobs, tags = len(self._blobs), len(self._tags)
            profiles = len(self._profiles)
        return {
            "blobs": blobs,
            "tags": tags,
            "profiles": profiles,
            "platform_cache": {
                "size": len(self._platforms),
                "capacity": self._platforms.capacity,
                "hits": self._platforms.hits,
                "misses": self._platforms.misses,
            },
            "preselect_cache": {
                "size": len(self._preselect),
                "capacity": self._preselect.capacity,
                "hits": self._preselect.hits,
                "misses": self._preselect.misses,
            },
        }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"DescriptorStore(blobs={len(self._blobs)},"
                f" tags={len(self._tags)})"
            )
