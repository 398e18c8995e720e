"""MSI-style coherence of data handles across memory nodes.

StarPU keeps an MSI cache-coherence automaton per (handle, memory node);
we reproduce the same behaviour at handle granularity:

* a handle starts VALID only on its home node;
* a **read** on node *n* requires a valid copy: if absent, one transfer
  from some valid node is needed, after which *n* joins the sharers;
* a **write** (or read-write) on node *n* makes *n* the exclusive owner,
  invalidating all other copies;
* eviction is not modeled (the paper's working sets fit device memory).

The coherence directory is pure bookkeeping — it *reports* which transfer
is required and mutates state when told the access happened; actually
timing/performing the transfer is the engine's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.errors import CoherenceError
from repro.runtime.data import DataHandle

__all__ = ["AccessMode", "TransferNeed", "CoherenceDirectory"]


class AccessMode(str, Enum):
    """Task parameter access modes (paper §IV-A: read, write, readwrite).

    ``reads``/``writes`` are precomputed member attributes (not
    properties): they are consulted several times per task in the
    simulator hot path, where a property call per check is measurable.
    """

    READ = "r"
    WRITE = "w"
    READWRITE = "rw"

    reads: bool
    writes: bool

    @classmethod
    def parse(cls, text: "str | AccessMode") -> "AccessMode":
        """A member, or any spelling in ``_MODE_ALIASES`` (case and
        surrounding whitespace ignored)."""
        if isinstance(text, cls):
            return text
        try:
            return _MODE_ALIASES[str(text).strip().lower()]
        except KeyError:
            raise CoherenceError(
                f"unknown access mode {text!r}; use read|write|readwrite"
            ) from None


for _mode in AccessMode:
    _mode.reads = _mode in (AccessMode.READ, AccessMode.READWRITE)
    _mode.writes = _mode in (AccessMode.WRITE, AccessMode.READWRITE)
del _mode

#: lower-case spelling → mode, built once (``parse`` runs per task access
#: and per Cascabel pragma parameter)
_MODE_ALIASES: dict[str, AccessMode] = {
    "r": AccessMode.READ,
    "read": AccessMode.READ,
    "w": AccessMode.WRITE,
    "write": AccessMode.WRITE,
    "rw": AccessMode.READWRITE,
    "readwrite": AccessMode.READWRITE,
}


@dataclass(frozen=True)
class TransferNeed:
    """One data movement required before an access may proceed."""

    handle: DataHandle
    src_node: int
    dst_node: int

    @property
    def nbytes(self) -> int:
        return self.handle.nbytes


class CoherenceDirectory:
    """Tracks which memory nodes hold valid copies of which handles.

    A *transition* is a change of a handle's valid set: a transfer adds
    a sharer, a write by a non-owner (or by one sharer of several) makes
    the writer the exclusive owner, and the capacity manager's evictions
    remove copies.  Each transition drops the handle's ``needed_src``
    memo and bumps its epoch.  A write by the sole valid owner changes
    nothing and does neither, so a chain of writes to one tile on one
    node (a tiled GEMM's ``C`` accumulation) keeps its memo and its
    vectorized transfer row across tasks.
    """

    def __init__(self):
        #: handle id → set of nodes with a valid copy
        self._valid: dict[int, set[int]] = {}
        #: handle id → {node → src node, or -1 if already resident}; a
        #: memo of read-source decisions so the vectorized scheduler can
        #: resolve transfer needs for a whole candidate row without
        #: re-walking the sharer sets.  Dropped per-handle on any state
        #: transition for that handle.
        self._need_cache: dict[int, dict[int, int]] = {}
        #: handle id → validity epoch, bumped on every valid-set change;
        #: lets external caches (the vectorized cost model's per-handle
        #: transfer rows) detect staleness with one dict lookup.
        self._epoch: dict[int, int] = {}
        self._stats_transfers = 0
        self._stats_bytes = 0.0
        self._stats_invalidations = 0

    # -- queries -------------------------------------------------------------
    def valid_nodes(self, handle: DataHandle) -> set[int]:
        nodes = self._valid.get(handle.id)
        if nodes is None:
            nodes = {handle.home_node}
            self._valid[handle.id] = nodes
        return nodes

    def is_valid_on(self, handle: DataHandle, node: int) -> bool:
        return node in self.valid_nodes(handle)

    def required_transfer(
        self, handle: DataHandle, node: int, mode: AccessMode
    ) -> Optional[TransferNeed]:
        """The transfer needed before ``node`` may perform ``mode``.

        Pure-WRITE accesses need no inbound copy (the old content is
        overwritten); READ/READWRITE fetch from the *preferred* valid node:
        the home node if valid there, else the lowest-numbered sharer
        (deterministic; the engine may re-route by cost).
        """
        if not mode.reads:
            return None
        valid = self.valid_nodes(handle)
        if node in valid:
            return None
        if not valid:
            raise CoherenceError(
                f"handle {handle.name!r} has no valid copy anywhere"
            )
        src = handle.home_node if handle.home_node in valid else min(valid)
        return TransferNeed(handle, src, node)

    def needed_src(self, handle: DataHandle, node: int) -> int:
        """Read-source for ``handle`` on ``node``: -1 if already valid.

        Memoized per (handle, node) until the handle's validity changes;
        the answer is exactly what :meth:`required_transfer` would pick
        for a reading access, so the vectorized and scalar paths agree.
        """
        per_handle = self._need_cache.get(handle.id)
        if per_handle is None:
            per_handle = {}
            self._need_cache[handle.id] = per_handle
        src = per_handle.get(node)
        if src is None:
            valid = self.valid_nodes(handle)
            if node in valid:
                src = -1
            else:
                if not valid:
                    raise CoherenceError(
                        f"handle {handle.name!r} has no valid copy anywhere"
                    )
                src = handle.home_node if handle.home_node in valid else min(valid)
            per_handle[node] = src
        return src

    def needed_src_many(self, handle: DataHandle, nodes) -> list[int]:
        """:meth:`needed_src` for many nodes with one cache lookup.

        The validity set and preferred source are resolved at most once
        per call, so scoring a whole worker row costs O(nodes) dict
        probes instead of O(nodes) full resolutions.
        """
        per_handle = self._need_cache.get(handle.id)
        if per_handle is None:
            per_handle = {}
            self._need_cache[handle.id] = per_handle
        valid: Optional[set[int]] = None
        preferred = -1
        out = []
        for node in nodes:
            src = per_handle.get(node)
            if src is None:
                if valid is None:
                    valid = self.valid_nodes(handle)
                    if not valid:
                        raise CoherenceError(
                            f"handle {handle.name!r} has no valid copy anywhere"
                        )
                    preferred = (
                        handle.home_node
                        if handle.home_node in valid
                        else min(valid)
                    )
                src = -1 if node in valid else preferred
                per_handle[node] = src
            out.append(src)
        return out

    def required_transfer_cached(
        self, handle: DataHandle, node: int, mode: AccessMode
    ) -> Optional[TransferNeed]:
        """Memoized :meth:`required_transfer` (same semantics)."""
        if not mode.reads:
            return None
        src = self.needed_src(handle, node)
        if src < 0:
            return None
        return TransferNeed(handle, src, node)

    # -- state transitions --------------------------------------------------------
    def note_transfer(self, need: TransferNeed) -> None:
        """Record that ``need`` was carried out: dst joins the sharers."""
        valid = self.valid_nodes(need.handle)
        if need.src_node not in valid:
            raise CoherenceError(
                f"transfer of {need.handle.name!r} from node {need.src_node}"
                f" but valid copies are on {sorted(valid)}"
            )
        valid.add(need.dst_node)
        self._drop_memo(need.handle.id)
        self._stats_transfers += 1
        self._stats_bytes += need.nbytes

    def note_access(self, handle: DataHandle, node: int, mode: AccessMode) -> None:
        """Apply the coherence transition for a completed access.

        A write by the sole valid owner leaves the valid set as it was,
        so it is not a transition: the memo and the epoch stay put.
        """
        valid = self.valid_nodes(handle)
        if mode.writes:
            if len(valid) == 1 and node in valid:
                return
            self._stats_invalidations += len(valid - {node})
            valid.clear()
            valid.add(node)
            self._drop_memo(handle.id)
        else:
            if node not in valid:
                raise CoherenceError(
                    f"read of {handle.name!r} on node {node} without a valid"
                    f" copy (valid on {sorted(valid)}); transfer it first"
                )

    def invalidate_need_cache(self, handle: DataHandle) -> None:
        """Drop memoized read-source decisions for ``handle``.

        Required by callers that mutate the validity set directly (the
        capacity manager's eviction path) instead of going through
        :meth:`note_transfer`/:meth:`note_access`.
        """
        self._drop_memo(handle.id)

    def _drop_memo(self, handle_id: int) -> None:
        self._need_cache.pop(handle_id, None)
        self._epoch[handle_id] = self._epoch.get(handle_id, 0) + 1

    def epoch_of(self, handle: DataHandle) -> int:
        """Current validity epoch of ``handle`` (changes on transitions)."""
        return self._epoch.get(handle.id, 0)

    def flush_to_home(self, handle: DataHandle) -> Optional[TransferNeed]:
        """Transfer needed to make the home node valid again (result
        gather at the end of a computation)."""
        valid = self.valid_nodes(handle)
        if handle.home_node in valid:
            return None
        src = min(valid)
        return TransferNeed(handle, src, handle.home_node)

    # -- stats ---------------------------------------------------------------------
    @property
    def transfer_count(self) -> int:
        return self._stats_transfers

    @property
    def bytes_transferred(self) -> float:
        return self._stats_bytes

    @property
    def invalidation_count(self) -> int:
        return self._stats_invalidations

    def reset(self) -> None:
        self._valid.clear()
        self._need_cache.clear()
        self._epoch.clear()
        self._stats_transfers = 0
        self._stats_bytes = 0.0
        self._stats_invalidations = 0
