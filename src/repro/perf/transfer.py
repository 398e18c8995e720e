"""Interconnect transfer-cost model with link contention.

Wraps :class:`~repro.query.paths.InterconnectGraph` routes in a model the
discrete-event runtime can use: each physical link is a serially-shared
resource (one DMA at a time, which is how PCIe behaves for large pinned
transfers), so concurrent transfers over the same link queue up.  This
contention is what bounds the ``starpu+2gpu`` configuration of Figure 5
when both GPUs pull operands simultaneously — modeling it matters for the
reproduced shape.

With ``model_interference=True`` the model additionally honors the
platform's declared *contention domains* (see
:mod:`repro.model.contention`): a hop whose link — or whose endpoint
memory region — is enrolled in a domain does not queue serially but
shares the domain's aggregate bandwidth budget fluidly with every
transfer concurrently crossing that domain.  The effective rate is
``min(link bandwidth, budget / (1 + concurrent crossers))`` over all
domains the hop touches.  Hops outside any domain keep the serial model
byte-for-byte, so platforms without declarations (and runs with the flag
off, the default) produce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.model.platform import Platform
from repro.query.paths import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_LATENCY_S,
    InterconnectGraph,
    Route,
)

__all__ = ["TransferEstimate", "TransferModel"]


@dataclass(frozen=True)
class TransferEstimate:
    """Outcome of scheduling one transfer on the contended link model."""

    src: str
    dst: str
    nbytes: float
    start: float  # when the transfer actually started (after queueing)
    finish: float
    route: Route

    @property
    def duration(self) -> float:
        return self.finish - self.start


class TransferModel:
    """Contention-aware transfer scheduling over a platform's links."""

    def __init__(
        self,
        platform: Platform,
        *,
        include_control_edges: bool = True,
        model_contention: bool = True,
        model_interference: bool = False,
    ):
        self.graph = InterconnectGraph(
            platform, include_control_edges=include_control_edges
        )
        self._platform = platform
        #: when False, links are infinitely shareable (ablation baseline)
        self.model_contention = model_contention
        #: when True, hops crossing a declared contention domain share
        #: the domain budget fluidly instead of queueing serially
        self.model_interference = model_interference
        #: lazily built (budgets, link→domains, node→domains) tables;
        #: dropped by :meth:`invalidate_routes` like the other memos
        self._domain_tables: Optional[
            tuple[
                dict[str, float],
                dict[str, tuple[str, ...]],
                dict[str, tuple[str, ...]],
            ]
        ] = None
        #: domain name → (begin, end) intervals of in-flight transfers
        self._domain_active: dict[str, list[tuple[float, float]]] = {}
        #: link id → time at which the link becomes free
        self._link_free_at: dict[str, float] = {}
        self._route_cache: dict[tuple[str, str], Route] = {}
        #: (src, dst, nbytes) → ideal seconds; the vectorized runtime's
        #: bulk scorer hits this instead of re-walking route links (and
        #: re-parsing their quantity properties) per candidate worker
        self._ideal_cache: dict[tuple[str, str, float], float] = {}
        #: opt-in memo of per-link (latency_s, bandwidth_bps): reading a
        #: link's quantity properties re-parses unit strings, which the
        #: contended :meth:`schedule` loop does per hop per transfer.
        #: The vectorized engine enables this; the scalar reference path
        #: keeps re-reading so the two implementations stay independent.
        self.param_cache_enabled = False
        self._link_params: dict[str, tuple[float, float]] = {}

    def reset(self) -> None:
        """Forget all link occupancy (start of a new simulation run)."""
        self._link_free_at.clear()
        self._domain_active.clear()

    def invalidate_routes(self) -> None:
        """Drop memoized routes after a dynamic event changed the fabric.

        Routes are computed from the interconnect graph once and cached;
        an event that re-instantiates link bandwidth/latency (or re-wires
        the topology) makes those cached paths stale.  Memoized ideal
        times, link parameters, and contention-domain tables are derived
        from the same document properties, so they go too.
        """
        self._route_cache.clear()
        self._ideal_cache.clear()
        self._link_params.clear()
        self._domain_tables = None

    # -- contention domains -----------------------------------------------------
    def _domains(
        self,
    ) -> tuple[
        dict[str, float],
        dict[str, tuple[str, ...]],
        dict[str, tuple[str, ...]],
    ]:
        """``(budgets, link id → domains, region-owner PU id → domains)``.

        Only domains with a positive declared budget participate — a
        budget-less domain is an IFR002 lint error, and the runtime has
        nothing to apportion for it.
        """
        tables = self._domain_tables
        if tables is None:
            from repro.model.contention import collect_contention_domains

            budgets: dict[str, float] = {}
            link_domains: dict[str, tuple[str, ...]] = {}
            node_domains: dict[str, tuple[str, ...]] = {}
            for dom in collect_contention_domains(self._platform):
                budget = dom.budget_bps
                if budget is None or budget <= 0:
                    continue
                budgets[dom.name] = budget
                for member in dom.members:
                    if member.kind == "interconnect":
                        table, key = link_domains, member.id
                    else:
                        table, key = node_domains, member.owner
                    current = table.get(key, ())
                    if dom.name not in current:
                        table[key] = current + (dom.name,)
            tables = (budgets, link_domains, node_domains)
            self._domain_tables = tables
        return tables

    def _crossers_at(self, name: str, when: float) -> int:
        """Transfers in flight across domain ``name`` at time ``when``."""
        return sum(
            1
            for begin, end in self._domain_active.get(name, ())
            if begin <= when < end
        )

    # -- pure estimates (no state) --------------------------------------------
    def route(self, src: str, dst: str) -> Route:
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = self.graph.shortest(src, dst, weight="latency")
            self._route_cache[key] = cached
        return cached

    def ideal_time(self, src: str, dst: str, nbytes: float) -> float:
        """Transfer time ignoring contention (used by dmda lookahead)."""
        if src == dst:
            return 0.0
        return self.route(src, dst).transfer_time(nbytes)

    def ideal_time_cached(self, src: str, dst: str, nbytes: float) -> float:
        """Memoized :meth:`ideal_time` — bit-identical by construction.

        The cache stores the result of the exact scalar computation, so
        the vectorized scheduler's batched scores match the scalar
        path's floats to the last ulp.  Invalidated with the routes.
        """
        key = (src, dst, nbytes)
        t = self._ideal_cache.get(key)
        if t is None:
            t = self.ideal_time(src, dst, nbytes)
            self._ideal_cache[key] = t
        return t

    # -- stateful scheduling ----------------------------------------------------
    def schedule(
        self, src: str, dst: str, nbytes: float, now: float
    ) -> TransferEstimate:
        """Occupy the route's links starting no earlier than ``now``.

        Each hop waits for its link to free up, then holds it for
        ``latency + nbytes/bandwidth``.  Returns the contention-adjusted
        timeline.  Zero-byte or same-node transfers are free.
        """
        if src == dst:
            route = Route((src, dst), (src,), ())
            return TransferEstimate(src, dst, nbytes, now, now, route)
        route = self.route(src, dst)
        if not self.model_contention:
            finish = now + route.transfer_time(nbytes)
            return TransferEstimate(src, dst, nbytes, now, finish, route)
        if self.model_interference:
            budgets, link_domains, node_domains = self._domains()
        t = now
        start: Optional[float] = None
        last_hop = len(route.links) - 1
        for hop, link in enumerate(route.links):
            if self.model_interference:
                domains = link_domains.get(link.id, ())
                if hop == 0:
                    for name in node_domains.get(src, ()):
                        if name not in domains:
                            domains += (name,)
                if hop == last_hop:
                    for name in node_domains.get(dst, ()):
                        if name not in domains:
                            domains += (name,)
                if domains:
                    # fluid sharing: no serial queueing — every crosser
                    # runs at once, splitting the tightest domain budget
                    begin = t
                    if start is None:
                        start = begin
                    lat, bw = self._hop_params(link)
                    rate = bw
                    for name in domains:
                        share = budgets[name] / (
                            self._crossers_at(name, begin) + 1
                        )
                        if share < rate:
                            rate = share
                    end = begin + lat + nbytes / rate
                    for name in domains:
                        intervals = self._domain_active.setdefault(name, [])
                        intervals.append((begin, end))
                        if len(intervals) > 512:
                            self._domain_active[name] = [
                                iv for iv in intervals if iv[1] > begin
                            ]
                    t = end
                    continue
            free_at = self._link_free_at.get(link.id, 0.0)
            begin = max(t, free_at)
            if start is None:
                start = begin
            if self.param_cache_enabled:
                params = self._link_params.get(link.id)
                if params is None:
                    params = (
                        link.latency_s
                        if link.latency_s is not None
                        else DEFAULT_LATENCY_S,
                        link.bandwidth_bytes_per_s
                        if link.bandwidth_bytes_per_s is not None
                        else DEFAULT_BANDWIDTH_BPS,
                    )
                    self._link_params[link.id] = params
                lat, bw = params
            else:
                lat = (
                    link.latency_s
                    if link.latency_s is not None
                    else DEFAULT_LATENCY_S
                )
                bw = (
                    link.bandwidth_bytes_per_s
                    if link.bandwidth_bytes_per_s is not None
                    else DEFAULT_BANDWIDTH_BPS
                )
            hold = lat + nbytes / bw
            self._link_free_at[link.id] = begin + hold
            t = begin + hold
        assert start is not None
        return TransferEstimate(src, dst, nbytes, start, t, route)

    def _hop_params(self, link) -> tuple[float, float]:
        """``(latency_s, bandwidth_bps)`` for one hop, honoring the memo."""
        if self.param_cache_enabled:
            params = self._link_params.get(link.id)
            if params is None:
                params = (
                    link.latency_s
                    if link.latency_s is not None
                    else DEFAULT_LATENCY_S,
                    link.bandwidth_bytes_per_s
                    if link.bandwidth_bytes_per_s is not None
                    else DEFAULT_BANDWIDTH_BPS,
                )
                self._link_params[link.id] = params
            return params
        return (
            link.latency_s if link.latency_s is not None else DEFAULT_LATENCY_S,
            link.bandwidth_bytes_per_s
            if link.bandwidth_bytes_per_s is not None
            else DEFAULT_BANDWIDTH_BPS,
        )

    def link_busy_until(self, link_id: str) -> float:
        return self._link_free_at.get(link_id, 0.0)
