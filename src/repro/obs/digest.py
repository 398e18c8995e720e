"""Shared numeric digests and payload fingerprints.

One home for the summary math every metrics surface uses, so
:class:`~repro.service.metrics.ServiceMetrics` and the observability
histograms (:mod:`repro.obs.metrics`) report the *same* p50/p99 shape,
and every report object (``SelectionReport``, ``LintReport``,
``RunResult``, tuning payloads, …) derives its ``fingerprint()`` from
one canonical-JSON convention.

Stdlib only — importable from the lowest layers without pulling in the
model or toolchain packages.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "percentile",
    "digest_summary",
    "fingerprint_payload",
    "fingerprint_records",
    "latency_buckets",
    "merge_buckets",
    "percentile_from_buckets",
    "merge_digest_summaries",
]


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """q-th percentile (0..100) by linear interpolation; None when empty."""
    if not samples:
        return None
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def digest_summary(
    samples: Sequence[float], *, percentiles: Iterable[int] = (50, 99)
) -> dict:
    """The canonical ``{"count", "p50", "p99", ...}`` summary block.

    The same shape ``ServiceMetrics.snapshot()`` reports for request
    latencies, so dashboards and tests treat every latency/size digest
    in the toolchain identically.
    """
    summary: dict = {"count": len(samples)}
    for q in percentiles:
        summary[f"p{q}"] = percentile(samples, q)
    return summary


#: geometric bucket grid shared by every mergeable latency digest:
#: bucket ``i`` covers ``(_BUCKET_MIN * 2**(i-1), _BUCKET_MIN * 2**i]``;
#: bucket ``0`` is everything at or below ``_BUCKET_MIN``.  ~60 buckets
#: span 1 µs .. ~13 days, plenty for any latency-shaped quantity.
_BUCKET_MIN = 1e-6
_BUCKET_MAX_INDEX = 60


def _bucket_index(value: float) -> int:
    if value <= _BUCKET_MIN:
        return 0
    index = int(math.ceil(math.log2(value / _BUCKET_MIN)))
    return min(max(index, 0), _BUCKET_MAX_INDEX)


def _bucket_mid(index: int) -> float:
    """Representative value of a bucket (geometric midpoint)."""
    if index <= 0:
        return _BUCKET_MIN
    return _BUCKET_MIN * (2.0 ** (index - 0.5))


def latency_buckets(samples: Sequence[float]) -> dict:
    """Fixed-grid geometric histogram of ``samples``.

    The grid is global (never data-dependent), which is what makes two
    histograms from different processes *mergeable* by plain per-bucket
    addition — the property percentile values themselves lack.
    Returned as ``{bucket_index_str: count}`` with only occupied buckets
    present, so the payload stays tiny and JSON-stable.
    """
    buckets: dict = {}
    for value in samples:
        key = str(_bucket_index(value))
        buckets[key] = buckets.get(key, 0) + 1
    return dict(sorted(buckets.items(), key=lambda kv: int(kv[0])))


def merge_buckets(histograms: Iterable[Mapping]) -> dict:
    """Merge per-process histograms by per-bucket addition."""
    merged: dict = {}
    for hist in histograms:
        for key, count in hist.items():
            merged[key] = merged.get(key, 0) + int(count)
    return dict(sorted(merged.items(), key=lambda kv: int(kv[0])))


def percentile_from_buckets(buckets: Mapping, q: float) -> Optional[float]:
    """q-th percentile (0..100) reconstructed from a bucket histogram.

    Resolution is one bucket (a factor of 2 on the geometric grid) —
    exact enough for p50/p99 dashboards, and crucially *correct* under
    merging, unlike any recombination of already-computed percentiles.
    """
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100]")
    total = sum(int(c) for c in buckets.values())
    if total == 0:
        return None
    rank = (q / 100.0) * total
    seen = 0
    for key in sorted(buckets, key=int):
        seen += int(buckets[key])
        if seen >= rank:
            return _bucket_mid(int(key))
    return _bucket_mid(max(int(k) for k in buckets))


def merge_digest_summaries(summaries: Sequence[Mapping]) -> dict:
    """Aggregate per-process ``digest_summary`` blocks into one.

    Percentiles do **not** average: the p99 of a union of populations is
    not the mean of per-population p99s (one hot shard's tail vanishes
    into N-1 cold shards' averages).  Every summary must therefore carry
    the ``buckets`` histogram (see :func:`latency_buckets`); the merge
    adds buckets and re-derives the percentiles from the merged
    distribution.  Raises ``ValueError`` when a summary has observations
    but no histogram — silently falling back to averaging is exactly the
    bug this function exists to prevent.
    """
    merged_count = 0
    percentile_keys: list = []
    histograms = []
    for summary in summaries:
        count = int(summary.get("count", 0))
        merged_count += count
        for key in summary:
            if key.startswith("p") and key[1:].isdigit():
                if key not in percentile_keys:
                    percentile_keys.append(key)
        if count and "buckets" not in summary:
            raise ValueError(
                "cannot merge a digest summary without its 'buckets'"
                " histogram: percentiles are not mergeable by averaging"
            )
        histograms.append(summary.get("buckets", {}))
    buckets = merge_buckets(histograms)
    out: dict = {"count": merged_count, "buckets": buckets}
    for key in percentile_keys or ["p50", "p99"]:
        out[key] = percentile_from_buckets(buckets, float(key[1:]))
    return out


def fingerprint_payload(payload: dict) -> str:
    """Stable sha256 over a JSON-serializable payload.

    Canonicalization is ``json.dumps(sort_keys=True)`` with compact
    separators — the convention ``SelectionReport.fingerprint()``
    established and every ``to_payload()``-bearing report now shares.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: records encoded per ``json.dumps`` call by :func:`fingerprint_records`
_RECORD_CHUNK = 4096


def fingerprint_records(payload: Mapping, records: Mapping[str, Iterable]) -> str:
    """:func:`fingerprint_payload` of ``payload`` plus one list per
    ``records`` entry, without building those lists or the canonical text.

    Each record iterable is encoded a chunk at a time straight into the
    hash, so a trace of a few hundred thousand records costs a chunk of
    memory instead of every record's dict plus the whole JSON string.
    The bytes hashed are exactly those of the one-shot form:
    ``json.dumps`` of a list is ``[`` + its items' encodings joined by
    ``,`` + ``]``, so chunk encodings with their brackets cut join back
    into it.
    """
    sha = hashlib.sha256()

    def feed(text: str) -> None:
        sha.update(text.encode("utf-8"))

    def dumps(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    sep = "{"
    for key in sorted([*payload, *records]):
        feed(f"{sep}{dumps(key)}:")
        sep = ","
        if key not in records:
            feed(dumps(payload[key]))
            continue
        rows = iter(records[key])
        item_sep = "["
        while chunk := list(itertools.islice(rows, _RECORD_CHUNK)):
            feed(item_sep + dumps(chunk)[1:-1])
            item_sep = ","
        feed("[]" if item_sep == "[" else "]")
    feed("{}" if sep == "{" else "}")
    return sha.hexdigest()
