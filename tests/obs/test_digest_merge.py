"""Mergeable latency digests: histogram addition, pooled percentiles,
and the averaging bug :func:`merge_digest_summaries` exists to prevent."""

import pytest

from repro.obs.digest import (
    digest_summary,
    latency_buckets,
    merge_buckets,
    merge_digest_summaries,
    percentile,
    percentile_from_buckets,
)

# two shards with very different latency populations: a big fast one and
# a small slow one — the shape where averaging percentiles goes wrong
FAST = [0.001 + 0.00001 * i for i in range(1000)]
SLOW = [1.0 + 0.01 * i for i in range(10)]


def summary_with_buckets(samples):
    return {**digest_summary(samples), "buckets": latency_buckets(samples)}


class TestBuckets:
    def test_merge_adds_counts(self):
        merged = merge_buckets([latency_buckets(FAST), latency_buckets(SLOW)])
        assert sum(merged.values()) == len(FAST) + len(SLOW)

    def test_percentile_from_buckets_tracks_exact(self):
        """Bucket-derived percentiles stay within the grid's resolution
        (geometric buckets of factor 2 => at most ~2x off, usually much
        closer) of the exact sample percentile."""
        for samples in (FAST, SLOW, FAST + SLOW):
            buckets = latency_buckets(samples)
            for q in (50, 99):
                exact = percentile(samples, q)
                approx = percentile_from_buckets(buckets, q)
                assert exact / 2 <= approx <= exact * 2, (q, exact, approx)

    def test_empty_histogram_has_no_percentile(self):
        assert percentile_from_buckets({}, 99) is None


class TestMergeSummaries:
    def test_merge_pools_not_averages(self):
        """p99 of the union is NOT the mean of per-shard p99s.  Here 1000
        fast samples dilute 10 slow ones below the 99th percentile, so
        the pooled p99 is fast-bucket-sized; the naive average would be
        dominated by the slow shard's ~1s tail."""
        merged = merge_digest_summaries(
            [summary_with_buckets(FAST), summary_with_buckets(SLOW)]
        )
        assert merged["count"] == len(FAST) + len(SLOW)
        pooled_exact = percentile(FAST + SLOW, 99)
        naive_average = (percentile(FAST, 99) + percentile(SLOW, 99)) / 2
        assert pooled_exact / 2 <= merged["p99"] <= pooled_exact * 2
        # the averaged value is off by orders of magnitude, the merged
        # one is not — this is the whole point of shipping buckets
        assert naive_average > 10 * merged["p99"]

    def test_merge_rejects_summary_without_buckets(self):
        with pytest.raises(ValueError, match="buckets"):
            merge_digest_summaries(
                [summary_with_buckets(FAST), digest_summary(SLOW)]
            )

    def test_empty_summaries_merge_cleanly(self):
        merged = merge_digest_summaries(
            [{"count": 0, "p50": None, "p99": None}, summary_with_buckets(SLOW)]
        )
        assert merged["count"] == len(SLOW)
        assert merged["p99"] is not None

