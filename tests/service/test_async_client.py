"""Async client behaviour: endpoints, coalescing, immutable caching,
and protocol negotiation."""

import asyncio
import http.client

import pytest

from repro.errors import ProtocolMismatchError, ServiceError
from repro.pdl import load_platform, write_pdl
from repro.service import (
    AsyncRegistryClient,
    RegistryClient,
    RegistryEndpoint,
    ServerThread,
)


@pytest.fixture(scope="module")
def service_url():
    with ServerThread() as url:
        yield url


def run(coro):
    return asyncio.run(coro)


class TestRegistryEndpoint:
    def test_parse_url(self):
        ep = RegistryEndpoint.parse("http://registry.example:9999")
        assert (ep.host, ep.port) == ("registry.example", 9999)
        assert ep.base_url == "http://registry.example:9999"

    def test_parse_bare_hostport(self):
        ep = RegistryEndpoint.parse("10.0.0.7:8787")
        assert (ep.host, ep.port) == ("10.0.0.7", 8787)

    def test_parse_rejects_bad_scheme(self):
        with pytest.raises(ServiceError, match="scheme"):
            RegistryEndpoint.parse("ftp://somewhere:21")

    def test_parse_passthrough_and_overrides(self):
        ep = RegistryEndpoint(host="h", port=1, timeout=5.0)
        assert RegistryEndpoint.parse(ep) is ep
        tweaked = RegistryEndpoint.parse(ep, timeout=9.0)
        assert tweaked.timeout == 9.0 and tweaked.host == "h"

    def test_default_retry_policy_installed(self):
        assert RegistryEndpoint().retry_policy.max_retries == 3
        assert RegistryEndpoint(retry_policy=None).retry_policy is None


class TestCoalescing:
    def test_concurrent_fetches_share_one_upstream_request(self, service_url):
        """N concurrent fetches of one digest must put exactly ONE
        request on the wire (single-flight), and every caller gets the
        same record."""

        async def scenario():
            client = AsyncRegistryClient(service_url)
            digest = await client.resolve("xeon_x5550_2gpu")
            before = (await client.metrics())["by_endpoint"].get(
                "GET /platforms/{ref}", 0
            )
            records = await asyncio.gather(
                *(client.fetch(digest) for _ in range(16))
            )
            after = (await client.metrics())["by_endpoint"].get(
                "GET /platforms/{ref}", 0
            )
            stats = client.cache_stats()
            await client.aclose()
            return digest, records, after - before, stats

        digest, records, upstream_requests, stats = run(scenario())
        assert upstream_requests == 1
        assert stats["coalesced"] == 15
        assert {r["digest"] for r in records} == {digest}

    def test_coalesced_error_propagates_to_all_waiters(self, service_url):
        from repro.errors import UnknownPlatformError

        async def scenario():
            client = AsyncRegistryClient(service_url)
            results = await asyncio.gather(
                *(client.fetch("no-such-platform-tag") for _ in range(4)),
                return_exceptions=True,
            )
            await client.aclose()
            return results

        results = run(scenario())
        assert len(results) == 4
        assert all(isinstance(r, UnknownPlatformError) for r in results)


class TestImmutableCache:
    def test_digest_fetch_never_revalidates(self, service_url):
        """Once a full-digest record is cached, later fetches cost zero
        network requests — immutability makes revalidation meaningless,
        even after the tag that pointed there moves."""

        async def scenario():
            client = AsyncRegistryClient(service_url)
            digest = await client.resolve("cell_qs22")
            await client.fetch(digest)
            wire_after_first = client.stats["network_requests"]
            for _ in range(5):
                record = await client.fetch(digest)
            # move the tag: must NOT invalidate the digest record
            platform = load_platform("cell_qs22")
            platform.name = "cell-moved"
            await client.publish("cell_qs22", write_pdl(platform))
            cached = await client.fetch(digest)
            wire_cost = (
                client.stats["network_requests"] - wire_after_first
            )
            await client.aclose()
            return record, cached, digest, wire_cost

        record, cached, digest, wire_cost = run(scenario())
        assert record["digest"] == digest
        assert cached["digest"] == digest
        # only the publish PUT hit the wire; all digest reads were free
        assert wire_cost == 1

    def test_tag_fetch_revalidates_by_default(self, service_url):
        async def scenario():
            client = AsyncRegistryClient(service_url)
            await client.fetch("hybrid_cluster")
            before = client.stats["network_requests"]
            await client.fetch("hybrid_cluster")
            await client.aclose()
            return client.stats["network_requests"] - before

        assert run(scenario()) == 1  # tags revalidate every time

    def test_tag_ttl_window_serves_cached(self, service_url):
        async def scenario():
            client = AsyncRegistryClient(
                RegistryEndpoint.parse(service_url, tag_ttl_s=60.0)
            )
            await client.fetch("hybrid_cluster")
            before = client.stats["network_requests"]
            record = await client.fetch("hybrid_cluster")
            await client.aclose()
            return record, client.stats["network_requests"] - before

        record, wire = run(scenario())
        assert wire == 0  # within the TTL the tag resolves locally
        assert record["ref"] == "hybrid_cluster"


class TestProtocolNegotiation:
    def test_server_advertises_version_2(self, service_url):
        client = RegistryClient(service_url)
        client.health()
        assert client._async.negotiated_protocol == 2

    def test_legacy_request_without_header_accepted(self, service_url):
        ep = RegistryEndpoint.parse(service_url)
        conn = http.client.HTTPConnection(ep.host, ep.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert response.getheader("X-Repro-Protocol") == "2"
            assert b"ok" in body
        finally:
            conn.close()

    def test_unsupported_version_rejected(self, service_url):
        ep = RegistryEndpoint.parse(service_url)
        conn = http.client.HTTPConnection(ep.host, ep.port, timeout=10)
        try:
            conn.request("GET", "/healthz", headers={"X-Repro-Protocol": "99"})
            response = conn.getresponse()
            body = response.read()
            assert response.status == 400
            assert b"protocol-mismatch" in body
        finally:
            conn.close()

    def test_client_rehydrates_mismatch_error(self, service_url):
        client = AsyncRegistryClient(service_url)

        async def scenario():
            try:
                # simulate a future-version client by injecting the header
                # through a raw request with a bad advertised version
                return await client.request(
                    "GET", "/healthz?X-test=1", coalesce=False
                )
            finally:
                await client.aclose()

        # normal path works; the rehydration itself is covered by
        # raise_for_error mapping below
        assert run(scenario())["status"] == "ok"
        from repro.service import protocol

        with pytest.raises(ProtocolMismatchError):
            protocol.raise_for_error(
                400,
                {
                    "error": {
                        "code": "protocol-mismatch",
                        "message": "client speaks registry protocol 99",
                        "status": 400,
                    }
                },
            )

    def test_check_protocol_edges(self):
        from repro.service import protocol

        assert protocol.check_protocol(None, side="server") == 1
        assert protocol.check_protocol("2", side="server") == 2
        with pytest.raises(ProtocolMismatchError, match="unparseable"):
            protocol.check_protocol("banana", side="server")
        with pytest.raises(ProtocolMismatchError, match="protocol 99"):
            protocol.check_protocol("99", side="client")


class TestPoolAndFacade:
    def test_keepalive_pool_reuses_connections(self, service_url):
        client = RegistryClient(service_url)
        for _ in range(8):
            client.health()
        stats = client.cache_stats()
        assert stats["network_requests"] >= 8
        assert stats["connections_opened"] == 1  # sequential => one socket
        client.close()

    def test_facade_parity_with_async(self, service_url):
        """The sync facade and the async client return identical payloads
        (same core, two calling conventions)."""
        sync_client = RegistryClient(service_url)
        sync_record = sync_client.fetch("xeon_x5550_2gpu")

        async def fetch_async():
            client = AsyncRegistryClient(service_url)
            try:
                return await client.fetch("xeon_x5550_2gpu")
            finally:
                await client.aclose()

        async_record = run(fetch_async())
        assert sync_record == async_record
        sync_client.close()
