"""X-Repro-Trace-Id propagation: client span → header → server span."""

import http.client

import pytest

from repro.obs import spans as obs_spans
from repro.obs import Tracer, use_tracer
from repro.service import RegistryClient, ServerThread


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    obs_spans.set_tracer(None)
    yield
    obs_spans.set_tracer(None)


@pytest.fixture(scope="module")
def service():
    with ServerThread() as url:
        yield RegistryClient(url)


def _raw_get(client: RegistryClient, path: str, headers: dict):
    conn = http.client.HTTPConnection(
        client.endpoint.host, client.endpoint.port, timeout=10
    )
    try:
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        response.read()
        return response
    finally:
        conn.close()


class TestPropagation:
    def test_client_and_server_spans_share_one_trace(self, service):
        """The acceptance criterion: one registry round trip shows the
        same trace id on the client span and the server span."""
        tracer = Tracer()
        with use_tracer(tracer):
            service.health()
        spans = tracer.finished()
        client_span = next(
            s for s in spans if s.name == "registry.client.request"
        )
        server_span = next(
            s for s in spans if s.name == "registry.server.request"
        )
        assert client_span.trace_id == server_span.trace_id
        assert server_span.attributes["endpoint"] == "GET /healthz"
        assert server_span.attributes["status"] == 200

    def test_handler_work_nests_under_server_span(self, service):
        tracer = Tracer()
        with use_tracer(tracer):
            service.platforms()
        spans = tracer.finished()
        server_span = next(
            s for s in spans if s.name == "registry.server.request"
        )
        # the executor-thread handler inherits the request span's context
        children = [s for s in spans if s.parent_id == server_span.span_id]
        assert server_span.attributes["endpoint"] == "GET /platforms"
        assert all(c.trace_id == server_span.trace_id for c in children)

    def test_header_echoed_back_verbatim(self, service):
        response = _raw_get(
            service, "/healthz", {"X-Repro-Trace-Id": "cafe0123cafe0123"}
        )
        assert response.status == 200
        assert response.getheader("X-Repro-Trace-Id") == "cafe0123cafe0123"

    def test_header_echoed_on_404(self, service):
        response = _raw_get(
            service, "/definitely-not-a-route", {"X-Repro-Trace-Id": "deadbeef"}
        )
        assert response.status == 404
        assert response.getheader("X-Repro-Trace-Id") == "deadbeef"

    def test_no_header_without_caller_id_or_tracer(self, service):
        response = _raw_get(service, "/healthz", {})
        assert response.status == 200
        assert response.getheader("X-Repro-Trace-Id") is None

    def test_incoming_id_adopted_by_server_side_tracer(self, service):
        """A traced *server* adopts the caller's id even when the caller
        itself has no tracer (cross-process propagation)."""
        tracer = Tracer()
        with use_tracer(tracer):
            response = _raw_get(
                service, "/healthz", {"X-Repro-Trace-Id": "0123456789abcdef"}
            )
        assert response.getheader("X-Repro-Trace-Id") == "0123456789abcdef"
        server_span = next(
            s for s in tracer.finished() if s.name == "registry.server.request"
        )
        assert server_span.trace_id == "0123456789abcdef"

    def test_untraced_round_trip_unchanged(self, service):
        assert service.health()["status"] == "ok"
