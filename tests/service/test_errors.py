"""Error-path hardening: every failure crosses the wire as structured
JSON (mapped from the library's exception hierarchy), never a traceback
or a dropped connection."""

import http.client
import json

import pytest

from repro.errors import (
    PDLError,
    SelectionError,
    ServiceProtocolError,
    UnknownPlatformError,
)
from repro.service import RegistryClient, ServerThread
from repro.service.protocol import error_payload, raise_for_error


@pytest.fixture(scope="module")
def service():
    with ServerThread() as url:
        yield RegistryClient(url)


def raw_request(client, method, path, body=None, headers=None):
    """Bypass RegistryClient's error rehydration to inspect raw responses."""
    conn = http.client.HTTPConnection(
        client.endpoint.host, client.endpoint.port, timeout=10
    )
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


class TestStructuredErrors:
    def test_malformed_xml_is_422_json(self, service):
        status, body, _ = raw_request(
            service, "PUT", "/platforms/junk", body=b"<Platform><oops>"
        )
        assert status == 422
        payload = json.loads(body)
        assert payload["error"]["code"] == "pdl-error"
        assert "Traceback" not in body.decode()
        # the client raises the library exception for the same request
        with pytest.raises(PDLError):
            service.publish("junk", "<Platform><oops>")

    def test_unknown_platform_is_404(self, service):
        status, body, _ = raw_request(service, "GET", "/platforms/vax11")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "unknown-platform"
        with pytest.raises(UnknownPlatformError):
            service.fetch("vax11")

    def test_unknown_route_is_404(self, service):
        status, body, _ = raw_request(service, "GET", "/nonsense")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-found"

    def test_wrong_method_is_405(self, service):
        status, body, _ = raw_request(service, "DELETE", "/preselect")
        assert status == 405
        assert json.loads(body)["error"]["code"] == "method-not-allowed"

    def test_bad_json_body_is_400(self, service):
        status, body, _ = raw_request(
            service, "POST", "/preselect", body=b"this is not json"
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-request"

    def test_missing_fields_is_400(self, service):
        status, body, _ = raw_request(service, "POST", "/diff", body=b"{}")
        assert status == 400
        status, body, _ = raw_request(
            service, "POST", "/preselect", body=b'{"platform": "x"}'
        )
        assert status == 400

    def test_selection_error_is_422(self, service):
        # a program whose only variant is SPE cannot run on the GPU box
        program = (
            "#pragma cascabel task : cellsdk : Ifft : fft_spe : (x: readwrite)\n"
            "void fft(double *x) { }\n"
        )
        status, body, _ = raw_request(
            service,
            "POST",
            "/preselect",
            body=json.dumps(
                {"platform": "xeon_x5550_2gpu", "program": program}
            ).encode(),
        )
        assert status == 422
        payload = json.loads(body)
        assert payload["error"]["code"] == "selection-error"
        with pytest.raises(SelectionError):
            service.preselect("xeon_x5550_2gpu", program)

    def test_malformed_pragma_is_422(self, service):
        status, body, _ = raw_request(
            service,
            "POST",
            "/preselect",
            body=json.dumps(
                {
                    "platform": "xeon_x5550_2gpu",
                    "program": "#pragma cascabel task : : :\nvoid f() { }\n",
                }
            ).encode(),
        )
        assert status == 422
        assert json.loads(body)["error"]["code"] in (
            "cascabel-error",
            "repro-error",
        )

    def test_query_error_is_422(self, service):
        status, body, _ = raw_request(
            service, "GET", "/platforms/xeon_x5550_2gpu/query?selector=%5B%5Bbad"
        )
        assert status == 422
        assert json.loads(body)["error"]["code"] == "query-error"

    def test_empty_publish_body_is_400(self, service):
        status, body, _ = raw_request(service, "PUT", "/platforms/empty")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-request"


class TestProtocolLevel:
    def test_malformed_request_line_gets_400_not_drop(self, service):
        import socket

        with socket.create_connection(
            (service.endpoint.host, service.endpoint.port), timeout=10
        ) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            data = sock.recv(65536)
        assert data.startswith(b"HTTP/1.1 400")
        assert b'"bad-request"' in data

    def test_oversized_body_rejected(self, service):
        status, body, _ = raw_request(
            service,
            "PUT",
            "/platforms/huge",
            body=b"x",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        assert status == 400

    def test_error_mapping_table(self):
        status, payload = error_payload(UnknownPlatformError("nope"))
        assert (status, payload["error"]["code"]) == (404, "unknown-platform")
        status, payload = error_payload(ValueError("secret internals"))
        assert status == 500
        assert "secret" not in json.dumps(payload)  # internals never leak

    def test_raise_for_error_roundtrip(self):
        for exc in (
            UnknownPlatformError("x"),
            PDLError("y"),
            SelectionError("z"),
            ServiceProtocolError("w"),
        ):
            status, payload = error_payload(exc)
            with pytest.raises(type(exc)):
                raise_for_error(status, payload)

    def test_raise_for_error_passes_success(self):
        raise_for_error(200, {"ok": True})  # must not raise
