"""Tests for GET /metrics and the server's HTTP request telemetry."""

import contextlib
import re
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.app import server as server_module
from repro.app.server import make_server
from repro.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    is_trace_id,
)

_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@pytest.fixture(scope="module")
def served():
    # a module-private registry keeps the assertions below independent
    # of whatever other test modules did to the process-wide default
    with make_server(metrics_registry=MetricsRegistry()) as handle:
        yield handle


def fetch(handle, path, headers=None):
    request = urllib.request.Request(handle.url + path, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


def request_samples(text, family="repro_http_requests_total"):
    """``(labels, value)`` for each series of ``family`` in the page."""
    samples = []
    for line in text.splitlines():
        if not line.startswith(family + "{"):
            continue
        labeled, _, value = line.rpartition(" ")
        samples.append((dict(_LABEL.findall(labeled)), float(value)))
    return samples


def get_until_closed(handle, path):
    """GET ``path`` with ``Connection: close`` and read until EOF.

    The server counts a request before it writes the response and
    only then closes the connection, so once this read hits EOF the
    request is in every later ``/metrics`` scrape.
    """
    host, port = handle.address
    request = (
        f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        "Connection: close\r\n\r\n"
    )
    response = b""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request.encode("ascii"))
        while chunk := sock.recv(65536):
            response += chunk
    assert response.startswith(b"HTTP/1.1 200 "), response[:80]


class TestMetricsEndpoint:
    def test_scrape_returns_prometheus_exposition_text(self, served):
        get_until_closed(served, "/health")  # mint at least one request sample
        status, headers, body = fetch(served, "/metrics")
        text = body.decode("utf-8")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_http_inflight_requests gauge" in text
        assert "repro_http_request_seconds_bucket" in text
        health = [
            labels
            for labels, _ in request_samples(text)
            if labels.get("route") == "/health"
        ]
        assert health and all(
            labels["method"] == "GET" and labels["status"] == "200"
            for labels in health
        )

    def test_request_counters_are_monotone_across_scrapes(self, served):
        def health_count():
            _, _, body = fetch(served, "/metrics")
            return sum(
                value
                for labels, value in request_samples(body.decode("utf-8"))
                if labels.get("route") == "/health"
            )

        get_until_closed(served, "/health")
        before = health_count()
        assert before >= 1
        get_until_closed(served, "/health")
        get_until_closed(served, "/health")
        assert health_count() == before + 2

    def test_every_response_carries_a_trace_id(self, served):
        _, headers, _ = fetch(served, "/health")
        assert is_trace_id(headers["X-Trace-Id"])

    def test_a_valid_client_trace_id_is_adopted(self, served):
        trace = "ab" * 16
        _, headers, _ = fetch(served, "/health", {"X-Trace-Id": trace})
        assert headers["X-Trace-Id"] == trace

    def test_a_malformed_client_trace_id_is_replaced(self, served):
        _, headers, _ = fetch(served, "/health", {"X-Trace-Id": "nonsense"})
        assert is_trace_id(headers["X-Trace-Id"])
        assert headers["X-Trace-Id"] != "nonsense"

    def test_routes_are_templated_not_raw_paths(self, served):
        # attacker-controlled path segments must not mint new series
        for token in ("tok-one", "tok-two"):
            with contextlib.suppress(urllib.error.HTTPError):
                fetch(served, f"/session/{token}/label")
        for path in ("/no-such-page", "/another-miss"):
            with contextlib.suppress(urllib.error.HTTPError):
                fetch(served, path)
        _, _, body = fetch(served, "/metrics")
        routes = {
            labels["route"]
            for labels, _ in request_samples(body.decode("utf-8"))
        }
        assert "/session/{token}/label" in routes
        assert "{unknown}" in routes
        assert not any("tok-one" in route for route in routes)
        assert not any("no-such-page" in route for route in routes)


class TestRequestCountedBeforeResponse:
    def test_scrape_right_after_a_response_sees_it(self, monkeypatch):
        original = server_module._RankingFactsHandler._send_bytes

        def linger_after_write(handler, status, content_type, body):
            original(handler, status, content_type, body)
            if handler.path == "/health":
                time.sleep(0.5)  # the handler is still busy after the write

        monkeypatch.setattr(
            server_module._RankingFactsHandler, "_send_bytes", linger_after_write
        )
        with make_server(metrics_registry=MetricsRegistry()) as handle:
            fetch(handle, "/health")
            _, _, body = fetch(handle, "/metrics")
        health = [
            value
            for labels, value in request_samples(body.decode("utf-8"))
            if labels.get("route") == "/health"
        ]
        assert health == [1.0]
