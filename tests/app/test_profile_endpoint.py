"""Tests for the server's profiling surface: /debug/profile, /profiles,
the /engine/stats profiles+resources blocks, and profile-linked traces."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.app import DemoSession
from repro.app.server import make_server
from repro.engine.service import LabelService


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    store_path = tmp_path_factory.mktemp("profile-server") / "labels.db"
    session = DemoSession(service=LabelService(store_path=str(store_path)))
    session.load_builtin("cs-departments")
    session.set_monte_carlo(20)
    session.design_scoring(
        weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
        sensitive_attribute="DeptSizeBin",
        id_column="DeptName",
    )
    with make_server(session, profile=True, trace_slow_threshold=0.0) as handle:
        yield handle


def get(handle, path):
    with urllib.request.urlopen(handle.url + path, timeout=30) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


class TestDebugProfile:
    def test_json_window(self, served):
        # sample while another request is in flight so stacks exist
        noise = threading.Thread(
            target=lambda: get(served, "/label?format=json"), daemon=True
        )
        noise.start()
        status, content_type, body = get(
            served, "/debug/profile?seconds=0.4&hz=200&format=json"
        )
        noise.join()
        assert status == 200
        assert "application/json" in content_type
        payload = json.loads(body)
        assert payload["source"] == "server"
        assert payload["hz"] == 200
        assert payload["samples"] > 0
        assert payload["stacks"]
        assert "spans" in payload

    def test_collapsed_window(self, served):
        status, content_type, body = get(
            served, "/debug/profile?seconds=0.2&format=collapsed"
        )
        assert status == 200
        assert "text/plain" in content_type
        for line in body.decode().strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_bad_parameters_rejected(self, served):
        for query in ("seconds=nope", "format=flame", "hz=abc"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(served, f"/debug/profile?seconds=0.1&{query}")
            assert excinfo.value.code == 400

    def test_archive_persists_a_capture(self, served):
        _, _, body = get(
            served, "/debug/profile?seconds=0.2&format=json&archive=1"
        )
        payload = json.loads(body)
        profile_id = payload["profile_id"]
        status, _, body = get(served, f"/profiles/{profile_id}")
        assert status == 200
        record = json.loads(body)
        assert record["profile_id"] == profile_id
        assert record["report"]["samples"] == payload["samples"]

    def test_profiles_listing(self, served):
        get(served, "/debug/profile?seconds=0.1&format=json&archive=1")
        status, _, body = get(served, "/profiles?limit=10")
        assert status == 200
        listing = json.loads(body)
        assert listing["count"] >= 1
        assert all("payload" not in row for row in listing["profiles"])

    def test_unknown_profile_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(served, "/profiles/feedfeed")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("route", ["/profiles", "/traces"])
    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_out_of_range_limit_is_a_400(self, served, route, limit):
        # SQLite reads LIMIT -1 as "no limit": it must never get there
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(served, f"{route}?limit={limit}")
        assert excinfo.value.code == 400
        assert "limit" in json.loads(excinfo.value.read())["error"]


class TestStatsBlocks:
    def test_engine_stats_has_profiles_and_resources(self, served):
        _, _, body = get(served, "/engine/stats")
        stats = json.loads(body)
        profiler = stats["profiles"]["profiler"]
        assert profiler["running"] is True
        assert profiler["continuous"] is not None
        resources = stats["resources"]
        assert resources["threads"] >= 1
        assert resources["cpu_seconds"] >= 0.0
        assert "gc" in resources

    def test_metrics_export_process_families(self, served):
        _, _, body = get(served, "/metrics")
        text = body.decode()
        assert "repro_process_cpu_seconds" in text
        assert "repro_process_threads" in text
        assert "repro_process_gc_pauses" in text


class TestTraceLinking:
    def test_slow_trace_carries_a_linked_profile(self, served):
        # threshold 0.0: every archived trace counts as slow and gets
        # the continuous window rotated in behind it
        get(served, "/label?format=json")
        _, _, body = get(served, "/traces?limit=20")
        rows = json.loads(body)["traces"]
        assert rows
        linked = None
        for row in rows:
            _, _, detail_body = get(served, "/traces/" + row["trace_id"])
            detail = json.loads(detail_body)
            if detail.get("profile"):
                linked = detail
                break
        assert linked is not None
        assert linked["profile"]["samples"] > 0
        assert linked["profile_id"]
