"""Tests for the demo HTTP server (ephemeral port, real requests)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.app import DemoSession
from repro.app.server import make_server
from repro.errors import EngineError, RankingFactsError


@pytest.fixture(scope="module")
def served():
    session = DemoSession()
    session.load_builtin("cs-departments")
    session.design_scoring(
        weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
        sensitive_attribute="DeptSizeBin",
        id_column="DeptName",
    )
    with make_server(session) as handle:
        yield handle


def get(handle, path):
    with urllib.request.urlopen(handle.url + path, timeout=10) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def post(handle, path, body):
    request = urllib.request.Request(
        handle.url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestRoutes:
    def test_landing_page(self, served):
        status, content_type, body = get(served, "/")
        assert status == 200
        assert "text/html" in content_type
        assert b"Ranking Facts" in body

    def test_health(self, served):
        status, _, body = get(served, "/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_datasets(self, served):
        _, _, body = get(served, "/datasets")
        assert "compas" in json.loads(body)["datasets"]

    def test_label_json(self, served):
        status, content_type, body = get(served, "/label")
        assert status == 200
        assert "application/json" in content_type
        data = json.loads(body)
        assert data["dataset"] == "cs-departments"
        assert data["fairness"]["verdicts"]["DeptSizeBin=small"]["FA*IR"] == "unfair"

    def test_label_html(self, served):
        status, content_type, body = get(served, "/label.html")
        assert status == 200
        assert "text/html" in content_type
        assert body.startswith(b"<!DOCTYPE html>")

    def test_preview(self, served):
        _, _, body = get(served, "/preview")
        preview = json.loads(body)["preview"]
        assert len(preview) == 10
        assert preview[0]["rank"] == 1

    def test_unknown_path_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(served, "/nope")
        assert excinfo.value.code == 404
        assert "unknown path" in json.loads(excinfo.value.read())["error"]

    def test_query_strings_ignored(self, served):
        status, _, _ = get(served, "/health?probe=1")
        assert status == 200


class TestPostEndpoints:
    @pytest.fixture()
    def fresh(self):
        session = DemoSession()
        session.load_builtin("cs-departments")
        session.design_scoring(
            weights={"GRE": 1.0}, sensitive_attribute="DeptSizeBin",
            id_column="DeptName",
        )
        with make_server(session) as handle:
            yield handle

    def test_attributes_endpoint(self, fresh):
        status, _, body = get(fresh, "/attributes")
        assert status == 200
        names = {entry["name"] for entry in json.loads(body)["attributes"]}
        assert "GRE" in names and "Region" in names

    def test_redesign_changes_the_label(self, fresh):
        _, _, before = get(fresh, "/label")
        status, reply = post(fresh, "/design", {
            "weights": {"PubCount": 0.5, "Faculty": 0.5},
            "sensitive": "DeptSizeBin",
            "id_column": "DeptName",
        })
        assert status == 200 and reply["ok"]
        _, _, after = get(fresh, "/label")
        before_weights = json.loads(before)["recipe"]["weights"]
        after_weights = json.loads(after)["recipe"]["weights"]
        assert "GRE" in before_weights
        assert set(after_weights) == {"PubCount", "Faculty"}

    def test_switch_dataset(self, fresh):
        status, reply = post(fresh, "/dataset", {"name": "german-credit"})
        assert status == 200 and reply["dataset"] == "german-credit"
        # a new dataset resets the design: /label now fails cleanly
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(fresh, "/label")
        assert excinfo.value.code == 400

    def test_design_validation_errors_are_400(self, fresh):
        for body in (
            {},  # no weights
            {"weights": {"GRE": 1.0}},  # no sensitive
            {"weights": {"zz": 1.0}, "sensitive": "DeptSizeBin"},  # bad attr
        ):
            request = urllib.request.Request(
                fresh.url + "/design",
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_non_numeric_design_values_are_400_not_500(self, fresh):
        """Regression: these used to hit the defensive 500 boundary."""
        for body in (
            {"weights": {"GRE": "abc"}, "sensitive": "DeptSizeBin"},
            {"weights": {"GRE": None}, "sensitive": "DeptSizeBin"},
            {"weights": {"GRE": 1.0}, "sensitive": "DeptSizeBin", "k": "ten"},
            {"weights": {"GRE": 1.0}, "sensitive": "DeptSizeBin", "k": [5]},
            {"weights": {"GRE": 1.0}, "sensitive": "DeptSizeBin", "alpha": "tiny"},
            {"weights": {"GRE": 1.0}, "sensitive": "DeptSizeBin", "alpha": {}},
        ):
            request = urllib.request.Request(
                fresh.url + "/design",
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert "bad design" in error
            assert "internal error" not in error

    def test_unknown_post_path(self, fresh):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(fresh, "/nope", {})
        assert excinfo.value.code == 404

    def test_raw_design_over_http(self, fresh):
        status, _ = post(fresh, "/design", {
            "weights": {"PubCount": 1.0},
            "sensitive": ["DeptSizeBin"],
            "id_column": "DeptName",
            "normalize": False,
            "k": 5,
        })
        assert status == 200
        _, _, body = get(fresh, "/label")
        label = json.loads(body)
        assert label["k"] == 5
        assert label["recipe"]["normalization"]["PubCount"] == "identity"


class TestTrialBackendEnv:
    def test_env_var_selects_the_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIAL_BACKEND", "vectorized")
        with make_server() as handle:
            executor = handle.registry.service.stats()["executor"]
            assert executor["trial_backend"] == "vectorized"
            assert executor["trial_backend_effective"] == "vectorized"
        # the scalar loop is a test oracle, no longer a backend name
        monkeypatch.setenv("REPRO_TRIAL_BACKEND", "serial")
        with pytest.raises(EngineError, match="unknown trial backend 'serial'"):
            make_server()

    def test_unknown_env_backend_fails_at_startup(self, monkeypatch):
        for name in ("quantum", "thread", "process"):
            monkeypatch.setenv("REPRO_TRIAL_BACKEND", name)
            with pytest.raises(EngineError, match="unknown trial backend"):
                make_server()

    def test_bound_session_service_wins_over_env(self, served, monkeypatch):
        # the default session brought its own service; the env var only
        # applies when the server builds the service itself
        monkeypatch.setenv("REPRO_TRIAL_BACKEND", "quantum")
        status, _, _ = get(served, "/engine/stats")
        assert status == 200


class TestServerLifecycle:
    def test_empty_session_rejected(self):
        with pytest.raises(RankingFactsError, match="no dataset"):
            make_server(DemoSession())

    def test_label_generated_lazily(self):
        session = DemoSession()
        session.load_builtin("german-credit")
        session.design_scoring(
            weights={"credit_score": 1.0},
            sensitive_attribute="sex",
            id_column="applicant_id",
        )
        with make_server(session) as handle:
            _, _, body = get(handle, "/label")
            assert json.loads(body)["dataset"] == "german-credit"

    def test_two_servers_coexist(self, served):
        session = DemoSession()
        session.load_builtin("cs-departments")
        session.design_scoring(
            weights={"GRE": 1.0}, sensitive_attribute="DeptSizeBin",
            id_column="DeptName",
        )
        with make_server(session) as other:
            assert other.address[1] != served.address[1]
            status, _, _ = get(other, "/health")
            assert status == 200


class TestCacheBoundsWiring:
    """serve --cache-max-bytes/--cache-ttl must reach /engine/stats."""

    def test_flags_surface_in_engine_stats(self):
        with make_server(cache_max_bytes=1 << 20, cache_ttl=900.0) as handle:
            _, _, body = get(handle, "/engine/stats")
            cache = json.loads(body)["cache"]
            assert cache["max_bytes"] == 1 << 20
            assert cache["ttl"] == 900.0

    def test_env_vars_apply_when_flags_absent(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "2048")
        monkeypatch.setenv("REPRO_CACHE_TTL", "30.5")
        with make_server() as handle:
            _, _, body = get(handle, "/engine/stats")
            cache = json.loads(body)["cache"]
            assert cache["max_bytes"] == 2048
            assert cache["ttl"] == 30.5

    def test_unbounded_by_default(self):
        with make_server() as handle:
            _, _, body = get(handle, "/engine/stats")
            cache = json.loads(body)["cache"]
            assert cache["max_bytes"] is None
            assert cache["ttl"] is None
