"""The HTTP archive routes and the restart warm-hit contract.

These are the acceptance tests for the durable store's server face:
``GET /labels`` (+ fingerprint and diff forms) against a real server,
and a server "restart" — a second ``make_server`` over the same store
file — whose first label fetch must be an L2 hit serving byte-identical
label JSON.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.app.server import make_server
from repro.store.store import LabelStore

DESIGN = {
    "weights": {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    "sensitive": ["DeptSizeBin"],
    "id_column": "DeptName",
    "monte_carlo_trials": 5,
    "monte_carlo_epsilons": [0.1],
}

SHIFTED_DESIGN = {**DESIGN, "weights": {"PubCount": 0.7, "Faculty": 0.1, "GRE": 0.2}}


def get(handle, path):
    with urllib.request.urlopen(handle.url + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(handle, path, body):
    request = urllib.request.Request(
        handle.url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def run_job(handle, design):
    """Submit one cs-departments job and wait for it; returns the row."""
    _, reply = post(handle, "/jobs", {
        "jobs": [{"dataset": "cs-departments", "design": design}],
    })
    import time

    deadline = time.time() + 30
    while time.time() < deadline:
        _, status = get(handle, f"/jobs/{reply['batch_id']}")
        if status["done"]:
            return status["jobs"][0]
        time.sleep(0.05)
    raise AssertionError("batch did not finish in time")


@pytest.fixture()
def stored(tmp_path):
    """A server with a store that has two labels archived."""
    path = str(tmp_path / "labels.db")
    with make_server(store_path=path) as handle:
        first = run_job(handle, DESIGN)
        second = run_job(handle, SHIFTED_DESIGN)
        yield handle, path, first["fingerprint"], second["fingerprint"]


class TestArchiveRoutes:
    def test_listing(self, stored):
        handle, _, fp_a, fp_b = stored
        _, body = get(handle, "/labels")
        assert body["count"] == 2
        assert {row["fingerprint"] for row in body["labels"]} == {fp_a, fp_b}
        assert all(
            row["dataset_name"] == "cs-departments" for row in body["labels"]
        )

    def test_single_label_with_provenance(self, stored):
        handle, _, fp_a, _ = stored
        _, body = get(handle, f"/labels/{fp_a}")
        assert body["fingerprint"] == fp_a
        assert body["label"]["dataset"] == "cs-departments"
        assert body["provenance"]["dataset_name"] == "cs-departments"
        assert body["provenance"]["monte_carlo_trials"] == 5

    def test_prefix_lookup(self, stored):
        handle, _, fp_a, _ = stored
        _, body = get(handle, f"/labels/{fp_a[:12]}")
        assert body["fingerprint"] == fp_a

    def test_unknown_fingerprint_404(self, stored):
        handle, _, _, _ = stored
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(handle, "/labels/feedfacefeedface")
        assert excinfo.value.code == 404

    def test_ambiguous_prefix_404_lists_matches(self, stored):
        handle, path, _, _ = stored
        twins = ["abcd" + "0" * 60, "abcd" + "1" * 60]
        with LabelStore(path) as store:  # a second writer on the same file
            for fingerprint in twins:
                store.put(fingerprint, {"placeholder": fingerprint})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(handle, "/labels/abcd")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert "ambiguous" in body["error"]
        assert sorted(body["matches"]) == twins

    def test_listing_limit(self, stored):
        handle, _, _, _ = stored
        _, body = get(handle, "/labels?limit=1")
        assert body["count"] == 1
        for bad in ("-1", "0", "many"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(handle, f"/labels?limit={bad}")
            assert excinfo.value.code == 400

    def test_diff_reports_weight_drift(self, stored):
        handle, _, fp_a, fp_b = stored
        _, body = get(handle, f"/labels/{fp_a}/diff/{fp_b}")
        assert body["before"] == fp_a and body["after"] == fp_b
        assert body["diff"]["weight_changes"]["PubCount"] == [0.4, 0.7]
        assert any("weight PubCount" in line for line in body["summary"])

    def test_no_store_is_a_clear_400(self):
        with make_server() as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(handle, "/labels")
            assert excinfo.value.code == 400
            assert "--store" in json.loads(excinfo.value.read())["error"]


class TestRestartWarmHit:
    def test_second_server_serves_the_stored_label_from_l2(self, tmp_path):
        path = str(tmp_path / "labels.db")
        with make_server(store_path=path) as handle:
            first_row = run_job(handle, DESIGN)
            assert first_row["cached"] is False
            _, first_label = get(handle, f"/labels/{first_row['fingerprint']}")

        # restart: a fresh server process-equivalent on the same file
        with make_server(store_path=path) as reborn:
            # counts are per process, so the first server's build is in
            # them: compare across the reborn server's lifetime
            _, born = get(reborn, "/engine/stats")
            row = run_job(reborn, DESIGN)
            assert row["fingerprint"] == first_row["fingerprint"]
            assert row["cached"] is True  # no rebuild happened
            _, stats = get(reborn, "/engine/stats")
            assert stats["tiers"]["l2_hits"] == born["tiers"]["l2_hits"] + 1
            assert stats["tiers"]["promotions"] == born["tiers"]["promotions"] + 1
            assert stats["tiers"]["builds"] == born["tiers"]["builds"]
            assert stats["service"]["builds"] == born["service"]["builds"]
            # the archived label is byte-identical JSON across restarts
            _, second_label = get(reborn, f"/labels/{row['fingerprint']}")
            assert second_label["label"] == first_label["label"]

    def test_stats_expose_all_tier_counters(self, stored):
        handle, _, _, _ = stored
        _, stats = get(handle, "/engine/stats")
        tiers = stats["tiers"]
        for counter in (
            "l1_hits", "l1_misses", "l2_hits", "l2_misses",
            "promotions", "builds", "writes",
        ):
            assert counter in tiers
        assert stats["store"]["labels"] == 2
        assert stats["store"]["puts"] == 2
