"""Tests for the ``ranking-facts store`` subcommands."""

import json

import pytest

from repro.app.cli import main
from repro.datasets import cs_departments
from repro.engine.jobs import LabelDesign
from repro.engine.service import LabelService
from repro.store.store import LabelStore

DESIGN = LabelDesign.create(
    weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    sensitive="DeptSizeBin",
    id_column="DeptName",
)

SHIFTED = DESIGN.with_updates(
    weights=(("PubCount", 0.7), ("Faculty", 0.1), ("GRE", 0.2))
)


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    """A store file holding two cs-departments labels."""
    path = str(tmp_path_factory.mktemp("cli-store") / "labels.db")
    table = cs_departments()
    with LabelService(store_path=path) as service:
        first = service.build_label(table, DESIGN, "CS departments")
        second = service.build_label(table, SHIFTED, "CS departments")
    return path, first.fingerprint, second.fingerprint


class TestLs:
    def test_lists_both_labels(self, seeded_store, capsys):
        path, fp_a, fp_b = seeded_store
        assert main(["store", "ls", "--path", path]) == 0
        out = capsys.readouterr().out
        assert "2 label(s)" in out
        assert fp_a[:16] in out and fp_b[:16] in out
        assert "CS departments" in out

    def test_limit(self, seeded_store, capsys):
        path, _, _ = seeded_store
        assert main(["store", "ls", "--path", path, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        # header + summary + exactly one row mentioning the dataset
        assert out.count("CS departments") == 1

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["store", "ls", "--path", str(tmp_path / "nope.db")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_no_path_no_env_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LABEL_STORE", raising=False)
        assert main(["store", "ls"]) == 2
        assert "REPRO_LABEL_STORE" in capsys.readouterr().err

    def test_env_var_names_the_store(self, seeded_store, capsys, monkeypatch):
        path, _, _ = seeded_store
        monkeypatch.setenv("REPRO_LABEL_STORE", path)
        assert main(["store", "ls"]) == 0
        assert "2 label(s)" in capsys.readouterr().out


class TestShow:
    def test_text_includes_provenance_and_label(self, seeded_store, capsys):
        path, fp_a, _ = seeded_store
        assert main(["store", "show", "--path", path, fp_a[:10]]) == 0
        out = capsys.readouterr().out
        assert f"fingerprint: {fp_a}" in out
        assert "RANKING FACTS" in out  # the rendered label rides along
        assert "vectorized" in out  # backend provenance

    def test_json_format_round_trips(self, seeded_store, capsys):
        path, fp_a, _ = seeded_store
        assert main([
            "store", "show", "--path", path, fp_a, "--format", "json",
        ]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["fingerprint"] == fp_a
        assert body["label"]["dataset"] == "CS departments"
        assert body["provenance"]["design"]["k"] == 10

    def test_unknown_prefix_fails_cleanly(self, seeded_store, capsys):
        path, _, _ = seeded_store
        assert main(["store", "show", "--path", path, "feedface"]) == 2
        assert "no stored label" in capsys.readouterr().err

    def test_non_hex_prefix_fails_cleanly(self, seeded_store, capsys):
        path, _, _ = seeded_store
        assert main(["store", "show", "--path", path, "%"]) == 2
        assert "not hex" in capsys.readouterr().err

    def test_ambiguous_prefix_lists_candidates(self, tmp_path, capsys):
        path = str(tmp_path / "twins.db")
        twins = ["ab" + "0" * 62, "ab" + "1" * 62]
        with LabelStore(path) as store:
            for fingerprint in twins:
                store.put(fingerprint, {"placeholder": fingerprint})
        for argv in (["show", "ab"], ["diff", "ab", twins[0]]):
            assert main(["store", argv[0], "--path", path, *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert "ambiguous" in err
            assert twins[0] in err and twins[1] in err
            assert "longer prefix" in err


class TestDiff:
    def test_weight_drift_reported(self, seeded_store, capsys):
        path, fp_a, fp_b = seeded_store
        assert main([
            "store", "diff", "--path", path, fp_a[:12], fp_b[:12],
        ]) == 0
        out = capsys.readouterr().out
        assert "weight PubCount: 0.4 -> 0.7" in out

    def test_diff_against_itself_is_empty(self, seeded_store, capsys):
        path, fp_a, _ = seeded_store
        assert main(["store", "diff", "--path", path, fp_a, fp_a]) == 0
        assert "no differences" in capsys.readouterr().out


class TestGc:
    def test_needs_a_bound(self, seeded_store, capsys):
        path, _, _ = seeded_store
        assert main(["store", "gc", "--path", path]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_trims_to_budget(self, tmp_path, capsys):
        # a dedicated store so the module fixture stays intact
        path = str(tmp_path / "gc.db")
        table = cs_departments()
        with LabelService(store_path=path) as service:
            service.build_label(table, DESIGN, "CS departments")
            service.build_label(table, SHIFTED, "CS departments")
        assert main(["store", "gc", "--path", path, "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted 1 label(s)" in out
        assert "1 label(s)" in out
