"""Tests for the CLI's ``batch`` command (the engine's CLI entry)."""

import json

import pytest

from repro.app.cli import main
from repro.datasets.loaders import dataset_by_name
from repro.engine import LabelDesign, LabelService
from repro.label.render_json import render_json
from tests.oracles import OracleTrialBackend

DESIGN = {
    "weights": {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    "sensitive": ["DeptSizeBin"],
    "id_column": "DeptName",
}


def write_spec(tmp_path, jobs):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"jobs": jobs}), encoding="utf-8")
    return spec


class TestBatchCommand:
    def test_batch_runs_and_reports(self, tmp_path, capsys):
        spec = write_spec(tmp_path, [
            {"dataset": "cs-departments", "design": DESIGN},
            {"dataset": "german-credit", "design": {
                "weights": {"credit_score": 1.0}, "sensitive": ["sex"],
                "id_column": "applicant_id",
            }},
        ])
        assert main(["batch", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "2/2 job(s) succeeded" in out
        assert "cs-departments" in out and "german-credit" in out

    def test_batch_writes_labels_and_dedupes(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            [{"dataset": "cs-departments", "design": DESIGN}] * 3,
        )
        out_dir = tmp_path / "labels"
        code = main([
            "batch", "--spec", str(spec),
            "--output-dir", str(out_dir), "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 build(s) for 3 request(s)" in out
        payloads = {
            (out_dir / f"job-{i}.json").read_text(encoding="utf-8")
            for i in range(3)
        }
        assert len(payloads) == 1  # identical designs -> identical bytes
        assert json.loads(payloads.pop())["dataset"] == "cs-departments"

    def test_batch_failure_exits_nonzero(self, tmp_path, capsys):
        spec = write_spec(tmp_path, [
            {"dataset": "no-such-dataset", "design": DESIGN},
        ])
        assert main(["batch", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "FAILED" in err and "no-such-dataset" in err

    def test_missing_spec_is_an_error(self, capsys):
        assert main(["batch", "--spec", "/nonexistent.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_spec_shape_is_an_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text('{"not_jobs": []}', encoding="utf-8")
        assert main(["batch", "--spec", str(spec)]) == 2
        assert '"jobs"' in capsys.readouterr().err

    def test_no_cache_flag_builds_every_job(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, [{"dataset": "cs-departments", "design": DESIGN}] * 2
        )
        assert main([
            "batch", "--spec", str(spec), "--no-cache", "--stats",
        ]) == 0
        assert "2 build(s) for 2 request(s)" in capsys.readouterr().out


class TestEntryPointDeclaration:
    def test_console_script_declared(self):
        # the satellite task: `ranking-facts` installs as a command
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        assert 'ranking-facts = "repro.app.cli:main"' in text


class TestTrialBackendFlag:
    MC_DESIGN = DESIGN | {
        "monte_carlo_trials": 4, "monte_carlo_epsilons": [0.1], "seed": 3,
    }

    def test_vectorized_backend_accepted_and_byte_identical(
        self, tmp_path, capsys
    ):
        spec = write_spec(
            tmp_path, [{"dataset": "cs-departments", "design": self.MC_DESIGN}]
        )
        vector_dir = tmp_path / "vectorized"
        # the scalar loop is a test oracle, no longer a backend name
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--spec", str(spec), "--trial-backend", "serial"])
        assert exit_info.value.code == 2
        assert main([
            "batch", "--spec", str(spec), "--output-dir", str(vector_dir),
            "--trial-backend", "vectorized", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "trials on the vectorized backend" in out
        with LabelService(use_cache=False, trial_backend=OracleTrialBackend()) as svc:
            oracle = svc.build_label(
                dataset_by_name("cs-departments"),
                LabelDesign.from_mapping(self.MC_DESIGN),
                "cs-departments",
            )
        vector_bytes = (vector_dir / "job-0.json").read_text(encoding="utf-8")
        assert vector_bytes == render_json(oracle.facts.label) + "\n"

    def test_unknown_backend_rejected_by_the_parser(self, tmp_path, capsys):
        spec = write_spec(tmp_path, [{"dataset": "cs-departments", "design": DESIGN}])
        with pytest.raises(SystemExit):
            main(["batch", "--spec", str(spec), "--trial-backend", "quantum"])

    def test_serve_parser_accepts_hardening_flags(self):
        from repro.app.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--dataset", "cs-departments",
            "--weight", "GRE=1.0", "--sensitive", "DeptSizeBin",
            "--trial-backend", "vectorized", "--allow-local-paths", "/data",
            "--store", "labels.db",
            "--cache-max-bytes", "1048576", "--cache-ttl", "600",
        ])
        assert args.trial_backend == "vectorized"
        assert args.allow_local_paths == "/data"
        assert args.store == "labels.db"
        assert args.cache_max_bytes == 1048576
        assert args.cache_ttl == 600.0
        defaults = build_parser().parse_args([
            "serve", "--dataset", "cs-departments",
            "--weight", "GRE=1.0", "--sensitive", "DeptSizeBin",
        ])
        assert defaults.allow_local_paths is None
        assert defaults.store is None
        assert defaults.cache_max_bytes is None
        assert defaults.cache_ttl is None
