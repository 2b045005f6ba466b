"""Tests for the ranking-facts CLI."""

import json

import pytest

from repro.app.cli import main
from repro.tabular import write_csv

CS_ARGS = [
    "--dataset", "cs-departments",
    "--weight", "PubCount=0.4",
    "--weight", "Faculty=0.4",
    "--weight", "GRE=0.2",
    "--sensitive", "DeptSizeBin",
    "--id-column", "DeptName",
]


class TestDatasets:
    def test_lists_builtins(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cs-departments" in out and "compas" in out


class TestInspect:
    def test_overview(self, capsys):
        assert main(["inspect", "--dataset", "cs-departments"]) == 0
        out = capsys.readouterr().out
        assert "GRE" in out and "categorical" in out

    def test_histogram_flag(self, capsys):
        code = main(
            ["inspect", "--dataset", "cs-departments", "--histogram", "GRE"]
        )
        assert code == 0
        assert "GRE (n=51)" in capsys.readouterr().out

    def test_csv_source(self, tmp_path, cs_table, capsys):
        path = tmp_path / "cs.csv"
        write_csv(cs_table, path)
        assert main(["inspect", "--csv", str(path)]) == 0
        assert "PubCount" in capsys.readouterr().out

    def test_unknown_dataset_fails_cleanly(self, capsys):
        assert main(["inspect", "--dataset", "imagenet"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPreview:
    def test_prints_ranked_rows(self, capsys):
        assert main(["preview", *CS_ARGS, "--rows", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["rank", "score", "item"]
        assert len(out) == 6

    def test_bad_weight_syntax(self, capsys):
        code = main(["preview", "--dataset", "cs-departments",
                     "--weight", "PubCount", "--sensitive", "DeptSizeBin"])
        assert code == 2
        assert "name=value" in capsys.readouterr().err

    def test_non_numeric_weight(self, capsys):
        code = main(["preview", "--dataset", "cs-departments",
                     "--weight", "PubCount=abc", "--sensitive", "DeptSizeBin"])
        assert code == 2


class TestLabel:
    def test_text_format(self, capsys):
        assert main(["label", *CS_ARGS]) == 0
        out = capsys.readouterr().out
        assert "RANKING FACTS" in out and "Fairness" in out

    def test_detailed_format(self, capsys):
        assert main(["label", *CS_ARGS, "--format", "detailed"]) == 0
        assert "median" in capsys.readouterr().out

    def test_json_format_is_valid(self, capsys):
        assert main(["label", *CS_ARGS, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dataset"] == "cs-departments"

    def test_html_format(self, capsys):
        assert main(["label", *CS_ARGS, "--format", "html"]) == 0
        assert capsys.readouterr().out.startswith("<!DOCTYPE html>")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "label.json"
        code = main(["label", *CS_ARGS, "--format", "json",
                     "--output", str(target)])
        assert code == 0
        assert "wrote json label" in capsys.readouterr().out
        json.loads(target.read_text())

    def test_raw_flag(self, capsys):
        assert main(["label", *CS_ARGS, "--raw"]) == 0
        assert "identity" in capsys.readouterr().out

    def test_diversity_flag(self, capsys):
        assert main(["label", *CS_ARGS, "--diversity", "Region"]) == 0
        assert "Region" in capsys.readouterr().out

    def test_top_k_and_alpha(self, capsys):
        assert main(["label", *CS_ARGS, "--top-k", "5", "--alpha", "0.01"]) == 0
        assert "top-k: 5" in capsys.readouterr().out

    def test_missing_sensitive_fails(self, capsys):
        code = main(["label", "--dataset", "cs-departments",
                     "--weight", "GRE=1.0"])
        assert code == 2


class TestMitigate:
    def test_suggests_recipes(self, capsys):
        code = main(["mitigate", *CS_ARGS, "--protected", "small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass FA*IR" in out
        assert "GRE=" in out  # suggested recipes shift weight to GRE

    def test_suggestion_count_respected(self, capsys):
        code = main(["mitigate", *CS_ARGS, "--protected", "small",
                     "--suggestions", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "  1. " in out
        assert "  2. " not in out

    def test_unknown_protected_category_fails(self, capsys):
        code = main(["mitigate", *CS_ARGS, "--protected", "tiny"])
        assert code == 2


class TestMarkdownFormat:
    def test_markdown_label(self, capsys):
        assert main(["label", *CS_ARGS, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Ranking Facts")
        assert "| attribute | weight |" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_dataset_and_csv_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["inspect", "--dataset", "compas", "--csv", "x.csv"])


class TestWorkerCommand:
    """The worker daemon subcommand and the remote backend's CLI plumbing."""

    def test_worker_parser_defaults(self):
        from repro.app.cli import build_parser

        args = build_parser().parse_args(["worker"])
        assert args.command == "worker"
        assert args.port == 8101
        assert not hasattr(args, "backend")  # chunks always run vectorized

    def test_worker_refuses_remote_backend_choice(self):
        with pytest.raises(SystemExit):
            main(["worker", "--backend", "remote"])

    def test_workers_from_requires_remote_backend(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({"jobs": [{"dataset": "compas", "design": {
            "weights": {"age": 1.0}, "sensitive": ["race"],
        }}]}))
        code = main([
            "batch", "--spec", str(spec),
            "--trial-backend", "vectorized", "--workers-from", "env",
        ])
        assert code == 2
        assert "--trial-backend remote" in capsys.readouterr().err

    def test_workers_from_env_requires_the_variable(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRIAL_WORKERS", raising=False)
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({"jobs": [{"dataset": "compas", "design": {
            "weights": {"age": 1.0}, "sensitive": ["race"],
        }}]}))
        code = main([
            "batch", "--spec", str(spec),
            "--trial-backend", "remote", "--workers-from", "env",
        ])
        assert code == 2
        assert "REPRO_TRIAL_WORKERS" in capsys.readouterr().err

    def test_workers_from_missing_file_fails_cleanly(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({"jobs": [{"dataset": "compas", "design": {
            "weights": {"age": 1.0}, "sensitive": ["race"],
        }}]}))
        code = main([
            "batch", "--spec", str(spec),
            "--trial-backend", "remote",
            "--workers-from", str(tmp_path / "nope.txt"),
        ])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_batch_runs_on_a_real_cluster_from_a_workers_file(
        self, tmp_path, capsys
    ):
        from repro.cluster.worker import make_worker

        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({"jobs": [{
            "dataset": "cs-departments",
            "design": {
                "weights": {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
                "sensitive": ["DeptSizeBin"],
                "id_column": "DeptName",
                "monte_carlo_trials": 4,
                "monte_carlo_epsilons": [0.1],
            },
        }]}))
        with make_worker() as one, make_worker() as two:
            workers = tmp_path / "workers.txt"
            workers.write_text(f"{one.address}\n{two.address}\n")
            code = main([
                "batch", "--spec", str(spec), "--stats",
                "--trial-backend", "remote", "--workers-from", str(workers),
            ])
            out = capsys.readouterr().out
        assert code == 0
        assert "1/1 job(s) succeeded" in out
        assert "remote" in out

    def test_removed_backends_and_worker_count_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps(BATCH_SPEC))
        for argv in (
            ["batch", "--spec", str(spec), "--trial-backend", "process"],
            ["batch", "--spec", str(spec), "--trial-backend", "serial"],
            ["serve", "--trial-backend", "serial"],
            ["worker", "--backend", "thread"],
            ["worker", "--backend", "serial"],
            ["worker", "--workers", "2"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2


class TestServeTrialBackendEnv:
    """``serve`` reads REPRO_TRIAL_BACKEND before checking the flags that
    only apply with ``--trial-backend remote``."""

    @pytest.fixture()
    def served(self, monkeypatch):
        """Run ``serve`` up to the point it would block; capture its stats."""
        captured = {}

        def fake_serve_forever(session, **_):
            captured["executor"] = session.service.stats()["executor"]
            session.service.shutdown()

        monkeypatch.setattr("repro.app.server.serve_forever", fake_serve_forever)
        monkeypatch.setenv("REPRO_TRIAL_BACKEND", "remote")
        monkeypatch.delenv("REPRO_TRIAL_REGISTRY", raising=False)
        return captured

    def test_workers_from_env_with_env_backend(self, served, monkeypatch):
        from repro.cluster.worker import make_worker

        with make_worker() as worker:
            monkeypatch.setenv("REPRO_TRIAL_WORKERS", worker.address)
            assert main(["serve", *CS_ARGS, "--workers-from", "env"]) == 0
        assert served["executor"]["trial_backend"] == "remote"
        assert served["executor"]["trial_cluster"]["workers_configured"] == 1

    def test_registry_with_env_backend(self, served):
        from repro.cluster.registry import make_registry

        with make_registry() as registry:
            assert main(["serve", *CS_ARGS, "--registry", registry.url]) == 0
        cluster = served["executor"]["trial_cluster"]
        assert served["executor"]["trial_backend"] == "remote"
        assert cluster["membership"]["registry"] == registry.url


BATCH_SPEC = {"jobs": [{
    "dataset": "cs-departments",
    "design": {
        "weights": {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
        "sensitive": ["DeptSizeBin"],
        "id_column": "DeptName",
        "monte_carlo_trials": 4,
        "monte_carlo_epsilons": [0.1],
    },
}]}


class TestRegistryAndFleetCommands:
    """The fleet-facing subcommands: registry, fleet status, --registry."""

    def test_registry_parser_defaults(self):
        from repro.app.cli import build_parser

        args = build_parser().parse_args(["registry"])
        assert args.command == "registry"
        assert args.port == 8100

    def test_registry_flag_requires_remote_backend(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps(BATCH_SPEC))
        code = main([
            "batch", "--spec", str(spec),
            "--trial-backend", "vectorized",
            "--registry", "http://127.0.0.1:8100",
        ])
        assert code == 2
        assert "--trial-backend remote" in capsys.readouterr().err

    def test_batch_runs_on_a_registry_discovered_fleet(self, tmp_path, capsys):
        from repro.cluster.registry import make_registry
        from repro.cluster.worker import make_worker

        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps(BATCH_SPEC))
        with make_registry() as registry:
            with make_worker(register_url=registry.url):
                code = main([
                    "batch", "--spec", str(spec), "--stats",
                    "--trial-backend", "remote",
                    "--registry", registry.url,
                ])
                out = capsys.readouterr().out
        assert code == 0
        assert "1/1 job(s) succeeded" in out
        assert "remote" in out

    def test_fleet_status_needs_a_source(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRIAL_REGISTRY", raising=False)
        assert main(["fleet", "status"]) == 2
        assert "--registry" in capsys.readouterr().err

    def test_fleet_status_lists_registered_workers(self, capsys):
        from repro.cluster.registry import make_registry
        from repro.cluster.worker import make_worker

        with make_registry() as registry:
            with make_worker(register_url=registry.url) as worker:
                code = main(["fleet", "status", "--registry", registry.url])
                out = capsys.readouterr().out
        assert code == 0
        assert "1 worker(s)" in out
        assert worker.address in out

    def test_fleet_status_raw_is_json(self, capsys):
        from repro.cluster.registry import make_registry

        with make_registry() as registry:
            code = main([
                "fleet", "status", "--registry", registry.url, "--raw",
            ])
            out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["registry"]["workers"]["count"] == 0

    def test_fleet_status_registry_from_the_environment(
        self, capsys, monkeypatch
    ):
        from repro.cluster.registry import make_registry

        with make_registry() as registry:
            monkeypatch.setenv("REPRO_TRIAL_REGISTRY", registry.url)
            assert main(["fleet", "status"]) == 0
            assert "0 worker(s)" in capsys.readouterr().out

    def test_fleet_status_unreachable_registry_fails_cleanly(self, capsys):
        from tests.cluster.faults import dead_address

        code = main([
            "fleet", "status", "--registry", f"http://{dead_address()}",
        ])
        assert code == 2
        assert "cannot fetch" in capsys.readouterr().err


class TestFleetFormatting:
    """Pure formatter coverage: dicts in, readable lines out."""

    CLUSTER = {
        "workers_alive": 1,
        "workers_configured": 2,
        "breakers_open": 1,
        "retries_spent": 3,
        "retry_budget": None,
        "budget_exhausted_runs": 0,
        "chunks_remote": 8,
        "chunks_failed_over": 2,
        "chunks_recovered_locally": 0,
        "workers": [
            {
                "address": "127.0.0.1:8101", "source": "registry",
                "chunks": 8, "failures": 0,
                "breaker": {"state": "closed", "retry_in": 0.0},
            },
            {
                "address": "127.0.0.1:8102", "source": "static",
                "chunks": 0, "failures": 3,
                "breaker": {"state": "open", "retry_in": 12.5},
            },
        ],
        "membership": {
            "registry": "http://127.0.0.1:8100",
            "workers_joined": 3, "workers_left": 1, "poll_failures": 0,
        },
    }

    def test_fleet_cluster_view_shows_breakers_and_membership(self):
        from repro.app.cli import _format_fleet_cluster

        text = "\n".join(
            _format_fleet_cluster("http://127.0.0.1:8000", self.CLUSTER)
        )
        assert "1/2 worker(s) alive" in text
        assert "1 breaker(s) open" in text
        assert "open" in text and "reprobe in 12.5s" in text
        assert "3 joined, 1 left" in text

    def test_fleet_cluster_view_without_a_cluster(self):
        from repro.app.cli import _format_fleet_cluster

        text = "\n".join(_format_fleet_cluster("http://x:1", None))
        assert "no remote trial cluster" in text

    def test_stats_summary_includes_breakers_and_membership(self):
        from repro.app.cli import _format_stats

        text = _format_stats({
            "executor": {
                "jobs_submitted": 1, "batches_submitted": 1,
                "trial_backend_effective": "remote",
                "trial_cluster": self.CLUSTER,
            },
        })
        assert "1 breaker(s) open" in text
        assert "membership via http://127.0.0.1:8100" in text
