"""LabelService with a durable store: tiers, provenance, warm restart."""

import pickle

import pytest

from repro.datasets import cs_departments
from repro.engine.jobs import LabelDesign
from repro.engine.service import LabelService
from repro.label.render_json import render_json
from repro.store.store import PICKLE_PROTOCOL


DESIGN = LabelDesign.create(
    weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    sensitive="DeptSizeBin",
    id_column="DeptName",
    monte_carlo_trials=5,
    monte_carlo_epsilons=(0.1,),
)


@pytest.fixture(scope="module")
def table():
    return cs_departments()


def store_path(tmp_path):
    return str(tmp_path / "labels.db")


class TestTieredService:
    def test_tiers_within_one_service(self, tmp_path, table):
        with LabelService(store_path=store_path(tmp_path)) as service:
            cold = service.build_label(table, DESIGN, "CS departments")
            warm = service.build_label(table, DESIGN, "CS departments")
            assert (cold.tier, cold.cached) == ("build", False)
            assert (warm.tier, warm.cached) == ("l1", True)
            stats = service.stats()
            assert stats["tiers"]["builds"] == 1
            assert stats["tiers"]["l1_hits"] == 1
            assert stats["store"]["labels"] == 1

    def test_restart_serves_from_l2_byte_identically(self, tmp_path, table):
        path = store_path(tmp_path)
        with LabelService(store_path=path) as service:
            cold = service.build_label(table, DESIGN, "CS departments")
            original_bytes = service.store.get_bytes(cold.fingerprint)
            assert original_bytes == pickle.dumps(
                cold.facts, protocol=PICKLE_PROTOCOL
            )

        # "restart": a brand-new service (empty L1) over the same file
        with LabelService(store_path=path) as reborn:
            # counts are per process, so the first service's build is in
            # them: the reborn service must add no build of its own
            builds = reborn.stats()["service"]["builds"]
            warm = reborn.build_label(table, DESIGN, "CS departments")
            assert warm.tier == "l2"
            assert warm.cached is True
            assert warm.fingerprint == cold.fingerprint
            assert reborn.stats()["service"]["builds"] == builds
            # the served label renders byte-identically
            assert render_json(warm.facts.label) == render_json(cold.facts.label)
            # and the stored payload was untouched by being read
            assert reborn.store.get_bytes(cold.fingerprint) == original_bytes

    def test_no_store_means_no_tier_keys_in_stats(self, table):
        with LabelService() as service:
            service.build_label(table, DESIGN, "CS departments")
            stats = service.stats()
            assert "tiers" not in stats
            assert "store" not in stats
            assert service.store is None

    def test_store_with_cache_disabled_is_rejected(self, tmp_path):
        from repro.errors import RankingFactsError

        with pytest.raises(RankingFactsError, match="use_cache"):
            LabelService(store_path=store_path(tmp_path), use_cache=False)

    def test_outcome_tier_without_store_is_l1_or_build(self, table):
        with LabelService() as service:
            assert service.build_label(table, DESIGN, "d").tier == "build"
            assert service.build_label(table, DESIGN, "d").tier == "l1"


class TestProvenanceCapture:
    def test_build_records_full_provenance(self, tmp_path, table):
        import repro

        with LabelService(
            store_path=store_path(tmp_path), trial_backend="serial"
        ) as service:
            outcome = service.build_label(table, DESIGN, "CS departments")
            record = service.store.provenance(outcome.fingerprint)
        assert record is not None
        assert record.fingerprint == outcome.fingerprint
        assert record.dataset_name == "CS departments"
        assert record.trial_backend_requested == "serial"
        assert record.trial_backend_effective == "serial"
        assert record.monte_carlo_trials == DESIGN.monte_carlo_trials
        assert record.epsilon_count == len(DESIGN.monte_carlo_epsilons)
        assert record.engine_version == repro.__version__
        assert record.build_seconds > 0
        assert record.design == DESIGN.canonical_dict()

    def test_l2_hits_do_not_rewrite_provenance(self, tmp_path, table):
        path = store_path(tmp_path)
        with LabelService(store_path=path) as service:
            outcome = service.build_label(table, DESIGN, "CS departments")
            first = service.store.provenance(outcome.fingerprint)
        with LabelService(store_path=path) as reborn:
            reborn.build_label(table, DESIGN, "CS departments")
            assert reborn.store.provenance(outcome.fingerprint) == first
