"""Every pinned label rebuilds to the same bytes.

The pins in ``labels.json`` were generated before the thread, process
and executor trial backends were removed; matching them proves that no
label byte moved with that deletion, nor with any later change.  The
FA*IR (k in {10, 100}) and ties-and-NaNs Spearman pins were generated
before ``adjust_alpha`` was memoised, ``rankdata_average`` vectorised
and categorical gathers stopped re-cleaning values.
"""

from __future__ import annotations

import json

import pytest

from repro.label.render_json import label_document, render_json
from tests.golden.corpus import case_labels, cases, label_digests, load_pins


@pytest.fixture(scope="module")
def labels() -> dict:
    return case_labels(cases())


@pytest.fixture(scope="module")
def digests(labels) -> dict[str, str]:
    return label_digests(labels)


def test_pins_cover_the_grid():
    assert sorted(load_pins()) == sorted(case["id"] for case in cases())


@pytest.mark.parametrize("case_id", [case["id"] for case in cases()])
def test_label_matches_pin(digests, case_id):
    assert digests[case_id] == load_pins()[case_id]


@pytest.mark.parametrize("case_id", [case["id"] for case in cases()])
def test_label_document_is_the_rendered_document(labels, case_id):
    """Responses embed ``label_document`` where they used to parse the
    rendered JSON back: both must give the same document and bytes."""
    label = labels[case_id]
    assert label_document(label) == json.loads(render_json(label))
    assert json.dumps(label_document(label), indent=2) == render_json(label)


def test_store_round_trip_matches_pin(tmp_path):
    """A label archived, the store reopened, and the label read back
    still renders to its pinned bytes."""
    import hashlib

    from repro.datasets.loaders import dataset_by_name
    from repro.engine.jobs import LabelDesign
    from repro.engine.service import LabelService
    from repro.label.render_json import render_json
    from repro.store.store import LabelStore

    case_id = "cs-departments-vectorized-t20-s7"
    (case,) = [case for case in cases() if case["id"] == case_id]
    with LabelService(use_cache=False) as service:
        outcome = service.build_label(
            dataset_by_name(case["dataset"]),
            LabelDesign.from_mapping(case["design"]),
            case["dataset"],
        )
    path = tmp_path / "labels.db"
    with LabelStore(path) as store:
        store.put(outcome.fingerprint, outcome.facts)
    with LabelStore(path) as reopened:
        facts = reopened.get(outcome.fingerprint)
    text = render_json(facts.label)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == load_pins()[case_id]


def test_serial_oracle_matches_vectorized():
    pins = load_pins()
    serial = {k: v for k, v in pins.items() if "-serial-" in k}
    assert serial
    for case_id, digest in serial.items():
        assert pins[case_id.replace("-serial-", "-vectorized-")] == digest


def test_numpy_fallback_matches_every_pin(monkeypatch):
    """With both compiled kernels disabled, the numpy argsort path and
    the numpy inversion merge rebuild every pinned label to the same
    bytes."""
    from repro import _native

    monkeypatch.setattr(_native, "kernel", None)
    monkeypatch.setattr(_native, "movement", None)
    assert label_digests(case_labels(cases())) == load_pins()
