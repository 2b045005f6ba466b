"""The golden label corpus: a design grid and the SHA-256 of each label.

Each case is one built-in dataset, one design and one trial backend.
Its pin is the SHA-256 of the label's ``render_json`` bytes from an
uncached :class:`~repro.engine.service.LabelService` build.  A label is
a pure function of (table, design), so a refactor that keeps every pin
changed no label byte.

``labels.json`` beside this module holds the pins.  Regenerating it is
a deliberate, reviewed act, justified only by a change that mints a new
fingerprinted design field::

    PYTHONPATH=src python -m tests.golden.corpus
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).with_name("labels.json")

#: dataset -> (weights, sensitive attribute, id column)
DESIGNS = {
    "cs-departments": (
        {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2}, "DeptSizeBin", "DeptName",
    ),
    "german-credit": (
        {"credit_score": 0.4, "credit_amount": 0.35, "duration_months": 0.25},
        "sex",
        "applicant_id",
    ),
    "compas": (
        {"decile_score": 0.4, "priors_count": 0.35, "age": 0.25}, "sex", "defendant_id",
    ),
}
TRIALS = (0, 20)
SEEDS = (20180610, 7)


def cases() -> list[dict]:
    """Every pinned case: each dataset on ``vectorized``, plus ``serial`` on one."""
    grid = [(dataset, "vectorized") for dataset in DESIGNS]
    grid.append(("cs-departments", "serial"))
    out = []
    for dataset, backend in grid:
        weights, sensitive, id_column = DESIGNS[dataset]
        for trials in TRIALS:
            for seed in SEEDS:
                out.append({
                    "id": f"{dataset}-{backend}-t{trials}-s{seed}",
                    "dataset": dataset,
                    "backend": backend,
                    "design": {
                        "weights": weights,
                        "sensitive": [sensitive],
                        "id_column": id_column,
                        "monte_carlo_trials": trials,
                        "seed": seed,
                    },
                })
    return out


def label_digests(case_list: list[dict]) -> dict[str, str]:
    """Build each case's label and return ``{case id: sha256 hex}``."""
    from repro.datasets.loaders import dataset_by_name
    from repro.engine.jobs import LabelDesign
    from repro.engine.service import LabelService
    from repro.label.render_json import render_json

    tables: dict = {}
    services: dict = {}
    digests = {}
    try:
        for case in case_list:
            dataset, backend = case["dataset"], case["backend"]
            if dataset not in tables:
                tables[dataset] = dataset_by_name(dataset)
            if backend not in services:
                services[backend] = LabelService(use_cache=False, trial_backend=backend)
            outcome = services[backend].build_label(
                tables[dataset], LabelDesign.from_mapping(case["design"]), dataset
            )
            text = render_json(outcome.facts.label)
            digests[case["id"]] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    finally:
        for service in services.values():
            service.shutdown()
    return digests


def load_pins() -> dict[str, str]:
    """The committed ``{case id: sha256 hex}`` pins."""
    return json.loads(PINS_PATH.read_text())


def main() -> None:
    """Rebuild every case and overwrite ``labels.json``."""
    digests = label_digests(cases())
    PINS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} pins to {PINS_PATH}")


if __name__ == "__main__":
    main()
