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

New cases are pinned the same way, from the code *before* a change to
the path they cover, so the pins that path must keep predate it.
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

#: FA*IR slices: the two ``sex`` groups of each table sit on both sides
#: of p = 0.5, so every prefix test runs once below and once above it
FAIR_STAR_DATASETS = ("german-credit", "compas")
FAIR_STAR_KS = (10, 100)
FAIR_STAR_ALPHAS = (0.01, 0.1)

#: a small synthetic table for Spearman over ties and missing values
TIES_AND_NANS = "ties-and-nans"


def ties_and_nans_table():
    """40 rows: a tied integer column, a column with NaNs, two groups.

    ``level`` takes four values, so both it and the scores it feeds
    carry long tie runs; ``rating`` is missing in every fifth row, so
    the Ingredients widget drops rows pairwise before ranking.
    """
    import numpy as np

    from repro.tabular.table import Table

    rng = np.random.default_rng(20180610)
    n = 40
    rating = np.round(rng.uniform(0.0, 10.0, n), 1)
    rating[::5] = np.nan
    return Table.from_dict({
        "item": [f"item-{i:02d}" for i in range(n)],
        "group": ["a" if v < 0.4 else "b" for v in rng.uniform(size=n)],
        "level": [int(v) for v in rng.integers(1, 5, n)],
        "rating": [float(v) for v in rating],
        "output": [float(v) for v in np.round(rng.normal(50.0, 10.0, n))],
    })


def cases() -> list[dict]:
    """Every pinned case.

    Each dataset on ``vectorized``, plus ``serial`` on one: the
    per-trial scalar oracle (``tests.oracles.OracleTrialBackend``), under
    the name its pins were made with.  Then FA*IR at k in {10, 100} and
    two alphas, and Spearman over ties and NaNs.
    """
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
    for dataset in FAIR_STAR_DATASETS:
        weights, sensitive, id_column = DESIGNS[dataset]
        for k in FAIR_STAR_KS:
            for alpha in FAIR_STAR_ALPHAS:
                out.append({
                    "id": f"{dataset}-fairstar-k{k}-a{alpha}",
                    "dataset": dataset,
                    "backend": "vectorized",
                    "design": {
                        "weights": weights,
                        "sensitive": [sensitive],
                        "id_column": id_column,
                        "k": k,
                        "alpha": alpha,
                    },
                })
    for k in (10, 30):
        out.append({
            "id": f"{TIES_AND_NANS}-spearman-k{k}",
            "dataset": TIES_AND_NANS,
            "backend": "vectorized",
            "design": {
                "weights": {"level": 0.6, "output": 0.4},
                "sensitive": ["group"],
                "id_column": "item",
                "k": k,
            },
        })
    return out


def label_digests(case_list: list[dict]) -> dict[str, str]:
    """Build each case's label and return ``{case id: sha256 hex}``."""
    from repro.datasets.loaders import dataset_by_name
    from repro.engine.jobs import LabelDesign
    from repro.engine.service import LabelService
    from repro.label.render_json import render_json
    from tests.oracles import OracleTrialBackend

    tables: dict = {}
    services: dict = {}
    digests = {}
    try:
        for case in case_list:
            dataset, backend = case["dataset"], case["backend"]
            if dataset not in tables:
                tables[dataset] = (
                    ties_and_nans_table() if dataset == TIES_AND_NANS
                    else dataset_by_name(dataset)
                )
            if backend not in services:
                services[backend] = LabelService(
                    use_cache=False,
                    trial_backend=OracleTrialBackend() if backend == "serial" else backend,
                )
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
