"""Per-attribute stability: which ingredient is the ranking hostage to?

"Alternatively, stability can be computed with respect to each scoring
attribute" (paper §2.2).  For each scoring attribute this estimator
jitters *only that attribute's weight* and finds the smallest relative
change that more-likely-than-not alters the top-k — so an analyst can
read "the ranking survives a 40% change to GRE's weight but flips under
a 6% change to PubCount's" directly off the detailed widget.

Each bisection probe runs its trials as one array program over a plain
payload (:func:`repro.stability.kernels.run_attribute_kernel`), so the
loop runs on any :class:`~repro.engine.backends.TrialBackend`
(including remote workers) with byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import StabilityError
from repro.ranking.ranker import rank_table
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.kernels import require_plain_linear_scorer, run_attribute_kernel
from repro.stability.montecarlo import run_payload_trials
from repro.tabular.table import Table

if TYPE_CHECKING:
    from repro.engine.backends import TrialBackend

__all__ = ["AttributeStability", "AttributeTrialPayload", "per_attribute_stability"]


@dataclass(frozen=True)
class AttributeStability:
    """One attribute's sensitivity result.

    ``critical_epsilon`` is the smallest relative weight change at which
    the top-k changes with probability >= ``probability``; 1.0 (the
    search ceiling) means the ranking never flipped within a 100%
    change of this single weight.
    """

    attribute: str
    weight: float
    critical_epsilon: float
    probability: float

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for serialization."""
        return {
            "attribute": self.attribute,
            "weight": self.weight,
            "critical_epsilon": self.critical_epsilon,
            "probability": self.probability,
        }


@dataclass(frozen=True)
class AttributeTrialPayload:
    """Everything a single-weight-jitter trial batch needs, picklable."""

    table: Table
    scorer: LinearScoringFunction
    attribute: str
    epsilon: float
    scale: float
    id_column: str | None
    baseline_top: frozenset
    k: int
    seed: int


def _change_probability(
    table: Table,
    scorer: LinearScoringFunction,
    attribute: str,
    epsilon: float,
    id_column: str | None,
    baseline_top: frozenset,
    k: int,
    trials: int,
    seed: int,
    backend: "TrialBackend | None" = None,
) -> float:
    weight = scorer.weights[attribute]
    scale = abs(weight) if weight != 0.0 else float(
        np.mean([abs(w) for w in scorer.weights.values()])
    )
    payload = AttributeTrialPayload(
        table=table,
        scorer=scorer,
        attribute=attribute,
        epsilon=float(epsilon),
        scale=scale,
        id_column=id_column,
        baseline_top=baseline_top,
        k=k,
        seed=seed,
    )
    return sum(run_payload_trials(run_attribute_kernel, payload, trials, backend)) / trials


def per_attribute_stability(
    table: Table,
    scorer: LinearScoringFunction,
    id_column: str | None = None,
    k: int = 10,
    trials: int = 30,
    probability: float = 0.5,
    iterations: int = 8,
    seed: int = 20180610,
    backend: "TrialBackend | None" = None,
) -> list[AttributeStability]:
    """Critical single-weight change per attribute, most fragile first.

    Parameters
    ----------
    table:
        The (already preprocessed) data being ranked.
    scorer:
        The linear scoring function under audit; its type must be
        exactly :class:`~repro.ranking.scoring.LinearScoringFunction`.
    id_column:
        Item identifier column; its ids must be unique.
    k:
        Top-k whose composition defines "the ranking changed".
    trials:
        Monte-Carlo draws per probed epsilon.
    probability:
        Change-probability level defining the critical epsilon.
    iterations:
        Bisection steps (the search window is [0, 1] relative change).
    seed:
        RNG seed, fixed for reproducible labels.  Each Monte-Carlo
        trial draws from its own ``[seed, trial]`` stream, so results
        match on every backend.
    backend:
        Optional :class:`~repro.engine.backends.TrialBackend` the trials
        of each bisection probe run on; ``None`` runs them inline.
    """
    if k < 1:
        raise StabilityError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise StabilityError(f"trials must be >= 1, got {trials}")
    if not 0.0 < probability <= 1.0:
        raise StabilityError(f"probability must be in (0, 1], got {probability}")
    require_plain_linear_scorer(scorer)
    baseline = rank_table(table, scorer, id_column)
    baseline_top = frozenset(baseline.item_ids()[: min(k, baseline.size)])
    k = min(k, baseline.size)

    results = []
    for attribute, weight in scorer.weights.items():
        def probe(epsilon: float, attr=attribute) -> float:
            return _change_probability(
                table, scorer, attr, epsilon, id_column,
                baseline_top, k, trials, seed, backend,
            )

        if probe(1.0) < probability:
            critical = 1.0  # never flips within the search window
        else:
            lo, hi = 0.0, 1.0
            for _ in range(iterations):
                mid = (lo + hi) / 2.0
                if probe(mid) >= probability:
                    hi = mid
                else:
                    lo = mid
            critical = hi
        results.append(
            AttributeStability(
                attribute=attribute,
                weight=float(weight),
                critical_epsilon=float(critical),
                probability=probability,
            )
        )
    results.sort(key=lambda r: (r.critical_epsilon, r.attribute))
    return results
