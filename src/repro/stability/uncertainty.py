"""Data-uncertainty stability: "a model of uncertainty in the data".

The paper's third stability framing perturbs the *data* instead of the
weights: each numeric scoring attribute gets zero-mean Gaussian noise
whose standard deviation is ``epsilon`` times the attribute's own
standard deviation (so a 5% epsilon means "measurement error on the
order of 5% of natural variation").  Re-ranking under noise yields the
same movement metrics as the weight-perturbation estimator, and the two
are directly comparable in the A1 ablation benchmark.

As with the other estimators, the trials run as one array program over
a plain payload (:func:`repro.stability.kernels.run_uncertainty_kernel`),
so any :class:`~repro.engine.backends.TrialBackend` (including remote
workers) reproduces the same results byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import StabilityError
from repro.ranking.ranker import Ranking, rank_table
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.kernels import require_plain_linear_scorer, run_uncertainty_kernel
from repro.stability.montecarlo import run_payload_trials
from repro.stability.perturbation import PerturbationOutcome
from repro.tabular.table import Table

if TYPE_CHECKING:
    from repro.engine.backends import TrialBackend

__all__ = ["DataUncertaintyStability", "UncertaintyTrialPayload"]


@dataclass(frozen=True)
class UncertaintyTrialPayload:
    """Everything an attribute-noise trial batch needs, as picklable data.

    ``attribute_stds`` keeps the scorer's attribute order: noise is
    drawn per attribute *in that order*, which is what keeps sharded
    results byte-identical to unsharded ones.  The baseline travels as
    its item-id sequence, not a full :class:`Ranking` — shipping the
    latter would pickle the table a second time per chunk.
    """

    table: Table
    scorer: LinearScoringFunction
    id_column: str
    baseline_ids: tuple
    baseline_top: frozenset
    attribute_stds: tuple[tuple[str, float], ...]
    k: int
    epsilon: float
    seed: int


class DataUncertaintyStability:
    """Monte-Carlo attribute-noise stability.

    Noise is injected into the table, not the weights.  The scorer must
    be exactly a :class:`~repro.ranking.scoring.LinearScoringFunction`:
    the trial kernel accumulates its weighted sum directly, and a
    subclass could score differently.

    Parameters
    ----------
    table:
        The (already preprocessed) data being ranked.
    scorer:
        The linear scoring function under audit.
    id_column:
        Column identifying items.
    k:
        Top-k size whose composition defines "the ranking changed".
    trials:
        Monte-Carlo draws per epsilon.  Each trial draws from its own
        ``[seed, trial]`` RNG stream, so outcomes do not depend on
        execution order and batched or sharded runs stay deterministic.
    seed:
        RNG seed; fixed by default so labels are reproducible.
    backend:
        Optional :class:`~repro.engine.backends.TrialBackend` the trials
        of each ``assess_at`` run on; ``None`` runs them inline.
    """

    name = "data uncertainty"

    def __init__(
        self,
        table: Table,
        scorer: LinearScoringFunction,
        id_column: str,
        k: int = 10,
        trials: int = 50,
        seed: int = 20180610,
        backend: "TrialBackend | None" = None,
    ):
        if k < 1:
            raise StabilityError(f"k must be >= 1, got {k}")
        if trials < 1:
            raise StabilityError(f"trials must be >= 1, got {trials}")
        if id_column not in table:
            raise StabilityError(f"id column {id_column!r} not in table")
        self._table = table
        self._scorer = require_plain_linear_scorer(scorer)
        self._id_column = id_column
        self._k = k
        self._trials = trials
        self._seed = seed
        self._backend = backend
        self._baseline = rank_table(table, scorer, id_column)
        self._baseline_top = frozenset(self._baseline.item_ids()[: self._k])
        # pre-compute each scoring attribute's natural scale
        stds: list[tuple[str, float]] = []
        for attr in scorer.attributes():
            values = table.numeric_column(attr).dropna_values()
            if values.size == 0:
                raise StabilityError(
                    f"scoring attribute {attr!r} has no non-missing values"
                )
            stds.append((attr, float(values.std(ddof=0))))
        self._attribute_stds: tuple[tuple[str, float], ...] = tuple(stds)

    @property
    def baseline(self) -> Ranking:
        """The noise-free ranking."""
        return self._baseline

    def _payload_at(self, epsilon: float) -> UncertaintyTrialPayload:
        return UncertaintyTrialPayload(
            table=self._table,
            scorer=self._scorer,
            id_column=self._id_column,
            baseline_ids=tuple(self._baseline.item_ids()),
            baseline_top=self._baseline_top,
            attribute_stds=self._attribute_stds,
            k=self._k,
            epsilon=float(epsilon),
            seed=self._seed,
        )

    def assess_at(self, epsilon: float) -> PerturbationOutcome:
        """Run the Monte-Carlo loop at one noise magnitude."""
        if epsilon < 0.0:
            raise StabilityError(f"epsilon must be non-negative, got {epsilon}")
        outcomes = run_payload_trials(
            run_uncertainty_kernel, self._payload_at(epsilon), self._trials,
            self._backend,
        )
        taus = [tau for tau, _, _ in outcomes]
        overlaps = [overlap for _, overlap, _ in outcomes]
        changed = sum(moved for _, _, moved in outcomes)
        return PerturbationOutcome(
            epsilon=float(epsilon),
            mean_kendall_tau=float(np.mean(taus)),
            mean_top_k_overlap=float(np.mean(overlaps)),
            change_probability=changed / self._trials,
            trials=self._trials,
        )

    def profile(self, epsilons: list[float] | None = None) -> list[PerturbationOutcome]:
        """Outcomes over a sweep of noise magnitudes (default 1%..50%)."""
        if epsilons is None:
            epsilons = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5]
        if not epsilons:
            raise StabilityError("profile needs at least one epsilon")
        return [self.assess_at(eps) for eps in epsilons]

    def minimal_change_epsilon(
        self,
        probability: float = 0.5,
        lo: float = 0.0,
        hi: float = 1.0,
        iterations: int = 12,
    ) -> float:
        """Smallest noise level at which P[top-k changes] >= ``probability``."""
        if not 0.0 < probability <= 1.0:
            raise StabilityError(f"probability must be in (0, 1], got {probability}")
        if not 0.0 <= lo < hi:
            raise StabilityError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
        if self.assess_at(hi).change_probability < probability:
            return hi
        for _ in range(iterations):
            mid = (lo + hi) / 2.0
            if self.assess_at(mid).change_probability >= probability:
                hi = mid
            else:
                lo = mid
        return hi
