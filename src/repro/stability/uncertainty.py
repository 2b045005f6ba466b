"""Data-uncertainty stability: "a model of uncertainty in the data".

The paper's third stability framing perturbs the *data* instead of the
weights: each numeric scoring attribute gets zero-mean Gaussian noise
whose standard deviation is ``epsilon`` times the attribute's own
standard deviation (so a 5% epsilon means "measurement error on the
order of 5% of natural variation").  Re-ranking under noise yields the
same movement metrics as the weight-perturbation estimator, and the two
are directly comparable in the A1 ablation benchmark.

As with the other estimators, the trial is a module-level function
over a plain payload so any :class:`~repro.engine.backends.TrialBackend`
(including remote workers) reproduces the serial results byte-for-byte —
and the ``vectorized`` backend batches the whole value-noise tensor
into one array program
(:func:`repro.stability.kernels.run_uncertainty_kernel`) whenever the
scorer is a plain linear one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import StabilityError
from repro.ranking.compare import kendall_tau_ids, top_k_overlap_ids
from repro.ranking.ranker import Ranking, rank_table
from repro.ranking.scoring import ScoringFunction
from repro.stability.montecarlo import run_payload_trials, trial_rng
from repro.stability.perturbation import PerturbationOutcome
from repro.tabular.column import NumericColumn
from repro.tabular.table import Table

if TYPE_CHECKING:
    from repro.engine.backends import TrialBackend

__all__ = ["DataUncertaintyStability", "UncertaintyTrialPayload"]


@dataclass(frozen=True)
class UncertaintyTrialPayload:
    """Everything one attribute-noise trial needs, as picklable data.

    ``attribute_stds`` keeps the scorer's attribute order: noise is
    drawn per attribute *in that order*, which is what keeps batched
    and sharded results byte-identical to serial ones.  The baseline travels as its
    item-id sequence, not a full :class:`Ranking` — shipping the latter
    would pickle the table a second time per chunk.
    """

    table: Table
    scorer: ScoringFunction
    id_column: str
    baseline_ids: tuple
    baseline_top: frozenset
    attribute_stds: tuple[tuple[str, float], ...]
    k: int
    epsilon: float
    seed: int


def _noisy_table(
    table: Table,
    attribute_stds: tuple[tuple[str, float], ...],
    epsilon: float,
    rng: np.random.Generator,
) -> Table:
    noisy = table
    for attr, std in attribute_stds:
        if std == 0.0:
            continue  # constant attribute: noise would invent variation
        column = table.numeric_column(attr)
        values = column.values.copy()
        mask = ~np.isnan(values)
        values[mask] += rng.normal(0.0, epsilon * std, size=int(mask.sum()))
        noisy = noisy.with_column(NumericColumn(attr, values))
    return noisy


def _uncertainty_trial(
    payload: UncertaintyTrialPayload, trial: int
) -> tuple[float, float, bool]:
    """One Monte-Carlo draw; module-level so the remote wire can ship it."""
    rng = trial_rng(payload.seed, trial)
    perturbed = rank_table(
        _noisy_table(payload.table, payload.attribute_stds, payload.epsilon, rng),
        payload.scorer,
        payload.id_column,
    )
    perturbed_ids = perturbed.item_ids()
    return (
        kendall_tau_ids(payload.baseline_ids, perturbed_ids),
        top_k_overlap_ids(payload.baseline_ids, perturbed_ids, payload.k),
        set(perturbed_ids[: payload.k]) != payload.baseline_top,
    )


class DataUncertaintyStability:
    """Monte-Carlo attribute-noise stability.

    Works with any :class:`~repro.ranking.scoring.ScoringFunction`
    (not just linear ones): noise is injected into the table, not the
    weights.

    Parameters
    ----------
    table:
        The (already preprocessed) data being ranked.
    scorer:
        The scoring function under audit.
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
        of each ``assess_at`` run on; ``None`` runs them inline.  The
        remote backend pickles the scorer, which the repo's scorers
        allow.
    """

    name = "data uncertainty"

    def __init__(
        self,
        table: Table,
        scorer: ScoringFunction,
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
        self._scorer = scorer
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

    def _run_trial(self, epsilon: float, trial: int) -> tuple[float, float, bool]:
        return _uncertainty_trial(self._payload_at(epsilon), trial)

    def assess_at(self, epsilon: float) -> PerturbationOutcome:
        """Run the Monte-Carlo loop at one noise magnitude."""
        if epsilon < 0.0:
            raise StabilityError(f"epsilon must be non-negative, got {epsilon}")
        outcomes = run_payload_trials(
            _uncertainty_trial, self._payload_at(epsilon), self._trials,
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
