"""Weight-perturbation stability: "slightly adjusting the weights".

The Monte-Carlo estimator jitters every scoring weight by a relative
magnitude ``epsilon``, re-ranks, and measures how far the ranking moved
(Kendall tau, top-k overlap, probability that the top-k set changed at
all).  :func:`minimal_change_epsilon` then inverts the profile: the
smallest jitter at which the top-k is more likely than not to change —
a direct reading of the paper's "extent of the change required for the
ranking to change".

The trial itself is a module-level function over a plain payload
(:func:`_perturbation_trial` / :class:`PerturbationTrialPayload`), so
the loop can run on any :class:`~repro.engine.backends.TrialBackend` —
including remote workers over the cluster wire — with byte-identical
results.  On the ``vectorized`` backend the whole batch collapses into
one array program (:func:`repro.stability.kernels.run_perturbation_kernel`):
same RNG streams, same accumulation order, same bytes, no per-trial
re-ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import StabilityError
from repro.ranking.compare import kendall_tau_ids, top_k_overlap_ids
from repro.ranking.ranker import Ranking, rank_table
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.montecarlo import run_payload_trials, trial_rng
from repro.tabular.table import Table

if TYPE_CHECKING:
    from repro.engine.backends import TrialBackend

__all__ = [
    "PerturbationOutcome",
    "PerturbationTrialPayload",
    "WeightPerturbationStability",
    "minimal_change_epsilon",
]


@dataclass(frozen=True)
class PerturbationOutcome:
    """Monte-Carlo summary at one perturbation magnitude.

    Attributes
    ----------
    epsilon:
        Relative perturbation magnitude (0.1 = weights jittered by up
        to ±10%).
    mean_kendall_tau:
        Average rank correlation between original and perturbed
        rankings (1.0 = never moves).
    mean_top_k_overlap:
        Average fraction of the original top-k retained.
    change_probability:
        Fraction of trials in which the top-k *set* changed.
    trials:
        Number of Monte-Carlo draws.
    """

    epsilon: float
    mean_kendall_tau: float
    mean_top_k_overlap: float
    change_probability: float
    trials: int

    def as_dict(self) -> dict[str, float | int]:
        """Plain-dict form for serialization."""
        return {
            "epsilon": self.epsilon,
            "mean_kendall_tau": self.mean_kendall_tau,
            "mean_top_k_overlap": self.mean_top_k_overlap,
            "change_probability": self.change_probability,
            "trials": self.trials,
        }


@dataclass(frozen=True)
class PerturbationTrialPayload:
    """Everything one weight-jitter trial needs, as picklable plain data.

    The scorer travels as the object itself (the repo's scorers pickle
    cleanly), so subclass behaviour survives the cluster wire.  The
    jitter draws one uniform per weight in the scorer's declaration
    order, which is what keeps batched and sharded results
    byte-identical to serial ones.  The baseline travels as its item-id sequence, not a
    full :class:`Ranking` — shipping the latter would pickle the table
    a second time per chunk.
    """

    table: Table
    scorer: LinearScoringFunction
    id_column: str
    baseline_ids: tuple
    baseline_top: frozenset
    k: int
    epsilon: float
    seed: int


def _jittered_scorer(
    scorer: LinearScoringFunction, epsilon: float, rng: np.random.Generator
) -> LinearScoringFunction:
    weights = scorer.weights
    deltas = {
        attr: float(rng.uniform(-epsilon, epsilon) * abs(w)) if w != 0.0
        # zero weights jitter on the scale of the average weight, so a
        # zeroed-out attribute can still re-enter under perturbation
        else float(
            rng.uniform(-epsilon, epsilon)
            * float(np.mean([abs(v) for v in weights.values()]))
        )
        for attr, w in weights.items()
    }
    return scorer.perturbed(deltas)


def _perturbation_trial(
    payload: PerturbationTrialPayload, trial: int
) -> tuple[float, float, bool]:
    """One Monte-Carlo draw; module-level so the remote wire can ship it."""
    rng = trial_rng(payload.seed, trial)
    perturbed = rank_table(
        payload.table, _jittered_scorer(payload.scorer, payload.epsilon, rng),
        payload.id_column,
    )
    perturbed_ids = perturbed.item_ids()
    return (
        kendall_tau_ids(payload.baseline_ids, perturbed_ids),
        top_k_overlap_ids(payload.baseline_ids, perturbed_ids, payload.k),
        set(perturbed_ids[: payload.k]) != payload.baseline_top,
    )


class WeightPerturbationStability:
    """Monte-Carlo weight-jitter stability for linear scoring functions.

    Parameters
    ----------
    table:
        The (already preprocessed) data being ranked.
    scorer:
        The linear scoring function under audit.
    id_column:
        Column identifying items (needed to track movement).
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

    name = "weight perturbation"

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
        self._scorer = scorer
        self._id_column = id_column
        self._k = k
        self._trials = trials
        self._seed = seed
        self._backend = backend
        self._baseline = rank_table(table, scorer, id_column)
        self._baseline_top = frozenset(self._baseline.item_ids()[: self._k])

    @property
    def baseline(self) -> Ranking:
        """The unperturbed ranking."""
        return self._baseline

    def _payload_at(self, epsilon: float) -> PerturbationTrialPayload:
        return PerturbationTrialPayload(
            table=self._table,
            scorer=self._scorer,
            id_column=self._id_column,
            baseline_ids=tuple(self._baseline.item_ids()),
            baseline_top=self._baseline_top,
            k=self._k,
            epsilon=float(epsilon),
            seed=self._seed,
        )

    def _run_trial(self, epsilon: float, trial: int) -> tuple[float, float, bool]:
        return _perturbation_trial(self._payload_at(epsilon), trial)

    def assess_at(self, epsilon: float) -> PerturbationOutcome:
        """Run the Monte-Carlo loop at one perturbation magnitude."""
        if epsilon < 0.0:
            raise StabilityError(f"epsilon must be non-negative, got {epsilon}")
        outcomes = run_payload_trials(
            _perturbation_trial, self._payload_at(epsilon), self._trials,
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
        """Outcomes over a sweep of magnitudes (default 1%..50%)."""
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
        """Smallest epsilon at which P[top-k changes] >= ``probability``.

        Bisection on the (monotone in expectation) change-probability
        curve.  Returns ``hi`` when even the largest jitter rarely
        changes the ranking — an extremely stable ranking.
        """
        if not 0.0 < probability <= 1.0:
            raise StabilityError(
                f"probability must be in (0, 1], got {probability}"
            )
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


def minimal_change_epsilon(
    table: Table,
    scorer: LinearScoringFunction,
    id_column: str,
    k: int = 10,
    trials: int = 50,
    probability: float = 0.5,
    seed: int = 20180610,
) -> float:
    """Functional shortcut: the widget's "extent of change required".

    See :meth:`WeightPerturbationStability.minimal_change_epsilon`.
    """
    estimator = WeightPerturbationStability(
        table, scorer, id_column, k=k, trials=trials, seed=seed
    )
    return estimator.minimal_change_epsilon(probability=probability)
