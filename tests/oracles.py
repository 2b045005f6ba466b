"""Reference implementations that rewritten fast paths must match exactly.

Each is the plain version a faster one replaced, kept verbatim so the
differential tests and the kernel benchmarks compare against the same
oracle: the tie loop, the alpha bisection, and the per-trial scalar
Monte-Carlo trials with a backend that runs them.  Only numpy and the
package's public functions are used, so the benchmark job can import
this module without the test extras.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fairness.fair_star.adjustment import compute_fail_probability
from repro.ranking.compare import kendall_tau_ids, top_k_overlap_ids
from repro.ranking.ranker import rank_table
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.kernels import (
    run_attribute_kernel,
    run_perturbation_kernel,
    run_uncertainty_kernel,
)
from repro.stability.montecarlo import trial_rng
from repro.stability.per_attribute import AttributeTrialPayload
from repro.stability.perturbation import PerturbationTrialPayload
from repro.stability.uncertainty import UncertaintyTrialPayload
from repro.tabular.column import NumericColumn
from repro.tabular.table import Table


def rankdata_tie_loop(values) -> np.ndarray:
    """The Python tie loop ``rankdata_average`` ran before it was vectorised."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"rankdata expects a 1-d sequence, got shape {arr.shape}")
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        ranks[order[i: j + 1]] = avg_rank
        i = j + 1
    return ranks


def reference_adjust_alpha(
    k: int, p: float, alpha: float, tolerance: float = 1e-8, max_iterations: int = 64
) -> float:
    """``adjust_alpha``'s bisection over the public ``compute_fail_probability``."""
    if compute_fail_probability(k, p, alpha) <= alpha:
        return alpha
    lo, hi = 0.0, alpha
    for _ in range(max_iterations):
        if hi - lo <= tolerance:
            break
        mid = (lo + hi) / 2.0
        if mid == 0.0:
            break
        if compute_fail_probability(k, p, mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo


# -- the scalar Monte-Carlo trials the batch kernels replaced -------------------


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


def _attribute_trial(payload: AttributeTrialPayload, trial: int) -> bool:
    """One Monte-Carlo draw; module-level so the remote wire can ship it."""
    rng = trial_rng(payload.seed, trial)
    delta = float(rng.uniform(-payload.epsilon, payload.epsilon) * payload.scale)
    perturbed = payload.scorer.perturbed({payload.attribute: delta})
    ranking = rank_table(payload.table, perturbed, payload.id_column)
    return set(ranking.item_ids()[: payload.k]) != payload.baseline_top


#: batch kernel -> the scalar trial function it replaced
SCALAR_TRIALS = {
    run_perturbation_kernel: _perturbation_trial,
    run_uncertainty_kernel: _uncertainty_trial,
    run_attribute_kernel: _attribute_trial,
}


def scalar_trials(fn, payload: Any, trials: int, start: int = 0) -> list:
    """Trials ``[start, start + trials)`` of batch function ``fn``, one at a time.

    A kernel runs as the scalar trial function it replaced; any other
    batch function runs one single-trial batch per trial.
    """
    scalar = SCALAR_TRIALS.get(fn)
    if scalar is None:
        return [fn(payload, 1, trial)[0] for trial in range(start, start + trials)]
    return [scalar(payload, trial) for trial in range(start, start + trials)]


class OracleTrialBackend:
    """A local trial backend that runs every batch through :func:`scalar_trials`."""

    name = "oracle"

    def run(self, fn, payload: Any, trials: int) -> list:
        """Every trial of the batch, in order."""
        return scalar_trials(fn, payload, trials)

    def run_span(self, fn, payload: Any, start: int, stop: int) -> list:
        """Trials ``[start, stop)`` at their absolute indices."""
        return scalar_trials(fn, payload, stop - start, start)

    def shutdown(self) -> None:
        """Nothing to release."""

    @property
    def effective_name(self) -> str:
        """Always ``oracle``."""
        return self.name
