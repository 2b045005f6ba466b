"""Vectorized Monte-Carlo trial kernels: a whole trial batch as array ops.

The scalar trial functions in :mod:`repro.stability.perturbation`,
:mod:`~repro.stability.uncertainty`, and
:mod:`~repro.stability.per_attribute` each re-rank the table once per
trial: materialize a scored :class:`~repro.ranking.ranker.Ranking`
(``Table.take`` over every column), convert ids to Python lists, and
compare via per-item dict lookups.  That per-trial interpretation
overhead is exactly what columnar engines avoid by batching — and these
kernels apply the same discipline to the stability widget's hot loop:

- the design matrix ``X (n_rows x n_attrs)`` is pulled from the table
  **once**;
- all ``T`` jitter/noise draws come from the unchanged per-trial RNG
  streams (``trial_rng(seed, trial)``), so results stay reproducible;
- the ``(n x T)`` score matrix is accumulated **per attribute in the
  scorer's declaration order** — the identical sequence of IEEE
  operations :meth:`LinearScoringFunction.score_table` performs, so
  every score is byte-identical to the scalar path's;
- the perturbation and uncertainty kernels stable-argsort all trials at
  once and compute the movement metrics on integer permutation arrays —
  Kendall tau via merge-sort inversion counting (:func:`repro.ranking
  .compare.count_inversions_batch`), top-k overlap via position
  prefixes.  No ``Table`` is constructed and no dict is consulted inside
  the loop;
- the per-attribute kernel needs only one bit per trial ("did the top-k
  set change?"), so it never sorts: it first prunes the rows that can
  never reach the top-k, then decides each trial with two column
  reductions (see :func:`run_attribute_kernel`).

**Byte-identity contract.**  For every payload a kernel accepts, its
result list is byte-identical to running the matching scalar trial
function over ``range(trials)``.  Anything a kernel cannot reproduce
exactly — a scorer that is not a plain
:class:`~repro.ranking.scoring.LinearScoringFunction` (a subclass may
override ``score_table``), duplicate item ids, a payload whose baseline
disagrees with its table — is **declined**, and
:func:`dispatch_kernel` reports the reason so the caller (the
``vectorized`` :class:`~repro.engine.backends.VectorizedTrialBackend`)
can fall back to the scalar path and surface the reason in
``GET /engine/stats``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.ranking.compare import count_inversions_batch, kendall_tau_from_discordant
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.montecarlo import trial_rng
from repro.stability.per_attribute import AttributeTrialPayload, _attribute_trial
from repro.stability.perturbation import PerturbationTrialPayload, _perturbation_trial
from repro.stability.uncertainty import UncertaintyTrialPayload, _uncertainty_trial
from repro.tabular.table import Table

__all__ = [
    "dispatch_kernel",
    "kernel_for",
    "run_perturbation_kernel",
    "run_uncertainty_kernel",
    "run_attribute_kernel",
]


class _KernelFallback(Exception):
    """Raised inside a kernel when the scalar path must run instead."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise _KernelFallback(reason)


def _require_plain_linear_scorer(scorer: object) -> LinearScoringFunction:
    # an exact type check: a subclass may override score_table, and the
    # kernel's accumulation would silently diverge from it
    _require(
        type(scorer) is LinearScoringFunction,
        f"scorer {type(scorer).__name__} is not a plain LinearScoringFunction",
    )
    return scorer  # type: ignore[return-value]


def _design_matrix(
    table: Table, scorer: LinearScoringFunction
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-attribute value vectors (NaN -> 0) plus the any-missing mask.

    Mirrors the per-attribute preparation inside ``score_table``: the
    returned vectors are exactly the ``values`` arrays the scalar path
    multiplies by each weight.
    """
    columns: list[np.ndarray] = []
    any_missing = np.zeros(table.num_rows, dtype=bool)
    for attr in scorer.attributes():
        try:
            values = table.numeric_column(attr).values.copy()
        except Exception as exc:
            raise _KernelFallback(f"scoring attribute {attr!r} unusable: {exc}") from exc
        missing = np.isnan(values)
        any_missing |= missing
        values[missing] = 0.0
        columns.append(values)
    return columns, any_missing


def _accumulate_scores(
    columns: list[np.ndarray],
    weight_matrix: np.ndarray,
    any_missing: np.ndarray,
    missing_policy: str,
) -> np.ndarray:
    """The ``(n x T)`` score matrix, accumulated like ``score_table``.

    ``weight_matrix[a, t]`` is attribute ``a``'s weight in trial ``t``.
    Accumulation runs attribute-by-attribute in declaration order, so
    each element sees the same ``((0 + w1*x1) + w2*x2) + ...`` sequence
    as the scalar path — byte-identical floats.
    """
    n = columns[0].shape[0] if columns else 0
    scores = np.zeros((n, weight_matrix.shape[1]), dtype=np.float64)
    for index, values in enumerate(columns):
        scores += values[:, None] * weight_matrix[index][None, :]
    if missing_policy == "propagate":
        scores[any_missing, :] = np.nan
    return scores


def _rank_keys(scores: np.ndarray) -> np.ndarray:
    """Ascending sort keys exactly like ``Ranking.from_scores``."""
    keys = -scores
    keys[np.isnan(keys)] = np.inf  # NaN scores sort last
    return keys


def _stable_orders(scores: np.ndarray) -> np.ndarray:
    """Argsort every trial column exactly like ``Ranking.from_scores``."""
    return np.argsort(_rank_keys(scores), axis=0, kind="stable")


def _baseline_order(table: Table, scorer: LinearScoringFunction) -> np.ndarray:
    """Row indices of the unperturbed ranking, best first."""
    return np.argsort(_rank_keys(scorer.score_table(table)), kind="stable")


def _positions_from_orders(orders: np.ndarray) -> np.ndarray:
    """Invert each trial's order: ``positions[row, t]`` = rank position."""
    positions = np.empty_like(orders)
    np.put_along_axis(
        positions,
        orders,
        np.broadcast_to(np.arange(orders.shape[0])[:, None], orders.shape),
        axis=0,
    )
    return positions


def _unique_ids(table: Table, id_column: str) -> list:
    _require(id_column in table, f"id column {id_column!r} not in table")
    ids = list(table.column(id_column).values)
    _require(len(set(ids)) == len(ids), "item ids are not unique")
    return ids


def _verified_baseline(
    payload, ids: list, base_order: np.ndarray, k: int
) -> None:
    """Decline payloads whose baseline disagrees with their own table."""
    n = len(ids)
    _require(
        tuple(ids[row] for row in base_order) == tuple(payload.baseline_ids),
        "payload baseline_ids do not match the table's own ranking",
    )
    _require(
        set(payload.baseline_ids[:k]) == set(payload.baseline_top),
        "payload baseline_top does not match baseline_ids",
    )
    _require(1 <= k, f"k must be >= 1, got {k}")
    _require(n >= 2, f"rank comparison needs at least 2 items, found {n}")


def _movement_outcomes(
    base_order: np.ndarray, orders: np.ndarray, k: int
) -> list[tuple[float, float, bool]]:
    """Per-trial (tau, overlap, changed) from permutation arrays.

    Exactly the metrics ``kendall_tau_ids`` / ``top_k_overlap_ids`` /
    the top-set comparison produce, computed without ids: discordant
    pairs are inversions of the re-ranked position sequence, overlap is
    a prefix membership count.
    """
    n = orders.shape[0]
    positions = _positions_from_orders(orders)
    # positions of the baseline's items, in baseline order: one
    # permutation per trial whose inversions are the discordant pairs
    reranked = positions[base_order, :]
    discordant = count_inversions_batch(reranked.T)
    kept = min(k, n)
    in_top = positions[base_order[:kept], :] < kept
    counts = in_top.sum(axis=0)
    outcomes: list[tuple[float, float, bool]] = []
    for t in range(orders.shape[1]):
        tau = kendall_tau_from_discordant(int(discordant[t]), n)
        overlap = int(counts[t]) / kept
        outcomes.append((tau, overlap, bool(counts[t] != kept)))
    return outcomes


# -- weight perturbation -------------------------------------------------------


def _jitter_weight_matrix(
    scorer: LinearScoringFunction, epsilon: float, seed: int, trials: int,
    start: int = 0,
) -> np.ndarray:
    """All T perturbed weight vectors, drawn exactly like ``_jittered_scorer``.

    Trial ``t`` consumes ``trial_rng(seed, start + t)`` with one uniform
    per weight in declaration order — the identical draw sequence of the
    scalar path, so the perturbed weights match it float for float.
    ``start`` offsets the trial indices so a cluster worker computing
    the span ``[start, start + trials)`` of a larger batch draws the
    same streams the full-batch kernel would.
    """
    weights = scorer.weights
    mean_abs = float(np.mean([abs(v) for v in weights.values()]))
    matrix = np.empty((len(weights), trials), dtype=np.float64)
    for t in range(trials):
        rng = trial_rng(seed, start + t)
        for index, (attr, w) in enumerate(weights.items()):
            scale = abs(w) if w != 0.0 else mean_abs
            matrix[index, t] = w + float(rng.uniform(-epsilon, epsilon) * scale)
    return matrix


def run_perturbation_kernel(
    payload: PerturbationTrialPayload, trials: int, start: int = 0
) -> list[tuple[float, float, bool]]:
    """Trials ``[start, start + trials)`` of
    :func:`~repro.stability.perturbation._perturbation_trial`."""
    scorer = _require_plain_linear_scorer(payload.scorer)
    table = payload.table
    ids = _unique_ids(table, payload.id_column)
    weight_matrix = _jitter_weight_matrix(
        scorer, payload.epsilon, payload.seed, trials, start
    )
    # an all-zero draw would make the scalar path raise WeightError;
    # decline so it still does
    _require(
        not np.any(np.all(weight_matrix == 0.0, axis=0)),
        "a trial drew an all-zero weight vector",
    )
    base_order = _baseline_order(table, scorer)
    _verified_baseline(payload, ids, base_order, payload.k)
    columns, any_missing = _design_matrix(table, scorer)
    scores = _accumulate_scores(
        columns, weight_matrix, any_missing, scorer.missing_policy
    )
    return _movement_outcomes(base_order, _stable_orders(scores), payload.k)


# -- data uncertainty ----------------------------------------------------------


def _noise_matrices(
    payload: UncertaintyTrialPayload, trials: int, start: int = 0
) -> dict[str, np.ndarray]:
    """Per-attribute ``(n x T)`` noise, drawn exactly like ``_noisy_table``.

    Trial ``t`` consumes ``trial_rng(seed, start + t)`` with one ``normal``
    batch per noisy attribute in ``attribute_stds`` order (skipping
    zero-std attributes), each sized to the attribute's non-missing
    count — the scalar draw sequence, reproduced.  Repeated attributes
    overwrite (the scalar path re-reads the *original* column), and
    attributes outside the scoring set still consume their draws.
    """
    table = payload.table
    scoring = set(payload.scorer.attributes())
    columns: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for attr, std in payload.attribute_stds:
        if std == 0.0 or attr in columns:
            continue
        try:
            columns[attr] = table.numeric_column(attr).values
        except Exception as exc:
            raise _KernelFallback(f"noisy attribute {attr!r} unusable: {exc}") from exc
        masks[attr] = ~np.isnan(columns[attr])
    noise: dict[str, np.ndarray] = {}
    n = table.num_rows
    for t in range(trials):
        rng = trial_rng(payload.seed, start + t)
        for attr, std in payload.attribute_stds:
            if std == 0.0:
                continue
            mask = masks[attr]
            draw = rng.normal(0.0, payload.epsilon * std, size=int(mask.sum()))
            if attr not in scoring:
                continue  # draw consumed, column never scored
            matrix = noise.setdefault(attr, np.zeros((n, trials), dtype=np.float64))
            matrix[:, t][mask] = draw  # assignment: repeats overwrite
    return noise


def run_uncertainty_kernel(
    payload: UncertaintyTrialPayload, trials: int, start: int = 0
) -> list[tuple[float, float, bool]]:
    """Trials ``[start, start + trials)`` of
    :func:`~repro.stability.uncertainty._uncertainty_trial`."""
    scorer = _require_plain_linear_scorer(payload.scorer)
    table = payload.table
    ids = _unique_ids(table, payload.id_column)
    base_order = _baseline_order(table, scorer)
    _verified_baseline(payload, ids, base_order, payload.k)
    noise = _noise_matrices(payload, trials, start)
    n = table.num_rows
    scores = np.zeros((n, trials), dtype=np.float64)
    any_missing = np.zeros(n, dtype=bool)
    for attr, weight in scorer.weights.items():
        try:
            column = table.numeric_column(attr).values
        except Exception as exc:
            raise _KernelFallback(f"scoring attribute {attr!r} unusable: {exc}") from exc
        missing = np.isnan(column)
        any_missing |= missing
        if attr in noise:
            values = column[:, None] + noise[attr]
            values[missing, :] = 0.0
            scores += weight * values
        else:
            values = column.copy()
            values[missing] = 0.0
            scores += weight * values[:, None]
    if scorer.missing_policy == "propagate":
        scores[any_missing, :] = np.nan
    return _movement_outcomes(base_order, _stable_orders(scores), payload.k)


# -- per-attribute stability ---------------------------------------------------

#: pruning margin relative to the largest ``sum |w| |x|`` of any row:
#: orders of magnitude above the rounding error of a few-term dot product
_PRUNE_MARGIN = 1e-9
#: score magnitudes from which a partial sum could overflow; never pruned
_PRUNE_LIMIT = 1e300


def _candidate_rows(
    columns: list[np.ndarray],
    weights: list[float],
    index: int,
    reach: float,
    any_missing: np.ndarray,
    missing_policy: str,
    member: np.ndarray,
) -> np.ndarray | None:
    """Rows that may still precede a baseline member in some trial.

    Every trial moves only weight ``index``, by at most ``reach``, so row
    ``i`` scores within ``base_i +- reach * |x_i|``.  A non-member whose
    highest reachable score stays more than twice the float-error margin
    (``_PRUNE_MARGIN`` x the largest ``sum |w| |x|``) below every
    member's lowest reachable score trails every member in every trial —
    in exact arithmetic and after rounding — so dropping it changes no
    flag.  NaN-scored non-members trail every finite member and are
    dropped too.  ``None`` keeps every row: a member is NaN-scored, or a
    value is infinite or so large that the margin is no longer sound.
    """
    propagate = missing_policy == "propagate"
    if propagate and np.any(any_missing & member):
        return None
    base = np.zeros(member.shape[0], dtype=np.float64)
    magnitude = np.zeros(member.shape[0], dtype=np.float64)
    for values, weight in zip(columns, weights):
        base += weight * values
        magnitude += abs(weight) * np.abs(values)
    swing = reach * np.abs(columns[index])
    magnitude += swing
    largest = float(np.max(magnitude))
    if not largest < _PRUNE_LIMIT:  # also catches NaN from inf * 0
        return None
    margin = _PRUNE_MARGIN * largest + np.finfo(np.float64).tiny
    floor = float(np.min((base - swing)[member]))
    reachable = base + swing >= floor - 2.0 * margin
    if propagate:
        reachable &= ~any_missing
    return np.flatnonzero(member | reachable)


def _top_set_kept(keys: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Per trial: do the member rows fill the top ``member.sum()`` slots?

    Under the stable ascending order of ``keys`` (ties by ascending row)
    that holds exactly when the worst member — largest key, on a tie the
    largest row — precedes the best non-member — smallest key, on a tie
    the smallest row.  Two column reductions decide it; nothing sorts.
    """
    others = ~member
    if not others.any():
        return np.ones(keys.shape[1], dtype=bool)
    member_keys = keys[member]
    other_keys = keys[others]
    worst = member_keys.max(axis=0)
    best = other_keys.min(axis=0)
    kept = worst < best
    tied = np.flatnonzero(worst == best)
    if tied.size:
        member_rows = np.flatnonzero(member)[:, None]
        other_rows = np.flatnonzero(others)[:, None]
        worst_row = np.where(
            member_keys[:, tied] == worst[tied], member_rows, -1
        ).max(axis=0)
        best_row = np.where(
            other_keys[:, tied] == best[tied], other_rows, keys.shape[0]
        ).min(axis=0)
        kept[tied] = worst_row < best_row
    return kept


def run_attribute_kernel(
    payload: AttributeTrialPayload, trials: int, start: int = 0
) -> list[bool]:
    """Trials ``[start, start + trials)`` of
    :func:`~repro.stability.per_attribute._attribute_trial`.

    A trial's flag is "the top-k id set differs from ``baseline_top``".
    When the baseline set is exactly ``min(k, n)`` rows of the table
    (the members), the flag is false iff every member precedes every
    other row in the trial's ranking, which :func:`_top_set_kept` decides
    by selection instead of a sort.  Before scoring, rows that can never
    reach the top-k in any drawn trial are pruned (see
    :func:`_candidate_rows`, margin ``1e-9`` x the largest
    ``sum |w| |x|``); the survivors are scored by the unchanged
    :func:`_accumulate_scores`, so every float matches the scalar path.
    """
    scorer = _require_plain_linear_scorer(payload.scorer)
    table = payload.table
    weights = scorer.weights
    _require(
        payload.attribute in weights,
        f"jittered attribute {payload.attribute!r} not in the scorer",
    )
    n = table.num_rows
    _require(n >= 1, "table has no rows")
    _require(payload.k >= 1, f"k must be >= 1, got {payload.k}")
    deltas = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        rng = trial_rng(payload.seed, start + t)
        deltas[t] = float(
            rng.uniform(-payload.epsilon, payload.epsilon) * payload.scale
        )
    matrix = np.empty((len(weights), trials), dtype=np.float64)
    for index, (attr, w) in enumerate(weights.items()):
        if attr == payload.attribute:
            matrix[index, :] = [w + float(delta) for delta in deltas]
        else:
            matrix[index, :] = w
    _require(
        not np.any(np.all(matrix == 0.0, axis=0)),
        "a trial drew an all-zero weight vector",
    )
    if payload.id_column is None:
        # positional ids: every ranking's top-k id set is {1..min(k, n)},
        # so the change flag is one table-independent set comparison
        top = set(range(1, min(payload.k, n) + 1))
        return [bool(top != set(payload.baseline_top))] * trials
    ids = _unique_ids(table, payload.id_column)
    columns, any_missing = _design_matrix(table, scorer)
    member = np.fromiter(
        map(payload.baseline_top.__contains__, ids), dtype=bool, count=n
    )
    kept = min(payload.k, n)
    if len(set(payload.baseline_top)) != kept or int(member.sum()) != kept:
        # no ranking's top-k can equal the baseline set
        return [True] * trials
    index = list(weights).index(payload.attribute)
    rows = _candidate_rows(
        columns, list(weights.values()), index,
        float(np.max(np.abs(deltas), initial=0.0)),
        any_missing, scorer.missing_policy, member,
    )
    if rows is not None:
        columns = [values[rows] for values in columns]
        any_missing = any_missing[rows]
        member = member[rows]
    scores = _accumulate_scores(columns, matrix, any_missing, scorer.missing_policy)
    return (~_top_set_kept(_rank_keys(scores), member)).tolist()


# -- dispatch ------------------------------------------------------------------

#: scalar trial function -> (payload type, batch kernel)
_KERNELS: dict[Callable, tuple[type, Callable]] = {
    _perturbation_trial: (PerturbationTrialPayload, run_perturbation_kernel),
    _uncertainty_trial: (UncertaintyTrialPayload, run_uncertainty_kernel),
    _attribute_trial: (AttributeTrialPayload, run_attribute_kernel),
}


def kernel_for(fn: Callable) -> Callable | None:
    """The batch kernel registered for a scalar trial function, if any."""
    entry = _KERNELS.get(fn)
    return entry[1] if entry else None


def dispatch_kernel(
    fn: Callable, payload: Any, trials: int, start: int = 0
) -> tuple[list | None, str | None]:
    """Run the batch kernel for ``(fn, payload)``: ``(results, None)``.

    Returns ``(None, reason)`` when no kernel matches or the matching
    kernel declines the payload — the caller must then run the scalar
    path, which either produces the identical results or raises the
    error the kernel could not reproduce.  ``start`` offsets the trial
    indices, so a cluster worker can vectorize the span
    ``[start, start + trials)`` of a sharded batch.
    """
    entry = _KERNELS.get(fn)
    if entry is None:
        name = getattr(fn, "__name__", repr(fn))
        return None, f"no vectorized kernel for trial function {name!r}"
    payload_type, kernel = entry
    if not isinstance(payload, payload_type):
        return None, (
            f"payload {type(payload).__name__} does not match "
            f"{payload_type.__name__}"
        )
    try:
        return kernel(payload, trials, start), None
    except _KernelFallback as fallback:
        return None, str(fallback)
    except Exception as exc:  # the scalar rerun reproduces or explains it
        return None, f"kernel error ({type(exc).__name__}: {exc})"
