"""Vectorized Monte-Carlo trial kernels: a whole trial batch as array ops.

A scalar trial of the stability estimators
(:mod:`repro.stability.perturbation`, :mod:`~repro.stability.uncertainty`,
:mod:`~repro.stability.per_attribute`) would re-rank the table once per
trial: materialize a scored :class:`~repro.ranking.ranker.Ranking`
(``Table.take`` over every column), convert ids to Python lists, and
compare via per-item dict lookups.  That per-trial interpretation
overhead is exactly what columnar engines avoid by batching — and these
kernels apply the same discipline to the stability widget's hot loop:

- the design matrix ``X (n_rows x n_attrs)`` is pulled from the table
  **once**;
- all ``T`` jitter/noise draws come from the unchanged per-trial RNG
  streams (``trial_rng(seed, trial)``), so results stay reproducible;
- the score matrix is **trial-major**: a C-contiguous ``(T x n)``
  array, one row per trial, accumulated **per attribute in the
  scorer's declaration order** — the identical sequence of IEEE
  operations :meth:`LinearScoringFunction.score_table` performs, so
  every score is byte-identical to the scalar path's;
- the perturbation and uncertainty kernels hand the whole matrix to one
  compiled, GIL-releasing C pass (``rank_movement_batch`` in
  :mod:`repro._native`): per trial it merge-sorts the rows in baseline
  order by (sort key, row) — a stable argsort's order — and reads the
  Kendall discordant pairs off the inversions it meets and the top-k
  overlap off the first ``k`` sorted rows.  No ``Table`` is constructed,
  no dict is consulted and no ``(T x n)`` order or position array is
  built.  When the library did not load (``repro._native.movement is
  None``; ``repro._native.reason`` says why), the same numbers come from
  a numpy stable argsort along each row and the inversion count of
  :func:`repro.ranking.compare.count_inversions_batch`;
- the per-attribute kernel needs only one bit per trial ("did the top-k
  set change?"), so it never sorts: it first prunes the rows that can
  never reach the top-k, then decides each trial with two reductions
  along its row (see :func:`run_attribute_kernel`).

**One trial contract.**  Each kernel is the trial function itself:
``kernel(payload, trials, start) -> list`` computes trials
``[start, start + trials)``, and every backend runs trial batches
through :func:`dispatch_kernel`.  Its results are byte-identical to the
per-trial scalar path the kernels replaced, which lives on as the test
oracle (``tests/oracles.py``).  A payload that path could not rank
raises that path's own error, with the same type and message: a missing
or duplicate item id, an unusable scoring or noisy attribute, an
all-zero weight draw.  A scorer that is not exactly a
:class:`~repro.ranking.scoring.LinearScoringFunction` (a subclass may
override ``score_table``) and a payload whose baseline disagrees with
its own table raise :class:`~repro.errors.StabilityError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro import _native
from repro.errors import RankingError, StabilityError, WeightError
from repro.ranking.compare import count_inversions_batch, kendall_tau_from_discordant
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.montecarlo import trial_rng
from repro.tabular.table import Table

if TYPE_CHECKING:  # the estimators import the kernels; keep the reverse static
    from repro.stability.per_attribute import AttributeTrialPayload
    from repro.stability.perturbation import PerturbationTrialPayload
    from repro.stability.uncertainty import UncertaintyTrialPayload

__all__ = [
    "dispatch_kernel",
    "require_plain_linear_scorer",
    "run_perturbation_kernel",
    "run_uncertainty_kernel",
    "run_attribute_kernel",
]


def require_plain_linear_scorer(scorer: object) -> LinearScoringFunction:
    """``scorer``, if its type is exactly :class:`LinearScoringFunction`.

    An exact type check: a subclass may override ``score_table``, and
    the kernels' accumulation would silently diverge from it.
    """
    if type(scorer) is not LinearScoringFunction:
        raise StabilityError(
            f"scorer {type(scorer).__name__} is not a plain LinearScoringFunction"
        )
    return scorer  # type: ignore[return-value]


def _refuse_invalid_draws(scorer: LinearScoringFunction, matrix: np.ndarray) -> None:
    """Raise the scalar path's ``WeightError`` if a trial drew invalid weights.

    ``matrix[a, t]`` is attribute ``a``'s weight in trial ``t``.  A trial
    whose weights are all zero, or not all finite, is no scorer:
    rebuilding the first such trial's scorer raises exactly what the
    scalar trial raised.
    """
    invalid = ~np.isfinite(matrix).all(axis=0) | (matrix == 0.0).all(axis=0)
    if invalid.any():
        trial = int(np.argmax(invalid))
        scorer.with_weights(dict(zip(scorer.weights, matrix[:, trial].tolist())))


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
        values = table.numeric_column(attr).values.copy()
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
    """The trial-major ``(T x n)`` score matrix, accumulated like ``score_table``.

    ``weight_matrix[a, t]`` is attribute ``a``'s weight in trial ``t``.
    Accumulation runs attribute-by-attribute in declaration order, so
    each element sees the same ``((0 + w1*x1) + w2*x2) + ...`` sequence
    as the scalar path — byte-identical floats.
    """
    n = columns[0].shape[0] if columns else 0
    scores = np.zeros((weight_matrix.shape[1], n), dtype=np.float64)
    for index, values in enumerate(columns):
        scores += values[None, :] * weight_matrix[index][:, None]
    if missing_policy == "propagate":
        scores[:, any_missing] = np.nan
    return scores


def _rank_keys(scores: np.ndarray) -> np.ndarray:
    """Ascending sort keys exactly like ``Ranking.from_scores``."""
    keys = -scores
    keys[np.isnan(keys)] = np.inf  # NaN scores sort last
    return keys


def _baseline_order(table: Table, scorer: LinearScoringFunction) -> np.ndarray:
    """Row indices of the unperturbed ranking, best first."""
    return np.argsort(_rank_keys(scorer.score_table(table)), kind="stable")


def _unique_ids(table: Table, id_column: str) -> list:
    """The item ids, raising what ranking and comparing by them raises."""
    if id_column not in table:
        raise RankingError(f"id column {id_column!r} not in table")
    ids = list(table.column(id_column).values)
    if len(set(ids)) != len(ids):
        raise RankingError("rank comparison requires unique item ids")
    return ids


def _verified_baseline(
    payload, ids: list, base_order: np.ndarray, k: int
) -> None:
    """Refuse what the movement metrics refuse, then a baseline that lies.

    Too few items and ``k < 1`` raise the ``RankingError`` of
    ``kendall_tau_ids`` and ``top_k_overlap_ids``, in that order; a
    payload whose baseline disagrees with its own table raises
    ``StabilityError``, since the kernel reads the baseline off the table.
    """
    n = len(ids)
    if n < 2:
        raise RankingError(
            f"rank comparison needs at least 2 common items, found {n}"
        )
    if k < 1:
        raise RankingError(f"top_k_overlap needs k >= 1, got {k}")
    if tuple(ids[row] for row in base_order) != tuple(payload.baseline_ids):
        raise StabilityError(
            "payload baseline_ids do not match the table's own ranking"
        )
    if set(payload.baseline_ids[:k]) != set(payload.baseline_top):
        raise StabilityError("payload baseline_top does not match baseline_ids")


def _movement_outcomes(
    base_order: np.ndarray, scores: np.ndarray, k: int
) -> list[tuple[float, float, bool]]:
    """Per-trial (tau, overlap, changed) of the ``(T x n)`` scores.

    Exactly the metrics ``kendall_tau_ids`` / ``top_k_overlap_ids`` /
    the top-set comparison produce, computed without ids: discordant
    pairs are the inversions of the trial's ranking read in baseline
    order, overlap is a prefix membership count.  The compiled
    ``rank_movement_batch`` computes both in one pass per trial; the
    numpy path below is its fallback and its oracle.
    """
    trials, n = scores.shape
    keys = _rank_keys(scores)
    kept = min(k, n)
    movement = _native.movement
    if movement is not None:
        top = np.zeros(n, dtype=np.uint8)
        top[base_order[:kept]] = 1
        discordant = np.empty(trials, dtype=np.int64)
        counts = np.empty(trials, dtype=np.int64)
        movement(
            keys, trials, n, np.ascontiguousarray(base_order, dtype=np.int64),
            top, kept, discordant, counts,
            np.empty(2 * n, np.float64), np.empty(2 * n, np.int64),
        )
    else:
        orders = np.argsort(keys, axis=1, kind="stable")
        positions = np.empty_like(orders)
        np.put_along_axis(
            positions, orders, np.broadcast_to(np.arange(n), orders.shape), axis=1
        )
        # positions of the baseline's items, in baseline order: one
        # permutation per trial whose inversions are the discordant pairs
        discordant = count_inversions_batch(positions[:, base_order])
        counts = (positions[:, base_order[:kept]] < kept).sum(axis=1)
    outcomes: list[tuple[float, float, bool]] = []
    for t in range(trials):
        tau = kendall_tau_from_discordant(int(discordant[t]), n)
        overlap = int(counts[t]) / kept
        outcomes.append((tau, overlap, bool(counts[t] != kept)))
    return outcomes


# -- weight perturbation -------------------------------------------------------


def _jitter_weight_matrix(
    scorer: LinearScoringFunction, epsilon: float, seed: int, trials: int,
    start: int = 0,
) -> np.ndarray:
    """All T perturbed weight vectors, drawn exactly like the scalar jitter.

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
    """Weight-jitter trials ``[start, start + trials)``: per trial the
    (Kendall tau, top-k overlap, top-k set changed) of the re-ranking."""
    scorer = require_plain_linear_scorer(payload.scorer)
    table = payload.table
    weight_matrix = _jitter_weight_matrix(
        scorer, payload.epsilon, payload.seed, trials, start
    )
    _refuse_invalid_draws(scorer, weight_matrix)
    base_order = _baseline_order(table, scorer)
    ids = _unique_ids(table, payload.id_column)
    _verified_baseline(payload, ids, base_order, payload.k)
    columns, any_missing = _design_matrix(table, scorer)
    scores = _accumulate_scores(
        columns, weight_matrix, any_missing, scorer.missing_policy
    )
    return _movement_outcomes(base_order, scores, payload.k)


# -- data uncertainty ----------------------------------------------------------


def _noise_matrices(
    payload: UncertaintyTrialPayload, trials: int, start: int = 0
) -> dict[str, np.ndarray]:
    """Per-attribute ``(T x n)`` noise, drawn exactly like the scalar noisy table.

    Trial ``t`` consumes ``trial_rng(seed, start + t)`` with one ``normal``
    batch per noisy attribute in ``attribute_stds`` order (skipping
    zero-std attributes), each sized to the attribute's non-missing
    count — the scalar draw sequence, reproduced.  Repeated attributes
    overwrite (the scalar path re-reads the *original* column), and
    attributes outside the scoring set still consume their draws.
    """
    table = payload.table
    scoring = set(payload.scorer.attributes())
    #: per noisy attribute, its non-missing rows: where a draw lands
    present: dict[str, np.ndarray] = {}
    for attr, std in payload.attribute_stds:
        if std == 0.0 or attr in present:
            continue
        values = table.numeric_column(attr).values
        present[attr] = np.flatnonzero(~np.isnan(values))
    n = table.num_rows
    noise = {
        attr: np.zeros((trials, n), dtype=np.float64)
        for attr in present
        if attr in scoring
    }
    for t in range(trials):
        rng = trial_rng(payload.seed, start + t)
        for attr, std in payload.attribute_stds:
            if std == 0.0:
                continue
            rows = present[attr]
            draw = rng.normal(0.0, payload.epsilon * std, size=rows.size)
            matrix = noise.get(attr)
            if matrix is None:
                continue  # draw consumed, column never scored
            matrix[t, rows] = draw  # assignment: repeats overwrite
    return noise


def run_uncertainty_kernel(
    payload: UncertaintyTrialPayload, trials: int, start: int = 0
) -> list[tuple[float, float, bool]]:
    """Attribute-noise trials ``[start, start + trials)``: per trial the
    (Kendall tau, top-k overlap, top-k set changed) of the re-ranking."""
    scorer = require_plain_linear_scorer(payload.scorer)
    table = payload.table
    noise = _noise_matrices(payload, trials, start)
    base_order = _baseline_order(table, scorer)
    ids = _unique_ids(table, payload.id_column)
    _verified_baseline(payload, ids, base_order, payload.k)
    n = table.num_rows
    scores = np.zeros((trials, n), dtype=np.float64)
    any_missing = np.zeros(n, dtype=bool)
    for attr, weight in scorer.weights.items():
        column = table.numeric_column(attr).values
        missing = np.isnan(column)
        any_missing |= missing
        if attr in noise:
            # in place: the noise matrix becomes weight * (column + noise)
            values = noise[attr]
            values += column[None, :]
            values[:, missing] = 0.0
            values *= weight
            scores += values
        else:
            values = column.copy()
            values[missing] = 0.0
            scores += weight * values[None, :]
    if scorer.missing_policy == "propagate":
        scores[:, any_missing] = np.nan
    return _movement_outcomes(base_order, scores, payload.k)


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
    the smallest row.  Two row reductions of the ``(T x n)`` keys decide
    it; nothing sorts.
    """
    others = ~member
    if not others.any():
        return np.ones(keys.shape[0], dtype=bool)
    member_keys = keys[:, member]
    other_keys = keys[:, others]
    worst = member_keys.max(axis=1)
    best = other_keys.min(axis=1)
    kept = worst < best
    tied = np.flatnonzero(worst == best)
    if tied.size:
        member_rows = np.flatnonzero(member)[None, :]
        other_rows = np.flatnonzero(others)[None, :]
        worst_row = np.where(
            member_keys[tied] == worst[tied, None], member_rows, -1
        ).max(axis=1)
        best_row = np.where(
            other_keys[tied] == best[tied, None], other_rows, keys.shape[1]
        ).min(axis=1)
        kept[tied] = worst_row < best_row
    return kept


def run_attribute_kernel(
    payload: AttributeTrialPayload, trials: int, start: int = 0
) -> list[bool]:
    """Single-weight-jitter trials ``[start, start + trials)``: per trial,
    whether the top-k id set changed.

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
    scorer = require_plain_linear_scorer(payload.scorer)
    table = payload.table
    weights = scorer.weights
    if payload.attribute not in weights:
        raise WeightError(
            f"perturbed() got unknown attribute(s): {payload.attribute}"
        )
    if payload.k < 1:  # per_attribute_stability's own check
        raise StabilityError(f"k must be >= 1, got {payload.k}")
    n = table.num_rows
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
    _refuse_invalid_draws(scorer, matrix)
    table.require_rows(1)
    columns, any_missing = _design_matrix(table, scorer)
    if payload.id_column is None:
        # positional ids: every ranking's top-k id set is {1..min(k, n)},
        # so the change flag is one table-independent set comparison
        top = set(range(1, min(payload.k, n) + 1))
        return [bool(top != set(payload.baseline_top))] * trials
    ids = _unique_ids(table, payload.id_column)
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


def dispatch_kernel(
    fn: Callable[[Any, int, int], list], payload: Any, trials: int, start: int = 0
) -> list:
    """Run trials ``[start, start + trials)`` of the batch trial function ``fn``.

    The one call every trial batch goes through, on every backend and
    with no backend at all, so a single wrapper here times every kernel
    run.  ``start`` offsets the trial indices, so a cluster worker
    computes the span of a sharded batch at its absolute positions.
    """
    return fn(payload, trials, start)
