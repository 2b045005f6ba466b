"""FA*IR's multiple-testing correction (model adjustment).

Ranked group fairness tests *every* prefix of the top-k, so a naive
per-prefix significance ``alpha`` makes the overall test reject far too
often: a perfectly fair ranking only has to dip below the threshold at
one of k chances.  [14] fixes this by finding the *adjusted*
significance ``alpha_c`` whose overall failure probability equals the
target ``alpha``.

:func:`compute_fail_probability` evaluates the overall failure
probability exactly with a dynamic program over prefix states, and
:func:`adjust_alpha` inverts it by bisection.  The A2 benchmark
measures the realized type-I error with and without this correction.

``alpha_c`` depends on ``(k, p, alpha)`` only, and none of them on a
scoring design's weights: ``p`` is the protected group's share of the
whole table and ``k`` and ``alpha`` are fixed by the design.  So
:func:`adjust_alpha` keeps two memos, neither of which changes a float:

- within one call, ``F(t; i, p)`` per ``(t, i)``, shared by the
  bisection's ~23 mtables (``F`` does not depend on the level tried);
- across calls, the result itself, process-wide and bounded
  (:data:`ADJUST_ALPHA_CACHE_SIZE` entries), so re-weighting a ranking
  of the same table does not redo the search.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import FairnessConfigError
from repro.fairness.fair_star.mtable import (
    _table_from_cdf,
    _validate,
    minimum_protected_table,
)
from repro.stats.distributions import binom_cdf

__all__ = ["fail_probability_of_mtable", "compute_fail_probability", "adjust_alpha"]

#: Results :func:`adjust_alpha` keeps, least recently used evicted first
ADJUST_ALPHA_CACHE_SIZE = 1024


def fail_probability_of_mtable(mtable: np.ndarray, p: float) -> float:
    """P[a Bernoulli(p) ranking violates ``mtable`` at some prefix].

    Exact dynamic program: ``state[c]`` is the probability of having
    ``c`` protected items after the current prefix *and* having passed
    every mtable entry so far.  Each step convolves with one Bernoulli
    draw and zeroes the states below the next requirement; the zeroed
    mass is exactly the newly-failing probability.
    """
    if not 0.0 < p < 1.0:
        raise FairnessConfigError(f"proportion p must be inside (0, 1), got {p}")
    m = np.asarray(mtable, dtype=np.int64)
    if m.ndim != 1 or m.size == 0:
        raise FairnessConfigError("mtable must be a non-empty 1-d array")
    k = m.size
    state = np.zeros(k + 1, dtype=np.float64)
    state[0] = 1.0
    survived = np.float64(1.0)
    for i in range(1, k + 1):
        new_state = np.zeros(k + 1, dtype=np.float64)
        new_state[1:] = state[:-1] * p  # protected item drawn
        new_state[: i] += state[: i] * (1.0 - p)  # non-protected item drawn
        required = int(m[i - 1])
        if required > 0:
            new_state[:required] = 0.0
        state = new_state
        survived = state.sum()
    return float(max(0.0, 1.0 - survived))


def compute_fail_probability(k: int, p: float, alpha: float) -> float:
    """Overall probability that a fair ranking fails the per-prefix test.

    Builds the mtable for per-prefix significance ``alpha`` and runs the
    exact DP.  This is the quantity the adjustment drives down to the
    target significance.
    """
    mtable = minimum_protected_table(k, p, alpha)
    return fail_probability_of_mtable(mtable, p)


@functools.lru_cache(maxsize=ADJUST_ALPHA_CACHE_SIZE)
def adjust_alpha(
    k: int,
    p: float,
    alpha: float,
    tolerance: float = 1e-8,
    max_iterations: int = 64,
) -> float:
    """The adjusted per-prefix significance ``alpha_c``.

    Finds (by bisection) the largest per-prefix level whose overall
    failure probability does not exceed ``alpha``.  The failure
    probability is a step function of the per-prefix level (it only
    changes when the mtable changes), so the result is conservative:
    ``compute_fail_probability(k, p, adjust_alpha(k, p, alpha)) <= alpha``.

    Parameters
    ----------
    k, p, alpha:
        Prefix length, protected proportion, target overall significance.
    tolerance:
        Bisection interval width at which to stop.
    max_iterations:
        Hard cap on bisection steps (64 is far beyond float precision).

    Every step evaluates what :func:`compute_fail_probability` would,
    reading ``F(t; i, p)`` from a memo filled on first use.  Results are
    cached (a raised error is not), so the arguments must be hashable.
    """
    if not 0.0 < alpha < 1.0:
        raise FairnessConfigError(f"alpha must be inside (0, 1), got {alpha}")
    _validate(k, p, alpha)
    cdf = functools.cache(lambda t, i: binom_cdf(t, i, p))

    def fail_probability(level: float) -> float:
        return fail_probability_of_mtable(_table_from_cdf(k, level, cdf), p)

    if fail_probability(alpha) <= alpha:
        # no correction needed (small k / extreme p can be under-powered)
        return alpha
    lo, hi = 0.0, alpha  # fail prob at lo=0 is 0 (mtable all zeros)
    for _ in range(max_iterations):
        if hi - lo <= tolerance:
            break
        mid = (lo + hi) / 2.0
        if mid == 0.0:
            break
        if fail_probability(mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo
