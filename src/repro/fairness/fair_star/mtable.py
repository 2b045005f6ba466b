"""The FA*IR mtable: minimum protected counts per prefix.

A prefix of size ``i`` with ``t`` protected items satisfies the *fair
representation condition* at significance ``alpha`` when the binomial
CDF ``F(t; i, p)`` exceeds ``alpha`` — i.e. ``t`` is not in the lower
``alpha`` tail of what a group-blind process would produce.  The mtable
``m(i)`` is the smallest passing ``t`` for each ``i`` from 1 to k; a
ranking satisfies *ranked group fairness* when every prefix count
reaches its mtable entry.

:func:`minimum_protected_table` and the bisection in
:func:`~repro.fairness.fair_star.adjustment.adjust_alpha` build their
tables through one loop, :func:`_table_from_cdf`, which reads ``F``
through a lookup.  Here the lookup calls ``binom_cdf`` directly; the
bisection passes a memo of ``F(t; i, p)`` per ``(t, i)``, since ``F``
does not depend on ``alpha`` and its ~23 steps revisit the same cells.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import FairnessConfigError
from repro.stats.distributions import binom_cdf

__all__ = ["required_at", "minimum_protected_table"]


def _validate(k: int, p: float, alpha: float) -> None:
    if k < 1:
        raise FairnessConfigError(f"prefix length k must be >= 1, got {k}")
    if not 0.0 < p < 1.0:
        raise FairnessConfigError(f"proportion p must be inside (0, 1), got {p}")
    if not 0.0 < alpha < 1.0:
        raise FairnessConfigError(f"alpha must be inside (0, 1), got {alpha}")


def required_at(i: int, p: float, alpha: float) -> int:
    """m(i): the minimum protected count a prefix of size ``i`` needs.

    The smallest integer ``t`` with ``binom_cdf(t, i, p) > alpha``
    (so observing ``t - 1`` or fewer would fall in the rejection tail).

    >>> required_at(10, 0.5, 0.1)  # doctest: +SKIP
    2
    """
    _validate(i, p, alpha)
    for t in range(0, i + 1):
        if binom_cdf(t, i, p) > alpha:
            return t
    return i  # unreachable: cdf(i) == 1 > alpha


def minimum_protected_table(k: int, p: float, alpha: float) -> np.ndarray:
    """The mtable ``[m(1), ..., m(k)]`` as an int array (index 0 = prefix 1).

    Computed in one pass: ``m(i)`` is non-decreasing in ``i`` and grows
    by at most 1 per step, so each entry starts the CDF search where the
    previous one ended instead of from zero.
    """
    _validate(k, p, alpha)
    return _table_from_cdf(k, alpha, lambda t, i: binom_cdf(t, i, p))


def _table_from_cdf(
    k: int, alpha: float, cdf: Callable[[int, int], float]
) -> np.ndarray:
    """The mtable loop over a CDF lookup ``cdf(t, i) = F(t; i, p)``.

    The caller validates ``k``, ``p`` and ``alpha``.
    """
    table = np.zeros(k, dtype=np.int64)
    current = 0
    for i in range(1, k + 1):
        # m(i) >= m(i-1): a longer prefix never needs fewer protected items
        while cdf(current, i) <= alpha:
            current += 1
        table[i - 1] = current
    return table
