"""Reference implementations that rewritten fast paths must match exactly.

Each is the plain version a faster one replaced, kept verbatim so the
differential tests and the kernel benchmarks compare against the same
oracle.  Only numpy and the package's public functions are used, so
the benchmark job can import this module without the test extras.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.fair_star.adjustment import compute_fail_probability


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
