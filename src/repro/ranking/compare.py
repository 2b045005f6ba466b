"""Distances and agreement measures between two rankings.

The perturbation-based stability estimators (paper §2.2's "alternatively,
stability can be computed ...") quantify how far a ranking moves when
weights or data are jittered.  These functions are the movement metrics:
Kendall tau / Kendall distance over the common items, Spearman footrule,
maximum rank displacement, and set overlap of the top-k.

Three tiers of the same metrics coexist, ordered by how much structure
the caller already has in hand:

- **Ranking-based** (:func:`kendall_tau_rankings`, ...) — the friendly
  API over :class:`~repro.ranking.ranker.Ranking` objects;
- **id-based** (:func:`kendall_tau_ids`, :func:`top_k_overlap_ids`) —
  over plain item-id sequences, which is what the Monte-Carlo trial
  payloads ship across process boundaries;
- **index-based** (:func:`kendall_tau_positions`,
  :func:`top_k_overlap_positions`, :func:`count_inversions`,
  :func:`count_inversions_batch`) — over integer permutation arrays:
  no id lists, no dict lookups, inversions counted by a compiled merge
  sort (or its numpy fallback).  The vectorized trial kernels
  (:mod:`repro.stability.kernels`) go one step further and fuse the
  sort and the count in C; this tier is their fallback when the
  library did not load.  For tie-free rankings the three tiers return
  byte-identical floats.
"""

from __future__ import annotations

import numpy as np

from repro import _native
from repro.errors import RankingError
from repro.ranking.ranker import Ranking
from repro.stats.correlation import kendall_tau

__all__ = [
    "kendall_tau_rankings",
    "kendall_tau_ids",
    "kendall_tau_positions",
    "kendall_tau_from_discordant",
    "count_inversions",
    "count_inversions_batch",
    "kendall_distance",
    "spearman_footrule",
    "rank_displacement",
    "top_k_overlap",
    "top_k_overlap_ids",
    "top_k_overlap_positions",
    "top_k_jaccard",
    "rank_biased_overlap",
]


def _common_rank_vectors(a: Ranking, b: Ranking) -> tuple[list[int], list[int]]:
    """Ranks in ``a`` and ``b`` of the items present in both (by item id)."""
    return _common_ranks_from_ids(a.item_ids(), b.item_ids())


def _common_ranks_from_ids(ids_a, ids_b) -> tuple[list[int], list[int]]:
    """Rank vectors over the common items of two id sequences."""
    if len(set(ids_a)) != len(ids_a) or len(set(ids_b)) != len(ids_b):
        raise RankingError("rank comparison requires unique item ids")
    pos_b = {item: i + 1 for i, item in enumerate(ids_b)}
    ranks_a: list[int] = []
    ranks_b: list[int] = []
    for i, item in enumerate(ids_a):
        if item in pos_b:
            ranks_a.append(i + 1)
            ranks_b.append(pos_b[item])
    if len(ranks_a) < 2:
        raise RankingError(
            f"rank comparison needs at least 2 common items, found {len(ranks_a)}"
        )
    return ranks_a, ranks_b


def kendall_tau_rankings(a: Ranking, b: Ranking) -> float:
    """Kendall tau-b between two rankings over their common items.

    1.0 means identical order, -1.0 fully reversed.
    """
    return kendall_tau_ids(a.item_ids(), b.item_ids())


def kendall_tau_ids(ids_a, ids_b) -> float:
    """:func:`kendall_tau_rankings` over plain item-id sequences.

    The id-sequence form is what the Monte-Carlo trial payloads carry
    across process boundaries — a baseline's ids pickle in bytes where
    its full :class:`Ranking` would re-ship the whole table.
    """
    ranks_a, ranks_b = _common_ranks_from_ids(ids_a, ids_b)
    return kendall_tau(ranks_a, ranks_b)


def kendall_distance(a: Ranking, b: Ranking, normalized: bool = True) -> float:
    """Number of discordant pairs between the two rankings.

    With ``normalized=True`` the count is divided by the number of item
    pairs, giving a value in [0, 1] (0 = identical order).
    """
    ranks_a, ranks_b = _common_rank_vectors(a, b)
    n = len(ranks_a)
    discordant = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            if (ranks_a[i] - ranks_a[j]) * (ranks_b[i] - ranks_b[j]) < 0:
                discordant += 1
    if not normalized:
        return float(discordant)
    pairs = n * (n - 1) // 2
    return discordant / pairs


def spearman_footrule(a: Ranking, b: Ranking, normalized: bool = True) -> float:
    """Total absolute rank displacement of common items.

    Normalization divides by the maximum possible footrule distance for
    ``n`` items (``n^2/2`` for even n, ``(n^2-1)/2`` for odd), mapping
    into [0, 1].
    """
    ranks_a, ranks_b = _common_rank_vectors(a, b)
    total = float(sum(abs(x - y) for x, y in zip(ranks_a, ranks_b)))
    if not normalized:
        return total
    n = len(ranks_a)
    max_footrule = (n * n) / 2.0 if n % 2 == 0 else (n * n - 1) / 2.0
    return total / max_footrule


def rank_displacement(a: Ranking, b: Ranking) -> int:
    """The largest rank change of any common item (0 = no item moved)."""
    ranks_a, ranks_b = _common_rank_vectors(a, b)
    return int(max(abs(x - y) for x, y in zip(ranks_a, ranks_b)))


def top_k_overlap(a: Ranking, b: Ranking, k: int) -> float:
    """Fraction of ``a``'s top-k that also appears in ``b``'s top-k."""
    return top_k_overlap_ids(a.item_ids(), b.item_ids(), k)


def top_k_overlap_ids(ids_a, ids_b, k: int) -> float:
    """:func:`top_k_overlap` over plain item-id sequences."""
    if k <= 0:
        raise RankingError(f"top_k_overlap needs k >= 1, got {k}")
    top_a = set(ids_a[:k])
    top_b = set(ids_b[:k])
    if not top_a:
        return 0.0
    return len(top_a & top_b) / len(top_a)


def count_inversions_batch(sequences: np.ndarray) -> np.ndarray:
    """Inversions of each row of a ``(trials, n)`` integer array.

    An inversion is a pair ``i < j`` with ``row[i] > row[j]`` (ties are
    not inversions).  For a permutation row holding, per baseline
    position, the item's position in a re-ranking, the inversion count
    is exactly the discordant-pair count between the two rankings —
    which is why the vectorized stability kernels fall back on it when
    their fused compiled pass is unavailable.

    The rows are validated and rank-coded here, then counted by the
    compiled C merge sort in :mod:`repro._native` when it loaded (it
    releases the GIL while it runs), or else by the numpy merge in
    :func:`_count_inversions_numpy`.  Both give the same counts;
    ``repro._native.kernel is None`` means the numpy merge is active,
    and ``repro._native.reason`` says why.
    """
    arr = np.asarray(sequences)
    if arr.ndim != 2:
        raise RankingError(
            f"count_inversions_batch expects a (trials, n) array, got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise RankingError(
            f"count_inversions_batch expects integer sequences, got dtype {arr.dtype}"
        )
    trials, n = arr.shape
    if n < 2:
        return np.zeros(trials, dtype=np.int64)
    # the offset keys and padding below only need values in [0, n) —
    # true already for the kernels' permutation rows; anything else is
    # rank-transformed per row (ties keep equal codes)
    if arr.size and int(arr.min()) >= 0 and int(arr.max()) < n:
        codes = arr.astype(np.int64, copy=False)
    else:
        codes = np.empty((trials, n), dtype=np.int64)
        for row in range(trials):
            _, codes[row] = np.unique(arr[row], return_inverse=True)
    kernel = _native.kernel
    if kernel is None:
        return _count_inversions_numpy(codes)
    codes = np.ascontiguousarray(codes)
    out = np.empty(trials, dtype=np.int64)
    kernel(codes, trials, n, out, np.empty(n, np.int64), np.empty(n, np.int64))
    return out


def _count_inversions_numpy(codes: np.ndarray) -> np.ndarray:
    """Row inversions of ``(trials, n)`` int64 codes in ``[0, n)``, ``n >= 2``.

    The numpy fallback of :func:`count_inversions_batch`, and the oracle
    its compiled kernel is tested against.  A bottom-up merge sort over
    *all rows at once*: each level sorts within blocks via one
    offset-keyed stable argsort and reads the cross-block inversions off
    the merged positions, so the total work is
    ``O(trials * n log^2 n)`` array operations with no per-element
    Python.
    """
    trials, n = codes.shape
    # pad to a power of two with a value above every code; pads form a
    # suffix and stay one after sorting, so they never add inversions
    size = 1 << (n - 1).bit_length()
    if size > n:
        working = np.concatenate(
            [codes, np.full((trials, size - n), n, dtype=np.int64)], axis=1
        )
    else:
        working = codes
    inversions = np.zeros(trials, dtype=np.int64)
    positions = np.arange(size)
    stride = n + 1  # exceeds every code, keeping block key ranges disjoint
    width = 1
    while width < size:
        span = 2 * width
        block = positions // span
        order = np.argsort(working + (block * stride)[None, :], axis=1, kind="stable")
        merged = np.empty_like(order)
        np.put_along_axis(
            merged, order, np.broadcast_to(positions[None, :], (trials, size)), axis=1
        )
        # for the element at right-half position p (index i within its
        # half), merged[p] - block_start - i counts the left-half values
        # <= it; the remainder of the left half is inverted with it
        right = (positions % span) >= width
        index_in_right = (positions % span)[right] - width
        below = merged[:, right] - (block * span)[right][None, :] - index_in_right[None, :]
        inversions += (width - below).sum(axis=1)
        working = np.take_along_axis(working, order, axis=1)
        width = span
    return inversions


def count_inversions(sequence) -> int:
    """Number of out-of-order pairs in one integer sequence."""
    arr = np.asarray(sequence)
    if arr.ndim != 1:
        raise RankingError(
            f"count_inversions expects a 1-d sequence, got shape {arr.shape}"
        )
    if arr.size < 2:
        return 0
    return int(count_inversions_batch(arr[None, :])[0])


def kendall_tau_from_discordant(discordant: int, n: int) -> float:
    """Kendall tau of two tie-free rankings from their discordant-pair count.

    Byte-identical to :func:`~repro.stats.correlation.kendall_tau` on
    the corresponding rank vectors: the same integer counts feed the
    same float expressions, so the vectorized stability kernels can
    replace the pairwise enumeration without changing a single bit of
    the label.
    """
    if n < 2:
        raise RankingError(
            f"rank comparison needs at least 2 common items, found {n}"
        )
    pairs = n * (n - 1) // 2
    if not 0 <= discordant <= pairs:
        raise RankingError(
            f"discordant count {discordant} outside [0, {pairs}] for n={n}"
        )
    concordant = pairs - discordant
    denom = float(np.sqrt((concordant + discordant) * (concordant + discordant)))
    if denom == 0.0:
        return 0.0
    tau = (concordant - discordant) / denom
    return max(-1.0, min(1.0, tau))


def kendall_tau_positions(positions) -> float:
    """:func:`kendall_tau_ids` when the re-ranked positions are in hand.

    ``positions[i]`` is the position (0- or 1-based — inversions do not
    care) that the baseline's rank-``i`` item took in the re-ranking.
    This is the index-based form the vectorized kernels produce straight
    from argsorted score matrices, skipping id lists and dict lookups.
    """
    arr = np.asarray(positions)
    if arr.ndim != 1:
        raise RankingError(
            f"kendall_tau_positions expects a 1-d sequence, got shape {arr.shape}"
        )
    if np.unique(arr).size != arr.size:
        raise RankingError("rank comparison requires distinct positions")
    return kendall_tau_from_discordant(count_inversions(arr), int(arr.size))


def top_k_overlap_positions(positions, k: int) -> float:
    """:func:`top_k_overlap_ids` over a 0-based position vector.

    ``positions[i]`` is the 0-based re-ranked position of the baseline's
    ``i``-th item; an item stayed in the top-k exactly when its position
    is below ``k``.
    """
    if k <= 0:
        raise RankingError(f"top_k_overlap needs k >= 1, got {k}")
    arr = np.asarray(positions)
    kept = min(k, arr.size)
    if kept == 0:
        return 0.0
    return int((arr[:kept] < k).sum()) / kept


def rank_biased_overlap(a: Ranking, b: Ranking, p: float = 0.9) -> float:
    """Rank-biased overlap (RBO) of two rankings, in [0, 1].

    Webber et al.'s top-weighted agreement measure: the expected overlap
    of the two prefixes at a geometrically distributed depth.  ``p``
    controls top-weightedness (0.9 puts ~86% of the weight on the first
    10 ranks).  This is the extrapolated ("RBO_ext") point estimate over
    the evaluated depths, which equals the exact RBO when both rankings
    contain the same items.

    Unlike the Kendall metrics, RBO is defined for rankings over
    different item sets, which is what the perturbation-stability view
    needs when comparing top fragments.
    """
    if not 0.0 < p < 1.0:
        raise RankingError(f"RBO persistence p must be inside (0, 1), got {p}")
    ids_a = a.item_ids()
    ids_b = b.item_ids()
    if len(set(ids_a)) != len(ids_a) or len(set(ids_b)) != len(ids_b):
        raise RankingError("rank comparison requires unique item ids")
    depth = min(len(ids_a), len(ids_b))
    if depth == 0:
        raise RankingError("RBO needs non-empty rankings")
    seen_a: set = set()
    seen_b: set = set()
    overlap = 0
    weighted_sum = 0.0
    for d in range(1, depth + 1):
        item_a, item_b = ids_a[d - 1], ids_b[d - 1]
        if item_a == item_b:
            overlap += 1
        else:
            if item_a in seen_b:
                overlap += 1
            if item_b in seen_a:
                overlap += 1
        seen_a.add(item_a)
        seen_b.add(item_b)
        weighted_sum += (overlap / d) * p ** (d - 1)
    agreement_at_depth = overlap / depth
    # extrapolate the tail assuming agreement stays at the final level
    return float(
        (1 - p) * weighted_sum + agreement_at_depth * p**depth
    )


def top_k_jaccard(a: Ranking, b: Ranking, k: int) -> float:
    """Jaccard similarity of the two top-k sets."""
    if k <= 0:
        raise RankingError(f"top_k_jaccard needs k >= 1, got {k}")
    top_a = set(a.item_ids()[:k])
    top_b = set(b.item_ids()[:k])
    union = top_a | top_b
    if not union:
        return 0.0
    return len(top_a & top_b) / len(union)
