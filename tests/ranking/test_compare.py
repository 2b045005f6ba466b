"""Tests for repro.ranking.compare."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.errors import RankingError
from repro.ranking import (
    Ranking,
    count_inversions,
    count_inversions_batch,
    kendall_distance,
    kendall_tau_from_discordant,
    kendall_tau_positions,
    kendall_tau_rankings,
    rank_displacement,
    spearman_footrule,
    top_k_jaccard,
    top_k_overlap,
    top_k_overlap_positions,
)
from repro.ranking.compare import (
    _count_inversions_numpy,
    kendall_tau_ids,
    top_k_overlap_ids,
)
from repro.tabular import Table


def ranking_of(names, scores=None):
    if scores is None:
        scores = list(range(len(names), 0, -1))
    t = Table.from_dict({"name": list(names)})
    return Ranking.from_scores(t, [float(s) for s in scores], id_column="name")


def permuted_ranking(names):
    """Ranking placing `names` in the given order."""
    return ranking_of(names)


@pytest.fixture()
def abcde():
    return permuted_ranking(["a", "b", "c", "d", "e"])


class TestKendall:
    def test_identical(self, abcde):
        assert kendall_tau_rankings(abcde, abcde) == pytest.approx(1.0)
        assert kendall_distance(abcde, abcde) == 0.0

    def test_reversed(self, abcde):
        rev = permuted_ranking(["e", "d", "c", "b", "a"])
        assert kendall_tau_rankings(abcde, rev) == pytest.approx(-1.0)
        assert kendall_distance(abcde, rev) == 1.0

    def test_one_swap(self, abcde):
        swapped = permuted_ranking(["b", "a", "c", "d", "e"])
        assert kendall_distance(abcde, swapped, normalized=False) == 1.0
        assert kendall_distance(abcde, swapped) == pytest.approx(0.1)

    def test_common_items_only(self):
        a = permuted_ranking(["a", "b", "c", "x"])
        b = permuted_ranking(["a", "b", "c", "y"])
        assert kendall_tau_rankings(a, b) == pytest.approx(1.0)

    def test_too_few_common_items(self):
        a = permuted_ranking(["a", "x"])
        b = permuted_ranking(["a", "y"])
        with pytest.raises(RankingError, match="common items"):
            kendall_tau_rankings(a, b)

    def test_duplicate_ids_rejected(self):
        a = ranking_of(["a", "a"])
        with pytest.raises(RankingError, match="unique"):
            kendall_tau_rankings(a, a)


class TestFootruleAndDisplacement:
    def test_identical(self, abcde):
        assert spearman_footrule(abcde, abcde) == 0.0
        assert rank_displacement(abcde, abcde) == 0

    def test_reversed_is_max(self, abcde):
        rev = permuted_ranking(["e", "d", "c", "b", "a"])
        assert spearman_footrule(abcde, rev) == pytest.approx(1.0)
        assert rank_displacement(abcde, rev) == 4

    def test_unnormalized(self, abcde):
        swapped = permuted_ranking(["b", "a", "c", "d", "e"])
        assert spearman_footrule(abcde, swapped, normalized=False) == 2.0

    @given(st.permutations(list("abcdef")))
    @settings(max_examples=40)
    def test_normalized_in_unit_interval(self, perm):
        base = permuted_ranking(list("abcdef"))
        other = permuted_ranking(list(perm))
        value = spearman_footrule(base, other)
        assert 0.0 <= value <= 1.0


class TestTopKOverlap:
    def test_full_overlap(self, abcde):
        assert top_k_overlap(abcde, abcde, 3) == 1.0
        assert top_k_jaccard(abcde, abcde, 3) == 1.0

    def test_partial_overlap(self, abcde):
        other = permuted_ranking(["a", "x", "y", "b", "c"])
        assert top_k_overlap(abcde, other, 3) == pytest.approx(1 / 3)
        assert top_k_jaccard(abcde, other, 3) == pytest.approx(1 / 5)

    def test_disjoint(self, abcde):
        other = permuted_ranking(["x", "y", "z"])
        assert top_k_overlap(abcde, other, 3) == 0.0

    def test_invalid_k(self, abcde):
        with pytest.raises(RankingError):
            top_k_overlap(abcde, abcde, 0)
        with pytest.raises(RankingError):
            top_k_jaccard(abcde, abcde, -1)

    @given(st.permutations(list("abcdefgh")), st.integers(1, 8))
    @settings(max_examples=40)
    def test_overlap_bounds(self, perm, k):
        base = permuted_ranking(list("abcdefgh"))
        other = permuted_ranking(list(perm))
        overlap = top_k_overlap(base, other, k)
        jaccard = top_k_jaccard(base, other, k)
        assert 0.0 <= jaccard <= overlap <= 1.0


class TestMetricConsistency:
    @given(st.permutations(list("abcdefg")))
    @settings(max_examples=40)
    def test_tau_and_distance_relation(self, perm):
        # tau = 1 - 4*D/(n(n-1)) for permutations without ties
        base = permuted_ranking(list("abcdefg"))
        other = permuted_ranking(list(perm))
        tau = kendall_tau_rankings(base, other)
        distance = kendall_distance(base, other, normalized=False)
        n = 7
        assert tau == pytest.approx(1 - 4 * distance / (n * (n - 1)), abs=1e-9)


class TestIndexBasedVariants:
    """The permutation-array tier used by the vectorized trial kernels."""

    def test_count_inversions_basics(self):
        assert count_inversions([0, 1, 2, 3]) == 0
        assert count_inversions([3, 2, 1, 0]) == 6
        assert count_inversions([1, 0, 2]) == 1
        assert count_inversions([5]) == 0
        assert count_inversions([]) == 0

    def test_count_inversions_ignores_ties(self):
        # equal values are neither concordant nor discordant
        assert count_inversions([1, 1, 1]) == 0
        assert count_inversions([2, 1, 1]) == 2
        assert count_inversions([1, 2, 1]) == 1

    def test_count_inversions_rejects_bad_shapes(self):
        with pytest.raises(RankingError, match="1-d"):
            count_inversions([[1, 2], [3, 4]])
        with pytest.raises(RankingError, match="trials, n"):
            count_inversions_batch([1, 2, 3])
        with pytest.raises(RankingError, match="integer"):
            count_inversions_batch([[1.5, 2.5]])

    @given(st.lists(st.integers(0, 12), min_size=2, max_size=40))
    @settings(max_examples=60)
    def test_count_inversions_matches_brute_force(self, seq):
        brute = sum(
            1
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
            if seq[i] > seq[j]
        )
        assert count_inversions(seq) == brute

    def test_batch_counts_each_row_independently(self):
        import numpy as np

        batch = np.asarray([[0, 1, 2], [2, 1, 0], [1, 0, 2]])
        assert count_inversions_batch(batch).tolist() == [0, 3, 1]

    @given(st.permutations(list(range(9))))
    @settings(max_examples=60)
    def test_tau_positions_matches_id_based_tau(self, perm):
        """Byte-identity across the tiers, not mere approximation."""
        ids_a = list(range(9))
        ids_b = list(perm)
        where = {item: index for index, item in enumerate(ids_b)}
        positions = [where[item] for item in ids_a]
        assert kendall_tau_positions(positions) == kendall_tau_ids(ids_a, ids_b)

    @given(st.permutations(list(range(8))), st.integers(1, 10))
    @settings(max_examples=60)
    def test_overlap_positions_matches_id_based_overlap(self, perm, k):
        ids_a = list(range(8))
        ids_b = list(perm)
        where = {item: index for index, item in enumerate(ids_b)}
        positions = [where[item] for item in ids_a]
        assert top_k_overlap_positions(positions, k) == top_k_overlap_ids(
            ids_a, ids_b, k
        )

    def test_tau_positions_validation(self):
        with pytest.raises(RankingError, match="distinct"):
            kendall_tau_positions([0, 0, 1])
        with pytest.raises(RankingError, match="at least 2"):
            kendall_tau_positions([0])
        with pytest.raises(RankingError, match="k >= 1"):
            top_k_overlap_positions([0, 1], 0)

    def test_tau_from_discordant_bounds(self):
        assert kendall_tau_from_discordant(0, 5) == 1.0
        assert kendall_tau_from_discordant(10, 5) == -1.0
        with pytest.raises(RankingError, match="outside"):
            kendall_tau_from_discordant(11, 5)
        with pytest.raises(RankingError, match="at least 2"):
            kendall_tau_from_discordant(0, 1)


native_only = pytest.mark.skipif(
    _native.kernel is None,
    reason=f"native inversion kernel did not load: {_native.reason}",
)

#: row lengths at the merge sort's edges: empty, single, powers of two ± 1
EDGE_SIZES = [0, 1, 2, *(size + d for size in (4, 8, 16, 32, 64) for d in (-1, 0, 1))]


def numpy_merge(batch) -> np.ndarray:
    """The numpy oracle on per-row dense codes (ties keep equal codes)."""
    batch = np.asarray(batch)
    trials, n = batch.shape
    if n < 2:
        return np.zeros(trials, dtype=np.int64)
    codes = np.empty((trials, n), dtype=np.int64)
    for row in range(trials):
        _, codes[row] = np.unique(batch[row], return_inverse=True)
    return _count_inversions_numpy(codes)


@st.composite
def integer_batches(draw):
    """(trials, n) batches: permutations, ties, negatives, sparse codes,
    three dtypes, and the transposed view the stability kernels pass."""
    n = draw(st.sampled_from(EDGE_SIZES) | st.integers(0, 80))
    trials = draw(st.integers(0, 5))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    if draw(st.booleans()):
        rows = [draw(st.permutations(range(n))) for _ in range(trials)]
    else:
        low = 0 if dtype is np.uint8 else draw(st.sampled_from([-1000, -3, 0]))
        high = draw(st.sampled_from([low + 1, low + 3, low + n, low + 3 * n + 7, 255]))
        cells = st.integers(low, max(low, high))
        rows = [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(trials)]
    batch = np.asarray(rows, dtype=dtype).reshape(trials, n)
    if draw(st.booleans()):
        batch = np.ascontiguousarray(batch.T).T  # same values, not C-contiguous
    return batch


@native_only
class TestNativeKernel:
    """The compiled inversion kernel against the numpy merge it replaces."""

    @given(integer_batches())
    @settings(max_examples=300, deadline=None)
    def test_native_matches_numpy_merge(self, batch):
        assert count_inversions_batch(batch).tolist() == numpy_merge(batch).tolist()

    @pytest.mark.parametrize("n", [0, 1])
    def test_kernel_counts_nothing_in_short_rows(self, n):
        codes = np.zeros((3, n), dtype=np.int64)
        out = np.full(3, -1, dtype=np.int64)
        _native.kernel(codes, 3, n, out, np.empty(n, np.int64), np.empty(n, np.int64))
        assert out.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 6889])
    def test_native_matches_numpy_merge_at_table_sizes(self, n):
        rng = np.random.default_rng(n)
        batch = np.stack(
            [rng.permutation(n), rng.integers(0, 40, n), np.arange(n)[::-1], np.arange(n)]
        )
        counts = count_inversions_batch(batch)
        assert counts.tolist() == numpy_merge(batch).tolist()
        assert counts[2:].tolist() == [n * (n - 1) // 2, 0]
