"""Tests for repro.stats.correlation, cross-checked against scipy."""

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import kendall_tau, pearson_r, spearman_rho
from repro.stats.correlation import rankdata_average
from tests.oracles import rankdata_tie_loop


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_r([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_scipy(self, rng):
        x, y = rng.normal(size=60), rng.normal(size=60)
        assert pearson_r(x, y) == pytest.approx(sps.pearsonr(x, y).statistic, rel=1e-10)

    def test_constant_returns_zero(self):
        assert pearson_r([1, 1, 1], [1, 2, 3]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson_r([1], [1])
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1, float("nan")])
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1, 2, 3])


class TestRankData:
    def test_simple(self):
        assert rankdata_average([30, 10, 20]).tolist() == [3.0, 1.0, 2.0]

    def test_ties_averaged(self):
        assert rankdata_average([1, 1, 2]).tolist() == [1.5, 1.5, 3.0]

    def test_matches_scipy(self, rng):
        x = rng.integers(0, 5, size=40).astype(float)
        np.testing.assert_allclose(rankdata_average(x), sps.rankdata(x))

    def test_empty_and_single(self):
        assert rankdata_average([]).shape == (0,)
        assert rankdata_average([]).dtype == np.float64
        assert rankdata_average([7.0]).tolist() == [1.0]

    def test_each_nan_is_its_own_run(self):
        ranks = rankdata_average([np.nan, 1.0, np.nan, 1.0])
        assert ranks.tolist() == [3.0, 1.5, 4.0, 1.5]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            rankdata_average(np.zeros((2, 2)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    [0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]
                ),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=60,
        )
    )
    def test_bit_identical_to_the_tie_loop(self, values):
        expected = rankdata_tie_loop(values)
        actual = rankdata_average(values)
        assert actual.dtype == np.float64
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman_rho([1, 2, 3], [10, 100, 1000]) == pytest.approx(1.0)

    def test_matches_scipy(self, rng):
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert spearman_rho(x, y) == pytest.approx(
            sps.spearmanr(x, y).statistic, rel=1e-10
        )

    def test_matches_scipy_with_ties(self, rng):
        x = rng.integers(0, 4, size=50).astype(float)
        y = rng.integers(0, 4, size=50).astype(float)
        assert spearman_rho(x, y) == pytest.approx(
            sps.spearmanr(x, y).statistic, rel=1e-9
        )


class TestKendall:
    def test_identical_order(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_scipy(self, rng):
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert kendall_tau(x, y) == pytest.approx(
            sps.kendalltau(x, y).statistic, rel=1e-10
        )

    def test_matches_scipy_with_ties(self, rng):
        x = rng.integers(0, 3, size=40).astype(float)
        y = rng.integers(0, 3, size=40).astype(float)
        assert kendall_tau(x, y) == pytest.approx(
            sps.kendalltau(x, y).statistic, rel=1e-9
        )

    def test_fully_tied_returns_zero(self):
        assert kendall_tau([1, 1, 1], [1, 2, 3]) == 0.0

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=25))
    @settings(max_examples=40)
    def test_bounds_and_symmetry(self, xs):
        ys = list(reversed(xs))
        tau = kendall_tau(xs, ys)
        assert -1.0 <= tau <= 1.0
        assert kendall_tau(ys, xs) == pytest.approx(tau)

    @given(st.permutations(list(range(8))))
    @settings(max_examples=40)
    def test_permutation_matches_scipy(self, perm):
        base = list(range(8))
        assert kendall_tau(base, perm) == pytest.approx(
            sps.kendalltau(base, perm).statistic, rel=1e-10
        )
