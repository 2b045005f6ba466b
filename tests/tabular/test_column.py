"""Unit tests for repro.tabular.column."""

import numpy as np
import pytest

from repro.errors import ColumnTypeError, SchemaError
from repro.tabular.column import CategoricalColumn, NumericColumn, infer_column


class TestNumericColumn:
    def test_basic_construction(self):
        col = NumericColumn("x", [1, 2, 3])
        assert col.name == "x"
        assert col.kind == "numeric"
        assert len(col) == 3
        assert col.values.dtype == np.float64

    def test_values_are_read_only(self):
        col = NumericColumn("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            col.values[0] = 9.0

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            NumericColumn("", [1.0])

    def test_non_string_name_rejected(self):
        with pytest.raises(SchemaError):
            NumericColumn(123, [1.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(SchemaError):
            NumericColumn("x", np.zeros((2, 2)))

    def test_non_numeric_values_rejected(self):
        with pytest.raises(ColumnTypeError):
            NumericColumn("x", ["a", "b"])

    def test_missing_mask_marks_nan(self):
        col = NumericColumn("x", [1.0, float("nan"), 3.0])
        assert col.missing_mask().tolist() == [False, True, False]
        assert col.num_missing() == 1

    def test_dropna_values(self):
        col = NumericColumn("x", [1.0, float("nan"), 3.0])
        assert col.dropna_values().tolist() == [1.0, 3.0]

    def test_fill_missing(self):
        col = NumericColumn("x", [1.0, float("nan")])
        assert col.fill_missing(0.0).values.tolist() == [1.0, 0.0]

    def test_is_constant(self):
        assert NumericColumn("x", [2.0, 2.0]).is_constant()
        assert not NumericColumn("x", [1.0, 2.0]).is_constant()
        assert NumericColumn("x", [float("nan")]).is_constant()

    def test_map_applies_function(self):
        col = NumericColumn("x", [1.0, 2.0]).map(lambda v: v * 2)
        assert col.values.tolist() == [2.0, 4.0]

    def test_take_gathers_in_order(self):
        col = NumericColumn("x", [10.0, 20.0, 30.0])
        assert col.take([2, 0]).values.tolist() == [30.0, 10.0]

    def test_head(self):
        col = NumericColumn("x", [1.0, 2.0, 3.0])
        assert col.head(2).values.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            col.head(-1)

    def test_rename(self):
        assert NumericColumn("x", [1.0]).rename("y").name == "y"

    def test_as_numeric_identity_and_as_categorical_raises(self):
        col = NumericColumn("x", [1.0])
        assert col.as_numeric() is col
        with pytest.raises(ColumnTypeError):
            col.as_categorical()

    def test_equality_with_nan(self):
        a = NumericColumn("x", [1.0, float("nan")])
        b = NumericColumn("x", [1.0, float("nan")])
        assert a == b

    def test_inequality_on_values_name_kind(self):
        assert NumericColumn("x", [1.0]) != NumericColumn("x", [2.0])
        assert NumericColumn("x", [1.0]) != NumericColumn("y", [1.0])
        assert NumericColumn("x", [1.0]) != CategoricalColumn("x", ["1.0"])

    def test_scalar_indexing(self):
        assert NumericColumn("x", [1.0, 2.0])[1] == 2.0

    def test_slice_indexing_returns_column(self):
        col = NumericColumn("x", [1.0, 2.0, 3.0])[1:]
        assert isinstance(col, NumericColumn)
        assert col.values.tolist() == [2.0, 3.0]


class TestCategoricalColumn:
    def test_basic_construction(self):
        col = CategoricalColumn("r", ["NE", "W"])
        assert col.kind == "categorical"
        assert list(col.values) == ["NE", "W"]

    def test_none_and_nan_become_missing(self):
        col = CategoricalColumn("r", ["a", None, float("nan")])
        assert col.missing_mask().tolist() == [False, True, True]

    def test_non_string_values_coerced(self):
        col = CategoricalColumn("r", [1, 2])
        assert list(col.values) == ["1", "2"]

    def test_categories_first_appearance_order(self):
        col = CategoricalColumn("r", ["b", "a", "b", "c"])
        assert col.categories() == ("b", "a", "c")

    def test_categories_exclude_missing(self):
        col = CategoricalColumn("r", ["a", "", "b"])
        assert col.categories() == ("a", "b")

    def test_counts_and_proportions(self):
        col = CategoricalColumn("r", ["a", "b", "a", ""])
        assert col.counts() == {"a": 2, "b": 1}
        props = col.proportions()
        assert props["a"] == pytest.approx(2 / 3)
        assert props["b"] == pytest.approx(1 / 3)

    def test_proportions_empty_when_all_missing(self):
        assert CategoricalColumn("r", ["", ""]).proportions() == {}

    def test_is_binary(self):
        assert CategoricalColumn("r", ["a", "b"]).is_binary()
        assert not CategoricalColumn("r", ["a", "b", "c"]).is_binary()
        assert not CategoricalColumn("r", ["a", "a"]).is_binary()

    def test_indicator(self):
        col = CategoricalColumn("r", ["a", "b", "a"])
        assert col.indicator("a").tolist() == [True, False, True]

    def test_map_categories(self):
        col = CategoricalColumn("r", ["a", "b"]).map_categories({"a": "x"})
        assert list(col.values) == ["x", "b"]

    def test_as_categorical_identity_and_as_numeric_raises(self):
        col = CategoricalColumn("r", ["a"])
        assert col.as_categorical() is col
        with pytest.raises(ColumnTypeError):
            col.as_numeric()

    def test_take(self):
        col = CategoricalColumn("r", ["a", "b", "c"])
        assert list(col.take([1, 1]).values) == ["b", "b"]


class TestCategoricalGather:
    """``take``, ``head`` and slicing skip cleaning yet match the constructor."""

    RAW = ["a", None, float("nan"), 3, "b", "", 2.5, "a", np.nan, "c"]

    def gathers(self, col):
        raw = self.RAW
        mask = np.arange(len(raw)) % 3 == 0
        return [
            (col.take([7, 1, 4, 2, 0, 9]), [raw[i] for i in (7, 1, 4, 2, 0, 9)]),
            (col.take([]), []),
            (col.head(4), raw[:4]),
            (col.head(0), []),
            (col[2:8], raw[2:8]),
            (col[::-2], raw[::-2]),
            (col[mask], [v for v, keep in zip(raw, mask) if keep]),
        ]

    def test_matches_the_constructor_path(self):
        col = CategoricalColumn("c", self.RAW)
        for gathered, raw in self.gathers(col):
            expected = CategoricalColumn("c", raw)
            assert type(gathered) is CategoricalColumn
            assert gathered == expected
            assert gathered.values.tolist() == expected.values.tolist()
            assert all(type(v) is str for v in gathered.values)
            np.testing.assert_array_equal(
                gathered.missing_mask(), expected.missing_mask()
            )
            assert gathered.categories() == expected.categories()

    def test_gathered_array_is_read_only(self):
        col = CategoricalColumn("c", self.RAW)
        for gathered, _ in self.gathers(col):
            assert not gathered.values.flags.writeable
            with pytest.raises(ValueError):
                gathered.values[...] = "x"


class TestInferColumn:
    def test_all_numbers_infer_numeric(self):
        assert infer_column("x", ["1", "2.5", "-3"]).kind == "numeric"

    def test_missing_tokens_become_nan(self):
        col = infer_column("x", ["1", "NA", "n/a", "null", "?", ""])
        assert col.kind == "numeric"
        assert col.num_missing() == 5

    def test_mixed_becomes_categorical(self):
        assert infer_column("x", ["1", "two"]).kind == "categorical"

    def test_python_numbers_accepted(self):
        assert infer_column("x", [1, 2.5]).kind == "numeric"

    def test_none_in_numeric(self):
        col = infer_column("x", [1.0, None])
        assert col.kind == "numeric"
        assert col.num_missing() == 1

    def test_categorical_missing_tokens(self):
        col = infer_column("x", ["red", "NA", None])
        assert col.kind == "categorical"
        assert col.missing_mask().tolist() == [False, True, True]

    def test_bool_objects_are_categorical(self):
        # booleans are not numbers in a scoring context
        assert infer_column("x", [True, False]).kind == "categorical"
