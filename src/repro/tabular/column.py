"""Typed columns: the unit of storage for :class:`repro.tabular.table.Table`.

Two concrete column types cover everything the label needs:

- :class:`NumericColumn` wraps a float64 numpy array (scores, weights,
  GRE averages, publication counts...).  NaN marks missing values.
- :class:`CategoricalColumn` wraps a numpy object array of strings
  (regions, race, gender, size bins...).  The empty string marks missing
  values.

Columns are immutable: every transformation returns a new column.  That
keeps tables safe to share between widgets without defensive copies.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Union

import numpy as np

from repro.errors import ColumnTypeError, SchemaError

__all__ = ["Column", "NumericColumn", "CategoricalColumn", "infer_column"]

#: Values treated as missing when parsing raw cells.
MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "?"})


def _is_missing_token(cell: str) -> bool:
    return cell.strip().lower() in MISSING_TOKENS


class Column:
    """Abstract base for typed, immutable, named columns.

    Parameters
    ----------
    name:
        Column name; must be a non-empty string.
    values:
        Backing numpy array.  Subclasses coerce and validate it.
    """

    #: short machine-readable type tag ("numeric" or "categorical")
    kind: str = "abstract"

    def __init__(self, name: str, values: np.ndarray):
        if not isinstance(name, str) or not name:
            raise SchemaError(f"column name must be a non-empty string, got {name!r}")
        self._name = name
        self._values = values
        self._values.setflags(write=False)

    # -- basic protocol ---------------------------------------------------

    @property
    def name(self) -> str:
        """The column's name."""
        return self._name

    @property
    def values(self) -> np.ndarray:
        """The read-only backing array."""
        return self._values

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self._values[int(index)]
        return self._with_values(np.asarray(self._values[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.kind != other.kind or self.name != other.name:
            return False
        if len(self) != len(other):
            return False
        if self.kind == "numeric":
            a, b = self.values, other.values
            both_nan = np.isnan(a) & np.isnan(b)
            return bool(np.all(both_nan | (a == b)))
        return bool(np.all(self.values == other.values))

    def __hash__(self):  # immutable in spirit, but arrays are unhashable
        return hash((self.kind, self.name, len(self)))

    def __repr__(self) -> str:
        preview = ", ".join(str(v) for v in self._values[:4])
        if len(self) > 4:
            preview += ", ..."
        return f"{type(self).__name__}({self._name!r}, [{preview}], n={len(self)})"

    # -- transformations ---------------------------------------------------

    def _with_values(self, values: np.ndarray) -> "Column":
        """Return a copy of this column with a new backing array."""
        return type(self)(self._name, values)

    def rename(self, name: str) -> "Column":
        """Return this column under a new name."""
        return type(self)(name, self._values.copy())

    def take(self, indices: Sequence[int] | np.ndarray) -> "Column":
        """Return a new column with rows gathered at ``indices`` (in order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return self._with_values(self._values[idx])

    def head(self, k: int) -> "Column":
        """Return the first ``k`` values as a new column."""
        if k < 0:
            raise ValueError(f"head() needs k >= 0, got {k}")
        return self._with_values(self._values[:k].copy())

    # -- missing-value handling ---------------------------------------------

    def missing_mask(self) -> np.ndarray:
        """Boolean mask marking missing entries."""
        raise NotImplementedError

    def num_missing(self) -> int:
        """Number of missing entries."""
        return int(self.missing_mask().sum())

    # -- narrowing helpers ---------------------------------------------------

    def as_numeric(self) -> "NumericColumn":
        """Return self if numeric, else raise :class:`ColumnTypeError`."""
        raise ColumnTypeError(
            f"column {self._name!r} is {self.kind}, expected numeric"
        )

    def as_categorical(self) -> "CategoricalColumn":
        """Return self if categorical, else raise :class:`ColumnTypeError`."""
        raise ColumnTypeError(
            f"column {self._name!r} is {self.kind}, expected categorical"
        )


class NumericColumn(Column):
    """A named, immutable float64 column.  NaN encodes a missing value."""

    kind = "numeric"

    def __init__(self, name: str, values: Iterable[float] | np.ndarray):
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.ndim != 1:
            raise SchemaError(
                f"column {name!r}: expected a 1-d array, got shape {arr.shape}"
            )
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise ColumnTypeError(
                f"column {name!r}: values are not numeric ({exc})"
            ) from exc
        super().__init__(name, arr)

    def as_numeric(self) -> "NumericColumn":
        return self

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self._values)

    def dropna_values(self) -> np.ndarray:
        """The non-missing values, in original order."""
        return self._values[~np.isnan(self._values)]

    def is_constant(self) -> bool:
        """True when all non-missing values are equal (or none exist)."""
        vals = self.dropna_values()
        return vals.size == 0 or bool(np.all(vals == vals[0]))

    def fill_missing(self, value: float) -> "NumericColumn":
        """Return a copy with NaNs replaced by ``value``."""
        out = self._values.copy()
        out[np.isnan(out)] = float(value)
        return NumericColumn(self._name, out)

    def map(self, func) -> "NumericColumn":
        """Apply ``func`` elementwise (vectorized over the backing array)."""
        return NumericColumn(self._name, func(self._values.copy()))


class CategoricalColumn(Column):
    """A named, immutable column of string categories.

    The empty string encodes a missing value.  Category order in
    :meth:`categories` is first-appearance order, which keeps pie-chart
    slices stable across views of the same table.
    """

    kind = "categorical"

    def __init__(self, name: str, values: Iterable[object] | np.ndarray):
        raw = list(values) if not isinstance(values, np.ndarray) else values.tolist()
        cleaned = []
        for v in raw:
            if v is None:
                cleaned.append("")
            elif isinstance(v, float) and np.isnan(v):
                cleaned.append("")
            else:
                cleaned.append(str(v))
        arr = np.asarray(cleaned, dtype=object)
        if arr.ndim != 1:
            raise SchemaError(
                f"column {name!r}: expected a 1-d array, got shape {arr.shape}"
            )
        super().__init__(name, arr)

    def _with_values(self, values: np.ndarray) -> "CategoricalColumn":
        """Wrap ``values``, gathered from this column, without re-cleaning.

        ``take``, ``head`` and slicing only reorder or subset an array
        the constructor already cleaned, so every entry is a ``str``.
        """
        column = object.__new__(type(self))
        Column.__init__(column, self._name, values)
        return column

    def as_categorical(self) -> "CategoricalColumn":
        return self

    def missing_mask(self) -> np.ndarray:
        return np.asarray([v == "" for v in self._values], dtype=bool)

    def categories(self) -> tuple[str, ...]:
        """Distinct non-missing categories in first-appearance order."""
        seen: dict[str, None] = {}
        for v in self._values:
            if v != "" and v not in seen:
                seen[v] = None
        return tuple(seen)

    def counts(self) -> dict[str, int]:
        """Category -> frequency, in first-appearance order (missing excluded)."""
        counter = Counter(v for v in self._values if v != "")
        return {cat: counter[cat] for cat in self.categories()}

    def proportions(self) -> dict[str, float]:
        """Category -> fraction of non-missing rows, first-appearance order."""
        counts = self.counts()
        total = sum(counts.values())
        if total == 0:
            return {}
        return {cat: cnt / total for cat, cnt in counts.items()}

    def is_binary(self) -> bool:
        """True when there are exactly two distinct non-missing categories."""
        return len(self.categories()) == 2

    def indicator(self, category: str) -> np.ndarray:
        """Boolean mask of rows equal to ``category``."""
        return np.asarray([v == category for v in self._values], dtype=bool)

    def map_categories(self, mapping: dict[str, str]) -> "CategoricalColumn":
        """Return a copy with categories renamed through ``mapping``.

        Categories absent from ``mapping`` are kept unchanged.
        """
        out = [mapping.get(v, v) for v in self._values]
        return CategoricalColumn(self._name, out)


AnyColumn = Union[NumericColumn, CategoricalColumn]


def infer_column(name: str, raw_values: Sequence[object]) -> AnyColumn:
    """Build the most specific column type for a sequence of raw cells.

    Strings that all parse as floats (missing tokens aside) produce a
    :class:`NumericColumn`; anything else produces a
    :class:`CategoricalColumn`.  Numeric python objects (int/float/bool)
    are accepted directly.

    >>> infer_column("x", ["1", "2.5", "NA"]).kind
    'numeric'
    >>> infer_column("r", ["NE", "W"]).kind
    'categorical'
    """
    parsed: list[float] = []
    numeric = True
    for cell in raw_values:
        if cell is None:
            parsed.append(np.nan)
            continue
        if isinstance(cell, (int, float, np.integer, np.floating)) and not isinstance(
            cell, bool
        ):
            parsed.append(float(cell))
            continue
        text = str(cell)
        if _is_missing_token(text):
            parsed.append(np.nan)
            continue
        try:
            parsed.append(float(text))
        except ValueError:
            numeric = False
            break
    if numeric:
        return NumericColumn(name, np.asarray(parsed, dtype=np.float64))
    cleaned = ["" if (c is None or _is_missing_token(str(c))) else str(c) for c in raw_values]
    return CategoricalColumn(name, cleaned)
