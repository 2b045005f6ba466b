"""Shared fixtures: small hand-built tables, rankings, and the demo data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import cs_departments
from repro.preprocess import NormalizationPlan, TablePreprocessor
from repro.ranking import LinearScoringFunction, rank_table
from repro.tabular import Table
from repro.telemetry import MetricsRegistry, set_default_registry


@pytest.fixture(autouse=True)
def fresh_default_registry():
    """A fresh process-wide metrics registry for every test.

    Components count their events in the default registry and derive
    their ``stats()`` from it, so without this a test would see the
    counts every earlier test left behind.  A fixture with a wider
    scope is set up before this one and keeps the registry it found.
    """
    previous = set_default_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_default_registry(previous)


@pytest.fixture()
def small_table() -> Table:
    """Six items, two numeric attributes, one binary group, one id."""
    return Table.from_dict(
        {
            "name": ["a", "b", "c", "d", "e", "f"],
            "x": [6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
            "y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "group": ["g1", "g1", "g1", "g2", "g2", "g2"],
        }
    )


@pytest.fixture()
def small_ranking(small_table):
    """The small table ranked by x (a, b, c, d, e, f)."""
    return rank_table(small_table, LinearScoringFunction({"x": 1.0}), "name")


@pytest.fixture()
def missing_table() -> Table:
    """A table with missing numeric and categorical cells."""
    return Table.from_dict(
        {
            "name": ["a", "b", "c", "d"],
            "x": [1.0, float("nan"), 3.0, 4.0],
            "cat": ["u", "", "v", "u"],
        }
    )


@pytest.fixture(scope="session")
def cs_table() -> Table:
    """The deterministic CS-departments demo table (seeded)."""
    return cs_departments()


@pytest.fixture(scope="session")
def cs_scorer() -> LinearScoringFunction:
    """The Figure-1 scoring function."""
    return LinearScoringFunction({"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2})


@pytest.fixture(scope="session")
def cs_ranking(cs_table, cs_scorer):
    """The Figure-1 ranking: normalized attributes, weighted sum."""
    prepared = TablePreprocessor(
        NormalizationPlan.minmax_all(["PubCount", "Faculty", "GRE"])
    ).fit_transform(cs_table)
    return rank_table(prepared, cs_scorer, "DeptName")


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh, fixed-seed generator per test."""
    return np.random.default_rng(12345)
