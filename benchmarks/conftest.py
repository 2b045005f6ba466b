"""Shared benchmark fixtures and the result-reporting helper.

Every benchmark regenerates one of the paper's artifacts (DESIGN.md §3
maps experiment ids to modules).  Because the paper is a demo, its
"tables" are the values visible in Figures 1-3 and the §3 narration;
each bench prints the reproduced rows via :func:`report` (visible with
``pytest benchmarks/ -s``) and asserts the shape findings that
EXPERIMENTS.md records.
"""

from __future__ import annotations

import sys

import pytest

from repro.datasets import cs_departments
from repro.preprocess import NormalizationPlan, TablePreprocessor
from repro.ranking import LinearScoringFunction, rank_table
from tests.conftest import fresh_default_registry  # noqa: F401  (autouse)

#: the Figure-1 configuration, shared by several benchmarks
FIGURE1_WEIGHTS = {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2}


def report(title: str, rows: list[str]) -> None:
    """Print one reproduced table (stderr survives pytest capture)."""
    print(f"\n--- {title} ---", file=sys.stderr)
    for row in rows:
        print(f"  {row}", file=sys.stderr)


@pytest.fixture(scope="session")
def cs_table():
    return cs_departments()


@pytest.fixture(scope="session")
def figure1_scorer():
    return LinearScoringFunction(FIGURE1_WEIGHTS)


@pytest.fixture(scope="session")
def figure1_ranking(cs_table, figure1_scorer):
    prepared = TablePreprocessor(
        NormalizationPlan.minmax_all(list(FIGURE1_WEIGHTS))
    ).fit_transform(cs_table)
    return rank_table(prepared, figure1_scorer, "DeptName")
