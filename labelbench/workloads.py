"""The five workloads, as seeded lists of operations.

Every workload is a closed loop: a client sends its next request only
after the previous reply.  Operations come in fixed *rounds*; a run
stops at the first round boundary after its time is up, so each run's
mix of operation classes is the same whatever the seed and however fast
the host is.  The seed draws only the weights, as a ±3% jitter around a
base design per table.  The jitter makes every design new (a new cache
key) while keeping each table's Monte-Carlo cost fixed: with these bases
the per-attribute bisection always runs its full 9 probes per attribute,
so a label always makes 33 kernel calls.

The repository holds no traffic data, so every mix is an assumption.
Its basis is the description of each workload and the paper's
edit-then-view loop (a user edits a scoring design, then reads its
label; §2–3): op classes named without a proportion get equal shares,
and words of proportion ("mostly", "occasional", "periodic") become
the fixed counts stated at each workload below.  The mixes are not
chosen for where a percentile lands.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterator

from common import digest

#: table -> (base weights, sensitive attribute, id column)
BASES = {
    "cs-departments": ({"PubCount": 0.2, "Faculty": 0.4, "GRE": 0.4}, "DeptSizeBin", "DeptName"),
    "german-credit": (
        {"credit_score": 0.4, "credit_amount": 0.35, "duration_months": 0.25}, "sex", "applicant_id",
    ),
    "compas": ({"decile_score": 0.4, "priors_count": 0.35, "age": 0.25}, "sex", "defendant_id"),
    "synthetic-20k": ({"attr_1": 0.4, "attr_2": 0.35, "attr_3": 0.25}, "group", "item"),
}


def load_table(name: str):
    """The generated table behind a workload table name."""
    from repro.datasets.loaders import dataset_by_name
    from repro.datasets.synthetic import synthetic_scores_table

    if name == "synthetic-20k":
        return synthetic_scores_table(20_000)
    return dataset_by_name(name)


def new_design(rng: random.Random, table: str, k: int = 10, trials: int = 0) -> dict:
    """A JSON-shaped design: the table's base weights, jittered by ±3%."""
    weights, sensitive, id_column = BASES[table]
    return {
        "weights": {a: round(w * rng.uniform(0.97, 1.03), 6) for a, w in weights.items()},
        "sensitive": [sensitive],
        "diversity": [sensitive],
        "id_column": id_column,
        "k": k,
        "monte_carlo_trials": trials,
    }


def base_design(table: str, k: int = 10, trials: int = 0) -> dict:
    """The unjittered design (used for warm-up; never in a timed list)."""
    design = new_design(random.Random(0), table, k, trials)
    design["weights"] = dict(BASES[table][0])
    return design


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` on ``table`` with ``design`` (or none)."""

    kind: str
    table: str = ""
    design: dict | None = field(default=None, hash=False, compare=False)
    cls: str = ""

    @property
    def key(self) -> str:
        """The reference-digest key of the label this op must return."""
        return digest(json.dumps([self.table, self.design], sort_keys=True))[:16]


Rounds = Iterator[list[Op]]


def label_cold(rng: random.Random) -> Rounds:
    """One label per (table, k) a round: equal shares over the grid.

    cs-departments (n=51) has no k=100.
    """
    while True:
        yield [
            Op("label", table, new_design(rng, table, k), f"{table} k={k}")
            for table in ("cs-departments", "german-credit", "compas", "synthetic-20k")
            for k in ((10, 50) if table == "cs-departments" else (10, 50, 100))
        ]


def monte_carlo(rng: random.Random) -> Rounds:
    """One label per table a round: equal shares of the two tables."""
    while True:
        yield [
            Op("label", table, new_design(rng, table, 10, 100), f"{table} 100 trials")
            for table in ("german-credit", "compas")
        ]


def remote_trials(rng: random.Random) -> Rounds:
    """One label per (table, trials) pair a round: equal shares."""
    while True:
        yield [
            Op("label", table, new_design(rng, table, 10, trials), f"{table} {trials} trials")
            for table, trials in (("cs-departments", 300), ("german-credit", 100))
        ]


#: serve-hot: each client's session table (its label is built in set-up)
HOT_TABLES = ("german-credit", "compas")
#: serve-churn: each client's session table (one table, so the SSE and
#: build latencies are one class each)
CHURN_TABLES = ("german-credit", "german-credit")
#: serve-churn: revisits draw from this many of the client's latest
#: designs: twice the labels the L1 budget holds, so the two clients'
#: pool is four times L1 and a share of revisits falls through to L2
CHURN_WINDOW = 12


def serve_hot(rng: random.Random, table: str, design: dict) -> Rounds:
    """Mostly label reads: 15 of a round's 21 requests.

    "Mostly" is taken as about three quarters; preview and ``/health``
    share the rest equally (2 each); the "occasional" ``/metrics`` scrape
    is one a round, and so is one SSE stream of the session's label, so
    that ``first_widget_p50_ms`` is measured on this workload too.
    """
    kinds = ["label"] * 15 + ["preview"] * 2 + ["health"] * 2 + ["metrics", "stream"]
    while True:
        rng.shuffle(kinds)
        yield [
            Op(kind, table, design if kind in ("label", "stream") else None, kind)
            for kind in kinds
        ]


def serve_churn(rng: random.Random, table: str, streams: bool) -> Rounds:
    """The edit-then-view loop: every read follows a design ``POST``.

    A round has two new designs and two revisits (equal shares, as no
    proportion is given).  The two clients take the server's two ways of
    reading a new design in equal shares: a client that ``streams`` reads
    each new design over SSE, with 10 Monte-Carlo trials so its cheap
    widgets arrive before stability; the other reads each with a plain
    ``GET .../label`` (a build).  Revisits draw from the client's latest
    designs and hit L1 or, once evicted, L2.  Each round is shuffled, so
    a stream meets the other client's builds at the same expected rate in
    every run.
    """
    history = [base_design(table)]  # built in set-up
    steps = ["stream" if streams else "new", "revisit"] * 2
    while True:
        rng.shuffle(steps)
        ops: list[Op] = []
        for step in steps:
            if step == "revisit":
                design, read = rng.choice(history[-CHURN_WINDOW:]), "label"
            else:
                design = new_design(rng, table, trials=10 if step == "stream" else 0)
                read = "stream" if step == "stream" else "label"
                history.append(design)
            ops += [Op("design", table, design, "design"),
                    Op(read, table, design, "new-stream" if step == "stream" else step)]
        yield ops


def first_rounds(rounds: Rounds, count: int) -> list[Op]:
    """The ops of the first ``count`` rounds (digest recording)."""
    ops: list[Op] = []
    for _ in range(count):
        ops.extend(next(rounds))
    return ops
