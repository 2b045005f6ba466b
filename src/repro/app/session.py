"""The demo workflow as a state machine.

Paper §3 describes the interaction: the user picks a dataset (or
uploads a CSV), decides "whether to work with raw data or to normalize
and standardize the attributes", chooses at least one categorical
sensitive attribute and at least one weighted numeric scoring
attribute, previews the ranking, "and will then either refine it, or go
on to generate Ranking Facts".

:class:`DemoSession` encodes those stages explicitly so every client
(CLI, HTTP server, notebooks) drives the same object and out-of-order
calls fail with :class:`~repro.errors.SessionStateError` instead of
producing half-configured labels.

Label computation goes through a
:class:`~repro.engine.service.LabelService` rather than the builder
directly: a session constructed with a shared service (the HTTP
server's registry does this) gets content-addressed caching across
*all* sessions — two users asking for the same design on the same data
cost one Monte-Carlo loop.  A session constructed bare owns a private
service, so caching still applies to its own repeated requests.  The
session keeps no label of its own: every read, :meth:`last_label`
included, is served by the service, within the cache's bounds and
counted in its tier.

Sessions are served by ``ThreadingHTTPServer``, so every state
transition and every read of the committed design happens under one
re-entrant lock: a ``POST /design`` racing a ``GET /label`` either
sees the old design or the new one, never a half-committed mix.
"""

from __future__ import annotations

import enum
import functools
import threading
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.app.design import attribute_preview, histogram_ascii
from repro.datasets.loaders import dataset_by_name, list_datasets, load_csv_dataset
from repro.engine.jobs import LabelDesign
from repro.engine.service import LabelService
from repro.errors import SessionStateError
from repro.label.builder import RankingFacts
from repro.preprocess.pipeline import NormalizationPlan
from repro.ranking.ranker import Ranking, rank_table
from repro.ranking.scoring import LinearScoringFunction
from repro.tabular.summary import Histogram, histogram
from repro.tabular.table import Table

__all__ = ["SessionStage", "DemoSession"]


def _locked(method):
    """Run ``method`` under the session's re-entrant state lock.

    The design fields (weights, sensitive, k, seed, ...) are committed
    by several setters; without the lock a concurrent label build could
    read a mix of old and new fields mid-redesign.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class SessionStage(enum.Enum):
    """Where in the workflow a session currently is."""

    EMPTY = "empty"                    # nothing loaded
    DATA_LOADED = "data-loaded"        # table present
    SCORER_DESIGNED = "scorer-designed"  # scoring + sensitive chosen
    PREVIEWED = "previewed"            # ranking previewed at least once
    LABELED = "labeled"                # label generated


class DemoSession:
    """One user's pass through the Ranking Facts workflow.

    Example
    -------
    >>> session = DemoSession()
    >>> session.load_builtin("cs-departments")
    >>> session.design_scoring(
    ...     weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    ...     sensitive_attribute="DeptSizeBin",
    ...     id_column="DeptName",
    ... )
    >>> session.preview(3).size
    3
    >>> facts = session.generate_label()
    >>> facts.label.dataset_name
    'cs-departments'
    """

    def __init__(self, service: LabelService | None = None):
        self._service = service if service is not None else LabelService()
        self._lock = threading.RLock()  # guards every stage/design transition
        self._stage = SessionStage.EMPTY
        self._table: Table | None = None
        self._dataset_name = ""
        self._normalize = True
        self._weights: dict[str, float] = {}
        self._sensitive: list[str] = []
        self._diversity: list[str] = []
        self._id_column: str | None = None
        self._k = 10
        self._alpha = 0.05
        self._monte_carlo_trials = 0
        self._monte_carlo_epsilons: tuple[float, ...] = (0.05, 0.1, 0.2)
        self._seed = 20180610
        self._last_cached = False

    @property
    def service(self) -> LabelService:
        """The label service this session computes through."""
        return self._service

    # -- stage bookkeeping -------------------------------------------------------

    @property
    def stage(self) -> SessionStage:
        """The session's current workflow stage."""
        return self._stage

    def _require_stage(self, *allowed: SessionStage) -> None:
        if self._stage not in allowed:
            names = " or ".join(s.value for s in allowed)
            raise SessionStateError(
                f"operation requires stage {names}, session is {self._stage.value}"
            )

    def _require_table(self) -> Table:
        if self._table is None:
            raise SessionStateError("no dataset loaded; call load_builtin()/load_csv()")
        return self._table

    # -- stage 1: load data --------------------------------------------------------

    @_locked
    def load_builtin(self, name: str, **kwargs) -> None:
        """Load one of the paper's demo datasets (any stage; resets)."""
        table = dataset_by_name(name, **kwargs)
        self._reset_with(table, name)

    @_locked
    def load_csv(self, path: str | Path) -> None:
        """Load a user CSV (the paper's upload option; resets)."""
        table = load_csv_dataset(path)
        self._reset_with(table, Path(path).stem)

    @_locked
    def load_table(self, table: Table, name: str = "in-memory table") -> None:
        """Adopt an already-built table (programmatic clients)."""
        table.require_rows(2)
        self._reset_with(table, name)

    def _reset_with(self, table: Table, name: str) -> None:
        self._table = table
        self._dataset_name = name
        self._weights = {}
        self._sensitive = []
        self._diversity = []
        self._id_column = None
        self._monte_carlo_trials = 0
        self._monte_carlo_epsilons = (0.05, 0.1, 0.2)
        self._seed = 20180610  # a stale seed would silently change label bytes
        self._last_cached = False
        self._stage = SessionStage.DATA_LOADED

    @staticmethod
    def available_datasets() -> tuple[str, ...]:
        """The built-in dataset names."""
        return list_datasets()

    # -- stage 2: inspect (Figure 3's preview panel) ----------------------------------

    def dataset_name(self) -> str:
        """Name of the loaded dataset."""
        self._require_table()
        return self._dataset_name

    def preview_data(self, rows: int = 5) -> list[dict[str, object]]:
        """The design view's data preview: the first ``rows`` rows."""
        return list(self._require_table().head(rows).iter_rows())

    def attribute_overview(self) -> list[dict[str, object]]:
        """Per-attribute summary for the design view's attribute panel."""
        return attribute_preview(self._require_table())

    def attribute_histogram(self, attribute: str, bins: int = 10) -> Histogram:
        """Histogram of a numeric attribute (Figure 3 shows GRE's)."""
        return histogram(self._require_table().column(attribute), bins=bins)

    def attribute_histogram_ascii(self, attribute: str, bins: int = 10) -> str:
        """Terminal rendering of :meth:`attribute_histogram`."""
        return histogram_ascii(self.attribute_histogram(attribute, bins=bins))

    # -- stage 3: design the scoring function ------------------------------------------

    @_locked
    def set_normalization(self, enabled: bool) -> None:
        """Figure 3's normalize-and-standardize checkbox."""
        self._require_table()
        self._normalize = bool(enabled)

    @_locked
    def set_monte_carlo(
        self, trials: int, epsilons: Sequence[float] = (0.05, 0.1, 0.2)
    ) -> None:
        """Enable (trials > 0) or disable (0) the Monte-Carlo stability detail."""
        self._require_table()
        if trials < 0:
            raise SessionStateError(f"trials must be >= 0, got {trials}")
        self._monte_carlo_trials = int(trials)
        self._monte_carlo_epsilons = tuple(float(e) for e in epsilons)
        self._invalidate_label()

    @_locked
    def set_seed(self, seed: int) -> None:
        """Seed for the Monte-Carlo stability estimators."""
        self._require_table()
        self._seed = int(seed)
        self._invalidate_label()

    def _invalidate_label(self) -> None:
        """Leave LABELED: the label served so far no longer matches the design."""
        if self._stage is SessionStage.LABELED:
            self._stage = SessionStage.SCORER_DESIGNED

    @_locked
    def design_scoring(
        self,
        weights: Mapping[str, float],
        sensitive_attribute: str | Sequence[str],
        id_column: str | None = None,
        diversity_attributes: Sequence[str] | None = None,
        k: int = 10,
        alpha: float = 0.05,
    ) -> None:
        """Commit the scoring design (weights + sensitive attribute).

        Mirrors the paper's constraints: "at least one categorical
        attribute must be chosen as the sensitive attribute" and "the
        user selects at least one numerical attribute for the scoring
        function, and assigns a weight" (§3) — both are enforced by the
        underlying builder/scorer constructors.
        """
        self._require_stage(
            SessionStage.DATA_LOADED, SessionStage.SCORER_DESIGNED,
            SessionStage.PREVIEWED, SessionStage.LABELED,
        )
        table = self._require_table()
        scorer = LinearScoringFunction(dict(weights))  # validates weights
        for attr in scorer.attributes():
            table.numeric_column(attr)  # raise early on bad attributes
        sensitive = (
            [sensitive_attribute]
            if isinstance(sensitive_attribute, str)
            else list(sensitive_attribute)
        )
        if not sensitive:
            raise SessionStateError(
                "at least one sensitive attribute must be chosen (paper §3)"
            )
        for attr in sensitive:
            table.categorical_column(attr)
        if id_column is not None and id_column not in table:
            raise SessionStateError(f"id column {id_column!r} not in table")
        self._weights = scorer.weights
        self._sensitive = sensitive
        self._diversity = list(diversity_attributes or sensitive)
        self._id_column = id_column
        self._k = k
        self._alpha = alpha
        self._stage = SessionStage.SCORER_DESIGNED

    # -- stage 4: preview ------------------------------------------------------------------

    @_locked
    def preview(self, rows: int = 10) -> Ranking:
        """Rank with the current design and return the top ``rows``.

        The user "will preview the ranking, and will then either refine
        it, or go on to generate Ranking Facts" (§3).
        """
        self._require_stage(
            SessionStage.SCORER_DESIGNED, SessionStage.PREVIEWED, SessionStage.LABELED
        )
        table = self._require_table()
        scorer = LinearScoringFunction(self._weights)
        plan = (
            NormalizationPlan.minmax_all(scorer.attributes())
            if self._normalize
            else NormalizationPlan.raw()
        )
        from repro.preprocess.pipeline import TablePreprocessor

        prepared = TablePreprocessor(plan).fit_transform(table)
        ranking = rank_table(prepared, scorer, self._id_column)
        self._stage = SessionStage.PREVIEWED
        return ranking.top_k(min(rows, ranking.size))

    # -- stage 5: the label -----------------------------------------------------------------

    @_locked
    def current_design(self) -> LabelDesign:
        """The committed design as the engine's frozen value object."""
        self._require_stage(
            SessionStage.SCORER_DESIGNED, SessionStage.PREVIEWED, SessionStage.LABELED
        )
        return LabelDesign.create(
            weights=self._weights,
            sensitive=self._sensitive,
            diversity=self._diversity,
            id_column=self._id_column,
            k=self._k,
            alpha=self._alpha,
            normalize=self._normalize,
            monte_carlo_trials=self._monte_carlo_trials,
            monte_carlo_epsilons=self._monte_carlo_epsilons,
            seed=self._seed,
        )

    @_locked
    def generate_label(self) -> RankingFacts:
        """Serve the nutritional label for the current design.

        Computation goes through the label service: a repeat of an
        unchanged design (from this session or any other sharing the
        service) is a cache hit and performs zero rebuilds.
        """
        design = self.current_design()
        table = self._require_table()
        outcome = self._service.build_label(
            table, design, dataset_name=self._dataset_name
        )
        self._last_cached = outcome.cached
        self._stage = SessionStage.LABELED
        return outcome.facts

    @_locked
    def label_inputs(self):
        """The committed ``(table, design, dataset_name)`` triple.

        One consistent snapshot for callers that run the build *outside*
        the session lock — the streaming endpoint must not hold every
        other request on this session hostage for the length of a
        Monte-Carlo loop.  Raises like :meth:`current_design` when no
        design is committed.
        """
        design = self.current_design()
        return self._require_table(), design, self._dataset_name

    @_locked
    def last_label(self) -> RankingFacts:
        """The label of the committed design, re-served by the service.

        Only a LABELED session has one; the read counts in the service
        like any other (an L1 hit unless the cache evicted the label).
        """
        if self._stage is not SessionStage.LABELED:
            raise SessionStateError("no label generated yet; call generate_label()")
        return self.generate_label()

    @_locked
    def last_label_was_cached(self) -> bool:
        """Whether the last ``generate_label()`` was served from cache."""
        return self._last_cached
