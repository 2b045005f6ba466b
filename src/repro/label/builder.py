"""The label factory: from table + scoring design to a nutritional label.

:class:`RankingFactsBuilder` is the programmatic equivalent of the
paper's Figure-3 design view: the caller supplies the dataset, the
scoring function, the sensitive attribute(s) and the diversity
attributes, then ``build()`` executes the whole pipeline —
preprocessing, ranking, and all five widget computations — and returns
a :class:`RankingFacts` bundle holding the ranking and its
:class:`~repro.label.widgets.NutritionalLabel`.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import LabelError
from repro.diversity.measures import diversity_report
from repro.fairness.base import evaluate_fairness
from repro.ingredients.importance import ingredients as ingredients_analysis
from repro.label.widgets import (
    DiversityWidget,
    FairnessWidget,
    IngredientsWidget,
    NutritionalLabel,
    RecipeWidget,
    StabilityWidget,
    WidgetStatistics,
)
from repro.preprocess.pipeline import NormalizationPlan, TablePreprocessor
from repro.ranking.ranker import Ranking, rank_table
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.gaps import score_gap_analysis
from repro.stability.per_attribute import per_attribute_stability
from repro.stability.perturbation import WeightPerturbationStability
from repro.stability.slope import SlopeStability
from repro.stability.uncertainty import DataUncertaintyStability
from repro.tabular.summary import describe
from repro.tabular.table import Table

if TYPE_CHECKING:
    from repro.engine.backends import TrialBackend

__all__ = ["RankingFactsBuilder", "RankingFacts", "WidgetProgress"]

#: per-widget build callback: ``(widget_name, widget, seconds)``
WidgetProgress = Callable[[str, object, float], None]


@dataclass(frozen=True)
class RankingFacts:
    """The build output: the ranking, the label, and the scored table."""

    ranking: Ranking
    label: NutritionalLabel
    scored_table: Table


class RankingFactsBuilder:
    """Fluent configuration for one nutritional label.

    Example
    -------
    >>> from repro.datasets import cs_departments
    >>> from repro.ranking import LinearScoringFunction
    >>> facts = (
    ...     RankingFactsBuilder(cs_departments(), dataset_name="CS departments")
    ...     .with_id_column("DeptName")
    ...     .with_scoring(LinearScoringFunction(
    ...         {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2}))
    ...     .with_normalization(NormalizationPlan.minmax_all(
    ...         ["PubCount", "Faculty", "GRE"]))
    ...     .with_sensitive_attribute("DeptSizeBin")
    ...     .with_diversity_attributes(["DeptSizeBin", "Region"])
    ...     .build()
    ... )
    >>> facts.label.fairness.any_unfair()
    True
    """

    def __init__(self, table: Table, dataset_name: str = "unnamed dataset"):
        table.require_rows(2)
        self._table = table
        self._dataset_name = dataset_name
        self._id_column: str | None = None
        self._scorer: LinearScoringFunction | None = None
        self._plan: NormalizationPlan | None = None
        self._sensitive: list[tuple[str, tuple[str, ...] | None]] = []
        self._diversity_attributes: list[str] = []
        self._k = 10
        self._alpha = 0.05
        self._ingredients_method = "spearman"
        self._slope_threshold = 0.25
        self._monte_carlo_trials = 0  # 0 disables the optional MC stability
        self._monte_carlo_epsilons = (0.05, 0.1, 0.2)
        self._seed = 20180610
        self._backend: "TrialBackend | None" = None

    # -- configuration ---------------------------------------------------------

    def with_id_column(self, name: str) -> "RankingFactsBuilder":
        """Declare which column identifies items."""
        if name not in self._table:
            raise LabelError(f"id column {name!r} not in table")
        self._id_column = name
        return self

    def with_scoring(self, scorer: LinearScoringFunction) -> "RankingFactsBuilder":
        """Set the scoring function (the Recipe)."""
        self._scorer = scorer
        return self

    def with_normalization(self, plan: NormalizationPlan) -> "RankingFactsBuilder":
        """Set the preprocessing plan (Figure 3's checkbox).

        When omitted, scoring attributes are min-max normalized — the
        demo tool's default.  Pass ``NormalizationPlan.raw()`` to rank
        on raw values.
        """
        self._plan = plan
        return self

    def with_sensitive_attribute(
        self, attribute: str, categories: Sequence[str] | None = None
    ) -> "RankingFactsBuilder":
        """Add a sensitive attribute for the Fairness widget.

        Ranking Facts evaluates "fairness with respect to every value in
        the domain of this attribute" (paper §3); restrict with explicit
        ``categories`` if needed.  May be called multiple times.
        """
        self._table.categorical_column(attribute)  # raise early
        self._sensitive.append(
            (attribute, tuple(categories) if categories is not None else None)
        )
        return self

    def with_diversity_attributes(
        self, attributes: Sequence[str]
    ) -> "RankingFactsBuilder":
        """Choose the categorical attributes the Diversity widget shows."""
        for attribute in attributes:
            self._table.categorical_column(attribute)  # raise early
        self._diversity_attributes = list(attributes)
        return self

    def with_top_k(self, k: int) -> "RankingFactsBuilder":
        """Headline prefix size for every widget (default 10)."""
        if k < 2:
            raise LabelError(f"top-k must be >= 2, got {k}")
        self._k = k
        return self

    def with_alpha(self, alpha: float) -> "RankingFactsBuilder":
        """Significance level for the fairness verdicts (default 0.05)."""
        if not 0.0 < alpha < 1.0:
            raise LabelError(f"alpha must be in (0, 1), got {alpha}")
        self._alpha = alpha
        return self

    def with_ingredients_method(self, method: str) -> "RankingFactsBuilder":
        """``"spearman"`` (default) or ``"linear-model"`` importance."""
        if method not in ("spearman", "linear-model"):
            raise LabelError(
                f"ingredients method must be 'spearman' or 'linear-model', got {method!r}"
            )
        self._ingredients_method = method
        return self

    def with_slope_threshold(self, threshold: float) -> "RankingFactsBuilder":
        """Instability threshold for the slope fit (default 0.25)."""
        if threshold <= 0.0:
            raise LabelError(f"slope threshold must be positive, got {threshold}")
        self._slope_threshold = threshold
        return self

    def with_monte_carlo_stability(
        self, trials: int = 30, epsilons: Sequence[float] = (0.05, 0.1, 0.2)
    ) -> "RankingFactsBuilder":
        """Enable the optional perturbation/uncertainty stability detail.

        Off by default: the Monte-Carlo loop re-ranks ``trials`` times
        per epsilon, which is the one expensive part of a label.
        """
        if trials < 1:
            raise LabelError(f"trials must be >= 1, got {trials}")
        if not epsilons:
            raise LabelError("need at least one epsilon")
        self._monte_carlo_trials = trials
        self._monte_carlo_epsilons = tuple(float(e) for e in epsilons)
        return self

    def with_seed(self, seed: int) -> "RankingFactsBuilder":
        """Seed for the Monte-Carlo stability estimators."""
        self._seed = seed
        return self

    def with_trial_backend(
        self, backend: "TrialBackend | None"
    ) -> "RankingFactsBuilder":
        """Run the Monte-Carlo stability trials on ``backend``.

        Every backend produces byte-identical labels for equal seeds
        (per-trial RNG streams + ordered reassembly).  ``None`` keeps
        the trials on the calling thread.
        """
        self._backend = backend
        return self

    # -- build ------------------------------------------------------------------

    def _require_configured(self) -> LinearScoringFunction:
        if self._scorer is None:
            raise LabelError("no scoring function configured; call with_scoring()")
        if not self._sensitive:
            raise LabelError(
                "at least one sensitive attribute must be chosen "
                "(paper §3); call with_sensitive_attribute()"
            )
        return self._scorer

    def _statistics_for(
        self, ranking: Ranking, attributes: Sequence[str]
    ) -> tuple[WidgetStatistics, ...]:
        top = ranking.top_k(min(self._k, ranking.size))
        stats = []
        for name in attributes:
            stats.append(
                WidgetStatistics(
                    attribute=name,
                    top_k=describe(top.table.column(name)),
                    overall=describe(ranking.table.column(name)),
                )
            )
        return tuple(stats)

    def build(self, progress: "WidgetProgress | None" = None) -> RankingFacts:
        """Run the full pipeline and assemble the label.

        ``progress``, when given, is called once per widget — **as the
        widget finishes** — with ``(name, widget, seconds)``.  Widgets
        are computed cheapest-first (recipe, ingredients, fairness,
        diversity, then the optionally Monte-Carlo-heavy stability), so
        a streaming consumer sees most of the label while the trial
        loop is still running.  Computation order does not affect the
        label: every widget reads only the shared ranking, and the
        assembled :class:`NutritionalLabel` is identical — same bytes,
        same fingerprint — with or without a callback.  The callback
        runs on the build thread and must not raise (wrap it if the
        consumer is fallible).
        """
        scorer = self._require_configured()

        plan = self._plan
        if plan is None:
            plan = NormalizationPlan.minmax_all(scorer.attributes())
        preprocessor = TablePreprocessor(plan)
        prepared = preprocessor.fit_transform(self._table)

        ranking = rank_table(prepared, scorer, self._id_column)

        def emit(name: str, widget, started: float) -> None:
            if progress is not None:
                progress(name, widget, time.perf_counter() - started)

        started = time.perf_counter()
        recipe = RecipeWidget(
            scorer_name=scorer.name,
            weights=scorer.weights,
            normalized_weights=scorer.normalized_weights(),
            normalization={
                attr: plan.scheme_for(attr) for attr in scorer.attributes()
            },
            statistics=self._statistics_for(ranking, scorer.attributes()),
        )
        emit("recipe", recipe, started)

        started = time.perf_counter()
        analysis = ingredients_analysis(ranking, method=self._ingredients_method)
        top_names = [item.attribute for item in analysis.top(3)]
        ingredients_widget = IngredientsWidget(
            analysis=analysis,
            top_n=3,
            statistics=self._statistics_for(ranking, top_names),
        )
        emit("ingredients", ingredients_widget, started)

        started = time.perf_counter()
        fairness_results = []
        for attribute, categories in self._sensitive:
            fairness_results.extend(
                evaluate_fairness(
                    ranking, attribute, categories=categories,
                    k=self._k, alpha=self._alpha,
                )
            )
        fairness_widget = FairnessWidget(
            results=tuple(fairness_results), k=self._k, alpha=self._alpha
        )
        emit("fairness", fairness_widget, started)

        started = time.perf_counter()
        diversity_attrs = self._diversity_attributes or [
            attr for attr, _ in self._sensitive
        ]
        diversity_widget = DiversityWidget(
            reports=tuple(diversity_report(ranking, diversity_attrs, k=self._k)),
            k=self._k,
        )
        emit("diversity", diversity_widget, started)

        started = time.perf_counter()
        slope_report = SlopeStability(
            k=self._k, threshold=self._slope_threshold
        ).assess(ranking)
        gap_reports = score_gap_analysis(ranking, k=self._k)
        perturbation_outcomes = ()
        uncertainty_outcomes = ()
        attribute_results = ()
        if self._monte_carlo_trials > 0 and self._id_column is not None:
            wps = WeightPerturbationStability(
                prepared, scorer, self._id_column,
                k=self._k, trials=self._monte_carlo_trials, seed=self._seed,
                backend=self._backend,
            )
            perturbation_outcomes = tuple(
                wps.assess_at(eps) for eps in self._monte_carlo_epsilons
            )
            dus = DataUncertaintyStability(
                prepared, scorer, self._id_column,
                k=self._k, trials=self._monte_carlo_trials, seed=self._seed,
                backend=self._backend,
            )
            uncertainty_outcomes = tuple(
                dus.assess_at(eps) for eps in self._monte_carlo_epsilons
            )
            attribute_results = tuple(
                per_attribute_stability(
                    prepared, scorer, self._id_column,
                    k=self._k, trials=self._monte_carlo_trials, seed=self._seed,
                    backend=self._backend,
                )
            )
        stability_widget = StabilityWidget(
            slope_report=slope_report,
            perturbation=perturbation_outcomes,
            uncertainty=uncertainty_outcomes,
            gaps=gap_reports,
            per_attribute=attribute_results,
        )
        emit("stability", stability_widget, started)

        label = NutritionalLabel(
            dataset_name=self._dataset_name,
            num_items=ranking.size,
            k=self._k,
            recipe=recipe,
            ingredients=ingredients_widget,
            stability=stability_widget,
            fairness=fairness_widget,
            diversity=diversity_widget,
            metadata={
                "id_column": self._id_column,
                "alpha": self._alpha,
                "ingredients_method": self._ingredients_method,
                "normalization_params": preprocessor.fitted_params(),
            },
        )
        return RankingFacts(ranking=ranking, label=label, scored_table=prepared)
