"""Job specs: what the engine computes, as plain data.

:class:`LabelDesign` is the complete recipe for one nutritional label —
everything :class:`~repro.label.builder.RankingFactsBuilder` can be
configured with, frozen into a hashable value object.  A design plus a
table is a :class:`LabelJob`; running a job yields a
:class:`JobResult`.  Every entry point (HTTP ``POST /jobs``, the CLI's
``batch`` command, programmatic callers) normalizes into these types,
so the cache, the executor, and the service never see entry-point
specific shapes.

Ordering note: attribute order is *preserved*, not sorted.  The recipe
widget lists weights in the order the user gave them, so two designs
with the same weights in a different order produce different label
bytes — and therefore different fingerprints.  Canonicalization only
normalizes representation (floats, key order of the outer mapping),
never meaning.

Execution note: *how* a label is computed — which
:class:`~repro.engine.backends.TrialBackend` runs the Monte-Carlo
trials — is deliberately **not** part of a design.  Backends are
byte-identical for equal seeds, so the same fingerprint must be a
cache hit whether the label's trials ran in-process or on remote
workers.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.datasets.loaders import dataset_by_name, load_csv_dataset
from repro.errors import EngineError
from repro.preprocess.pipeline import NormalizationPlan
from repro.ranking.scoring import LinearScoringFunction
from repro.tabular.table import Table

if TYPE_CHECKING:  # avoid an import cycle at runtime
    from repro.label.builder import RankingFacts, RankingFactsBuilder

__all__ = ["LabelDesign", "LabelJob", "JobStatus", "JobResult"]


def _epsilon_tuple(value: object) -> tuple[float, ...]:
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise TypeError("expected a list of numbers")
    return tuple(float(e) for e in value)


@dataclass(frozen=True)
class LabelDesign:
    """One ranking recipe, frozen: the unit the cache keys on.

    Build instances with :meth:`create` (keyword-friendly coercion) or
    :meth:`from_mapping` (JSON bodies); the dataclass fields store
    normalized tuples so designs are hashable and comparable.
    """

    weights: tuple[tuple[str, float], ...]
    sensitive: tuple[str, ...]
    diversity: tuple[str, ...] = ()
    id_column: str | None = None
    k: int = 10
    alpha: float = 0.05
    normalize: bool = True
    ingredients_method: str = "spearman"
    slope_threshold: float = 0.25
    monte_carlo_trials: int = 0
    monte_carlo_epsilons: tuple[float, ...] = (0.05, 0.1, 0.2)
    seed: int = 20180610

    @classmethod
    def create(
        cls,
        weights: Mapping[str, float],
        sensitive: str | Sequence[str],
        diversity: Sequence[str] | None = None,
        **kwargs,
    ) -> "LabelDesign":
        """Coerce friendly argument shapes into a frozen design."""
        if isinstance(sensitive, str):
            sensitive = [sensitive]
        if not isinstance(sensitive, Sequence):
            raise EngineError('"sensitive" must be an attribute name or list')
        if diversity is not None and (
            isinstance(diversity, str) or not isinstance(diversity, Sequence)
        ):
            raise EngineError('"diversity" must be a list of attribute names')
        if not weights:
            raise EngineError("a design needs a non-empty weights mapping")
        if not sensitive:
            raise EngineError(
                "a design needs at least one sensitive attribute (paper §3)"
            )
        epsilons = kwargs.pop("monte_carlo_epsilons", (0.05, 0.1, 0.2))
        return cls(
            weights=tuple((str(a), float(w)) for a, w in weights.items()),
            sensitive=tuple(str(s) for s in sensitive),
            diversity=tuple(str(d) for d in (diversity or ())),
            monte_carlo_epsilons=tuple(float(e) for e in epsilons),
            **kwargs,
        )

    @classmethod
    def from_mapping(cls, body: Mapping[str, object]) -> "LabelDesign":
        """Parse a JSON-shaped design (the HTTP and batch-spec format)."""
        if not isinstance(body, Mapping):
            raise EngineError(f"design must be a mapping, got {type(body).__name__}")
        known = {
            "weights", "sensitive", "diversity", "id_column", "k", "alpha",
            "normalize", "ingredients_method", "slope_threshold",
            "monte_carlo_trials", "monte_carlo_epsilons", "seed",
        }
        unknown = set(body) - known
        if unknown:
            raise EngineError(
                f"unknown design field(s): {', '.join(sorted(unknown))}"
            )
        weights = body.get("weights")
        if not isinstance(weights, Mapping) or not weights:
            raise EngineError('design needs a non-empty "weights" object')
        kwargs = {}
        for key, coerce in (
            ("id_column", lambda v: None if v is None else str(v)),
            ("k", int),
            ("alpha", float),
            ("normalize", bool),
            ("ingredients_method", str),
            ("slope_threshold", float),
            ("monte_carlo_trials", int),
            ("monte_carlo_epsilons", _epsilon_tuple),
            ("seed", int),
        ):
            if key in body:
                try:
                    kwargs[key] = coerce(body[key])
                except (TypeError, ValueError) as exc:
                    raise EngineError(
                        f"bad design value for {key!r}: {body[key]!r} ({exc})"
                    ) from exc
        try:
            clean_weights = {str(a): float(w) for a, w in weights.items()}
        except (TypeError, ValueError) as exc:
            raise EngineError(f"bad design weights: {exc}") from exc
        return cls.create(
            weights=clean_weights,
            sensitive=body.get("sensitive") or (),
            diversity=body.get("diversity"),
            **kwargs,
        )

    def canonical_dict(self) -> dict[str, object]:
        """JSON-safe mapping for fingerprints and wire round-trips.

        Inner lists keep their order (it is meaningful — see the module
        docstring); the outer key order is normalized by the
        fingerprint's ``sort_keys`` serialization.
        """
        return {
            "weights": [[attr, weight] for attr, weight in self.weights],
            "sensitive": list(self.sensitive),
            "diversity": list(self.diversity),
            "id_column": self.id_column,
            "k": self.k,
            "alpha": self.alpha,
            "normalize": self.normalize,
            "ingredients_method": self.ingredients_method,
            "slope_threshold": self.slope_threshold,
            "monte_carlo_trials": self.monte_carlo_trials,
            "monte_carlo_epsilons": list(self.monte_carlo_epsilons),
            "seed": self.seed,
        }

    def weights_dict(self) -> dict[str, float]:
        """The weights as a mapping, in declaration order."""
        return dict(self.weights)

    def with_updates(self, **changes) -> "LabelDesign":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def builder_for(
        self, table: Table, dataset_name: str = "unnamed dataset"
    ) -> "RankingFactsBuilder":
        """A fully configured builder for this design over ``table``."""
        from repro.label.builder import RankingFactsBuilder

        scorer = LinearScoringFunction(self.weights_dict())
        builder = (
            RankingFactsBuilder(table, dataset_name=dataset_name)
            .with_scoring(scorer)
            .with_top_k(self.k)
            .with_alpha(self.alpha)
            .with_ingredients_method(self.ingredients_method)
            .with_slope_threshold(self.slope_threshold)
            .with_seed(self.seed)
        )
        if self.id_column is not None:
            builder.with_id_column(self.id_column)
        if not self.normalize:
            builder.with_normalization(NormalizationPlan.raw())
        for attribute in self.sensitive:
            builder.with_sensitive_attribute(attribute)
        if self.diversity:
            builder.with_diversity_attributes(list(self.diversity))
        else:
            builder.with_diversity_attributes(list(self.sensitive))
        if self.monte_carlo_trials > 0:
            builder.with_monte_carlo_stability(
                trials=self.monte_carlo_trials,
                epsilons=self.monte_carlo_epsilons,
            )
        return builder


@dataclass(frozen=True)
class LabelJob:
    """One unit of batch work: a dataset reference plus a design.

    Exactly one of ``dataset`` (built-in name), ``csv_path``, or
    ``table`` must identify the data.
    """

    design: LabelDesign
    dataset: str | None = None
    csv_path: str | None = None
    table: Table | None = None
    dataset_name: str | None = None
    job_id: str = ""

    def __post_init__(self):
        sources = sum(
            source is not None for source in (self.dataset, self.csv_path, self.table)
        )
        if sources != 1:
            raise EngineError(
                "a job needs exactly one data source: "
                '"dataset" (built-in name), "csv_path", or a table'
            )

    @classmethod
    def from_mapping(cls, body: Mapping[str, object], job_id: str = "") -> "LabelJob":
        """Parse one entry of a batch spec (HTTP body or CLI JSON file).

        A spec-supplied ``"id"`` wins over the caller's positional
        ``job_id`` default, so ``--output-dir`` files and poll rows
        carry the user's name for the job, not ``job-<index>``.
        """
        if not isinstance(body, Mapping):
            raise EngineError(f"job must be a mapping, got {type(body).__name__}")
        design = body.get("design")
        if design is None:
            raise EngineError('job needs a "design" object')
        dataset = body.get("dataset")
        csv_path = body.get("csv")
        return cls(
            design=LabelDesign.from_mapping(design),
            dataset=None if dataset is None else str(dataset),
            csv_path=None if csv_path is None else str(csv_path),
            dataset_name=(
                None if body.get("name") is None else str(body.get("name"))
            ),
            job_id=str(body.get("id") or "") or job_id,
        )

    def resolve_table(self) -> tuple[Table, str]:
        """Materialize the data: ``(table, display name)``."""
        if self.table is not None:
            return self.table, self.dataset_name or "in-memory table"
        if self.dataset is not None:
            return dataset_by_name(self.dataset), self.dataset_name or self.dataset
        assert self.csv_path is not None  # __post_init__ guarantees one source
        from pathlib import Path

        return (
            load_csv_dataset(self.csv_path),
            self.dataset_name or Path(self.csv_path).stem,
        )


class JobStatus(enum.Enum):
    """Lifecycle of one batch job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class JobResult:
    """What came back from one job."""

    job_id: str
    status: JobStatus
    facts: "RankingFacts | None" = None
    fingerprint: str = ""
    cached: bool = False
    seconds: float = 0.0
    error: str = ""
    dataset_name: str = ""

    def summary(self) -> dict[str, object]:
        """JSON-safe status row (no label payload)."""
        return {
            "job_id": self.job_id,
            "status": self.status.value,
            "dataset": self.dataset_name,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
            "error": self.error or None,
        }
