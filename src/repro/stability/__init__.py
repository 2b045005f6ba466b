"""Stability estimators (the Stability widget's engine).

"An unstable ranking is one where slight changes to the data (e.g., due
to uncertainty and noise), or to the methodology (e.g., by slightly
adjusting the weights in a score-based ranker) could lead to a
significant change in the output.  This widget reports a stability
score, as a single number that indicates the extent of the change
required for the ranking to change" (paper §2.2).

Three estimators, matching the paper's three framings:

- :mod:`repro.stability.slope` — the detailed widget of Figure 2: the
  slope of a line fit to the score distribution at the top-10 and
  over-all, with the 0.25 instability threshold;
- :mod:`repro.stability.perturbation` — "slightly adjusting the
  weights": Monte-Carlo weight jitter, reporting how far the ranking
  moves and the smallest jitter that changes the top-k;
- :mod:`repro.stability.uncertainty` — "a model of uncertainty in the
  data": attribute noise injection with the same movement metrics.

The two Monte-Carlo estimators (and the per-attribute variant) run
their trials through a trial backend; when the scorer is a plain
linear one, the ``vectorized`` backend computes the entire trial batch
as array operations via :mod:`repro.stability.kernels` —
byte-identical to the serial loop, minus the per-trial Python.
"""

from repro.stability.gaps import GapReport, score_gap_analysis
from repro.stability.kernels import dispatch_kernel
from repro.stability.montecarlo import trial_rng
from repro.stability.per_attribute import AttributeStability, per_attribute_stability
from repro.stability.perturbation import (
    PerturbationOutcome,
    WeightPerturbationStability,
    minimal_change_epsilon,
)
from repro.stability.slope import SlopeStability, SlopeStabilityReport, slope_stability
from repro.stability.uncertainty import DataUncertaintyStability

__all__ = [
    "SlopeStability",
    "SlopeStabilityReport",
    "slope_stability",
    "WeightPerturbationStability",
    "PerturbationOutcome",
    "minimal_change_epsilon",
    "DataUncertaintyStability",
    "GapReport",
    "score_gap_analysis",
    "AttributeStability",
    "per_attribute_stability",
    "trial_rng",
    "dispatch_kernel",
]
