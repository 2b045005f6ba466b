"""Shared Monte-Carlo plumbing for the stability estimators.

Every stability estimator runs the same shape of loop: ``trials``
independent draws, each of which re-ranks the table and compares the
result to a baseline.  Three properties let that loop run as one array
program or be sharded across machines without changing a result:

- **Per-trial RNG streams.**  Trial ``i`` draws from
  ``default_rng([seed, i])`` instead of consuming a single sequential
  stream, so a trial's randomness does not depend on which trials ran
  before it (or on which worker ran it).  Results are therefore
  bit-identical whether the loop runs serially, batched, or in chunks
  on remote workers — the property the engine's executor relies on.
- **Picklable trial work.**  The estimators package everything a trial
  needs into a plain payload (table arrays + design parameters) and
  run a *module-level* function over it, so the remote backend can
  ship the work over the cluster wire by pickling one payload per
  chunk.
- **Order-preserving execution.**  :func:`run_payload_trials` maps the
  trial function over ``range(trials)`` inline or via a
  :class:`~repro.engine.backends.TrialBackend`, every one of which
  returns results in trial order — aggregation code never sees
  reordered outcomes.  (The ``vectorized`` backend exploits the same
  shape from the other direction: because the payload is plain data
  and the RNG streams are per-trial, the whole batch can be computed
  as one array program — see :mod:`repro.stability.kernels`.)
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np

if TYPE_CHECKING:  # engine imports stability; keep the reverse static-only
    from repro.engine.backends import TrialBackend

__all__ = ["trial_rng", "run_payload_trials"]

T = TypeVar("T")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """An independent, deterministic generator for one Monte-Carlo trial."""
    return np.random.default_rng([seed, trial])


def run_payload_trials(
    fn: Callable[[Any, int], T],
    payload: Any,
    trials: int,
    backend: "TrialBackend | None" = None,
) -> list[T]:
    """Run ``fn(payload, 0..trials-1)`` on ``backend``, in trial order.

    ``fn`` must be a module-level function and ``payload`` plain
    picklable data, because the remote backend ships both over the
    cluster wire; with ``backend=None`` the trials run inline on the
    calling thread.
    """
    if backend is None:
        return [fn(payload, trial) for trial in range(trials)]
    return backend.run(fn, payload, trials)
