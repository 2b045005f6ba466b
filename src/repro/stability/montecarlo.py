"""Shared Monte-Carlo plumbing for the stability estimators.

Every stability estimator runs the same shape of loop: ``trials``
independent draws, each of which re-ranks the table and compares the
result to a baseline.  Three properties let that loop run as one array
program or be sharded across machines without changing a result:

- **Per-trial RNG streams.**  Trial ``i`` draws from
  ``default_rng([seed, i])`` instead of consuming a single sequential
  stream, so a trial's randomness does not depend on which trials ran
  before it (or on which worker ran it).  Results are therefore
  bit-identical whether a batch runs whole or in chunks on remote
  workers — the property the engine's executor relies on.
- **Picklable trial work.**  The estimators package everything a trial
  batch needs into a plain payload (table arrays + design parameters)
  and run a *module-level* batch function over it, so the remote
  backend can ship the work over the cluster wire by pickling one
  payload per chunk.
- **One trial contract.**  A trial function is a batch kernel,
  ``fn(payload, trials, start) -> list`` (see
  :mod:`repro.stability.kernels`): it computes trials
  ``[start, start + trials)`` in trial order.  :func:`run_payload_trials`
  runs it inline or via a :class:`~repro.engine.backends.TrialBackend`,
  and both paths call :func:`repro.stability.kernels.dispatch_kernel`,
  so aggregation code never sees reordered outcomes.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # engine imports stability; keep the reverse static-only
    from repro.engine.backends import TrialBackend

__all__ = ["trial_rng", "run_payload_trials"]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """An independent, deterministic generator for one Monte-Carlo trial."""
    return np.random.default_rng([seed, trial])


def run_payload_trials(
    fn: Callable[[Any, int, int], list],
    payload: Any,
    trials: int,
    backend: "TrialBackend | None" = None,
) -> list:
    """Run trials ``0..trials-1`` of batch function ``fn`` on ``backend``.

    ``fn`` must be a module-level function and ``payload`` plain
    picklable data, because the remote backend ships both over the
    cluster wire; with ``backend=None`` the batch runs inline on the
    calling thread.
    """
    if backend is None:
        # imported lazily: the kernels import this module for trial_rng
        from repro.stability.kernels import dispatch_kernel

        return dispatch_kernel(fn, payload, trials, 0)
    return backend.run(fn, payload, trials)
