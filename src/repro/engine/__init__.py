"""The label computation engine: cached, parallel, multi-session.

The paper's tool is "a Web-based application"; serving it to more than
one audience at hardware speed needs a layer between the app and the
label builder.  That layer is this package:

- :mod:`repro.engine.fingerprint` — content hashes for (table, design)
  pairs, so identical requests are identical cache keys;
- :mod:`repro.engine.cache` — a thread-safe LRU of built labels with
  single-flight deduplication and hit/miss/eviction stats;
- :mod:`repro.engine.jobs` — :class:`LabelDesign` / :class:`LabelJob`
  value objects every entry point normalizes into;
- :mod:`repro.engine.backends` — :class:`TrialBackend` execution for
  the Monte-Carlo trials: vectorized (the whole trial batch as array
  kernels, see :mod:`repro.stability.kernels` — the default), serial
  (the scalar reference loop), or remote (the batch sharded across
  worker daemons with failover, see :mod:`repro.cluster`), selected by
  name;
- :mod:`repro.engine.executor` — thread-pool fan-out for batches, plus
  the trial backend handed to each build;
- :mod:`repro.engine.service` — :class:`LabelService`, the facade the
  session, server, and CLI call.

Determinism contract: a label served by the engine — cached, batched,
or with its trials on any backend — is byte-identical to one built
serially by :class:`~repro.label.builder.RankingFactsBuilder` with the
same seed.
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    SerialTrialBackend,
    TrialBackend,
    VectorizedTrialBackend,
    resolve_trial_backend,
    run_trial_span,
)
from repro.engine.cache import CacheStats, LabelCache
from repro.engine.executor import BatchHandle, LabelExecutor
from repro.engine.fingerprint import (
    design_fingerprint,
    label_fingerprint,
    table_fingerprint,
)
from repro.engine.jobs import JobResult, JobStatus, LabelDesign, LabelJob
from repro.engine.service import LabelOutcome, LabelService

__all__ = [
    "BACKEND_NAMES",
    "TrialBackend",
    "SerialTrialBackend",
    "VectorizedTrialBackend",
    "resolve_trial_backend",
    "run_trial_span",
    "CacheStats",
    "LabelCache",
    "BatchHandle",
    "LabelExecutor",
    "table_fingerprint",
    "design_fingerprint",
    "label_fingerprint",
    "LabelDesign",
    "LabelJob",
    "JobResult",
    "JobStatus",
    "LabelOutcome",
    "LabelService",
]
