"""The durable archive: labels that survive the process.

The paper frames a nutritional label as an artifact that *accompanies*
a published ranking; this package makes it one.  One SQLite file (WAL
mode — safe to share between processes on one host) archives three
kinds of entry: labels, content-addressed and each with a provenance
record of how it was built; the traces that show how a label request
ran; and the CPU profiles captured during slow ones.  All three share
one put/get/list/resolve-prefix path, one ``max_bytes`` budget and one
GC victim order (profiles, then traces, then labels).  Labels are
served through a two-tier cache, so a restarted server warm-starts
instead of re-running every Monte-Carlo loop.

- :mod:`repro.store.schema` — versioned DDL plus the migration guard;
- :mod:`repro.store.store` — :class:`LabelStore`: the archive, with
  typed entry points per kind (``put``/``get``, ``put_trace``/
  ``get_trace``, ``put_profile``/``get_profile``), byte-exact payloads
  and TTL/``max_bytes`` GC;
- :mod:`repro.store.provenance` — :class:`LabelProvenance` records;
- :mod:`repro.store.tiering` — :class:`TieredLabelCache`: the
  in-memory L1 over the store as L2, with tier counters.

Opt in via ``LabelService(store_path=...)``, ``serve --store PATH``
(or ``REPRO_LABEL_STORE``), and inspect with ``ranking-facts store``.
"""

from repro.store.provenance import LabelProvenance
from repro.store.schema import SCHEMA_VERSION, ensure_schema
from repro.store.store import LabelStore, StoredLabel, StoredProfile, StoredTrace
from repro.store.tiering import TieredLabelCache

__all__ = [
    "SCHEMA_VERSION",
    "ensure_schema",
    "LabelProvenance",
    "LabelStore",
    "StoredLabel",
    "StoredProfile",
    "StoredTrace",
    "TieredLabelCache",
]
