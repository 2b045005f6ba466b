"""Two-tier label caching: in-memory L1 over the durable L2 store.

:class:`TieredLabelCache` composes the engine's existing
single-flight :class:`~repro.engine.cache.LabelCache` (L1 — process
memory, microseconds) with a :class:`~repro.store.store.LabelStore`
(L2 — disk, survives the process) behind one ``get_or_build``:

1. L1 hit — the value is served from memory; nothing touches disk.
2. L1 miss, L2 hit — the stored payload is unpickled and **promoted**
   into L1, so the next request is tier 1; the Monte-Carlo build is
   skipped entirely (this is the warm-restart path).
3. Double miss — the builder runs once (L1's single-flight guarantee
   holds: concurrent requests for one missing key cost one build *and*
   at most one L2 read), and the result is written through to both
   tiers along with its provenance record.

The lookup happens *inside* the L1 build slot, so a thundering herd on
a cold key performs exactly one L2 read and one store write, never N.
Each call returns the tier that served it; the label service counts
that tier once, in ``repro_label_requests_total``, and derives every
tier-transition figure ``GET /engine/stats`` reports from it.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.engine.cache import LabelCache
from repro.store.provenance import LabelProvenance
from repro.store.store import LabelStore
from repro.telemetry import span

__all__ = ["TieredLabelCache"]


class TieredLabelCache:
    """L1 (:class:`LabelCache`) over L2 (:class:`LabelStore`).

    The tiers stay independently usable: the L1 cache keeps its own
    bounds, the store keeps its own GC — this class only owns the
    routing.
    """

    def __init__(self, l1: LabelCache, l2: LabelStore):
        self._l1 = l1
        self._l2 = l2

    @property
    def l1(self) -> LabelCache:
        """The in-memory tier."""
        return self._l1

    @property
    def l2(self) -> LabelStore:
        """The durable tier."""
        return self._l2

    def get_or_build(
        self,
        key: str,
        build: Callable[[], tuple[Any, LabelProvenance | None]],
    ) -> tuple[Any, str]:
        """Serve ``key`` from the cheapest tier; returns ``(value, tier)``.

        ``tier`` is ``"l1"``, ``"l2"``, or ``"build"``.  ``build`` runs
        only on a double miss and must return the value plus its
        provenance record (or ``None``); the pair is written through to
        the store, the value alone to L1.
        """
        # tier of *this* call's fill path; "l1" when the slot resolved
        # from memory (including waiters that joined a single flight)
        state: dict[str, str] = {}

        def fill() -> Any:
            value = self._l2.get(key)
            if value is not None:
                state["tier"] = "l2"
                return value
            state["tier"] = "build"
            value, provenance = build()
            self._l2.put(key, value, provenance)
            return value

        with span("tiers.get_or_build", fingerprint=key[:12]) as tier_span:
            value, l1_cached = self._l1.get_or_build(key, fill)
            tier = "l1" if l1_cached else state["tier"]
            # the decision this span exists to record: which tier served
            tier_span.tags["tier"] = tier
        return value, tier
