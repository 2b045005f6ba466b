"""The label computation service: the seam between app and builder.

Every client — :class:`~repro.app.session.DemoSession`, the HTTP
server's session registry, the CLI's ``batch`` command — asks
:class:`LabelService` for labels instead of driving
:class:`~repro.label.builder.RankingFactsBuilder` directly.  The
service adds what a multi-session deployment needs and a single demo
session never did:

- **content-addressed caching** — identical (table, design) pairs are
  one computation, across sessions and entry points, with single-flight
  deduplication under concurrency (:mod:`repro.engine.cache`);
- **fast Monte-Carlo** — the builder gets the service's trial backend,
  which runs the stability trials (the hot path) as batched array
  kernels or on remote workers with bit-identical results
  (:mod:`repro.engine.backends`);
- **batch execution** — many jobs submitted at once, tracked by batch
  id for async polling (:mod:`repro.engine.executor`);
- **observability** — one ``stats()`` snapshot over cache, executor,
  and build counters, served at ``GET /engine/stats``.

Remote trial workers (:mod:`repro.cluster`) already land behind this
facade — ``trial_backend="remote"`` — and future scaling work
(sharding the cache, async IO, alternative builders) should too,
without touching the clients.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Sequence
from dataclasses import replace

from repro.engine.backends import TrialBackend
from repro.engine.cache import LabelCache
from repro.engine.executor import BatchHandle, LabelExecutor
from repro.engine.fingerprint import label_fingerprint
from repro.engine.jobs import JobResult, JobStatus, LabelDesign, LabelJob
from repro.engine.streaming import (
    LabelEventQueue,
    LabelStreamEvent,
    error_event,
    label_event,
    replay_events,
    widget_event,
)
from repro.errors import RankingFactsError
from repro.label.builder import RankingFacts, WidgetProgress
from repro.label.render_json import render_json
from repro.tabular.table import Table
from repro.telemetry import (
    MetricsRegistry,
    get_default_registry,
    get_logger,
    merged_stats,
    span,
)

_log = get_logger("engine.service")

__all__ = ["LabelOutcome", "LabelService"]


class LabelOutcome:
    """A served label plus how it was produced (which tier? how long?).

    ``tier`` is ``"l1"`` (memory hit), ``"l2"`` (served from the
    durable store), or ``"build"`` (cold Monte-Carlo build); without a
    store, memory hits are still ``"l1"``.  ``cached`` stays the
    boolean clients already rely on: anything but a cold build.
    """

    __slots__ = ("facts", "cached", "fingerprint", "seconds", "tier")

    def __init__(
        self,
        facts: RankingFacts,
        cached: bool,
        fingerprint: str,
        seconds: float,
        tier: str = "build",
    ):
        self.facts = facts
        self.cached = cached
        self.fingerprint = fingerprint
        self.seconds = seconds
        self.tier = tier


class LabelService:
    """Cached, batched, multi-session label computation.

    Parameters
    ----------
    cache_size:
        LRU capacity, in labels.
    max_workers:
        Job-level batch concurrency (default: CPU count, min 2).
    use_cache:
        Master switch, mostly for benchmarking cold builds.
    trial_backend:
        The Monte-Carlo trial backend: a name — ``"vectorized"`` (the
        default: the trials batched into array kernels), ``"serial"``
        (the scalar reference loop), or ``"remote"`` (trials sharded
        across the worker daemons in ``REPRO_TRIAL_WORKERS``; see
        :mod:`repro.cluster`) — or an already-built
        :class:`~repro.engine.backends.TrialBackend` instance.  All of
        them serve byte-identical labels for equal seeds.
    cache_max_bytes:
        Optional cache budget in (estimated) bytes; evicts
        least-recently-used labels past it (see
        :class:`~repro.engine.cache.LabelCache`).
    cache_ttl:
        Optional label time-to-live in seconds; expired entries rebuild
        on next request.
    store_path:
        Opt-in durable L2: path to a
        :class:`~repro.store.store.LabelStore` SQLite file.  Labels are
        then served through a
        :class:`~repro.store.tiering.TieredLabelCache` — memory first,
        the store on an L1 miss (promoted back into memory), a build
        only on a double miss — and every fresh build writes the label
        plus its provenance record through to disk, so labels survive
        restarts and can be shared by several processes on one host.
    store:
        An already-open :class:`~repro.store.store.LabelStore` instance
        (wins over ``store_path``); the service owns its shutdown.
    """

    def __init__(
        self,
        cache_size: int = 64,
        max_workers: int | None = None,
        use_cache: bool = True,
        trial_backend: "str | TrialBackend | None" = None,
        cache_max_bytes: int | None = None,
        cache_ttl: float | None = None,
        store_path: "str | None" = None,
        store: "object | None" = None,
    ):
        self._cache = LabelCache(
            max_size=cache_size, max_bytes=cache_max_bytes, ttl=cache_ttl
        )
        self._store = None
        self._tiers = None
        if (store is not None or store_path is not None) and not use_cache:
            # the store is served through the tiered cache; disabling
            # the cache would silently never read or write it
            raise RankingFactsError(
                "use_cache=False cannot be combined with a label store: "
                "the store is the cache's L2 tier"
            )
        if store is not None or store_path is not None:
            # local import: repro.store depends on repro.engine.cache
            from repro.store.store import LabelStore
            from repro.store.tiering import TieredLabelCache

            self._store = store if store is not None else LabelStore(store_path)
            self._tiers = TieredLabelCache(self._cache, self._store)
        self._executor = LabelExecutor(
            max_workers=max_workers,
            trial_backend=trial_backend,
        )
        self._use_cache = use_cache
        self._lock = threading.Lock()
        self._builds = 0
        self._requests = 0
        self._registry = get_default_registry()
        self._tier_counter = self._registry.counter(
            "repro_label_requests_total",
            "Labels served, by tier (l1, l2, build)",
            tag_names=("tier",),
        )
        self._widget_seconds = self._registry.histogram(
            "repro_widget_seconds",
            "Build time of one label widget, by widget name",
            tag_names=("widget",),
        )

    # -- the core: one label -------------------------------------------------------

    def build_label(
        self,
        table: Table,
        design: LabelDesign,
        dataset_name: str = "unnamed dataset",
        progress: "WidgetProgress | None" = None,
    ) -> LabelOutcome:
        """Serve the label for (table, design), building only on miss.

        The cache key is the content fingerprint of both halves, so a
        repeated request for an unchanged design performs zero rebuilds
        regardless of which session issues it.  ``dataset_name`` is
        display metadata and deliberately *not* part of the key... but
        it is rendered into the label, so it rides along in the design
        fingerprint input to keep cached bytes exact.

        ``progress`` is called per finished widget **only when this
        request performs the build** — a cache hit (or losing the
        single-flight race to a concurrent identical request) returns
        the shared result without re-running the widgets.  Streaming
        callers replay the widgets from the final label in that case
        (:meth:`stream_label`).  Callback exceptions are swallowed: a
        broken consumer must not poison the build other waiters share.
        """
        key = label_fingerprint(
            table, {"design": design.canonical_dict(), "dataset_name": dataset_name}
        )
        with self._lock:
            self._requests += 1
        with span("label.build", fingerprint=key[:12], dataset=dataset_name):
            outcome = self._serve_label(key, table, design, dataset_name, progress)
        self._tier_counter.inc(tier=outcome.tier)
        _log.debug(
            "label %s served from %s in %.6fs",
            key[:12], outcome.tier, outcome.seconds,
        )
        return outcome

    def _widget_progress(
        self, progress: "WidgetProgress | None"
    ) -> WidgetProgress:
        """The builder callback: always observe, optionally forward."""

        def on_widget(name: str, widget: object, seconds: float) -> None:
            self._widget_seconds.observe(seconds, widget=name)
            if progress is not None:
                try:
                    progress(name, widget, seconds)
                except Exception:  # a consumer bug must not fail the build
                    _log.exception(
                        "widget progress callback failed for %r; "
                        "continuing the build", name,
                    )

        return on_widget

    def _serve_label(
        self,
        key: str,
        table: Table,
        design: LabelDesign,
        dataset_name: str,
        progress: "WidgetProgress | None" = None,
    ) -> LabelOutcome:
        start = time.perf_counter()

        def build() -> RankingFacts:
            with self._lock:
                self._builds += 1
            builder = design.builder_for(table, dataset_name=dataset_name)
            builder.with_trial_backend(self._executor.trial_backend())
            return builder.build(progress=self._widget_progress(progress))

        if not self._use_cache:
            facts = build()
            return LabelOutcome(facts, False, key, time.perf_counter() - start)
        if self._tiers is not None:

            def build_with_provenance():
                from repro.store.provenance import LabelProvenance

                built_at = time.perf_counter()
                facts = build()
                provenance = LabelProvenance.capture(
                    key,
                    table,
                    design,
                    dataset_name,
                    self._executor,
                    build_seconds=time.perf_counter() - built_at,
                )
                return facts, provenance

            facts, tier = self._tiers.get_or_build(key, build_with_provenance)
            return LabelOutcome(
                facts, tier != "build", key, time.perf_counter() - start, tier=tier
            )
        facts, cached = self._cache.get_or_build(key, build)
        return LabelOutcome(
            facts,
            cached,
            key,
            time.perf_counter() - start,
            tier="l1" if cached else "build",
        )

    # -- streaming ---------------------------------------------------------------------

    def stream_label(
        self,
        table: Table,
        design: LabelDesign,
        dataset_name: str = "unnamed dataset",
        events: "LabelEventQueue | None" = None,
    ) -> LabelEventQueue:
        """Serve a label as a stream of staged widget events.

        Returns immediately with the :class:`LabelEventQueue` the
        consumer drains; the build runs on the executor's job pool.  A
        live build emits each widget as it finishes (cheapest first —
        most of the label arrives while the Monte-Carlo stability loop
        is still running); a cache hit, or losing the single-flight
        race to a concurrent identical request, **replays** the widgets
        from the finished label (``streamed=False``) so consumers see
        one protocol either way.  The stream ends with exactly one
        terminal event: ``label`` (carrying the full label document,
        byte-identical to the non-streamed render, plus fingerprint and
        tier) or ``error``.

        Backpressure is the queue's: a consumer that stops draining
        aborts the stream after one publish timeout, and the build
        carries on for the cache — it is never blocked by a slow
        client.
        """
        if events is None:
            events = LabelEventQueue()

        def produce() -> None:
            live = 0

            def on_widget(name: str, widget: object, seconds: float) -> None:
                nonlocal live
                live += 1
                events.publish(widget_event(name, widget, seconds))

            try:
                outcome = self.build_label(
                    table, design, dataset_name, progress=on_widget
                )
            except RankingFactsError as exc:
                events.publish(error_event(str(exc), type(exc).__name__))
                events.close()
                return
            except Exception as exc:  # the consumer needs a terminal event
                events.publish(
                    error_event(f"{type(exc).__name__}: {exc}", type(exc).__name__)
                )
                events.close()
                return
            if live == 0:  # cache hit or lost the single-flight race
                for event in replay_events(outcome.facts.label):
                    events.publish(event)
            events.publish(
                label_event(
                    {
                        "label": json.loads(render_json(outcome.facts.label)),
                        "fingerprint": outcome.fingerprint,
                        "cached": outcome.cached,
                        "tier": outcome.tier,
                        "seconds": outcome.seconds,
                    },
                    streamed=live > 0,
                )
            )
            events.close()

        self._executor.submit_task(produce)
        return events

    def stream_batch(
        self, jobs: Sequence[LabelJob], events: "LabelEventQueue | None" = None
    ) -> tuple[BatchHandle, LabelEventQueue]:
        """Submit a batch whose progress streams as label events.

        Jobs run concurrently on the job pool, so events from different
        jobs interleave; every event carries a ``job_id``.  Unlike
        :meth:`stream_label`, ``error`` events here are **per job** —
        one failed job does not end the stream — and the stream closes
        once every job has finished.
        """
        if events is None:
            events = LabelEventQueue()
        numbered = [
            job if job.job_id else replace(job, job_id=f"job-{index}")
            for index, job in enumerate(jobs)
        ]

        def runner(job: LabelJob) -> JobResult:
            live = 0

            def on_widget(name: str, widget: object, seconds: float) -> None:
                nonlocal live
                live += 1
                base = widget_event(name, widget, seconds)
                events.publish(
                    LabelStreamEvent(
                        kind="widget",
                        name=name,
                        seconds=seconds,
                        payload={**base.payload, "job_id": job.job_id},
                    )
                )

            result = self.run_job(job, progress=on_widget)
            if result.status is JobStatus.DONE:
                if live == 0:  # cached job: replay its widgets
                    for event in replay_events(result.facts.label):
                        events.publish(
                            replace(
                                event,
                                payload={**event.payload, "job_id": job.job_id},
                            )
                        )
                events.publish(
                    label_event(
                        {
                            "job_id": job.job_id,
                            "label": json.loads(render_json(result.facts.label)),
                            "fingerprint": result.fingerprint,
                            "cached": result.cached,
                            "seconds": result.seconds,
                        },
                        streamed=live > 0,
                    )
                )
            else:
                base = error_event(result.error or "job failed")
                events.publish(
                    LabelStreamEvent(
                        kind="error",
                        payload={**base.payload, "job_id": job.job_id},
                    )
                )
            return result

        handle = self._executor.submit_batch(numbered, runner)

        def close_when_done() -> None:
            try:
                handle.results()
            finally:
                events.close()

        threading.Thread(
            target=close_when_done, name="stream-batch-close", daemon=True
        ).start()
        return handle, events

    # -- batches ---------------------------------------------------------------------

    def run_job(
        self, job: LabelJob, progress: "WidgetProgress | None" = None
    ) -> JobResult:
        """Run one job to completion, capturing failures as results."""
        started = time.perf_counter()
        try:
            table, name = job.resolve_table()
            outcome = self.build_label(
                table, job.design, dataset_name=name, progress=progress
            )
            return JobResult(
                job_id=job.job_id,
                status=JobStatus.DONE,
                facts=outcome.facts,
                fingerprint=outcome.fingerprint,
                cached=outcome.cached,
                seconds=time.perf_counter() - started,
                dataset_name=name,
            )
        except RankingFactsError as exc:
            return JobResult(
                job_id=job.job_id,
                status=JobStatus.FAILED,
                seconds=time.perf_counter() - started,
                error=str(exc),
                dataset_name=job.dataset_name or job.dataset or job.csv_path or "",
            )
        except Exception as exc:  # unexpected faults must not kill the batch
            # e.g. a binary file handed to the CSV loader raises
            # UnicodeDecodeError, not a RankingFactsError; the other
            # jobs' results still matter
            return JobResult(
                job_id=job.job_id,
                status=JobStatus.FAILED,
                seconds=time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}",
                dataset_name=job.dataset_name or job.dataset or job.csv_path or "",
            )

    def submit_batch(self, jobs: Sequence[LabelJob]) -> BatchHandle:
        """Queue a batch asynchronously; poll via :meth:`batch`."""
        numbered = [
            job if job.job_id else replace(job, job_id=f"job-{index}")
            for index, job in enumerate(jobs)
        ]
        return self._executor.submit_batch(numbered, self.run_job)

    def run_batch(self, jobs: Sequence[LabelJob]) -> list[JobResult]:
        """Submit and block until every job finishes (CLI path)."""
        return self.submit_batch(jobs).results()

    def batch(self, batch_id: str) -> BatchHandle:
        """Look up a previously submitted batch."""
        return self._executor.batch(batch_id)

    # -- observability and lifecycle ----------------------------------------------------

    @property
    def cache(self) -> LabelCache:
        """The underlying cache (tests and tuning)."""
        return self._cache

    @property
    def executor(self) -> LabelExecutor:
        """The underlying executor (tests and tuning)."""
        return self._executor

    @property
    def store(self):
        """The durable L2 store, or ``None`` when not configured."""
        return self._store

    @property
    def tiers(self):
        """The tiered cache, or ``None`` when no store is configured."""
        return self._tiers

    def metrics_registries(self) -> list[MetricsRegistry]:
        """Every metric registry this service's components write to.

        The server's ``GET /metrics`` renders these alongside its own;
        component-scoped registries (a coordinator built with its own)
        would otherwise be invisible to the scrape.
        """
        registries = [self._registry]
        backend_registry = getattr(self._executor.trial_backend(), "registry", None)
        if isinstance(backend_registry, MetricsRegistry):
            registries.append(backend_registry)
        return registries

    def stats(self) -> dict[str, object]:
        """One JSON-safe snapshot across cache, executor, and service."""
        with self._lock:
            service = {
                "requests": self._requests,
                "builds": self._builds,
                "cache_enabled": self._use_cache,
            }
        return merged_stats(
            {"service": service},
            cache=self._cache.stats().as_dict,
            executor=self._executor.stats,
            tiers=self._tiers.stats if self._tiers is not None else None,
            store=self._store.stats if self._store is not None else None,
        )

    def shutdown(self) -> None:
        """Stop the job pool and trial backend, and close the store (if any)."""
        self._executor.shutdown()
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "LabelService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
