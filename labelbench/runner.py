"""One run of one workload: set-up, the timed loop, checks, metrics.

In-process workloads (``label-cold``, ``monte-carlo``, ``remote-trials``)
call ``LabelService.build_label`` and ``render_json`` from one caller;
``remote-trials`` points the service at two worker daemons run as child
processes.  Each timed op is followed, outside the timed window, by the
reference build of the same label in the reference process, so the timed
ops sample the host over the run's whole wall time.  Their throughput is
ops per timed second.  On ``remote-trials`` an op whose trials did not
run on the workers is a failed op, though its label bytes are right.

HTTP workloads (``serve-hot``, ``serve-churn``) drive the server, run as
a child process, from two client threads with one keep-alive connection
each; their labels are checked after the timed window.

Set-up runs once before the timed window and, in untraced runs, again,
at least five times in all; ``setup_s`` is their median.  In-process
workloads set up once more after every round, in the set-up process
(``setups.py``), so the set-ups sample the host across the run; HTTP
workloads set up four more times after the system under test has been
read and closed.  Either way the extra set-ups touch none of its
figures.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.engine.jobs import LabelDesign
from repro.engine.service import LabelService
from repro.label.render_json import render_json
from repro.telemetry import get_default_registry, get_trace_buffer
from repro.telemetry.exporters import render_prometheus

import workloads as wl
from common import (
    BENCH, WORK, Child, HttpClient, LineProcess, digest, family_sum, mean, parse_prometheus,
    percentile, self_cpu_seconds, self_peak_rss_bytes,
)
from tracer import Tracer, layer_summary, repeat_share

#: set-ups an untraced run makes at the least
MIN_SETUPS = 5
DEFAULT_SEED = 1
DIGESTS = BENCH / "digests.json"
#: serve-churn's L1 budget: about six labels, well below the working set
CHURN_CACHE_BYTES = 400_000
WIDGETS = ("recipe", "ingredients", "fairness", "diversity", "stability")
SERVER_DESIGN = [
    "--dataset", "cs-departments", "--weight", "PubCount=0.2", "--weight", "Faculty=0.4",
    "--weight", "GRE=0.4", "--sensitive", "DeptSizeBin", "--id-column", "DeptName",
]


@dataclass
class Sample:
    """One attempted op and what came back."""

    op: wl.Op
    latency: float = 0.0
    first_widget: float | None = None
    build: float | None = None
    widgets: dict[str, float] = field(default_factory=dict)
    tier: str | None = None
    got: str | None = None
    error: str | None = None

    @property
    def checked(self) -> bool:
        return self.got is not None


@dataclass
class Outcome:
    """Everything a run measured, before it is turned into metrics."""

    workload: str
    setups: list[float]
    samples: list[Sample]
    elapsed: float
    cpu_seconds: float
    peak_rss_bytes: int
    families: tuple[dict, dict]
    stats: tuple[dict, dict]
    spans: list[dict]
    window: tuple[float, float]
    http: dict[str, int] = field(default_factory=dict)
    worker_chunks: list[float] = field(default_factory=list)
    references_built: int = 0

    @property
    def layers(self) -> dict[str, dict]:
        return layer_summary(self.spans, *self.window)


# -- references ----------------------------------------------------------------


class References:
    """Reference digests: recorded for the default seed, else built.

    Builds happen in the reference process (``reference.py``), one label
    per request, never inside a timed window.
    """

    def __init__(self, workload: str, seed: int):
        self.recorded: dict[str, str] = {}
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.recorded = json.loads(DIGESTS.read_text()).get(workload, {})
        self._process = LineProcess("reference.py")
        self.built = 0

    def build(self, op: wl.Op) -> str:
        answer = self._process.ask(json.dumps([op.table, op.design]))
        self.built += 1
        return answer

    def expected(self, op: wl.Op) -> str:
        if op.key not in self.recorded:
            self.recorded[op.key] = self.build(op)
        return self.recorded[op.key]

    def check_now(self, sample: Sample) -> None:
        """Build the reference for ``sample`` now and compare (in-process ops)."""
        if not sample.checked:
            return
        built = self.build(sample.op)
        if self.recorded.setdefault(sample.op.key, built) != built:
            sample.error = f"reference build differs from the recorded digest ({sample.op.cls})"
        elif sample.got != built:
            sample.error = f"label bytes differ from the reference ({sample.op.cls})"

    def check_after(self, samples: list[Sample]) -> None:
        for sample in samples:
            if sample.checked and sample.got != self.expected(sample.op):
                sample.error = f"label bytes differ from the reference ({sample.op.cls})"

    def close(self) -> None:
        self._process.close()


# -- children and set-up ---------------------------------------------------------


def start_child(module_args: list[str], traced: bool, name: str) -> Child:
    """A daemon from the program's entry point; traced through the bootstrap."""
    log = f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    if traced:
        child = Child([str(BENCH / "tracer.py"), "--out", str(WORK / f"{log}.spans.json"),
                       *module_args], log + ".log")
    else:
        child = Child(["-m", *module_args], log + ".log")
    return child.start()


def child_spans(child: Child) -> list[dict]:
    """The spans a stopped traced child wrote (and remove the file)."""
    if child.argv[0] == "-m":
        return []
    path = child.argv[child.argv.index("--out") + 1]
    try:
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)
    except FileNotFoundError:
        return []
    os.unlink(path)
    return spans


def timed_setup(make):
    started = time.monotonic()
    system = make()
    return system, time.monotonic() - started


def setups_after(make, count: int = MIN_SETUPS - 1) -> list[float]:
    seconds = []
    for _ in range(count):
        system, took = timed_setup(make)
        system.close()
        seconds.append(took)
    return seconds


# -- in-process workloads ------------------------------------------------------------


@dataclass(frozen=True)
class InProcessSpec:
    rounds: object
    tables: tuple[str, ...]
    warmup: tuple[tuple[str, dict], ...]
    backend: str = "vectorized"
    workers: int = 0


_COLD_TABLES = ("cs-departments", "german-credit", "compas", "synthetic-20k")
#: a cs-departments design whose bisection never runs: a cheap remote warm-up
_REMOTE_WARMUP = dict(wl.base_design("cs-departments", trials=300),
                      weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2})

INPROCESS = {
    "label-cold": InProcessSpec(
        wl.label_cold, _COLD_TABLES, tuple((t, wl.base_design(t)) for t in _COLD_TABLES),
    ),
    "monte-carlo": InProcessSpec(
        wl.monte_carlo, ("german-credit", "compas"),
        (("german-credit", wl.base_design("german-credit", trials=10)),
         ("compas", wl.base_design("compas"))),
    ),
    "remote-trials": InProcessSpec(
        wl.remote_trials, ("cs-departments", "german-credit"),
        (("cs-departments", _REMOTE_WARMUP), ("german-credit", wl.base_design("german-credit"))),
        backend="remote", workers=2,
    ),
}


class InProcessSystem:
    """A ``LabelService`` in this process, plus any worker daemons."""

    def __init__(self, spec: InProcessSpec, traced: bool):
        self.children: list[Child] = []
        self.service = None
        try:
            for index in range(spec.workers):
                self.children.append(start_child(
                    ["repro.cluster.worker", "--port", "0"], traced, f"worker{index}"
                ))
            if spec.workers:
                os.environ["REPRO_TRIAL_WORKERS"] = ",".join(c.address for c in self.children)
            self.tables = {name: wl.load_table(name) for name in spec.tables}
            self.service = LabelService(trial_backend=spec.backend)
            for table, design in spec.warmup:
                self.service.build_label(self.tables[table], LabelDesign.from_mapping(design), table)
            if spec.workers and self.cluster()["workers_alive"] != spec.workers:
                raise RuntimeError(f"the trial backend sees {self.cluster()['workers_alive']} "
                                   f"live workers after warm-up, not {spec.workers}")
        except BaseException:
            self.close()
            raise

    def cluster(self) -> dict:
        """The remote trial backend's counters."""
        return self.service.stats()["executor"]["trial_cluster"]

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        for child in self.children:
            child.stop()
        os.environ.pop("REPRO_TRIAL_WORKERS", None)


def _registry_families() -> dict:
    return parse_prometheus(render_prometheus(get_default_registry()))


def run_inprocess(workload: str, seed: int, seconds: float, traced: bool,
                  references: References) -> Outcome:
    spec = INPROCESS[workload]

    def make() -> InProcessSystem:
        return InProcessSystem(spec, traced)

    system, first_setup = timed_setup(make)
    setups = [first_setup]
    tracer = Tracer().install() if traced else None
    worker_chunks: list[float] = []

    def on_span(span) -> None:
        if span.name == "worker.chunk" and span.duration is not None:
            worker_chunks.append(span.duration)

    if traced:
        get_trace_buffer().add_listener(on_span)
    rounds = spec.rounds(random.Random(f"{seed}:{workload}"))
    samples: list[Sample] = []
    timed = 0.0
    setup_process = LineProcess("setups.py", workload)
    try:
        families0, stats0 = _registry_families(), system.service.stats()
        cpu0 = self_cpu_seconds() + sum(c.cpu_seconds() for c in system.children)
        window_start = time.monotonic()
        while timed < seconds:
            for op in next(rounds):
                cluster0 = system.cluster() if spec.workers else None
                sample = _inprocess_op(system, op, tracer)
                timed += sample.latency
                samples.append(sample)
                if cluster0 is not None:
                    check_cluster(sample, cluster0, system.cluster())
                references.check_now(sample)
            if not traced:
                setups.append(float(setup_process.ask("setup")))
        window_end = time.monotonic()
        cpu = self_cpu_seconds() + sum(c.cpu_seconds() for c in system.children) - cpu0
        peak = self_peak_rss_bytes() + sum(c.peak_rss_bytes() for c in system.children)
        families1, stats1 = _registry_families(), system.service.stats()
        while not traced and len(setups) < MIN_SETUPS:
            setups.append(float(setup_process.ask("setup")))
    finally:
        if tracer is not None:
            get_trace_buffer().remove_listener(on_span)
            tracer.uninstall()
        system.close()
        setup_process.close()
    spans = list(tracer.spans) if tracer is not None else []
    for child in system.children:
        spans += child_spans(child)
    return Outcome(
        workload, setups, samples, timed, cpu, peak, (families0, families1),
        (stats0, stats1), spans, (window_start, window_end), worker_chunks=worker_chunks,
    )


#: fallback reasons the remote backend records when the cluster path broke
_CLUSTER_FAILURES = ("no workers configured", "no live workers", "retry budget exhausted", "chunk [")


def check_cluster(sample: Sample, before: dict, after: dict) -> None:
    """Fail ``sample`` if its trials fell back from the workers.

    A chunk recovered locally or a spent retry budget is a failure; so
    is an op that ran no chunk remotely, unless the backend recorded a
    reason other than a broken cluster (a cost gate keeping a small
    batch local, say).
    """
    if sample.error is not None:
        return
    change = {key: after[key] - before[key] for key in
              ("chunks_remote", "chunks_recovered_locally", "budget_exhausted_runs")}
    reason = after.get("fallback_reason")
    if change["chunks_recovered_locally"] or change["budget_exhausted_runs"]:
        sample.error = (f"{change['chunks_recovered_locally']} chunks recovered locally, "
                        f"{change['budget_exhausted_runs']} retry budgets spent ({reason})")
    elif not change["chunks_remote"] and (reason is None or reason.startswith(_CLUSTER_FAILURES)):
        sample.error = f"no chunk ran on a worker ({reason or 'no reason recorded'})"


def _inprocess_op(system: InProcessSystem, op: wl.Op, tracer: Tracer | None) -> Sample:
    sample = Sample(op)
    first: list[float] = []

    def progress(name: str, widget: object, widget_seconds: float) -> None:
        if not first:
            first.append(time.perf_counter())
        sample.widgets[name] = widget_seconds

    started = time.perf_counter()
    try:
        outcome = system.service.build_label(
            system.tables[op.table], LabelDesign.from_mapping(op.design), op.table,
            progress=progress,
        )
        built = time.perf_counter()
        if tracer is None:
            text = render_json(outcome.facts.label)
        else:
            with tracer.span("label.render_json") as record:
                text = render_json(outcome.facts.label)
                record["bytes"] = len(text.encode("utf-8"))
        sample.got = digest(text)
        sample.tier = outcome.tier
        sample.build = built - started
    except Exception as exc:  # an op failure is counted, not fatal
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.latency = time.perf_counter() - started
    if first:
        sample.first_widget = first[0] - started
    return sample


# -- HTTP workloads ------------------------------------------------------------------


class HttpSystem:
    """The server daemon plus two clients, each with its own session."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.store_dir = None
        self.server = None
        self.clients: list[tuple[HttpClient, str, object]] = []
        try:
            extra: list[str] = []
            if workload == "serve-churn":
                self.store_dir = WORK / f"store-{os.getpid()}-{time.monotonic_ns()}"
                self.store_dir.mkdir(parents=True)
                extra = ["--store", str(self.store_dir / "labels.db"),
                         "--cache-max-bytes", str(CHURN_CACHE_BYTES)]
            self.server = start_child(
                ["repro.app.cli", "serve", *SERVER_DESIGN, "--port", "0", *extra], traced, "server"
            )
            self.admin = HttpClient(self.server.host, self.server.port)
            self.admin.json("GET", "/health")
            hot = workload == "serve-hot"
            for index, table in enumerate(wl.HOT_TABLES if hot else wl.CHURN_TABLES):
                rng = random.Random(f"{seed}:{workload}:{index}")
                client = HttpClient(self.server.host, self.server.port)
                design = wl.new_design(rng, table) if hot else wl.base_design(table)
                token = client.json("POST", "/session", {"dataset": table, "design": design})["token"]
                client.json("GET", f"/session/{token}/label")
                rounds = wl.serve_hot(rng, table, design) if hot else wl.serve_churn(rng, table, streams=index == 0)
                self.clients.append((client, token, rounds))
        except BaseException:
            self.close()
            raise

    def scrape(self) -> tuple[dict, dict]:
        _, page = self.admin.request("GET", "/metrics")
        return parse_prometheus(page.decode("utf-8")), self.admin.json("GET", "/engine/stats")

    def close(self) -> None:
        for client, _, _ in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def run_http(workload: str, seed: int, seconds: float, traced: bool,
             references: References) -> Outcome:
    system, first_setup = timed_setup(lambda: HttpSystem(workload, seed, traced))
    results: list[list[Sample]] = [[] for _ in system.clients]
    try:
        families0, stats0 = system.scrape()
        counts0 = [(c.connects, c.requests, c.reused) for c, _, _ in system.clients]
        window_start = time.monotonic()
        start = time.perf_counter()
        threads = [
            threading.Thread(target=_client_loop, args=(client, token, rounds, start + seconds, out))
            for (client, token, rounds), out in zip(system.clients, results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        window_end = time.monotonic()
        families1, stats1 = system.scrape()
        http = {"connects": 0, "requests": 0, "reused": 0}
        for (client, _, _), before in zip(system.clients, counts0):
            http["connects"] += client.connects - before[0]
            http["requests"] += client.requests - before[1]
            http["reused"] += client.reused - before[2]
    finally:
        system.close()
    spans = child_spans(system.server)
    setups = [first_setup]
    if not traced:
        setups += setups_after(lambda: HttpSystem(workload, seed, traced))
    samples = [sample for out in results for sample in out]
    references.check_after(samples)
    cpu = (family_sum(families1, "repro_process_cpu_seconds")
           - family_sum(families0, "repro_process_cpu_seconds"))
    peak = int(family_sum(families1, "repro_process_peak_rss_bytes"))
    return Outcome(
        workload, setups, samples, elapsed, cpu, peak, (families0, families1),
        (stats0, stats1), spans, (window_start, window_end), http=http,
    )


def _client_loop(client: HttpClient, token: str, rounds, deadline: float, out: list) -> None:
    base = f"/session/{token}"
    while time.perf_counter() < deadline:
        for op in next(rounds):
            out.append(_http_op(client, base, op))


def _http_op(client: HttpClient, base: str, op: wl.Op) -> Sample:
    sample = Sample(op)
    started = time.perf_counter()
    try:
        if op.kind == "stream":
            status, sample.first_widget, event = client.stream(f"{base}/label.stream")
            if event is not None:
                sample.got = digest(json.dumps(event["label"], indent=2))
                sample.tier = event.get("tier")
        else:
            method, path, body = {
                "design": ("POST", f"{base}/design", op.design),
                "label": ("GET", f"{base}/label", None),
                "preview": ("GET", f"{base}/preview", None),
                "health": ("GET", "/health", None),
                "metrics": ("GET", "/metrics", None),
            }[op.kind]
            status, data = client.request(method, path, body)
            if op.kind == "label" and status == 200:
                sample.got = digest(data)
        if status // 100 != 2:
            sample.error = f"HTTP {status} on {op.kind}"
        elif op.kind in ("label", "stream") and sample.got is None:
            sample.error = f"no label in the {op.kind} response"
    except Exception as exc:  # an op failure is counted, not fatal
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.latency = time.perf_counter() - started
    return sample


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    WORK.mkdir(exist_ok=True)
    runner = run_inprocess if workload in INPROCESS else run_http
    references = References(workload, seed)
    try:
        outcome = runner(workload, seed, seconds, traced, references)
    finally:
        references.close()
    outcome.references_built = references.built
    return outcome


# -- metrics --------------------------------------------------------------------------


def _delta(outcome: Outcome, family: str, /, **labels: str) -> float:
    before, after = outcome.families
    return family_sum(after, family, **labels) - family_sum(before, family, **labels)


def _hist_mean_ms(outcome: Outcome, family: str, /, **labels: str) -> float:
    count = _delta(outcome, family + "_count", **labels)
    return 1000.0 * _delta(outcome, family + "_sum", **labels) / count if count else 0.0


def _stat_delta(outcome: Outcome, *path: str) -> float:
    values = []
    for stats in outcome.stats:
        for part in path:
            stats = stats.get(part, {}) if isinstance(stats, dict) else {}
        values.append(float(stats) if isinstance(stats, (int, float)) else 0.0)
    return values[1] - values[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tiers(outcome: Outcome) -> dict[str, float]:
    return {t: _delta(outcome, "repro_label_requests_total", tier=t) for t in ("l1", "l2", "build")}


def end_to_end(outcome: Outcome) -> dict[str, float]:
    done = [s for s in outcome.samples if s.error is None]
    latencies = [s.latency for s in outcome.samples]
    widgets = [s.first_widget for s in outcome.samples if s.first_widget is not None]
    return {
        "setup_s": statistics.median(outcome.setups),
        "throughput_ops_s": len(done) / outcome.elapsed,
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_p95_ms": 1000.0 * percentile(latencies, 95),
        "first_widget_p50_ms": 1000.0 * percentile(widgets, 50) if widgets else 0.0,
        "cpu_ms_per_op": 1000.0 * outcome.cpu_seconds / max(len(done), 1),
        "peak_rss_mb": outcome.peak_rss_bytes / 2**20,
    }


def properties(outcome: Outcome) -> dict[str, tuple[float, int, str]]:
    """The workload shares later claims depend on: ``(share, base, base unit)``."""
    built = [s for s in outcome.samples if s.tier == "build" or s.op.cls.startswith("new")]
    # p is fixed by the table and its sensitive attribute, alpha by the design
    fairness_keys = [
        (s.op.table, tuple(s.op.design["sensitive"]), s.op.design["k"], s.op.design.get("alpha", 0.05))
        for s in built
    ]
    tiers = _tiers(outcome)
    requests = sum(tiers.values())
    build_seconds = _delta(outcome, "repro_span_seconds_sum", name="label.build")
    out = {
        "fairness (k,p,alpha) repeat share": (repeat_share(fairness_keys), len(fairness_keys), "designs built"),
        **{
            f"tier share {tier}": (_ratio(count, requests), int(requests), "label requests")
            for tier, count in tiers.items()
        },
        "stability share of build time": (
            _ratio(_delta(outcome, "repro_widget_seconds_sum", widget="stability"), build_seconds),
            int(tiers["build"]), "builds",
        ),
    }
    if outcome.http:
        out["reused-connection share"] = (
            _ratio(outcome.http["reused"], outcome.http["requests"]),
            outcome.http["requests"], "HTTP requests",
        )
    return out


def per_layer(outcome: Outcome, e2e: dict[str, float]) -> dict[str, float]:
    layers = outcome.layers
    tiers = _tiers(outcome)
    builds = tiers["build"]

    def layer(name: str, field_name: str = "total") -> float:
        return float(layers.get(name, {}).get(field_name, 0))

    def per_build_ms(name: str) -> float:
        return 1000.0 * _ratio(layer(name), builds)

    handled = handled_count = 0.0
    for (name, tags), value in outcome.families[1].items():
        if (name.startswith("repro_http_request_seconds_")
                and ("route", "/session/{token}/label.stream") not in tags):
            change = value - outcome.families[0].get((name, tags), 0.0)
            if name.endswith("_sum"):
                handled += change
            elif name.endswith("_count"):
                handled_count += change
    http = outcome.http
    rtt_ms = 1000.0 * mean(s.latency for s in outcome.samples if http and s.op.kind != "stream")
    handler_ms = 1000.0 * _ratio(handled, handled_count)
    widget_seconds = sum(_delta(outcome, "repro_widget_seconds_sum", widget=w) for w in WIDGETS)
    cluster = ("executor", "trial_cluster")
    remote = _stat_delta(outcome, *cluster, "chunks_remote")
    recovered = _stat_delta(outcome, *cluster, "chunks_recovered_locally")
    kernel_runs = _stat_delta(outcome, "executor", "trial_kernel_runs")
    fallbacks = _stat_delta(outcome, "executor", "trial_scalar_fallbacks")
    chunk_rtt = _hist_mean_ms(outcome, "repro_cluster_chunk_seconds", outcome="ok")
    worker_chunk = 1000.0 * mean(outcome.worker_chunks)
    hits, misses = _stat_delta(outcome, "cache", "hits"), _stat_delta(outcome, "cache", "misses")
    requests = sum(tiers.values())
    return {
        "app.http.rtt_mean_ms": rtt_ms,
        "app.http.handler_mean_ms": handler_ms,
        "app.http.transport_gap_ms": rtt_ms - handler_ms if http else 0.0,
        "app.http.connects": float(http.get("connects", 0)),
        "app.http.requests": float(http.get("requests", 0)),
        "app.http.reused_share": _ratio(http.get("reused", 0), http.get("requests", 0)),
        "app.http.non_2xx": float(sum(1 for s in outcome.samples if (s.error or "").startswith("HTTP "))),
        "app.sse.first_event_ms": _hist_mean_ms(outcome, "repro_span_seconds", name="stream.first_event"),
        "app.sse.stream_ms": _hist_mean_ms(outcome, "repro_stream_seconds"),
        "engine.build_label_ms": _hist_mean_ms(outcome, "repro_span_seconds", name="label.build"),
        **{f"engine.tier_share.{tier}": _ratio(count, requests) for tier, count in tiers.items()},
        "engine.cache.hit_ratio": _ratio(hits, hits + misses),
        "engine.cache.evictions": _stat_delta(outcome, "cache", "evictions"),
        "engine.trial_kernel_share": _ratio(kernel_runs, kernel_runs + fallbacks),
        **{f"label.widget.{w}_ms": _hist_mean_ms(outcome, "repro_widget_seconds", widget=w) for w in WIDGETS},
        "label.other_ms": 1000.0 * _ratio(
            _delta(outcome, "repro_span_seconds_sum", name="label.build") - widget_seconds, builds
        ),
        "label.render_json_ms": 1000.0 * _ratio(layer("label.render_json"), layer("label.render_json", "count")),
        "label.render_json_bytes": _ratio(layer("label.render_json", "bytes"), layer("label.render_json", "count")),
        "preprocess.fit_transform_ms": per_build_ms("preprocess.fit_transform"),
        "ranking.rank_table_ms": per_build_ms("ranking.rank_table"),
        "fairness.adjust_alpha_ms": per_build_ms("fairness.adjust_alpha"),
        "fairness.adjust_alpha_calls": layer("fairness.adjust_alpha", "count"),
        "fairness.adjust_alpha_key_repeat_share": repeat_share(layers.get("fairness.adjust_alpha", {}).get("keys", [])),
        "stability.perturbation_ms": per_build_ms("stability.perturbation"),
        "stability.uncertainty_ms": per_build_ms("stability.uncertainty"),
        "stability.per_attribute_ms": per_build_ms("stability.per_attribute"),
        "stability.kernel_ms": per_build_ms("stability.kernel"),
        "stability.kernel_calls": layer("stability.kernel", "count"),
        "stability.trials": layer("stability.kernel", "trials"),
        "ranking.count_inversions_batch_ms": per_build_ms("ranking.count_inversions_batch"),
        "store.put_mean_ms": _hist_mean_ms(outcome, "repro_span_seconds", name="store.put"),
        "store.get_mean_ms": _hist_mean_ms(outcome, "repro_span_seconds", name="store.get"),
        "store.puts": _delta(outcome, "repro_span_seconds_count", name="store.put"),
        "store.gets": _delta(outcome, "repro_span_seconds_count", name="store.get"),
        "store.traces_archived": _stat_delta(outcome, "telemetry", "trace_collector", "archived"),
        "tiers.get_or_build_mean_ms": _hist_mean_ms(outcome, "repro_span_seconds", name="tiers.get_or_build"),
        "cluster.remote_chunk_share": _ratio(remote, remote + recovered),
        "cluster.chunk_rtt_mean_ms": chunk_rtt,
        "cluster.worker_chunk_mean_ms": worker_chunk,
        "cluster.wire_gap_ms": chunk_rtt - worker_chunk if outcome.worker_chunks else 0.0,
        "cluster.dispatch_mean_ms": _hist_mean_ms(outcome, "repro_span_seconds", name="cluster.dispatch"),
        "cluster.connection_reconnects": _stat_delta(outcome, *cluster, "connection_reconnects"),
        "cluster.wire.encode_ms": per_build_ms("cluster.wire.encode"),
        "cluster.wire.decode_ms": per_build_ms("cluster.wire.decode"),
        "cluster.wire.request_bytes": _ratio(layer("cluster.wire.encode", "bytes"), builds),
        "cluster.wire.response_bytes": _ratio(layer("cluster.wire.decode", "bytes"), builds),
        "trace.latency_p50_ms": e2e["latency_p50_ms"],
        "trace.throughput_ops_s": e2e["throughput_ops_s"],
        "trace.spans": float(sum(row["count"] for row in layers.values())),
    }
