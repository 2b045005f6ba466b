"""The ``ranking-facts`` command-line interface.

Subcommands mirror the demo workflow:

- ``ranking-facts datasets`` — list the built-in demo datasets;
- ``ranking-facts inspect`` — the design view: attribute overview and
  optional histograms;
- ``ranking-facts preview`` — rank and show the top rows;
- ``ranking-facts label`` — generate the nutritional label (text,
  detailed text, JSON, or HTML);
- ``ranking-facts batch`` — run many labels from a JSON spec through
  the engine (shared cache, concurrent jobs) in one invocation;
- ``ranking-facts serve`` — start the demo web server;
- ``ranking-facts stats`` — one readable engine/telemetry snapshot from
  a running server (``--watch`` refreshes it in place);
- ``ranking-facts store ls|show|gc|diff`` — inspect and maintain a
  durable label store (the archive ``serve --store`` writes);
- ``ranking-facts trace ls|show`` — list archived traces and render one
  as an ASCII request waterfall (coordinator *and* worker spans; from a
  running server with ``--url`` or straight off a store file with
  ``--path``); slow traces with a linked profile also print per-span
  top frames under the waterfall;
- ``ranking-facts profile`` — capture a sampling-profiler window from a
  running server (``GET /debug/profile``) and, with ``--worker`` or
  ``--fleet``, from trial workers too — the whole fleet's flame
  summaries in one command;
- ``ranking-facts worker`` — run a Monte-Carlo trial worker daemon
  that the ``remote`` trial backend shards stability trials onto
  (see :mod:`repro.cluster`);
- ``ranking-facts registry`` — run the worker registry daemon: workers
  ``--register`` with it, coordinators discover the live fleet from it
  (``--registry`` on ``batch``/``serve``, no static worker list);
- ``ranking-facts fleet status`` — one view of a running fleet: the
  registry's membership table plus, with ``--url``, a serving
  coordinator's per-worker circuit-breaker and retry-budget state.

Weights are given as ``name=value`` pairs, e.g.::

    ranking-facts label --dataset cs-departments \\
        --weight PubCount=0.4 --weight Faculty=0.4 --weight GRE=0.2 \\
        --sensitive DeptSizeBin --diversity DeptSizeBin --diversity Region \\
        --id-column DeptName
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.app.session import DemoSession
from repro.engine.backends import BACKEND_NAMES
from repro.errors import RankingFactsError, StoreError
from repro.label.render_html import render_html
from repro.label.render_json import render_json
from repro.label.render_markdown import render_markdown
from repro.label.render_text import render_text

__all__ = ["main", "build_parser"]


def _parse_weights(pairs: Sequence[str]) -> dict[str, float]:
    weights: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise RankingFactsError(
                f"bad --weight {pair!r}; expected name=value (e.g. PubCount=0.4)"
            )
        try:
            weights[name] = float(value)
        except ValueError:
            raise RankingFactsError(
                f"bad --weight {pair!r}; {value!r} is not a number"
            ) from None
    return weights


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset", help="built-in dataset name (see `ranking-facts datasets`)"
    )
    source.add_argument("--csv", help="path to a user-supplied CSV file")


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--weight", action="append", default=[], metavar="NAME=VALUE",
        help="scoring attribute weight; repeatable",
    )
    parser.add_argument(
        "--sensitive", action="append", default=[], metavar="ATTRIBUTE",
        help="sensitive categorical attribute; repeatable",
    )
    parser.add_argument(
        "--diversity", action="append", default=[], metavar="ATTRIBUTE",
        help="diversity attribute; repeatable (defaults to the sensitive ones)",
    )
    parser.add_argument("--id-column", help="column identifying items")
    parser.add_argument(
        "--raw", action="store_true",
        help="rank on raw values (skip min-max normalization)",
    )
    parser.add_argument("--top-k", type=int, default=10, help="headline k (default 10)")
    parser.add_argument(
        "--alpha", type=float, default=0.05, help="significance level (default 0.05)"
    )
    parser.add_argument(
        "--monte-carlo-trials", type=int, default=None, metavar="N",
        help="Monte-Carlo trials for the stability detail (0 disables; "
        "default: the session's built-in default)",
    )


def _load(session: DemoSession, args: argparse.Namespace) -> None:
    if args.dataset:
        session.load_builtin(args.dataset)
    else:
        session.load_csv(args.csv)


def _design(session: DemoSession, args: argparse.Namespace) -> None:
    session.set_normalization(not args.raw)
    if getattr(args, "monte_carlo_trials", None) is not None:
        session.set_monte_carlo(args.monte_carlo_trials)
    session.design_scoring(
        weights=_parse_weights(args.weight),
        sensitive_attribute=args.sensitive,
        id_column=args.id_column,
        diversity_attributes=args.diversity or None,
        k=args.top_k,
        alpha=args.alpha,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="ranking-facts",
        description="Generate nutritional labels for rankings (Yang et al., SIGMOD 2018)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list built-in demo datasets")

    inspect = commands.add_parser("inspect", help="attribute overview and histograms")
    _add_data_arguments(inspect)
    inspect.add_argument(
        "--histogram", action="append", default=[], metavar="ATTRIBUTE",
        help="also print an ASCII histogram of this numeric attribute; repeatable",
    )
    inspect.add_argument("--bins", type=int, default=10, help="histogram bins")

    preview = commands.add_parser("preview", help="rank and print the top rows")
    _add_data_arguments(preview)
    _add_design_arguments(preview)
    preview.add_argument("--rows", type=int, default=10, help="rows to show")

    label = commands.add_parser("label", help="generate the nutritional label")
    _add_data_arguments(label)
    _add_design_arguments(label)
    label.add_argument(
        "--format", choices=("text", "detailed", "json", "html", "markdown"),
        default="text", help="output format (default text)",
    )
    label.add_argument("--output", help="write to this file instead of stdout")
    label.add_argument(
        "--stream", action="store_true",
        help="print each widget to stderr as it finishes building "
        "(cheapest first, Monte-Carlo stability last) before the "
        "final label; the label itself is unchanged",
    )

    mitigate = commands.add_parser(
        "mitigate",
        help="suggest modified scoring functions that restore fairness (§4)",
    )
    _add_data_arguments(mitigate)
    _add_design_arguments(mitigate)
    mitigate.add_argument(
        "--protected", required=True, metavar="CATEGORY",
        help="the protected feature (value of the first --sensitive attribute)",
    )
    mitigate.add_argument(
        "--suggestions", type=int, default=3, help="how many recipes to propose"
    )

    batch = commands.add_parser(
        "batch",
        help="label many datasets/designs in one run (the engine's batch path)",
    )
    batch.add_argument(
        "--spec", required=True,
        help='JSON file: {"jobs": [{"dataset"|"csv": ..., "design": {...}}, ...]}',
    )
    batch.add_argument(
        "--output-dir", help="write each finished label to DIR/<job_id>.json"
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="job-level concurrency (default: CPU count)",
    )
    batch.add_argument(
        "--no-cache", action="store_true",
        help="bypass the label cache (every job builds cold)",
    )
    batch.add_argument(
        "--stats", action="store_true",
        help="also print the engine's cache/executor statistics",
    )
    batch.add_argument(
        "--trial-backend",
        choices=BACKEND_NAMES,
        default=None,
        help="Monte-Carlo trial execution backend (default: vectorized — "
        "all trials batched into array kernels; 'remote' shards trials "
        "across worker daemons, see --workers-from)",
    )
    batch.add_argument(
        "--workers-from", metavar="env|FILE", default=None,
        help="with --trial-backend remote: worker addresses from the "
        "REPRO_TRIAL_WORKERS environment variable ('env') or from a file "
        "of host:port lines",
    )
    batch.add_argument(
        "--registry", metavar="URL", default=None,
        help="with --trial-backend remote: discover workers from this "
        "registry service (see `ranking-facts registry`); workers may "
        "join and leave mid-run — composes with --workers-from "
        "(default: the REPRO_TRIAL_REGISTRY environment variable)",
    )

    serve = commands.add_parser("serve", help="start the demo web server")
    _add_data_arguments(serve)
    _add_design_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--trial-backend",
        choices=BACKEND_NAMES,
        default=None,
        help="Monte-Carlo trial execution backend (default: the "
        "REPRO_TRIAL_BACKEND environment variable, then vectorized; "
        "'remote' shards trials across worker daemons, see --workers-from)",
    )
    serve.add_argument(
        "--workers-from", metavar="env|FILE", default=None,
        help="with --trial-backend remote: worker addresses from the "
        "REPRO_TRIAL_WORKERS environment variable ('env') or from a file "
        "of host:port lines",
    )
    serve.add_argument(
        "--registry", metavar="URL", default=None,
        help="with --trial-backend remote: discover workers from this "
        "registry service (see `ranking-facts registry`); workers may "
        "join and leave mid-run — composes with --workers-from "
        "(default: the REPRO_TRIAL_REGISTRY environment variable)",
    )
    serve.add_argument(
        "--session-ttl", type=float, default=None, metavar="SECONDS",
        help="expire sessions idle longer than this many seconds "
        "(default: never; the server's default session is exempt)",
    )
    serve.add_argument(
        "--allow-local-paths", metavar="DIR", default=None,
        help='let POST /jobs read server-side "csv" paths that resolve '
        "inside DIR (off by default: a remote client could read any "
        "file on this host; symlinks escaping DIR are rejected)",
    )
    serve.add_argument(
        "--store", metavar="PATH", default=None,
        help="durable label store (SQLite, WAL): labels survive restarts "
        "and the /labels archive routes open up (default: the "
        "REPRO_LABEL_STORE environment variable, else no store)",
    )
    serve.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="in-memory label cache budget in (estimated pickled) bytes "
        "(default: REPRO_CACHE_MAX_BYTES, else unbounded)",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="in-memory label time-to-live in seconds "
        "(default: REPRO_CACHE_TTL, else entries never expire)",
    )
    serve.add_argument(
        "--max-streams", type=int, default=32, metavar="N",
        help="maximum concurrently open SSE streams (label.stream / "
        "POST /jobs?stream=1); requests past the cap get 503 "
        "(default 32)",
    )
    serve.add_argument(
        "--metrics-exemplars", action="store_true",
        help="render /metrics as OpenMetrics with per-bucket trace-id "
        "exemplars (default: the REPRO_METRICS_EXEMPLARS environment "
        "variable, else plain Prometheus text — byte-identical to "
        "previous releases)",
    )
    serve.add_argument(
        "--trace-sample-rate", type=int, default=None, metavar="N",
        help="archive 1 in N sampled traces (errors and slow traces are "
        "always kept; default: REPRO_TRACE_SAMPLE_RATE, else 1 = all); "
        "needs --store",
    )
    serve.add_argument(
        "--trace-slow-threshold", type=float, default=None, metavar="SECONDS",
        help="traces slower than this are always archived "
        "(default: REPRO_TRACE_SLOW_THRESHOLD, else 1.0)",
    )
    serve.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="emit structured JSON logs on stderr at this level (debug, "
        "info, ...), each line tagged with the request's trace id "
        "(default: the REPRO_LOG_LEVEL environment variable, else quiet)",
    )
    serve.add_argument(
        "--profile", action="store_true", default=None,
        help="keep a low-rate continuous sampling profiler running; slow "
        "archived traces get a linked profile window and /debug/profile "
        "serves on-demand captures (default: the REPRO_PROFILE "
        "environment variable)",
    )

    stats = commands.add_parser(
        "stats",
        help="engine/telemetry snapshot from a running server's "
        "/engine/stats endpoint",
    )
    stats.add_argument(
        "--url", default="http://127.0.0.1:8000",
        help="base URL of the running server (default http://127.0.0.1:8000)",
    )
    stats.add_argument(
        "--watch", action="store_true",
        help="refresh the snapshot continuously until Ctrl-C",
    )
    stats.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period with --watch (default 2s)",
    )
    stats.add_argument(
        "--raw", action="store_true",
        help="print the raw /engine/stats JSON instead of the summary view",
    )

    store = commands.add_parser(
        "store",
        help="inspect and maintain a durable label store (see serve --store)",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    def _store_path_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--path", default=None, metavar="FILE",
            help="the store file (default: the REPRO_LABEL_STORE "
            "environment variable)",
        )

    store_ls = store_commands.add_parser(
        "ls", help="list stored labels, newest first"
    )
    _store_path_argument(store_ls)
    store_ls.add_argument(
        "--limit", type=int, default=None, help="show at most this many rows"
    )

    store_show = store_commands.add_parser(
        "show", help="one stored label: provenance plus the label itself"
    )
    _store_path_argument(store_show)
    store_show.add_argument(
        "fingerprint", help="the label's fingerprint (any unambiguous prefix)"
    )
    store_show.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="label rendering (default text)",
    )

    store_gc = store_commands.add_parser(
        "gc", help="trim the store: expired labels first, then LRU past a budget"
    )
    _store_path_argument(store_gc)
    store_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="evict least-recently-accessed labels until the payload "
        "total fits this budget",
    )
    store_gc.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="drop labels created longer than this many seconds ago",
    )

    store_diff = store_commands.add_parser(
        "diff", help="drift report between two stored labels of one dataset"
    )
    _store_path_argument(store_diff)
    store_diff.add_argument("before", help="fingerprint (prefix) of the older label")
    store_diff.add_argument("after", help="fingerprint (prefix) of the newer label")

    trace = commands.add_parser(
        "trace",
        help="inspect the durable trace archive (request waterfalls)",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    def _trace_source_arguments(sub: argparse.ArgumentParser) -> None:
        source = sub.add_mutually_exclusive_group()
        source.add_argument(
            "--url", default=None, metavar="URL",
            help="read traces from a running server's /traces routes",
        )
        source.add_argument(
            "--path", default=None, metavar="FILE",
            help="read traces straight off a store file (default: the "
            "REPRO_LABEL_STORE environment variable)",
        )

    trace_ls = trace_commands.add_parser(
        "ls", help="list archived traces, newest first"
    )
    _trace_source_arguments(trace_ls)
    trace_ls.add_argument(
        "--limit", type=int, default=20, help="show at most this many rows"
    )

    trace_show = trace_commands.add_parser(
        "show", help="one trace as an ASCII request waterfall"
    )
    _trace_source_arguments(trace_show)
    trace_show.add_argument(
        "trace_id", help="the trace id (any unambiguous prefix)"
    )
    trace_show.add_argument(
        "--raw", action="store_true",
        help="print the raw span JSON instead of the waterfall",
    )

    profile = commands.add_parser(
        "profile",
        help="capture sampling-profiler windows from a running server "
        "and its trial workers (flame summaries, collapsed stacks)",
    )
    profile.add_argument(
        "--url", default="http://127.0.0.1:8000",
        help="base URL of the running server (default http://127.0.0.1:8000)",
    )
    profile.add_argument(
        "--worker", action="append", default=[], metavar="HOST:PORT",
        help="also profile this trial worker daemon; repeatable",
    )
    profile.add_argument(
        "--fleet", action="store_true",
        help="also profile every live worker: from the registry "
        "(--registry / REPRO_TRIAL_REGISTRY) when given, else from the "
        "server's own cluster view (/engine/stats)",
    )
    profile.add_argument(
        "--registry", metavar="URL", default=None,
        help="with --fleet: discover workers from this registry service "
        "(default: the REPRO_TRIAL_REGISTRY environment variable, else "
        "the server's cluster view)",
    )
    profile.add_argument(
        "--seconds", type=float, default=2.0, metavar="N",
        help="length of each capture window (default 2s; capped server-side)",
    )
    profile.add_argument(
        "--hz", type=float, default=None, metavar="HZ",
        help="sampling rate (default: the profiler's window rate)",
    )
    profile.add_argument(
        "--format", choices=("summary", "collapsed", "json"),
        default="summary",
        help="summary: ASCII flame summaries (default); collapsed: "
        "folded stacks for flamegraph tools, one section per target; "
        "json: the raw report payloads",
    )

    worker = commands.add_parser(
        "worker",
        help="run a Monte-Carlo trial worker daemon (the remote backend's "
        "executing end; see repro.cluster)",
    )
    # one source of truth with `python -m repro.cluster.worker`
    from repro.cluster.worker import add_worker_arguments

    add_worker_arguments(worker)

    registry = commands.add_parser(
        "registry",
        help="run the worker registry daemon (workers --register with "
        "it; coordinators discover the live fleet from it)",
    )
    # one source of truth with `python -m repro.cluster.registry`
    from repro.cluster.registry import add_registry_arguments

    add_registry_arguments(registry)

    fleet = commands.add_parser(
        "fleet",
        help="operate on a running fleet (registry + workers + coordinators)",
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_commands.add_parser(
        "status",
        help="membership from the registry plus, with --url, a serving "
        "coordinator's breaker/budget state",
    )
    fleet_status.add_argument(
        "--registry", metavar="URL", default=None,
        help="the registry service to ask for live workers (default: "
        "the REPRO_TRIAL_REGISTRY environment variable)",
    )
    fleet_status.add_argument(
        "--url", metavar="URL", default=None,
        help="also show this running server's coordinator view "
        "(per-worker breaker states, retry budget) from /engine/stats",
    )
    fleet_status.add_argument(
        "--raw", action="store_true",
        help="print the raw JSON instead of the summary view",
    )

    return parser


def _resolve_trial_backend_arg(args: argparse.Namespace):
    """The ``--trial-backend``/``--workers-from``/``--registry`` trio
    as a service argument.

    Returns a backend *name* (or ``None``) in the common case; for
    ``remote`` with an explicit ``--workers-from`` or ``--registry``,
    returns a pre-built coordinator so the worker sources travel with
    it.  A static list and a registry compose: the list seeds the
    fleet, the registry grows and shrinks it.
    """
    name = getattr(args, "trial_backend", None)
    source = getattr(args, "workers_from", None)
    registry_url = getattr(args, "registry", None)
    if source is None and registry_url is None:
        return name
    if name != "remote":
        flag = "--workers-from" if source is not None else "--registry"
        raise RankingFactsError(
            f"{flag} only applies with --trial-backend remote"
        )
    from repro.cluster.coordinator import (
        RemoteTrialBackend,
        workers_from_env,
        workers_from_file,
    )

    if source is None:
        addresses: tuple[str, ...] = ()
    elif source == "env":
        addresses = workers_from_env()
        if not addresses:
            raise RankingFactsError(
                "--workers-from env: REPRO_TRIAL_WORKERS is empty or unset; "
                "expected comma-separated host:port addresses"
            )
    else:
        addresses = workers_from_file(source)
    return RemoteTrialBackend(addresses, registry_url=registry_url)


def _run_datasets(_: argparse.Namespace) -> str:
    lines = ["built-in datasets:"]
    lines += [f"  {name}" for name in DemoSession.available_datasets()]
    return "\n".join(lines)


def _run_inspect(args: argparse.Namespace) -> str:
    session = DemoSession()
    _load(session, args)
    lines = [f"dataset: {session.dataset_name()}"]
    for entry in session.attribute_overview():
        if entry["kind"] == "numeric":
            lines.append(
                f"  {entry['name']:<20} numeric      "
                f"min {entry['min']:g}  median {entry['median']:g}  max {entry['max']:g}"
                + (f"  ({entry['missing']} missing)" if entry["missing"] else "")
            )
        else:
            categories = ", ".join(entry["categories"])
            lines.append(
                f"  {entry['name']:<20} categorical  "
                f"{entry['num_categories']} categories: {categories}"
            )
    for attribute in args.histogram:
        lines.append("")
        lines.append(session.attribute_histogram_ascii(attribute, bins=args.bins))
    return "\n".join(lines)


def _run_preview(args: argparse.Namespace) -> str:
    session = DemoSession()
    _load(session, args)
    _design(session, args)
    ranking = session.preview(args.rows)
    lines = [f"{'rank':>4}  {'score':>10}  item"]
    for item in ranking:
        lines.append(f"{item.rank:>4}  {item.score:>10.4f}  {item.item_id}")
    return "\n".join(lines)


def _stream_label_to_stderr(session: DemoSession) -> None:
    """Consume a label event stream, narrating widgets on stderr.

    Uses the same event protocol as the server's SSE endpoint, so the
    CLI exercises (and demonstrates) incremental delivery: each widget
    prints the moment it finishes building, with the Monte-Carlo-heavy
    stability detail last.  The built label lands in the service cache;
    the caller re-requests it through the session afterwards (a cache
    hit) so rendering works on the real label object.
    """
    import sys

    table, design, dataset_name = session.label_inputs()
    events = session.service.stream_label(table, design, dataset_name)
    for event in events.events(timeout=0.5):
        if event is None:
            continue  # idle tick; keep waiting
        if event.kind == "widget":
            if event.streamed and event.seconds is not None:
                detail = f"built in {event.seconds:.3f}s"
            else:
                detail = "cached"  # replayed from a finished label
            print(
                f"  widget {event.name:<12} {detail}",
                file=sys.stderr, flush=True,
            )
        elif event.kind == "error":
            raise RankingFactsError(str(event.payload.get("error")))
    if events.aborted:
        raise RankingFactsError(f"label stream aborted: {events.abort_reason}")


def _run_label(args: argparse.Namespace) -> str:
    session = DemoSession()
    _load(session, args)
    _design(session, args)
    if args.stream:
        _stream_label_to_stderr(session)
    facts = session.generate_label()
    if args.format == "json":
        payload = render_json(facts.label)
    elif args.format == "html":
        payload = render_html(facts.label)
    elif args.format == "markdown":
        payload = render_markdown(facts.label, detailed=True)
    elif args.format == "detailed":
        payload = render_text(facts.label, detailed=True)
    else:
        payload = render_text(facts.label)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        return f"wrote {args.format} label to {args.output}"
    return payload


def _run_mitigate(args: argparse.Namespace) -> str:
    from repro.mitigation import suggest_fair_weights
    from repro.preprocess.pipeline import NormalizationPlan, TablePreprocessor
    from repro.ranking.scoring import LinearScoringFunction

    session = DemoSession()
    _load(session, args)
    _design(session, args)
    if not args.sensitive:
        raise RankingFactsError("mitigate needs at least one --sensitive attribute")
    facts = session.generate_label()

    weights = _parse_weights(args.weight)
    scorer = LinearScoringFunction(weights)
    # search on the same preprocessed table the label ranked
    suggestions = suggest_fair_weights(
        facts.scored_table,
        scorer,
        sensitive_attribute=args.sensitive[0],
        protected_category=args.protected,
        k=args.top_k,
        alpha=args.alpha,
        id_column=args.id_column,
        max_suggestions=args.suggestions,
    )
    if not suggestions:
        return (
            "no fair recipe found in the searched neighbourhood; "
            "consider post-processing with the FA*IR re-ranker instead"
        )
    lines = [
        f"recipes making {args.sensitive[0]}={args.protected} pass FA*IR "
        f"at k={args.top_k}, alpha={args.alpha} (smallest change first):"
    ]
    for i, suggestion in enumerate(suggestions, start=1):
        recipe = ", ".join(
            f"{attr}={weight:.3f}" for attr, weight in suggestion.weights.items()
        )
        lines.append(
            f"  {i}. {recipe}   (change {suggestion.distance:.2f}, "
            f"keeps {suggestion.top_k_overlap:.0%} of the original top-{args.top_k})"
        )
    return "\n".join(lines)


def _run_batch(args: argparse.Namespace) -> str:
    import json
    from pathlib import Path

    from repro.engine.jobs import JobStatus, LabelJob
    from repro.engine.service import LabelService

    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise RankingFactsError(f"batch spec not found: {args.spec}")
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RankingFactsError(f"batch spec is not valid JSON: {exc}") from exc
    jobs_spec = spec.get("jobs") if isinstance(spec, dict) else None
    if not isinstance(jobs_spec, list) or not jobs_spec:
        raise RankingFactsError('batch spec needs a non-empty "jobs" array')
    jobs = [
        LabelJob.from_mapping(entry, job_id=f"job-{index}")
        for index, entry in enumerate(jobs_spec)
    ]

    output_dir = Path(args.output_dir) if args.output_dir else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)

    lines = [f"batch: {len(jobs)} job(s) from {spec_path.name}"]
    failures = 0
    with LabelService(
        max_workers=args.workers,
        use_cache=not args.no_cache,
        trial_backend=_resolve_trial_backend_arg(args),
    ) as service:
        for result in service.run_batch(jobs):
            if result.status is JobStatus.DONE:
                source = "cache" if result.cached else "built"
                line = (
                    f"  {result.job_id:<10} done    {result.dataset_name:<20} "
                    f"{source:<6} {result.seconds * 1000:8.1f} ms"
                )
                if output_dir is not None:
                    target = output_dir / f"{result.job_id}.json"
                    target.write_text(
                        render_json(result.facts.label) + "\n", encoding="utf-8"
                    )
                    line += f"  -> {target}"
                lines.append(line)
            else:
                failures += 1
                lines.append(
                    f"  {result.job_id:<10} FAILED  {result.dataset_name:<20} "
                    f"{result.error}"
                )
        if args.stats:
            stats = service.stats()
            cache = stats["cache"]
            executor = stats["executor"]
            lines.append(
                f"engine: {stats['service']['builds']} build(s) for "
                f"{stats['service']['requests']} request(s); cache "
                f"{cache['hits']} hit(s) / {cache['misses']} miss(es); "
                f"trials on the {executor['trial_backend_effective']} backend"
            )
    lines.append(
        f"{len(jobs) - failures}/{len(jobs)} job(s) succeeded"
        + (f", {failures} failed" if failures else "")
    )
    if failures:
        raise RankingFactsError("\n".join(lines[1:]))
    return "\n".join(lines)


def _run_serve(args: argparse.Namespace) -> str:
    # imported here so `label`/`preview` work even if sockets are restricted
    import os

    from repro.app.server import resolve_service_env, serve_forever
    from repro.engine.service import LabelService

    # the env var stands in for the flag before --workers-from/--registry
    # are checked against it
    if args.trial_backend is None:
        args.trial_backend = os.environ.get("REPRO_TRIAL_BACKEND") or None
    backend = _resolve_trial_backend_arg(args)
    store_path, cache_max_bytes, cache_ttl = resolve_service_env(
        args.store, args.cache_max_bytes, args.cache_ttl
    )
    session = DemoSession(service=LabelService(
        trial_backend=backend,
        store_path=store_path,
        cache_max_bytes=cache_max_bytes,
        cache_ttl=cache_ttl,
    ))
    _load(session, args)
    _design(session, args)
    session.generate_label()
    serve_forever(
        session, host=args.host, port=args.port,
        session_ttl=args.session_ttl,
        allow_local_paths=args.allow_local_paths,
        log_level=args.log_level,
        max_streams=args.max_streams,
        # None defers to REPRO_METRICS_EXEMPLARS; the flag forces on
        metrics_exemplars=True if args.metrics_exemplars else None,
        trace_sample_rate=args.trace_sample_rate,
        trace_slow_threshold=args.trace_slow_threshold,
        # None defers to REPRO_PROFILE; the flag forces on
        profile=True if args.profile else None,
    )
    return ""  # serve_forever blocks; reached only on shutdown


def _format_slo_summary(slo: list) -> str:
    """One line of per-objective burn, shared by stats and fleet views."""
    parts = []
    for entry in slo:
        burn = entry.get("burn")
        burn_text = "-" if burn is None else f"{float(burn):.2f}"
        parts.append(
            f"{entry.get('name', '?')} {entry.get('state', '?')} "
            f"(burn {burn_text})"
        )
    return "; ".join(parts)


def _format_stats(stats: dict, previous: dict | None = None) -> str:
    """The ``ranking-facts stats`` summary view of one ``/engine/stats``
    snapshot.  Pure (dict in, text out) so tests need no server.

    ``previous`` — the prior snapshot in a ``--watch`` loop — turns the
    resources pane's CPU figure into a rate over the refresh interval
    (a lifetime average on the first frame).
    """
    lines: list[str] = []
    service = stats.get("service") or {}
    lines.append(
        f"service:   {service.get('requests', 0)} request(s), "
        f"{service.get('builds', 0)} build(s), cache "
        + ("on" if service.get("cache_enabled", True) else "off")
    )
    cache = stats.get("cache") or {}
    if cache:
        lines.append(
            f"cache:     {cache.get('hits', 0)} hit(s) / "
            f"{cache.get('misses', 0)} miss(es), "
            f"{cache.get('size', 0)} label(s) resident"
        )
    executor = stats.get("executor") or {}
    if executor:
        lines.append(
            f"executor:  {executor.get('jobs_submitted', 0)} job(s) in "
            f"{executor.get('batches_submitted', 0)} batch(es); trials on "
            f"{executor.get('trial_backend_effective', '?')}"
        )
        cluster = executor.get("trial_cluster")
        if isinstance(cluster, dict):
            lines.append(
                f"cluster:   {cluster.get('workers_alive', 0)}/"
                f"{cluster.get('workers_configured', 0)} worker(s) alive; "
                f"{cluster.get('chunks_remote', 0)} chunk(s) remote, "
                f"{cluster.get('chunks_failed_over', 0)} failed over, "
                f"{cluster.get('chunks_recovered_locally', 0)} recovered locally"
            )
            if cluster.get("breakers_open") or cluster.get("retries_spent"):
                lines.append(
                    f"           {cluster.get('breakers_open', 0)} breaker(s) "
                    f"open, {cluster.get('retries_spent', 0)} retry(s) spent, "
                    f"{cluster.get('budget_exhausted_runs', 0)} run(s) "
                    f"budget-exhausted"
                )
            workers_rows = cluster.get("workers")
            if isinstance(workers_rows, list) and workers_rows:
                states: dict[str, int] = {}
                for row in workers_rows:
                    state = str((row.get("breaker") or {}).get("state", "?"))
                    states[state] = states.get(state, 0) + 1
                lines.append(
                    "           breakers: "
                    + ", ".join(f"{n} {s}" for s, n in sorted(states.items()))
                )
            membership = cluster.get("membership")
            if isinstance(membership, dict):
                lines.append(
                    f"           membership via "
                    f"{membership.get('registry', '?')}: "
                    f"{membership.get('workers_joined', 0)} joined, "
                    f"{membership.get('workers_left', 0)} left"
                )
    tiers = stats.get("tiers")
    if isinstance(tiers, dict):
        lines.append(
            f"tiers:     l1 {tiers.get('l1_hits', 0)} hit(s), "
            f"l2 {tiers.get('l2_hits', 0)} hit(s), "
            f"{tiers.get('builds', 0)} build(s), "
            f"{tiers.get('writes', 0)} write(s)"
        )
    store = stats.get("store")
    if isinstance(store, dict):
        lines.append(
            f"store:     {store.get('labels', 0)} label(s), "
            f"{store.get('bytes', 0)} byte(s) at {store.get('path', '?')}"
        )
    resources = stats.get("resources")
    if isinstance(resources, dict):
        cpu = float(resources.get("cpu_seconds") or 0.0)
        uptime = float(resources.get("uptime_seconds") or 0.0)
        prior = (previous or {}).get("resources")
        if isinstance(prior, dict):
            interval = uptime - float(prior.get("uptime_seconds") or 0.0)
            burned = cpu - float(prior.get("cpu_seconds") or 0.0)
        else:  # first frame: lifetime average
            interval, burned = uptime, cpu
        cpu_pct = 100.0 * burned / interval if interval > 0 else 0.0
        parts = []
        rss = resources.get("rss_bytes")
        if isinstance(rss, (int, float)):
            rss_text = f"rss {rss / 1048576:.1f} MB"
            peak = resources.get("peak_rss_bytes")
            if isinstance(peak, (int, float)):
                rss_text += f" (peak {peak / 1048576:.1f})"
            parts.append(rss_text)
        parts.append(f"cpu {cpu:.1f}s ({cpu_pct:.1f}%)")
        parts.append(f"{resources.get('threads', 0)} thread(s)")
        if resources.get("open_fds") is not None:
            parts.append(f"{resources['open_fds']} fd(s)")
        gc_block = resources.get("gc") or {}
        parts.append(
            f"gc {gc_block.get('pauses', 0)} pause(s) / "
            f"{float(gc_block.get('pause_seconds') or 0.0) * 1000:.1f} ms"
        )
        lines.append("resources: " + ", ".join(parts))
    profiles = stats.get("profiles")
    if isinstance(profiles, dict):
        profiler = profiles.get("profiler") or {}
        continuous = profiler.get("continuous")
        if isinstance(continuous, dict):
            state = (
                f"continuous at {float(continuous.get('hz') or 0.0):g} hz, "
                f"{continuous.get('samples', 0)} sample(s) buffered"
            )
        else:
            state = "on demand only"
        lines.append(
            f"profiler:  {state}; {profiler.get('windows', 0)} window(s), "
            f"{profiler.get('samples_total', 0)} sample(s) ever"
        )
    telemetry = stats.get("telemetry")
    if isinstance(telemetry, dict):
        metrics = telemetry.get("metrics") or {}
        requests = (metrics.get("repro_http_requests_total") or {}).get(
            "series"
        ) or []
        served = sum(int(series.get("value", 0)) for series in requests)
        lines.append(
            f"telemetry: {served} HTTP request(s) across "
            f"{len(requests)} endpoint series, "
            f"{len(metrics)} metric famil"
            + ("y" if len(metrics) == 1 else "ies")
        )
        streams_active = sum(
            int(series.get("value", 0))
            for series in (metrics.get("repro_streams_active") or {}).get(
                "series"
            )
            or []
        )
        stream_series = (metrics.get("repro_streams_total") or {}).get(
            "series"
        ) or []
        if streams_active or stream_series:
            outcomes = ", ".join(
                f"{int(series.get('value', 0))} "
                f"{(series.get('tags') or {}).get('outcome', '?')}"
                for series in stream_series
            )
            lines.append(
                f"streams:   {streams_active} active"
                + (f"; {outcomes}" if outcomes else "")
            )
        registry_series = (metrics.get("repro_registry_workers") or {}).get(
            "series"
        ) or []
        if registry_series:
            leases = sum(
                int(series.get("value", 0)) for series in registry_series
            )
            lines.append(f"registry:  {leases} live worker lease(s)")
        buffer = telemetry.get("trace_buffer")
        if isinstance(buffer, dict):
            lines.append(
                f"traces:    buffer {buffer.get('buffered', 0)}/"
                f"{buffer.get('capacity', 0)}, "
                f"{buffer.get('completed', 0)} completed, "
                f"{buffer.get('dropped_spans', 0)} span(s) dropped"
            )
        collector = telemetry.get("trace_collector")
        if isinstance(collector, dict):
            lines.append(
                f"archive:   {collector.get('archived', 0)} trace(s) "
                f"archived, {collector.get('sampled_out', 0)} sampled out, "
                f"{collector.get('pending', 0)} pending"
            )
        for trace in (telemetry.get("recent_traces") or [])[:5]:
            duration = trace.get("duration")
            millis = "?" if duration is None else f"{duration * 1000:.1f}"
            lines.append(
                f"  trace {str(trace.get('trace_id', ''))[:12]}  "
                f"{trace.get('name', '?'):<18} {trace.get('status', '?'):<5} "
                f"{millis:>8} ms"
            )
    slo = stats.get("slo")
    if isinstance(slo, list) and slo:
        lines.append("slo:       " + _format_slo_summary(slo))
    return "\n".join(lines)


def _fetch_json(url: str, timeout: float = 10.0) -> dict:
    """``GET url`` as a JSON object; any failure is a :class:`RankingFactsError`.

    The error chains the underlying exception, so a caller can still
    read an HTTP error's body from ``__cause__``.
    """
    import json
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            payload = json.load(response)
    except (OSError, ValueError) as exc:
        raise RankingFactsError(f"cannot fetch {url}: {exc}") from exc
    if not isinstance(payload, dict):
        raise RankingFactsError(f"{url} did not return a JSON object")
    return payload


def _run_stats(args: argparse.Namespace) -> str:
    import json
    import time

    url = args.url.rstrip("/") + "/engine/stats"

    def render(payload: dict, previous: dict | None = None) -> str:
        if args.raw:
            return json.dumps(payload, indent=2)
        return _format_stats(payload, previous)

    if not args.watch:
        return render(_fetch_json(url))
    previous: dict | None = None
    try:
        while True:
            payload = _fetch_json(url)
            # clear + home, like `watch(1)`, so the view updates in place
            print("\x1b[2J\x1b[H" + f"{args.url}  (Ctrl-C to stop)")
            # the prior frame turns the CPU figure into a live rate
            print(render(payload, previous), flush=True)
            previous = payload
            time.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:
        return ""


def _open_store(args: argparse.Namespace):
    import os

    from repro.store.store import LabelStore

    path = args.path or os.environ.get("REPRO_LABEL_STORE") or None
    if not path:
        raise RankingFactsError(
            "no store file given; pass --path FILE or set REPRO_LABEL_STORE"
        )
    if not os.path.exists(path):
        # opening would create an empty store, which for every read-side
        # command just means confusing "no such label" errors later
        raise RankingFactsError(f"label store not found: {path}")
    return LabelStore(path)


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _run_store(args: argparse.Namespace) -> str:
    import json
    import time

    if args.store_command == "ls":
        with _open_store(args) as store:
            records = store.records(limit=args.limit)
            stats = store.stats()
        if not records:
            return f"store {stats['path']}: empty"
        now = time.time()
        lines = [
            f"store {stats['path']}: {stats['labels']} label(s), "
            f"{stats['bytes']} payload byte(s)",
            f"  {'fingerprint':<16} {'dataset':<24} {'size':>9} "
            f"{'age':>6} {'hits':>5}  engine",
        ]
        for record in records:
            lines.append(
                f"  {record['fingerprint'][:16]:<16} "
                f"{(record['dataset_name'] or '-'):<24} "
                f"{record['size_bytes']:>9} "
                f"{_format_age(now - record['created_at']):>6} "
                f"{record['hits']:>5}  {record['engine_version'] or '-'}"
            )
        return "\n".join(lines)

    if args.store_command == "show":
        with _open_store(args) as store:
            fingerprint = _resolve_id(
                store.resolve_prefix, "fingerprint", args.fingerprint
            )
            facts = store.get(fingerprint)
            provenance = store.provenance(fingerprint)
        if facts is None:
            raise RankingFactsError(f"no stored label {args.fingerprint!r}")
        if args.format == "json":
            return json.dumps({
                "fingerprint": fingerprint,
                "label": json.loads(render_json(facts.label)),
                "provenance": (
                    None if provenance is None else provenance.as_dict()
                ),
            }, indent=2)
        lines = [f"fingerprint: {fingerprint}"]
        if provenance is not None:
            lines += [
                f"dataset:     {provenance.dataset_name}",
                f"built:       {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(provenance.created_at))} "
                f"by engine {provenance.engine_version} "
                f"in {provenance.build_seconds * 1000:.1f} ms",
                f"trials:      {provenance.monte_carlo_trials} x "
                f"{provenance.epsilon_count} epsilon(s) on "
                f"{provenance.trial_backend_effective} "
                f"(requested {provenance.trial_backend_requested})",
                f"table hash:  {provenance.table_fingerprint[:16]}",
                f"design hash: {provenance.design_fingerprint[:16]}",
            ]
        lines += ["", render_text(facts.label)]
        return "\n".join(lines)

    if args.store_command == "gc":
        if args.max_bytes is None and args.ttl is None:
            raise RankingFactsError("store gc needs --max-bytes and/or --ttl")
        with _open_store(args) as store:
            removed = store.gc(max_bytes=args.max_bytes, ttl=args.ttl)
            stats = store.stats()
        return (
            f"gc: dropped {removed['expired']} expired and evicted "
            f"{removed['evicted']} label(s); {stats['labels']} label(s), "
            f"{stats['bytes']} byte(s) remain"
        )

    assert args.store_command == "diff"
    from repro.label.compare import diff_labels

    with _open_store(args) as store:
        fp_before = _resolve_id(store.resolve_prefix, "fingerprint", args.before)
        fp_after = _resolve_id(store.resolve_prefix, "fingerprint", args.after)
        before = store.get(fp_before)
        after = store.get(fp_after)
    if before is None or after is None:
        raise RankingFactsError("a stored label expired while diffing")
    drift = diff_labels(before.label, after.label)
    lines = [f"diff {fp_before[:16]} -> {fp_after[:16]}:"]
    changes = drift.summary_lines()
    if changes:
        lines += [f"  {line}" for line in changes]
    else:
        lines.append("  no differences")
    return "\n".join(lines)


def _format_trace_listing(source: str, records: list[dict]) -> str:
    import time

    if not records:
        return f"trace archive {source}: empty"
    now = time.time()
    lines = [
        f"trace archive {source}: {len(records)} trace(s)",
        f"  {'trace id':<16} {'root':<22} {'status':<7} {'spans':>5} "
        f"{'duration':>10} {'age':>6}  kept",
    ]
    for record in records:
        lines.append(
            f"  {str(record.get('trace_id', '?'))[:16]:<16} "
            f"{str(record.get('root_name', '?'))[:22]:<22} "
            f"{str(record.get('status', '?')):<7} "
            f"{record.get('span_count', 0):>5} "
            f"{float(record.get('duration') or 0.0) * 1000:>8.1f}ms "
            f"{_format_age(now - float(record.get('created_at') or now)):>6}  "
            f"{record.get('sampled', '?')}"
        )
    return "\n".join(lines)


def _format_waterfall(
    summary: dict,
    spans: list[dict],
    tree: list[dict],
    profile: dict | None = None,
) -> str:
    """One archived trace as an ASCII request waterfall.

    Pure (dicts in, text out) so tests need neither a server nor a
    store.  Each span prints tree-indented with its offset from the
    trace start, duration, worker, and outcome — failover attempts show
    up as sibling ``cluster.chunk`` rows tagged with their failure
    class — plus a proportional timeline bar.

    ``profile`` — the report dict of a linked sampling-profiler window
    (slow traces archived by a ``--profile`` server carry one) — adds a
    "top frames by span" section under the waterfall, answering *what
    code* the slow spans were actually running.
    """
    start = min(
        (float(s.get("started_at") or 0.0) for s in spans), default=0.0
    )
    end = max(
        (
            float(s.get("started_at") or 0.0) + float(s.get("duration") or 0.0)
            for s in spans
        ),
        default=start,
    )
    total = max(end - start, 0.0)
    bar_width = 24
    lines = [
        f"trace {summary.get('trace_id', '?')}",
        f"root {summary.get('root_name', '?')}  "
        f"status {summary.get('status', '?')}  "
        f"{float(summary.get('duration') or 0.0) * 1000:.1f} ms  "
        f"{summary.get('span_count', len(spans))} span(s)  "
        f"kept: {summary.get('sampled', '?')}",
        "",
        f"  {'span':<40} {'offset':>10} {'duration':>11}  "
        f"{'worker':<21} {'outcome':<28} timeline",
    ]

    def bar(offset: float, duration: float) -> str:
        if total <= 0:
            return "#" * bar_width
        lead = min(int(round(bar_width * offset / total)), bar_width - 1)
        fill = max(1, int(round(bar_width * duration / total)))
        return ("." * lead + "#" * fill)[:bar_width].ljust(bar_width, ".")

    def walk(nodes: list[dict], depth: int) -> None:
        for node in nodes:
            offset = float(node.get("started_at") or 0.0) - start
            duration = float(node.get("duration") or 0.0)
            tags = node.get("tags") or {}
            outcome = str(tags.get("outcome") or node.get("status") or "?")
            if tags.get("failure_class"):
                outcome += f" ({tags['failure_class']})"
            name = "  " * depth + str(node.get("name", "?"))
            lines.append(
                f"  {name:<40.40} {offset * 1000:>8.1f}ms "
                f"{duration * 1000:>9.1f}ms  "
                f"{str(tags.get('worker', '-')):<21.21} {outcome:<28} "
                f"|{bar(offset, duration)}|"
            )
            walk(node.get("children") or [], depth + 1)

    walk(tree, 0)
    if profile:
        from repro.telemetry import ProfileReport

        report = ProfileReport.from_dict(profile)
        per_span = report.span_top_frames(3)
        if not report.is_empty:
            lines.append("")
            lines.append(
                f"  linked profile ({report.source}, "
                f"{report.samples} samples at {report.hz:g} hz) — "
                "top frames by span:"
            )
            if per_span:
                ranked = sorted(
                    per_span.items(),
                    key=lambda item: -report.span_samples.get(item[0], 0),
                )
                for name, frames in ranked:
                    span_count = report.span_samples.get(name, 0)
                    lines.append(f"    {name}  ({span_count} samples)")
                    for frame, count in frames:
                        share = count / span_count if span_count else 0.0
                        lines.append(f"      {share:6.1%} {count:>6}  {frame}")
            else:  # nothing ran under a span that window; show the process
                for frame, count in report.top_frames(3):
                    share = count / report.samples if report.samples else 0.0
                    lines.append(f"      {share:6.1%} {count:>6}  {frame}")
    return "\n".join(lines)


def _ambiguous_id_error(
    kind: str, prefix: str, matches: list, message: str
) -> RankingFactsError:
    """An ambiguous-prefix failure that *lists the candidates*.

    ``trace show ab`` matching several archived traces used to die with
    a bare "ambiguous" — the operator's next move (pick one) required a
    separate ``trace ls``.  Now the error itself is the listing.
    """
    lines = [message, f"matching {kind}s:"]
    lines += [f"  {match}" for match in matches]
    lines.append(f"(pass a longer prefix of the {kind} you meant)")
    return RankingFactsError("\n".join(lines))


def _resolve_id(resolve: Callable[[str], str], kind: str, prefix: str) -> str:
    """``resolve(prefix)``, listing the candidates when it is ambiguous."""
    try:
        return resolve(prefix)
    except StoreError as exc:
        matches = getattr(exc, "matches", None)
        if matches:
            raise _ambiguous_id_error(kind, prefix, matches, str(exc)) from exc
        raise


def _run_trace(args: argparse.Namespace) -> str:
    import json
    import urllib.error

    from repro.telemetry import span_tree

    if args.url is not None:
        base = args.url.rstrip("/")

        def fetch(path: str) -> dict:
            try:
                return _fetch_json(base + path)
            except RankingFactsError as exc:
                http_error = exc.__cause__
                if not isinstance(http_error, urllib.error.HTTPError):
                    raise
                # a 404 body carries the reason — and, for an ambiguous
                # prefix, the candidate ids; surface them, not the code
                try:
                    body = json.load(http_error)
                except ValueError:
                    body = {}
                matches = body.get("matches")
                error = str(body.get("error") or http_error)
                if isinstance(matches, list) and matches:
                    raise _ambiguous_id_error(
                        "trace id", args.trace_id, matches, error
                    ) from http_error
                raise RankingFactsError(error) from http_error

        if args.trace_command == "ls":
            payload = fetch(f"/traces?limit={args.limit}")
            return _format_trace_listing(base, payload.get("traces") or [])
        payload = fetch(f"/traces/{args.trace_id}")
        if args.raw:
            return json.dumps(payload, indent=2)
        spans = payload.get("spans") or []
        tree = payload.get("tree") or span_tree(spans)
        profile = payload.get("profile")
        return _format_waterfall(
            payload, spans, tree,
            profile=profile if isinstance(profile, dict) else None,
        )

    with _open_store(args) as store:
        if args.trace_command == "ls":
            records = store.trace_records(limit=args.limit)
            return _format_trace_listing(store.path, records)
        trace_id = _resolve_id(store.resolve_trace_prefix, "trace id", args.trace_id)
        record = store.get_trace(trace_id)
        if record is None:  # expired between resolve and get
            raise RankingFactsError(f"no archived trace {args.trace_id!r}")
        spans = record.spans
        if args.raw:
            return json.dumps(
                {**record.summary(), "spans": spans}, indent=2
            )
        linked = store.profile_for_trace(trace_id)
        return _format_waterfall(
            record.summary(), spans, span_tree(spans),
            profile=None if linked is None else linked.report,
        )


def _run_profile(args: argparse.Namespace) -> str:
    import json
    import os
    import threading

    from repro.telemetry import ProfileReport

    # each capture blocks its handler for the whole window; give the
    # socket timeout generous headroom past it
    timeout = max(30.0, args.seconds * 2 + 10.0)

    base = args.url.rstrip("/")
    addresses: list[str] = list(args.worker)
    if args.fleet:
        registry_url = (
            args.registry or os.environ.get("REPRO_TRIAL_REGISTRY") or None
        )
        if registry_url:
            workers_url = registry_url.rstrip("/") + "/workers"
            rows = _fetch_json(workers_url, timeout).get("workers") or []
            discovered = [
                str(row.get("address")) for row in rows if row.get("address")
            ]
        else:  # no registry: the coordinator already knows its fleet
            stats = _fetch_json(base + "/engine/stats", timeout)
            cluster = (stats.get("executor") or {}).get("trial_cluster") or {}
            discovered = [
                str(row.get("address"))
                for row in cluster.get("workers") or []
                if row.get("address")
            ]
        for address in discovered:
            if address not in addresses:
                addresses.append(address)

    query = f"/debug/profile?seconds={args.seconds:g}&format=json"
    if args.hz is not None:
        query += f"&hz={args.hz:g}"
    targets = [("server", base + query)]
    for address in addresses:
        worker_base = address if "://" in address else f"http://{address}"
        targets.append((address, worker_base.rstrip("/") + query))

    # sweep the fleet concurrently: the whole capture costs one
    # window's wall clock, not one per target
    results: list[dict | RankingFactsError] = [
        RankingFactsError("not captured")
    ] * len(targets)

    def capture(index: int, url: str) -> None:
        try:
            results[index] = _fetch_json(url, timeout)
        except RankingFactsError as exc:
            results[index] = exc

    threads = [
        threading.Thread(target=capture, args=(i, url), daemon=True)
        for i, (_, url) in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    failures = [
        f"{name}: {result}"
        for (name, _), result in zip(targets, results)
        if isinstance(result, RankingFactsError)
    ]
    if len(failures) == len(targets):
        raise RankingFactsError(
            "no profile captured:\n  " + "\n  ".join(failures)
        )

    if args.format == "json":
        payload = {
            name: (
                {"error": str(result)}
                if isinstance(result, RankingFactsError)
                else result
            )
            for (name, _), result in zip(targets, results)
        }
        return json.dumps({"profiles": payload}, indent=2)

    sections: list[str] = []
    for (name, _), result in zip(targets, results):
        if isinstance(result, RankingFactsError):
            prefix = "# " if args.format == "collapsed" else ""
            sections.append(f"{prefix}profile {name}: error: {result}")
            continue
        report = ProfileReport.from_dict(result)
        if args.format == "collapsed":
            collapsed = report.to_collapsed().rstrip("\n")
            sections.append(
                f"# ==== {report.source or name}: {report.samples} "
                f"sample(s) over {report.duration:.1f}s at "
                f"{report.hz:g} hz ====\n"
                + (collapsed if collapsed else "# (no samples)")
            )
        else:
            sections.append(report.render())
    return "\n\n".join(sections)


def _run_worker(args: argparse.Namespace) -> str:
    # imported here so the cluster package only loads when asked for
    from repro.cluster.worker import serve_worker_forever

    serve_worker_forever(
        host=args.host, port=args.port,
        log_level=args.log_level,
        register=args.register, advertise=args.advertise,
        heartbeat_ttl=args.heartbeat_ttl, profile=args.profile,
    )
    return ""  # blocks; reached only on shutdown


def _run_registry(args: argparse.Namespace) -> str:
    # imported here so the cluster package only loads when asked for
    from repro.cluster.registry import serve_registry_forever

    serve_registry_forever(
        host=args.host, port=args.port, log_level=args.log_level
    )
    return ""  # blocks; reached only on shutdown


def _format_fleet_registry(url: str, workers: dict, stats: dict) -> list[str]:
    """The registry half of ``fleet status`` (pure: dicts in, lines out)."""
    rows = workers.get("workers") or []
    lines = [
        f"registry {url}: {len(rows)} worker(s); "
        f"{stats.get('registrations', 0)} registration(s), "
        f"{stats.get('heartbeats', 0)} heartbeat(s), "
        f"{stats.get('expirations', 0)} expiration(s), "
        f"{stats.get('deregistrations', 0)} deregistration(s)"
    ]
    if rows:
        lines.append(
            f"  {'address':<21} {'backend':<11} {'lease':>8} {'beats':>6}"
        )
    for row in rows:
        meta = row.get("meta") or {}
        lines.append(
            f"  {str(row.get('address', '?')):<21} "
            f"{str(meta.get('backend', '-')):<11} "
            f"{float(row.get('expires_in', 0.0)):>7.1f}s "
            f"{row.get('beats', 0):>6}"
        )
    return lines


def _format_fleet_cluster(url: str, cluster: dict | None) -> list[str]:
    """The coordinator half of ``fleet status`` (pure: dict in, lines out)."""
    if not isinstance(cluster, dict):
        return [f"server {url}: no remote trial cluster configured"]
    budget = cluster.get("retry_budget")
    lines = [
        f"server {url}: {cluster.get('workers_alive', 0)}/"
        f"{cluster.get('workers_configured', 0)} worker(s) alive, "
        f"{cluster.get('breakers_open', 0)} breaker(s) open; "
        f"{cluster.get('retries_spent', 0)} retry(s) spent "
        f"(budget {'auto' if budget is None else budget}), "
        f"{cluster.get('budget_exhausted_runs', 0)} run(s) budget-exhausted"
    ]
    for row in cluster.get("workers") or []:
        breaker = row.get("breaker") or {}
        state = str(breaker.get("state", "?"))
        detail = (
            f"{row.get('chunks', 0)} chunk(s), "
            f"{row.get('failures', 0)} failure(s)"
        )
        if state == "open":
            detail += f", reprobe in {float(breaker.get('retry_in', 0.0)):.1f}s"
        lines.append(
            f"  {str(row.get('address', '?')):<21} {state:<9} "
            f"({row.get('source', 'static')})  {detail}"
        )
    membership = cluster.get("membership")
    if isinstance(membership, dict):
        lines.append(
            f"  membership via {membership.get('registry', '?')}: "
            f"{membership.get('workers_joined', 0)} joined, "
            f"{membership.get('workers_left', 0)} left, "
            f"{membership.get('poll_failures', 0)} poll failure(s)"
        )
    return lines


def _run_fleet(args: argparse.Namespace) -> str:
    import json
    import os

    assert args.fleet_command == "status"
    registry_url = (
        args.registry or os.environ.get("REPRO_TRIAL_REGISTRY") or None
    )
    if registry_url is None and args.url is None:
        raise RankingFactsError(
            "fleet status needs --registry URL (or REPRO_TRIAL_REGISTRY) "
            "and/or --url SERVER"
        )

    raw: dict = {}
    lines: list[str] = []
    if registry_url is not None:
        base = registry_url.rstrip("/")
        workers = _fetch_json(base + "/workers")
        stats = _fetch_json(base + "/stats")
        raw["registry"] = {"workers": workers, "stats": stats}
        lines += _format_fleet_registry(base, workers, stats)
    if args.url is not None:
        stats = _fetch_json(args.url.rstrip("/") + "/engine/stats")
        raw["server"] = stats
        cluster = (stats.get("executor") or {}).get("trial_cluster")
        lines += _format_fleet_cluster(args.url, cluster)
        slo = stats.get("slo")
        if isinstance(slo, list) and slo:
            lines.append("  slo: " + _format_slo_summary(slo))
    if args.raw:
        return json.dumps(raw, indent=2)
    return "\n".join(lines)


_RUNNERS = {
    "datasets": _run_datasets,
    "inspect": _run_inspect,
    "preview": _run_preview,
    "label": _run_label,
    "mitigate": _run_mitigate,
    "batch": _run_batch,
    "serve": _run_serve,
    "stats": _run_stats,
    "store": _run_store,
    "trace": _run_trace,
    "profile": _run_profile,
    "worker": _run_worker,
    "registry": _run_registry,
    "fleet": _run_fleet,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _RUNNERS[args.command](args)
    except RankingFactsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output:
        print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
