"""The label-serving benchmark: one command, five workloads.

One run (what ``BENCHMARK.json`` names as the command)::

    python3 labelbench/run.py --workload label-cold --seed 1 --seconds 10 --trace 0

prints a readable report, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The traced run also writes its spans to ``.labelbench/traces/``.

Other modes, each running the single-run command in child processes::

    python3 labelbench/run.py report [--seed N] [--seconds S] [--workloads a,b]
    python3 labelbench/run.py steady [--runs 10] [--first-seed N] [--seconds S] [--workloads a,b]
    python3 labelbench/run.py record-digests

``report`` runs each workload untraced and traced and prints every metric
with its unit plus the tracing overhead (traced minus untraced).
``steady`` runs two sets of runs of the same code, on the same distinct
seeds, and says per (metric, workload) whether the sets agree within the
bounds: each set's spread (interquartile distance over median) within
the bound, and the two medians apart by no more than the bound, in
either direction.
``record-digests`` rewrites the reference digests of the default seed
for the named workloads (default: all) and keeps the others.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH, ROOT, WORK, require_source, spread

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def single_run(options: argparse.Namespace) -> int:
    require_source()
    import runner

    traced = bool(options.trace)
    outcome = runner.run_workload(options.workload, options.seed, options.seconds, traced)
    e2e = runner.end_to_end(outcome)
    failed = [s for s in outcome.samples if s.error is not None]
    checked = sum(s.checked for s in outcome.samples)
    print(f"labelbench {options.workload} seed={options.seed} seconds={options.seconds} trace={int(traced)}")
    print(f"  ops: {len(outcome.samples)} attempted, {len(failed)} failed, "
          f"{checked} labels byte-checked ({outcome.references_built} references built), "
          f"{outcome.elapsed:.2f} s timed")
    print(f"  error_ratio {len(failed) / max(len(outcome.samples), 1):.4g} ratio")
    for error in sorted({s.error for s in failed})[:5]:
        print(f"  failure: {error}")
    sizes = {
        "latency_p50_ms": len(outcome.samples), "latency_p95_ms": len(outcome.samples),
        "first_widget_p50_ms": sum(s.first_widget is not None for s in outcome.samples),
        "setup_s": len(outcome.setups),
    }
    print("  end-to-end metrics (percentiles are Harrell-Davis estimates):")
    for name, value in e2e.items():
        note = f"  (n={sizes[name]})" if name in sizes else ""
        print(f"  {name:<22} {_fmt(value):>10} {UNITS[name]}{note}")
    if len(outcome.samples) < 200:
        print(f"  note: latency_p95_ms rests on {len(outcome.samples)} ops (< 200), "
              "so fewer than 10 samples lie beyond it")
    print("  workload properties (share of base):")
    for name, (share, base, unit) in runner.properties(outcome).items():
        print(f"    {name:<36} {share:.3f} of {base} {unit}")
    _print_classes(outcome)
    metrics = e2e
    if traced:
        metrics = runner.per_layer(outcome, e2e)
        _print_layers(outcome, metrics)
        _write_spans(options, outcome)
    names = [m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]]
    result = {
        "correct": not failed,
        "attempted": len(outcome.samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


def _print_classes(outcome) -> None:
    classes: dict[str, list] = {}
    for sample in outcome.samples:
        classes.setdefault(sample.op.cls, []).append(sample)
    print("  per op class (medians, ms): n, latency, first widget, and for builds"
          " in this process: build, fairness widget, stability widget")

    def median_ms(values) -> str:
        values = [v for v in values if v is not None]
        return f"{statistics.median(values) * 1000:9.2f}" if values else "        -"

    for cls, samples in sorted(classes.items()):
        print(f"    {cls:<28} {len(samples):5d} {median_ms(s.latency for s in samples)}"
              f" {median_ms(s.first_widget for s in samples)} {median_ms(s.build for s in samples)}"
              f" {median_ms(s.widgets.get('fairness') for s in samples)}"
              f" {median_ms(s.widgets.get('stability') for s in samples)}")


def _print_layers(outcome, metrics: dict[str, float]) -> None:
    print("  spans in the timed window: name, calls, total ms, self ms")
    for name, row in sorted(outcome.layers.items(), key=lambda item: -item[1]["total"]):
        print(f"    {name:<34} {row['count']:6d} {row['total'] * 1000:10.1f} {row['self'] * 1000:10.1f}")
    print("  per-layer metrics (times per built label unless named mean):")
    for entry in SPEC["per_layer"]:
        print(f"    {entry['name']:<40} {_fmt(metrics[entry['name']]):>10} {entry['unit']}")


def _write_spans(options, outcome) -> None:
    out = WORK / "traces" / f"{options.workload}-seed{options.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"window": outcome.window, "spans": outcome.spans}))
    print(f"  spans written to {out.relative_to(ROOT)}")


# -- modes that run the single-run command as children ----------------------------------


def _child_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def report(options: argparse.Namespace) -> int:
    rows = []
    for workload in options.workloads:
        plain, text = _child_run(workload, options.seed, options.seconds, 0)
        traced, traced_text = _child_run(workload, options.seed, options.seconds, 1)
        print("\n".join(text + traced_text))
        rows.append((workload, plain, traced))
    print("\nend-to-end metrics (untraced runs)")
    names = [m["name"] for m in SPEC["end_to_end"]]
    print(f"  {'workload':<14} " + " ".join(f"{n:>20}" for n in names) + f" {'error_ratio':>12}")
    for workload, plain, _ in rows:
        values = " ".join(
            f"{_fmt(plain['metrics'][n]['value']) + ' ' + UNITS[n]:>20}" for n in names
        )
        error = plain["failed"] / plain["attempted"]
        print(f"  {workload:<14} {values} {error:>12.4g}")
    print("\ntracing overhead (traced minus untraced)")
    for workload, plain, traced in rows:
        p50 = traced["metrics"]["trace.latency_p50_ms"]["value"] - plain["metrics"]["latency_p50_ms"]["value"]
        rate = traced["metrics"]["trace.throughput_ops_s"]["value"] - plain["metrics"]["throughput_ops_s"]["value"]
        print(f"  {workload:<14} latency_p50 {p50:+.3f} ms, throughput {rate:+.3f} ops/s")
    return 0


def steady(options: argparse.Namespace) -> int:
    """Two sets of runs of the same code; per (metric, workload): agree or unresolved."""
    WORK.mkdir(exist_ok=True)
    log = WORK / f"steady-{int(time.time())}.json"
    results: dict = {}
    verdicts = []
    for workload in options.workloads:
        sets: list[list[dict]] = [[], []]
        started = time.monotonic()
        for index in range(options.runs):
            for values in sets:  # alternate the sets, so host drift hits both
                values.append(_child_run(workload, options.first_seed + index, options.seconds, 0)[0])
        results[workload] = sets
        log.write_text(json.dumps(results))
        print(f"{workload}: 2 x {options.runs} runs in {time.monotonic() - started:.0f} s, "
              f"{sum(r['failed'] for values in sets for r in values)} failed ops")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            series = [[r["metrics"][name]["value"] for r in values] for values in sets]
            first, second = (statistics.median(values) for values in series)
            apart = abs(second - first) / first
            spreads = [spread(values) for values in series]
            ok = apart <= bound and max(spreads) <= bound
            verdicts.append(ok)
            print(f"  {name:<20} medians {_fmt(first):>8} {_fmt(second):>8} apart {apart:.3f} "
                  f"spreads {spreads[0]:.3f} {spreads[1]:.3f} bound {bound:<4} "
                  f"{'agree' if ok else 'unresolved'}"
                  f"{'' if max(spreads) < bound / 3 else ' (spread above bound/3)'}")
            print(f"    values: {' '.join(_fmt(v) for values in series for v in values)}")
    print(f"results in {log.relative_to(ROOT)}")
    return 0 if all(verdicts) else 1


def record_digests(options: argparse.Namespace) -> int:
    """Reference digests for the default seed's first rounds of every workload."""
    require_source()
    import random

    import runner
    import workloads as wl

    rounds = {"label-cold": 40, "monte-carlo": 12, "remote-trials": 12, "serve-hot": 1, "serve-churn": 40}
    digests = json.loads(runner.DIGESTS.read_text()) if runner.DIGESTS.is_file() else {}
    seed = runner.DEFAULT_SEED
    for workload in options.workloads:
        if workload in runner.INPROCESS:
            lists = [runner.INPROCESS[workload].rounds(random.Random(f"{seed}:{workload}"))]
        elif workload == "serve-hot":
            lists = []
            for index, table in enumerate(wl.HOT_TABLES):
                rng = random.Random(f"{seed}:{workload}:{index}")
                lists.append(wl.serve_hot(rng, table, wl.new_design(rng, table)))
        else:
            lists = [
                wl.serve_churn(random.Random(f"{seed}:{workload}:{index}"), table, streams=index == 0)
                for index, table in enumerate(wl.CHURN_TABLES)
            ]
        references = runner.References(workload, seed + 1)  # never the recorded file
        try:
            for ops in lists:
                for op in wl.first_rounds(ops, rounds[workload]):
                    if op.design is not None:
                        references.expected(op)
        finally:
            references.close()
        digests[workload] = dict(sorted(references.recorded.items()))
        print(f"{workload}: {len(digests[workload])} digests", flush=True)
    digests = {workload: digests[workload] for workload in WORKLOADS if workload in digests}
    runner.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


def main(argv: list[str]) -> int:
    modes = {"report": report, "steady": steady, "record-digests": record_digests}
    parser = argparse.ArgumentParser(description="label-serving benchmark")
    if argv and argv[0] in modes:
        mode = argv.pop(0)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--first-seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--workloads", type=lambda s: s.split(","), default=WORKLOADS)
        return modes[mode](parser.parse_args(argv))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return single_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
