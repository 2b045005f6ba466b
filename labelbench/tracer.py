"""Spans recorded from outside the program, around its public functions.

:class:`Tracer` wraps each layer's entry point where its caller looks the
name up (a module attribute or a class attribute), records one span per
call in memory, and restores every original on :meth:`uninstall`.  Spans
carry a thread-local parent, so a layer's *self time* is its duration
minus the part its child spans cover.  Timestamps come from
``time.monotonic()``, which is system-wide on Linux, so spans recorded in
a child daemon line up with the benchmark's timed window.

Run as a script, this file is the bootstrap for a traced child daemon::

    python labelbench/tracer.py --out SPANS.json repro.app.cli serve ...

It installs the tracer, runs the named module as ``__main__``, and writes
the spans to ``SPANS.json`` when the daemon exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute path, span name): the layer boundaries wrapped
TARGETS = (
    ("repro.engine.service", "LabelService.build_label", "engine.build_label"),
    ("repro.preprocess.pipeline", "TablePreprocessor.fit_transform", "preprocess.fit_transform"),
    ("repro.label.builder", "rank_table", "ranking.rank_table"),
    ("repro.fairness.fair_star.verifier", "adjust_alpha", "fairness.adjust_alpha"),
    ("repro.fairness.fair_star.rerank", "adjust_alpha", "fairness.adjust_alpha"),
    ("repro.stability.perturbation", "WeightPerturbationStability.assess_at", "stability.perturbation"),
    ("repro.stability.uncertainty", "DataUncertaintyStability.assess_at", "stability.uncertainty"),
    ("repro.label.builder", "per_attribute_stability", "stability.per_attribute"),
    ("repro.stability.kernels", "dispatch_kernel", "stability.kernel"),
    ("repro.stability.kernels", "count_inversions_batch", "ranking.count_inversions_batch"),
    ("repro.app.server", "render_json", "label.render_json"),
    ("repro.engine.service", "render_json", "label.render_json"),
    ("repro.cluster.wire", "encode_trial_work", "cluster.wire.encode"),
    ("repro.cluster.wire", "encode_request", "cluster.wire.encode"),
    ("repro.cluster.wire", "decode_response_spans", "cluster.wire.decode"),
)


def _size_note(name: str, args: tuple, result: object) -> dict:
    """Per-call facts beyond timing: FA*IR keys and wire byte counts."""
    if name == "fairness.adjust_alpha":
        return {"key": repr(tuple(args[:3]))}
    if name == "stability.kernel" and len(args) > 2:
        return {"trials": int(args[2])}
    if name == "cluster.wire.encode" and isinstance(result, (bytes, bytearray)):
        return {"bytes": len(result)}
    if name == "cluster.wire.decode" and args and isinstance(args[0], (bytes, bytearray)):
        return {"bytes": len(args[0])}
    if name == "label.render_json" and isinstance(result, str):
        return {"bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """In-memory spans around the program's layer boundaries."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            span_id = f"{os.getpid()}-{self._next_id}"
        record = {
            "name": name, "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(), "start": time.monotonic(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.monotonic()
            with self._lock:
                self.spans.append(record)

    def _wrap(self, original, name: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                record.update(_size_note(name, args, result))
                return result

        return wrapper

    def install(self) -> "Tracer":
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


def layer_summary(spans: list[dict], start: float, end: float) -> dict[str, dict]:
    """Per span name: ``count``, ``total`` and ``self`` seconds, plus facts.

    Only spans that began inside ``[start, end]`` count.  Self time is a
    span's duration minus the union of its direct children's intervals.
    """
    window = [s for s in spans if start <= s["start"] <= end and "end" in s]
    children: dict[str, list[dict]] = defaultdict(list)
    for entry in window:
        if entry["parent"] is not None:
            children[entry["parent"]].append(entry)
    out: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0, "bytes": 0, "trials": 0, "keys": []}
    )
    for entry in window:
        duration = entry["end"] - entry["start"]
        covered, cursor = 0.0, entry["start"]
        for child in sorted(children.get(entry["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], entry["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = out[entry["name"]]
        row["count"] += 1
        row["total"] += duration
        row["self"] += duration - covered
        row["bytes"] += entry.get("bytes", 0)
        row["trials"] += entry.get("trials", 0)
        if "key" in entry:
            row["keys"].append(entry["key"])
    return dict(out)


def repeat_share(keys: list) -> float:
    """Share of keys already seen earlier in the sequence."""
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def _main() -> None:
    import argparse
    import runpy
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("module")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer().install()
    sys.argv = [options.module, *options.args]
    try:
        runpy.run_module(options.module, run_name="__main__", alter_sys=True)
    finally:
        tracer.dump(options.out)


if __name__ == "__main__":
    _main()
