"""The reference process: a separate process that answers label digests.

Reads one ``[table, design]`` JSON array per line on stdin and writes the
SHA-256 of the label's ``render_json`` bytes per line on stdout.  Every
label is an uncached build on the default vectorized backend, in a
process that shares nothing with the system under test, so its memory
and CPU never count against the run.
"""

from __future__ import annotations

import json
import sys

from common import digest, require_source


def main() -> None:
    require_source()
    from repro.engine.jobs import LabelDesign
    from repro.engine.service import LabelService
    from repro.label.render_json import render_json
    from workloads import load_table

    service = LabelService(use_cache=False, trial_backend="vectorized")
    tables = {}
    print("ready", flush=True)
    for line in sys.stdin:
        table, design = json.loads(line)
        if table not in tables:
            tables[table] = load_table(table)
        outcome = service.build_label(tables[table], LabelDesign.from_mapping(design), table)
        print(digest(render_json(outcome.facts.label)), flush=True)
    service.shutdown()


if __name__ == "__main__":
    main()
