"""The set-up process: times set-ups of an in-process workload's system.

    python labelbench/setups.py WORKLOAD

Each line on stdin asks for one set-up: the workload's system (tables,
service, worker daemons, warm-up labels) is built, timed and closed, and
its seconds go out as one line on stdout.  Running here, between the
rounds of a run, these set-ups sample the host across the run while
sharing no memory, CPU or metric families with the system under test.
"""

from __future__ import annotations

import sys

from common import require_source


def main() -> None:
    require_source()
    import runner

    spec = runner.INPROCESS[sys.argv[1]]
    print("ready", flush=True)
    for _ in sys.stdin:
        system, took = runner.timed_setup(lambda: runner.InProcessSystem(spec, traced=False))
        system.close()
        print(repr(took), flush=True)


if __name__ == "__main__":
    main()
