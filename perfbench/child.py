"""Timed child: one ``slateval.cli.main([...])`` call in a fresh interpreter.

Usage: python3 child.py STATS_JSON CLI_ARG...

Writes one JSON object to STATS_JSON: the monotonic clock reading when
``slateval.cli`` was imported and ready, the wall and CPU time of the
``main`` call, its exit code and the process's peak resident memory. The
parent reads the clock reading against its own launch time to get the
set-up time, so this file imports nothing before ``slateval.cli``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import slateval.cli  # noqa: E402

ready = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    code = None
    wall = cpu = 0.0
    if argv:
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        code = slateval.cli.main(argv)
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
    record = {
        "ready": ready,
        "module": slateval.cli.__file__,
        "code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
