"""Append one commit's results to the performance history.

Usage, from the repository root, after runs of every workload:

    python3 perfbench/history.py [NOTE]

Reads the run records in ``perfbench/out/records/`` that belong to the
current commit and appends one entry to ``perfbench/history.json``: for each
workload and end-to-end metric the median, first and third quartile of the
per-run medians, and for each per-layer metric the median over traced runs,
with the run environment of the latest record.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ENVIRONMENT_KEYS = ("git_sha", "python", "numpy", "blas", "nproc", "blas_threads_env",
                    "cli_threads", "seconds")


def summarize(records: list[dict]) -> dict:
    end_to_end = defaultdict(lambda: defaultdict(list))
    per_layer = defaultdict(lambda: defaultdict(list))
    sizes, seeds = {}, defaultdict(list)
    for r in records:
        sizes[r["workload"]] = r["sizes"]
        seeds[r["workload"]].append(r["seed"])
        if r["trace"]:
            for name, value in r["per_layer"].items():
                per_layer[r["workload"]][name].append(value)
        else:
            for name, stats in r.items():
                if isinstance(stats, dict) and "median" in stats:
                    end_to_end[r["workload"]][name].append(stats["median"])
    workloads = {}
    for workload in sorted(sizes):
        e2e = {}
        for name, values in end_to_end[workload].items():
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            e2e[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "runs": len(values)}
        workloads[workload] = {
            "sizes": sizes[workload],
            "seeds": sorted(set(seeds[workload])),
            "end_to_end": e2e,
            "per_layer": {name: statistics.median(v) for name, v in per_layer[workload].items()},
        }
    latest = max(records, key=lambda r: r["_mtime"])
    return {
        "date": time.strftime("%Y-%m-%d", time.gmtime(latest["_mtime"])),
        **{key: latest[key] for key in ENVIRONMENT_KEYS},
        "workloads": workloads,
    }


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import git_sha

    sha = git_sha()
    records = []
    for path in sorted((HERE / "out" / "records").glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("git_sha") == sha and record.get("failed") == 0:
            record["_mtime"] = path.stat().st_mtime
            records.append(record)
    if not records:
        print(f"error: no passing run records for commit {sha}", file=sys.stderr)
        return 1
    entry = summarize(records)
    if len(sys.argv) > 1:
        entry["note"] = " ".join(sys.argv[1:])
    history_path = HERE / "history.json"
    history = json.loads(history_path.read_text(encoding="utf-8")) if history_path.exists() else []
    history.append(entry)
    history_path.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    print(f"appended {sha} with {len(records)} runs to {history_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
