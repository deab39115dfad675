"""slateval benchmark: the CLI commands end to end, and each layer in a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs two CLI commands per iteration, grouped by the path the
logging policy's moments take (sizes in inputs.py; why each workload was
chosen in BENCHMARK.json):

    closed-form   uniform logging, so every moment is closed form:
                    sweep-uniform      experiment, m=10 slots=3 alpha=0, pi,wips,sb
                    optimize           optimize on the built-in generator's
                                       criterion-10 shape
    enumerated    non-uniform logging, so moments are enumerated:
                    sweep-softmax      the same experiment at alpha=1, few examples
                    evaluate-explicit  evaluate pi, ips, wips with diagnostics on
                                       a log TSV with explicit policy tables

One run generates the commands' inputs from the seed, then works as a
closed loop with a single client for ``--seconds``: it starts a command in
a fresh interpreter (``child.py``), waits for it to exit, checks its outputs
and starts the next. Commands run with ``--threads 1`` and the default BLAS
settings, which the run record states.

``--trace 0`` prints the end-to-end metrics, each a median over the run's
iterations: wall time, CPU time and examples per second of the iteration's
two commands together, and the larger peak memory of the two. Set-up time
(interpreter start until ``slateval.cli`` is imported) is the median over
every child, including a few that only import. ``--trace 1`` follows each
untraced command with a traced replay (tracing.py) and prints the per-layer
metrics of the iteration's replays together; count metrics must repeat
exactly across iterations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
commands, traced replays and the count check. The lines before it give each
metric with its tail percentile and sample count, each command's median wall
time, and a run record that is also written to ``perfbench/out/records/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs as gen
import oracle
from tracing import COUNT_METRICS, PER_LAYER, layer_metrics, merge_traces, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    # workload: the commands one iteration runs, in order
    "closed-form": ("sweep-uniform", "optimize"),
    "enumerated": ("sweep-softmax", "evaluate-explicit"),
}
SETUP_PROBES = 4  # import-only children per run, on top of one per command
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
CHILD_TIMEOUT_S = 120
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    # name: (unit, better)
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "examples_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Sample:
    """One child process: its set-up time, and the command's cost if it ran one."""

    setup_s: float | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stdout: str = ""
    problems: list = field(default_factory=list)


@dataclass
class Prepared:
    """A command's generated inputs, bound to its arguments and its checks."""

    argv: Callable[[Path], list]  # out dir -> CLI arguments
    examples: int  # logged examples one command consumes
    check: Callable[[str, Path], list]  # (stdout, out dir) -> problems
    check_replay: Callable[[dict, str, Path], list]  # (replay result, stdout, out dir)
    job: dict  # what the traced replay needs
    sizes: dict


def launch(argv: list, stats_path: Path, out_dir: Path | None) -> Sample:
    """Run child.py once and wait for it; argv empty means import only."""
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    stats_path.unlink(missing_ok=True)
    started = time.monotonic()
    sample = Sample()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(stats_path), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sample.problems.append(f"command did not finish in {CHILD_TIMEOUT_S} s")
        return sample
    sample.stdout = proc.stdout
    if proc.returncode != 0 or not stats_path.exists():
        sample.problems.append(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return sample
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    if not Path(stats["module"]).resolve().is_relative_to(SRC.resolve()):
        sample.problems.append(f"imported slateval from {stats['module']}, not {SRC}")
    sample.setup_s = stats["ready"] - started
    sample.wall_s = stats["wall_s"]
    sample.cpu_s = stats["cpu_s"]
    sample.peak_rss_mb = stats["maxrss_kb"] / 1024.0
    if argv and stats["code"] != 0:
        sample.problems.append(f"slateval exited {stats['code']}: {proc.stderr.strip()[-500:]}")
    return sample


# -- commands ----------------------------------------------------------------------


def _close_all(pairs) -> list:
    return [f"replay {label}: {got!r} != command {want!r}"
            for label, got, want in pairs if not oracle.close(got, want)]


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def prepare(command: str, seed: int, work: Path) -> Prepared:
    from slateval import ExperimentConfig, GeneratorConfig

    data = gen.generate(command, seed, work / "inputs")
    files = data.files
    common = ["--threads", "1"]
    if command.startswith("sweep-"):
        shape = gen.SWEEP_UNIFORM if command == "sweep-uniform" else gen.SWEEP_SOFTMAX
        config = ExperimentConfig(
            m=shape["m"], slots=shape["slots"], alpha=float(shape["alpha"]),
            n_grid=tuple(int(x) for x in shape["n_grid"].split(",")), runs=shape["runs"],
            seed=seed, estimators=tuple(shape["estimators"].split(",")),
            title_dims=gen.SWEEP_LETOR["title_dims"],
        )
        ref = oracle.sweep_reference(work / "inputs" / "letor.txt", data.relevance, config)

        def check(stdout, out):
            return oracle.check_sweep(ref, stdout, (out / "runs.csv").read_text(encoding="utf-8"))

        def check_replay(result, stdout, out):
            rows = _read_csv(out / "runs.csv")
            pairs = [(f"{r['estimator']},{r['n']},{r['run']}",
                      result["squared_errors"].get(f"{r['estimator']},{r['n']},{r['run']}",
                                                   float("nan")),
                      float(r["squared_error"])) for r in rows]
            pairs.append(("target_value", result["target_value"], ref.target_value))
            return _close_all(pairs)

        return Prepared(
            argv=lambda out: ["experiment", "--config", str(files["config"]),
                              "--out-dir", str(out), *common],
            examples=sum(config.n_grid) * config.runs,
            check=check, check_replay=check_replay,
            job={"config": str(files["config"])},
            sizes=dict(gen.SWEEP_LETOR, **shape),
        )
    if command == "optimize":
        cfg = gen.OPTIMIZE
        config = ExperimentConfig(m=cfg["m"], slots=cfg["slots"], alpha=float(cfg["alpha"]),
                                  seed=seed, title_dims=cfg["title_dims"])
        generator = GeneratorConfig(num_queries=cfg["queries"],
                                    docs_per_query=cfg["docs_per_query"],
                                    feature_dim=cfg["feature_dim"],
                                    title_dims=cfg["title_dims"], seed=seed)
        logger = oracle.optimize_reference(config, generator, cfg["folds"])

        def check(stdout, out):
            return oracle.check_optimize(logger, (out / "ndcg.csv").read_text(encoding="utf-8"))

        def check_replay(result, stdout, out):
            rows = [r for r in _read_csv(out / "ndcg.csv") if r["fold"] != "avg"]
            columns = ("logger", "sup_rel", "sup_gain", "pi_opt")
            return _close_all((f"fold {fold} {name}", got, float(row[name]))
                              for fold, (row, values) in enumerate(zip(rows, result["rows"]))
                              for name, got in zip(columns, values))

        return Prepared(
            argv=lambda out: ["optimize", "--config", str(files["config"]),
                              "--out-dir", str(out), *common],
            examples=cfg["n"] * cfg["folds"],
            check=check, check_replay=check_replay,
            job={"config": str(files["config"])},
            sizes=dict(cfg),
        )
    cfg = gen.EVALUATE
    space = f"ranking:m={cfg['m']},slots={cfg['slots']}"
    ref = oracle.evaluate_reference(data)

    def check(stdout, out):
        return oracle.check_evaluate(ref, (out / "reports.csv").read_text(encoding="utf-8"))

    def check_replay(result, stdout, out):
        rows = {r["estimator"]: r for r in _read_csv(out / "reports.csv")}
        pairs = [(name, result[name], float(rows[name]["estimate"])) for name in rows]
        pairs += [(key, result[key], float(rows["pi"][key])) for key in ("sigma_sq", "rho")]
        return _close_all(pairs)

    return Prepared(
        argv=lambda out: ["evaluate", "--logs", str(files["logs"]),
                          "--logging-policy", str(files["logging_policy"]),
                          "--target-policy", str(files["target_policy"]),
                          "--space", space, "--estimator", "pi", "--estimator", "ips",
                          "--estimator", "wips", "--diagnostics",
                          "--out-dir", str(out), *common],
        examples=cfg["lines"],
        check=check, check_replay=check_replay,
        job={"logs": str(files["logs"]), "logging_policy": str(files["logging_policy"]),
             "target_policy": str(files["target_policy"]), "space": space,
             "log_lines": cfg["lines"], "policy_lines": files["policy_lines"]},
        sizes=dict(cfg),
    )


# -- statistics and the run record -------------------------------------------------------


def tail(values: list, better: str):
    """Highest percentile with at least ten samples beyond it, as (percent, value)."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    return round(100.0 * (n - 10) / n, 1), ordered[n - 11]


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text(encoding="utf-8").strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads_env": {key: os.environ.get(key, "unset") for key in BLAS_ENV},
        "cli_threads": 1,
    }


def report(name: str, values: list, unit: str, better: str) -> float:
    value = statistics.median(values)
    tail_text = "no tail (fewer than 11 samples)"
    found = tail(values, better)
    if found:
        tail_text = f"p{found[0]:g}={found[1]!r}"
    print(f"{name}: median={value!r} {unit} {tail_text} n={len(values)}")
    return value


# -- the two kinds of run ------------------------------------------------------------------


def keep_going(done: int, least: int, started: float, seconds: float, last_s: float) -> bool:
    """Start another iteration until ``seconds`` would be passed by more than half of one."""
    return done < least or time.monotonic() - started + last_s / 2 < seconds


def run_end_to_end(preps: dict, work: Path, seconds: float) -> tuple[dict, int, int, dict]:
    stats_path = work / "stats.json"
    out_dir = work / "out"
    launch([], stats_path, None)  # warm the bytecode and page caches; not counted
    setups = [s.setup_s for s in (launch([], stats_path, None) for _ in range(SETUP_PROBES))
              if s.setup_s is not None]
    iterations = []  # one {command: Sample} per iteration
    started = time.monotonic()
    last_s = 0.0
    while keep_going(len(iterations), MIN_ITERATIONS, started, seconds, last_s):
        iteration_started = time.monotonic()
        samples = {}
        for command, prep in preps.items():
            sample = launch(prep.argv(out_dir), stats_path, out_dir)
            if not sample.problems:
                sample.problems = prep.check(sample.stdout, out_dir)
            for problem in sample.problems:
                print(f"FAILED {command} in iteration {len(iterations)}: {problem}")
            samples[command] = sample
        iterations.append(samples)
        last_s = time.monotonic() - iteration_started
    setups += [s.setup_s for samples in iterations for s in samples.values()
               if s.setup_s is not None]
    timed = [list(samples.values()) for samples in iterations
             if all(s.setup_s is not None for s in samples.values())]
    examples = sum(prep.examples for prep in preps.values())
    walls = [sum(s.wall_s for s in samples) for samples in timed]
    values = {
        "wall_s": walls,
        "cpu_s": [sum(s.cpu_s for s in samples) for samples in timed],
        "examples_per_s": [examples / wall for wall in walls if wall > 0],
        "setup_s": setups,
        "peak_rss_mb": [max(s.peak_rss_mb for s in samples) for samples in timed],
    }
    attempted = len(iterations) * len(preps)
    failed = sum(1 for samples in iterations for s in samples.values() if s.problems)
    metrics = {}
    for name, (unit, better) in END_TO_END.items():
        if values[name]:
            metrics[name] = {"value": report(name, values[name], unit, better), "unit": unit}
    commands = {}
    for index, command in enumerate(preps):
        command_walls = [samples[index].wall_s for samples in timed]
        if command_walls:
            commands[command] = statistics.median(command_walls)
            print(f"  {command} wall_s: median={commands[command]!r} s n={len(command_walls)}")
    print(f"failure_rate: {failed / attempted!r} ({failed} of {attempted} commands)")
    record = {name: {"median": statistics.median(v), "tail": tail(v, END_TO_END[name][1]),
                     "n": len(v), "samples": v} for name, v in values.items() if v}
    record["failure_rate"] = failed / attempted
    record["command_wall_s"] = commands
    return metrics, attempted, failed, record


def run_traced(preps: dict, work: Path, seconds: float, workload: str,
               seed: int) -> tuple[dict, int, int, dict]:
    stats_path = work / "stats.json"
    out_dir = work / "out"
    launch([], stats_path, None)
    examples = sum(prep.examples for prep in preps.values())
    walls, totals, per_layer, traces = [], [], [], []
    attempted = failed = 0
    started = time.monotonic()
    last_s = 0.0
    while keep_going(len(traces), MIN_TRACED_ITERATIONS, started, seconds, last_s):
        iteration_started = time.monotonic()
        command_walls, replays = [], []
        for command, prep in preps.items():
            sample = launch(prep.argv(out_dir), stats_path, out_dir)
            if not sample.problems:
                sample.problems = prep.check(sample.stdout, out_dir)
                command_walls.append(sample.wall_s)
            attempted += 1
            failed += bool(sample.problems)
            for problem in sample.problems:
                print(f"FAILED {command}: {problem}")
            job = dict(prep.job, command=command,
                       trace_id=f"{workload}-s{seed}-{len(traces)}-{command}",
                       spans=str(work / f"spans-{len(traces)}-{command}.json"))
            job_path = work / "job.json"
            job_path.write_text(json.dumps(job), encoding="utf-8")
            attempted += 1
            try:
                proc = subprocess.run([sys.executable, str(HERE / "tracing.py"), str(job_path)],
                                      cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
                problems = [] if proc.returncode == 0 else [proc.stderr.strip()[-800:]]
            except subprocess.TimeoutExpired:
                problems = [f"traced replay did not finish in {CHILD_TIMEOUT_S} s"]
            if not problems:
                replay = json.loads(Path(job["spans"]).read_text(encoding="utf-8"))
                if not sample.problems:
                    problems = prep.check_replay(replay["result"], sample.stdout, out_dir)
                replays.append(replay)
            failed += bool(problems)
            for problem in problems:
                print(f"FAILED traced replay of {command}: {problem}")
        if len(replays) < len(preps):
            break
        trace = merge_traces(replays)
        metrics, total = layer_metrics(trace, examples)
        traces.append(trace)
        per_layer.append(metrics)
        totals.append(total)
        if len(command_walls) == len(preps):
            walls.append(sum(command_walls))
        last_s = time.monotonic() - iteration_started
    attempted += 1  # the check that every count repeats across the iterations
    varying = {name: sorted({m[name] for m in per_layer}) for name in COUNT_METRICS}
    varying = {name: seen for name, seen in varying.items() if len(seen) > 1}
    failed += bool(varying) or not per_layer
    for name, seen in varying.items():
        print(f"FAILED count {name} differs across iterations of one seed: {seen}")
    metrics = {}
    if per_layer and walls:
        for name, (unit, better) in PER_LAYER.items():
            if name == "trace.overhead_pct":
                wall = statistics.median(walls)
                value = 100.0 * (statistics.median(totals) - wall) / wall
                print(f"{name}: {value!r} {unit} (replays {statistics.median(totals)!r} s "
                      f"against commands {wall!r} s)")
            else:
                value = report(name, [m[name] for m in per_layer], unit, better)
            metrics[name] = {"value": value, "unit": unit}
        last = traces[-1]["spans"]
        own = self_times(last)
        own_cpu = self_times(last, "cpu_start", "cpu_end")
        by_name: dict = {}
        for s in last:
            ms, cpu_ms, calls = by_name.get(s["name"], (0.0, 0.0, 0))
            by_name[s["name"]] = (ms + 1e3 * own[s["id"]], cpu_ms + 1e3 * own_cpu[s["id"]],
                                  calls + 1)
        print("self time by span (last iteration), wall and CPU of all threads:")
        for name, (ms, cpu_ms, calls) in sorted(by_name.items(), key=lambda kv: -kv[1][0]):
            print(f"  {name:36s} {ms:10.2f} ms {cpu_ms:10.2f} ms cpu {calls:7d} calls")
    record = {"per_layer": {name: m["value"] for name, m in metrics.items()},
              "iterations": len(traces), "untraced_iterations": len(walls)}
    return metrics, attempted, failed, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "slateval" / "cli.py").is_file():
        print(f"error: no slateval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        setup_started = time.perf_counter()
        preps = {command: prepare(command, args.seed, work / command)
                 for command in WORKLOADS[args.workload]}
        prepare_s = time.perf_counter() - setup_started
        if args.trace:
            metrics, attempted, failed, record = run_traced(
                preps, work, args.seconds, args.workload, args.seed)
        else:
            metrics, attempted, failed, record = run_end_to_end(preps, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, sizes={c: p.sizes for c, p in preps.items()},
                  examples_per_iteration={c: p.examples for c, p in preps.items()},
                  inputs_and_references_s=prepare_s, attempted=attempted, failed=failed,
                  **environment())
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    (records / f"{name}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
