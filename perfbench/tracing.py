"""Traced replay of one benchmark command, and the per-layer metrics it gives.

Usage: python3 tracing.py JOB_JSON

The replay makes the same sequence of public library calls as the CLI
command and wraps each in a span. It changes no program code: spans and
counters are installed from this file at run time.

- Spans record name, start, end, parent span and one trace id per command
  run, plus the process CPU clock at start and end; they stay in memory and
  are written to the job's ``spans`` file when the run ends. A span's self
  time is its duration minus its children's.
- Besides the command's own calls, the moment entry points that
  ``PinvSource`` reaches on a cache miss (``Policy.moment_arrays``,
  ``moment_matrix``, ``pinv_numeric``, ``pinv_uniform``) run inside spans,
  so estimator self time excludes moment construction.
- Counters wrap ``SlateSpace.validate`` and every ``slate_prob``.
- Probe spans run after the replay, marked as extra work and left out of
  the replay total: ``slate_prob`` per call on the logged slates, and the
  moment provenance of every context the replay touched.

The parent (run.py) merges the traces of one iteration's commands with
``merge_traces`` and turns them into metrics with ``layer_metrics``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SLATE_PROB_PROBE_CALLS = 2000


class Tracer:
    """In-memory span recorder for one command run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False, **attrs):
        parent = self.spans[self._stack[-1]] if self._stack else None
        record = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "probe": probe or bool(parent and parent["probe"]),
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["cpu_start"] = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu_end"] = time.process_time()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Replace ``owner.attr`` with a version that runs inside a span."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, args, result)
                return result

        setattr(owner, attr, traced)
        return original


def install_counters(counts: Counter):
    """Count SlateSpace.validate and slate_prob calls, nested calls included."""
    from slateval.policies import Policy
    from slateval.spaces import SlateSpace

    def counted(owner, attr, key):
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    counted(SlateSpace, "validate", "validate")
    pending = [Policy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "slate_prob" in cls.__dict__ and cls is not Policy:
            counted(cls, "slate_prob", "slate_prob")


def install_moment_spans(tracer: Tracer) -> dict:
    """Span the moment entry points; returns the unwrapped originals."""
    from slateval import moments
    from slateval.policies import Policy

    seen = set()

    def first_fill(record, args, arrays):
        # cache hits return the same arrays; count each support once
        key = (id(args[0]), args[1])
        if key not in seen:
            seen.add(key)
            record["slates"] = len(arrays.probs)

    return {
        "moment_arrays": tracer.wrap(Policy, "moment_arrays", "policies.moment_arrays", first_fill),
        "moment_matrix": tracer.wrap(moments, "moment_matrix", "moments.moment_matrix"),
        "pinv_numeric": tracer.wrap(moments, "pinv_numeric", "moments.pinv"),
        "pinv_uniform": tracer.wrap(moments, "pinv_uniform", "moments.pinv"),
    }


# -- replays: the CLI commands' public calls, in order ---------------------------


def _experiment_config(values: dict):
    from slateval import ExperimentConfig

    return ExperimentConfig(
        m=int(values["m"]),
        slots=int(values["slots"]),
        alpha=float(values.get("alpha", 0.0)),
        n_grid=tuple(int(x) for x in values.get("n_grid", "1000").split(",")),
        runs=int(values.get("runs", 20)),
        seed=int(values.get("seed", 0)),
        estimators=tuple(values.get("estimators", "pi,wips").split(",")),
        title_dims=int(values.get("title_dims", 12)),
    )


def replay_experiment(tr: Tracer, job: dict) -> dict:
    from slateval import build_instance, draw_logs, estimate_pi, estimate_sb, estimate_wips
    from slateval import PinvSource, UndefinedEstimateError, estimate_ips, parse_letor
    from slateval.cli import parse_config_file

    estimators = {
        "pi": ("estimators.pi", lambda logs, inst, src: estimate_pi(
            logs, inst.logging, inst.target, pinv_source=src)),
        "ips": ("estimators.ips", lambda logs, inst, src: estimate_ips(
            logs, inst.logging, inst.target)),
        "wips": ("estimators.wips", lambda logs, inst, src: estimate_wips(
            logs, inst.logging, inst.target)),
        "sb": ("simulation.estimate_sb", lambda logs, inst, src: estimate_sb(
            logs, inst.logging, inst.target)),
    }
    with tr.span("cli.parse_config"):
        values = parse_config_file(job["config"])
        config = _experiment_config(values)
    with tr.span("letor.parse_letor"):
        dataset = parse_letor(values["letor"])
    with tr.span("simulation.build_instance"):
        instance = build_instance(dataset, config)
    with tr.span("simulation.policy_value"):
        target_value = instance.policy_value(instance.target)
    source = PinvSource()
    errors, logged, touched = {}, [], set()
    for n in config.n_grid:
        for run in range(config.runs):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, run, n]))
            with tr.span("simulation.draw_logs", examples=n):
                logs = draw_logs(instance, n, rng)
            logged.extend(logs[: SLATE_PROB_PROBE_CALLS - len(logged)])
            touched.update(ex.context for ex in logs)
            for name in config.estimators:
                span_name, call = estimators[name]
                with tr.span(span_name, examples=n):
                    try:
                        estimate = call(logs, instance, source).estimate
                    except UndefinedEstimateError:
                        estimate = 0.0
                errors[f"{name},{n},{run}"] = (estimate - target_value) ** 2
    return {
        "result": {"target_value": target_value, "squared_errors": errors},
        "logging": instance.logging,
        "logged": logged,
        "contexts": sorted(touched),
    }


def replay_optimize(tr: Tracer, job: dict) -> dict:
    from slateval import GeneratorConfig, PinvSource, build_instance, decompose, draw_logs
    from slateval import evaluate_learned, fit_scorer, fit_sup_scorer, generate_synthetic
    from slateval.cli import parse_config_file

    with tr.span("cli.parse_config"):
        values = parse_config_file(job["config"])
        config = _experiment_config(values)
        n_logs, folds = int(values["n"]), int(values["folds"])
        generator = GeneratorConfig(
            num_queries=int(values["queries"]),
            docs_per_query=int(values["docs_per_query"]),
            feature_dim=int(values["feature_dim"]),
            title_dims=int(values["title_dims"]),
            seed=int(values["generator_seed"]),
        )
    with tr.span("letor.generate_synthetic"):
        dataset = generate_synthetic(generator)
    with tr.span("simulation.build_instance"):
        instance = build_instance(dataset, config)
    source = PinvSource()
    rows, touched = [], set()
    for fold in range(folds):
        test = [c for i, c in enumerate(instance.contexts) if i % folds == fold]
        train = [c for i, c in enumerate(instance.contexts) if i % folds != fold]
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, fold]))
        with tr.span("simulation.draw_logs", examples=n_logs):
            logs = draw_logs(instance, n_logs, rng, contexts=train)
        touched.update(ex.context for ex in logs)
        with tr.span("optimization.decompose", examples=n_logs) as record:
            targets = decompose(logs, instance.logging, features=instance.features,
                                pinv_source=source)
            record["targets_bytes"] = sum(phi.nbytes for phi in targets.phi_hats)
        with tr.span("optimization.fit_scorer", examples=n_logs):
            scorer = fit_scorer(targets)
        with tr.span("simulation.policy_value"):
            logger = instance.policy_value(instance.logging, test)
        sup = []
        for target in ("relevance", "gain"):
            with tr.span("optimization.fit_sup_scorer"):
                sup_scorer = fit_sup_scorer(instance, train, target=target)
            with tr.span("optimization.evaluate_learned", contexts=len(test)):
                sup.append(evaluate_learned(sup_scorer, instance, test))
        with tr.span("optimization.evaluate_learned", contexts=len(test)):
            learned = evaluate_learned(scorer, instance, test)
        rows.append([logger, *sup, learned])
    return {
        "result": {"rows": rows},
        "logging": instance.logging,
        "logged": logs[:SLATE_PROB_PROBE_CALLS],
        "contexts": sorted(touched),
    }


def replay_evaluate(tr: Tracer, job: dict) -> dict:
    from slateval import PinvSource, estimate_ips, estimate_pi, estimate_wips
    from slateval import load_explicit_policy, read_logged_dataset
    from slateval.cli import parse_space_spec

    space = parse_space_spec(job["space"])
    with tr.span("logs.read_logged_dataset", lines=job["log_lines"],
                 bytes=os.path.getsize(job["logs"])):
        data = read_logged_dataset(job["logs"])
    with tr.span("policies.load_explicit_policy", lines=job["policy_lines"]):
        logging = load_explicit_policy(job["logging_policy"], space)
        target = load_explicit_policy(job["target_policy"], space)
    source = PinvSource()
    n = len(data)
    with tr.span("estimators.pi", examples=n):
        pi = estimate_pi(data, logging, target, pinv_source=source, diagnostics=True, delta=0.05)
    with tr.span("estimators.ips", examples=n):
        ips = estimate_ips(data, logging, target)
    with tr.span("estimators.wips", examples=n):
        wips = estimate_wips(data, logging, target)
    return {
        "result": {"pi": pi.estimate, "ips": ips.estimate, "wips": wips.estimate,
                   "sigma_sq": pi.sigma_sq, "rho": pi.rho},
        "logging": logging,
        "logged": data[:SLATE_PROB_PROBE_CALLS],
        "contexts": sorted({ex.context for ex in data}),
    }


REPLAYS = {
    "sweep-uniform": replay_experiment,
    "sweep-softmax": replay_experiment,
    "optimize": replay_optimize,
    "evaluate-explicit": replay_evaluate,
}


def run_probes(tr: Tracer, replayed: dict, originals: dict, slate_prob_calls: int) -> dict:
    """Extra work after the replay: slate_prob per call and moment provenance."""
    from slateval.moments import Provenance

    logging = replayed["logging"]
    if slate_prob_calls:
        logged = replayed["logged"]
        with tr.span("probe.slate_prob", probe=True, calls=len(logged)):
            for ex in logged:
                logging.slate_prob(ex.context, ex.slate)
    provenance = Counter()
    with tr.span("probe.moment_provenance", probe=True):
        for context in replayed["contexts"]:
            provenance[originals["moment_matrix"](logging, context).provenance] += 1
    return {
        "contexts_closed_form": provenance[Provenance.CLOSED_FORM_UNIFORM_CARTESIAN]
        + provenance[Provenance.CLOSED_FORM_UNIFORM_RANKING],
        "contexts_enumerated": provenance[Provenance.ENUMERATED],
        "contexts_monte_carlo": provenance[Provenance.MONTE_CARLO],
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = Tracer(job["trace_id"])
    counts: Counter = Counter()
    install_counters(counts)
    originals = install_moment_spans(tracer)
    with tracer.span("replay", command=job["command"]):
        replayed = REPLAYS[job["command"]](tracer, job)
    replay_counts = {"validate": counts["validate"], "slate_prob": counts["slate_prob"]}
    replay_counts.update(run_probes(tracer, replayed, originals, counts["slate_prob"]))
    Path(job["spans"]).write_text(json.dumps({
        "spans": tracer.spans,
        "counts": replay_counts,
        "result": replayed["result"],
    }), encoding="utf-8")
    return 0


# -- per-layer metrics from the spans (used by run.py) ------------------------------


def self_times(spans: list[dict], start: str = "start", end: str = "end") -> dict[int, float]:
    """Duration of each span minus the durations of its direct children.

    With ``cpu_start``/``cpu_end`` it gives self CPU time (all threads).
    """
    own = {s["id"]: s[end] - s[start] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s[end] - s[start]
    return own


PER_LAYER = {
    # name: (unit, better)
    "spaces.validate_calls_per_example": ("count", "lower"),
    "policies.slate_prob_us_per_call": ("us", "lower"),
    "policies.slate_prob_calls_per_example": ("count", "lower"),
    "policies.support_us_per_slate": ("us", "lower"),
    "policies.slates_enumerated": ("count", "lower"),
    "policies.load_us_per_line": ("us", "lower"),
    "moments.moment_matrix_us_per_context": ("us", "lower"),
    "moments.pinv_us_per_context": ("us", "lower"),
    "moments.contexts_closed_form": ("count", "higher"),
    "moments.contexts_enumerated": ("count", "lower"),
    "moments.contexts_monte_carlo": ("count", "lower"),
    "estimators.pi_us_per_example": ("us", "lower"),
    "estimators.ips_us_per_example": ("us", "lower"),
    "estimators.wips_us_per_example": ("us", "lower"),
    "logs.read_us_per_line": ("us", "lower"),
    "logs.bytes_read": ("bytes", "lower"),
    "letor.parse_ms": ("ms", "lower"),
    "letor.generate_ms": ("ms", "lower"),
    "simulation.build_instance_ms": ("ms", "lower"),
    "simulation.policy_value_ms": ("ms", "lower"),
    "simulation.draw_logs_us_per_example": ("us", "lower"),
    "simulation.sb_us_per_example": ("us", "lower"),
    "optimization.decompose_us_per_example": ("us", "lower"),
    "optimization.fit_scorer_us_per_example": ("us", "lower"),
    "optimization.greedy_us_per_context": ("us", "lower"),
    "optimization.sup_fit_ms": ("ms", "lower"),
    "optimization.targets_bytes": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

COUNT_METRICS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes"))


def merge_traces(traces: list[dict]) -> dict:
    """One trace of an iteration's replays: span ids renumbered, counts summed."""
    spans: list[dict] = []
    counts: Counter = Counter()
    for trace in traces:
        offset = len(spans)
        for s in trace["spans"]:
            parent = None if s["parent"] is None else s["parent"] + offset
            spans.append(dict(s, id=s["id"] + offset, parent=parent))
        counts.update(trace["counts"])
    return {"spans": spans, "counts": dict(counts)}


def layer_metrics(trace: dict, examples: int) -> tuple[dict, float]:
    """Per-layer metrics of one traced iteration, and its replays' total seconds.

    ``*_us_per_<unit>`` divides a layer's summed self time by the units on
    its spans (logged examples, file lines, contexts, slates or calls);
    ``*_ms`` is the layer's summed self time in one iteration. Counts are
    per iteration, or per logged example where the name says so. Byte
    counts are computed from file and array sizes, not measured. A layer
    the iteration's commands never call reads 0.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    own = self_times(spans)
    time_s = defaultdict(float)
    units = defaultdict(float)
    for s in spans:
        if s["probe"] and not s["name"].startswith("probe."):
            continue  # work nested in a probe is not the command's
        time_s[s["name"]] += own[s["id"]]
        for key in ("examples", "lines", "contexts", "calls", "slates"):
            if key in s:
                units[s["name"], key] += s[key]
    calls = Counter(s["name"] for s in spans if not s["probe"])

    def per(name, key, scale=1e6):
        return scale * time_s[name] / units[name, key] if units[name, key] else 0.0

    def total_ms(name):
        return 1e3 * time_s[name]

    def per_call(name):
        return 1e6 * time_s[name] / calls[name] if calls[name] else 0.0

    metrics = {
        "spaces.validate_calls_per_example": counts.get("validate", 0) / examples,
        "policies.slate_prob_us_per_call": per("probe.slate_prob", "calls"),
        "policies.slate_prob_calls_per_example": counts.get("slate_prob", 0) / examples,
        "policies.support_us_per_slate": per("policies.moment_arrays", "slates"),
        "policies.slates_enumerated": units["policies.moment_arrays", "slates"],
        "policies.load_us_per_line": per("policies.load_explicit_policy", "lines"),
        "moments.moment_matrix_us_per_context": per_call("moments.moment_matrix"),
        "moments.pinv_us_per_context": per_call("moments.pinv"),
        "moments.contexts_closed_form": counts.get("contexts_closed_form", 0),
        "moments.contexts_enumerated": counts.get("contexts_enumerated", 0),
        "moments.contexts_monte_carlo": counts.get("contexts_monte_carlo", 0),
        "estimators.pi_us_per_example": per("estimators.pi", "examples"),
        "estimators.ips_us_per_example": per("estimators.ips", "examples"),
        "estimators.wips_us_per_example": per("estimators.wips", "examples"),
        "logs.read_us_per_line": per("logs.read_logged_dataset", "lines"),
        "logs.bytes_read": sum(s.get("bytes", 0) for s in spans),
        "letor.parse_ms": total_ms("letor.parse_letor"),
        "letor.generate_ms": total_ms("letor.generate_synthetic"),
        "simulation.build_instance_ms": total_ms("simulation.build_instance"),
        "simulation.policy_value_ms": total_ms("simulation.policy_value"),
        "simulation.draw_logs_us_per_example": per("simulation.draw_logs", "examples"),
        "simulation.sb_us_per_example": per("simulation.estimate_sb", "examples"),
        "optimization.decompose_us_per_example": per("optimization.decompose", "examples"),
        "optimization.fit_scorer_us_per_example": per("optimization.fit_scorer", "examples"),
        "optimization.greedy_us_per_context": per("optimization.evaluate_learned", "contexts"),
        "optimization.sup_fit_ms": total_ms("optimization.fit_sup_scorer"),
        "optimization.targets_bytes": max(
            (s["targets_bytes"] for s in spans if "targets_bytes" in s), default=0),
    }
    return metrics, sum(s["end"] - s["start"] for s in spans if s["name"] == "replay")


if __name__ == "__main__":
    sys.exit(main())
