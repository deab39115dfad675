"""Command-line drivers for reproducible offline experiments.

Commands
--------
evaluate    score a target policy on a logged dataset
experiment  RMSE sweep of the estimators on a (semi-)synthetic instance
diagnose    overlap diagnostics between two policies
optimize    off-policy slate optimization with supervised baselines
generate    write a synthetic ranking dataset

Configuration is a flat key=value text file plus flag overrides; every
run writes one manifest next to its outputs. All randomness flows from
the --seed flag (or the config's seed), so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import kappa_uniform_rho_limit, overlap_profile
from .errors import (
    AbsoluteContinuityError,
    ConfigurationError,
    FieldError,
    ParseError,
    SlateError,
    UndefinedEstimateError,
)
from .estimators import EstimatorReport, _ScoredBatch
from .letor import GeneratorConfig, generate_synthetic, parse_letor, write_letor
from .logs import read_logged_dataset
from .moments import PinvSource
from .optimization import decompose, evaluate_learned, fit_scorer, fit_sup_scorer
from .policies import UniformPolicy, load_explicit_policy
from .simulation import (
    ExperimentConfig,
    build_instance,
    draw_logs,
    run_rmse_sweep,
    sweep_aggregate_csv,
    sweep_rows_csv,
)
from .spaces import SlateSpace
from .util import blas_threads, fmt

USAGE_ERROR = 2
RUNTIME_ERROR = 1


# -- configuration plumbing ---------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments are skipped."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class ConfigReader:
    """Typed access to a flat config dict with field-path error messages."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)

    def _convert(self, key: str, converter, default):
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigurationError(f"config field '{key}': missing")
            return default
        try:
            return converter(self.values[key])
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"config field '{key}': {exc}") from exc

    def get_int(self, key, default=None):
        return self._convert(key, int, default)

    def get_float(self, key, default=None):
        return self._convert(key, float, default)

    def get_str(self, key, default=None):
        return self._convert(key, str, default)

    def get_int_list(self, key, default=None):
        return self._convert(key, lambda s: tuple(int(x) for x in s.split(",") if x), default)

    def get_str_list(self, key, default=None):
        return self._convert(
            key, lambda s: tuple(x.strip() for x in s.split(",") if x.strip()), default
        )


class _Required:
    pass


_REQUIRED = _Required()


def parse_space_spec(text: str) -> SlateSpace:
    """Space specs: 'ranking:m=4,slots=2' or 'cartesian:counts=3,3'."""
    kind, sep, body = text.partition(":")
    if not sep:
        raise ConfigurationError(f"bad space spec {text!r}")
    try:
        if kind == "ranking":
            fields = dict(item.split("=", 1) for item in body.split(","))
            if set(fields) != {"m", "slots"}:
                raise ValueError("ranking spec needs m= and slots=")
            return SlateSpace.ranking(int(fields["m"]), int(fields["slots"]))
        if kind == "cartesian":
            if not body.startswith("counts="):
                raise ValueError("cartesian spec needs counts=")
            counts = tuple(int(x) for x in body[len("counts=") :].split(",") if x)
            return SlateSpace.cartesian(counts)
    except ValueError as exc:
        raise ConfigurationError(f"bad space spec {text!r}: {exc}") from exc
    raise ConfigurationError(f"unknown space kind {kind!r} in {text!r}")


_STARTED = ""


def write_manifest(out_dir: Path, command: str, config: dict, seed, outputs) -> None:
    lines = [
        f"command={command}",
        f"version={__version__}",
        f"seed={seed}",
        f"started={_STARTED}",
        f"finished={time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
    ]
    for key in sorted(config):
        if key == "func":
            continue
        lines.append(f"config.{key}={config[key]}")
    lines.append("outputs=" + ",".join(str(p) for p in outputs))
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _start_clock():
    global _STARTED
    _STARTED = time.strftime("%Y-%m-%dT%H:%M:%S%z")


# -- commands ------------------------------------------------------------------


def _load_policy(spec: str, space):
    if spec == "uniform":
        return UniformPolicy(space)
    return load_explicit_policy(spec, space)


def cmd_evaluate(args) -> int:
    space = parse_space_spec(args.space)
    data = read_logged_dataset(args.logs, space)
    logging_policy = _load_policy(args.logging_policy, space)
    target_policy = _load_policy(args.target_policy, space)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scored = _ScoredBatch(data, logging_policy, target_policy, args.estimator, PinvSource())
    reports = [
        scored.pi(args.diagnostics, args.delta) if name == "pi" else getattr(scored, name)()
        for name in args.estimator
    ]
    csv_path = out_dir / "reports.csv"
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(EstimatorReport.CSV_HEADER + "\n")
        for report in reports:
            handle.write(report.to_csv_row() + "\n")
            print(report.to_kv_line())
    write_manifest(out_dir, "evaluate", vars(args), args.seed, [csv_path])
    return 0


# GeneratorConfig fields as the user names them, where the name differs
GENERATOR_KEYS = {"num_queries": "queries"}
GENERATOR_FLAGS = {
    "num_queries": "--queries",
    "docs_per_query": "--docs-per-query",
    "feature_dim": "--feature-dim",
}


def _generator_config(reader: ConfigReader) -> GeneratorConfig:
    try:
        return GeneratorConfig(
            num_queries=reader.get_int("queries", 120),
            docs_per_query=reader.get_int("docs_per_query", 15),
            feature_dim=reader.get_int("feature_dim", 24),
            title_dims=reader.get_int("title_dims", 12),
            seed=reader.get_int("generator_seed", 0),
            relevant_fraction=reader.get_float("relevant_fraction", 0.35),
            highly_relevant_fraction=reader.get_float("highly_relevant_fraction", 0.15),
            feature_noise=reader.get_float("feature_noise", 0.6),
        )
    except FieldError as exc:
        key = GENERATOR_KEYS.get(exc.field, exc.field)
        raise ConfigurationError(f"config field '{key}': {exc.problem}") from None


def _load_dataset(reader: ConfigReader):
    letor_path = reader.get_str("letor", None)
    if letor_path:
        return parse_letor(letor_path)
    return generate_synthetic(_generator_config(reader))


def _experiment_config(reader: ConfigReader, seed_override=None) -> ExperimentConfig:
    seed = seed_override if seed_override is not None else reader.get_int("seed", 0)
    return ExperimentConfig(
        m=reader.get_int("m", _REQUIRED),
        slots=reader.get_int("slots", _REQUIRED),
        alpha=reader.get_float("alpha", 0.0),
        n_grid=reader.get_int_list("n_grid", (1000,)),
        runs=reader.get_int("runs", 20),
        seed=seed,
        estimators=reader.get_str_list("estimators", ("pi", "wips")),
        title_dims=reader.get_int("title_dims", 12),
        noise=reader.get_str("noise", "none"),
    )


def _apply_overrides(values: dict, overrides) -> dict:
    for item in overrides or ():
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def cmd_experiment(args) -> int:
    reader = ConfigReader(_apply_overrides(parse_config_file(args.config), args.set))
    config = _experiment_config(reader, args.seed)
    dataset = _load_dataset(reader)
    instance = build_instance(dataset, config)
    result = run_rmse_sweep(instance, config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs_path = out_dir / "runs.csv"
    agg_path = out_dir / "aggregate.csv"
    runs_path.write_text(sweep_rows_csv(result), encoding="utf-8")
    agg_path.write_text(sweep_aggregate_csv(result), encoding="utf-8")

    plot_data = out_dir / "plot.dat"
    plot_script = out_dir / "plot.gp"
    names = list(config.estimators)
    lines = ["# n " + " ".join(names)]
    for n in config.n_grid:
        cells = [str(n)] + [fmt(result.rmse(name, n)) for name in names]
        lines.append(" ".join(cells))
    plot_data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    curves = ", ".join(
        f"'plot.dat' using 1:{i + 2} with linespoints title '{name}'"
        for i, name in enumerate(names)
    )
    plot_script.write_text(
        "set logscale xy\nset xlabel 'n'\nset ylabel 'RMSE'\n"
        f"set terminal svg\nset output 'rmse.svg'\nplot {curves}\n",
        encoding="utf-8",
    )
    print(f"target_value={fmt(result.target_value)}")
    for agg in result.aggregates:
        print(f"rmse estimator={agg.estimator} n={agg.n} rmse={fmt(agg.rmse)}")
    write_manifest(
        out_dir,
        "experiment",
        reader.values,
        config.seed,
        [runs_path, agg_path, plot_data, plot_script],
    )
    return 0


def cmd_diagnose(args) -> int:
    space = parse_space_spec(args.space)
    logging_policy = load_explicit_policy(args.logging_policy, space)
    target_policy = _load_policy(args.target_policy, space)
    contexts = logging_policy.contexts
    profile = overlap_profile(contexts, logging_policy, target_policy)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "profile.csv"
    csv_path.write_text(
        profile.CSV_HEADER + "\n" + profile.to_csv_row() + "\n", encoding="utf-8"
    )
    print(profile.to_kv_block())
    kappa = profile.kappa
    limit = float("inf") if kappa == 0.0 else kappa_uniform_rho_limit(space) / kappa
    print(f"rho_kappa_limit={fmt(limit)}")
    write_manifest(out_dir, "diagnose", vars(args), args.seed, [csv_path])
    return 0


def _optimize_fold(instance, n_logs, folds, fold, seed, source) -> dict:
    """One fold's policy values; its logs, targets and scorer are freed on
    return, before the next fold draws its own."""
    test = [c for i, c in enumerate(instance.contexts) if i % folds == fold]
    train = [c for i, c in enumerate(instance.contexts) if i % folds != fold]
    rng = np.random.default_rng(np.random.SeedSequence([seed, fold]))
    logs = draw_logs(instance, n_logs, rng, contexts=train)
    targets = decompose(logs, instance.logging, features=instance.features, pinv_source=source)
    scorer = fit_scorer(targets)
    return {
        "logger": instance.policy_value(instance.logging, test),
        "sup_rel": evaluate_learned(
            fit_sup_scorer(instance, train, target="relevance"), instance, test
        ),
        "sup_gain": evaluate_learned(
            fit_sup_scorer(instance, train, target="gain"), instance, test
        ),
        "pi_opt": evaluate_learned(scorer, instance, test),
    }


def cmd_optimize(args) -> int:
    reader = ConfigReader(_apply_overrides(parse_config_file(args.config), args.set))
    config = _experiment_config(reader, args.seed)
    n_logs = reader.get_int("n", 10_000)
    if n_logs < 1:
        raise ConfigurationError(f"config field 'n': must be >= 1, got {n_logs}")
    folds = reader.get_int("folds", 5)
    dataset = _load_dataset(reader)
    instance = build_instance(dataset, config)
    if not 2 <= folds <= len(instance.contexts):
        raise ConfigurationError(
            f"config field 'folds': must be between 2 and the {len(instance.contexts)} "
            f"contexts, got {folds}"
        )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["fold,logger,sup_rel,sup_gain,pi_opt"]
    columns = {"logger": [], "sup_rel": [], "sup_gain": [], "pi_opt": []}
    source = PinvSource()
    for fold in range(folds):
        values = _optimize_fold(instance, n_logs, folds, fold, config.seed, source)
        for key, value in values.items():
            columns[key].append(value)
        rows.append(
            f"{fold},{fmt(values['logger'])},{fmt(values['sup_rel'])},"
            f"{fmt(values['sup_gain'])},{fmt(values['pi_opt'])}"
        )
    rows.append(
        "avg,"
        + ",".join(fmt(float(np.mean(columns[k]))) for k in ("logger", "sup_rel", "sup_gain", "pi_opt"))
    )
    csv_path = out_dir / "ndcg.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print("\n".join(rows))
    write_manifest(out_dir, "optimize", reader.values, config.seed, [csv_path])
    return 0


def cmd_generate(args) -> int:
    try:
        config = GeneratorConfig(
            num_queries=args.queries,
            docs_per_query=args.docs_per_query,
            feature_dim=args.feature_dim,
            seed=args.seed,
        )
    except FieldError as exc:
        raise ConfigurationError(f"{GENERATOR_FLAGS[exc.field]} {exc.problem}") from None
    dataset = generate_synthetic(config)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_letor(out_path, dataset)
    out_dir = out_path.parent
    write_manifest(out_dir, "generate", vars(args), args.seed, [out_path])
    print(f"wrote {len(dataset.query_ids)} queries to {out_path}")
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slateval",
        description="Offline evaluation and optimization of slate policies.",
    )
    parser.add_argument("--version", action="version", version=f"slateval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=0, seed_help=None):
        p.add_argument("--seed", type=int, default=seed, help=seed_help)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out-dir", default="out")

    def configured(p):
        p.add_argument("--config", required=True)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field; repeatable")
        common(p, None, "overrides the config seed")

    p_eval = sub.add_parser("evaluate", help="score a target policy on logged data")
    p_eval.add_argument("--logs", required=True)
    p_eval.add_argument("--logging-policy", required=True, help="policy file or 'uniform'")
    p_eval.add_argument("--target-policy", required=True, help="policy file or 'uniform'")
    p_eval.add_argument("--space", required=True, help="e.g. ranking:m=4,slots=2")
    p_eval.add_argument(
        "--estimator", action="append", choices=("pi", "ips", "wips"), default=None
    )
    p_eval.add_argument("--diagnostics", action="store_true")
    p_eval.add_argument("--delta", type=float, default=0.05)
    common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_exp = sub.add_parser("experiment", help="RMSE sweep from a config file")
    configured(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_diag = sub.add_parser("diagnose", help="overlap diagnostics for a policy pair")
    p_diag.add_argument("--logging-policy", required=True, help="explicit policy file")
    p_diag.add_argument("--target-policy", required=True, help="policy file or 'uniform'")
    p_diag.add_argument("--space", required=True)
    common(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_opt = sub.add_parser("optimize", help="off-policy optimization with baselines")
    configured(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_gen = sub.add_parser("generate", help="write a synthetic ranking dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--queries", type=int, default=120)
    p_gen.add_argument("--docs-per-query", type=int, default=15)
    p_gen.add_argument("--feature-dim", type=int, default=24)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    _start_clock()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "estimator", None) is None and args.command == "evaluate":
        args.estimator = ["pi"]
    try:
        with blas_threads(getattr(args, "threads", 1)):
            return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ParseError, ConfigurationError, SlateError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AbsoluteContinuityError, UndefinedEstimateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
