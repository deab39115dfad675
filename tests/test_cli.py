import csv
import hashlib
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from helpers import few_slate_table, random_explicit_policy, write_explicit_policy
from slateval import ExplicitPolicy, SlateSpace, parse_letor
from slateval import cli
from slateval.cli import main, parse_config_file, parse_space_spec
from slateval.util import _openblas_thread_calls, blas_threads


def write_policy_file(path, rows):
    path.write_text("".join(f"{c}\t{','.join(map(str, s))}\t{p}\n" for c, s, p in rows))


def write_logs_file(path, rows):
    path.write_text("".join(f"{c}\t{','.join(map(str, s))}\t{r}\n" for c, s, r in rows))


def setup_eval_files(tmp_path):
    logging_path = tmp_path / "logging.tsv"
    target_path = tmp_path / "target.tsv"
    logs_path = tmp_path / "logs.tsv"
    write_policy_file(
        logging_path,
        [("q", (0, 1), 0.5), ("q", (1, 0), 0.25), ("q", (2, 1), 0.25)],
    )
    write_policy_file(target_path, [("q", (0, 1), 0.75), ("q", (2, 1), 0.25)])
    write_logs_file(
        logs_path,
        [("q", (0, 1), 0.5), ("q", (1, 0), -0.25), ("q", (2, 1), 1.0), ("q", (0, 1), 0.0)],
    )
    return logs_path, logging_path, target_path


def test_parse_space_spec():
    ranking = parse_space_spec("ranking:m=4,slots=2")
    assert ranking.num_actions == 4 and ranking.num_slots == 2
    cartesian = parse_space_spec("cartesian:counts=3,3")
    assert cartesian.slot_counts == (3, 3)


def test_parse_space_spec_rejects_garbage():
    assert main(["diagnose", "--logging-policy", "x", "--target-policy", "x",
                 "--space", "hexagonal:m=3"]) == 2


def test_evaluate_writes_reports(tmp_path, capsys):
    logs_path, logging_path, target_path = setup_eval_files(tmp_path)
    out_dir = tmp_path / "out"
    code = main([
        "evaluate",
        "--logs", str(logs_path),
        "--logging-policy", str(logging_path),
        "--target-policy", str(target_path),
        "--space", "ranking:m=3,slots=2",
        "--estimator", "pi",
        "--estimator", "wips",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    lines = (out_dir / "reports.csv").read_text().strip().splitlines()
    assert lines[0].startswith("estimator,estimate")
    assert len(lines) == 3
    assert (out_dir / "manifest.txt").exists()
    stdout = capsys.readouterr().out
    assert "estimator=pi" in stdout and "estimator=wips" in stdout


def test_evaluate_same_seed_same_bytes(tmp_path):
    logs_path, logging_path, target_path = setup_eval_files(tmp_path)
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main([
            "evaluate",
            "--logs", str(logs_path),
            "--logging-policy", str(logging_path),
            "--target-policy", str(target_path),
            "--space", "ranking:m=3,slots=2",
            "--estimator", "pi",
            "--seed", "5",
            "--out-dir", str(out_dir),
        ]) == 0
        outputs.append((out_dir / "reports.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_evaluate_missing_file_exits_2(tmp_path):
    code = main([
        "evaluate",
        "--logs", str(tmp_path / "nope.tsv"),
        "--logging-policy", "uniform",
        "--target-policy", "uniform",
        "--space", "ranking:m=3,slots=2",
    ])
    assert code == 2


def test_evaluate_abs_violation_exits_1(tmp_path):
    logs_path = tmp_path / "logs.tsv"
    write_logs_file(logs_path, [("q", (2, 0), 0.5)])
    logging_path = tmp_path / "logging.tsv"
    write_policy_file(logging_path, [("q", (0, 1), 1.0)])
    code = main([
        "evaluate",
        "--logs", str(logs_path),
        "--logging-policy", str(logging_path),
        "--target-policy", "uniform",
        "--space", "ranking:m=3,slots=2",
        "--estimator", "ips",
    ])
    assert code == 1


def test_evaluate_names_a_context_missing_from_the_policy_unquoted(tmp_path, capsys):
    logs_path = tmp_path / "logs.tsv"
    write_logs_file(logs_path, [("z", (0, 1), 0.5)])
    logging_path = tmp_path / "logging.tsv"
    write_policy_file(logging_path, [("q", (0, 1), 1.0)])
    code = main([
        "evaluate",
        "--logs", str(logs_path),
        "--logging-policy", str(logging_path),
        "--target-policy", "uniform",
        "--space", "ranking:m=3,slots=2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: no table entry for context 'z'\n"


def test_evaluate_names_the_line_of_an_invalid_logged_slate(tmp_path, capsys):
    logs_path = tmp_path / "logs.tsv"
    for text, problem in (
        ("q\t0,1\t0.5\n", "1: context 'q': slate (0, 1) has 2 slots, expected 3"),
        ("q\t0,1,2\t0.5\nr\t0,3,1\t0.5\n", "2: context 'r': action 3 out of range for slot 1"),
    ):
        logs_path.write_text(text)
        code = main([
            "evaluate",
            "--logs", str(logs_path),
            "--logging-policy", "uniform",
            "--target-policy", "uniform",
            "--space", "ranking:m=3,slots=3",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {logs_path}:{problem}")


def test_diagnose_rejects_a_policy_file_without_entries(tmp_path, capsys):
    policy_path = tmp_path / "empty.tsv"
    policy_path.write_text("# no entries\n\n")
    code = main([
        "diagnose",
        "--logging-policy", str(policy_path),
        "--target-policy", "uniform",
        "--space", "ranking:m=3,slots=2",
        "--out-dir", str(tmp_path / "diag"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {policy_path}: no policy entries\n"


def test_diagnose_identity_policies(tmp_path, capsys):
    policy_path = tmp_path / "policy.tsv"
    write_policy_file(
        policy_path, [("q", (0, 1), 0.5), ("q", (1, 0), 0.3), ("q", (2, 1), 0.2)]
    )
    out_dir = tmp_path / "diag"
    code = main([
        "diagnose",
        "--logging-policy", str(policy_path),
        "--target-policy", str(policy_path),
        "--space", "ranking:m=3,slots=2",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "sigma_sq=1.0" in stdout
    assert "rho=1.0" in stdout
    assert "rho_kappa_limit=" in stdout
    header = (out_dir / "profile.csv").read_text().splitlines()[0]
    assert header == "sigma_sq,rho,rho_bar,kappa"


def test_evaluate_validates_each_logged_slate_once(tmp_path, monkeypatch):
    """read_logged_dataset checks every logged slate against the space, and
    scoring the batch on that same space does not check them again."""
    logs, logging, target = setup_eval_files(tmp_path)
    checked = []
    validate = SlateSpace.validate_batch
    monkeypatch.setattr(
        SlateSpace,
        "validate_batch",
        lambda self, actions, context=None: checked.append(len(actions)) or validate(
            self, actions, context
        ),
    )
    assert main([
        "evaluate", "--logs", str(logs), "--logging-policy", str(logging),
        "--target-policy", str(target), "--space", "ranking:m=3,slots=2",
        "--estimator", "pi", "--estimator", "ips", "--out-dir", str(tmp_path / "out"),
    ]) == 0
    assert checked.count(4) == 1  # the four logged rows, read once


def test_diagnose_builds_each_logging_moment_matrix_once(tmp_path, monkeypatch):
    """diagnose reads one moment record per (logging policy, context): N
    contexts build N logging moment matrices, together in one stacked call,
    and kappa's uniform reference, keyed by space, builds one uniform
    matrix for them all."""
    from slateval import moments

    space = SlateSpace.ranking(4, 2)
    contexts = [f"c{i}" for i in range(5)]
    policy_path = tmp_path / "logging.tsv"
    write_explicit_policy(policy_path, random_explicit_policy(space, contexts, np.random.default_rng(9)))
    built, uniform = [], []
    build, build_uniform = moments.moment_matrix, moments.uniform_moment_matrix
    monkeypatch.setattr(
        moments, "moment_matrix", lambda p, c, s=None: built.append((p, c)) or build(p, c, s)
    )
    monkeypatch.setattr(
        moments, "uniform_moment_matrix", lambda s: uniform.append(s) or build_uniform(s)
    )
    code = main([
        "diagnose",
        "--logging-policy", str(policy_path),
        "--target-policy", "uniform",
        "--space", "ranking:m=4,slots=2",
        "--out-dir", str(tmp_path / "diag"),
    ])
    assert code == 0
    stacked = [c for _, c in built if isinstance(c, list)]
    assert stacked == [contexts]
    assert [p.uniform for p, c in built if not isinstance(c, list)] == [True]
    assert uniform == [space]


def test_experiment_config_and_outputs(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "m=5\nslots=2\nalpha=0.0\nn_grid=150,300\nruns=2\nseed=3\n"
        "estimators=pi,wips\nqueries=25\ndocs_per_query=8\nfeature_dim=12\ntitle_dims=6\n"
    )
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    runs = (out_dir / "runs.csv").read_text().splitlines()
    assert runs[0] == "estimator,n,run,squared_error"
    assert len(runs) == 1 + 2 * 2 * 2
    aggregate = (out_dir / "aggregate.csv").read_text().splitlines()
    assert aggregate[0] == "estimator,n,rmse,stderr"
    assert len(aggregate) == 1 + 2 * 2
    assert (out_dir / "plot.dat").exists() and (out_dir / "plot.gp").exists()
    assert "logscale" in (out_dir / "plot.gp").read_text()


def test_experiment_with_direct_method_is_deterministic(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "m=5\nslots=2\nalpha=0.0\nn_grid=150,300\nruns=2\nseed=3\n"
        "estimators=pi,sb,dm\nqueries=25\ndocs_per_query=8\nfeature_dim=12\ntitle_dims=6\n"
    )
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert main(["experiment", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        outputs.append([(out_dir / f).read_bytes() for f in ("runs.csv", "aggregate.csv")])
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\ndm,") == 2 * 2


def test_experiment_validates_each_target_slate_once(tmp_path, monkeypatch):
    """A sweep checks each context's deterministic target slate once, however
    many cells and estimators read it."""
    config = tmp_path / "exp.cfg"
    config.write_text(
        "m=5\nslots=2\nalpha=1.0\nn_grid=100,200\nruns=3\nseed=3\n"
        "estimators=pi,ips,wips,sb,wsb,dm,onpolicy\n"
        "queries=25\ndocs_per_query=8\nfeature_dim=12\ntitle_dims=6\n"
    )
    calls = []
    validate = SlateSpace.validate

    def counted(self, slate):
        calls.append(tuple(slate))
        return validate(self, slate)

    monkeypatch.setattr(SlateSpace, "validate", counted)
    assert main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 0
    assert len(calls) == 25  # every query has enough documents to be a context


def test_experiment_single_cell_row_count(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "m=5\nslots=2\nn_grid=100\nruns=1\nseed=3\nestimators=pi\n"
        "queries=20\ndocs_per_query=8\nfeature_dim=12\ntitle_dims=6\n"
    )
    out_dir = tmp_path / "one"
    assert main(["experiment", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    aggregate = (out_dir / "aggregate.csv").read_text().splitlines()
    assert len(aggregate) == 2


def test_experiment_bad_config_field_exits_2(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("m=5\nslots=two\n")
    assert main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "x")]) == 2
    assert "slots" in capsys.readouterr().err


def test_experiment_accepts_fractional_alpha(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "m=5\nslots=2\nalpha=2.75\nn_grid=100\nruns=1\nseed=3\nestimators=pi\n"
        "queries=15\ndocs_per_query=8\nfeature_dim=12\ntitle_dims=6\n"
    )
    assert main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "a")]) == 0


def test_generate_round_trips_through_parser(tmp_path):
    out = tmp_path / "synth" / "data.txt"
    assert main([
        "generate", "--out", str(out), "--queries", "6", "--docs-per-query", "5",
        "--feature-dim", "10", "--seed", "2",
    ]) == 0
    dataset = parse_letor(out)
    assert len(dataset.query_ids) == 6
    assert dataset.feature_dim == 10


@pytest.mark.parametrize(
    "seed, flags, digest",
    [
        (
            3,
            ["--queries", "9", "--docs-per-query", "7", "--feature-dim", "6"],
            "6e513b4537e661cfd3e26612942732ec4f3ef080eb238a38c3ce733ea06c7927",
        ),
        (11, [], "79d4cafbd0ea9460d4b85de4a05949fc617be416c220d402c6656a520dd45348"),
    ],
)
def test_generate_writes_recorded_bytes(tmp_path, seed, flags, digest):
    """The generator and the writer keep their output bit for bit."""
    out = tmp_path / "data.txt"
    assert main(["generate", "--out", str(out), "--seed", str(seed), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_optimize_emits_fold_table(tmp_path):
    config = tmp_path / "opt.cfg"
    config.write_text(
        "m=6\nslots=2\nseed=4\nn=4000\nfolds=3\n"
        "queries=30\ndocs_per_query=9\nfeature_dim=12\ntitle_dims=6\n"
    )
    out_dir = tmp_path / "opt"
    assert main(["optimize", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "ndcg.csv").read_text().strip().splitlines()
    assert lines[0] == "fold,logger,sup_rel,sup_gain,pi_opt"
    assert len(lines) == 1 + 3 + 1
    assert lines[-1].startswith("avg,")


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["folds=0"], "config field 'folds': .*got 0"),
        (["folds=1"], "config field 'folds': .*got 1"),
        (["queries=6", "folds=7", "n=200"], "config field 'folds': .*6 contexts, got 7"),
        (["n=-5"], "config field 'n': must be >= 1, got -5"),
        (["n=0"], "config field 'n': must be >= 1, got 0"),
    ],
)
def test_optimize_rejects_unusable_folds_and_sizes(tmp_path, capsys, overrides, message):
    config = tmp_path / "opt.cfg"
    config.write_text(
        "m=6\nslots=2\nseed=4\nn=400\nfolds=3\n"
        "queries=30\ndocs_per_query=9\nfeature_dim=12\ntitle_dims=6\n"
    )
    sets = [arg for item in overrides for arg in ("--set", item)]
    argv = ["optimize", "--config", str(config), *sets, "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert re.match(f"error: {message}", capsys.readouterr().err)


def test_generate_rejects_an_empty_dataset(tmp_path, capsys):
    out = tmp_path / "data.txt"
    assert main(["generate", "--out", str(out), "--queries", "0"]) == 2
    assert capsys.readouterr().err == "error: --queries must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "item, message",
    [
        ("queries=0", "config field 'queries': must be >= 1, got 0"),
        ("docs_per_query=-1", "config field 'docs_per_query': must be >= 1, got -1"),
        ("feature_noise=nan", "config field 'feature_noise': must be a finite nonnegative number"),
    ],
)
def test_generator_errors_name_the_config_key(tmp_path, capsys, item, message):
    config = tmp_path / "exp.cfg"
    config.write_text("m=5\nslots=2\nn_grid=100\nruns=1\nestimators=pi\n")
    argv = ["experiment", "--config", str(config), "--set", item, "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_optimize_ndcg_table_matches_golden_bytes(tmp_path):
    config = tmp_path / "opt.cfg"
    config.write_text(
        "m=6\nslots=2\nseed=4\nn=4000\nfolds=3\n"
        "queries=30\ndocs_per_query=9\nfeature_dim=12\ntitle_dims=6\n"
    )
    out_dir = tmp_path / "opt"
    assert main(["optimize", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    golden = GOLDEN / "optimize_small_ndcg.csv"
    assert (out_dir / "ndcg.csv").read_bytes() == golden.read_bytes()


GOLDEN = Path(__file__).parent / "data"


def run_golden_experiment(out_dir, alpha: str):
    """The small sweep behind the experiment goldens, every estimator on."""
    config = out_dir.parent / f"golden_alpha{alpha}.cfg"
    config.write_text(
        f"m=5\nslots=2\nalpha={alpha}\nn_grid=100,300\nruns=2\nseed=5\n"
        "estimators=pi,ips,wips,sb,wsb,dm,onpolicy\n"
        "queries=20\ndocs_per_query=8\nfeature_dim=12\ntitle_dims=6\n"
    )
    assert main(["experiment", "--config", str(config), "--out-dir", str(out_dir)]) == 0


def write_golden_policy_files(directory):
    """Logging (full support) and target (sparse) explicit policies over five
    contexts of ranking(4, 2), and 200 logged rows drawn from the logging
    table in the test itself; returns the three paths."""
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(77)
    contexts = [f"c{i}" for i in range(5)]
    logging = random_explicit_policy(space, contexts, rng)
    target = random_explicit_policy(space, contexts, rng, sparsity=0.5)
    paths = directory / "logs.tsv", directory / "logging.tsv", directory / "target.tsv"
    write_explicit_policy(paths[1], logging)
    write_explicit_policy(paths[2], target)
    rows = []
    for i in range(200):
        listed = list(logging.support(contexts[i % len(contexts)]))
        slate, _ = listed[rng.choice(len(listed), p=[p for _, p in listed])]
        rows.append((contexts[i % len(contexts)], slate, round(rng.uniform(-1, 1), 6)))
    write_logs_file(paths[0], rows)
    return paths


def run_golden_evaluate(out_dir):
    logs, logging, target = write_golden_policy_files(out_dir.parent)
    assert main([
        "evaluate", "--logs", str(logs), "--logging-policy", str(logging),
        "--target-policy", str(target), "--space", "ranking:m=4,slots=2",
        "--estimator", "pi", "--estimator", "ips", "--estimator", "wips", "--diagnostics",
        "--out-dir", str(out_dir),
    ]) == 0


def test_evaluate_and_diagnose_import_no_module_numpy_loads_lazily(tmp_path):
    """np.unique and np.quantile import numpy.ma on first use, tens of
    milliseconds in a fresh interpreter; the explicit-table commands use
    neither."""
    logs, logging, target = write_golden_policy_files(tmp_path)
    common = ["--logging-policy", str(logging), "--target-policy", str(target),
              "--space", "ranking:m=4,slots=2"]
    runs = [
        ["evaluate", "--logs", str(logs), *common, "--estimator", "pi", "--estimator", "ips",
         "--diagnostics", "--out-dir", str(tmp_path / "e")],
        ["diagnose", *common, "--out-dir", str(tmp_path / "d")],
    ]
    script = (
        "import sys\n"
        "from slateval.cli import main\n"
        f"assert all(main(argv) == 0 for argv in {runs!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def run_golden_diagnose(out_dir):
    _, logging, target = write_golden_policy_files(out_dir.parent)
    assert main([
        "diagnose", "--logging-policy", str(logging), "--target-policy", str(target),
        "--space", "ranking:m=4,slots=2", "--out-dir", str(out_dir),
    ]) == 0


@pytest.mark.parametrize(
    "name, run, outputs",
    [
        ("experiment_alpha0", partial(run_golden_experiment, alpha="0"),
         ("runs.csv", "aggregate.csv")),
        ("experiment_alpha1", partial(run_golden_experiment, alpha="1"),
         ("runs.csv", "aggregate.csv")),
        ("evaluate", run_golden_evaluate, ("reports.csv",)),
        ("diagnose", run_golden_diagnose, ("profile.csv",)),
    ],
)
def test_command_outputs_match_golden_bytes(tmp_path, capsys, name, run, outputs):
    """Files and stdout of small experiment, evaluate and diagnose runs equal
    the bytes recorded in tests/data."""
    out_dir = tmp_path / "out"
    run(out_dir)
    for output in outputs:
        assert (out_dir / output).read_bytes() == (GOLDEN / f"{name}_{output}").read_bytes()
    stdout = capsys.readouterr().out.encode()
    assert stdout == (GOLDEN / f"{name}_stdout.txt").read_bytes()


def test_experiment_set_overrides_config_fields(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "m=5\nslots=2\nn_grid=100\nruns=3\nseed=3\nestimators=pi\n"
        "queries=20\ndocs_per_query=8\nfeature_dim=12\ntitle_dims=6\n"
    )
    out_dir = tmp_path / "ov"
    assert main([
        "experiment", "--config", str(config), "--set", "runs=1",
        "--set", "estimators=pi,ips", "--out-dir", str(out_dir),
    ]) == 0
    runs = (out_dir / "runs.csv").read_text().splitlines()
    assert len(runs) == 1 + 1 * 2  # one run, two estimators
    manifest = (out_dir / "manifest.txt").read_text()
    assert "config.runs=1" in manifest


def test_bad_override_exits_2(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("m=5\nslots=2\n")
    assert main([
        "experiment", "--config", str(config), "--set", "runsone",
        "--out-dir", str(tmp_path / "x"),
    ]) == 2


def test_parse_config_file_skips_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nkey=value\nother = padded \n")
    values = parse_config_file(path)
    assert values == {"key": "value", "other": "padded"}


def test_explicit_policy_above_the_enumeration_cap_gets_exact_diagnostics(tmp_path, capsys):
    """An explicit policy lists its own support, so a space above the cap
    (1.86M slates) still gets exact moments: with target = logging,
    sigma_sq = rho = 1, PI equals IPS (the mean reward), and rho_bar matches
    a dense pseudoinverse of the table's second moments."""
    space_spec = "ranking:m=20,slots=5"
    space = parse_space_spec(space_spec)
    rng = np.random.default_rng(23)
    table = few_slate_table(space, ["a", "b", "c"], 6, rng)
    policy_path, logs_path = tmp_path / "policy.tsv", tmp_path / "logs.tsv"
    write_policy_file(policy_path, [(c, s, p) for c, rows in table.items() for s, p in rows])
    logs = []
    for context, rows in table.items():
        for i in rng.choice(len(rows), size=40, p=[p for _, p in rows]):
            logs.append((context, rows[i][0], float(rng.uniform(-1.0, 1.0))))
    write_logs_file(logs_path, logs)
    rho_bar = 0.0
    for rows in table.values():
        indicators = np.stack([space.indicator(s) for s, _ in rows])
        probs = np.array([p for _, p in rows])
        pinv = np.linalg.pinv((indicators * probs[:, None]).T @ indicators)
        rho_bar = max(rho_bar, float(np.einsum("ij,jk,ik->i", indicators, pinv, indicators).max()))

    policy = ["--logging-policy", str(policy_path), "--target-policy", str(policy_path)]
    assert main(["diagnose", *policy, "--space", space_spec,
                 "--out-dir", str(tmp_path / "diag")]) == 0
    profile = dict(line.split("=") for line in capsys.readouterr().out.split())
    assert abs(float(profile["sigma_sq"]) - 1.0) <= 1e-9
    assert abs(float(profile["rho"]) - 1.0) <= 1e-9
    assert float(profile["rho_bar"]) == pytest.approx(rho_bar, rel=1e-9)

    assert main(["evaluate", "--logs", str(logs_path), *policy, "--space", space_spec,
                 "--estimator", "pi", "--estimator", "ips", "--diagnostics",
                 "--out-dir", str(tmp_path / "eval")]) == 0
    lines = (tmp_path / "eval" / "reports.csv").read_text().splitlines()
    reports = {row["estimator"]: row for row in csv.DictReader(lines)}
    assert abs(float(reports["pi"]["estimate"]) - float(reports["ips"]["estimate"])) <= 1e-12
    assert abs(float(reports["pi"]["sigma_sq"]) - 1.0) <= 1e-9
    assert abs(float(reports["pi"]["rho"]) - 1.0) <= 1e-9


def test_evaluate_scores_each_context_once_per_policy(tmp_path, monkeypatch):
    """pi, ips and wips share one scoring pass: the logged slates of all the
    contexts of a space go through one row-level call of each policy."""
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(23)
    contexts = [f"c{i}" for i in range(7)]
    logging = random_explicit_policy(space, contexts, rng)
    target = random_explicit_policy(space, contexts, rng, sparsity=0.5)
    logging_path, target_path = tmp_path / "logging.tsv", tmp_path / "target.tsv"
    write_explicit_policy(logging_path, logging)
    write_explicit_policy(target_path, target)
    rows = []
    for i in range(140):
        context = contexts[i % len(contexts)]
        rows.append((context, logging.sample(context, rng), round(rng.uniform(-1, 1), 6)))
    logs_path = tmp_path / "logs.tsv"
    write_logs_file(logs_path, rows)

    calls = []
    score = ExplicitPolicy._slate_prob_rows

    def counted(self, contexts, codes, actions):
        calls.append((id(self), sorted(contexts[c] for c in set(codes.tolist()))))
        return score(self, contexts, codes, actions)

    monkeypatch.setattr(ExplicitPolicy, "_slate_prob_rows", counted)
    code = main([
        "evaluate", "--logs", str(logs_path),
        "--logging-policy", str(logging_path), "--target-policy", str(target_path),
        "--space", "ranking:m=4,slots=2",
        "--estimator", "pi", "--estimator", "ips", "--estimator", "wips",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert len(calls) == 2 and calls[0][0] != calls[1][0]
    assert [seen for _, seen in calls] == [sorted(contexts)] * 2


def _blas_pool():
    calls = _openblas_thread_calls()
    if calls is None or calls[0]() < 2:
        pytest.skip("numpy's OpenBLAS pool is missing or already single-threaded")
    return calls[0]


def test_blas_threads_caps_the_pool_and_restores_it():
    pool = _blas_pool()
    before = pool()
    with blas_threads(1):
        assert pool() == 1
    assert pool() == before
    with blas_threads(before + 3):
        assert pool() == before  # never raised
    with pytest.raises(RuntimeError):
        with blas_threads(0):
            assert pool() == 1
            raise RuntimeError
    assert pool() == before


def test_a_command_runs_with_the_pool_capped_at_threads(tmp_path, monkeypatch):
    pool = _blas_pool()
    before = pool()
    seen = []
    monkeypatch.setattr(cli, "cmd_experiment", lambda args: seen.append(pool()) or 0)
    config = str(tmp_path / "unused.cfg")
    assert main(["experiment", "--config", config]) == 0
    assert main(["experiment", "--config", config, "--threads", "4"]) == 0
    assert seen == [1, min(4, before)]
    assert pool() == before
