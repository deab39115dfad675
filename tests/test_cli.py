from slateval import parse_letor
from slateval.cli import main, parse_config_file, parse_space_spec


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
        "--feature-dim", "10", "--title-dims", "5", "--seed", "2",
    ]) == 0
    dataset = parse_letor(out)
    assert len(dataset.queries) == 6
    assert dataset.feature_dim == 10


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
