import numpy as np
import pytest

from slateval import (
    ConfigurationError,
    GeneratorConfig,
    ParseError,
    generate_synthetic,
    parse_letor,
    write_letor,
)


def test_parse_single_line(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("2 qid:10032 1:0.5 2:0.125 # docA\n")
    dataset = parse_letor(path)
    assert dataset.query_ids == ("10032",)
    assert dataset.bounds.tolist() == [0, 1]
    assert dataset.labels.tolist() == [2]
    assert dataset.labels.dtype == np.int64
    assert dataset.doc_ids == ("docA",)
    assert dataset.features.tolist() == [[0.5, 0.125]]
    assert dataset.feature_dim == 2
    [(query_id, doc)] = dataset.rows()
    assert (query_id, doc.doc_id, doc.relevance) == ("10032", "docA", 2)
    assert doc.features.tolist() == [0.5, 0.125]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    dataset = parse_letor(path)
    assert dataset.query_ids == () and dataset.doc_ids == ()
    assert dataset.bounds.tolist() == [0]
    assert dataset.features.shape == (0, 0) and dataset.feature_dim == 0
    assert list(dataset.rows()) == []


def test_parse_groups_by_qid(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "0 qid:1 1:0.1 2:0.2 # a\n"
        "1 qid:1 1:0.3 2:0.4 # b\n"
        "2 qid:2 1:0.5 2:0.6 # c\n"
    )
    dataset = parse_letor(path)
    assert dataset.query_ids == ("1", "2")
    assert dataset.bounds.tolist() == [0, 2, 3]
    assert [(q, d.doc_id) for q, d in dataset.rows()] == [("1", "a"), ("1", "b"), ("2", "c")]


def test_parse_regroups_interleaved_queries_in_order_of_first_appearance(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "0 qid:b 1:0.1 # x\n"
        "1 qid:a 1:0.2 # y\n"
        "2 qid:b 1:0.3 # z\n"
        "0 qid:c 1:0.4 # w\n"
        "1 qid:a 1:0.5 # v\n"
    )
    dataset = parse_letor(path)
    assert dataset.query_ids == ("b", "a", "c")
    assert dataset.bounds.tolist() == [0, 2, 4, 5]
    assert dataset.doc_ids == ("x", "z", "y", "v", "w")
    assert dataset.labels.tolist() == [0, 2, 1, 1, 0]
    assert dataset.features.ravel().tolist() == [0.1, 0.3, 0.2, 0.5, 0.4]


def test_parse_rejects_bad_relevance(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("5 qid:1 1:0.1 # a\n")
    with pytest.raises(ParseError, match=":1"):
        parse_letor(path)


def test_parse_rejects_inconsistent_dimension(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("0 qid:1 1:0.1 2:0.2 # a\n1 qid:1 1:0.3 # b\n")
    with pytest.raises(ParseError, match=":2"):
        parse_letor(path)


def test_parse_rejects_malformed_tokens(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("0 qid:1 notafeature # a\n")
    with pytest.raises(ParseError):
        parse_letor(path)
    path.write_text("0 1:0.5\n")
    with pytest.raises(ParseError):
        parse_letor(path)


def test_round_trip(tmp_path):
    dataset = generate_synthetic(GeneratorConfig(num_queries=4, docs_per_query=3, seed=1))
    path = tmp_path / "round.txt"
    write_letor(path, dataset)
    back = parse_letor(path)
    assert len(back.query_ids) == 4
    assert back.query_ids == dataset.query_ids
    assert back.doc_ids == dataset.doc_ids
    np.testing.assert_array_equal(back.bounds, dataset.bounds)
    np.testing.assert_array_equal(back.labels, dataset.labels)
    np.testing.assert_array_equal(back.features, dataset.features)
    # serialize -> parse -> serialize is byte stable
    path2 = tmp_path / "round2.txt"
    write_letor(path2, back)
    assert path.read_text() == path2.read_text()


def test_generator_shape_and_determinism():
    config = GeneratorConfig(num_queries=10, docs_per_query=6, feature_dim=8, title_dims=4, seed=5)
    a = generate_synthetic(config)
    b = generate_synthetic(config)
    assert a.feature_dim == 8
    assert len(a.query_ids) == 10
    assert np.diff(a.bounds).tolist() == [6] * 10
    assert a.features.shape == (60, 8) and a.labels.shape == (60,) and len(a.doc_ids) == 60
    relevances = set(a.labels.tolist())
    assert relevances <= {0, 1, 2} and len(relevances) > 1
    assert a.query_ids == b.query_ids and a.doc_ids == b.doc_ids
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.features, b.features)


def test_generator_plants_learnable_signal():
    """A ridge fit on the features should order documents far better than
    chance within queries."""
    dataset = generate_synthetic(GeneratorConfig(num_queries=60, docs_per_query=10, seed=2))
    X = dataset.features
    y = dataset.labels.astype(float)
    weights = np.linalg.solve(X.T @ X + np.eye(X.shape[1]), X.T @ y)
    scores = X @ weights
    corr = np.corrcoef(scores, y)[0, 1]
    assert corr > 0.4


def test_sorted_quantile_matches_numpy_quantile_bit_for_bit():
    from slateval.letor import _quantile

    rng = np.random.default_rng(17)
    for _ in range(300):
        values = rng.normal(size=int(rng.integers(1, 500))) * 10.0 ** rng.uniform(-4, 4)
        ordered = np.sort(values)
        quantiles = np.array([0.0, 0.15, 0.5, 0.5 + 1e-12, 0.65, 0.85, 1.0])
        got = [_quantile(ordered, q) for q in quantiles]
        np.testing.assert_array_equal(got, [np.quantile(values, q) for q in quantiles])


# Line 5 follows a blank line, a comment line and one good line of dimension 2.
PREAMBLE = "\n# header comment\n0 qid:1 1:0.5 2:0.25 # a\n\n"


@pytest.mark.parametrize(
    "line, problem",
    [
        ("x qid:1 1:0.5 2:0.25", "bad relevance 'x'"),
        ("1.0 qid:1 1:0.5 2:0.25", "bad relevance '1.0'"),
        ("3 qid:1 1:0.5 2:0.25", "relevance 3 outside (0, 1, 2)"),
        ("-1 qid:1 1:0.5 2:0.25", "relevance -1 outside (0, 1, 2)"),
        ("1 1:0.5 2:0.25", "expected '<rel> qid:<id> ...'"),
        ("1", "expected '<rel> qid:<id> ...'"),
        ("x qid1", "expected '<rel> qid:<id> ...'"),
        ("1 qid:1 1:0.5 junk", "bad feature token 'junk'"),
        ("1 qid:1 1:x 2:0.25", "bad feature token '1:x'"),
        ("1 qid:1 a:1 2:0.25", "bad feature token 'a:1'"),
        ("1 qid:1 1:2:3 2:0.25", "bad feature token '1:2:3'"),
        ("1 qid:1 2:1:1 2:1:2", "bad feature token '2:1:1'"),
        ("1 qid:1 1: 2:0.25", "bad feature token '1:'"),
        ("1 qid:1 0:0.5 2:0.25", "feature indices are 1-based"),
        ("1 qid:1 -2:0.5 2:0.25", "feature indices are 1-based"),
        ("1 qid:1 0:0.5 junk", "feature indices are 1-based"),
        ("1 qid:1 junk 0:0.5", "bad feature token 'junk'"),
        ("1 qid:1 1:0.5", "feature dimension 1 != 2 seen earlier"),
        ("1 qid:1 1:0.5 3:0.5", "feature dimension 3 != 2 seen earlier"),
        ("1 qid:1", "feature dimension 0 != 2 seen earlier"),
    ],
)
def test_parse_errors_name_the_physical_line(tmp_path, line, problem):
    """Blank and comment lines count toward the line number."""
    path = tmp_path / "data.txt"
    path.write_text(PREAMBLE + line + " # d\n" + "2 qid:1 1:1 2:1\n")
    with pytest.raises(ParseError) as caught:
        parse_letor(path)
    assert str(caught.value) == f"{path}:5: {problem}"


def test_parse_reports_the_first_malformed_line(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(PREAMBLE + "1 qid:1 1:0.5 nocolon\n" + "7 qid:1 1:0.5 2:0.25\n")
    with pytest.raises(ParseError) as caught:
        parse_letor(path)
    assert str(caught.value) == f"{path}:5: bad feature token 'nocolon'"
    path.write_text(PREAMBLE + "1 qid:1 1:0.5 2:0.25\n" + "7 qid:1 1:0.5 nocolon\n")
    with pytest.raises(ParseError) as caught:
        parse_letor(path)
    assert str(caught.value) == f"{path}:6: relevance 7 outside (0, 1, 2)"


def test_parse_zero_fills_sparse_lines(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 qid:1 3:0.5\n0 qid:1 1:0.25 3:1 # b\n2 qid:2 2:-4e-3 3:7\n")
    rows = parse_letor(path).features.tolist()
    assert rows == [[0.0, 0.0, 0.5], [0.25, 0.0, 1.0], [0.0, -4e-3, 7.0]]


def test_parse_keeps_the_last_value_of_a_repeated_key(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 qid:1 1:0.5 2:1 1:0.75\n0 qid:1 2:3 2:2 1:1\n")
    rows = parse_letor(path).features.tolist()
    assert rows == [[0.75, 1.0], [1.0, 2.0]]


def test_parse_names_documents_without_a_comment_in_order(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "0 qid:a 1:1\n"
        "1 qid:a 1:2 # named extra words\n"
        "# a comment line between\n"
        "2 qid:b 1:3\n"
        "0 qid:a 1:4 #   \n"
        "1 qid:b 1:5#tight\n"
    )
    dataset = parse_letor(path)
    assert dataset.query_ids == ("a", "b")
    assert dataset.bounds.tolist() == [0, 3, 5]
    assert dataset.doc_ids == ("doc0", "named", "doc2", "doc1", "tight")
    assert dataset.labels.tolist() == [0, 1, 0, 2, 1]


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_parse_rejects_non_finite_features(tmp_path, value):
    path = tmp_path / "data.txt"
    path.write_text(f"0 qid:1 1:0.5 2:0.25\n\n1 qid:1 1:{value} 2:0.25 # b\n")
    with pytest.raises(ParseError) as caught:
        parse_letor(path)
    assert str(caught.value) == f"{path}:3: feature value {value!r} is not finite"


def test_parse_values_match_float_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-30, 30, size=(40, 6))
    texts = [[repr(v) for v in row] for row in values.tolist()]
    texts[3][2], texts[7][0], texts[9][5] = "1_0", "+.5", "-0"
    path = tmp_path / "data.txt"
    path.write_text("".join(
        f"1 qid:q{i % 3} " + " ".join(f"{k + 1}:{t}" for k, t in enumerate(row)) + "\n"
        for i, row in enumerate(texts)
    ))
    got = parse_letor(path).features
    order = [i for q in range(3) for i in range(40) if i % 3 == q]
    want = np.array([[float(t) for t in texts[i]] for i in order])
    assert got.tobytes() == want.tobytes()


def test_parse_reads_labels_and_keys_as_int_does(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("+1 qid:1 01:0.5 +2:1\n02 qid:1 1:1 2:2\n")
    dataset = parse_letor(path)
    assert dataset.labels.tolist() == [1, 2]
    assert dataset.features.tolist() == [[0.5, 1.0], [1.0, 2.0]]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("num_queries", 0, "num_queries must be >= 1"),
        ("num_queries", -1, "num_queries must be >= 1"),
        ("docs_per_query", 0, "docs_per_query must be >= 1"),
        ("feature_dim", 0, "feature_dim must be >= 1"),
        ("relevant_fraction", -0.5, "relevant_fraction must be a finite nonnegative"),
        ("highly_relevant_fraction", float("inf"), "highly_relevant_fraction must be a finite"),
        ("highly_relevant_fraction", 1.5, "sum to more than 1"),
        ("relevant_fraction", 0.9, "sum to more than 1"),
        ("feature_noise", float("nan"), "feature_noise must be a finite nonnegative"),
        ("feature_noise", -0.1, "feature_noise must be a finite nonnegative"),
        ("query_spread", float("nan"), "query_spread must be a finite nonnegative"),
    ],
)
def test_generator_config_rejects_values_that_skew_or_break_the_dataset(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        GeneratorConfig(**{field: value})


def test_generator_config_accepts_boundary_values():
    config = GeneratorConfig(
        num_queries=1, docs_per_query=1, feature_dim=1, relevant_fraction=0.0,
        highly_relevant_fraction=1.0, feature_noise=0.0, query_spread=0.0,
    )
    assert len(generate_synthetic(config).query_ids) == 1
