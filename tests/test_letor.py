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
    assert len(dataset.queries) == 1
    query = dataset.queries[0]
    assert query.query_id == "10032"
    doc = query.documents[0]
    assert doc.relevance == 2
    assert doc.doc_id == "docA"
    assert doc.features.tolist() == [0.5, 0.125]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert parse_letor(path).queries == ()


def test_parse_groups_by_qid(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "0 qid:1 1:0.1 2:0.2 # a\n"
        "1 qid:1 1:0.3 2:0.4 # b\n"
        "2 qid:2 1:0.5 2:0.6 # c\n"
    )
    dataset = parse_letor(path)
    assert [q.query_id for q in dataset.queries] == ["1", "2"]
    assert len(dataset.queries[0].documents) == 2


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
    assert len(back.queries) == 4
    for q1, q2 in zip(dataset.queries, back.queries):
        assert q1.query_id == q2.query_id
        for d1, d2 in zip(q1.documents, q2.documents):
            assert d1.doc_id == d2.doc_id
            assert d1.relevance == d2.relevance
            np.testing.assert_array_equal(d1.features, d2.features)
    # serialize -> parse -> serialize is byte stable
    path2 = tmp_path / "round2.txt"
    write_letor(path2, back)
    assert path.read_text() == path2.read_text()


def test_generator_shape_and_determinism():
    config = GeneratorConfig(num_queries=10, docs_per_query=6, feature_dim=8, title_dims=4, seed=5)
    a = generate_synthetic(config)
    b = generate_synthetic(config)
    assert a.feature_dim == 8
    assert len(a.queries) == 10
    assert all(len(q.documents) == 6 for q in a.queries)
    relevances = {d.relevance for q in a.queries for d in q.documents}
    assert relevances <= {0, 1, 2} and len(relevances) > 1
    for q1, q2 in zip(a.queries, b.queries):
        for d1, d2 in zip(q1.documents, q2.documents):
            np.testing.assert_array_equal(d1.features, d2.features)


def test_generator_plants_learnable_signal():
    """A ridge fit on the features should order documents far better than
    chance within queries."""
    dataset = generate_synthetic(GeneratorConfig(num_queries=60, docs_per_query=10, seed=2))
    X = np.stack([d.features for q in dataset.queries for d in q.documents])
    y = np.array([d.relevance for q in dataset.queries for d in q.documents], dtype=float)
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
    rows = [doc.features.tolist() for _, doc in parse_letor(path).rows()]
    assert rows == [[0.0, 0.0, 0.5], [0.25, 0.0, 1.0], [0.0, -4e-3, 7.0]]


def test_parse_keeps_the_last_value_of_a_repeated_key(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 qid:1 1:0.5 2:1 1:0.75\n0 qid:1 2:3 2:2 1:1\n")
    rows = [doc.features.tolist() for _, doc in parse_letor(path).rows()]
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
    assert [(q.query_id, [d.doc_id for d in q.documents]) for q in dataset.queries] == [
        ("a", ["doc0", "named", "doc2"]),
        ("b", ["doc1", "tight"]),
    ]
    assert [d.relevance for _, d in dataset.rows()] == [0, 1, 0, 2, 1]


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
    got = np.stack([doc.features for _, doc in parse_letor(path).rows()])
    order = [i for q in range(3) for i in range(40) if i % 3 == q]
    want = np.array([[float(t) for t in texts[i]] for i in order])
    assert got.tobytes() == want.tobytes()


def test_parse_reads_labels_and_keys_as_int_does(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("+1 qid:1 01:0.5 +2:1\n02 qid:1 1:1 2:2\n")
    dataset = parse_letor(path)
    assert [d.relevance for _, d in dataset.rows()] == [1, 2]
    assert [d.features.tolist() for _, d in dataset.rows()] == [[0.5, 1.0], [1.0, 2.0]]


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
    assert len(generate_synthetic(config).queries) == 1
