import numpy as np
import pytest

from slateval import GeneratorConfig, ParseError, generate_synthetic, parse_letor, write_letor


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
