from collections import Counter

import numpy as np
import pytest

from slateval import (
    ConfigurationError,
    ExperimentConfig,
    GeneratorConfig,
    LoggedExample,
    MultinomialWoRPolicy,
    PinvSource,
    RankingDataset,
    SlateSpace,
    UniformPolicy,
    build_instance,
    decompose,
    draw_logs,
    estimate_dm,
    evaluate_learned,
    fit_dm,
    fit_scorer,
    fit_sup_scorer,
    generate_synthetic,
    greedy_slate,
)
from helpers import (
    is_valid,
    _design_matrix,
    _fold_moments,
    decompose_reference,
    fold_moments_reference,
    greedy_reference,
    keyed_features,
)
from slateval.letor import Query
from slateval import moments
from slateval.moments import moment_matrix
from slateval.optimization import DecomposedTargets, _greedy_slates
from slateval.ridge import fold_moments_from_rows, cv_select_alpha


def unit_features(space, dim=4, seed=0):
    return keyed_features(space, dim, seed)


def per_example_targets(contexts, phi_hats, spaces, features, num_slots):
    """Target blocks from one (context, target vector) pair per example:
    one block per distinct context, its rows in example order."""
    order = list(dict.fromkeys(contexts))
    rows = [np.array([i for i, c in enumerate(contexts) if c == b]) for b in order]
    return DecomposedTargets(
        contexts=tuple(order),
        rows=tuple(rows),
        phi_hats=tuple(np.stack([phi_hats[i] for i in r]) for r in rows),
        spaces=spaces,
        features=features,
        num_slots=num_slots,
    )


def test_decompose_uniform_ranking_worked_example():
    space = SlateSpace.ranking(2, 2)
    logging = UniformPolicy(space)
    logs = [LoggedExample("q", (0, 1), 1.0)]
    targets = decompose(logs, logging, features=unit_features(space))
    assert targets.contexts == ("q",) and len(targets) == 1
    np.testing.assert_array_equal(targets.rows[0], [0])
    np.testing.assert_allclose(targets.phi_hats[0], [[1.0, 0.0, 0.0, 1.0]], atol=1e-12)


def decompose_case(case):
    """A logging policy over three contexts and 400 logged examples, with
    rewards in [-1, 1]: uniform logging on a ranking space (closed-form
    pseudoinverse), Plackett-Luce at temperature 1 (numeric), or a random
    explicit policy on a cartesian space (numeric)."""
    from helpers import random_explicit_policy

    rng = np.random.default_rng(17)
    contexts = ["a", "b", "c"]
    if case == "uniform-ranking":
        space = SlateSpace.ranking(6, 3)
        logging = UniformPolicy(space)
    elif case == "plackett-luce":
        space = SlateSpace.ranking(5, 3)
        logging = MultinomialWoRPolicy(space, {c: rng.normal(size=5) for c in contexts}, 1.0)
    else:
        space = SlateSpace.cartesian((3, 2, 4))
        logging = random_explicit_policy(space, contexts, rng)
    logs = []
    for context in rng.choice(contexts, size=400):
        logs.append(LoggedExample(context, logging.sample(context, rng), rng.uniform(-1, 1)))
    return space, logging, logs


@pytest.mark.parametrize("case", ["uniform-ranking", "plackett-luce", "cartesian"])
def test_decompose_blocks_equal_the_column_sum_reference_bitwise(case):
    space, logging, logs = decompose_case(case)
    source = PinvSource()
    targets = decompose(logs, logging, features=unit_features(space), pinv_source=source)
    expected = decompose_reference(logs, logging, source)
    assert len(targets.phi_hats) == len(expected) == 3
    for block, want in zip(targets.phi_hats, expected):
        assert block.flags.c_contiguous
        assert np.array_equal(block, want)


def test_decompose_builds_the_missing_logging_records_of_a_space_together(monkeypatch):
    space, logging, logs = decompose_case("plackett-luce")
    sizes = []

    def counted(policy, contexts, space=None):
        sizes.append(len(contexts) if isinstance(contexts, list) else 1)
        return moment_matrix(policy, contexts, space)

    monkeypatch.setattr(moments, "moment_matrix", counted)
    decompose(logs, logging, features=unit_features(space))
    assert sizes == [3]


def test_decompose_zero_reward_zero_targets():
    space = SlateSpace.ranking(3, 2)
    logging = UniformPolicy(space)
    targets = decompose([LoggedExample("q", (1, 2), 0.0)], logging, features=unit_features(space))
    assert targets.phi_hats[0].shape == (1, space.dim)
    assert np.all(targets.phi_hats[0] == 0.0)


def test_decomposed_targets_recover_reward_through_logging_mean():
    """q_logging' phi_hat equals the logged reward, example by example."""
    from helpers import mixture_logging_policy, make_ada_instance, draw_ada_logs

    instance = make_ada_instance(seed=4)
    rng = np.random.default_rng(4)
    logging = mixture_logging_policy(instance, 0.5, rng)
    logs = draw_ada_logs(instance, logging, 60, rng)
    targets = decompose(logs, logging, features=unit_features(instance.space))
    assert sorted(np.concatenate(targets.rows).tolist()) == list(range(len(logs)))
    for context, rows, block in zip(targets.contexts, targets.rows, targets.phi_hats):
        q = logging.mean_indicator(context)
        for i, phi_hat in zip(rows, block):
            assert logs[i].context == context
            assert q @ phi_hat == pytest.approx(logs[i].reward, abs=1e-10)


def test_decompose_mean_converges_to_projected_values():
    """Averaged decompositions approach pinv times the marginal-value
    vector, which the enumeration oracle supplies."""
    space = SlateSpace.ranking(3, 2)
    rng = np.random.default_rng(9)
    from helpers import random_explicit_policy

    logging = random_explicit_policy(space, ["q"], rng)
    phi = rng.uniform(0, 0.5, size=space.dim)

    def reward(slate):
        return float(phi[space.coords(slate)].sum())

    n = 30_000
    logs = []
    for _ in range(n):
        slate = logging.sample("q", rng)
        logs.append(LoggedExample("q", slate, reward(slate)))
    targets = decompose(logs, logging, features=unit_features(space))
    assert targets.phi_hats[0].shape == (n, space.dim)
    mean_phi_hat = np.mean(targets.phi_hats[0], axis=0)

    theta = np.zeros(space.dim)
    for slate, p in logging.support("q"):
        theta += p * reward(slate) * space.indicator(slate)
    from slateval import pinv_numeric

    expected = pinv_numeric(moment_matrix(logging, "q")).entries @ theta
    assert np.abs(mean_phi_hat - expected).max() < 0.08


def test_fit_scorer_constant_targets():
    space = SlateSpace.ranking(3, 2)
    features = unit_features(space)
    targets = DecomposedTargets(
        contexts=tuple(f"q{i}" for i in range(100)),
        rows=tuple(np.array([i]) for i in range(100)),
        phi_hats=tuple(np.full((1, space.dim), 0.7) for _ in range(100)),
        spaces={f"q{i}": space for i in range(100)},
        features=features,
        num_slots=2,
    )
    scorer = fit_scorer(targets)
    for context in ("q0", "q5"):
        table = scorer.score_matrix(context, space, features)
        np.testing.assert_allclose(table, 0.7, atol=1e-3)


def test_fit_scorer_recovers_noiseless_linear_targets():
    space = SlateSpace.ranking(4, 2)
    features = unit_features(space, dim=3, seed=5)
    true_w = np.array([0.8, -0.4, 0.2])
    slot_offsets = np.array([0.5, 0.1])
    contexts = tuple(f"q{i}" for i in range(40))
    phi_hats = []
    for context in contexts:
        design = _design_matrix(space, context, features, 3)
        phi_hats.append(design @ np.concatenate([slot_offsets, true_w]))
    targets = DecomposedTargets(
        contexts=contexts,
        rows=tuple(np.array([i]) for i in range(len(contexts))),
        phi_hats=tuple(phi[None, :] for phi in phi_hats),
        spaces={c: space for c in contexts},
        features=features,
        num_slots=2,
    )
    scorer = fit_scorer(targets, alphas=(1e-6,))
    np.testing.assert_allclose(scorer.feature_weights(), true_w, atol=1e-6)
    np.testing.assert_allclose(scorer.slot_weights(), slot_offsets, atol=1e-6)


def test_fit_scorer_fold_moments_match_row_reference():
    """Per-block fold moments equal explicit row-indexed folds.

    The second input interleaves contexts whose spaces have 6, 8 and 5
    coordinates, so the examples' global row starts are not uniform.
    """
    from slateval.ridge import solve_ridge

    # one map for both space sets: its tables follow the set in use
    features = unit_features(lambda c: spaces[c], dim=2, seed=6)
    contexts = tuple(f"q{i % 3}" for i in range(11))
    same_dims = {c: SlateSpace.ranking(3, 2) for c in contexts}
    mixed_dims = {
        "q0": SlateSpace.ranking(3, 2),
        "q1": SlateSpace.ranking(4, 2),
        "q2": SlateSpace.cartesian((2, 3)),
    }
    for spaces in (same_dims, mixed_dims):
        rng = np.random.default_rng(6)
        phi_hats = tuple(rng.normal(size=spaces[c].dim) for c in contexts)
        targets = per_example_targets(contexts, phi_hats, spaces, features, 2)
        scorer = fit_scorer(targets, alphas=(0.1,))

        rows = np.vstack([_design_matrix(spaces[c], c, features, 2) for c in contexts])
        values = np.concatenate(phi_hats)
        moments = fold_moments_from_rows(rows, values, folds=5)
        streamed = _fold_moments(targets, 2, folds=5)
        for name in ("xtx", "xty", "yty", "counts"):
            np.testing.assert_allclose(
                getattr(streamed, name), getattr(moments, name), rtol=1e-12, atol=1e-12
            )
        assert cv_select_alpha(moments, np.ones(rows.shape[1]), (0.1,)) == 0.1
        expected = solve_ridge(
            moments.xtx.sum(axis=0), moments.xty.sum(axis=0), 0.1, np.ones(rows.shape[1])
        )
        np.testing.assert_allclose(scorer.weights, expected, atol=1e-10)


def test_decomposed_targets_reject_malformed_blocks():
    space = SlateSpace.ranking(3, 2)
    features = unit_features(space)

    def build(rows, blocks):
        return DecomposedTargets(
            contexts=("a", "b"), rows=rows, phi_hats=blocks,
            spaces={"a": space, "b": space}, features=features, num_slots=2,
        )

    assert len(build((np.array([0, 2]), np.array([1])), (np.zeros((2, 6)), np.zeros((1, 6))))) == 3
    for rows, blocks in (
        ((np.array([0, 2]), np.array([2])), (np.zeros((2, 6)), np.zeros((1, 6)))),  # repeat
        ((np.array([0, 3]), np.array([1])), (np.zeros((2, 6)), np.zeros((1, 6)))),  # gap
        ((np.array([0, 2]), np.array([1])), (np.zeros((2, 6)), np.zeros((1, 5)))),  # shape
    ):
        with pytest.raises(ConfigurationError, match="exactly once"):
            build(rows, blocks)


def test_fit_scorer_deterministic():
    space = SlateSpace.ranking(3, 2)
    features = unit_features(space, dim=2, seed=7)
    rng = np.random.default_rng(7)
    targets = DecomposedTargets(
        contexts=("a",),
        rows=(np.arange(20),),
        phi_hats=(rng.normal(size=(20, space.dim)),),
        spaces={"a": space},
        features=features,
        num_slots=2,
    )
    first = fit_scorer(targets)
    second = fit_scorer(targets)
    np.testing.assert_array_equal(first.weights, second.weights)


class _TableScorer:
    """Score table handed in directly; used to drive greedy with known values."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def score_matrix(self, context, space, features):
        return self.table


def test_greedy_unique_maximizers():
    space = SlateSpace.ranking(3, 2)
    scorer = _TableScorer([[0.1, 0.9, 0.2], [0.8, 0.95, 0.3]])
    # (1, 1) wins round one; slot 1 and action 1 leave; then (0, 2) beats (0, 0)
    assert greedy_slate(scorer, "q", space, unit_features(space)) == (2, 1)


def test_greedy_ranking_never_repeats_actions():
    space = SlateSpace.ranking(4, 3)
    rng = np.random.default_rng(8)
    for _ in range(50):
        scorer = _TableScorer(rng.normal(size=(3, 4)))
        slate = greedy_slate(scorer, "q", space, unit_features(space))
        assert len(set(slate)) == 3


def test_greedy_cartesian_reuses_action_ids():
    space = SlateSpace.cartesian((2, 2))
    scorer = _TableScorer([[1.0, 0.0], [1.0, 0.0]])
    assert greedy_slate(scorer, "q", space, unit_features(space)) == (0, 0)


def test_greedy_cartesian_ragged_slot_counts():
    # slot 0 has two actions, slot 1 has three; padding cells never win
    space = SlateSpace.cartesian((2, 3))
    table = np.array([[0.4, 0.1, -np.inf], [0.3, 0.2, 0.9]])
    slate = greedy_slate(_TableScorer(table), "q", space, unit_features(space))
    assert slate == (0, 2)
    assert is_valid(space, slate)


def test_greedy_all_equal_scores_takes_lexicographic_slate():
    space = SlateSpace.ranking(5, 3)
    scorer = _TableScorer(np.zeros((3, 5)))
    assert greedy_slate(scorer, "q", space, unit_features(space)) == (0, 1, 2)


def test_true_intrinsic_scorer_reaches_perfect_ndcg():
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=20, docs_per_query=8, feature_dim=12, title_dims=6, seed=9)
    )
    config = ExperimentConfig(m=6, slots=3, title_dims=6)
    instance = build_instance(dataset, config)

    class _IntrinsicScorer:
        def score_matrix(self, context, space, features):
            return instance.intrinsic(context).reshape(space.num_slots, -1)

    scored = [c for c in instance.contexts if instance.arms[c].dcg_star > 0]
    value = evaluate_learned(_IntrinsicScorer(), instance, scored)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_random_scorer_matches_uniform_policy_value():
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=25, docs_per_query=8, feature_dim=12, title_dims=6, seed=10)
    )
    config = ExperimentConfig(m=6, slots=2, title_dims=6)
    instance = build_instance(dataset, config)
    uniform_value = np.mean(
        [
            float(UniformPolicy(instance.space_of(c)).mean_indicator(c) @ instance.intrinsic(c))
            for c in instance.contexts
        ]
    )
    rng = np.random.default_rng(11)
    values = []
    for _ in range(300):
        scorer = _TableScorer(rng.normal(size=(2, 6)))
        values.append(
            np.mean([
                instance.ndcg(c, greedy_slate(scorer, c, instance.space_of(c), instance.features))
                for c in instance.contexts
            ])
        )
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(np.mean(values) - uniform_value) < 4 * se + 1e-9


def test_end_to_end_improves_on_logging():
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=60, docs_per_query=12, feature_dim=16, title_dims=8, seed=12)
    )
    config = ExperimentConfig(m=8, slots=3, title_dims=8, seed=3)
    instance = build_instance(dataset, config)
    rng = np.random.default_rng(np.random.SeedSequence([3, 0]))
    logs = draw_logs(instance, 20_000, rng)
    targets = decompose(logs, instance.logging, features=instance.features)
    scorer = fit_scorer(targets)
    learned = evaluate_learned(scorer, instance)
    logged = instance.policy_value(instance.logging)
    assert learned > logged * 1.1


def test_sup_scorer_slates_sort_by_predicted_gain():
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=30, docs_per_query=10, feature_dim=12, title_dims=6, seed=13)
    )
    config = ExperimentConfig(m=8, slots=3, title_dims=6)
    instance = build_instance(dataset, config)
    scorer = fit_sup_scorer(instance, target="gain")
    context = instance.contexts[0]
    space = instance.space_of(context)
    slate = greedy_slate(scorer, context, space, instance.features)
    scores = scorer.score_matrix(context, space, instance.features)[0]
    expected = tuple(np.argsort(-scores, kind="stable")[:3])
    assert slate == expected


def fold_moment_inputs():
    """The same-dims and mixed-dims target sets of the row-reference test,
    plus a decomposed log with many rows per context block."""
    # one map for both space sets: its tables follow the set in use
    features = unit_features(lambda c: spaces[c], dim=2, seed=6)
    contexts = tuple(f"q{i % 3}" for i in range(11))
    same_dims = {c: SlateSpace.ranking(3, 2) for c in contexts}
    mixed_dims = {
        "q0": SlateSpace.ranking(3, 2),
        "q1": SlateSpace.ranking(4, 2),
        "q2": SlateSpace.cartesian((2, 3)),
    }
    for spaces in (same_dims, mixed_dims):
        rng = np.random.default_rng(6)
        phi_hats = tuple(rng.normal(size=spaces[c].dim) for c in contexts)
        yield per_example_targets(contexts, phi_hats, spaces, features, 2)
    rng = np.random.default_rng(8)
    contexts = [f"q{i}" for i in rng.integers(0, 3, size=400)]
    phi_hats = [rng.normal(size=mixed_dims[c].dim) * 10.0 ** rng.uniform(-3, 3) for c in contexts]
    yield per_example_targets(contexts, phi_hats, mixed_dims, features, 2)


@pytest.mark.parametrize("folds", [2, 3, 5])
def test_fold_moments_equal_bincount_reference_exactly(folds):
    for targets in fold_moment_inputs():
        got = _fold_moments(targets, 2, folds)
        want = fold_moments_reference(targets, 2, folds)
        for name in ("xtx", "xty", "yty", "counts"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize(
    "space",
    [
        SlateSpace.ranking(5, 3),
        SlateSpace.ranking(4, 4),
        SlateSpace.ranking(9, 2),
        SlateSpace.cartesian((2, 3)),
        SlateSpace.cartesian((4, 1, 3)),
        SlateSpace.cartesian((3, 3)),
    ],
    ids=lambda space: f"{space.kind.value}-{'x'.join(map(str, space.slot_counts))}",
)
def test_stacked_greedy_matches_one_context_greedy(space):
    """One greedy pass over a stack of score tables gives every context the
    slate the one-context greedy and the scalar reference give it, with
    near-ties planted around the 1e-9 tolerance and tables of repeated
    values."""
    rng = np.random.default_rng(space.dim)
    width = max(space.slot_counts)
    padding = np.arange(width) >= np.array(space.slot_counts)[:, None]
    tables = []
    for i in range(90):
        table = rng.normal(size=(space.num_slots, width)) * 10.0 ** rng.integers(-3, 7)
        if i % 3 == 1:
            best = table[~padding].max()
            planted = rng.random(table.shape) < 0.5
            gaps = rng.choice([0.0, 0.4e-9, 0.99e-9, 1.01e-9, 3e-9], size=planted.sum())
            table[planted] = best - gaps * max(1.0, abs(best))
        elif i % 3 == 2:
            table = rng.integers(0, 3, size=table.shape).astype(np.float64)
        table[padding] = -np.inf
        tables.append(table)
    stacked = _greedy_slates(np.stack(tables), space)
    for table, row in zip(tables, stacked):
        one = greedy_slate(_TableScorer(table), "q", space, unit_features(space))
        assert tuple(row.tolist()) == one == greedy_reference(table, space)


def two_space_instance():
    """Every third query keeps 5 of its 8 documents, so its pool, and its
    ranking space, is smaller than the m = 6 of the others."""
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=24, docs_per_query=8, feature_dim=12, title_dims=6, seed=21)
    )
    queries = tuple(
        Query(q.query_id, q.documents[:5] if i % 3 == 0 else q.documents)
        for i, q in enumerate(dataset.queries)
    )
    instance = build_instance(RankingDataset(queries), ExperimentConfig(m=6, slots=3, title_dims=6))
    assert {instance.space_of(c).dim for c in instance.contexts} == {15, 18}
    return instance


def test_evaluate_learned_over_two_spaces_matches_per_context_greedy():
    instance = two_space_instance()
    logs = draw_logs(instance, 3000, np.random.default_rng(2))
    for scorer in (
        fit_scorer(decompose(logs, instance.logging, features=instance.features)),
        fit_sup_scorer(instance, target="gain"),
    ):
        # caller's order: reversed, interleaving the two spaces
        contexts = instance.contexts[::-1]
        total = 0.0
        for context in contexts:
            slate = greedy_slate(scorer, context, instance.space_of(context), instance.features)
            total += instance.ndcg(context, slate)
        assert evaluate_learned(scorer, instance, contexts) == total / len(contexts)


class _CountingInstance:
    """An instance whose feature map counts its calls per context."""

    def __init__(self, instance):
        self.contexts = instance.contexts
        self.space_of = instance.space_of
        self.ndcg = instance.ndcg
        self.calls = Counter()
        self._features = instance.features

    def features(self, context):
        self.calls[context] += 1
        return self._features(context)


def test_feature_map_is_read_once_per_context_per_call():
    instance = two_space_instance()
    counting = _CountingInstance(instance)
    train, test = instance.contexts[::2], instance.contexts[1::2]
    logs = draw_logs(instance, 2000, np.random.default_rng(3), contexts=train)
    targets = decompose(logs, instance.logging, features=counting.features)
    assert not counting.calls
    for _ in range(2):
        counting.calls.clear()
        scorer = fit_scorer(targets, folds=3)
        assert counting.calls == {c: 1 for c in targets.contexts}
    for _ in range(2):
        counting.calls.clear()
        evaluate_learned(scorer, counting, test)
        assert counting.calls == {c: 1 for c in test}
    held_out = draw_logs(instance, 300, np.random.default_rng(4), contexts=test)
    for _ in range(2):
        counting.calls.clear()
        model = fit_dm(logs, counting.features, instance.space_of)
        assert counting.calls == {c: 1 for c in targets.contexts}
    for _ in range(2):
        counting.calls.clear()
        estimate_dm(model, held_out, instance.target)
        assert counting.calls == {c: 1 for c in test}
