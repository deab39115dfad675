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
    SlateError,
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
)
from helpers import (
    is_valid,
    _design_matrix,
    _fold_moments,
    decompose_reference,
    example_targets,
    fold_moments_reference,
    greedy_reference,
    greedy_slate,
    keyed_features,
)
from slateval import moments
from slateval.moments import moment_matrix
from slateval.optimization import FOLDS, DecomposedTargets, PointwiseScorer, _greedy_slates
from slateval.ridge import fold_moments_from_rows, cv_select_alpha


def unit_features(space, dim=4, seed=0):
    return keyed_features(space, dim, seed)


def test_decompose_uniform_ranking_worked_example():
    """One example, starting at row 0, so class 0 holds its targets."""
    space = SlateSpace.ranking(2, 2)
    logging = UniformPolicy(space)
    logs = [LoggedExample("q", (0, 1), 1.0)]
    targets = decompose(logs, logging, features=unit_features(space))
    assert targets.contexts == ("q",) and len(targets) == 1
    np.testing.assert_array_equal(targets.counts[0], [1, 0, 0, 0, 0])
    want = np.zeros((FOLDS, space.dim))
    want[0] = [1.0, 0.0, 0.0, 1.0]
    np.testing.assert_allclose(targets.phi_hats[0], want, atol=1e-12)
    reference = decompose_reference(logs, logging, PinvSource())
    np.testing.assert_allclose(reference.blocks[0], want[:1], atol=1e-12)


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
def test_decompose_class_sums_equal_the_column_sum_reference(case):
    """The class counts and target sums equal those of the per-example
    column-sum targets; the ranking(6, 3) and cartesian (3, 2, 4) dims, 18
    and 9, put the examples in every residue class."""
    space, logging, logs = decompose_case(case)
    source = PinvSource()
    targets = decompose(logs, logging, features=unit_features(space), pinv_source=source)
    expected = decompose_reference(logs, logging, source).summed()
    assert targets.contexts == expected.contexts and len(targets.contexts) == 3
    assert len(targets) == len(logs)
    for counts, sums, want_counts, want_sums in zip(
        targets.counts, targets.phi_hats, expected.counts, expected.phi_hats
    ):
        np.testing.assert_array_equal(counts, want_counts)
        scale = np.abs(want_sums).max()
        np.testing.assert_allclose(sums, want_sums, rtol=1e-12, atol=1e-12 * scale)
    if space.dim % FOLDS:
        assert all((counts > 0).all() for counts in targets.counts)


def test_decompose_builds_the_missing_logging_records_of_a_space_together(monkeypatch):
    space, logging, logs = decompose_case("plackett-luce")
    sizes = []

    def counted(policy, contexts, space=None):
        sizes.append(len(contexts) if isinstance(contexts, list) else 1)
        return moment_matrix(policy, contexts, space)

    monkeypatch.setattr(moments, "moment_matrix", counted)
    decompose(logs, logging, features=unit_features(space))
    assert sizes == [3]


@pytest.mark.parametrize(
    "slates, named",
    [
        ({"a": (0, 1), "b": (1, 3)}, "b"),  # only the second context's slate is invalid
        ({"a": (2, 2), "b": (1, 3)}, "a"),  # both are: the first in batch order
    ],
)
def test_decompose_error_names_the_first_invalid_context(slates, named):
    space = SlateSpace.ranking(3, 2)
    logs = [LoggedExample("a", (1, 0), 0.5)]
    logs += [LoggedExample(c, slate, 1.0) for c, slate in slates.items()]
    with pytest.raises(SlateError, match=f"invalid slate at context '{named}'"):
        decompose(logs, UniformPolicy(space), features=unit_features(space))


def test_decompose_error_names_the_first_invalid_context_across_spaces():
    """Contexts a and c share a space and b has its own; with b and c
    invalid, the error names b, which comes first in batch order."""
    spaces = {"a": SlateSpace.ranking(4, 2), "b": SlateSpace.ranking(3, 2)}
    spaces["c"] = spaces["a"]
    logs = [
        LoggedExample("a", (3, 0), 1.0),
        LoggedExample("b", (2, 3), 1.0),
        LoggedExample("c", (1, 1), 1.0),
    ]
    with pytest.raises(SlateError, match="invalid slate at context 'b'"):
        decompose(logs, UniformPolicy(spaces), features=unit_features(spaces.__getitem__))


def test_decompose_zero_reward_zero_targets():
    space = SlateSpace.ranking(3, 2)
    logging = UniformPolicy(space)
    targets = decompose([LoggedExample("q", (1, 2), 0.0)], logging, features=unit_features(space))
    assert targets.phi_hats[0].shape == (FOLDS, space.dim)
    assert np.all(targets.phi_hats[0] == 0.0)
    np.testing.assert_array_equal(targets.counts[0], [1, 0, 0, 0, 0])


def test_decomposed_targets_recover_reward_through_logging_mean():
    """q_logging' phi_hat equals the logged reward, example by example, so
    q_logging' times a class's target sum equals the class's reward sum."""
    from helpers import mixture_logging_policy, make_ada_instance, draw_ada_logs

    instance = make_ada_instance(seed=4)
    rng = np.random.default_rng(4)
    logging = mixture_logging_policy(instance, 0.5, rng)
    logs = draw_ada_logs(instance, logging, 60, rng)
    targets = decompose(logs, logging, features=unit_features(instance.space))
    reference = decompose_reference(logs, logging, PinvSource())
    assert len(targets) == len(logs)
    rewards = {}
    for example in logs:
        rewards.setdefault(example.context, []).append(example.reward)
    assert targets.contexts == reference.contexts == tuple(rewards)
    parts = zip(targets.contexts, targets.counts, targets.phi_hats, reference.blocks)
    for (context, counts, sums, block), residues in zip(parts, reference.residues):
        q = logging.mean_indicator(context)
        own = np.array(rewards[context])
        np.testing.assert_allclose(block @ q, own, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(counts, np.bincount(residues, minlength=FOLDS))
        want = [own[residues == r].sum() for r in range(FOLDS)]
        np.testing.assert_allclose(sums @ q, want, rtol=0, atol=1e-10)


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
    assert len(targets) == n and targets.phi_hats[0].shape == (FOLDS, space.dim)
    mean_phi_hat = targets.phi_hats[0].sum(axis=0) / n

    theta = np.zeros(space.dim)
    for slate, p in logging.support("q"):
        theta += p * reward(slate) * space.indicator(slate)
    from slateval import pinv_numeric

    expected = pinv_numeric(moment_matrix(logging, "q")).entries @ theta
    assert np.abs(mean_phi_hat - expected).max() < 0.08


def test_fit_scorer_constant_targets():
    space = SlateSpace.ranking(3, 2)
    features = unit_features(space)
    contexts = [f"q{i}" for i in range(100)]
    phi_hats = [np.full(space.dim, 0.7) for _ in contexts]
    spaces = {c: space for c in contexts}
    targets = example_targets(contexts, phi_hats, spaces, features, 2).summed()
    scorer = fit_scorer(targets)
    for context in ("q0", "q5"):
        table = scorer.score_tables((context,), space, features)[0]
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
    spaces = {c: space for c in contexts}
    targets = example_targets(contexts, phi_hats, spaces, features, 2).summed()
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
        targets = example_targets(contexts, phi_hats, spaces, features, 2).summed()
        scorer = fit_scorer(targets, alphas=(0.1,))

        rows = np.vstack([_design_matrix(spaces[c], c, features, 2) for c in contexts])
        values = np.concatenate(phi_hats)
        moments = fold_moments_from_rows(rows, values, folds=FOLDS)
        streamed = _fold_moments(targets, 2)
        for name in ("xtx", "xty", "counts"):
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

    def build(contexts, counts, sums):
        return DecomposedTargets(
            contexts=contexts, counts=counts, phi_hats=sums,
            spaces={"a": space, "b": space}, features=features, num_slots=2,
        )

    two = np.array([1, 0, 1, 0, 0])
    assert len(build(("a", "b"), (two, two[::-1]), (np.zeros((5, 6)),) * 2)) == 4
    for contexts, counts, sums in (
        ((), (), ()),  # empty
        (("a", "b"), (two, two), (np.zeros((5, 6)), np.zeros((5, 5)))),  # sums shape
        (("a", "b"), (two, two), (np.zeros((5, 6)), np.zeros((4, 6)))),  # sums classes
        (("a", "b"), (two, two[:4]), (np.zeros((5, 6)),) * 2),  # counts shape
        (("a", "b"), (two,), (np.zeros((5, 6)),) * 2),  # counts missing
        (("a", "b"), (two, two), (np.zeros((5, 6)),)),  # sums missing
    ):
        with pytest.raises(ConfigurationError, match=r"\(5, dim\) sums and \(5,\) counts"):
            build(contexts, counts, sums)


def test_fit_scorer_deterministic():
    space = SlateSpace.ranking(3, 2)
    features = unit_features(space, dim=2, seed=7)
    rng = np.random.default_rng(7)
    phi_hats = rng.normal(size=(20, space.dim))
    targets = example_targets(["a"] * 20, phi_hats, {"a": space}, features, 2).summed()
    first = fit_scorer(targets)
    second = fit_scorer(targets)
    np.testing.assert_array_equal(first.weights, second.weights)


class _TableScorer:
    """Score table handed in directly; used to drive greedy with known values."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def score_tables(self, contexts, space, features):
        return np.broadcast_to(self.table, (len(contexts), *self.table.shape))


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
        def score_tables(self, contexts, space, features):
            return np.stack([instance.intrinsic(c).reshape(space.num_slots, -1) for c in contexts])

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
    scores = scorer.score_tables((context,), space, instance.features)[0, 0]
    expected = tuple(np.argsort(-scores, kind="stable")[:3])
    assert slate == expected


def fold_moment_input(case):
    """The same-dims or mixed-dims target set of the row-reference test, or
    a log over the mixed dims with many rows per context."""
    contexts = tuple(f"q{i % 3}" for i in range(11))
    if case == "same-dims":
        spaces = {c: SlateSpace.ranking(3, 2) for c in contexts}
    else:
        spaces = {
            "q0": SlateSpace.ranking(3, 2),
            "q1": SlateSpace.ranking(4, 2),
            "q2": SlateSpace.cartesian((2, 3)),
        }
    features = unit_features(spaces.__getitem__, dim=2, seed=6)
    if case == "many-rows":
        rng = np.random.default_rng(8)
        contexts = [f"q{i}" for i in rng.integers(0, 3, size=400)]
        phi_hats = [rng.normal(size=spaces[c].dim) * 10.0 ** rng.uniform(-3, 3) for c in contexts]
    else:
        rng = np.random.default_rng(6)
        phi_hats = tuple(rng.normal(size=spaces[c].dim) for c in contexts)
    return example_targets(contexts, phi_hats, spaces, features, 2)


@pytest.mark.parametrize("case", ["same-dims", "mixed-dims", "many-rows"])
def test_fold_moments_equal_bincount_reference_exactly(case):
    """The moments from the class sums equal per-(fold, coordinate)
    bincounts over every per-example row, bit for bit."""
    targets = fold_moment_input(case)
    got = _fold_moments(targets.summed(), 2)
    want = fold_moments_reference(targets, 2)
    for name in ("xtx", "xty", "counts"):
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
    sizes = [5 if i % 3 == 0 else 8 for i in range(24)]
    keep = np.concatenate([np.arange(8 * i, 8 * i + size) for i, size in enumerate(sizes)])
    truncated = RankingDataset(
        dataset.features[keep],
        dataset.labels[keep],
        tuple(dataset.doc_ids[i] for i in keep),
        dataset.query_ids,
        np.concatenate([[0], np.cumsum(sizes)]),
    )
    instance = build_instance(truncated, ExperimentConfig(m=6, slots=3, title_dims=6))
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


@pytest.mark.parametrize(
    "space", [SlateSpace.ranking(6, 3), SlateSpace.cartesian((2, 4, 3))], ids=["ranking", "ragged"]
)
def test_stacked_scores_equal_one_context_products_bitwise(space):
    """The stacked score tables of many contexts hold each context's own
    (dim, feature_dim) @ weights product, bit for bit; cells past a short
    slot's actions are -inf."""
    features = unit_features(space, dim=5, seed=3)
    rng = np.random.default_rng(4)
    scorer = PointwiseScorer(rng.normal(size=space.num_slots + 5), space.num_slots, 5, 1.0)
    contexts = [f"q{i}" for i in range(7)]
    stack = scorer.score_tables(contexts, space, features)
    width = max(space.slot_counts)
    filled = np.arange(width) < np.array(space.slot_counts)[:, None]
    for context, table in zip(contexts, stack):
        want = features(context) @ scorer.feature_weights()
        want += np.repeat(scorer.slot_weights(), space.slot_counts)
        assert table[filled].tobytes() == want.tobytes()
        assert (table[~filled] == -np.inf).all()
        assert np.array_equal(scorer.score_tables((context,), space, features)[0], table)


@pytest.mark.parametrize(
    "call",
    [
        lambda instance, scorer: evaluate_learned(scorer, instance, []),
        lambda instance, scorer: fit_sup_scorer(instance, []),
        lambda instance, scorer: instance.policy_value(instance.logging, []),
    ],
    ids=["evaluate_learned", "fit_sup_scorer", "policy_value"],
)
def test_an_empty_context_list_is_a_configuration_error(call):
    instance = two_space_instance()
    scorer = fit_sup_scorer(instance, target="gain")
    with pytest.raises(ConfigurationError, match="no contexts"):
        call(instance, scorer)


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
        scorer = fit_scorer(targets)
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
