from dataclasses import replace

import numpy as np
import pytest

from slateval import (
    ConfigurationError,
    ExperimentConfig,
    GeneratorConfig,
    RankingDataset,
    UniformMixturePolicy,
    UniformPolicy,
    build_instance,
    draw_logs,
    estimate_wsb,
    generate_synthetic,
    run_rmse_sweep,
)
from slateval import policies
from slateval.moments import PinvSource
from slateval.policies import DeterministicPolicy, MultinomialWoRPolicy
from slateval.ridge import add_intercept
from slateval.simulation import (
    _run_once,
    fit_score_model,
    position_discounts,
    sweep_aggregate_csv,
    sweep_rows_csv,
)


def small_instance(m=6, slots=2, alpha=0.0, queries=30, gseed=0, **kwargs):
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=queries, docs_per_query=m + 3, feature_dim=12, title_dims=6, seed=gseed)
    )
    config = ExperimentConfig(m=m, slots=slots, alpha=alpha, title_dims=6, **kwargs)
    return build_instance(dataset, config), config


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(m=3, slots=4)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(m=5, slots=2, alpha=-1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(m=5, slots=2, runs=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(m=5, slots=2, estimators=("nope",))


def test_ndcg_worked_example():
    """Pool with relevances {2, 1} on two slots: best order scores
    3 + 1/log2(3), reversed order 1 + 3/log2(3)."""
    discounts = position_discounts(2)
    gains = np.array([3.0, 1.0])
    dcg_star = gains @ discounts
    assert dcg_star == pytest.approx(3.63093, abs=1e-5)
    reversed_dcg = 1.0 + 3.0 / np.log2(3)
    assert reversed_dcg == pytest.approx(2.89279, abs=1e-5)
    assert reversed_dcg / dcg_star == pytest.approx(0.79671, abs=1e-5)


def test_instance_ndcg_bounds_and_ideal_slate():
    instance, _ = small_instance()
    for context in instance.contexts[:10]:
        arm = instance.arms[context]
        space = arm.space
        values = [instance.ndcg(context, s) for s in space.enumerate_slates()]
        assert min(values) >= 0.0 and max(values) <= 1.0
        if arm.dcg_star > 0:
            assert max(values) == pytest.approx(1.0, abs=1e-12)
        else:
            assert max(values) == 0.0


def test_ada_exactness_of_rewards():
    instance, _ = small_instance(gseed=3)
    rng = np.random.default_rng(0)
    for context in instance.contexts:
        space = instance.space_of(context)
        for _ in range(20):
            slate = UniformPolicy(space).sample(context, rng)
            direct = instance.slot_values(context, slate).sum()
            assert abs(instance.ndcg(context, slate) - direct) <= 1e-12


def test_alpha_zero_logging_is_uniform():
    instance, _ = small_instance(alpha=0.0)
    assert instance.logging.uniform


def test_large_alpha_concentrates_on_title_ranking():
    # fitted title scores sit close together, so the temperature must be
    # large before the top ranking dominates
    instance, _ = small_instance(alpha=20_000.0)
    context = instance.contexts[0]
    arm = instance.arms[context]
    order = np.argsort(-arm.title_scores, kind="stable")[: arm.space.num_slots]
    top_slate = tuple(int(a) for a in order)
    assert instance.logging.slate_prob(context, top_slate) > 0.999


def test_target_slate_does_not_depend_on_alpha():
    a, _ = small_instance(alpha=0.0)
    b, _ = small_instance(alpha=12.0)
    for context in a.contexts:
        assert a.arms[context].target_slate == b.arms[context].target_slate


def test_pool_is_top_m_by_title_score():
    instance, _ = small_instance(m=4)
    dataset_m = 7  # docs_per_query = m + 3
    for context in instance.contexts[:5]:
        arm = instance.arms[context]
        assert len(arm.pool_doc_ids) == 4
        assert len(set(arm.pool_doc_ids)) == 4


def test_queries_keep_all_docs_when_short():
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=10, docs_per_query=4, feature_dim=12, title_dims=6, seed=1)
    )
    config = ExperimentConfig(m=9, slots=3, title_dims=6)
    instance = build_instance(dataset, config)
    for context in instance.contexts:
        assert instance.space_of(context).num_actions == 4


def test_draw_logs_rewards_and_validity():
    instance, _ = small_instance()
    rng = np.random.default_rng(4)
    logs = draw_logs(instance, 500, rng)
    assert len(logs) == 500
    for ex in logs[:50]:
        space = instance.space_of(ex.context)
        space.validate(ex.slate)
        assert 0.0 <= ex.reward <= 1.0
        assert len(ex.slot_values) == space.num_slots


def test_draw_logs_reproducible():
    instance, _ = small_instance()
    a = draw_logs(instance, 100, np.random.default_rng(9))
    b = draw_logs(instance, 100, np.random.default_rng(9))
    assert a == b


def test_bernoulli_noise_keeps_rewards_binary():
    instance, _ = small_instance(noise="bernoulli")
    logs = draw_logs(instance, 200, np.random.default_rng(2))
    assert set(ex.reward for ex in logs) <= {0.0, 1.0}


def test_semibandit_estimators_match_mean_reward_on_logging():
    instance, _ = small_instance()
    rng = np.random.default_rng(5)
    logs = draw_logs(instance, 400, rng)
    report = estimate_wsb(logs, instance.logging, instance.logging)
    mean_reward = np.mean([ex.reward for ex in logs])
    assert report.estimate == pytest.approx(mean_reward, abs=1e-10)


def test_wsb_single_log_sums_slot_values():
    instance, _ = small_instance()
    logs = draw_logs(instance, 1, np.random.default_rng(6))
    report = estimate_wsb(logs, instance.logging, instance.logging)
    assert report.estimate == pytest.approx(sum(logs[0].slot_values))


def test_wsb_no_worse_than_sb():
    instance, config = small_instance(
        m=10, slots=3, queries=60, n_grid=(10_000,), runs=10, seed=5, estimators=("sb", "wsb")
    )
    result = run_rmse_sweep(instance, config)
    assert result.rmse("wsb", 10_000) <= result.rmse("sb", 10_000)


def test_sb_above_enumeration_cap_reads_the_second_moment_sample():
    """Above the cap, per-slot marginals are masked sums over the
    mc_samples draws of moment_arrays."""
    from slateval import SlateSpace
    from slateval.policies import MultinomialWoRPolicy, UniformMixturePolicy
    from slateval.simulation import SemibanditExample, estimate_sb

    space = SlateSpace.ranking(6, 3)  # 120 slates, above a cap of 50
    scores = {c: np.linspace(0.0, 1.5, 6)[::s] for c, s in (("a", 1), ("b", -1))}
    kw = dict(enumeration_cap=50, mc_samples=4000, mc_seed=5)
    logging = MultinomialWoRPolicy(space, scores, temperature=2.0, **kw)
    base = MultinomialWoRPolicy(space, scores, temperature=0.5, **kw)
    target = UniformMixturePolicy(base, 0.3, **kw)
    rng = np.random.default_rng(3)
    data = []
    for i in range(40):
        c = "ab"[i % 2]
        slate = tuple(int(a) for a in logging.sample_batch(c, 1, rng)[0])
        vals = tuple(float(v) for v in rng.random(3) / 3)
        data.append(SemibanditExample(c, slate, sum(vals), vals))

    def marginal(policy, context, slot, action):
        arrays = policy.moment_arrays(context)
        return float(arrays.probs[arrays.actions[:, slot] == action].sum())

    expected = 0.0
    for ex in data:
        for slot, (action, value) in enumerate(zip(ex.slate, ex.slot_values)):
            t = 0.3 / 6 + 0.7 * marginal(base, ex.context, slot, action)
            expected += value * t / marginal(logging, ex.context, slot, action) / len(data)
    sb = estimate_sb(data, logging, target).estimate
    assert sb == pytest.approx(expected, rel=1e-12)
    assert sb == pytest.approx(0.495935681519692, rel=1e-12)
    assert estimate_wsb(data, logging, target).estimate == pytest.approx(0.5190328075073, rel=1e-12)


def test_sweep_records_zero_estimate_when_wips_has_no_matches():
    """At tiny n a deterministic target rarely matches any logged slate;
    the sweep then records the squared error of a zero estimate instead of
    aborting the run."""
    instance, config = small_instance(
        m=8, slots=3, queries=40, n_grid=(3,), runs=6, seed=11, estimators=("wips",)
    )
    result = run_rmse_sweep(instance, config)
    target_value = result.target_value
    expected_when_empty = target_value**2
    no_match_rows = [
        row for row in result.rows if abs(row.squared_error - expected_when_empty) < 1e-12
    ]
    assert len(no_match_rows) >= 1


def test_sweep_reproducible_and_csv_stable():
    instance, config = small_instance(
        n_grid=(200, 400), runs=3, seed=21, estimators=("pi", "ips", "wips")
    )
    first = run_rmse_sweep(instance, config)
    second = run_rmse_sweep(instance, config)
    assert sweep_rows_csv(first) == sweep_rows_csv(second)
    assert sweep_aggregate_csv(first) == sweep_aggregate_csv(second)


def test_sweep_dm_split_is_first_half_train():
    """The direct method trains on the first half of each run's log and
    scores the second half."""
    from slateval.estimators import estimate_dm, fit_dm
    from slateval.moments import PinvSource
    from slateval.simulation import _run_once

    instance, config = small_instance(n_grid=(240,), runs=1, seed=13, estimators=("dm",))
    estimates = _run_once(instance, config, 240, 0, PinvSource())
    rng = np.random.default_rng(np.random.SeedSequence([13, 0, 240]))
    logs = draw_logs(instance, 240, rng)
    model = fit_dm(logs[:120], instance.features, instance.space_of)
    expected = estimate_dm(model, logs[120:], instance.target).estimate
    assert estimates == [("dm", expected)]


def test_onpolicy_rmse_zero_on_single_query_instance():
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=1, docs_per_query=8, feature_dim=12, title_dims=6, seed=7)
    )
    config = ExperimentConfig(
        m=6, slots=2, title_dims=6, n_grid=(50,), runs=3, seed=1, estimators=("onpolicy",)
    )
    instance = build_instance(dataset, config)
    result = run_rmse_sweep(instance, config)
    assert result.rmse("onpolicy", 50) == pytest.approx(0.0, abs=1e-12)


def test_pi_rmse_decreases_with_n():
    instance, config = small_instance(
        m=8, slots=2, queries=50, n_grid=(100, 1000, 10_000), runs=12, seed=2, estimators=("pi",)
    )
    result = run_rmse_sweep(instance, config)
    values = [result.rmse("pi", n) for n in (100, 1000, 10_000)]
    assert values[0] > values[1] > values[2]


def test_score_model_orders_relevance():
    dataset = generate_synthetic(GeneratorConfig(num_queries=40, docs_per_query=8, seed=4))
    model = fit_score_model(dataset, range(12))
    X = dataset.features
    y = dataset.labels.astype(float)
    scores = add_intercept(X[:, model.feature_indices]) @ model.weights
    corr = np.corrcoef(scores, y)[0, 1]
    assert corr > 0.3


def test_a_sweep_cell_scores_each_context_once_per_policy(monkeypatch):
    """pi, wips and sb share one scoring pass: the logged slates of all the
    contexts, whose per-context spaces are equal, go through one row-level
    call of each policy."""
    instance, config = small_instance(
        alpha=1.0, n_grid=(300,), runs=1, estimators=("pi", "wips", "sb")
    )
    source = PinvSource()
    # the first cell fills the softmax policy's moment cache
    first = _run_once(instance, config, 300, 0, source)
    calls = []
    for cls in (MultinomialWoRPolicy, DeterministicPolicy):
        score = cls._slate_prob_rows

        def counted(self, contexts, codes, actions, score=score):
            calls.append((id(self), sorted(contexts[c] for c in set(codes.tolist()))))
            return score(self, contexts, codes, actions)

        monkeypatch.setattr(cls, "_slate_prob_rows", counted)
    assert _run_once(instance, config, 300, 0, source) == first
    cell_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0, 300]))
    logs = draw_logs(instance, 300, cell_rng)
    contexts = sorted({ex.context for ex in logs})
    assert len(contexts) > 1
    policies = sorted([id(instance.logging), id(instance.target)])
    assert sorted(policy for policy, _ in calls) == policies
    assert [seen for _, seen in calls] == [contexts] * 2


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_experiment_config_rejects_a_non_finite_temperature(alpha):
    with pytest.raises(ConfigurationError, match="finite nonnegative"):
        ExperimentConfig(m=5, slots=2, alpha=alpha)


def test_build_instance_names_the_configured_title_dims():
    """An out-of-range title block is reported as configured, not clamped to
    the data's dimension first."""
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=4, docs_per_query=5, feature_dim=10, title_dims=5, seed=1)
    )
    for title_dims in (30, 10, 0):
        with pytest.raises(ConfigurationError) as caught:
            build_instance(dataset, ExperimentConfig(m=4, slots=2, title_dims=title_dims))
        assert str(caught.value) == (
            f"title_dims {title_dims}: the title block [0, {title_dims}) must leave a "
            f"nonempty body block in 10 dimensions"
        )
    with pytest.raises(ConfigurationError) as caught:
        build_instance(dataset, ExperimentConfig(m=4, slots=2))
    assert str(caught.value).startswith("default title_dims 20: the title block [0, 20)")


@pytest.mark.parametrize("indices, bad", [([-1, -2], -1), ([0, -2], -2), ([3, 24], 24)])
def test_fit_score_model_rejects_indices_outside_the_features(indices, bad):
    dataset = generate_synthetic(GeneratorConfig(num_queries=4, docs_per_query=5, seed=1))
    with pytest.raises(ConfigurationError) as caught:
        fit_score_model(dataset, indices)
    assert str(caught.value) == f"feature index {bad} out of range for dimension 24"


def two_space_instance(alpha, noise="none"):
    """Every third query keeps 5 of its 8 documents, so its pool, and its
    ranking space, is smaller than the m = 6 of the others."""
    dataset = generate_synthetic(
        GeneratorConfig(num_queries=12, docs_per_query=8, feature_dim=12, title_dims=6, seed=21)
    )
    sizes = [5 if i % 3 == 0 else 8 for i in range(12)]
    keep = np.concatenate([np.arange(8 * i, 8 * i + size) for i, size in enumerate(sizes)])
    truncated = RankingDataset(
        dataset.features[keep],
        dataset.labels[keep],
        tuple(dataset.doc_ids[i] for i in keep),
        dataset.query_ids,
        np.concatenate([[0], np.cumsum(sizes)]),
    )
    config = ExperimentConfig(m=6, slots=3, alpha=alpha, title_dims=6, noise=noise)
    instance = build_instance(truncated, config)
    assert {instance.space_of(c).num_actions for c in instance.contexts} == {5, 6}
    return instance


def per_context_draw_logs(instance, n, rng, contexts=None, draw=None):
    """draw_logs one context at a time: each drawn context's slates in one
    call of ``draw(context, count, rng)``, contexts in pool order."""
    draw = draw or instance.logging.sample_batch
    pool = tuple(instance.contexts if contexts is None else contexts)
    picks = rng.integers(0, len(pool), size=n)
    actions = np.empty((n, instance.space_of(pool[0]).num_slots), dtype=np.int64)
    slot_values = np.empty(actions.shape)
    for code in np.unique(picks).tolist():
        rows = np.flatnonzero(picks == code)
        context = pool[code]
        slates = draw(context, len(rows), rng)
        actions[rows] = slates
        arm = instance.arms[context]
        slot_values[rows] = arm.intrinsic[arm.space.offsets + slates]
    values = np.clip(slot_values.sum(axis=1), 0.0, 1.0)
    if instance.noise == "bernoulli":
        values = (rng.random(n) < values).astype(np.float64)
    return picks, actions, values, slot_values


def gumbel_top_slots(instance):
    """Plackett-Luce draws at one context by Gumbel keys on its logits."""

    def draw(context, count, rng):
        space = instance.space_of(context)
        logits = instance.logging.action_logits(context)
        keys = logits + rng.gumbel(size=(count, space.num_actions))
        return np.argsort(-keys, axis=1, kind="stable")[:, : space.num_slots]

    return draw


def uniform_top_slots(instance):
    def draw(context, count, rng):
        space = instance.space_of(context)
        keys = rng.random((count, space.num_actions))
        return np.argsort(keys, axis=1, kind="stable")[:, : space.num_slots]

    return draw


@pytest.mark.parametrize("stack_rows", [None, 40])
@pytest.mark.parametrize("logging", ["pl0", "pl1", "pl40", "uniform", "mixture"])
def test_batched_draws_equal_per_context_draws(monkeypatch, logging, stack_rows):
    """draw_logs over two spaces, in one run or in many, draws what one call
    per context draws and leaves the generator in the same state."""
    if stack_rows is not None:
        monkeypatch.setattr(policies, "STACK_ROWS", stack_rows)
    temperature = {"pl0": 0.0, "pl1": 1.0, "pl40": 40.0}.get(logging, 1.0)
    instance = two_space_instance(temperature, noise="bernoulli" if logging == "pl1" else "none")
    spaces = {c: instance.space_of(c) for c in instance.contexts}
    if logging == "uniform":
        instance = replace(instance, logging=UniformPolicy(spaces))
        reference = uniform_top_slots(instance)
    elif logging == "mixture":
        instance = replace(instance, logging=UniformMixturePolicy(instance.logging, 0.4))
        reference = instance.logging.sample_batch
    else:
        reference = gumbel_top_slots(instance)
    subset = instance.contexts[::-1][:7]  # reversed: the two spaces interleave
    for n, contexts in ((1, None), (500, None), (500, subset), (3000, subset)):
        got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = draw_logs(instance, n, got_rng, contexts=contexts)
        picks, actions, rewards, slot_values = per_context_draw_logs(
            instance, n, want_rng, contexts, reference
        )
        assert np.array_equal(got.codes, picks)
        assert got.actions.dtype == np.int64 and np.array_equal(got.actions, actions)
        assert np.array_equal(got.rewards, rewards)
        assert np.array_equal(got.slot_values, slot_values)
        assert got_rng.random() == want_rng.random()


def test_draws_above_one_run_of_stack_rows():
    instance = two_space_instance(1.0)
    n = policies.STACK_ROWS + 5000
    got = draw_logs(instance, n, np.random.default_rng(3))
    want_rng = np.random.default_rng(3)
    _, actions, rewards, _ = per_context_draw_logs(
        instance, n, want_rng, draw=gumbel_top_slots(instance)
    )
    assert np.array_equal(got.actions, actions) and np.array_equal(got.rewards, rewards)


def test_score_ties_rank_documents_by_id():
    """Documents with equal scores keep the order of their ids: in the pool
    by title score, and in the target's ranking by body score."""
    rng = np.random.default_rng(8)
    features = rng.normal(size=(12, 4))
    features[1] = features[0]  # "q0d9" and "q0d1" tie on both scores
    dataset = RankingDataset(
        features,
        rng.integers(0, 3, size=12),
        ("q0d9", "q0d1", "q0d5", "q0d2", "q0d0", "q0d7")
        + tuple(f"q1d{i}" for i in range(6)),
        ("q0", "q1"),
        np.array([0, 6, 12]),
    )
    instance = build_instance(dataset, ExperimentConfig(m=6, slots=6, title_dims=2))
    arm = instance.arms["q0"]
    pool = arm.pool_doc_ids
    assert pool.index("q0d1") + 1 == pool.index("q0d9")
    ranked = [pool[a] for a in arm.target_slate]
    assert ranked.index("q0d1") + 1 == ranked.index("q0d9")
