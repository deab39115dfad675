import numpy as np
import pytest

from slateval import (
    ConfigurationError,
    ExperimentConfig,
    GeneratorConfig,
    UniformPolicy,
    build_instance,
    draw_logs,
    estimate_wsb,
    generate_synthetic,
    run_rmse_sweep,
)
from slateval.moments import PinvSource
from slateval.policies import DeterministicPolicy, MultinomialWoRPolicy
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
    context = instance.contexts[0]
    assert instance.logging.is_uniform(context)


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
    X = np.stack([d.features for q in dataset.queries for d in q.documents])
    y = np.array([d.relevance for q in dataset.queries for d in q.documents], dtype=float)
    corr = np.corrcoef(model.score(X), y)[0, 1]
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
