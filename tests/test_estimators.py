import numpy as np
import pytest

from helpers import (
    draw_ada_logs,
    make_ada_instance,
    mixture_logging_policy,
    random_explicit_policy,
)
from slateval import (
    AbsoluteContinuityError,
    ConfigurationError,
    DeterministicPolicy,
    EstimatorReport,
    ExplicitPolicy,
    LoggedBatch,
    LoggedExample,
    PinvSource,
    SlateError,
    SlateSpace,
    UndefinedEstimateError,
    UniformPolicy,
    estimate_dm,
    estimate_ips,
    estimate_onpolicy,
    estimate_pi,
    estimate_wips,
    exact_policy_value,
    fit_dm,
)
from slateval.util import pairwise_sum


def test_pairwise_sum_matches_and_is_split_invariant():
    rng = np.random.default_rng(0)
    values = rng.normal(size=1001)
    assert pairwise_sum(values) == pytest.approx(values.sum(), rel=1e-12)
    # same bits regardless of a worker split boundary
    left, right = values[:500], values[500:]
    combined = pairwise_sum(values)
    assert combined == pairwise_sum(np.concatenate([left, right]))


def test_pi_equals_mean_reward_when_target_is_logging():
    rng = np.random.default_rng(1)
    for space in (SlateSpace.ranking(4, 1), SlateSpace.ranking(4, 2), SlateSpace.cartesian((3, 2, 2))):
        policy = random_explicit_policy(space, ["a", "b"], rng)
        logs = []
        for i in range(120):
            context = ("a", "b")[i % 2]
            slate = policy.sample(context, rng)
            logs.append(LoggedExample(context, slate, rng.uniform(-1, 1)))
        report = estimate_pi(logs, policy, policy)
        mean_reward = np.mean([ex.reward for ex in logs])
        assert abs(report.estimate - mean_reward) <= 1e-10


def test_pi_equals_ips_single_slot():
    rng = np.random.default_rng(2)
    space = SlateSpace.ranking(5, 1)
    logging = random_explicit_policy(space, ["x", "y"], rng)
    target = random_explicit_policy(space, ["x", "y"], rng)
    logs = []
    for i in range(300):
        context = ("x", "y")[i % 2]
        logs.append(LoggedExample(context, logging.sample(context, rng), rng.uniform(-1, 1)))
    pi = estimate_pi(logs, logging, target).estimate
    ips = estimate_ips(logs, logging, target).estimate
    assert abs(pi - ips) <= 1e-12


def test_pi_per_term_uniform_cartesian():
    space = SlateSpace.cartesian((3, 3))
    logging = UniformPolicy(space)
    target = DeterministicPolicy(space, {"q": (1, 2)})
    matched = estimate_pi([LoggedExample("q", (1, 2), 0.6)], logging, target)
    assert matched.estimate == pytest.approx(3.0, abs=1e-12)
    unmatched = estimate_pi([LoggedExample("q", (0, 1), 0.6)], logging, target)
    assert unmatched.estimate == pytest.approx(-0.6, abs=1e-12)


def test_pi_empty_data_errors():
    space = SlateSpace.ranking(3, 2)
    with pytest.raises(SlateError):
        estimate_pi([], UniformPolicy(space), UniformPolicy(space))


def test_pi_invalid_logged_slate_errors():
    space = SlateSpace.ranking(3, 2)
    policy = UniformPolicy(space)
    with pytest.raises(SlateError):
        estimate_pi([LoggedExample("q", (1, 1), 0.0)], policy, policy)


def test_pi_flags_support_violation():
    space = SlateSpace.ranking(3, 2)
    logging = DeterministicPolicy(space, {"q": (0, 1)})
    target = UniformPolicy(space)
    # the logged slate (1, 0) is impossible under the stated logging policy
    with pytest.raises(AbsoluteContinuityError):
        estimate_pi([LoggedExample("q", (1, 0), 0.5)], logging, target)


def test_pi_diagnostics_fields():
    rng = np.random.default_rng(3)
    instance = make_ada_instance(seed=3)
    logging = mixture_logging_policy(instance, 0.5, rng)
    target = random_explicit_policy(instance.space, instance.contexts, rng)
    logs = draw_ada_logs(instance, logging, 200, rng)
    report = estimate_pi(logs, logging, target, diagnostics=True, delta=0.1)
    assert report.sigma_sq is not None and report.sigma_sq > 0
    assert report.rho is not None and report.rho >= 0
    assert report.bound is not None and report.bound > 0
    assert report.delta == 0.1


def test_ips_unit_weights_give_mean_reward():
    rng = np.random.default_rng(4)
    space = SlateSpace.ranking(4, 2)
    policy = random_explicit_policy(space, ["q"], rng)
    logs = [LoggedExample("q", policy.sample("q", rng), rng.uniform(-1, 1)) for _ in range(50)]
    report = estimate_ips(logs, policy, policy)
    assert report.estimate == pytest.approx(np.mean([ex.reward for ex in logs]))


def test_wips_single_example_returns_its_reward():
    space = SlateSpace.ranking(3, 2)
    logging = UniformPolicy(space)
    target = random_explicit_policy(space, ["q"], np.random.default_rng(5))
    slate = next(iter(target.support("q")))[0]
    report = estimate_wips([LoggedExample("q", slate, 0.37)], logging, target)
    assert report.estimate == pytest.approx(0.37)


def test_ips_zero_when_target_never_matches():
    space = SlateSpace.ranking(3, 2)
    logging = UniformPolicy(space)
    target = DeterministicPolicy(space, {"q": (2, 1)})
    logs = [LoggedExample("q", (0, 1), 0.9), LoggedExample("q", (1, 0), 0.4)]
    assert estimate_ips(logs, logging, target).estimate == 0.0


def test_wips_all_zero_weights_is_undefined():
    space = SlateSpace.ranking(3, 2)
    logging = UniformPolicy(space)
    target = DeterministicPolicy(space, {"q": (2, 1)})
    logs = [LoggedExample("q", (0, 1), 0.9)]
    with pytest.raises(UndefinedEstimateError):
        estimate_wips(logs, logging, target)


def test_ips_zero_propensity_errors():
    space = SlateSpace.ranking(3, 2)
    logging = DeterministicPolicy(space, {"q": (0, 1)})
    target = UniformPolicy(space)
    with pytest.raises(AbsoluteContinuityError):
        estimate_ips([LoggedExample("q", (2, 1), 0.1)], logging, target)


def _constant_features(dim=3):
    rng = np.random.default_rng(11)
    table = {}

    def features(context, slot, action):
        key = (context, action)
        if key not in table:
            table[key] = rng.normal(size=dim)
        return table[key]

    return features


def test_dm_constant_rewards_recovers_constant():
    space = SlateSpace.ranking(4, 2)
    logging = UniformPolicy(space)
    rng = np.random.default_rng(6)
    logs = [LoggedExample("q", logging.sample("q", rng), 0.42) for _ in range(60)]
    model = fit_dm(logs, _constant_features())
    report = estimate_dm(model, logs, UniformPolicy(space))
    assert report.estimate == pytest.approx(0.42, abs=1e-6)


def test_dm_deterministic_target_scores_target_slate():
    space = SlateSpace.ranking(4, 2)
    logging = UniformPolicy(space)
    target = DeterministicPolicy(space, {"q": (3, 0)})
    rng = np.random.default_rng(7)
    features = _constant_features()
    logs = [LoggedExample("q", logging.sample("q", rng), rng.uniform(0, 1)) for _ in range(80)]
    model = fit_dm(logs, features)
    report = estimate_dm(model, logs[:10], target)
    assert report.estimate == pytest.approx(model.predict("q", (3, 0)))


def test_dm_stochastic_target_monte_carlo_inner_sum():
    """Above the enumeration cap the target expectation is sampled with a
    fixed per-context seed, so repeated calls agree."""
    space = SlateSpace.ranking(4, 2)
    logging = UniformPolicy(space)
    target = random_explicit_policy(space, ["q"], np.random.default_rng(21))
    rng = np.random.default_rng(22)
    logs = [LoggedExample("q", logging.sample("q", rng), rng.uniform(0, 1)) for _ in range(60)]
    model = fit_dm(logs, _constant_features())
    exact = estimate_dm(model, logs, target).estimate
    sampled_a = estimate_dm(model, logs, target, enumeration_cap=1, mc_slates=4000).estimate
    sampled_b = estimate_dm(model, logs, target, enumeration_cap=1, mc_slates=4000).estimate
    assert sampled_a == sampled_b
    assert sampled_a == pytest.approx(exact, abs=0.05)


def test_dm_prediction_clamped():
    space = SlateSpace.ranking(3, 2)
    model = fit_dm(
        [LoggedExample("q", (0, 1), 1.0), LoggedExample("q", (1, 0), -1.0)],
        _constant_features(),
    )
    assert -1.0 <= model.predict("q", (0, 1)) <= 1.0


class _TinyEnv:
    def __init__(self, instance):
        self.instance = instance

    def sample_context(self, rng):
        return self.instance.sample_context(rng)

    def reward(self, context, slate, rng):
        return self.instance.reward(context, slate, rng)


def test_onpolicy_exact_for_single_context_deterministic():
    instance = make_ada_instance(SlateSpace.ranking(4, 2), num_contexts=1, seed=9)
    slate = (2, 0)
    target = DeterministicPolicy(instance.space, {0: slate})
    rng = np.random.default_rng(0)
    report = estimate_onpolicy(target, _TinyEnv(instance), 7, rng)
    assert report.estimate == pytest.approx(instance.reward(0, slate), abs=1e-12)


def test_onpolicy_close_to_enumerated_value():
    instance = make_ada_instance(seed=10)
    rng = np.random.default_rng(13)
    target = random_explicit_policy(instance.space, instance.contexts, rng)
    n = 4000
    report = estimate_onpolicy(target, _TinyEnv(instance), n, np.random.default_rng(1))
    truth = exact_policy_value(target, instance.contexts, instance.reward)
    assert abs(report.estimate - truth) <= 3 * 0.5 / np.sqrt(n) + 1e-12


def test_onpolicy_reproducible_and_validates_n():
    instance = make_ada_instance(seed=11)
    target = UniformPolicy(instance.space)
    a = estimate_onpolicy(target, _TinyEnv(instance), 50, np.random.default_rng(3))
    b = estimate_onpolicy(target, _TinyEnv(instance), 50, np.random.default_rng(3))
    assert a.estimate == b.estimate
    with pytest.raises(ConfigurationError):
        estimate_onpolicy(target, _TinyEnv(instance), 0, np.random.default_rng(3))


def test_pi_runs_on_monte_carlo_moments_above_cap():
    """Forcing the enumeration cap below the space size exercises the
    sampled-moment path end to end; the estimate stays near the truth and
    is reproducible because per-context sampling is seeded."""
    from slateval import MultinomialWoRPolicy

    space = SlateSpace.ranking(9, 4)  # 3024 slates
    rng = np.random.default_rng(15)
    scores = {"q": rng.normal(size=9)}
    logging = MultinomialWoRPolicy(
        space, scores, 1.0, enumeration_cap=1000, mc_samples=60_000, mc_seed=2
    )
    phi = rng.uniform(0.0, 0.25, size=space.dim)

    def reward(slate):
        return float(phi[space.coords(slate)].sum())

    target = DeterministicPolicy(space, {"q": (1, 2, 3, 4)})
    logs = [LoggedExample("q", logging.sample("q", rng), 0.0) for _ in range(800)]
    logs = [LoggedExample(ex.context, ex.slate, reward(ex.slate)) for ex in logs]
    first = estimate_pi(logs, logging, target).estimate
    second = estimate_pi(logs, logging, target).estimate
    assert first == second
    exact_logging = MultinomialWoRPolicy(space, scores, 1.0)  # default cap enumerates
    reference = estimate_pi(logs, exact_logging, target).estimate
    assert first == pytest.approx(reference, abs=0.15)
    assert abs(first - reward((1, 2, 3, 4))) < 0.5


def test_report_serialization():
    report = EstimatorReport("pi", 0.5, 10, sigma_sq=1.0, rho=2.0, bound=0.3, delta=0.05)
    line = report.to_kv_line()
    assert "estimator=pi" in line and "estimate=0.5" in line and "rho=2.0" in line
    row = report.to_csv_row()
    assert row.split(",")[0] == "pi"
    assert len(row.split(",")) == len(EstimatorReport.CSV_HEADER.split(","))
    bare = EstimatorReport("ips", -0.25, 3)
    assert bare.to_csv_row().endswith(",,,")


def test_pi_empirical_diagnostics_approach_population_values():
    from slateval import compute_rho, compute_sigma_sq

    rng = np.random.default_rng(14)
    instance = make_ada_instance(seed=14)
    logging = mixture_logging_policy(instance, 0.6, rng)
    target = random_explicit_policy(instance.space, instance.contexts, rng)
    source = PinvSource()
    logs = draw_ada_logs(instance, logging, 6000, rng)
    report = estimate_pi(logs, logging, target, pinv_source=source, diagnostics=True)
    population_sigma = compute_sigma_sq(instance.contexts, logging, target, pinv_source=source)
    population_rho = compute_rho(instance.contexts, logging, target, pinv_source=source)
    # the empirical average over logged contexts converges to the context
    # mean; the empirical max is bounded by the support-wide max
    assert report.sigma_sq == pytest.approx(population_sigma, rel=0.1)
    assert report.rho <= population_rho + 1e-9


def test_pi_shares_pinv_cache_across_calls():
    rng = np.random.default_rng(12)
    instance = make_ada_instance(seed=12)
    logging = mixture_logging_policy(instance, 0.5, rng)
    target = random_explicit_policy(instance.space, instance.contexts, rng)
    source = PinvSource()
    logs = draw_ada_logs(instance, logging, 50, rng)
    first = estimate_pi(logs, logging, target, pinv_source=source).estimate
    second = estimate_pi(logs, logging, target, pinv_source=source).estimate
    assert first == second


def test_pi_equals_ips_single_slot_fixed_table():
    """On a fixed one-slot table PI and IPS agree term by term: the target
    puts all mass on (0), logged with probability 1/4."""
    space = SlateSpace.ranking(2, 1)
    logging = ExplicitPolicy(space, {"q": [((0,), 0.25), ((1,), 0.75)]})
    target = DeterministicPolicy(space, {"q": (0,)})
    logs = [LoggedExample("q", (0,), 0.5), LoggedExample("q", (1,), 0.3)]
    pi = estimate_pi(logs, logging, target).estimate
    ips = estimate_ips(logs, logging, target).estimate
    assert pi == pytest.approx(1.0, abs=1e-12)
    assert ips == pytest.approx(1.0, abs=1e-12)


def test_estimators_accept_a_batch_and_a_list_alike():
    rng = np.random.default_rng(16)
    instance = make_ada_instance(seed=16)
    logging = mixture_logging_policy(instance, 0.5, rng)
    target = random_explicit_policy(instance.space, instance.contexts, rng)
    logs = draw_ada_logs(instance, logging, 300, rng)
    batch = LoggedBatch.from_examples(logs)
    for estimator in (estimate_pi, estimate_ips, estimate_wips):
        assert estimator(batch, logging, target) == estimator(logs, logging, target)


def test_invalid_logged_slate_error_names_context_and_slate():
    space = SlateSpace.ranking(3, 2)
    policy = UniformPolicy(space)
    logs = [LoggedExample("a", (0, 1), 0.1), LoggedExample("b", (2, 2), 0.2)]
    with pytest.raises(SlateError, match=r"context 'b'.*\(2, 2\)"):
        estimate_pi(logs, policy, policy)
