import numpy as np
import pytest

from helpers import (
    coord,
    draw_ada_logs,
    scored_reference,
    few_slate_table,
    keyed_features,
    make_ada_instance,
    mixture_logging_policy,
    random_explicit_policy,
)
from slateval import (
    AbsoluteContinuityError,
    ConfigurationError,
    ContextLookupError,
    DeterministicPolicy,
    EstimatorReport,
    ExplicitPolicy,
    LoggedBatch,
    LoggedExample,
    MultinomialWoRPolicy,
    PinvSource,
    SemibanditExample,
    SlateError,
    SlateSpace,
    UndefinedEstimateError,
    UniformMixturePolicy,
    UniformPolicy,
    decompose,
    estimate_dm,
    estimate_ips,
    estimate_onpolicy,
    estimate_pi,
    estimate_sb,
    estimate_wips,
    estimate_wsb,
    exact_policy_value,
    fit_dm,
    fit_scorer,
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


IMPORTANCE_WEIGHTED = (estimate_pi, estimate_ips, estimate_wips, estimate_sb, estimate_wsb)


@pytest.mark.parametrize("estimate", IMPORTANCE_WEIGHTED, ids=lambda f: f.__name__)
def test_importance_weighted_estimators_reject_empty_data_alike(estimate):
    policy = UniformPolicy(SlateSpace.ranking(3, 2))
    for empty in ([], LoggedBatch((), [], np.empty((0, 2)), [])):
        with pytest.raises(SlateError, match="empty dataset"):
            estimate(empty, policy, policy)


@pytest.mark.parametrize("estimate", IMPORTANCE_WEIGHTED, ids=lambda f: f.__name__)
def test_importance_weighted_estimators_reject_a_slate_the_logging_policy_cannot_log(estimate):
    """(0, 2) has zero probability under the logging policy, although each of
    its slot actions has a positive marginal."""
    space = SlateSpace.ranking(3, 2)
    logging = ExplicitPolicy(space, {"q": [((0, 1), 0.5), ((1, 2), 0.5)]})
    logs = [
        SemibanditExample("q", (0, 1), 0.5, (0.25, 0.25)),
        SemibanditExample("q", (0, 2), 0.4, (0.2, 0.2)),
    ]
    with pytest.raises(AbsoluteContinuityError, match="zero probability under the stated"):
        estimate(logs, logging, logging)
    with pytest.raises(AbsoluteContinuityError, match=r"target puts positive .* slate \(0, 2\)"):
        estimate(logs, logging, UniformPolicy(space))


def _constant_features(space, dim=3):
    return keyed_features(space, dim, 11)


def test_dm_constant_rewards_recovers_constant():
    space = SlateSpace.ranking(4, 2)
    logging = UniformPolicy(space)
    rng = np.random.default_rng(6)
    logs = [LoggedExample("q", logging.sample("q", rng), 0.42) for _ in range(60)]
    model = fit_dm(logs, _constant_features(space), space)
    report = estimate_dm(model, logs, UniformPolicy(space))
    assert report.estimate == pytest.approx(0.42, abs=1e-6)


def test_dm_deterministic_target_scores_target_slate():
    space = SlateSpace.ranking(4, 2)
    logging = UniformPolicy(space)
    target = DeterministicPolicy(space, {"q": (3, 0)})
    rng = np.random.default_rng(7)
    features = _constant_features(space)
    logs = [LoggedExample("q", logging.sample("q", rng), rng.uniform(0, 1)) for _ in range(80)]
    model = fit_dm(logs, features, space)
    report = estimate_dm(model, logs[:10], target)
    assert report.estimate == pytest.approx(model.predict("q", [(3, 0)])[0])


def test_dm_stochastic_target_monte_carlo_inner_sum():
    """Above the enumeration cap the target expectation is sampled with a
    fixed per-context seed, so repeated calls agree."""
    space = SlateSpace.ranking(4, 2)
    logging = UniformPolicy(space)
    scores = {"q": np.random.default_rng(21).normal(size=4)}
    rng = np.random.default_rng(22)
    logs = [LoggedExample("q", logging.sample("q", rng), rng.uniform(0, 1)) for _ in range(60)]
    model = fit_dm(logs, _constant_features(space), space)

    def sampled_target():
        return MultinomialWoRPolicy(space, scores, 1.0, enumeration_cap=1, mc_samples=4000)

    exact = estimate_dm(model, logs, MultinomialWoRPolicy(space, scores, 1.0)).estimate
    sampled_a = estimate_dm(model, logs, sampled_target()).estimate
    sampled_b = estimate_dm(model, logs, sampled_target()).estimate
    assert sampled_a == sampled_b
    assert sampled_a == pytest.approx(exact, abs=0.05)


def test_dm_prediction_clamped():
    space = SlateSpace.ranking(3, 2)
    model = fit_dm(
        [LoggedExample("q", (0, 1), 1.0), LoggedExample("q", (1, 0), -1.0)],
        _constant_features(space),
        space,
    )
    assert -1.0 <= model.predict("q", [(0, 1)])[0] <= 1.0


def _uniform_logs(space, contexts, n, rng, high=0.5):
    logging = UniformPolicy(space)
    return [
        LoggedExample(c, logging.sample(c, rng), rng.uniform(0.0, high))
        for c in rng.choice(contexts, size=n)
    ]


def test_dm_explicit_target_above_the_cap_sums_its_listed_slates():
    """An explicit target lists its support whatever the space's size, so
    its DM value is the probability-weighted prediction of its few slates."""
    space = SlateSpace.ranking(20, 5)  # 1.86 million slates, above the cap
    rng = np.random.default_rng(30)
    logs = _uniform_logs(space, ["a", "b"], 200, rng)
    model = fit_dm(logs, _constant_features(space), space)
    target = ExplicitPolicy(space, few_slate_table(space, ["a", "b"], 3, rng))
    for context in ("a", "b"):
        eval_data = [next(ex for ex in logs if ex.context == context)]
        expected = sum(p * model.predict(context, [slate])[0] for slate, p in target.support(context))
        assert estimate_dm(model, eval_data, target).estimate == pytest.approx(expected, abs=1e-15)


def test_dm_plackett_luce_target_above_the_cap_reads_its_mean_indicator():
    """Above the cap DM reads the target's own seeded sample, the one its
    mean indicator sums: unclipped, the value is the intercept plus the
    per-coordinate scores times that mean indicator."""
    space = SlateSpace.ranking(8, 3)  # 336 slates
    rng = np.random.default_rng(31)
    logs = _uniform_logs(space, ["q"], 150, rng)
    features = _constant_features(space)
    model = fit_dm(logs, features, space)
    target = MultinomialWoRPolicy(
        space, {"q": rng.normal(size=8)}, 1.0, enumeration_cap=100, mc_samples=3000, mc_seed=4
    )
    arrays = target.moment_arrays("q")
    assert not arrays.exact
    assert np.abs(model.predict("q", arrays.actions)).max() < 1.0  # nothing clipped
    blocks = model.weights[:-1].reshape(space.num_slots, -1)
    table = features("q")
    scores = np.array(
        [table[coord(space, j, a)] @ blocks[j] for j in range(space.num_slots) for a in range(8)]
    )
    expected = model.weights[-1] + scores @ target.mean_indicator("q")
    assert estimate_dm(model, logs, target).estimate == pytest.approx(expected, abs=1e-12)


def test_dm_model_and_target_space_mismatch_is_configuration_error():
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(32)
    logs = _uniform_logs(space, ["q"], 40, rng)
    model = fit_dm(logs, _constant_features(space), space)
    with pytest.raises(ConfigurationError, match="space"):
        estimate_dm(model, logs, UniformPolicy(SlateSpace.ranking(5, 2)))

    def widening(context):
        return np.ones((space.dim, 3 if context == "q" else 4))

    wide = fit_dm(logs, widening, lambda context: space)
    other = [LoggedExample("r", ex.slate, ex.reward) for ex in logs]
    with pytest.raises(ConfigurationError, match="features"):
        estimate_dm(wide, other, UniformPolicy(space))
    with pytest.raises(ConfigurationError, match="widths"):
        fit_dm(logs + other, widening, space)


def test_pi_and_semibandit_target_space_mismatch_is_configuration_error():
    """pi, sb and wsb read the target's mean indicator in the logging
    coordinates, so a target on another space (even one of the same dim) is
    rejected naming the context; ips and wips score the slates themselves."""
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(33)
    logs = [
        SemibanditExample(str(ex.context), ex.slate, ex.reward, (ex.reward / 2, ex.reward / 2))
        for ex in _uniform_logs(space, ["q"], 40, rng)
    ]
    logging = UniformPolicy(space)
    for other in (SlateSpace.ranking(5, 2), SlateSpace.cartesian((4, 4))):
        target = UniformPolicy(other)
        for estimate in (estimate_pi, estimate_sb, estimate_wsb):
            with pytest.raises(ConfigurationError, match="space at context 'q'"):
                estimate(logs, logging, target)
        ratio = (1.0 / other.num_slates()) / (1.0 / space.num_slates())
        expected = ratio * sum(ex.reward for ex in logs) / len(logs)
        assert estimate_ips(logs, logging, target).estimate == pytest.approx(expected)
        assert np.isfinite(estimate_wips(logs, logging, target).estimate)


def _nan_table():
    table = np.ones((8, 3))
    table[5, 1] = np.nan
    return table


@pytest.mark.parametrize(
    "bad_table, match",
    [
        (np.ones(8), r"shape \(8,\)"),
        (np.ones((4, 3)), r"shape \(4, 3\); expected \(8, feature_dim\)"),
        (_nan_table(), "not finite"),
    ],
    ids=["not-2d", "wrong-rows", "non-finite"],
)
def test_feature_table_is_checked_naming_the_context(bad_table, match):
    """The direct method and the optimizer both refuse the table the feature
    map gives at context 'bad', naming that context."""
    space = SlateSpace.ranking(4, 2)

    def features(context):
        return bad_table if context == "bad" else np.ones((space.dim, 3))

    logs = [LoggedExample("ok", (0, 1), 0.5), LoggedExample("bad", (1, 0), 0.25)]
    with pytest.raises(ConfigurationError, match=f"context 'bad'.*{match}"):
        fit_dm(logs, features, space)
    targets = decompose(logs, UniformPolicy(space), features=features)
    with pytest.raises(ConfigurationError, match=f"context 'bad'.*{match}"):
        fit_scorer(targets)


@pytest.mark.parametrize("slate", [(2, 2), (0, 4), (-1, 0)])
def test_fit_dm_rejects_invalid_logged_slates_naming_the_context(slate):
    space = SlateSpace.ranking(4, 2)
    logs = [LoggedExample("q", (0, 1), 0.5), LoggedExample("bad", slate, 0.5)]
    with pytest.raises(SlateError, match="context 'bad'"):
        fit_dm(logs, _constant_features(space), space)


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


def _per_context_table(spaces, rng, sparsity=None) -> dict:
    table = {}
    for context, space in spaces.items():
        slates = list(space.enumerate_slates())
        weights = rng.gamma(0.5, size=len(slates))
        if sparsity is not None:
            weights *= rng.random(len(slates)) < sparsity
            weights[rng.integers(len(slates))] += 0.1
        table[context] = list(zip(slates, weights / weights.sum()))
    return table


@pytest.mark.parametrize("pair", ["mixture-explicit", "explicit-softmax", "uniform-deterministic"])
def test_batch_over_two_spaces_matches_a_per_context_scorer_bit_for_bit(pair):
    spaces = {f"c{i}": SlateSpace.ranking(5 if i % 3 else 4, 2) for i in range(7)}
    rng = np.random.default_rng(41)
    scores = {c: rng.normal(size=sp.num_actions) for c, sp in spaces.items()}
    logging, target = {
        "mixture-explicit": lambda: (
            UniformMixturePolicy(MultinomialWoRPolicy(spaces, scores, 1.3), 0.2),
            ExplicitPolicy(spaces, _per_context_table(spaces, rng, sparsity=0.4)),
        ),
        "explicit-softmax": lambda: (
            ExplicitPolicy(spaces, _per_context_table(spaces, rng)),
            MultinomialWoRPolicy(spaces, scores, 0.8),
        ),
        "uniform-deterministic": lambda: (
            UniformPolicy(spaces),
            DeterministicPolicy(spaces, {c: (1, 3) for c in spaces}),
        ),
    }[pair]()
    contexts = tuple(spaces)
    codes = rng.integers(0, len(contexts), size=400)
    actions = np.array([logging.sample(contexts[c], rng) for c in codes.tolist()])
    values = rng.uniform(0.0, 0.5, size=actions.shape)
    batch = LoggedBatch(contexts, codes, actions, values.sum(axis=1), values)
    want = scored_reference(batch, logging, target)
    pi = estimate_pi(batch, logging, target, diagnostics=True)
    got = {
        "pi": pi.estimate, "sigma_sq": pi.sigma_sq, "rho": pi.rho, "bound": pi.bound,
        "ips": estimate_ips(batch, logging, target).estimate,
        "wips": estimate_wips(batch, logging, target).estimate,
        "sb": estimate_sb(batch, logging, target).estimate,
        "wsb": estimate_wsb(batch, logging, target).estimate,
    }
    assert got == want


def test_a_logged_context_missing_from_the_logging_table_is_a_lookup_error():
    space = SlateSpace.ranking(3, 2)
    logging = ExplicitPolicy(space, {"a": [((0, 1), 0.5), ((1, 0), 0.5)]})
    logs = [
        LoggedExample("a", (0, 1), 0.1),
        LoggedExample("x", (0, 1), 0.2),
        LoggedExample("y", (1, 0), 0.3),
    ]
    for estimate in (estimate_pi, estimate_ips, estimate_wips):
        with pytest.raises(ContextLookupError, match="no table entry for context 'x'"):
            estimate(logs, logging, UniformPolicy(space))


def test_the_first_failing_context_in_batch_order_names_the_error():
    """Contexts are scored per space at once, but the error raised is still
    the one of the first failing context, whatever the step that fails."""
    space = SlateSpace.ranking(3, 2)
    logging = ExplicitPolicy(space, {c: [((0, 1), 0.5), ((1, 0), 0.5)] for c in "abc"})
    target = UniformPolicy(space)
    unlisted = [LoggedExample("a", (0, 1), 0.1), LoggedExample("b", (2, 1), 0.1)]
    invalid = [LoggedExample("c", (1, 0), 0.1), LoggedExample("c", (1, 1), 0.1)]
    with pytest.raises(AbsoluteContinuityError, match=r"\(2, 1\) at context 'b'"):
        estimate_pi(unlisted + invalid, logging, target)
    with pytest.raises(SlateError, match=r"context 'c'.*\(1, 1\)"):
        estimate_pi(invalid + unlisted, logging, target)
