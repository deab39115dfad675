from functools import partial

import numpy as np
import pytest

from helpers import coord, few_slate_table, random_explicit_policy, write_explicit_policy
from slateval import (
    ContextLookupError,
    DeterministicPolicy,
    ExplicitPolicy,
    MultinomialWoRPolicy,
    SlateError,
    SlateSpace,
    UniformMixturePolicy,
    UniformPolicy,
    load_explicit_policy,
    moment_matrix,
)


def test_deterministic_slate_prob():
    space = SlateSpace.ranking(3, 2)
    policy = DeterministicPolicy(space, {"q": (2, 0)})
    assert policy.slate_prob("q", (2, 0)) == 1.0
    assert policy.slate_prob("q", (0, 2)) == 0.0
    assert policy.mean_indicator("q").tolist() == space.indicator((2, 0)).tolist()


def test_uniform_ranking_probabilities():
    space = SlateSpace.ranking(3, 2)
    policy = UniformPolicy(space)
    for slate in space.enumerate_slates():
        assert policy.slate_prob("q", slate) == pytest.approx(1 / 6)
    np.testing.assert_allclose(
        UniformPolicy(SlateSpace.ranking(2, 2)).mean_indicator("q"), [0.5, 0.5, 0.5, 0.5]
    )


def test_multinomial_zero_temperature_is_uniform():
    space = SlateSpace.ranking(4, 2)
    policy = MultinomialWoRPolicy(space, {"q": np.array([3.0, -1.0, 0.5, 2.0])}, 0.0)
    assert policy.is_uniform("q")
    for slate in space.enumerate_slates():
        assert policy.slate_prob("q", slate) == pytest.approx(1 / 12, abs=1e-12)


def test_multinomial_probabilities_sum_to_one():
    space = SlateSpace.ranking(5, 3)
    rng = np.random.default_rng(3)
    policy = MultinomialWoRPolicy(space, {"q": rng.normal(size=5)}, 2.5)
    total = sum(policy.slate_prob("q", s) for s in space.enumerate_slates())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_multinomial_high_temperature_concentrates():
    space = SlateSpace.ranking(4, 2)
    scores = np.array([0.1, 2.0, 1.0, -0.5])
    policy = MultinomialWoRPolicy(space, {"q": scores}, 60.0)
    assert policy.slate_prob("q", (1, 2)) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(0)
    assert policy.sample("q", rng) == (1, 2)


def test_uniform_ranking_marginals_and_pairwise():
    space = SlateSpace.ranking(4, 2)
    gamma = moment_matrix(UniformPolicy(space), "q").entries
    c = partial(coord, space)
    assert gamma[c(0, 2), c(0, 2)] == pytest.approx(1 / 4)
    assert gamma[c(0, 1), c(1, 3)] == pytest.approx(1 / 12)
    assert gamma[c(0, 1), c(1, 1)] == 0.0
    assert gamma[c(0, 1), c(0, 2)] == 0.0


def test_uniform_cartesian_pairwise_independence():
    space = SlateSpace.cartesian((3, 2))
    gamma = moment_matrix(UniformPolicy(space), "q").entries
    assert gamma[coord(space, 0, 1), coord(space, 1, 0)] == pytest.approx(1 / 6)


def test_marginals_sum_to_one_per_slot():
    space = SlateSpace.ranking(4, 3)
    rng = np.random.default_rng(11)
    for policy in (
        UniformPolicy(space),
        random_explicit_policy(space, ["q"], rng),
        MultinomialWoRPolicy(space, {"q": rng.normal(size=4)}, 1.7),
        UniformMixturePolicy(random_explicit_policy(space, ["q"], rng, sparsity=0.5), 0.3),
    ):
        marginals = np.diag(moment_matrix(policy, "q").entries)
        for j in range(space.num_slots):
            total = sum(marginals[coord(space, j, a)] for a in range(4))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_pairwise_marginalizes_to_marginal():
    space = SlateSpace.ranking(4, 3)
    rng = np.random.default_rng(12)
    policy = random_explicit_policy(space, ["q"], rng, sparsity=0.6)
    gamma = moment_matrix(policy, "q").entries
    c = partial(coord, space)
    for j, k in ((0, 1), (2, 0)):
        for a in range(4):
            total = sum(gamma[c(j, a), c(k, b)] for b in range(4))
            assert total == pytest.approx(gamma[c(j, a), c(j, a)], abs=1e-9)


def test_mean_indicator_matches_marginals():
    space = SlateSpace.cartesian((3, 2, 2))
    rng = np.random.default_rng(13)
    policy = random_explicit_policy(space, ["q"], rng)
    q = policy.mean_indicator("q")
    gamma = moment_matrix(policy, "q").entries
    for j in range(space.num_slots):
        for a in range(space.slot_counts[j]):
            c = coord(space, j, a)
            assert q[c] == pytest.approx(gamma[c, c])


def test_sample_frequencies_uniform_ranking():
    """Empirical slate frequencies stay within three standard errors."""
    space = SlateSpace.ranking(3, 2)
    policy = UniformPolicy(space)
    rng = np.random.default_rng(99)
    draws = policy.sample_batch("q", 100_000, rng)
    p = 1 / 6
    se = np.sqrt(p * (1 - p) / 100_000)
    for slate in space.enumerate_slates():
        freq = np.mean((draws[:, 0] == slate[0]) & (draws[:, 1] == slate[1]))
        assert abs(freq - p) < 3 * se


def test_multinomial_sample_matches_sequential_probabilities():
    """Gumbel-key sampling reproduces slot-by-slot renormalized draws."""
    space = SlateSpace.ranking(3, 2)
    scores = {"q": np.array([1.0, 0.0, -1.0])}
    policy = MultinomialWoRPolicy(space, scores, 1.0)
    rng = np.random.default_rng(5)
    draws = policy.sample_batch("q", 200_000, rng)
    for slate in space.enumerate_slates():
        expected = policy.slate_prob("q", slate)
        freq = np.mean((draws[:, 0] == slate[0]) & (draws[:, 1] == slate[1]))
        se = np.sqrt(expected * (1 - expected) / len(draws))
        assert abs(freq - expected) < 4 * se


def test_mixture_pairwise_dominates_scaled_uniform():
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(21)
    kappa = 0.35
    policy = UniformMixturePolicy(
        random_explicit_policy(space, ["q"], rng, sparsity=0.3), kappa
    )
    gamma = moment_matrix(policy, "q").entries
    gamma_uniform = moment_matrix(UniformPolicy(space), "q").entries
    c = partial(coord, space)
    for j in range(2):
        for k in range(2):
            if j == k:
                continue
            for a in range(4):
                for b in range(4):
                    assert (
                        gamma[c(j, a), c(k, b)]
                        >= kappa * gamma_uniform[c(j, a), c(k, b)] - 1e-12
                    )


def test_zero_monte_carlo_samples_is_configuration_error():
    from slateval import ConfigurationError

    space = SlateSpace.ranking(7, 4)  # 840 slates, above the forced cap
    policy = MultinomialWoRPolicy(
        space, {"q": np.arange(7.0)}, 1.5, enumeration_cap=10, mc_samples=0
    )
    with pytest.raises(ConfigurationError):
        moment_matrix(policy, "q")


def test_support_above_the_enumeration_cap_is_configuration_error():
    from slateval import ConfigurationError

    space = SlateSpace.ranking(7, 4)  # 840 slates, above the forced cap
    policy = MultinomialWoRPolicy(space, {"q": np.arange(7.0)}, 1.5, enumeration_cap=10)
    assert policy.support_arrays("q") is None
    with pytest.raises(ConfigurationError, match=r"'q'.*840 slates.*cap of 10"):
        list(policy.support("q"))
    assert not policy.moment_arrays("q").exact


def test_explicit_rejects_invalid_slates():
    space = SlateSpace.ranking(3, 2)
    with pytest.raises(SlateError):
        ExplicitPolicy(space, {"q": [((1, 1), 1.0)]})
    with pytest.raises(SlateError):
        ExplicitPolicy(space, {"q": [((0, 5), 1.0)]})


def test_explicit_unknown_context_raises():
    space = SlateSpace.ranking(3, 2)
    policy = ExplicitPolicy(space, {"q": [((0, 1), 1.0)]})
    with pytest.raises(ContextLookupError):
        policy.slate_prob("other", (0, 1))


def test_explicit_rejects_bad_sum():
    space = SlateSpace.ranking(3, 2)
    with pytest.raises(SlateError):
        ExplicitPolicy(space, {"q": [((0, 1), 0.6), ((1, 0), 0.5)]})


def test_explicit_load_renormalizes_small_drift(tmp_path):
    path = tmp_path / "policy.tsv"
    path.write_text("q\t0,1\t0.5000001\nq\t1,0\t0.5\n")
    policy = load_explicit_policy(path, SlateSpace.ranking(3, 2))
    total = sum(p for _, p in policy.support("q"))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_explicit_load_rejects_large_drift(tmp_path):
    path = tmp_path / "policy.tsv"
    path.write_text("q\t0,1\t0.6\nq\t1,0\t0.5\n")
    with pytest.raises(SlateError):
        load_explicit_policy(path, SlateSpace.ranking(3, 2))


def test_explicit_round_trip(tmp_path):
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(7)
    policy = random_explicit_policy(space, ["a", "b"], rng, sparsity=0.5)
    path = tmp_path / "policy.tsv"
    write_explicit_policy(path, policy)
    loaded = load_explicit_policy(path, space)
    for context in ("a", "b"):
        for slate in space.enumerate_slates():
            assert loaded.slate_prob(context, slate) == pytest.approx(
                policy.slate_prob(context, slate), abs=1e-12
            )


def test_explicit_sampling_matches_rng_choice_draws_and_generator_state():
    """One draw or many, the policy draws what rng.choice(p=) draws on its
    table and leaves the generator where rng.choice leaves it."""
    space = SlateSpace.ranking(4, 2)
    slates = np.asarray(list(space.enumerate_slates()), dtype=np.int64)
    rng = np.random.default_rng(12)
    table = {}
    for context in ("a", "b"):
        weights = rng.gamma(0.5, size=len(slates)) * (rng.random(len(slates)) < 0.6)
        weights[rng.integers(len(slates))] += 0.1
        table[context] = list(zip(map(tuple, slates.tolist()), (weights / weights.sum()).tolist()))
    policy = ExplicitPolicy(space, table)
    for seed in range(400):
        context = "ab"[seed % 2]
        probs = np.array([p for _, p in table[context]])
        probs = probs / probs.sum()
        for size in (None, 1, 37):
            reference, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = slates[reference.choice(len(probs), size=size, p=probs)]
            if size is None:
                got = policy.sample(context, rng)
                assert got == tuple(want.tolist())
                assert all(type(a) is int for a in got)
            else:
                got = policy.sample_batch(context, size, rng)
                assert got.dtype == np.int64 and np.array_equal(got, want)
            assert rng.random() == reference.random()


def test_sampling_reproducible_given_seed():
    space = SlateSpace.ranking(5, 3)
    policy = MultinomialWoRPolicy(space, {"q": np.arange(5.0)}, 0.8)
    a = policy.sample_batch("q", 50, np.random.default_rng(42))
    b = policy.sample_batch("q", 50, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_mixture_sampling_reproducible():
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(1)
    policy = UniformMixturePolicy(random_explicit_policy(space, ["q"], rng), 0.5)
    a = policy.sample_batch("q", 40, np.random.default_rng(8))
    b = policy.sample_batch("q", 40, np.random.default_rng(8))
    assert np.array_equal(a, b)


def test_explicit_rejects_non_finite_probabilities(tmp_path):
    space = SlateSpace.ranking(2, 1)
    with pytest.raises(SlateError, match="finite"):
        ExplicitPolicy(space, {"q": [((0,), float("nan")), ((1,), 1.0)]})
    path = tmp_path / "policy.tsv"
    path.write_text("q\t1\t1.0\nq\t0\tnan\n")
    with pytest.raises(SlateError, match=":2:"):
        load_explicit_policy(path, space)


def test_explicit_rejects_duplicate_slates(tmp_path):
    space = SlateSpace.ranking(2, 1)
    with pytest.raises(SlateError, match="twice"):
        ExplicitPolicy(space, {"q": [((0,), 0.25), ((0,), 0.25), ((1,), 0.5)]})
    path = tmp_path / "policy.tsv"
    path.write_text("q\t0\t0.25\nq\t1\t0.5\nq\t0\t0.25\n")
    with pytest.raises(SlateError, match=r":3: .*line 1"):
        load_explicit_policy(path, space)


def test_explicit_policy_file_names_the_line_of_an_invalid_slate(tmp_path):
    space = SlateSpace.ranking(3, 2)
    path = tmp_path / "policy.tsv"
    for text, line, reason in (
        ("c1\t0,1\t0.5\nc1\t1,1\t0.5\n", 2, "repeats an action"),
        ("c1\t0,1,2\t0.5\nc1\t1,0\t0.5\n", 1, "has 3 slots"),
        ("c1\t0,1\t1.0\nc2\t2,1\t0.5\nc2\t0,3\t0.5\n", 3, "out of range"),
    ):
        path.write_text(text)
        with pytest.raises(SlateError, match=rf"policy\.tsv:{line}: context 'c\d': .*{reason}"):
            load_explicit_policy(path, space)


def test_explicit_slate_prob_batch_looks_up_every_row():
    space = SlateSpace.cartesian((3, 2))
    policy = ExplicitPolicy(space, {"q": [((2, 1), 0.5), ((0, 0), 0.3), ((1, 1), 0.2)]})
    rows = np.array([[0, 0], [1, 0], [2, 1], [1, 1], [2, 0], [0, 0]])
    np.testing.assert_array_equal(
        policy.slate_prob_batch("q", rows), [0.3, 0.0, 0.5, 0.2, 0.0, 0.3]
    )
    with pytest.raises(SlateError, match="'q'.*out of range"):
        policy.slate_prob_batch("q", np.array([[0, 0], [0, 2]]))


def test_scalar_slate_prob_override_alone_is_rejected_clearly():
    from slateval.policies import Policy

    class ScalarOnly(Policy):
        def slate_prob(self, context, slate):
            return 0.5

    with pytest.raises(NotImplementedError, match="ScalarOnly must implement _slate_prob_rows"):
        ScalarOnly(SlateSpace.ranking(2, 1)).moment_arrays("q")


def test_explicit_policy_file_names_the_line_of_a_bad_field(tmp_path):
    space = SlateSpace.ranking(3, 2)
    path = tmp_path / "policy.tsv"
    for text, message in (
        ("q\t0,1\t0.5\nq\t1,0\n", ":2: expected 3 tab-separated fields"),
        ("q\t0,1\t0.5\nq\t1,0\t0.5\t0.1\n", ":2: expected 3 tab-separated fields"),
        ("q\t0,1\t0.5\nq\t1,a\t0.5\n", ":2: invalid literal for int"),
        ("q\t0,1\t0.5\nq\t1,0\tp\n", ":2: could not convert string to float"),
        ("q\t0,1\t1.25\nq\t1,0\t-0.25\n", ":2: probability -0.25 is not a finite nonnegative"),
        ("# policy\n\nq\t0,1\t0.5\n\n# more\nq\t1,0\t-0.5\n", ":6: probability -0.5"),
    ):
        path.write_text(text)
        with pytest.raises(SlateError, match=message):
            load_explicit_policy(path, space)


def test_explicit_policy_file_rejects_a_file_without_entries(tmp_path):
    path = tmp_path / "policy.tsv"
    for text in ("", "\n\n", "# only a comment\n   \n"):
        path.write_text(text)
        with pytest.raises(SlateError, match=r"policy\.tsv: no policy entries"):
            load_explicit_policy(path, SlateSpace.ranking(3, 2))


def test_explicit_policy_with_a_space_per_context(tmp_path):
    spaces = {"a": SlateSpace.ranking(3, 1), "b": SlateSpace.ranking(3, 2)}
    table = {"a": [((0,), 0.25), ((2,), 0.75)], "b": [((0, 1), 1.0)]}
    policy = ExplicitPolicy(spaces, table)
    assert policy.slate_prob("a", (2,)) == 0.75 and policy.slate_prob("b", (0, 1)) == 1.0
    path = tmp_path / "policy.tsv"
    path.write_text("a\t0\t0.25\nb\t0,1\t1.0\na\t2\t0.75\n")
    loaded = load_explicit_policy(path, spaces)
    for context in spaces:
        for got, want in zip(loaded.support_arrays(context), policy.support_arrays(context)):
            np.testing.assert_array_equal(got, want)
    path.write_text("a\t0\t0.25\nb\t0,1\t1.0\na\t2,1\t0.75\n")
    with pytest.raises(SlateError, match=r"policy\.tsv:3: context 'a': .*has 2 slots"):
        load_explicit_policy(path, spaces)
    with pytest.raises(SlateError, match="has 2 slots, expected 1"):
        ExplicitPolicy(spaces, {"a": [((0,), 0.5), ((1, 2), 0.5)]})


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -float("inf")])
def test_multinomial_rejects_a_non_finite_temperature(temperature):
    from slateval import ConfigurationError

    with pytest.raises(ConfigurationError, match="finite nonnegative"):
        MultinomialWoRPolicy(SlateSpace.ranking(3, 2), {"q": np.zeros(3)}, temperature)


@pytest.mark.parametrize(
    "scores, temperature",
    [
        ([0.5, np.nan, 1.0], 1.0),
        ([0.5, np.inf, 1.0], 1.0),
        ([-np.inf, 0.0, 1.0], 2.0),
        ([0.5, np.inf, 1.0], 0.0),
        ([1e308, 0.0, -1e308], 10.0),  # finite scores whose logits overflow
    ],
)
def test_multinomial_rejects_non_finite_scores_naming_the_context(scores, temperature):
    space = SlateSpace.ranking(3, 2)
    policy = MultinomialWoRPolicy(space, {"ok": np.zeros(3), "bad": np.array(scores)}, temperature)
    assert policy.slate_prob("ok", (0, 1)) == pytest.approx(1 / 6)
    for call in (
        lambda: policy.slate_prob("bad", (0, 1)),
        lambda: policy.support_arrays("bad"),
        lambda: policy.sample("bad", np.random.default_rng(0)),
        lambda: policy.slate_prob_rows(("ok", "bad"), [0, 1], [[0, 1], [1, 0]]),
    ):
        with pytest.raises(SlateError, match="context 'bad'.*non-finite"):
            call()


@pytest.mark.parametrize("m, slots", [(10, 3), (6, 3), (5, 5), (7, 1), (8, 4)])
@pytest.mark.parametrize("temperature", [0.0, 0.05, 1.0, 7.0])
def test_plackett_luce_support_equals_the_per_slate_recursion_bit_for_bit(m, slots, temperature):
    from helpers import plackett_luce_log_probs_reference

    space = SlateSpace.ranking(m, slots)
    scores = 3.0 * np.random.default_rng(10 * m + slots).normal(size=m)
    policy = MultinomialWoRPolicy(space, {"q": scores}, temperature)
    every = space.slate_array()
    want = np.exp(plackett_luce_log_probs_reference(policy.action_logits("q"), every))
    keep = want > 0.0
    slates, probs = policy.support_arrays("q")
    np.testing.assert_array_equal(slates, every[keep])
    assert probs.tobytes() == want[keep].tobytes()
    assert policy.slate_prob_batch("q", every).tobytes() == want.tobytes()


def test_plackett_luce_above_the_cap_keeps_its_seeded_monte_carlo_sample():
    from slateval.util import context_rng

    space = SlateSpace.ranking(6, 3)  # 120 slates
    scores = {"q": np.linspace(-1.0, 2.0, 6)}
    policy = MultinomialWoRPolicy(
        space, scores, 1.5, enumeration_cap=119, mc_samples=400, mc_seed=4
    )
    assert policy.support_arrays("q") is None
    arrays = policy.moment_arrays("q")
    assert not arrays.exact
    expected = MultinomialWoRPolicy(space, scores, 1.5).sample_batch("q", 400, context_rng(4, "q"))
    np.testing.assert_array_equal(arrays.actions, expected)
    np.testing.assert_array_equal(arrays.probs, np.full(400, 1 / 400))


def test_explicit_rows_look_up_keys_beyond_the_slate_count():
    """ranking(6, 3) has 120 slates but mixed-radix keys up to 207, below
    6**3; every context's rows must find their own entries, not another
    context's."""
    space = SlateSpace.ranking(6, 3)
    rng = np.random.default_rng(31)
    contexts = [f"c{i}" for i in range(5)]
    policy = random_explicit_policy(space, contexts, rng, sparsity=0.5)
    every = space.slate_array()
    assert space.slate_keys(every).max() == 207
    codes = np.repeat(np.arange(len(contexts)), len(every))
    got = policy.slate_prob_rows(contexts, codes, np.tile(every, (len(contexts), 1)))
    for i, context in enumerate(contexts):
        listed = dict(policy.support(context))
        want = [listed.get(tuple(row), 0.0) for row in every.tolist()]
        assert got[i * len(every) : (i + 1) * len(every)].tolist() == want
        np.testing.assert_array_equal(policy.slate_prob_batch(context, every), want)


@pytest.mark.parametrize("kind", ["uniform", "deterministic", "mixture", "softmax"])
def test_row_level_probabilities_equal_per_context_ones_over_two_spaces(kind):
    spaces = {c: SlateSpace.ranking(m, 2) for c, m in (("a", 5), ("b", 4), ("c", 5))}
    rng = np.random.default_rng(8)
    scores = {c: rng.normal(size=sp.num_actions) for c, sp in spaces.items()}
    policy = {
        "uniform": lambda: UniformPolicy(spaces),
        "deterministic": lambda: DeterministicPolicy(
            spaces, {"a": (4, 0), "b": (3, 1), "c": (0, 1)}
        ),
        "mixture": lambda: UniformMixturePolicy(MultinomialWoRPolicy(spaces, scores, 2.0), 0.3),
        "softmax": lambda: MultinomialWoRPolicy(spaces, scores, 0.7),
    }[kind]()
    contexts = ("unused", "c", "a", "b")
    codes = rng.integers(1, 4, size=60)
    actions = np.array([policy.sample(contexts[c], rng) for c in codes.tolist()])
    got = policy.slate_prob_rows(contexts, codes, actions)
    for code in range(1, 4):
        rows = codes == code
        want = policy.slate_prob_batch(contexts[code], actions[rows])
        assert got[rows].tobytes() == want.tobytes()


def test_row_level_probabilities_name_the_first_invalid_context_in_code_order():
    spaces = {"a": SlateSpace.ranking(5, 2), "b": SlateSpace.ranking(3, 2)}
    policy = UniformPolicy(spaces)
    # row 0 is out of range at "b", row 2 repeats an action at "a", which
    # comes first in code order
    actions = np.array([[4, 0], [0, 1], [1, 1]])
    with pytest.raises(SlateError, match=r"context 'a'.*\(1, 1\)"):
        policy.slate_prob_rows(("a", "b"), [1, 0, 0], actions)
    with pytest.raises(SlateError, match=r"context 'b'.*\(4, 0\)"):
        policy.slate_prob_rows(("a", "b"), [1, 0, 1], actions[[0, 1, 0]])
    with pytest.raises(SlateError, match="do not match"):
        policy.slate_prob_rows(("a",), [0, 0], actions)


def test_explicit_rows_at_a_context_missing_from_the_table_raise_context_lookup_error():
    space = SlateSpace.ranking(3, 2)
    policy = ExplicitPolicy(space, {"q": [((0, 1), 1.0)]})
    with pytest.raises(ContextLookupError, match="no table entry for context 'x'"):
        policy.slate_prob_rows(("q", "x", "y"), [0, 2, 1, 0], [[0, 1]] * 4)


def test_uniform_mean_indicator_is_one_read_only_array_per_space():
    from slateval.policies import uniform_mean_indicator

    q = UniformPolicy(SlateSpace.ranking(4, 2)).mean_indicator("x")
    assert q is uniform_mean_indicator(SlateSpace.ranking(4, 2))
    assert q is MultinomialWoRPolicy(SlateSpace.ranking(4, 2), {}, 0.0).mean_indicator("y")
    assert not q.flags.writeable
    np.testing.assert_array_equal(q, np.full(8, 0.25))


def test_explicit_rows_on_a_space_whose_keys_do_not_fit_int64():
    space = SlateSpace.ranking(100, 10)  # mixed-radix keys run up to 100**10
    rng = np.random.default_rng(12)
    table = few_slate_table(space, ["a", "b", "c"], 4, rng)
    policy = ExplicitPolicy(space, table)
    contexts = ("c", "a", "b")
    rows = [(code, slate, p) for code, c in enumerate(contexts) for slate, p in table[c]]
    unlisted = tuple(range(90, 100))
    codes = [code for code, _, _ in rows] + [0, 2]
    actions = [slate for _, slate, _ in rows] + [unlisted, table["a"][0][0]]
    want = [p for _, _, p in rows] + [0.0, 0.0]
    np.testing.assert_allclose(policy.slate_prob_rows(contexts, codes, actions), want, rtol=1e-12)


def builtin_policies(kind):
    """One of each built-in class but the mixture, over a ranking or a
    cartesian space, keyed by a context 'q'."""
    space = SlateSpace.ranking(5, 3) if kind == "ranking" else SlateSpace.cartesian((3, 4, 2))
    rng = np.random.default_rng(5)
    policies = [
        UniformPolicy(space),
        DeterministicPolicy(space, {"q": (2, 0, 1)}),
        random_explicit_policy(space, ["q"], rng, sparsity=0.5),
    ]
    if kind == "ranking":
        policies.append(MultinomialWoRPolicy(space, {"q": rng.normal(size=5)}, 1.3))
    return policies


@pytest.mark.parametrize("kind", ["ranking", "cartesian"])
def test_sample_is_a_one_row_batch_of_python_ints(kind):
    for policy in builtin_policies(kind):
        for seed in range(20):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = policy.sample("q", rng)
            assert got == tuple(policy.sample_batch("q", 1, reference)[0].tolist())
            assert all(type(a) is int for a in got), type(policy).__name__
            assert rng.bit_generator.state == reference.bit_generator.state


def test_mixture_sample_draws_one_uniform_number_then_one_component_slate():
    space = SlateSpace.ranking(4, 2)
    base = random_explicit_policy(space, ["q"], np.random.default_rng(2))
    policy = UniformMixturePolicy(base, 0.4)
    picked = set()
    for seed in range(40):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        uniform = reference.random() < 0.4
        component = UniformPolicy(space) if uniform else base
        want = tuple(component.sample_batch("q", 1, reference)[0].tolist())
        got = policy.sample("q", rng)
        assert got == want and all(type(a) is int for a in got)
        assert rng.bit_generator.state == reference.bit_generator.state
        picked.add(uniform)
    assert picked == {True, False}


def test_a_policy_with_only_the_two_hooks_answers_every_query():
    """Rows scored and batches drawn are all a policy must give; here a
    policy on ranking(3, 2) that puts 1/2 on (0, 1) and (1, 0)."""
    from slateval.policies import Policy

    space = SlateSpace.ranking(3, 2)

    class TwoSlates(Policy):
        def _slate_prob_rows(self, contexts, codes, actions):
            return np.where(actions[:, 0] + actions[:, 1] == 1, 0.5, 0.0)

        def sample_batch(self, context, n, rng):
            first = rng.integers(0, 2, size=n)
            return np.stack([first, 1 - first], axis=1)

    policy = TwoSlates(space)
    assert policy.slate_prob("q", (1, 0)) == 0.5 and policy.slate_prob("q", (2, 0)) == 0.0
    np.testing.assert_array_equal(policy.slate_prob_batch("q", [[0, 1], [0, 2]]), [0.5, 0.0])
    np.testing.assert_array_equal(policy.slate_prob_rows(("a", "b"), [1, 0], [[1, 0], [2, 1]]),
                                  [0.5, 0.0])
    with pytest.raises(SlateError, match="'q'"):
        policy.slate_prob_batch("q", [[1, 1]])
    assert policy.sample("q", np.random.default_rng(0)) in {(0, 1), (1, 0)}
    assert sorted(policy.support("q")) == [((0, 1), 0.5), ((1, 0), 0.5)]
    q = policy.mean_indicator("q")
    np.testing.assert_array_equal(q, [0.5, 0.5, 0.0, 0.5, 0.5, 0.0])


def test_every_cached_mean_indicator_is_read_only():
    space = SlateSpace.ranking(5, 3)
    scores = {"q": np.linspace(-1.0, 1.0, 5)}
    policies = builtin_policies("ranking") + builtin_policies("cartesian") + [
        MultinomialWoRPolicy(space, scores, 0.0),
        MultinomialWoRPolicy(space, scores, 1.0, enumeration_cap=10, mc_samples=500),
    ]
    for policy in policies:
        q = policy.mean_indicator("q")
        assert not q.flags.writeable, type(policy).__name__
        assert policy.mean_indicator("q") is q
        with pytest.raises(ValueError):
            q[0] = 1.0


def test_explicit_one_row_draws_match_rng_choice_and_leave_its_generator_state():
    """A one-row draw gives the row and leaves the generator state of
    rng.choice over the table's rows, as random(1) does."""
    space = SlateSpace.ranking(4, 2)
    slates = list(space.enumerate_slates())
    probs = np.random.default_rng(8).dirichlet(np.ones(len(slates)))
    probs[3] = 0.0
    probs /= probs.sum()
    policy = ExplicitPolicy(space, {"q": list(zip(slates, probs.tolist()))})
    for seed in range(30):
        rng, chooser, batch = (np.random.default_rng(seed) for _ in range(3))
        drawn = policy.sample_batch("q", 1, rng)
        chosen = slates[chooser.choice(len(slates), p=probs)]
        assert drawn.dtype == np.int64 and drawn.tolist() == [list(chosen)]
        batch.random(1)
        assert rng.bit_generator.state == chooser.bit_generator.state == batch.bit_generator.state


def test_explicit_tables_normalize_and_accumulate_each_context_bit_for_bit():
    """Contexts with equal row counts are summed, normalized and accumulated
    as one (contexts, rows) table; each context's probabilities and CDF
    equal those of its own one-context sums."""
    rng = np.random.default_rng(4)
    space = SlateSpace.cartesian((20, 15))
    every = space.slate_array()
    table = {}
    for i, count in enumerate((1, 7, 8, 9, 130, 300, 9, 130)):
        weights = rng.gamma(0.5, size=count) + 1e-3
        slates = every[rng.choice(len(every), size=count, replace=False)]
        table[f"c{i}"] = list(zip(map(tuple, slates.tolist()), (weights / weights.sum()).tolist()))
    policy = ExplicitPolicy(space, table)
    for context, rows in table.items():
        probs = np.array([p for _, p in rows])
        probs = probs / probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        lo, hi = policy._bounds[policy._position(context) : policy._position(context) + 2]
        assert np.array_equal(policy._probs[lo:hi], probs)
        assert np.array_equal(policy._cdf[lo:hi], cdf)
