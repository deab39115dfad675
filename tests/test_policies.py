import numpy as np
import pytest

from helpers import random_explicit_policy
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
    write_explicit_policy,
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
    c = space.coord
    assert gamma[c(0, 2), c(0, 2)] == pytest.approx(1 / 4)
    assert gamma[c(0, 1), c(1, 3)] == pytest.approx(1 / 12)
    assert gamma[c(0, 1), c(1, 1)] == 0.0
    assert gamma[c(0, 1), c(0, 2)] == 0.0


def test_uniform_cartesian_pairwise_independence():
    space = SlateSpace.cartesian((3, 2))
    gamma = moment_matrix(UniformPolicy(space), "q").entries
    assert gamma[space.coord(0, 1), space.coord(1, 0)] == pytest.approx(1 / 6)


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
            total = sum(marginals[space.coord(j, a)] for a in range(4))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_pairwise_marginalizes_to_marginal():
    space = SlateSpace.ranking(4, 3)
    rng = np.random.default_rng(12)
    policy = random_explicit_policy(space, ["q"], rng, sparsity=0.6)
    gamma = moment_matrix(policy, "q").entries
    c = space.coord
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
            c = space.coord(j, a)
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
    c = space.coord
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

    with pytest.raises(NotImplementedError, match="ScalarOnly must implement slate_prob_batch"):
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
