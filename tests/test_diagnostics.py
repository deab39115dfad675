import numpy as np
import pytest

from helpers import random_explicit_policy
from slateval import (
    AbsoluteContinuityError,
    ConfigurationError,
    DeterministicPolicy,
    SlateSpace,
    UniformMixturePolicy,
    UniformPolicy,
    bernstein_bound,
    check_translation,
    compute_rho,
    compute_rho_bar,
    compute_sigma_sq,
    kappa_of,
)
from slateval.diagnostics import OverlapProfile, kappa_uniform_rho_limit, overlap_profile


def test_identity_overlap_when_policies_match():
    space = SlateSpace.ranking(4, 3)
    rng = np.random.default_rng(0)
    policy = random_explicit_policy(space, ["a", "b"], rng)
    assert compute_sigma_sq(["a", "b"], policy, policy) == pytest.approx(1.0, abs=1e-8)
    assert compute_rho(["a", "b"], policy, policy) == pytest.approx(1.0, abs=1e-8)


def test_rho_for_deterministic_target_hits_rho_bar():
    space = SlateSpace.cartesian((3, 3))
    logging = UniformPolicy(space)
    target = DeterministicPolicy(space, {"q": (0, 1)})
    assert compute_rho(["q"], logging, target) == pytest.approx(5.0, abs=1e-9)


def test_sigma_le_rho_on_random_pairs():
    rng = np.random.default_rng(1)
    spaces = (SlateSpace.ranking(4, 2), SlateSpace.cartesian((3, 2)))
    for trial in range(100):
        space = spaces[trial % 2]
        logging = UniformMixturePolicy(
            random_explicit_policy(space, ["q"], rng, sparsity=0.4), rng.uniform(0.1, 1.0)
        )
        target = random_explicit_policy(space, ["q"], rng, sparsity=0.5)
        sigma_sq = compute_sigma_sq(["q"], logging, target)
        rho = compute_rho(["q"], logging, target)
        assert sigma_sq <= rho + 1e-8


def test_rho_bar_uniform_values():
    assert compute_rho_bar(UniformPolicy(SlateSpace.cartesian((3, 3))), "q") == pytest.approx(5.0)
    assert compute_rho_bar(UniformPolicy(SlateSpace.ranking(4, 2)), "q") == pytest.approx(7.0)
    assert compute_rho_bar(UniformPolicy(SlateSpace.ranking(3, 3)), "q") == pytest.approx(5.0)


def test_kappa_values():
    space = SlateSpace.ranking(4, 3)
    assert kappa_of(UniformPolicy(space), "q") == 1.0
    det = DeterministicPolicy(space, {"q": (0, 1, 2)})
    assert kappa_of(det, "q") == 0.0
    mixed = UniformMixturePolicy(det, 0.4)
    assert kappa_of(mixed, "q") >= 0.4 - 1e-12


def test_kappa_single_slot_uses_marginals():
    space = SlateSpace.ranking(3, 1)
    det = DeterministicPolicy(space, {"q": (1,)})
    assert kappa_of(det, "q") == 0.0
    assert kappa_of(UniformPolicy(space), "q") == 1.0


def _pairwise_prob(policy, context, j, a, k, b) -> float:
    """P(action a in slot j and action b in slot k), summed over the support."""
    return sum(p for slate, p in policy.support(context) if slate[j] == a and slate[k] == b)


def test_kappa_matches_bruteforce_pairwise_ratios():
    """Independent oracle: loop the pairwise probabilities directly."""
    space = SlateSpace.ranking(4, 3)
    rng = np.random.default_rng(30)
    uniform = UniformPolicy(space)
    for _ in range(10):
        logging = UniformMixturePolicy(
            random_explicit_policy(space, ["q"], rng, sparsity=0.5), float(rng.uniform(0.2, 0.9))
        )
        ratios = []
        for j in range(3):
            for k in range(3):
                if j == k:
                    continue
                for a in range(4):
                    for b in range(4):
                        ref = _pairwise_prob(uniform, "q", j, a, k, b)
                        if ref > 0:
                            ratios.append(_pairwise_prob(logging, "q", j, a, k, b) / ref)
        expected = min(min(ratios), 1.0)
        assert kappa_of(logging, "q") == pytest.approx(expected, abs=1e-12)


def test_translation_equality_for_identical_policies():
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(2)
    policy = UniformMixturePolicy(random_explicit_policy(space, ["q"], rng), 0.5)
    check = check_translation(policy, policy, "q")
    assert check.holds
    assert check.lhs == pytest.approx(check.rhs, abs=1e-8)


def test_translation_inequality_random_mixtures():
    rng = np.random.default_rng(3)
    spaces = (SlateSpace.ranking(4, 3), SlateSpace.ranking(3, 2), SlateSpace.cartesian((4, 3)))
    for trial in range(200):
        space = spaces[trial % 3]
        slate = tuple(
            int(a) for a in rng.permutation(space.slot_counts[0])[: space.num_slots]
        ) if space.kind.value == "ranking" else tuple(
            int(rng.integers(c)) for c in space.slot_counts
        )
        logging = UniformMixturePolicy(
            DeterministicPolicy(space, {"q": slate}), float(rng.uniform(0.05, 0.95))
        )
        check = check_translation(logging, UniformPolicy(space), "q")
        assert check.holds, (trial, check)


def test_translation_requires_absolute_continuity():
    space = SlateSpace.ranking(3, 2)
    logging = UniformPolicy(space)
    reference = DeterministicPolicy(space, {"q": (0, 1)})
    with pytest.raises(AbsoluteContinuityError):
        check_translation(logging, reference, "q")


def test_rho_capped_for_kappa_uniform_logging():
    """Pairwise kappa-uniform logging keeps rho below slots*m/kappa."""
    rng = np.random.default_rng(4)
    for space in (SlateSpace.ranking(4, 3), SlateSpace.cartesian((3, 3))):
        for _ in range(25):
            kappa = float(rng.uniform(0.1, 0.9))
            logging = UniformMixturePolicy(
                random_explicit_policy(space, ["q"], rng, sparsity=0.3), kappa
            )
            target = random_explicit_policy(space, ["q"], rng, sparsity=0.5)
            rho = compute_rho(["q"], logging, target)
            assert rho <= kappa_uniform_rho_limit(space) / kappa + 1e-8


def test_bernstein_value():
    assert bernstein_bound(1.0, 1.0, 1000, 0.05) == pytest.approx(0.09081, abs=5e-6)


def test_bernstein_monotone_in_n():
    values = [bernstein_bound(2.0, 3.0, n, 0.05) for n in (10, 100, 1000, 10_000, 100_000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.02


def test_bernstein_scales_as_sqrt_over_n():
    rho_bar = 9.0
    n = 10_000
    bound = bernstein_bound(rho_bar, rho_bar, n, 0.05)
    assert bound == pytest.approx(np.sqrt(2 * rho_bar * np.log(40) / n), rel=0.2)


def test_bernstein_validates_inputs():
    with pytest.raises(ConfigurationError):
        bernstein_bound(1.0, 1.0, 100, 1.5)
    with pytest.raises(ConfigurationError):
        bernstein_bound(1.0, 1.0, 0, 0.05)


def test_overlap_profile_output():
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(5)
    logging = UniformMixturePolicy(random_explicit_policy(space, ["a", "b"], rng), 0.5)
    target = random_explicit_policy(space, ["a", "b"], rng)
    profile = overlap_profile(["a", "b"], logging, target)
    assert profile.sigma_sq <= profile.rho + 1e-8 <= profile.rho_bar + 2e-8
    assert profile.kappa is not None and profile.kappa >= 0.5 - 1e-12
    row = profile.to_csv_row()
    assert len(row.split(",")) == len(OverlapProfile.CSV_HEADER.split(","))
    assert "sigma_sq=" in profile.to_kv_block()
