import numpy as np
import pytest

from helpers import (
    coord,
    few_slate_table,
    random_explicit_policy,
    read_matrix,
    rho_bar_uniform,
    write_matrix,
)
from slateval import (
    DeterministicPolicy,
    ExplicitPolicy,
    MultinomialWoRPolicy,
    PinvSource,
    SlateError,
    SlateSpace,
    UniformPolicy,
    moment_matrix,
    pinv_numeric,
    pinv_uniform_cartesian,
    pinv_uniform_ranking,
)
from slateval import moments
from slateval.moments import Provenance, uniform_moment_matrix


def enumerated_uniform(space) -> np.ndarray:
    """Independent oracle: average the indicator outer products directly."""
    total = np.zeros((space.dim, space.dim))
    count = 0
    for slate in space.enumerate_slates():
        ind = space.indicator(slate)
        total += np.outer(ind, ind)
        count += 1
    return total / count


def test_uniform_ranking_2x2_matrix():
    space = SlateSpace.ranking(2, 2)
    expected = np.array(
        [[0.5, 0, 0, 0.5], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0.5, 0, 0, 0.5]]
    )
    np.testing.assert_allclose(uniform_moment_matrix(space).entries, expected)
    np.testing.assert_allclose(enumerated_uniform(space), expected)


def test_uniform_cartesian_2x2_matrix():
    space = SlateSpace.cartesian((2, 2))
    matrix = uniform_moment_matrix(space).entries
    np.testing.assert_allclose(np.diag(matrix), 0.5)
    assert matrix[0, 2] == pytest.approx(0.25)
    np.testing.assert_allclose(matrix, enumerated_uniform(space))


def test_deterministic_moment_is_outer_product():
    space = SlateSpace.ranking(3, 2)
    policy = DeterministicPolicy(space, {"q": (1, 2)})
    ind = space.indicator((1, 2))
    result = moment_matrix(policy, "q")
    np.testing.assert_allclose(result.entries, np.outer(ind, ind))
    assert result.provenance is Provenance.ENUMERATED


def test_listed_supports_stay_exact_above_the_enumeration_cap():
    """Explicit and deterministic policies list their own support, so their
    moments are enumerated even on a space of 1.86M slates."""
    space = SlateSpace.ranking(20, 5)
    rows = few_slate_table(space, ["q"], 6, np.random.default_rng(23))["q"]
    explicit = moment_matrix(ExplicitPolicy(space, {"q": rows}), "q")
    assert explicit.provenance is Provenance.ENUMERATED
    want = sum(p * np.outer(space.indicator(s), space.indicator(s)) for s, p in rows)
    np.testing.assert_allclose(explicit.entries, want, rtol=0, atol=1e-15)
    slate = rows[0][0]
    deterministic = moment_matrix(DeterministicPolicy(space, {"q": slate}), "q")
    assert deterministic.provenance is Provenance.ENUMERATED
    ind = space.indicator(slate)
    np.testing.assert_array_equal(deterministic.entries, np.outer(ind, ind))


def test_enumerated_matrix_structure():
    """Diagonal carries marginals, within-slot off-diagonals vanish, and the
    trace counts slots."""
    space = SlateSpace.ranking(4, 3)
    rng = np.random.default_rng(5)
    policy = random_explicit_policy(space, ["q"], rng, sparsity=0.5)
    matrix = moment_matrix(policy, "q").entries
    marginals = policy.mean_indicator("q")
    assert np.trace(matrix) == pytest.approx(space.num_slots, abs=1e-9)
    for j in range(space.num_slots):
        for a in range(4):
            c = coord(space, j, a)
            assert matrix[c, c] == pytest.approx(marginals[c], abs=1e-12)
            for b in range(4):
                if a != b:
                    assert matrix[c, coord(space, j, b)] == 0.0
    eigvals = np.linalg.eigvalsh(matrix)
    assert eigvals.min() >= -1e-8


def test_pinv_diagonal():
    result = pinv_numeric(np.diag([0.5, 0.0, 0.25]))
    np.testing.assert_allclose(result.entries, np.diag([2.0, 0.0, 4.0]))
    assert result.rank == 2


def test_pinv_uniform_ranking_2x2_is_involution():
    space = SlateSpace.ranking(2, 2)
    gamma = uniform_moment_matrix(space).entries
    np.testing.assert_allclose(pinv_uniform_ranking(space).entries, gamma, atol=1e-12)
    np.testing.assert_allclose(pinv_numeric(gamma).entries, gamma, atol=1e-10)


def test_pinv_of_pinv_restores_matrix():
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(8)
    policy = random_explicit_policy(space, ["q"], rng)
    gamma = moment_matrix(policy, "q").entries
    once = pinv_numeric(gamma).entries
    twice = pinv_numeric(once).entries
    assert np.linalg.norm(twice - gamma) <= 1e-8


def test_pinv_rejects_asymmetric():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(SlateError):
        pinv_numeric(bad)


def test_penrose_conditions():
    rng = np.random.default_rng(3)
    for space in (SlateSpace.ranking(4, 3), SlateSpace.cartesian((3, 2, 2))):
        policy = random_explicit_policy(space, ["q"], rng, sparsity=0.4)
        gamma = moment_matrix(policy, "q").entries
        pinv = pinv_numeric(gamma).entries
        scale = np.linalg.norm(gamma)
        assert np.linalg.norm(gamma @ pinv @ gamma - gamma) <= 1e-8 * scale
        assert np.linalg.norm(pinv @ gamma @ pinv - pinv) <= 1e-8 * max(np.linalg.norm(pinv), 1)
        assert np.linalg.norm(gamma @ pinv - (gamma @ pinv).T) <= 1e-8
        assert np.linalg.norm(pinv @ gamma - (pinv @ gamma).T) <= 1e-8


def test_closed_form_matches_numeric_small_grid():
    for m, ell in ((2, 2), (4, 2), (5, 3), (4, 4)):
        space = SlateSpace.ranking(m, ell)
        numeric = np.linalg.pinv(enumerated_uniform(space))
        closed = pinv_uniform_ranking(space).entries
        assert np.linalg.norm(numeric - closed) <= 1e-8
    for counts in ((2, 2), (3, 3), (4, 2, 3)):
        space = SlateSpace.cartesian(counts)
        numeric = np.linalg.pinv(enumerated_uniform(space))
        closed = pinv_uniform_cartesian(space).entries
        assert np.linalg.norm(numeric - closed) <= 1e-8


def test_cross_overlap_identity_uniform_cartesian():
    """overlap(s', s) = 1 + sum_j 1{s'_j = s_j} m_j - slots, under uniform
    logging on a product space."""
    space = SlateSpace.cartesian((3, 3))
    pinv = pinv_uniform_cartesian(space).entries
    for s in space.enumerate_slates():
        for t in space.enumerate_slates():
            expected = 1 + sum(
                (3 if s[j] == t[j] else 0) for j in range(2)
            ) - 2
            got = space.indicator(t) @ pinv @ space.indicator(s)
            assert got == pytest.approx(expected, abs=1e-9)


def test_rho_bar_closed_forms():
    assert rho_bar_uniform(SlateSpace.cartesian((3, 3))) == 5
    assert rho_bar_uniform(SlateSpace.ranking(4, 2)) == 7
    assert rho_bar_uniform(SlateSpace.ranking(3, 3)) == 5


def test_max_self_overlap_matches_rho_bar():
    for space in (SlateSpace.cartesian((3, 3)), SlateSpace.ranking(4, 2), SlateSpace.ranking(3, 3)):
        if space.kind.value == "cartesian":
            pinv = pinv_uniform_cartesian(space).entries
        else:
            pinv = pinv_uniform_ranking(space).entries
        best = max(
            space.indicator(s) @ pinv @ space.indicator(s) for s in space.enumerate_slates()
        )
        assert best == pytest.approx(rho_bar_uniform(space), abs=1e-9)


def test_null_space_containment():
    """Vectors orthogonal to every supported indicator are annihilated."""
    space = SlateSpace.ranking(4, 2)
    rng = np.random.default_rng(17)
    policy = random_explicit_policy(space, ["q"], rng, sparsity=0.5)
    gamma = moment_matrix(policy, "q").entries
    rows = np.stack([space.indicator(s) for s, _ in policy.support("q")])
    _, singulars, vt = np.linalg.svd(rows)
    null_basis = vt[np.sum(singulars > 1e-12) :]
    if len(null_basis):
        vec = null_basis.T @ rng.normal(size=len(null_basis))
        assert np.linalg.norm(gamma @ vec) <= 1e-8


def test_slate_value_reconstruction_under_additive_rewards():
    """With additive per-(slot, action) rewards, pinv times the marginal
    value vector recovers every supported slate's value exactly."""
    rng = np.random.default_rng(19)
    for space in (SlateSpace.ranking(4, 2), SlateSpace.ranking(3, 3), SlateSpace.cartesian((3, 2))):
        for _ in range(5):
            policy = random_explicit_policy(space, ["q"], rng, sparsity=0.5)
            phi = rng.uniform(-0.3, 0.3, size=space.dim)
            theta = np.zeros(space.dim)
            for slate, p in policy.support("q"):
                value = float(phi[space.coords(slate)].sum())
                theta += p * value * space.indicator(slate)
            pinv = pinv_numeric(moment_matrix(policy, "q")).entries
            for slate, _ in policy.support("q"):
                reconstructed = space.indicator(slate) @ pinv @ theta
                direct = float(phi[space.coords(slate)].sum())
                assert abs(reconstructed - direct) <= 1e-8


def test_mean_overlap_identity_on_support():
    """q' P 1_s = 1 for every supported slate of the logging policy."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for space in (SlateSpace.ranking(4, 2), SlateSpace.cartesian((3, 2))):
        for _ in range(10):
            policy = random_explicit_policy(space, ["q"], rng, sparsity=0.5)
            pinv = pinv_numeric(moment_matrix(policy, "q")).entries
            q = policy.mean_indicator("q")
            for slate, _ in policy.support("q"):
                worst = max(worst, abs(q @ pinv @ space.indicator(slate) - 1.0))
    assert worst <= 1e-8


def test_pinv_source_uses_closed_form_for_uniform():
    space = SlateSpace.ranking(4, 2)
    source = PinvSource()
    record = source.record(UniformPolicy(space), "q")
    np.testing.assert_array_equal(record.pinv.entries, pinv_uniform_ranking(space).entries)
    assert record.pinv.rank == pinv_uniform_ranking(space).rank
    np.testing.assert_array_equal(record.matrix.entries, uniform_moment_matrix(space).entries)
    assert record.matrix.provenance is Provenance.CLOSED_FORM_UNIFORM_RANKING
    assert source.pseudoinverse(UniformPolicy(space), "q") is record.pinv.entries


def test_pinv_source_caches(monkeypatch):
    space = SlateSpace.ranking(4, 2)
    policy = UniformPolicy(space)
    source = PinvSource()
    assert source.record(policy, "q") is source.record(policy, "q")

    # the closed form depends on the space alone: uniform contexts sharing a
    # space get one record, whichever uniform policy asks
    calls = []
    build = moments.pinv_uniform
    monkeypatch.setattr(moments, "pinv_uniform", lambda sp: calls.append(sp) or build(sp))
    source = PinvSource()
    softmax_at_zero = MultinomialWoRPolicy(space, {"b": np.arange(4.0)}, 0.0)
    first = source.record(policy, "a")
    assert source.record(policy, "b") is first
    assert source.record(softmax_at_zero, "b") is first
    assert calls == [space]
    other = SlateSpace.cartesian((3, 3))
    source.record(UniformPolicy(other), "a")
    assert calls == [space, other]

    # numeric records stay keyed by (policy, context) and keep the matrix
    explicit = random_explicit_policy(space, ["a", "b"], np.random.default_rng(8))
    at_a = source.record(explicit, "a")
    assert source.record(explicit, "a") is at_a
    assert at_a.matrix.provenance is Provenance.ENUMERATED
    np.testing.assert_array_equal(at_a.matrix.entries, moment_matrix(explicit, "a").entries)
    np.testing.assert_array_equal(at_a.pinv.entries, pinv_numeric(at_a.matrix).entries)
    assert not np.array_equal(source.record(explicit, "b").pinv.entries, at_a.pinv.entries)


def test_monte_carlo_moment_matrix_close_to_exact():
    space = SlateSpace.ranking(4, 2)
    scores = {"q": np.random.default_rng(31).normal(size=4)}
    exact_policy = MultinomialWoRPolicy(space, scores, 1.0)
    # the same policy with a cap below its 12 slates samples its moments
    forced = MultinomialWoRPolicy(
        space, scores, 1.0, enumeration_cap=1, mc_samples=200_000, mc_seed=4
    )
    approx = moment_matrix(forced, "q")
    assert approx.provenance is Provenance.MONTE_CARLO
    assert approx.sample_count == 200_000
    exact = moment_matrix(exact_policy, "q").entries
    assert np.abs(approx.entries - exact).max() < 5e-3
    result = pinv_numeric(approx)
    assert np.all(np.isfinite(result.entries))


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    matrix = rng.normal(size=(5, 5))
    path = tmp_path / "matrix.txt"
    write_matrix(path, matrix)
    np.testing.assert_array_equal(read_matrix(path), matrix)


GOLDEN_DIR = __file__.rsplit("/", 1)[0] + "/data"


def test_closed_forms_match_golden_files(tmp_path):
    """Frozen serialized pseudoinverses guard both the closed forms and the
    17-digit text format."""
    cases = (
        ("pinv_uniform_ranking_m4_l2.txt", pinv_uniform_ranking(SlateSpace.ranking(4, 2))),
        ("pinv_uniform_cartesian_3x3.txt", pinv_uniform_cartesian(SlateSpace.cartesian((3, 3)))),
    )
    for name, pinv in cases:
        golden_path = f"{GOLDEN_DIR}/{name}"
        np.testing.assert_array_equal(read_matrix(golden_path), pinv.entries)
        regenerated = tmp_path / name
        write_matrix(regenerated, pinv.entries)
        assert regenerated.read_text() == open(golden_path).read()


def test_bincount_moments_equal_the_add_at_loops_bit_for_bit():
    """moment_matrix and mean_indicator sum each cell's terms in row order,
    exactly as the per-slot-pair np.add.at loops they replaced."""
    rng = np.random.default_rng(21)
    cases = [
        MultinomialWoRPolicy(SlateSpace.ranking(10, 3), {"q": rng.normal(size=10)}, 1.0),
        MultinomialWoRPolicy(SlateSpace.ranking(7, 4), {"q": rng.normal(size=7)}, 2.5),
        # above the enumeration cap: the Monte Carlo sample takes the same path
        MultinomialWoRPolicy(
            SlateSpace.ranking(12, 5), {"q": rng.normal(size=12)}, 1.0,
            enumeration_cap=1000, mc_samples=5000,
        ),
        random_explicit_policy(SlateSpace.cartesian((3, 2, 4)), ["q"], rng, sparsity=0.5),
    ]
    for policy in cases:
        space = policy.space_of("q")
        arrays = policy.moment_arrays("q")
        coords = space.coords_of_actions(arrays.actions)
        entries = np.zeros((space.dim, space.dim))
        mean = np.zeros(space.dim)
        for j in range(space.num_slots):
            np.add.at(mean, coords[:, j], arrays.probs)
            for k in range(space.num_slots):
                np.add.at(entries, (coords[:, j], coords[:, k]), arrays.probs)
        if not arrays.exact:
            entries = 0.5 * (entries + entries.T)
        assert np.array_equal(moment_matrix(policy, "q").entries, entries)
        if arrays.exact:
            assert np.array_equal(policy.mean_indicator("q"), mean)
