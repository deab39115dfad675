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
    store, rows = source.moments(UniformPolicy(space), ["q", "r"])
    assert rows.tolist() == [0, 0] and len(store.index) == 1
    np.testing.assert_array_equal(store.column("pinv")[0], pinv_uniform_ranking(space).entries)
    assert store.column("rank")[0] == pinv_uniform_ranking(space).rank
    np.testing.assert_array_equal(store.column("gamma")[0], uniform_moment_matrix(space).entries)
    assert store.column("provenance")[0] is Provenance.CLOSED_FORM_UNIFORM_RANKING
    pinv = source.pseudoinverse(UniformPolicy(space), "q")
    np.testing.assert_array_equal(pinv, store.column("pinv")[0])
    stack = source.pinv_stack(UniformPolicy(space), ["q", "r", "s"])
    assert stack.shape == (3, space.dim, space.dim) and not stack.flags.writeable
    assert (stack == pinv).all()


def test_pinv_source_caches(monkeypatch):
    # the closed form depends on the space alone: uniform contexts sharing a
    # space read one row, whichever uniform policy asks
    calls = []
    build = moments.pinv_uniform
    monkeypatch.setattr(moments, "pinv_uniform", lambda sp: calls.append(sp) or build(sp))
    space = SlateSpace.ranking(4, 2)
    policy = UniformPolicy(space)
    source = PinvSource()
    softmax_at_zero = MultinomialWoRPolicy(space, {"b": np.arange(4.0)}, 0.0)
    first = source.pseudoinverse(policy, "a")
    assert np.array_equal(source.pseudoinverse(policy, "a"), first)
    assert np.array_equal(source.pseudoinverse(policy, "b"), first)
    assert np.array_equal(source.pseudoinverse(softmax_at_zero, "b"), first)
    assert calls == [space]
    other = SlateSpace.cartesian((3, 3))
    source.pseudoinverse(UniformPolicy(other), "a")
    assert calls == [space, other]

    # numeric moments stay keyed by (policy, space), one row per context,
    # built once and keeping the matrix
    explicit = random_explicit_policy(space, ["a", "b"], np.random.default_rng(8))
    built = []
    build_matrix = moments.moment_matrix
    monkeypatch.setattr(
        moments, "moment_matrix", lambda p, c, s=None: built.append(c) or build_matrix(p, c, s)
    )
    at_a = source.pseudoinverse(explicit, "a")
    assert np.array_equal(source.pseudoinverse(explicit, "a"), at_a)
    assert built == [["a"]]
    store, (row,) = source.moments(explicit, ["a"])
    assert store.column("provenance")[row] is Provenance.ENUMERATED
    gamma = store.column("gamma")[row]
    np.testing.assert_array_equal(gamma, moment_matrix(explicit, "a").entries)
    np.testing.assert_array_equal(at_a, pinv_numeric(gamma).entries)
    assert not np.array_equal(source.pseudoinverse(explicit, "b"), at_a)
    assert built == [["a"], ["b"]]


def test_a_stack_mixing_uniform_and_numeric_contexts_is_rejected():
    """A store serves one kind of moments, so a call that mixes contexts
    where the policy is uniform and where it is not is rejected, as
    moment_matrix rejects such a stack; each kind alone is served."""

    class UniformAtU(ExplicitPolicy):
        def is_uniform(self, context):
            return context == "u"

    space = SlateSpace.ranking(4, 2)
    table = {c: list(space.enumerate_slates()) for c in ("u", "n")}
    table = {c: [(s, 1.0 / len(slates)) for s in slates] for c, slates in table.items()}
    policy = UniformAtU(space, table)
    source = PinvSource()
    with pytest.raises(SlateError, match="mixes contexts"):
        source.pinv_stack(policy, ["u", "n"])
    closed = pinv_uniform_ranking(space).entries
    np.testing.assert_array_equal(source.pseudoinverse(policy, "u"), closed)
    np.testing.assert_allclose(source.pseudoinverse(policy, "n"), closed, atol=1e-9)


def test_cached_moments_are_read_only():
    """Writes into what a source or a policy hands out raise, and a later
    estimate, from the same source or a fresh one, is unchanged."""
    from helpers import draw_ada_logs, make_ada_instance, mixture_logging_policy
    from slateval import estimate_pi

    instance = make_ada_instance(num_contexts=3, seed=5)
    logging = random_explicit_policy(instance.space, instance.contexts, np.random.default_rng(2))
    target = mixture_logging_policy(instance, 0.3, np.random.default_rng(3))
    logs = draw_ada_logs(instance, logging, 100, np.random.default_rng(4))
    source = PinvSource()
    before = estimate_pi(logs, logging, target, pinv_source=source).estimate
    context = instance.contexts[0]
    with pytest.raises(ValueError):
        source.pseudoinverse(logging, context)[0, 0] = 5.0
    store, rows = source.moments(logging, instance.contexts)
    for name in ("gamma", "pinv", "rank", "cutoff", "provenance", "sample_count"):
        with pytest.raises(ValueError):
            store.column(name)[rows[0]] = store.column(name)[rows[1]]
    for policy in (logging, target.base):
        arrays = policy.moment_arrays(context)
        for array in (arrays.actions, arrays.probs):
            with pytest.raises(ValueError):
                array[:] = 0
    with pytest.raises(ValueError):
        target.mean_indicator(context)[0] = 1.0
    assert estimate_pi(logs, logging, target, pinv_source=source).estimate == before
    assert estimate_pi(logs, logging, target, pinv_source=PinvSource()).estimate == before


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


def reference_pinv(entries, rcond=moments.DEFAULT_RCOND):
    """The one-matrix pseudoinverse the stacked build replaced: per-matrix
    eigh (or the diagonal inverted entrywise) and reconstruction."""
    entries = 0.5 * (entries + entries.T)
    diagonal = not (entries - np.diag(np.diag(entries))).any()
    eigvals, eigvecs = (np.diag(entries).copy(), None) if diagonal else np.linalg.eigh(entries)
    cutoff = rcond * float(eigvals.max(initial=0.0))
    keep = eigvals > cutoff
    inv = np.zeros_like(eigvals)
    inv[keep] = 1.0 / eigvals[keep]
    pinv = np.diag(inv) if diagonal else (eigvecs * inv) @ eigvecs.T
    return 0.5 * (pinv + pinv.T), int(keep.sum()), cutoff


def test_stacked_pinv_equals_the_one_matrix_algorithm_bit_for_bit():
    rng = np.random.default_rng(12)
    space = SlateSpace.ranking(6, 3)
    contexts = [f"c{i}" for i in range(12)]
    explicit = random_explicit_policy(space, contexts, rng, sparsity=0.3)
    stack = list(moment_matrix(explicit, contexts).entries)
    stack += [np.diag(rng.random(space.dim)), np.diag(np.r_[0.0, rng.random(space.dim - 1)])]
    stack = np.stack(stack)
    result = pinv_numeric(stack)
    for i, entries in enumerate(stack):
        want, rank, cutoff = reference_pinv(entries)
        assert np.array_equal(result.entries[i], want)
        assert (result.rank[i], result.singular_cutoff[i]) == (rank, cutoff)
        one = pinv_numeric(entries)
        assert np.array_equal(one.entries, want)
        assert (one.rank, one.singular_cutoff) == (rank, cutoff)


def test_stacked_pinv_names_the_asymmetry_of_the_first_asymmetric_matrix():
    stack = np.stack([np.eye(3), np.eye(3), np.eye(3)])
    stack[1, 0, 2] = 1e-3
    stack[2, 0, 1] = 1.0
    with pytest.raises(SlateError, match=r"asymmetry 0\.001\)"):
        pinv_numeric(stack)


def test_stacks_of_more_rows_than_one_chunk_equal_one_context_builds():
    """A stack longer than STACK_ROWS is reduced in runs of contexts (here
    two contexts, then one); every context's matrix and mean indicator
    equal its one-context build."""
    from slateval.policies import STACK_ROWS

    space = SlateSpace.ranking(5, 3)
    contexts = ["a", "b", "c"]
    scores = {c: np.random.default_rng(i).normal(size=5) for i, c in enumerate(contexts)}

    def make():
        return MultinomialWoRPolicy(space, scores, 1.0, enumeration_cap=10, mc_samples=30_000)

    policy = make()
    rows = policy.moment_rows(contexts, space)
    assert [(lo, hi) for lo, hi, _ in rows.chunks()] == [(0, 2), (2, 3)] and 60_000 < STACK_ROWS
    stacked = moment_matrix(policy, contexts)
    for i, context in enumerate(contexts):
        alone = make()
        assert np.array_equal(moment_matrix(alone, context).entries, stacked.entries[i])
        assert np.array_equal(alone.mean_indicator(context), policy.mean_indicator(context))


def test_stacks_of_more_contexts_than_one_run_equal_one_context_builds(monkeypatch):
    """With STACK_CELLS at two matrices, the moments of five contexts are
    built in runs of two, two and one, and the estimators and overlap
    diagnostics read their stacks in the same runs; every store row equals
    its one-context build and every output equals the one-run output."""
    from helpers import draw_ada_logs, make_ada_instance, mixture_logging_policy
    from slateval.diagnostics import overlap_profile
    from slateval.estimators import _ScoredBatch

    instance = make_ada_instance(num_contexts=5, seed=3)
    logging = mixture_logging_policy(instance, 0.2, np.random.default_rng(4))
    target = MultinomialWoRPolicy(
        instance.space, {c: np.arange(4.0) * (c + 1) for c in instance.contexts}, 1.5
    )
    logs = draw_ada_logs(instance, logging, 200, np.random.default_rng(5))
    names = ("pi", "ips", "wips")

    def outputs():
        source = PinvSource()
        scored = _ScoredBatch(logs, logging, target, names, source)
        profile = overlap_profile(instance.contexts, logging, target, pinv_source=source)
        return source, (scored.pi(diagnostics=True), scored.ips(), scored.wips(), profile)

    one_run, expected = outputs()
    monkeypatch.setattr(moments, "STACK_CELLS", 2 * instance.space.dim**2)
    sizes = []
    build = moments.moment_matrix

    def counted(policy, contexts, space=None):
        if policy is logging:
            sizes.append(len(contexts))
        return build(policy, contexts, space)

    monkeypatch.setattr(moments, "moment_matrix", counted)
    source, got = outputs()
    assert sizes == [2, 2, 1]
    assert got == expected
    for context in instance.contexts:
        (store, (row,)), (alone, (at,)) = (
            s.moments(logging, [context]) for s in (source, PinvSource())
        )
        for name in ("gamma", "pinv", "rank", "cutoff"):
            assert np.array_equal(store.column(name)[row], alone.column(name)[at])
        pinv = one_run.pseudoinverse(logging, context)
        assert np.array_equal(store.column("pinv")[row], pinv)


def test_a_mixture_with_a_uniform_base_reads_the_uniform_closed_forms():
    """A mixture that is uniform at a context (a uniform base) takes the
    uniform mean indicator and moments, as its moment matrix always did;
    kappa * u + (1 - kappa) * u differs from u in the last bit here."""
    from slateval import UniformMixturePolicy
    from slateval.policies import uniform_mean_indicator

    space = SlateSpace.ranking(5, 2)
    u = uniform_mean_indicator(space)
    assert not np.array_equal(0.3 * u + 0.7 * u, u)
    for base in (UniformPolicy(space), MultinomialWoRPolicy(space, {"q": np.arange(5.0)}, 0.0)):
        mixture = UniformMixturePolicy(base, 0.3)
        assert mixture.is_uniform("q")
        assert np.array_equal(mixture.mean_indicator("q"), u)
        assert np.array_equal(mixture.mean_indicators(["q"], space), [u])
        store, (row,) = PinvSource().moments(mixture, ["q"])
        assert store.column("provenance")[row] is Provenance.CLOSED_FORM_UNIFORM_RANKING
        assert np.array_equal(store.column("pinv")[row], pinv_uniform_ranking(space).entries)
