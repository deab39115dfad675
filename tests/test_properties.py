"""Property-based checks of the batch paths against per-slate and
per-example references kept in this file, and of the estimator
identities on random enumerable spaces and policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _design_matrix,
    _fold_moments,
    decompose_reference,
    keyed_features,
    random_explicit_policy,
    write_logged_dataset,
)
from slateval import (
    DeterministicPolicy,
    ExplicitPolicy,
    LoggedBatch,
    LoggedExample,
    MultinomialWoRPolicy,
    ParseError,
    PinvSource,
    SlateError,
    SlateSpace,
    SpaceKind,
    UndefinedEstimateError,
    UniformMixturePolicy,
    UniformPolicy,
    compute_rho,
    compute_rho_bar,
    compute_sigma_sq,
    decompose,
    estimate_ips,
    estimate_pi,
    estimate_wips,
    fit_scorer,
    load_explicit_policy,
    parse_letor,
    read_logged_dataset,
)
from slateval.letor import _canonical_columns as _letor_canonical
from slateval.letor import _text_columns as _letor_text_columns
from slateval.logs import _canonical_columns, _text_columns
from slateval.optimization import FOLDS
from slateval.ridge import cv_select_alpha, fold_moments_from_rows, solve_ridge
from slateval.spaces import space_of
from slateval import util
from slateval.util import block_runs, pairwise_sum

# derandomized so the suite gives the same verdict on every run
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
CONTEXTS = ("a", "b", "c")
KINDS = ("uniform", "deterministic", "explicit", "plackett_luce", "mixture")
# 0 is uniform; 400 is sharp enough to underflow plain softmax weights
TEMPERATURES = (0.0, 0.7, 40.0, 400.0)


@st.composite
def spaces(draw):
    if draw(st.booleans()):
        return SlateSpace.cartesian(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    m = draw(st.integers(1, 5))
    return SlateSpace.ranking(m, draw(st.integers(1, min(m, 3))))


class Reference:
    """A policy and an independent per-slate probability for it."""

    def __init__(self, policy, prob):
        self.policy = policy
        self.prob = prob  # (context, slate tuple) -> float


@st.composite
def references(draw, space, kinds=KINDS):
    kinds = [k for k in kinds if k != "plackett_luce" or space.kind is SpaceKind.RANKING]
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slates = list(space.enumerate_slates())
    if kind == "uniform":
        return Reference(UniformPolicy(space), lambda c, s: 1.0 / len(slates))
    if kind == "deterministic":
        picked = {c: slates[rng.integers(len(slates))] for c in CONTEXTS}
        return Reference(
            DeterministicPolicy(space, picked), lambda c, s: float(s == picked[c])
        )
    if kind == "plackett_luce":
        temperature = draw(st.sampled_from(TEMPERATURES))
        scores = {c: rng.normal(size=space.num_actions) for c in CONTEXTS}

        def product_of_softmaxes(c, s):
            logits = temperature * scores[c]
            remaining = list(range(space.num_actions))
            prob = 1.0
            for a in s:
                weights = np.exp(logits[remaining] - logits[remaining].max())
                prob *= weights[remaining.index(a)] / weights.sum()
                remaining.remove(a)
            return prob

        return Reference(MultinomialWoRPolicy(space, scores, temperature), product_of_softmaxes)
    if kind == "explicit":
        table, lookup = {}, {}
        for c in CONTEXTS:
            keep = rng.random(len(slates)) < 0.6
            keep[rng.integers(len(slates))] = True
            chosen = [s for s, k in zip(slates, keep) if k]
            weights = rng.gamma(0.5, size=len(chosen)) * (rng.random(len(chosen)) < 0.8)
            weights[rng.integers(len(chosen))] += 1.0
            weights = weights / weights.sum()
            table[c] = list(zip(chosen, weights))
            lookup[c] = dict(table[c])
        return Reference(ExplicitPolicy(space, table), lambda c, s: lookup[c].get(s, 0.0))
    base = draw(references(space, kinds=("deterministic", "explicit", "plackett_luce")))
    kappa = draw(st.floats(0.0, 1.0))
    return Reference(
        UniformMixturePolicy(base.policy, kappa),
        lambda c, s: kappa / len(slates) + (1.0 - kappa) * base.prob(c, s),
    )


@st.composite
def space_and_reference(draw):
    space = draw(spaces())
    return space, draw(references(space))


@PROPERTY_SETTINGS
@given(space_and_reference())
def test_slate_prob_batch_matches_per_slate_reference(case):
    space, ref = case
    rows = space.slate_array()
    for context in CONTEXTS:
        got = ref.policy.slate_prob_batch(context, rows)
        want = [ref.prob(context, tuple(row)) for row in rows.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert ref.policy.slate_prob(context, tuple(rows[-1].tolist())) == got[-1]
    bad = rows[:1].copy()
    bad[0, 0] = space.slot_counts[0]
    with pytest.raises(SlateError):
        ref.policy.slate_prob_batch(CONTEXTS[0], np.vstack([rows, bad]))


def naive_estimates(logs, logging, target):
    """PI, IPS and wIPS (None when undefined) by a loop over the examples,
    with the same arithmetic per example as the batch path."""
    source = PinvSource()
    pi_terms, weights = [], []
    for ex in logs:
        space = logging.space_of(ex.context)
        w = target.mean_indicator(ex.context) @ source.pseudoinverse(logging, ex.context)
        pi_terms.append(ex.reward * float(w[space.coords(ex.slate)].sum()))
        mu = logging.slate_prob(ex.context, ex.slate)
        weights.append(target.slate_prob(ex.context, ex.slate) / mu)
    rewards = np.array([ex.reward for ex in logs])
    weighted = pairwise_sum(rewards * np.array(weights))
    total = pairwise_sum(np.array(weights))
    n = len(logs)
    pi = pairwise_sum(np.array(pi_terms)) / n
    return pi, weighted / n, (weighted / total if total else None)


@st.composite
def logged_problems(draw):
    space = draw(spaces())
    logging = draw(references(space)).policy
    target = draw(references(space)).policy
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rewards = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    logs = []
    for reward in rewards:
        context = CONTEXTS[rng.integers(len(CONTEXTS))]
        logs.append(LoggedExample(context, logging.sample(context, rng), reward))
    return logs, logging, target


@PROPERTY_SETTINGS
@given(logged_problems())
def test_batch_estimators_match_per_example_loop(problem):
    logs, logging, target = problem
    batch = LoggedBatch.from_examples(logs)
    pi, ips, wips = naive_estimates(logs, logging, target)
    assert estimate_pi(batch, logging, target).estimate == pi
    assert estimate_ips(batch, logging, target).estimate == ips
    if wips is None:
        with pytest.raises(UndefinedEstimateError):
            estimate_wips(batch, logging, target)
    else:
        assert estimate_wips(batch, logging, target).estimate == wips


context_ids = st.text("abcxyz019_-.", min_size=1, max_size=6)


@st.composite
def batches(draw):
    n = draw(st.integers(1, 30))
    width = draw(st.integers(1, 4))
    contexts = draw(st.lists(context_ids, min_size=1, max_size=5, unique=True))
    codes = draw(st.lists(st.integers(0, len(contexts) - 1), min_size=n, max_size=n))
    actions = draw(
        st.lists(st.lists(st.integers(0, 99), min_size=width, max_size=width),
                 min_size=n, max_size=n)
    )
    rewards = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return LoggedBatch(contexts, codes, actions, rewards)


@PROPERTY_SETTINGS
@given(batches())
def test_batch_write_read_round_trip(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("logs") / "logs.tsv"
    write_logged_dataset(path, batch)
    back = read_logged_dataset(path)
    assert back == batch
    np.testing.assert_array_equal(back.actions, batch.actions)
    np.testing.assert_array_equal(back.rewards, batch.rewards)
    assert [back.contexts[c] for c in back.codes] == [batch.contexts[c] for c in batch.codes]


@st.composite
def overlapping_problems(draw, single_slot=False):
    """Logs drawn from a random logging policy, plus the logging policy
    itself or a random target whose support lies inside the logging
    support at every context."""
    space = draw(spaces())
    if single_slot:
        space = SlateSpace(space.kind, space.slot_counts[:1])
    logging = draw(references(space)).policy
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        target = logging
    else:
        table = {}
        for c in CONTEXTS:
            slates = logging.support_rows([c], space).actions
            keep = rng.random(len(slates)) < 0.5
            keep[rng.integers(len(slates))] = True
            weights = rng.gamma(0.5, size=int(keep.sum())) + 1e-3
            table[c] = list(zip(map(tuple, slates[keep].tolist()), weights / weights.sum()))
        target = ExplicitPolicy(space, table)
    n = draw(st.integers(1, 40))
    rewards = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    logs = []
    for reward in rewards:
        context = CONTEXTS[rng.integers(len(CONTEXTS))]
        logs.append(LoggedExample(context, logging.sample(context, rng), reward))
    return logs, logging, target


@st.composite
def sampled_plackett_luce_problems(draw):
    """A Plackett-Luce logging policy with its cap below its space's size,
    so its moments come from a small seeded sample, and logs drawn from
    that sample. PI's identity is exact for every slate of the sample."""
    m = draw(st.integers(2, 5))
    space = SlateSpace.ranking(m, draw(st.integers(1, min(m, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = {c: rng.normal(size=m) for c in CONTEXTS}
    logging = MultinomialWoRPolicy(
        space, scores, draw(st.sampled_from(TEMPERATURES)),
        enumeration_cap=space.num_slates() - 1, mc_samples=draw(st.integers(1, 60)),
        mc_seed=draw(st.integers(0, 9)),
    )
    n = draw(st.integers(1, 40))
    rewards = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    logs = []
    for reward in rewards:
        context = CONTEXTS[rng.integers(len(CONTEXTS))]
        sample = logging.moment_arrays(context).actions.tolist()
        logs.append(LoggedExample(context, tuple(sample[rng.integers(len(sample))]), reward))
    return logs, logging, logging


@PROPERTY_SETTINGS
@given(st.one_of(overlapping_problems(), sampled_plackett_luce_problems()))
def test_pi_equals_mean_reward_when_target_is_logging(problem):
    logs, logging, _ = problem
    mean_reward = pairwise_sum(np.array([ex.reward for ex in logs])) / len(logs)
    assert estimate_pi(logs, logging, logging).estimate == pytest.approx(mean_reward, abs=1e-9)


@PROPERTY_SETTINGS
@given(overlapping_problems(single_slot=True))
def test_pi_equals_ips_on_single_slot_spaces(problem):
    logs, logging, target = problem
    pi = estimate_pi(logs, logging, target).estimate
    assert pi == pytest.approx(estimate_ips(logs, logging, target).estimate, rel=1e-9, abs=1e-12)


@PROPERTY_SETTINGS
@given(overlapping_problems())
def test_sigma_sq_le_rho_le_rho_bar_inside_the_logging_support(problem):
    _, logging, target = problem
    source = PinvSource()
    sigma_sq = compute_sigma_sq(CONTEXTS, logging, target, pinv_source=source)
    rho = compute_rho(CONTEXTS, logging, target, pinv_source=source)
    rho_bar = max(compute_rho_bar(logging, c, pinv_source=source) for c in CONTEXTS)
    tol = 1e-9 * max(1.0, rho_bar)
    assert sigma_sq <= rho + tol
    assert rho <= rho_bar + tol


@st.composite
def stacked_logging(draw):
    """Contexts and a maker of one logging policy over them, built afresh
    on each call: an explicit table, Plackett-Luce at temperature 0.5 to
    40, a uniform mixture of either, or Plackett-Luce above its
    enumeration cap (Monte Carlo)."""
    kind = draw(st.sampled_from(("explicit", "plackett_luce", "mixture", "monte_carlo")))
    space = draw(spaces())
    if kind != "explicit" and space.kind is not SpaceKind.RANKING:
        m = draw(st.integers(2, 5))
        space = SlateSpace.ranking(m, draw(st.integers(1, min(m, 3))))
    contexts = [f"x{i}" for i in range(draw(st.integers(1, 6)))]
    seed = draw(st.integers(0, 2**32 - 1))
    temperature = draw(st.floats(0.5, 40.0))
    sparsity = draw(st.sampled_from((None, 0.5)))
    kappa = draw(st.floats(0.05, 0.95))
    mc = dict(enumeration_cap=space.num_slates() - 1, mc_samples=draw(st.integers(1, 80)),
              mc_seed=draw(st.integers(0, 9)))

    def make():
        rng = np.random.default_rng(seed)
        if kind == "explicit" or (kind == "mixture" and space.kind is SpaceKind.CARTESIAN):
            policy = random_explicit_policy(space, contexts, rng, sparsity=sparsity)
        else:
            scores = {c: rng.normal(size=space.num_actions) for c in contexts}
            policy = MultinomialWoRPolicy(
                space, scores, temperature, **(mc if kind == "monte_carlo" else {})
            )
        return UniformMixturePolicy(policy, kappa) if kind == "mixture" else policy

    return make, contexts, draw(st.permutations(contexts))


@PROPERTY_SETTINGS
@given(
    st.lists(st.integers(1, 9), max_size=40),
    st.integers(1, 30),
)
def test_block_runs_are_the_longest_runs_within_the_budget(costs, budget):
    """The runs cover the items in order; each run's summed cost fits the
    budget read at call time, or the run is one item over it; no run could
    take its next item; one cost for every item splits as the array of it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(util, "BLOCK_CELLS", budget)
        runs = list(block_runs(len(costs), np.array(costs, dtype=np.int64)))
        assert list(block_runs(len(costs), 7)) == list(block_runs(len(costs), [7] * len(costs)))
    assert [lo for lo, _ in runs] + [len(costs)] == [0] + [hi for _, hi in runs]
    for lo, hi in runs:
        assert hi > lo
        assert sum(costs[lo:hi]) <= budget or hi == lo + 1
        if hi < len(costs):
            assert sum(costs[lo : hi + 1]) > budget


@PROPERTY_SETTINGS
@given(stacked_logging())
def test_moment_records_do_not_depend_on_which_contexts_share_a_stack(case):
    """Every store row equals the context's build alone, and stores grown
    block by block (the first context alone, then the rest) equal a
    one-block build bit for bit."""
    make, contexts, order = case
    policy, grown = make(), make()
    space = policy.space_of(order[0])
    source, grown_source = PinvSource(), PinvSource()
    store, rows = source.moments(policy, order)
    means = policy.mean_indicators(order, space)
    moment_rows = policy.moment_rows(order, space)
    for block in (order[:1], order[1:]):
        if block:
            grown_source.pinv_stack(grown, block)
            grown.mean_indicators(block, space)
            grown.moment_rows(block, space)
    grown_store, grown_rows = grown_source.moments(grown, order)
    columns = ("gamma", "pinv", "rank", "cutoff", "provenance", "sample_count")
    for name in columns:
        assert np.array_equal(grown_store.column(name)[grown_rows], store.column(name)[rows])
    assert np.array_equal(grown_source.pinv_stack(grown, order), source.pinv_stack(policy, order))
    assert np.array_equal(grown.mean_indicators(order, space), means)
    grown_moment_rows = grown.moment_rows(order, space)
    assert grown_moment_rows.exact == moment_rows.exact
    for field in ("actions", "probs", "bounds"):
        assert np.array_equal(getattr(grown_moment_rows, field), getattr(moment_rows, field))
    for context in contexts:
        alone = make()
        (alone_store, (at,)), (row,) = PinvSource().moments(alone, [context]), store.rows([context])
        for name in columns:
            assert np.array_equal(alone_store.column(name)[at], store.column(name)[row])
        assert np.array_equal(alone.mean_indicator(context), means[order.index(context)])


# -- the bulk TSV readers against the per-line loops they replaced -------------


# two-slot spaces of dims 6, 7, 8, 9, 12 and 11: none a multiple of FOLDS, so
# the examples' fold residue classes vary with the dims before them
TWO_SLOT_SPACES = (
    SlateSpace.ranking(3, 2),
    SlateSpace.cartesian((3, 4)),
    SlateSpace.ranking(4, 2),
    SlateSpace.cartesian((4, 5)),
    SlateSpace.ranking(6, 2),
    SlateSpace.cartesian((2, 9)),
)


@st.composite
def mixed_space_logs(draw):
    """Uniformly logged examples over contexts of at least two spaces of
    different dims, with rewards in [-1, 1]."""
    picked = draw(
        st.lists(st.sampled_from(TWO_SLOT_SPACES), min_size=2, max_size=6).filter(
            lambda picked: len({space.dim for space in picked}) > 1
        )
    )
    spaces = {f"x{i}": space for i, space in enumerate(picked)}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logging = UniformPolicy(spaces)
    logs = []
    for context in rng.choice(list(spaces), size=draw(st.integers(10, 120))).tolist():
        logs.append(LoggedExample(context, logging.sample(context, rng), rng.uniform(-1, 1)))
    return logs, logging, spaces, keyed_features(spaces.__getitem__, 3, rng.integers(1 << 31))


@PROPERTY_SETTINGS
@given(mixed_space_logs())
def test_pi_scorer_from_class_sums_equals_the_fit_on_example_rows(case):
    """The fit from per-context class sums picks the alpha and the weights
    of a ridge fit on the materialized example-major regression rows. The
    per-fold moments are compared too, since a fold misassignment leaves the
    full-data weights as they are."""
    logs, logging, spaces, features = case
    summed = decompose(logs, logging, features=features)
    scorer = fit_scorer(summed)

    reference = decompose_reference(logs, logging, PinvSource())
    targets = {c: iter(block) for c, block in zip(reference.contexts, reference.blocks)}
    X = np.vstack([_design_matrix(spaces[ex.context], ex.context, features, 3) for ex in logs])
    y = np.concatenate([next(targets[ex.context]) for ex in logs])
    moments = fold_moments_from_rows(X, y, folds=FOLDS)
    penalize = np.ones(X.shape[1])
    alpha = cv_select_alpha(moments, penalize)
    weights = solve_ridge(moments.xtx.sum(axis=0), moments.xty.sum(axis=0), alpha, penalize)

    got = _fold_moments(summed, 3)
    for name in ("xtx", "xty", "counts"):
        want = getattr(moments, name)
        np.testing.assert_allclose(
            getattr(got, name), want, rtol=1e-10, atol=1e-10 * np.abs(want).max()
        )
    assert scorer.alpha == alpha
    assert np.abs(scorer.weights - weights).max() <= 1e-10 * np.abs(weights).max()


def reference_read_logs(path):
    """The per-line log reader; returns the batch columns."""
    index: dict = {}
    codes, slates, rewards = [], [], []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
            context, slate_text, reward_text = parts
            try:
                slate = list(map(int, slate_text.split(",")))
                reward = float(reward_text)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not all(-(2**63) <= a < 2**63 for a in slate):
                raise ParseError(f"{path}:{lineno}: slate {slate_text!r} does not fit in int64")
            if not -1.0 <= reward <= 1.0:
                raise ParseError(f"{path}:{lineno}: reward {reward} outside [-1, 1]")
            if width is None:
                width = len(slate)
            elif len(slate) != width:
                raise ParseError(
                    f"{path}:{lineno}: slate has {len(slate)} slots, earlier lines have {width}"
                )
            codes.append(index.setdefault(context, len(index)))
            slates.append(slate)
            rewards.append(reward)
    actions = np.asarray(slates, dtype=np.int64).reshape(len(codes), width or 0)
    return tuple(index), np.asarray(codes, dtype=np.int64), actions, np.asarray(rewards)


def reference_load_policy(path, space):
    """The per-line policy loader, followed by the per-context arithmetic of
    the table it built; returns {context: (actions, probabilities)}."""
    table: dict = {}
    first_line: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SlateError(f"{path}:{lineno}: expected 3 tab-separated fields")
            context, slate_text, prob_text = parts
            try:
                slate = tuple(map(int, slate_text.split(",")))
                prob = float(prob_text)
            except ValueError as exc:
                raise SlateError(f"{path}:{lineno}: {exc}") from exc
            if not all(-(2**63) <= a < 2**63 for a in slate):
                raise SlateError(f"{path}:{lineno}: slate {slate_text!r} does not fit in int64")
            if not (np.isfinite(prob) and prob >= 0.0):
                raise SlateError(
                    f"{path}:{lineno}: probability {prob_text!r} is not a finite nonnegative number"
                )
            seen = first_line.setdefault((context, slate), lineno)
            if seen != lineno:
                raise SlateError(
                    f"{path}:{lineno}: slate {slate} for context {context!r} was already "
                    f"listed on line {seen}"
                )
            table.setdefault(context, []).append((slate, prob))
    normalized = {}
    for context, entries in table.items():
        total = sum(p for _, p in entries)
        if abs(total - 1.0) > 1e-6:
            raise SlateError(
                f"{path}: probabilities for context {context!r} sum to {total:.9g}; "
                f"drift above 1e-06 is rejected"
            )
        normalized[context] = [(s, p / total) for s, p in entries]
    for (context, slate), lineno in first_line.items():
        try:
            space_of(space, context).validate(slate)
        except SlateError as exc:
            raise SlateError(f"{path}:{lineno}: context {context!r}: {exc}") from None
    tables = {}
    for context, entries in normalized.items():
        width = space_of(space, context).num_slots
        probs = np.asarray([p for _, p in entries])
        actions = np.asarray([s for s, _ in entries], dtype=np.int64).reshape(-1, width)
        tables[context] = (actions, probs / probs.sum())
    return tables


def outcome(call, *args):
    try:
        return call(*args), None
    except (ParseError, SlateError) as exc:
        return None, exc


def assert_same_error(got, want):
    assert type(got) is type(want), (got, want)
    # path:lineno, or the path alone for a per-context sum
    assert str(got).split(": ")[0] == str(want).split(": ")[0], (got, want)
    if "probability" not in str(want):  # the bulk reader prints the parsed value
        assert str(got) == str(want)


TOKEN_STYLES = ("{}", "+{}", " {}", "{} ", "0{}")
LOG_DEFECTS = ("fields2", "fields4", "token", "number", "range", "width", "context")
POLICY_DEFECTS = ("fields2", "fields4", "token", "number", "negative", "nonfinite",
                  "duplicate", "drift", "slate", "context")
NON_ASCII_CONTEXTS = ("\u00e9", "q\u00e9", "\u00fc1", "\u4e2d")


def pick(rng, options):
    return options[rng.integers(len(options))]


def render(rows, rng, canonical=False):
    """File text for [context, slate, more fields...] rows, with blank and
    comment lines, surrounding whitespace, varied token styles and line ends;
    or, when canonical, the writers' form: plain tokens, no extra lines or
    whitespace, and "\\n" ends, the last one optional."""
    if canonical:
        lines = [
            "\t".join([context, ",".join(map(str, slate)), *rest])
            for context, slate, *rest in rows
        ]
        return "\n".join(lines) + pick(rng, ("", "\n"))
    ending = pick(rng, ("\n", "\r\n", "\r"))
    lines = []
    for context, slate, *rest in rows:
        if lines and rng.random() < 0.2:
            lines.append(pick(rng, ("", "   ", "# comment", "#\tq\t0\t1")))
        tokens = [
            pick(rng, TOKEN_STYLES).format(a) if isinstance(a, int) and a >= 0 else str(a)
            for a in slate
        ]
        fields = "\t".join([context, ",".join(tokens), *rest])
        lines.append(pick(rng, ("", " ", "\t")) + fields + pick(rng, ("", "  ", " \t")))
    return ending.join(lines) + pick(rng, ("", ending))


def inject(rows, defect, rng, invalid_slate=None):
    """A copy of the rows with one defect at a random row."""
    rows = [[c, list(slate), *rest] for c, slate, *rest in rows]
    at = int(rng.integers(len(rows)))
    row = rows[at]
    if defect == "fields2":
        del row[2]
    elif defect == "fields4":
        row.append("1")
    elif defect == "token":
        # a 19-digit token does not fit in int64; "1_0" is int("1_0") == 10
        row[1][rng.integers(len(row[1]))] = pick(
            rng, ("x", "", "3.5", "1e3", "9999999999999999999", "1_0")
        )
    elif defect == "number":
        row[2] = pick(rng, ("abc", "", "0x1", "1,5", "1_0", "1e", "-.", "1.5.2"))
    elif defect == "range":
        row[2] = pick(rng, ("1.5", "nan", "-inf", "-1.0000001"))
    elif defect == "width":
        row[1].append(0)
    elif defect == "negative":
        row[2] = "-0.25"
    elif defect == "nonfinite":
        row[2] = pick(rng, ("nan", "inf", "1e400"))
    elif defect == "drift":
        row[2] = repr(float(row[2]) + 0.01)
    elif defect == "duplicate":
        rows.insert(int(rng.integers(at + 1, len(rows) + 1)), list(row))
    elif defect == "slate":
        row[1] = invalid_slate(row[0], row[1], rng.random() < 0.5)
    elif defect == "context":
        row[0] = pick(rng, NON_ASCII_CONTEXTS)
    return rows


@st.composite
def tsv_files(draw, rows, defects, invalid_slate=None, canonical=False):
    """The text of a file of (context, slate, number text) rows, then one
    text per defect kind, each with that defect at a random row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [render(rows, rng, canonical)] + [
        render(inject(rows, defect, rng, invalid_slate), rng, canonical) for defect in defects
    ]


# "\x0b", "\x1c" and "\u2028" end a line for str.splitlines, not for file iteration
log_contexts = st.sampled_from(("a", "b", "c1", "x y", "q,r", "u\x0bv", "w\x1c\u2028z"))
# contexts of canonical files: printable ASCII without whitespace
canonical_contexts = st.sampled_from(("a", "b", "c1", "q,r", "x#", "-1.5e3", "p\\q"))


@st.composite
def log_files(draw):
    canonical = draw(st.booleans())
    width = draw(st.integers(1, 4))
    n = draw(st.integers(1, 25))
    rows = [
        (
            draw(canonical_contexts if canonical else log_contexts),
            draw(st.lists(st.integers(0 if canonical else -3, 99), min_size=width, max_size=width)),
            repr(draw(st.floats(-1.0, 1.0))),
        )
        for _ in range(n)
    ]
    return draw(tsv_files(rows, LOG_DEFECTS, canonical=canonical)), canonical


def assert_same_columns(path, error_type, text):
    """When the file is canonical, its byte-level columns equal the text
    parser's; returns whether it was."""
    got = _canonical_columns(text.encode("utf-8"))
    if got is None:
        return False
    want = _text_columns(path, error_type, text.replace("\r\n", "\n").replace("\r", "\n"))
    assert got.contexts == want.contexts
    for name in ("linenos", "codes", "widths", "tokens", "numbers"):
        column, expected = getattr(got, name), getattr(want, name)
        assert column.dtype == expected.dtype and np.array_equal(column, expected), name
    return True


@PROPERTY_SETTINGS
@given(log_files())
def test_bulk_log_reader_matches_the_per_line_loop(tmp_path_factory, case):
    texts, canonical = case
    path = tmp_path_factory.mktemp("logs") / "logs.tsv"
    for i, text in enumerate(texts):
        path.write_bytes(text.encode("utf-8"))
        byte_level = assert_same_columns(path, ParseError, text)
        assert byte_level or i or not canonical  # a clean canonical file parses on bytes
        want, want_error = outcome(reference_read_logs, path)
        got, got_error = outcome(read_logged_dataset, path)
        if want_error is not None:
            assert_same_error(got_error, want_error)
            continue
        assert got_error is None, got_error
        contexts, codes, actions, rewards = want
        assert got.contexts == contexts
        for column, expected in ((got.codes, codes), (got.actions, actions),
                                 (got.rewards, rewards)):
            assert column.dtype == expected.dtype and np.array_equal(column, expected)


@st.composite
def policy_files(draw):
    canonical = draw(st.booleans())
    contexts = draw(
        st.lists(canonical_contexts if canonical else log_contexts, min_size=1, max_size=3,
                 unique=True)
    )
    if draw(st.booleans()):
        space_map = draw(spaces())
    else:  # a ranking space per context, with different slot counts
        space_map = {
            c: SlateSpace.ranking(4, draw(st.integers(1, 3)))
            for c in contexts + list(NON_ASCII_CONTEXTS)
        }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for c in contexts:
        slates = space_of(space_map, c).slate_array()
        keep = rng.permutation(len(slates))[: draw(st.integers(1, min(24, len(slates))))]
        weights = rng.gamma(0.5, size=len(keep)) * (rng.random(len(keep)) < 0.8)
        weights[0] += 1.0
        weights = weights / weights.sum() * (1.0 + draw(st.sampled_from((0.0, 3e-7))))
        rows += [(c, s, repr(p)) for s, p in zip(slates[keep].tolist(), weights.tolist())]
    rows = [rows[i] for i in rng.permutation(len(rows))]

    def invalid_slate(context, slate, longer):
        if longer:
            return slate + [0]
        return [space_of(space_map, context).slot_counts[0]] + slate[1:]  # out of range

    return draw(tsv_files(rows, POLICY_DEFECTS, invalid_slate, canonical)), space_map, canonical


@PROPERTY_SETTINGS
@given(policy_files())
def test_bulk_policy_loader_matches_the_per_line_loop(tmp_path_factory, case):
    texts, space_map, canonical = case
    path = tmp_path_factory.mktemp("policy") / "policy.tsv"
    for i, text in enumerate(texts):
        path.write_bytes(text.encode("utf-8"))
        byte_level = assert_same_columns(path, SlateError, text)
        assert byte_level or i or not canonical  # a clean canonical file parses on bytes
        want, want_error = outcome(reference_load_policy, path, space_map)
        got, got_error = outcome(load_explicit_policy, path, space_map)
        if want_error is not None:
            assert_same_error(got_error, want_error)
            continue
        assert got_error is None, got_error
        assert got.contexts == list(want)
        for context, (actions, probs) in want.items():
            lo, hi = got._bounds[got._position(context)], got._bounds[got._position(context) + 1]
            got_actions = got._actions[lo:hi, : space_of(space_map, context).num_slots]
            got_probs = got._probs[lo:hi]
            assert got_actions.dtype == actions.dtype and np.array_equal(got_actions, actions)
            assert got_probs.dtype == probs.dtype and np.array_equal(got_probs, probs)


# -- ranking data files -------------------------------------------------------------


def reference_parse_letor(path):
    """The per-line ranking-data parser: the first malformed line's error,
    or the dataset's columns, queries in order of first appearance."""
    queries: dict = {}
    dim, anonymous = None, 0
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        data, _, comment = line.partition("#")
        fields = data.split()
        if not fields:
            continue
        where = f"{path}:{lineno}"
        if len(fields) < 2 or not fields[1].startswith("qid:"):
            raise ParseError(f"{where}: expected '<rel> qid:<id> ...'")
        try:
            label = int(fields[0])
        except ValueError:
            raise ParseError(f"{where}: bad relevance {fields[0]!r}") from None
        if label not in (0, 1, 2):
            raise ParseError(f"{where}: relevance {label} outside (0, 1, 2)")
        values = {}
        for token in fields[2:]:
            key_text, colon, value_text = token.partition(":")
            try:
                if not colon:
                    raise ValueError
                key, value = int(key_text), float(value_text)
            except ValueError:
                raise ParseError(f"{where}: bad feature token {token!r}") from None
            if key < 1:
                raise ParseError(f"{where}: feature indices are 1-based")
            if key >= 2**63:
                raise ParseError(f"{where}: feature index {key} does not fit in int64")
            if not np.isfinite(value):
                raise ParseError(f"{where}: feature value {value_text!r} is not finite")
            values[key] = value
        line_dim = max(values, default=0)
        if dim is None:
            dim = line_dim
        elif line_dim != dim:
            raise ParseError(f"{where}: feature dimension {line_dim} != {dim} seen earlier")
        words = comment.split()
        if not words:
            words, anonymous = [f"doc{anonymous}"], anonymous + 1
        row = [values.get(k, 0.0) for k in range(1, line_dim + 1)]
        queries.setdefault(fields[1][4:], []).append((words[0], label, row))
    documents = [doc for docs in queries.values() for doc in docs]
    features = np.array([row for _, _, row in documents], dtype=np.float64)
    return (
        tuple(queries),
        np.cumsum([0] + [len(docs) for docs in queries.values()]),
        tuple(doc_id for doc_id, _, _ in documents),
        np.array([label for _, label, _ in documents], dtype=np.int64),
        features.reshape(len(documents), dim or 0),
    )


LETOR_DEFECTS = ("label", "qid", "token", "key", "value", "nonfinite", "dimension", "hash", "shift")


def render_letor(rows, rng, canonical=False):
    """File text for [label, qid token, feature tokens, doc id or None] rows:
    in canonical form (single spaces, " # <doc id>", "\\n" ends, the last one
    optional), or with blank and comment lines, tabs and runs of spaces,
    "\\r\\n" ends, tight and anonymous comments."""
    if canonical:
        lines = [f"{label} {qid} {' '.join(tokens)} # {doc}" for label, qid, tokens, doc in rows]
        return "\n".join(lines) + pick(rng, ("", "\n"))
    ending = pick(rng, ("\n", "\r\n"))
    lines = []
    for label, qid, tokens, doc in rows:
        if lines and rng.random() < 0.2:
            lines.append(pick(rng, ("", "   ", "# comment", "#1 qid:1 1:1")))
        comment = "" if doc is None else pick(rng, (" # {}", "#{}", " # {} more words", " #\t{}"))
        space = pick(rng, (" ", "\t", "  "))
        lines.append(space.join([label, qid, *tokens]) + comment.format(doc))
    return ending.join(lines) + pick(rng, ("", ending))


def inject_letor(rows, defect, rng):
    """A copy of the rows with one defect at a random row."""
    rows = [[label, qid, list(tokens), doc] for label, qid, tokens, doc in rows]
    row = rows[int(rng.integers(len(rows)))]
    at = int(rng.integers(len(row[2])))
    if defect == "label":  # "+1" and "01" are valid labels, but not canonical
        row[0] = pick(rng, ("3", "-1", "x", "1.0", "+1", "01"))
    elif defect == "qid":
        row[1] = pick(rng, ("qid", "q:1", "qid1", "qid:a\tb", "qid:a\x0bb", "qid:x#y"))
    elif defect == "token":
        row[2][at] = pick(rng, ("junk", "1:2:3", ":5", "1:", "a:1", "1_0:2"))
    elif defect == "key":
        row[2][at] = pick(rng, ("0", "-2", "99999999999999999999")) + ":1"
    elif defect == "value":  # "1_0", "+.5" and "-0" are valid values, but not canonical
        row[2][at] = row[2][at].partition(":")[0] + ":" + pick(rng, ("x", "1_0", "+.5", "-0", "1e"))
    elif defect == "nonfinite":
        row[2][at] = row[2][at].partition(":")[0] + ":" + pick(rng, ("nan", "inf", "-inf", "1e999"))
    elif defect == "dimension":
        row[2].append(f"{len(row[2]) + 1}:0.5")
    elif defect == "hash":  # the comment starts inside a token
        row[2][at] += "#x"
    elif defect == "shift" and at + 1 < len(row[2]):  # a colon moves to the next token
        key, _, value = row[2][at].partition(":")
        row[2][at : at + 2] = [key, f"{value}:{row[2][at + 1]}"]
    return rows


@st.composite
def letor_files(draw):
    """The text of a ranking data file, then one text per defect kind. Files
    that are not canonical also miss, repeat and reorder keys, and leave
    documents without an id."""
    canonical = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    qids = st.sampled_from(("1", "2", "a", "q:r", "10032"))
    rows = []
    for i in range(n):
        values = rng.normal(size=dim) * 10.0 ** rng.integers(-30, 30, size=dim)
        tokens = [f"{k + 1}:{v!r}" for k, v in enumerate(values.tolist())]
        doc = f"d{i}"
        if not canonical:
            if rng.random() < 0.3:  # missing keys; the last stays, and so does the dimension
                tokens = [t for t in tokens[:-1] if rng.random() < 0.5] + tokens[-1:]
            if rng.random() < 0.3:
                tokens.append(f"{rng.integers(1, dim + 1)}:{rng.normal()!r}")
            if rng.random() < 0.3:
                tokens = [tokens[j] for j in rng.permutation(len(tokens))]
            if rng.random() < 0.3:
                doc = None
        rows.append([str(draw(st.integers(0, 2))), "qid:" + draw(qids), tokens, doc])
    texts = [render_letor(rows, rng, canonical)] + [
        render_letor(inject_letor(rows, defect, rng), rng, canonical) for defect in LETOR_DEFECTS
    ]
    return texts, canonical


@PROPERTY_SETTINGS
@given(letor_files())
def test_both_letor_parse_paths_match_the_per_line_parser(tmp_path_factory, case):
    texts, canonical = case
    path = tmp_path_factory.mktemp("letor") / "data.txt"
    for i, text in enumerate(texts):
        path.write_bytes(text.encode("utf-8"))
        with open(path, "r", encoding="utf-8") as handle:
            read = handle.read()
        fast = _letor_canonical(read)
        assert fast is not None or i or not canonical  # a clean canonical file is fast
        if fast is not None:
            slow = _letor_text_columns(path, read)
            assert fast[0] == slow[0] and fast[1] == slow[1]  # query ids, doc ids
            for column, expected in zip(fast[2:], slow[2:]):  # labels, features
                assert column.dtype == expected.dtype and np.array_equal(column, expected)
        want, want_error = outcome(reference_parse_letor, path)
        got, got_error = outcome(parse_letor, path)
        if want_error is not None:
            assert type(got_error) is ParseError and str(got_error) == str(want_error)
            continue
        assert got_error is None, got_error
        query_ids, bounds, doc_ids, labels, features = want
        assert got.query_ids == query_ids and got.doc_ids == doc_ids
        assert np.array_equal(got.bounds, bounds)
        assert got.labels.dtype == np.int64 and np.array_equal(got.labels, labels)
        assert got.features.dtype == np.float64 and np.array_equal(got.features, features)
