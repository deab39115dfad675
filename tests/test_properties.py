"""Property-based checks of the batch paths against per-slate and
per-example references kept in this file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slateval import (
    DeterministicPolicy,
    ExplicitPolicy,
    LoggedBatch,
    LoggedExample,
    MultinomialWoRPolicy,
    PinvSource,
    SlateError,
    SlateSpace,
    SpaceKind,
    UndefinedEstimateError,
    UniformMixturePolicy,
    UniformPolicy,
    estimate_ips,
    estimate_pi,
    estimate_wips,
    read_logged_dataset,
    write_logged_dataset,
)
from slateval.util import pairwise_sum

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
