"""Property-based checks of the batch paths against per-slate and
per-example references kept in this file, and of the estimator
identities on random enumerable spaces and policies."""

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
    estimate_ips,
    estimate_pi,
    estimate_wips,
    load_explicit_policy,
    read_logged_dataset,
    write_logged_dataset,
)
from slateval.spaces import space_of
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
            slates, _ = logging.support_arrays(c)
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


@PROPERTY_SETTINGS
@given(overlapping_problems())
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


# -- the bulk TSV readers against the per-line loops they replaced -------------


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
LOG_DEFECTS = ("fields2", "fields4", "token", "number", "range", "width")
POLICY_DEFECTS = ("fields2", "fields4", "token", "number", "negative", "nonfinite",
                  "duplicate", "drift", "slate")


def pick(rng, options):
    return options[rng.integers(len(options))]


def render(rows, rng):
    """File text for [context, slate, more fields...] rows, with blank and
    comment lines, surrounding whitespace, varied token styles and line ends."""
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
        row[1][rng.integers(len(row[1]))] = pick(rng, ("x", "", "3.5", "1e3"))
    elif defect == "number":
        row[2] = pick(rng, ("abc", "", "0x1", "1,5"))
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
    return rows


@st.composite
def tsv_files(draw, rows, defects, invalid_slate=None):
    """The text of a file of (context, slate, number text) rows, then one
    text per defect kind, each with that defect at a random row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [render(rows, rng)] + [
        render(inject(rows, defect, rng, invalid_slate), rng) for defect in defects
    ]


# "\x0b", "\x1c" and "\u2028" end a line for str.splitlines, not for file iteration
log_contexts = st.sampled_from(("a", "b", "c1", "x y", "q,r", "u\x0bv", "w\x1c\u2028z"))


@st.composite
def log_files(draw):
    width = draw(st.integers(1, 4))
    n = draw(st.integers(1, 25))
    rows = [
        (
            draw(log_contexts),
            draw(st.lists(st.integers(-3, 99), min_size=width, max_size=width)),
            repr(draw(st.floats(-1.0, 1.0))),
        )
        for _ in range(n)
    ]
    return draw(tsv_files(rows, LOG_DEFECTS))


@PROPERTY_SETTINGS
@given(log_files())
def test_bulk_log_reader_matches_the_per_line_loop(tmp_path_factory, texts):
    path = tmp_path_factory.mktemp("logs") / "logs.tsv"
    for text in texts:
        path.write_bytes(text.encode("utf-8"))
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
    contexts = draw(st.lists(log_contexts, min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        space_map = draw(spaces())
    else:  # a ranking space per context, with different slot counts
        space_map = {c: SlateSpace.ranking(4, draw(st.integers(1, 3))) for c in contexts}
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

    return draw(tsv_files(rows, POLICY_DEFECTS, invalid_slate)), space_map


@PROPERTY_SETTINGS
@given(policy_files())
def test_bulk_policy_loader_matches_the_per_line_loop(tmp_path_factory, case):
    texts, space_map = case
    path = tmp_path_factory.mktemp("policy") / "policy.tsv"
    for text in texts:
        path.write_bytes(text.encode("utf-8"))
        want, want_error = outcome(reference_load_policy, path, space_map)
        got, got_error = outcome(load_explicit_policy, path, space_map)
        if want_error is not None:
            assert_same_error(got_error, want_error)
            continue
        assert got_error is None, got_error
        assert got.contexts == list(want)
        for context, (actions, probs) in want.items():
            got_actions, got_probs = got._table[context]
            assert got_actions.dtype == actions.dtype and np.array_equal(got_actions, actions)
            assert got_probs.dtype == probs.dtype and np.array_equal(got_probs, probs)
