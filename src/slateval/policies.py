"""Stochastic slate policies and their low-order moments.

Every policy answers slate probabilities (for a whole array of slates at
once), the mean indicator vector, and sampling. Moments are exact by
support enumeration whenever the slate space is small enough
(``enumeration_cap``) and Monte Carlo estimates with a fixed per-context
seed otherwise, so repeated queries are bit-reproducible.

All policies are immutable after construction; internal moment caches are
fill-once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigurationError, ContextLookupError, SlateError
from .logs import _read_tsv_columns
from .spaces import Slate, SlateSpace, SpaceKind, space_of
from .util import context_rng

DEFAULT_ENUMERATION_CAP = 100_000
DEFAULT_MC_SAMPLES = 100_000
DEFAULT_MC_MEAN_SAMPLES = 10_000

PROB_SUM_TOL = 1e-9
LOAD_DRIFT_TOL = 1e-6
PL_CHUNK_ELEMENTS = 1 << 20  # bounds the (rows, pool) temporaries of one batch


@dataclass(frozen=True)
class MomentArrays:
    """Support (or sample) of a policy at one context, in array form.

    ``actions`` holds one slate per row; ``probs`` are the matching slate
    probabilities (uniform 1/n for Monte Carlo rows). ``exact`` says
    whether the rows enumerate the support or only sample it.
    """

    actions: np.ndarray
    probs: np.ndarray
    exact: bool


class Policy:
    """Conditional distribution over the slates of a space, per context.

    Subclasses implement ``slate_prob_batch`` and ``sample``; the base class
    derives moments from those. The space may be a single
    :class:`SlateSpace` or a per-context mapping/callable.
    """

    def __init__(
        self,
        space,
        *,
        enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
        mc_samples: int = DEFAULT_MC_SAMPLES,
        mc_mean_samples: int = DEFAULT_MC_MEAN_SAMPLES,
        mc_seed: int = 0,
    ):
        self._space = space
        self.enumeration_cap = int(enumeration_cap)
        self.mc_samples = int(mc_samples)
        self.mc_mean_samples = int(mc_mean_samples)
        self.mc_seed = int(mc_seed)
        self._moment_cache: dict = {}
        self._mean_cache: dict = {}
        self._marginal_cache: dict = {}

    def space_of(self, context) -> SlateSpace:
        return space_of(self._space, context)

    # -- distribution interface -------------------------------------------

    def slate_prob_batch(self, context, actions) -> np.ndarray:
        """Probabilities of an (n, num_slots) array of slates at one context.

        Raises SlateError, naming the context, if any row is not a valid
        slate of the context's space.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement slate_prob_batch(context, actions); "
            f"the estimators and moments do not call a scalar slate_prob override"
        )

    def slate_prob(self, context, slate) -> float:
        """Probability of one slate: a one-row ``slate_prob_batch`` call."""
        return float(self.slate_prob_batch(context, np.asarray([slate], dtype=np.int64))[0])

    def sample(self, context, rng: np.random.Generator) -> Slate:
        raise NotImplementedError

    def sample_batch(self, context, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, num_slots) array of action ids; overridden where vectorizable."""
        return np.array([self.sample(context, rng) for _ in range(n)], dtype=np.int64)

    def support_arrays(self, context) -> tuple[np.ndarray, np.ndarray]:
        """Slates with positive probability, one per row, and their probabilities.

        The default scores the whole space in one batch, so it is only
        usable when the space is enumerable.
        """
        slates = self.space_of(context).slate_array()
        probs = self.slate_prob_batch(context, slates)
        keep = probs > 0.0
        return slates[keep], probs[keep]

    def support(self, context) -> Iterator[tuple[Slate, float]]:
        """Iterate (slate, probability) pairs with positive probability."""
        actions, probs = self.support_arrays(context)
        for row, p in zip(actions.tolist(), probs.tolist()):
            yield tuple(row), p

    def is_uniform(self, context) -> bool:
        """True when the policy is exactly uniform over the space's slates."""
        return False

    # -- moments ------------------------------------------------------------

    def moment_arrays(self, context) -> MomentArrays:
        cached = self._moment_cache.get(context)
        if cached is not None:
            return cached
        space = self.space_of(context)
        if space.num_slates() <= self.enumeration_cap:
            actions, probs = self.support_arrays(context)
            arrays = MomentArrays(actions=actions, probs=probs, exact=True)
        else:
            if self.mc_samples <= 0:
                raise ConfigurationError(
                    "Monte Carlo moments requested with a non-positive sample count"
                )
            rng = context_rng(self.mc_seed, context)
            actions = self.sample_batch(context, self.mc_samples, rng)
            arrays = MomentArrays(
                actions=actions,
                probs=np.full(len(actions), 1.0 / len(actions)),
                exact=False,
            )
        self._moment_cache[context] = arrays
        return arrays

    def mean_indicator(self, context) -> np.ndarray:
        """Expected slate-indicator vector: the per-slot action marginals.

        Exact under the enumeration cap; above it a dedicated (smaller)
        sample is drawn, since the mean needs far fewer draws than the
        second moments do.
        """
        cached = self._mean_cache.get(context)
        if cached is not None:
            return cached
        space = self.space_of(context)
        if space.num_slates() <= self.enumeration_cap:
            arrays = self.moment_arrays(context)
            actions, probs = arrays.actions, arrays.probs
        else:
            if self.mc_mean_samples <= 0:
                raise ConfigurationError(
                    "Monte Carlo mean indicator requested with a non-positive sample count"
                )
            rng = context_rng(self.mc_seed, context, stream=1)
            actions = self.sample_batch(context, self.mc_mean_samples, rng)
            probs = np.full(len(actions), 1.0 / len(actions))
        q = _indicator_sum(space, actions, probs)
        self._mean_cache[context] = q
        return q

    def slot_marginals(self, context) -> np.ndarray:
        """Per-slot action marginals for per-slot (semi-bandit) weights.

        Equal to ``mean_indicator`` under the enumeration cap and for uniform
        policies. Above the cap they are summed from the second-moment sample
        (``mc_samples`` draws), not the smaller mean sample, so that a rare
        logged action keeps a nonzero, less noisy marginal.
        """
        space = self.space_of(context)
        if space.num_slates() <= self.enumeration_cap or self.is_uniform(context):
            return self.mean_indicator(context)
        cached = self._marginal_cache.get(context)
        if cached is None:
            arrays = self.moment_arrays(context)
            cached = _indicator_sum(space, arrays.actions, arrays.probs)
            self._marginal_cache[context] = cached
        return cached


def _indicator_sum(space: SlateSpace, actions: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Probability-weighted sum of the indicator vectors of slate rows."""
    coords = space.coords_of_actions(actions).ravel()
    return np.bincount(coords, np.repeat(probs, space.num_slots), minlength=space.dim)


def uniform_mean_indicator(space: SlateSpace) -> np.ndarray:
    return np.repeat(1.0 / np.asarray(space.slot_counts, dtype=np.float64), space.slot_counts)


class UniformPolicy(Policy):
    """Uniform distribution over all valid slates; all moments closed-form."""

    def slate_prob_batch(self, context, actions) -> np.ndarray:
        space = self.space_of(context)
        actions = space.validate_batch(actions, context)
        return np.full(len(actions), 1.0 / space.num_slates())

    def sample(self, context, rng) -> Slate:
        return tuple(self.sample_batch(context, 1, rng)[0])

    def sample_batch(self, context, n, rng) -> np.ndarray:
        space = self.space_of(context)
        if space.kind is SpaceKind.CARTESIAN:
            cols = [rng.integers(0, m, size=n) for m in space.slot_counts]
            return np.stack(cols, axis=1).astype(np.int64)
        keys = rng.random((n, space.num_actions))
        return np.argsort(keys, axis=1, kind="stable")[:, : space.num_slots].astype(np.int64)

    def is_uniform(self, context) -> bool:
        return True

    def mean_indicator(self, context) -> np.ndarray:
        return uniform_mean_indicator(self.space_of(context))


class DeterministicPolicy(Policy):
    """Point mass on one slate per context."""

    def __init__(self, space, slates: Mapping | Callable, **kwargs):
        super().__init__(space, **kwargs)
        self._slates = slates

    def slate_of(self, context) -> Slate:
        picked = self._slates(context) if callable(self._slates) else self._slates[context]
        return self.space_of(context).validate(picked)

    def slate_prob_batch(self, context, actions) -> np.ndarray:
        actions = self.space_of(context).validate_batch(actions, context)
        picked = np.asarray(self.slate_of(context), dtype=np.int64)
        return np.all(actions == picked, axis=1).astype(np.float64)

    def sample(self, context, rng) -> Slate:
        return self.slate_of(context)

    def sample_batch(self, context, n, rng) -> np.ndarray:
        return np.tile(np.asarray(self.slate_of(context), dtype=np.int64), (n, 1))

    def support_arrays(self, context):
        return np.asarray([self.slate_of(context)], dtype=np.int64), np.ones(1)

    def mean_indicator(self, context) -> np.ndarray:
        return self.space_of(context).indicator(self.slate_of(context))

    def slot_marginals(self, context) -> np.ndarray:
        return self.mean_indicator(context)


class ExplicitPolicy(Policy):
    """Policy given as an explicit slate-probability table per context.

    Probabilities must be finite and nonnegative, sum to 1 per context, and
    list each slate at most once.
    """

    def __init__(self, space, table: Mapping[object, Iterable[tuple[Slate, float]]], **kwargs):
        super().__init__(space, **kwargs)
        contexts = list(table)
        entries = [list(table[context]) for context in contexts]
        pairs = list(chain.from_iterable(entries))
        slates = list(map(itemgetter(0), pairs))
        self._build(
            contexts,
            np.repeat(np.arange(len(contexts)), list(map(len, entries))),
            np.fromiter(map(len, slates), dtype=np.int64, count=len(slates)),
            np.fromiter(chain.from_iterable(slates), dtype=np.int64),
            np.fromiter(map(float, map(itemgetter(1), pairs)), dtype=np.float64, count=len(pairs)),
        )

    @classmethod
    def _from_columns(cls, space, contexts, codes, widths, tokens, probs, **kwargs):
        """A policy from one row per listed slate: context codes, slot widths,
        the slates' tokens back to back, and probabilities."""
        policy = cls.__new__(cls)
        Policy.__init__(policy, space, **kwargs)
        policy._build(contexts, codes, widths, tokens, probs)
        return policy

    def _build(self, contexts, codes, widths, tokens, probs) -> None:
        """Check and store the table; the one construction path of both
        ``__init__`` and ``_from_columns``."""
        starts = np.cumsum(widths) - widths
        bad = ~np.isfinite(probs) | (probs < 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            slate = tuple(tokens[starts[i] : starts[i] + widths[i]].tolist())
            raise SlateError(
                f"probability {probs[i]} for slate {slate} at context {contexts[codes[i]]!r} "
                f"is not a finite nonnegative number"
            )
        counts = np.bincount(codes, minlength=len(contexts))
        sorted_rows = np.argsort(codes, kind="stable")
        by_context = [sorted_rows[end - n : end] for end, n in zip(np.cumsum(counts).tolist(), counts)]
        # the contexts that share a space are validated and keyed in one batch
        members: dict = {}
        for code, context in enumerate(contexts):
            members.setdefault(self.space_of(context), []).append(code)
        slates = [None] * len(contexts)  # per context: (actions, slate keys)
        for sp, group in members.items():
            rows = np.concatenate([by_context[c] for c in group])
            wrong = widths[rows] != sp.num_slots
            if wrong.any():
                i = rows[np.argmax(wrong)]
                sp.validate(tokens[starts[i] : starts[i] + widths[i]])
            actions = tokens[starts[rows, None] + np.arange(sp.num_slots)]
            ends = np.cumsum(counts[group]).tolist()
            spans = list(zip(group, [0] + ends[:-1], ends))
            try:
                sp.validate_batch(actions)
            except SlateError:
                for c, start, end in spans:
                    sp.validate_batch(actions[start:end], contexts[c])  # names the context
                raise
            keys = sp.slate_keys(actions)
            for c, start, end in spans:
                slates[c] = (actions[start:end], keys[start:end])
        self._table: dict = {}
        self._lookup: dict = {}  # context -> (sorted slate keys, their probabilities)
        for context, rows, (actions, keys) in zip(contexts, by_context, slates):
            p = probs[rows]
            total = p.sum()
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise SlateError(
                    f"probabilities for context {context!r} sum to {total:.12g}, not 1"
                )
            p = p / total
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            repeats = sorted_keys[1:] == sorted_keys[:-1]
            if repeats.any():
                slate = tuple(actions[order[int(np.argmax(repeats))]].tolist())
                raise SlateError(f"slate {slate} is listed twice for context {context!r}")
            self._table[context] = (actions, p)
            self._lookup[context] = (sorted_keys, p[order])

    @property
    def contexts(self) -> list:
        return list(self._table)

    def _entry(self, context):
        if context not in self._table:
            raise ContextLookupError(f"no table entry for context {context!r}")
        return self._table[context]

    def slate_prob_batch(self, context, actions) -> np.ndarray:
        space = self.space_of(context)
        actions = space.validate_batch(actions, context)
        self._entry(context)
        keys, probs = self._lookup[context]
        wanted = space.slate_keys(actions)
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, probs[at], 0.0)

    def support_arrays(self, context):
        actions, probs = self._entry(context)
        keep = probs > 0.0
        return actions[keep], probs[keep]

    def sample(self, context, rng) -> Slate:
        actions, probs = self._entry(context)
        idx = rng.choice(len(probs), p=probs)
        return tuple(int(a) for a in actions[idx])

    def sample_batch(self, context, n, rng) -> np.ndarray:
        actions, probs = self._entry(context)
        idx = rng.choice(len(probs), size=n, p=probs)
        return actions[idx]


class MultinomialWoRPolicy(Policy):
    """Slot-by-slot sampling without replacement from a softmax over scores.

    Action weights are proportional to exp(temperature * score); slates are
    built by drawing one action per slot from the remaining pool, i.e. a
    Plackett-Luce distribution over rankings. Temperature 0 is uniform;
    large temperatures concentrate on the ranking by decreasing score.
    """

    def __init__(self, space, scores: Mapping | Callable, temperature: float, **kwargs):
        super().__init__(space, **kwargs)
        if temperature < 0:
            raise ConfigurationError(f"temperature must be nonnegative, got {temperature}")
        self.temperature = float(temperature)
        self._scores = scores
        self._weights_cache: dict = {}

    def scores_of(self, context) -> np.ndarray:
        raw = self._scores(context) if callable(self._scores) else self._scores[context]
        return np.asarray(raw, dtype=np.float64)

    def action_logits(self, context) -> np.ndarray:
        """temperature * scores, shifted to peak at zero."""
        cached = self._weights_cache.get(context)
        if cached is not None:
            return cached
        space = self.space_of(context)
        if space.kind is not SpaceKind.RANKING:
            raise SlateError("without-replacement sampling needs a ranking space")
        scores = self.scores_of(context)
        if len(scores) != space.num_actions:
            raise SlateError(
                f"{len(scores)} scores for {space.num_actions} actions at context {context!r}"
            )
        logits = self.temperature * scores
        logits = logits - logits.max()
        self._weights_cache[context] = logits
        return logits

    def slate_prob_batch(self, context, actions) -> np.ndarray:
        actions = self.space_of(context).validate_batch(actions, context)
        logits = self.action_logits(context)
        probs = np.empty(len(actions))
        step = max(1, PL_CHUNK_ELEMENTS // len(logits))
        for start in range(0, len(actions), step):
            rows = actions[start : start + step]
            probs[start : start + step] = np.exp(_plackett_luce_log_probs(logits, rows))
        return probs

    def sample(self, context, rng) -> Slate:
        return tuple(self.sample_batch(context, 1, rng)[0])

    def sample_batch(self, context, n, rng) -> np.ndarray:
        # Gumbel top-k keys reproduce sequential without-replacement draws.
        space = self.space_of(context)
        logits = self.action_logits(context)
        keys = logits[None, :] + rng.gumbel(size=(n, space.num_actions))
        order = np.argsort(-keys, axis=1, kind="stable")
        return order[:, : space.num_slots].astype(np.int64)

    def is_uniform(self, context) -> bool:
        return self.temperature == 0.0

    def mean_indicator(self, context) -> np.ndarray:
        if self.temperature == 0.0:
            return uniform_mean_indicator(self.space_of(context))
        return super().mean_indicator(context)


def _plackett_luce_log_probs(logits: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Log-probability of each slate row under slot-by-slot softmax draws.

    Evaluated in log space, since sharp temperatures underflow the softmax
    weights of every non-maximal action. Each step compacts the logits still
    available to every row, in pool order, and takes its log-sum-exp.
    """
    n, m = len(actions), len(logits)
    rows = np.arange(n)
    available = np.ones((n, m), dtype=bool)
    log_prob = np.zeros(n)
    for j in range(actions.shape[1]):
        rest = logits[np.nonzero(available)[1].reshape(n, m - j)]
        peak = rest.max(axis=1)
        chosen = actions[:, j]
        log_prob += logits[chosen] - peak - np.log(np.exp(rest - peak[:, None]).sum(axis=1))
        available[rows, chosen] = False
    return log_prob


class UniformMixturePolicy(Policy):
    """Base policy mixed with the uniform policy at a fixed weight.

    With mixing weight kappa, every pairwise slot-action probability is at
    least kappa times its value under the uniform policy.
    """

    def __init__(self, base: Policy, kappa: float, **kwargs):
        if not 0.0 <= kappa <= 1.0:
            raise ConfigurationError(f"mixing weight must be in [0, 1], got {kappa}")
        super().__init__(base._space, **kwargs)
        self.base = base
        self.kappa = float(kappa)
        self._uniform = UniformPolicy(base._space)

    def slate_prob_batch(self, context, actions) -> np.ndarray:
        base = self.base.slate_prob_batch(context, actions)  # validates the rows
        u = 1.0 / self.space_of(context).num_slates()
        return self.kappa * u + (1.0 - self.kappa) * base

    def sample(self, context, rng) -> Slate:
        if rng.random() < self.kappa:
            return self._uniform.sample(context, rng)
        return self.base.sample(context, rng)

    def sample_batch(self, context, n, rng) -> np.ndarray:
        pick_uniform = rng.random(n) < self.kappa
        uniform_rows = self._uniform.sample_batch(context, n, rng)
        base_rows = self.base.sample_batch(context, n, rng)
        return np.where(pick_uniform[:, None], uniform_rows, base_rows)

    def is_uniform(self, context) -> bool:
        return self.kappa == 1.0 or self.base.is_uniform(context)

    def mean_indicator(self, context) -> np.ndarray:
        return self.kappa * self._uniform.mean_indicator(context) + (
            1.0 - self.kappa
        ) * self.base.mean_indicator(context)

    def slot_marginals(self, context) -> np.ndarray:
        return self.kappa * self._uniform.slot_marginals(context) + (
            1.0 - self.kappa
        ) * self.base.slot_marginals(context)


# -- explicit-policy text format ------------------------------------------


def load_explicit_policy(path, space, **kwargs) -> ExplicitPolicy:
    """Read a tab-separated (context, comma-joined slate, probability) file.

    Per-context probability sums may drift from 1 by up to 1e-6 (e.g. from
    decimal rounding) and are renormalized; larger drift is rejected. A
    probability that is not a finite nonnegative number, a slate that is
    not valid in its context's space, or a slate listed twice for one
    context, is rejected with its line number, and so is a file without
    entries.
    """
    columns = _read_tsv_columns(path, SlateError)
    contexts, codes, linenos = columns.contexts, columns.codes, columns.linenos
    if not len(codes):
        raise SlateError(f"{path}: no policy entries")
    probs = columns.numbers
    bad = ~np.isfinite(probs) | (probs < 0.0)
    first = _first_listings(codes, columns.widths, columns.tokens)
    repeated = first != np.arange(len(codes))
    if (bad | repeated).any():
        i = int(np.argmax(bad | repeated))
        if bad[i]:
            problem = f"probability {probs[i]} is not a finite nonnegative number"
        else:
            start = int(columns.widths[:i].sum())
            slate = tuple(columns.tokens[start : start + columns.widths[i]].tolist())
            problem = (
                f"slate {slate} for context {contexts[codes[i]]!r} was already "
                f"listed on line {linenos[first[i]]}"
            )
        raise SlateError(f"{path}:{linenos[i]}: {problem}")
    totals = np.bincount(codes, weights=probs, minlength=len(contexts))  # in line order
    drift = np.abs(totals - 1.0) > LOAD_DRIFT_TOL
    if drift.any():
        c = int(np.argmax(drift))
        raise SlateError(
            f"{path}: probabilities for context {contexts[c]!r} sum to {totals[c]:.9g}; "
            f"drift above {LOAD_DRIFT_TOL} is rejected"
        )
    try:
        return ExplicitPolicy._from_columns(
            space, contexts, codes, columns.widths, columns.tokens, probs / totals[codes], **kwargs
        )
    except SlateError:
        # the table checks slates in bulk; find the line of the first invalid one
        slates = np.split(columns.tokens, np.cumsum(columns.widths)[:-1])
        for lineno, code, slate in zip(linenos.tolist(), codes.tolist(), slates):
            try:
                space_of(space, contexts[code]).validate(slate)
            except SlateError as exc:
                raise SlateError(f"{path}:{lineno}: context {contexts[code]!r}: {exc}") from None
        raise


def _first_listings(codes, widths, tokens) -> np.ndarray:
    """For each row, the first row listing the same context and slate."""
    n = len(codes)
    padded = np.zeros((n, int(widths.max())), dtype=np.int64)
    padded[np.arange(padded.shape[1]) < widths[:, None]] = tokens
    rows = np.column_stack((codes, widths, padded))
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep line order
    rows = rows[order]
    starts = np.where(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)], np.arange(n), 0)
    first = np.empty(n, dtype=np.int64)
    first[order] = order[np.maximum.accumulate(starts)]
    return first


def write_explicit_policy(path, policy: ExplicitPolicy) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for context in policy.contexts:
            for slate, prob in policy.support(context):
                slate_text = ",".join(str(a) for a in slate)
                handle.write(f"{context}\t{slate_text}\t{prob!r}\n")
