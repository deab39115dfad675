"""Stochastic slate policies and their low-order moments.

A policy implements two hooks: ``_slate_prob_rows``, which scores valid
slate rows of many contexts in one call, and ``sample_rows``, which draws
slates at many contexts in one call. It may also list its supports
(``support_rows``) and say by its ``uniform`` attribute that it is uniform
over every context's slates, so its moments take the closed forms.
``Policy`` derives the rest from them: the probabilities of the rows of
one context (``slate_prob_batch``) or of many (``slate_prob_rows``, which
takes a ``LoggedBatch``'s context, code and action columns), single slates
and draws, the support and the moments. A Plackett-Luce policy
gathers each row's logits from a stacked table, both to score rows and to
draw them by Gumbel keys (at temperature 0 every row of a space scores the
same bits, so one row per space is scored); an explicit table looks every
row up in one sorted array of (context, slate) keys.

Moments are built per (policy, space) as stacks over contexts.
``Policy.moment_rows`` is the one place that picks the slate rows standing
for a policy at its contexts, back to back with per-context offsets: the
exact support stack whenever ``support_rows`` lists it (always for explicit
tables and deterministic policies, otherwise when the space has at most
``enumeration_cap`` slates), else one sample of ``mc_samples`` draws per
context with a fixed per-context seed, so repeated queries are
bit-reproducible. A Plackett-Luce policy lists the supports of all its
contexts in one pass over the prefix tree of the space's slates, taking
each slot's log-sum-exp once per (context, distinct prefix); an explicit
table keeps its rows as one context-sorted array with offsets. Each
space's rows are kept read-only in a ``ContextColumns`` store, one row per
context holding its place in them and their indicator sums (one bincount
per slot): the mean indicators (``mean_indicators``) are one fancy index
of that column, and the second-moment matrices and the overlap
diagnostics read the rows; the one-context methods (``moment_arrays``,
``mean_indicator``) are the N = 1 case. Scoring, support listing, sorting
and the reductions over the rows take their contexts or rows in runs
within the one block budget (``util.block_runs``).

All policies are immutable after construction; their moment stores are
fill-once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ConfigurationError, ContextLookupError, SlateError
from .logs import _invalid_slate, _raise_invalid_slate, _read_tsv_columns, group_rows
from .spaces import Slate, SlateSpace, SpaceKind, space_of
from .util import block_runs, context_rng

DEFAULT_ENUMERATION_CAP = 100_000
DEFAULT_MC_SAMPLES = 100_000

PROB_SUM_TOL = 1e-9
LOAD_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class MomentArrays:
    """Supports (or samples) of a policy at one or more contexts, in array
    form, back to back.

    ``actions`` holds one slate per row and ``probs`` the matching slate
    probabilities (1/n for each of a Monte Carlo sample's n rows); context
    i's rows are ``bounds[i]:bounds[i + 1]``. ``exact`` says whether the
    rows enumerate the supports or only sample them.
    """

    actions: np.ndarray
    probs: np.ndarray
    exact: bool
    bounds: np.ndarray

    def codes(self) -> np.ndarray:
        """Each row's context index."""
        return np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds))

    def part(self, i: int) -> "MomentArrays":
        """Context i's rows alone, as views."""
        lo, hi = int(self.bounds[i]), int(self.bounds[i + 1])
        bounds = np.array((0, hi - lo))
        return MomentArrays(self.actions[lo:hi], self.probs[lo:hi], self.exact, bounds)

    def chunks(self) -> Iterator[tuple[int, int, "MomentArrays"]]:
        """Runs [lo, hi) of the contexts and their rows as views: what a
        reduction over the rows takes at a time, at rows x slots cells a
        context (``util.block_runs``)."""
        sizes = np.diff(self.bounds) * self.actions.shape[1]
        for lo, hi in block_runs(len(sizes), sizes):
            a, b = self.bounds[lo], self.bounds[hi]
            yield lo, hi, MomentArrays(
                self.actions[a:b], self.probs[a:b], self.exact, self.bounds[lo : hi + 1] - a
            )


def _offsets(counts) -> np.ndarray:
    """Row offsets of consecutive blocks of the given sizes."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _stacked(picks: list) -> MomentArrays:
    """The rows of several contexts back to back, each context given as
    (stack, position): the stack itself when the picks are all of it, in
    order."""
    first = picks[0][0]
    if all(rows is first for rows, _ in picks) and len(picks) == len(first.bounds) - 1:
        if all(i == position for i, (_, position) in enumerate(picks)):
            return first
    parts = [rows.part(i) for rows, i in picks]
    if len(parts) == 1:
        return parts[0]
    return MomentArrays(
        np.concatenate([part.actions for part in parts]),
        np.concatenate([part.probs for part in parts]),
        all(part.exact for part in parts),
        _offsets([len(part.probs) for part in parts]),
    )


def _positive_rows(slates: np.ndarray, probs: np.ndarray) -> MomentArrays:
    """The positive entries of an (N, len(slates)) probability table over
    one list of slates, context by context, in slate order."""
    keep = probs > 0.0
    _, slate = np.nonzero(keep)
    return MomentArrays(slates[slate], probs[keep], True, _offsets(np.count_nonzero(keep, axis=1)))


class Policy:
    """Conditional distribution over the slates of a space, per context.

    Subclasses implement ``_slate_prob_rows(contexts, codes, actions)``, the
    probabilities of rows already known to be valid slates of their
    contexts' spaces, and ``sample_rows(contexts, counts, rng)``, draws at
    many contexts. They may override ``support_rows`` (when they can list
    their supports without scoring the whole space) and set ``uniform``.
    The base class validates and scores rows (``slate_prob_rows``,
    ``slate_prob_batch``, ``slate_prob``), draws at one context
    (``sample_batch``, ``sample``), lists the support (``support``) and
    derives the moments of many contexts at once (``moment_rows``,
    ``mean_indicators``) or of one. The space may be a single
    :class:`SlateSpace` or a per-context mapping/callable.
    """

    uniform = False  # exactly uniform over the slates of every context's space

    def __init__(
        self,
        space,
        *,
        enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
        mc_samples: int = DEFAULT_MC_SAMPLES,
        mc_seed: int = 0,
    ):
        self._space = space
        self.enumeration_cap = int(enumeration_cap)
        self.mc_samples = int(mc_samples)
        self.mc_seed = int(mc_seed)
        self._stores = defaultdict(ContextColumns)  # per space: each context's rows and q

    def space_of(self, context) -> SlateSpace:
        return space_of(self._space, context)

    # -- distribution interface -------------------------------------------

    def slate_prob_batch(self, context, actions) -> np.ndarray:
        """Probabilities of an (n, num_slots) array of slates at one context.

        Raises SlateError, naming the context, if any row is not a valid
        slate of the context's space.
        """
        actions = np.asarray(actions)
        return self.slate_prob_rows((context,), np.zeros(len(actions), dtype=np.int64), actions)

    def slate_prob_rows(self, contexts, codes, actions) -> np.ndarray:
        """Probabilities of an (n, num_slots) array of slates, row i at
        context ``contexts[codes[i]]``, as in a ``LoggedBatch``.

        Raises SlateError if any row is not a valid slate of its context's
        space, naming the first such context in code order and its first
        invalid row.
        """
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        actions = np.asarray(actions)
        if len(codes) != len(actions) or (
            len(codes) and not 0 <= codes.min() <= codes.max() < len(contexts)
        ):
            raise SlateError(
                f"{len(codes)} context codes into {len(contexts)} contexts do not "
                f"match {len(actions)} slate rows"
            )
        if not len(codes):
            return np.empty(0)
        try:
            for space, rows in self._rows_by_space(contexts, codes):
                space.validate_batch(actions[rows])
        except SlateError:
            for code, rows in group_rows(codes, len(contexts)):
                self.space_of(contexts[code]).validate_batch(actions[rows], contexts[code])
            raise
        return self._slate_prob_rows(contexts, codes, actions.astype(np.int64, copy=False))

    def _slate_prob_rows(self, contexts, codes, actions) -> np.ndarray:
        """``slate_prob_rows`` of int64 rows already known to be valid slates
        of their contexts' spaces."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _slate_prob_rows(contexts, codes, actions)"
        )

    def _rows_by_space(self, contexts, codes) -> list:
        """(space, rows) per distinct space among the contexts with rows, in
        order of first context code; rows is a slice of all rows when the
        contexts share one space, else an index array."""
        present = np.flatnonzero(np.bincount(codes, minlength=len(contexts))).tolist()
        spaces = [self.space_of(contexts[c]) for c in present]
        if all(space == spaces[0] for space in spaces):
            return [(spaces[0], slice(None))]
        index: dict = {}
        group = np.zeros(len(contexts), dtype=np.int64)
        for c, space in zip(present, spaces):
            group[c] = index.setdefault(space, len(index))
        row_group = group[codes]
        return [(space, np.flatnonzero(row_group == g)) for space, g in index.items()]

    def slate_prob(self, context, slate) -> float:
        """Probability of one slate: a one-row ``slate_prob_batch`` call."""
        return float(self.slate_prob_batch(context, np.asarray([slate], dtype=np.int64))[0])

    def sample(self, context, rng: np.random.Generator) -> Slate:
        """One draw: a one-row ``sample_batch`` call, as a tuple of ints."""
        return tuple(self.sample_batch(context, 1, rng)[0].tolist())

    def sample_batch(self, context, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, num_slots) int64 array of independent draws at ``context``:
        the one-context case of ``sample_rows``."""
        return self.sample_rows((context,), (n,), rng)

    def sample_rows(self, contexts, counts, rng: np.random.Generator) -> np.ndarray:
        """Independent draws at many contexts: ``counts[i]`` rows at
        ``contexts[i]``, back to back in the given order, as one
        (sum(counts), num_slots) int64 array. The contexts' spaces have one
        number of slots. The generator advances as under one
        ``sample_batch`` call per context, in order."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement sample_rows(contexts, counts, rng)"
        )

    def support_rows(self, contexts, space: SlateSpace) -> MomentArrays | None:
        """The slates with positive probability at each of ``contexts``, all
        on ``space``, and their probabilities, context after context; None
        when the policy does not list them.

        The default scores the whole space at every context, in runs of
        contexts at len(slates) rows a context (``util.block_runs``), so it
        lists the supports only when the space has at most
        ``enumeration_cap`` slates.
        """
        if space.num_slates() > self.enumeration_cap:
            return None
        slates = space.slate_array()
        probs = []
        for lo, hi in block_runs(len(contexts), len(slates)):
            chunk = contexts[lo:hi]
            codes = np.repeat(np.arange(len(chunk)), len(slates))
            probs.append(self._slate_prob_rows(chunk, codes, np.tile(slates, (len(chunk), 1))))
        return _positive_rows(slates, np.concatenate(probs).reshape(len(contexts), -1))

    def support(self, context) -> Iterator[tuple[Slate, float]]:
        """Iterate (slate, probability) pairs with positive probability."""
        listed = self.support_rows([context], self.space_of(context))
        if listed is None:
            raise ConfigurationError(
                f"the support at context {context!r} is not listed: its space has "
                f"{self.space_of(context).num_slates()} slates, above the enumeration cap "
                f"of {self.enumeration_cap}"
            )
        for row, p in zip(listed.actions.tolist(), listed.probs.tolist()):
            yield tuple(row), p

    # -- moments ------------------------------------------------------------

    def moment_rows(self, contexts, space: SlateSpace) -> MomentArrays:
        """The slate rows that stand for the policy at each of ``contexts``,
        all on ``space``, back to back in the given order."""
        store = self._store(contexts, space)
        rows = store.rows(contexts)
        return _stacked(list(zip(store.column("block")[rows], store.column("at")[rows].tolist())))

    def _store(self, contexts, space: SlateSpace) -> ContextColumns:
        """The space's store, after the contexts not seen before are built
        together: their exact support stack when ``support_rows`` lists it,
        else one sample of ``mc_samples`` draws per context with a fixed
        per-context seed. Each gets a row: the read-only stack, its place in
        it and the indicator sums ``q`` of its rows."""
        store = self._stores[space]
        missing = store.missing(contexts)
        if missing:
            built = self.support_rows(missing, space)
            if built is None:
                built = self._sample_rows(missing, space)
            for array in (built.actions, built.probs, built.bounds):
                array.flags.writeable = False
            at = np.arange(len(missing))
            store.append(missing, q=indicator_sums(space, built), block=[built] * len(at), at=at)
        return store

    def _sample_rows(self, contexts, space: SlateSpace) -> MomentArrays:
        if self.mc_samples <= 0:
            raise ConfigurationError(
                "Monte Carlo moments requested with a non-positive sample count"
            )
        n = self.mc_samples
        actions = np.empty((len(contexts) * n, space.num_slots), dtype=np.int64)
        for i, context in enumerate(contexts):
            rng = context_rng(self.mc_seed, context)
            actions[i * n : (i + 1) * n] = self.sample_batch(context, n, rng)
        probs = np.full(len(actions), 1.0 / n)
        return MomentArrays(actions, probs, False, _offsets([n] * len(contexts)))

    def moment_arrays(self, context) -> MomentArrays:
        """The one-context case of ``moment_rows``."""
        return self.moment_rows([context], self.space_of(context))

    def mean_indicators(self, contexts, space: SlateSpace) -> np.ndarray:
        """(N, dim) stack of the expected slate-indicator vectors at
        ``contexts``, all on ``space``: the closed form when the policy is
        uniform, else ``_mean_rows``."""
        if self.uniform:
            return np.tile(uniform_mean_indicator(space), (len(contexts), 1))
        return self._mean_rows(contexts, space)

    def _mean_rows(self, contexts, space: SlateSpace) -> np.ndarray:
        """The per-slot action marginals summed over the ``moment_rows``.
        Above the cap they are the mean of the same sample as the second
        moments, so they lie in their range."""
        store = self._store(contexts, space)
        return store.column("q")[store.rows(contexts)]

    def mean_indicator(self, context) -> np.ndarray:
        """Expected slate-indicator vector, read-only: the one-context case
        of ``mean_indicators``."""
        q = self.mean_indicators([context], self.space_of(context))[0]
        q.flags.writeable = False
        return q


class ContextColumns:
    """Per-context columns of one owner and space: one row per context, in
    order of arrival, a context -> row dict, and room that doubles as blocks
    of contexts arrive. Readers take one fancy index of a read-only column."""

    def __init__(self):
        self.index: dict = {}
        self._data: dict = {}

    def missing(self, contexts) -> list:
        """The distinct contexts without a row, in order."""
        index = self.index
        return [c for c in dict.fromkeys(contexts) if c not in index]

    def append(self, contexts, **columns) -> None:
        """Rows for new distinct ``contexts``: each column's values, one row
        per context (the first block sets the column's row shape and dtype)."""
        n, k = len(self.index), len(contexts)
        for name, values in columns.items():
            values = np.asarray(values)
            data = self._data.get(name, values[:0])
            if n + k > len(data):
                grown = np.empty((max(2 * len(data), n + k), *values.shape[1:]), values.dtype)
                grown[:n] = data[:n]
                self._data[name] = data = grown
            data[n : n + k] = values
        self.index.update(zip(contexts, range(n, n + k)))

    def rows(self, contexts) -> np.ndarray:
        return np.fromiter(map(self.index.__getitem__, contexts), np.int64, len(contexts))

    def column(self, name: str) -> np.ndarray:
        view = self._data[name][: len(self.index)]
        view.flags.writeable = False
        return view


def positions_by_space(policy: Policy, contexts) -> list[tuple[SlateSpace, list[int]]]:
    """The positions of the contexts on each distinct space of the policy,
    in order of first appearance."""
    groups: dict = {}
    for i, context in enumerate(contexts):
        groups.setdefault(policy.space_of(context), []).append(i)
    return list(groups.items())


def indicator_sums(space: SlateSpace, rows: MomentArrays) -> np.ndarray:
    """(N, dim) probability-weighted sums of the indicator vectors of each
    context's rows. One bincount per slot, so every coordinate adds its
    terms in row order."""
    sums = np.empty((len(rows.bounds) - 1, space.dim))
    for lo, hi, part in rows.chunks():
        codes, n = part.codes(), hi - lo
        for j, (offset, count) in enumerate(zip(space.offsets.tolist(), space.slot_counts)):
            cells = np.bincount(codes * count + part.actions[:, j], part.probs, minlength=n * count)
            sums[lo:hi, offset : offset + count] = cells.reshape(n, count)
    return sums


@lru_cache(maxsize=64)
def uniform_mean_indicator(space: SlateSpace) -> np.ndarray:
    """Mean indicator of the uniform policy: read-only, one per space."""
    q = np.repeat(1.0 / np.asarray(space.slot_counts, dtype=np.float64), space.slot_counts)
    q.flags.writeable = False
    return q


def _per_context(contexts, codes, value_of, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """``value_of(context)`` for each context with rows, one call each in code
    order, stacked; and each row's index into that stack."""
    present = np.flatnonzero(np.bincount(codes, minlength=len(contexts)))
    table = np.asarray([value_of(contexts[c]) for c in present.tolist()], dtype=dtype)
    position = np.zeros(len(contexts), dtype=np.int64)
    position[present] = np.arange(len(present))
    return table, position[codes]


def _uniform_probs(policy: Policy, contexts, codes) -> np.ndarray:
    """1 / num_slates of each row's space."""
    table, at = _per_context(contexts, codes, lambda c: 1.0 / policy.space_of(c).num_slates())
    return table[at]


class UniformPolicy(Policy):
    """Uniform distribution over all valid slates; all moments closed-form."""

    uniform = True

    def _slate_prob_rows(self, contexts, codes, actions) -> np.ndarray:
        return _uniform_probs(self, contexts, codes)

    def sample_rows(self, contexts, counts, rng) -> np.ndarray:
        spaces = [self.space_of(c) for c in contexts]
        if SpaceKind.CARTESIAN not in [space.kind for space in spaces]:
            return _ranked_rows(spaces, counts, rng.random)
        # a Cartesian context draws its slots' columns one after another
        return np.concatenate([
            np.stack([rng.integers(0, m, size=n) for m in space.slot_counts], axis=1)
            if space.kind is SpaceKind.CARTESIAN
            else self.sample_batch(c, n, rng)
            for c, n, space in zip(contexts, counts, spaces)
        ]).astype(np.int64)


class DeterministicPolicy(Policy):
    """Point mass on one slate per context. Each context's slate is
    validated on first use and kept."""

    def __init__(self, space, slates: Mapping | Callable, **kwargs):
        super().__init__(space, **kwargs)
        self._slates = slates
        self._chosen: dict = {}

    def slate_of(self, context) -> Slate:
        slate = self._chosen.get(context)
        if slate is None:
            picked = self._slates(context) if callable(self._slates) else self._slates[context]
            slate = self._chosen[context] = self.space_of(context).validate(picked)
        return slate

    def _slate_prob_rows(self, contexts, codes, actions) -> np.ndarray:
        picked, at = _per_context(contexts, codes, self.slate_of, np.int64)
        return np.all(actions == picked[at], axis=1).astype(np.float64)

    def sample_rows(self, contexts, counts, rng) -> np.ndarray:
        slates = np.asarray([self.slate_of(c) for c in contexts], dtype=np.int64)
        return np.repeat(slates, counts, axis=0)

    def support_rows(self, contexts, space):
        slates = np.asarray([self.slate_of(c) for c in contexts], dtype=np.int64)
        return MomentArrays(
            slates.reshape(len(contexts), space.num_slots),
            np.ones(len(contexts)),
            True,
            np.arange(len(contexts) + 1),
        )


class _SortedRows(NamedTuple):
    """An explicit table's rows in ``ExplicitPolicy._sort_rows`` order."""

    order: np.ndarray  # row indices, stable in key order
    keys: np.ndarray  # their keys, code * stride + slate code, ascending
    stride: int
    ranks: dict | None  # space -> sorted slate keys, when slate codes are ranks in them


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

    def _sort_rows(self, contexts, codes, widths, tokens) -> _SortedRows | None:
        """The rows (context codes, slot widths, the slates' tokens back to
        back) in one stable order of ``code * stride + slate code``, or None
        when some row is not a valid slate of its context's space.

        The slate code is the space's mixed-radix slate key when the keys of
        every context fit in int64 side by side, else the rank of that key
        among the space's listed slates.
        """
        starts = np.cumsum(widths) - widths
        groups = self._rows_by_space(contexts, codes) if len(codes) else []
        slate_codes = np.empty(len(codes), dtype=np.int64)
        stride = max((math.prod(space.slot_counts) for space, _ in groups), default=1)
        ranks = {} if len(contexts) * stride >= 2**63 else None
        for space, rows in groups:
            rows = np.arange(len(codes))[rows]
            if (widths[rows] != space.num_slots).any():
                return None
            actions = tokens[starts[rows, None] + np.arange(space.num_slots)]
            try:
                space.validate_batch(actions)
            except SlateError:
                return None
            keys = space.slate_keys(actions)
            if ranks is not None:
                ranks[space], keys = np.unique(keys, return_inverse=True)
            slate_codes[rows] = keys
        if ranks is not None:
            stride = max(map(len, ranks.values()), default=1)
        keys = codes * stride + slate_codes
        order = np.argsort(keys, kind="stable")
        return _SortedRows(order, keys[order], stride, ranks)

    def _build(self, contexts, codes, widths, tokens, probs, sorted_rows=None) -> None:
        """Check and store the table, from one row per listed slate and the
        rows' ``_sort_rows`` order (sorted here when not given); the one
        construction path of ``__init__`` and ``load_explicit_policy``."""
        starts = np.cumsum(widths) - widths
        bad = ~np.isfinite(probs) | (probs < 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            slate = tuple(tokens[starts[i] : starts[i] + widths[i]].tolist())
            raise SlateError(
                f"probability {probs[i]} for slate {slate} at context {contexts[codes[i]]!r} "
                f"is not a finite nonnegative number"
            )
        if sorted_rows is None:
            sorted_rows = self._sort_rows(contexts, codes, widths, tokens)
        if sorted_rows is None:
            row, exc = _invalid_slate(self._space, contexts, codes, widths, tokens)
            raise SlateError(f"invalid slate at context {contexts[codes[row]]!r}: {exc}")
        # equal neighbours in key order list one slate twice; the first pair
        # lies in the first context, in code order, that has one
        keys, order = sorted_rows.keys, sorted_rows.order
        repeats = keys[1:] == keys[:-1]
        twice = int(order[np.argmax(repeats)]) if repeats.any() else -1
        # the rows in context order, table order within a context; contexts
        # with equal row counts sum, normalize and accumulate as one table
        by_context = np.argsort(codes, kind="stable")
        counts = np.bincount(codes, minlength=len(contexts))
        bounds = _offsets(counts)
        listed = probs[by_context]
        tables = [
            (group, bounds[group, None] + np.arange(length))
            for length in np.flatnonzero(np.bincount(counts)).tolist()
            for group in [np.flatnonzero(counts == length)]
        ]
        totals = np.empty(len(contexts))
        for group, at in tables:
            totals[group] = listed[at].sum(axis=1)
        off = np.abs(totals - 1.0) > PROB_SUM_TOL
        first_off = int(np.argmax(off)) if off.any() else len(contexts)
        if first_off < len(contexts) and (twice < 0 or first_off <= codes[twice]):
            raise SlateError(
                f"probabilities for context {contexts[first_off]!r} sum to "
                f"{totals[first_off]:.12g}, not 1"
            )
        if twice >= 0:
            slate = tuple(tokens[starts[twice] : starts[twice] + widths[twice]].tolist())
            context = contexts[codes[twice]]
            raise SlateError(f"slate {slate} is listed twice for context {context!r}")
        self._probs = np.empty(len(probs))  # normalized, in context order
        self._cdf = np.empty(len(probs))  # per-context cumulative probabilities, for sampling
        for group, at in tables:
            p = self._probs[at] = listed[at] / totals[group, None]
            cdf = p.cumsum(axis=1)
            self._cdf[at] = cdf / cdf[:, -1:]
        # one row per listed slate, zero-padded to the widest (spaces may differ per context)
        actions = np.zeros((len(widths), int(widths.max(initial=0))), dtype=np.int64)
        slot = np.arange(len(tokens)) - np.repeat(starts, widths)
        actions[np.repeat(np.arange(len(widths)), widths), slot] = tokens
        self._actions = actions[by_context]
        self._bounds = bounds
        slots = np.zeros(len(contexts), dtype=np.int64)
        slots[codes] = widths
        self._spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist(), slots.tolist()))
        self._contexts = list(contexts)
        self._index = {context: i for i, context in enumerate(contexts)}
        self._stride, self._ranks = sorted_rows.stride, sorted_rows.ranks
        normalized = np.empty(len(probs))
        normalized[by_context] = self._probs
        self._keys, self._key_probs = keys, normalized[order]

    @property
    def contexts(self) -> list:
        return list(self._contexts)

    def _position(self, context) -> int:
        position = self._index.get(context)
        if position is None:
            raise ContextLookupError(f"no table entry for context {context!r}")
        return position

    def _slate_prob_rows(self, contexts, codes, actions) -> np.ndarray:
        positions, at = _per_context(contexts, codes, self._position, np.int64)
        probs = np.empty(len(codes))
        for space, rows in self._rows_by_space(contexts, codes):
            slate_codes = space.slate_keys(actions[rows])
            found = True
            if self._ranks is not None:  # a slate's code is its key's rank among the listed
                listed = self._ranks[space]
                ranks = np.minimum(np.searchsorted(listed, slate_codes), len(listed) - 1)
                slate_codes, found = ranks, listed[ranks] == slate_codes
            wanted = positions[at[rows]] * self._stride + slate_codes
            probs[rows] = np.where(found, _look_up(self._keys, self._key_probs, wanted), 0.0)
        return probs

    def support_rows(self, contexts, space):
        picks = np.fromiter(map(self._position, contexts), dtype=np.int64, count=len(contexts))
        starts = self._bounds[picks]
        lengths = self._bounds[picks + 1] - starts
        rows = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        keep = self._probs[rows] > 0.0
        codes = np.repeat(np.arange(len(picks)), lengths)[keep]
        rows = rows[keep]
        return MomentArrays(
            self._actions[rows, : space.num_slots],
            self._probs[rows],
            True,
            _offsets(np.bincount(codes, minlength=len(picks))),
        )

    # Inverse-CDF draws on rng.choice's own CDF give its draws and leave the
    # generator in the same state, without its per-call checks of the weights.
    def sample_rows(self, contexts, counts, rng) -> np.ndarray:
        draws = []
        for context, n in zip(contexts, counts):
            lo, hi, slots = self._spans[self._position(context)]
            at = lo + self._cdf[lo:hi].searchsorted(rng.random(n), "right")
            draws.append(self._actions[at, :slots])
        return draws[0] if len(draws) == 1 else np.concatenate(draws)


def _look_up(keys: np.ndarray, probs: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Probability of each wanted key in a sorted key table, 0 where absent."""
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, probs[at], 0.0)


class MultinomialWoRPolicy(Policy):
    """Slot-by-slot sampling without replacement from a softmax over scores.

    Action weights are proportional to exp(temperature * score); slates are
    built by drawing one action per slot from the remaining pool, i.e. a
    Plackett-Luce distribution over rankings. Temperature 0 is uniform;
    large temperatures concentrate on the ranking by decreasing score.
    """

    def __init__(self, space, scores: Mapping | Callable, temperature: float, **kwargs):
        super().__init__(space, **kwargs)
        if not (math.isfinite(temperature) and temperature >= 0):
            raise ConfigurationError(
                f"temperature must be a finite nonnegative number, got {temperature}"
            )
        self.temperature = float(temperature)
        self.uniform = self.temperature == 0.0
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
        if not np.isfinite(scores).all():
            raise SlateError(f"scores at context {context!r} are non-finite: {scores.tolist()}")
        with np.errstate(over="ignore"):
            logits = self.temperature * scores
        if not np.isfinite(logits).all():
            raise SlateError(
                f"scores at context {context!r} give non-finite logits at temperature "
                f"{self.temperature}: {scores.tolist()}"
            )
        logits = logits - logits.max()
        self._weights_cache[context] = logits
        return logits

    def _slate_prob_rows(self, contexts, codes, actions) -> np.ndarray:
        probs = np.empty(len(codes))
        for space, rows in self._rows_by_space(contexts, codes):
            # every context's logits, so their checks still run
            logits, at = _per_context(contexts, codes[rows], self.action_logits)
            group = actions[rows]
            if self.temperature == 0.0:
                # zero logits (of either sign): every row's chain is
                # 0 - log(m) - log(m - 1) - ..., the same bits; score one
                at, group = at[:1], group[:1]
            out = np.empty(len(group))
            for lo, hi in block_runs(len(group), logits.shape[1]):
                out[lo:hi] = np.exp(_plackett_luce_log_probs(logits[at[lo:hi]], group[lo:hi]))
            probs[rows] = out
        return probs

    def support_rows(self, contexts, space):
        if space.num_slates() > self.enumeration_cap:
            return None
        slates = space.slate_array()
        log_probs = [
            _plackett_luce_prefix_log_probs(
                np.stack([self.action_logits(c) for c in contexts[lo:hi]]), slates
            )
            for lo, hi in block_runs(len(contexts), len(slates))
        ]
        return _positive_rows(slates, np.exp(np.concatenate(log_probs)))

    def sample_rows(self, contexts, counts, rng) -> np.ndarray:
        # Gumbel top-k keys reproduce sequential without-replacement draws.
        logits = [self.action_logits(c) for c in contexts]
        return _ranked_rows([self.space_of(c) for c in contexts], counts, rng.gumbel, logits)


def _ranked_rows(spaces, counts, draw, logits=None) -> np.ndarray:
    """Ranking slates drawn by random keys: counts[i] rows at a context on
    ``spaces[i]``, back to back.

    ``draw(size=...)`` gives the noise, context after context and row after
    row, ``num_actions`` values per row: the stream of one (counts[i],
    num_actions) draw per context. Each row's slate is its first
    ``num_slots`` actions in stable ascending order of the noise, or, given
    each context's ``logits``, in stable descending order of logits + noise.
    Consecutive contexts on one space are drawn and sorted together, in
    blocks of rows at ``num_actions`` keys a row (``util.block_runs``).
    """
    first = spaces[0]
    if spaces.count(first) != len(spaces):
        runs = [list(run) for _, run in groupby(range(len(spaces)), key=spaces.__getitem__)]
        return np.concatenate([
            _ranked_rows(
                spaces[run[0] : run[-1] + 1],
                counts[run[0] : run[-1] + 1],
                draw,
                None if logits is None else logits[run[0] : run[-1] + 1],
            )
            for run in runs
        ])
    m, total = first.num_actions, int(sum(counts))
    if logits is not None:
        stack, codes = np.stack(logits), np.repeat(np.arange(len(logits)), counts)
    slates = np.empty((total, first.num_slots), dtype=np.int64)
    for lo, hi in block_runs(total, m):
        keys = None if logits is None else stack[codes[lo:hi]]
        slates[lo:hi] = _top_slots(draw(size=(hi - lo, m)), keys, first.num_slots)
    return slates


def _top_slots(noise: np.ndarray, logits: np.ndarray | None, num_slots: int) -> np.ndarray:
    """The first ``num_slots`` actions of each row in stable ascending order
    of the noise, or, given each row's logits (a fresh array, overwritten),
    in stable descending order of logits + noise."""
    if logits is not None:
        logits += noise
        noise = np.negative(logits, out=logits)
    return noise.argsort(axis=1, kind="stable")[:, :num_slots]


def _plackett_luce_log_probs(logits: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Log-probability of each slate row under slot-by-slot softmax draws,
    row i with its own logits ``logits[i]``.

    Evaluated in log space, since sharp temperatures underflow the softmax
    weights of every non-maximal action. Each step compacts the logits still
    available to every row, in pool order, and takes its log-sum-exp.
    """
    n, m = logits.shape
    rows = np.arange(n)
    available = np.ones((n, m), dtype=bool)
    log_prob = np.zeros(n)
    for j in range(actions.shape[1]):
        rest = logits[available].reshape(n, m - j)
        peak = rest.max(axis=1)
        chosen = actions[:, j]
        log_prob += logits[rows, chosen] - peak - np.log(np.exp(rest - peak[:, None]).sum(axis=1))
        available[rows, chosen] = False
    return log_prob


def _plackett_luce_prefix_log_probs(logits: np.ndarray, slates: np.ndarray) -> np.ndarray:
    """``_plackett_luce_log_probs`` of every slate of a ranking space, given
    as its ``slate_array``, at each context of an (N, m) logit stack, with
    the same operations in the same order; (N, len(slates)).

    In that lexicographic array the slates sharing a length-j prefix form one
    block of (m-j)!/(m-l)! rows, so slot j's peak and log-sum-exp are taken
    once per (context, distinct prefix) and repeated over its block.
    """
    n, m = len(slates), logits.shape[1]
    log_prob = np.zeros((len(logits), n))
    for j in range(slates.shape[1]):
        block = n // math.prod(range(m - j + 1, m + 1))
        prefixes = slates[::block, :j]
        available = np.ones((len(prefixes), m), dtype=bool)
        available[np.arange(len(prefixes))[:, None], prefixes] = False
        columns = np.nonzero(available)[1].reshape(len(prefixes), m - j)
        # contiguous, so each sum adds in the order of a one-context table
        rest = np.ascontiguousarray(logits[:, columns])
        peak = rest.max(axis=2)
        lse = np.log(np.exp(rest - peak[:, :, None]).sum(axis=2))
        log_prob += (
            logits[:, slates[:, j]] - np.repeat(peak, block, axis=1) - np.repeat(lse, block, axis=1)
        )
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
        self.uniform = self.kappa == 1.0 or base.uniform
        self._uniform = UniformPolicy(base._space)

    def _slate_prob_rows(self, contexts, codes, actions) -> np.ndarray:
        base = self.base._slate_prob_rows(contexts, codes, actions)
        return self.kappa * _uniform_probs(self, contexts, codes) + (1.0 - self.kappa) * base

    # One rng.random() per row picks its component, then each component
    # draws its own rows only; one row is the scalar case of that stream,
    # without the array work (criterion 3 draws 500k slates one by one).
    def sample(self, context, rng) -> Slate:
        return (self._uniform if rng.random() < self.kappa else self.base).sample(context, rng)

    def sample_rows(self, contexts, counts, rng) -> np.ndarray:
        draws = []
        for context, n in zip(contexts, counts):
            pick_uniform = rng.random(n) < self.kappa
            k = np.count_nonzero(pick_uniform)
            if k == 0 or k == n:  # every row from one component
                draws.append((self._uniform if k else self.base).sample_batch(context, n, rng))
                continue
            rows = np.empty((n, self.space_of(context).num_slots), dtype=np.int64)
            rows[pick_uniform] = self._uniform.sample_batch(context, k, rng)
            rows[~pick_uniform] = self.base.sample_batch(context, n - k, rng)
            draws.append(rows)
        return draws[0] if len(draws) == 1 else np.concatenate(draws)

    # Mixes the components' indicators, so it stays exact wherever they are,
    # as moment_matrix does; the derived one would sample the mixture above
    # the cap.
    def _mean_rows(self, contexts, space) -> np.ndarray:
        return self.kappa * uniform_mean_indicator(space) + (
            1.0 - self.kappa
        ) * self.base.mean_indicators(contexts, space)


# -- explicit-policy text format ------------------------------------------


def load_explicit_policy(path, space, **kwargs) -> ExplicitPolicy:
    """Read a tab-separated (context, comma-joined slate, probability) file.

    Per-context probability sums may drift from 1 by up to 1e-6 (e.g. from
    decimal rounding) and are renormalized; larger drift is rejected. A
    probability that is not a finite nonnegative number, a slate that is
    not valid in its context's space, or a slate listed twice for one
    context, is rejected with its line number, and so is a file without
    entries.

    The file is read by ``_read_tsv_columns``, and one stable sort of its
    rows by (context, slate) finds repeated slates and orders the lookup
    table. Each context keeps its slates in file order.
    """
    columns = _read_tsv_columns(path, SlateError)
    contexts, codes, linenos = columns.contexts, columns.codes, columns.linenos
    widths, tokens, probs = columns.widths, columns.tokens, columns.numbers
    if not len(codes):
        raise SlateError(f"{path}: no policy entries")
    policy = ExplicitPolicy.__new__(ExplicitPolicy)
    Policy.__init__(policy, space, **kwargs)
    sorted_rows = policy._sort_rows(contexts, codes, widths, tokens)
    first = _first_listings(codes, widths, tokens, sorted_rows)
    bad = ~np.isfinite(probs) | (probs < 0.0)
    repeated = first != np.arange(len(codes))
    if (bad | repeated).any():
        i = int(np.argmax(bad | repeated))
        if bad[i]:
            problem = f"probability {probs[i]} is not a finite nonnegative number"
        else:
            start = int(widths[:i].sum())
            slate = tuple(tokens[start : start + widths[i]].tolist())
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
    if sorted_rows is None:
        _raise_invalid_slate(path, SlateError, space, columns)
    policy._build(contexts, codes, widths, tokens, probs / totals[codes], sorted_rows)
    return policy


def _first_listings(codes, widths, tokens, sorted_rows: _SortedRows | None) -> np.ndarray:
    """For each row, the first row listing the same context and slate: read
    off the sorted keys, or, when some slate is invalid and has no key, from
    a per-row loop."""
    n = len(codes)
    if sorted_rows is None:
        seen: dict = {}
        slates = map(tuple, np.split(tokens, np.cumsum(widths)[:-1]))
        keys = zip(codes.tolist(), slates)
        return np.array([seen.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.int64)
    keys, order = sorted_rows.keys, sorted_rows.order
    run_starts = np.where(np.r_[True, keys[1:] != keys[:-1]], np.arange(n), 0)
    first = np.empty(n, dtype=np.int64)
    first[order] = order[np.maximum.accumulate(run_starts)]
    return first
