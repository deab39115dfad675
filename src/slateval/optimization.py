"""Off-policy slate optimization from page-level rewards.

Each logged example's reward is pushed back through the pseudoinverse of
the logging policy's indicator second moment, which turns one slate-level
observation into a full vector of per-(slot, action) regression targets.
A pointwise ridge scorer (slot one-hot concatenated with action features)
is fit to those targets and slates are built greedily from its scores.
The action features come from a ``FeatureMap``: one call per context
returns that context's ``(dim, feature_dim)`` table, one row per (slot,
action) coordinate in the indicator's slot-major, action-minor order.

A supervised baseline with the same model family is included: it regresses
directly on relevance gains (or raw relevance), which requires labels the
off-policy path never sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, SlateError
from .estimators import FeatureMap, _feature_table
from .logs import LoggedBatch, LoggedExample
from .moments import PinvSource
from .policies import Policy, positions_by_space, row_runs
from .ridge import (
    DEFAULT_ALPHAS,
    FoldMoments,
    add_intercept,
    cv_select_alpha,
    fit_ridge_cv,
    intercept_penalty_mask,
    solve_ridge,
)
from .spaces import SlateSpace, SpaceKind

RUN_ROWS = 1 << 12  # bounds the rows one step of decompose or of the greedy scoring holds


@dataclass(frozen=True)
class DecomposedTargets:
    """Per-(slot, action) regression targets recovered from logged rewards.

    One block per context: ``rows[b]`` holds the indices of the logged
    examples of ``contexts[b]``, ascending, and ``phi_hats[b]`` is the
    ``(len(rows[b]), dim)`` target block, one row per example and one
    column per indicator coordinate of that context's space. Rows pair the
    targets with (slot one-hot, action features).
    """

    contexts: tuple
    rows: tuple[np.ndarray, ...]
    phi_hats: tuple[np.ndarray, ...]
    spaces: dict
    features: FeatureMap
    num_slots: int

    def __post_init__(self):
        pairs = zip(self.contexts, self.rows, strict=True)
        expected = [(len(rows), self.spaces[context].dim) for context, rows in pairs]
        seen = np.bincount(np.concatenate([*self.rows, []]).astype(np.int64), minlength=len(self))
        if not self.rows or [b.shape for b in self.phi_hats] != expected or (seen != 1).any():
            raise ConfigurationError(
                "target blocks must be nonempty, shaped (rows, dim), and hold every example "
                "index exactly once"
            )

    def __len__(self) -> int:
        return sum(len(rows) for rows in self.rows)


def decompose(
    data: Sequence[LoggedExample],
    logging: Policy,
    *,
    features: FeatureMap,
    pinv_source: PinvSource | None = None,
) -> DecomposedTargets:
    """Per-example reward decomposition through the logging pseudoinverse.

    Works one space at a time, in runs of at most ``RUN_ROWS`` rows: one
    ``validate_batch`` and one ``coords_of_actions`` serve all of a run's
    contexts. A failing check is redone context by context in batch order,
    so the error names the first failing context. Each row of the moment
    store (one per space under uniform logging) gives one contiguous copy of
    its pseudoinverse's transpose: row k is column k of the pseudoinverse, the
    entries a slate's targets sum, so the bits do not rest on its exact
    symmetry. A context's target block starts as the rows of its logged
    slates' first-slot coordinates, adds those of each later slot in turn,
    and is scaled by the rewards, one contiguous row per example.
    """
    if len(data) == 0:
        raise ConfigurationError("cannot decompose an empty dataset")
    batch = LoggedBatch.from_examples(data)
    source = pinv_source if pinv_source is not None else PinvSource()
    groups = batch.groups()
    contexts = [context for context, _ in groups]
    spaces = {context: logging.space_of(context) for context in contexts}
    by_space = positions_by_space(logging, contexts)
    # every space's missing moments are built before any slate is checked
    stores = [source.moments(logging, [contexts[i] for i in at]) for _, at in by_space]
    blocks = [None] * len(groups)
    for (space, positions), (store, store_rows) in zip(by_space, stores):
        pinv, row = store.column("pinv"), -1
        space_rows = [groups[i][1] for i in positions]
        bounds = np.concatenate([[0], np.cumsum([len(rows) for rows in space_rows])])
        for lo, hi in row_runs(bounds, RUN_ROWS):
            try:
                coords = space.coords_of_actions(
                    space.validate_batch(batch.actions[np.concatenate(space_rows[lo:hi])])
                )
            except SlateError:
                for context, rows in groups:
                    spaces[context].validate_batch(batch.actions[rows], context)
                raise
            starts = (bounds[lo : hi + 1] - bounds[lo]).tolist()
            for k, i in enumerate(positions[lo:hi]):
                if store_rows[lo + k] != row:
                    row = store_rows[lo + k]
                    columns = np.ascontiguousarray(pinv[row].T)
                own = coords[starts[k] : starts[k + 1]]
                block = columns[own[:, 0]]
                for j in range(1, space.num_slots):
                    block += columns[own[:, j]]
                block *= batch.rewards[space_rows[lo + k]][:, None]
                blocks[i] = block
    return DecomposedTargets(
        contexts=tuple(contexts),
        rows=tuple(rows for _, rows in groups),
        phi_hats=tuple(blocks),
        spaces=spaces,
        features=features,
        num_slots=batch.num_slots,
    )


@dataclass(frozen=True)
class PointwiseScorer:
    """Linear scorer over slot one-hot plus action features (no intercept
    column; the slot block spans constants)."""

    weights: np.ndarray
    num_slots: int
    feature_dim: int
    alpha: float

    def slot_weights(self) -> np.ndarray:
        return self.weights[: self.num_slots]

    def feature_weights(self) -> np.ndarray:
        return self.weights[self.num_slots :]

    def score_tables(self, contexts, space: SlateSpace, features: FeatureMap) -> np.ndarray:
        """(contexts, slots, max actions) score tables of contexts on one
        space, from one stacked product; impossible cells are -inf."""
        tables = np.stack([_feature_table(space, c, features) for c in contexts])
        scores = tables @ self.feature_weights()
        scores += np.repeat(self.slot_weights(), space.slot_counts)
        width = max(space.slot_counts)
        if space.dim == space.num_slots * width:
            return scores.reshape(len(contexts), space.num_slots, width)
        stack = np.full((len(contexts), space.num_slots, width), -np.inf)
        stack[:, np.arange(width) < np.array(space.slot_counts)[:, None]] = scores
        return stack

    def score_matrix(self, context, space: SlateSpace, features: FeatureMap) -> np.ndarray:
        """(slots, max actions) score table of one context: ``score_tables``
        of that context alone."""
        return self.score_tables((context,), space, features)[0]


@lru_cache(maxsize=64)
def _slot_block(space: SlateSpace) -> np.ndarray:
    """(dim, slots) slot one-hot columns of a space: read-only, one per space."""
    block = np.repeat(np.eye(space.num_slots), space.slot_counts, axis=0)
    block.flags.writeable = False
    return block


def _slot_design(space: SlateSpace, table: np.ndarray, feature_dim: int) -> np.ndarray:
    """The slot one-hot columns beside a context's feature table."""
    if table.shape[1] != feature_dim:
        raise ConfigurationError(
            f"the feature map gives {table.shape[1]} features per action, expected {feature_dim}"
        )
    return np.hstack([_slot_block(space), table])


def fit_scorer(
    targets: DecomposedTargets,
    *,
    alphas=DEFAULT_ALPHAS,
    folds: int = 5,
) -> PointwiseScorer:
    """Ridge fit of the pointwise scorer on the decomposed targets.

    Regression rows are ordered example-major, coordinate-major; fold
    assignment is by global row index modulo the fold count.
    """
    tables = [_feature_table(targets.spaces[c], c, targets.features) for c in targets.contexts]
    feature_dim = tables[0].shape[1]
    moments = _table_moments(targets, tables, feature_dim, folds)
    penalize = np.ones(targets.num_slots + feature_dim)
    alpha = cv_select_alpha(moments, penalize, alphas)
    weights = solve_ridge(moments.xtx.sum(axis=0), moments.xty.sum(axis=0), alpha, penalize)
    return PointwiseScorer(
        weights=weights, num_slots=targets.num_slots, feature_dim=feature_dim, alpha=alpha
    )


def _table_moments(targets: DecomposedTargets, tables, feature_dim: int, folds: int) -> FoldMoments:
    """Per-fold normal-equation moments from one feature table per context.

    Every row of a context shares that context's design matrix, so each
    block reduces to per-(fold, coordinate) row counts, target sums and
    sums of squares, and the moments follow from a few products with the
    design matrix; the row matrix is never materialized. Coordinate ``k``
    of an example whose rows start at ``s`` lands in fold ``(s + k) %
    folds``, so cell ``(fold, k)`` holds the examples of residue class
    ``s % folds == (fold - k) % folds``, and the block's rows are summed
    once per class (in place when one class holds them all, as it does
    whenever the fold count divides every dim). The slot one-hot columns
    and the class of every cell are built once per space; the products
    and sums stay per context, in context order.
    """
    width = targets.num_slots + feature_dim
    # global row start of every example: cumulative sum of the block dims
    dims = np.zeros(len(targets), dtype=np.int64)
    for context, rows in zip(targets.contexts, targets.rows):
        dims[rows] = targets.spaces[context].dim
    starts = np.cumsum(dims) - dims

    xtx = np.zeros((folds, width, width))
    xty = np.zeros((folds, width))
    yty = np.zeros(folds)
    counts = np.zeros(folds)
    cells: dict[SlateSpace, tuple[np.ndarray, np.ndarray]] = {}
    for context, rows, block, table in zip(targets.contexts, targets.rows, targets.phi_hats, tables):
        space = targets.spaces[context]
        if space not in cells:
            local = np.arange(space.dim)
            cells[space] = (local, (np.arange(folds)[:, None] - local) % folds)
        local, cls = cells[space]
        design = _slot_design(space, table, feature_dim)
        residues = starts[rows] % folds
        # as floats: the products below would otherwise convert every count
        class_counts = np.bincount(residues, minlength=folds).astype(np.float64)
        class_sums = np.zeros((folds, space.dim))
        class_squares = np.zeros((folds, space.dim))
        for r in np.flatnonzero(class_counts):
            members = block if class_counts[r] == len(rows) else block[residues == r]
            class_sums[r] = members.sum(axis=0)
            class_squares[r] = (members * members).sum(axis=0)
        n_rows = class_counts[cls]
        xtx += (design.T * n_rows[:, None, :]) @ design
        xty += class_sums[cls, local] @ design
        yty += class_squares[cls, local].sum(axis=1)
        counts += n_rows.sum(axis=1)
    return FoldMoments(xtx=xtx, xty=xty, yty=yty, counts=counts)


def _greedy_slates(scores: np.ndarray, space: SlateSpace) -> np.ndarray:
    """Greedy slates of a (contexts, slots, max actions) stack of score
    tables of one space, one row of action ids per context.

    Each round takes, per context, the best available (slot, action); a
    chosen slot never recurs, and in ranking spaces the chosen action is
    excluded too (product spaces have disjoint per-slot action sets). Ties
    resolve to the smallest (slot, action) pair in a slot-major scan;
    scores within a small relative tolerance of the round maximum count as
    tied, so rounding dust cannot scramble slot placement.
    """
    scores = np.asarray(scores, dtype=np.float64)
    count, num_slots, width = scores.shape
    every = np.arange(count)
    available = np.isfinite(scores)
    slates = np.full((count, num_slots), -1, dtype=np.int64)
    for _ in range(num_slots):
        masked = np.where(available, scores, -np.inf).reshape(count, -1)
        best = masked.max(axis=1)
        if not np.isfinite(best).all():
            raise ConfigurationError("no available (slot, action) pair left to place")
        tol = 1e-9 * np.maximum(1.0, np.abs(best))
        slot, action = np.divmod(np.argmax(masked >= (best - tol)[:, None], axis=1), width)
        slates[every, slot] = action
        available[every, slot, :] = False
        if space.kind is SpaceKind.RANKING:
            available[every, :, action] = False
    return slates


def greedy_slate(scorer, context, space: SlateSpace, features: FeatureMap) -> tuple[int, ...]:
    """Build a slate by repeatedly taking the best available (slot, action);
    see ``_greedy_slates`` for the rule."""
    scores = scorer.score_tables((context,), space, features)
    return space.validate(_greedy_slates(scores, space)[0])


def evaluate_learned(scorer, instance, contexts=None) -> float:
    """Mean NDCG of the scorer's greedy slates over an instance's queries.

    A scorer gives the score tables of many contexts on one space in one
    call, ``scorer.score_tables(contexts, space, features)`` (a
    ``PointwiseScorer`` through one stacked product). Each space's contexts
    are scored, built by one greedy pass and checked by one
    ``validate_batch``, in runs of at most ``RUN_ROWS`` (slot, action)
    rows; the NDCG values are then summed in the caller's context order.
    """
    contexts = tuple(instance.contexts if contexts is None else contexts)
    if not contexts:
        raise ConfigurationError("cannot evaluate a scorer over no contexts")
    slates = [None] * len(contexts)
    for space, positions in positions_by_space(instance, contexts):
        step = max(1, RUN_ROWS // space.dim)
        for lo in range(0, len(positions), step):
            run = positions[lo : lo + step]
            scores = scorer.score_tables([contexts[i] for i in run], space, instance.features)
            for i, slate in zip(run, space.validate_batch(_greedy_slates(scores, space))):
                slates[i] = slate
    total = 0.0
    for context, slate in zip(contexts, slates):
        total += instance.ndcg(context, slate)
    return total / len(contexts)


# -- supervised baseline -------------------------------------------------------


def fit_sup_scorer(
    instance,
    contexts=None,
    *,
    target: str = "gain",
    alphas=DEFAULT_ALPHAS,
    folds: int = 5,
) -> PointwiseScorer:
    """Pointwise scorer fit directly on relevance labels.

    ``target="gain"`` regresses on 2**relevance - 1, ``target="relevance"``
    on the raw label. Uses the same ridge family and greedy construction
    as the off-policy path, but needs labels for every pooled document.
    """
    if target not in ("gain", "relevance"):
        raise ConfigurationError(f"unknown supervised target {target!r}")
    contexts = tuple(instance.contexts if contexts is None else contexts)
    if not contexts:
        raise ConfigurationError("cannot fit a supervised scorer on no contexts")
    arms = [instance.arms[context] for context in contexts]
    X = np.concatenate([arm.pool_features for arm in arms])
    gains = np.concatenate([arm.gains for arm in arms])
    y = gains if target == "gain" else np.log2(gains + 1.0)
    fit = fit_ridge_cv(
        add_intercept(X), y, alphas=alphas, folds=folds, penalize=intercept_penalty_mask(X.shape[1])
    )
    num_slots = instance.space_of(contexts[0]).num_slots
    # Identical scores in every slot: the greedy pass then ranks by score.
    weights = np.concatenate([np.full(num_slots, fit.weights[-1]), fit.weights[:-1]])
    return PointwiseScorer(
        weights=weights, num_slots=num_slots, feature_dim=X.shape[1], alpha=fit.alpha
    )
