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
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .estimators import FeatureMap, _feature_table
from .logs import LoggedBatch, LoggedExample
from .moments import PinvSource
from .policies import Policy
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

    Works one context at a time: a context's target block starts as the
    pseudoinverse columns of its logged slates' first-slot coordinates, adds
    those of each later slot in turn, and is scaled by the rewards, one
    contiguous row per example.
    """
    if len(data) == 0:
        raise ConfigurationError("cannot decompose an empty dataset")
    batch = LoggedBatch.from_examples(data)
    source = pinv_source if pinv_source is not None else PinvSource()
    groups = batch.groups()
    spaces = {context: logging.space_of(context) for context, _ in groups}
    source.records(logging, list(spaces))  # every space's missing records, built together
    blocks = []
    for context, rows in groups:
        space = spaces[context]
        # row k of this view is column k of pinv, the entries a slate's
        # targets sum; the bits then do not rest on pinv's exact symmetry
        columns = source.pseudoinverse(logging, context).T
        coords = space.coords_of_actions(space.validate_batch(batch.actions[rows], context))
        block = columns[coords[:, 0]]
        for j in range(1, space.num_slots):
            block += columns[coords[:, j]]
        block *= batch.rewards[rows][:, None]
        blocks.append(block)
    return DecomposedTargets(
        contexts=tuple(context for context, _ in groups),
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

    def score_matrix(self, context, space: SlateSpace, features: FeatureMap) -> np.ndarray:
        """(slots, max actions) score table; impossible cells are -inf."""
        scores = _feature_table(space, context, features) @ self.feature_weights()
        scores += np.repeat(self.slot_weights(), space.slot_counts)
        width = max(space.slot_counts)
        if space.dim == space.num_slots * width:
            return scores.reshape(space.num_slots, width)
        table = np.full((space.num_slots, width), -np.inf)
        table[np.arange(width) < np.array(space.slot_counts)[:, None]] = scores
        return table


def _slot_design(space: SlateSpace, table: np.ndarray, feature_dim: int) -> np.ndarray:
    """The slot one-hot columns beside a context's feature table."""
    if table.shape[1] != feature_dim:
        raise ConfigurationError(
            f"the feature map gives {table.shape[1]} features per action, expected {feature_dim}"
        )
    return np.hstack([np.repeat(np.eye(space.num_slots), space.slot_counts, axis=0), table])


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
    once per class.
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
    for context, rows, block, table in zip(targets.contexts, targets.rows, targets.phi_hats, tables):
        space = targets.spaces[context]
        design = _slot_design(space, table, feature_dim)
        residues = starts[rows] % folds
        class_counts = np.bincount(residues, minlength=folds)
        class_sums = np.zeros((folds, space.dim))
        class_squares = np.zeros((folds, space.dim))
        for r in np.flatnonzero(class_counts):
            members = block[residues == r]
            class_sums[r] = members.sum(axis=0)
            class_squares[r] = (members * members).sum(axis=0)
        local = np.arange(space.dim)
        cls = (np.arange(folds)[:, None] - local) % folds
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
    scores = scorer.score_matrix(context, space, features)
    return space.validate(_greedy_slates([scores], space)[0])


def evaluate_learned(scorer, instance, contexts=None) -> float:
    """Mean NDCG of the scorer's greedy slates over an instance's queries.

    Contexts sharing a space are scored into one stack and built by one
    greedy pass.
    """
    contexts = tuple(instance.contexts if contexts is None else contexts)
    groups: dict[SlateSpace, list] = {}
    for context in contexts:
        groups.setdefault(instance.space_of(context), []).append(context)
    slates = {}
    for space, group in groups.items():
        scores = [scorer.score_matrix(c, space, instance.features) for c in group]
        for context, slate in zip(group, _greedy_slates(scores, space)):
            slates[context] = space.validate(slate)
    total = 0.0
    for context in contexts:
        total += instance.ndcg(context, slates[context])
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
    rows = []
    values = []
    for context in contexts:
        arm = instance.arms[context]
        for a, feats in enumerate(arm.pool_features):
            rows.append(feats)
            gain = float(arm.gains[a])
            values.append(gain if target == "gain" else float(np.log2(gain + 1.0)))
    X = np.asarray(rows)
    y = np.asarray(values)
    fit = fit_ridge_cv(
        add_intercept(X), y, alphas=alphas, folds=folds, penalize=intercept_penalty_mask(X.shape[1])
    )
    num_slots = instance.space_of(contexts[0]).num_slots
    # Identical scores in every slot: the greedy pass then ranks by score.
    weights = np.concatenate([np.full(num_slots, fit.weights[-1]), fit.weights[:-1]])
    return PointwiseScorer(
        weights=weights, num_slots=num_slots, feature_dim=X.shape[1], alpha=fit.alpha
    )
