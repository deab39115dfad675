"""Off-policy slate optimization from page-level rewards.

Each logged example's reward is pushed back through the pseudoinverse of
the logging policy's indicator second moment, which turns one slate-level
observation into a full vector of per-(slot, action) regression targets.
A pointwise ridge scorer (slot one-hot concatenated with action features)
is fit to those targets and slates are built greedily from its scores.

A supervised baseline with the same model family is included: it regresses
directly on relevance gains (or raw relevance), which requires labels the
off-policy path never sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .estimators import FeatureMap
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

    Works one context at a time: every logged slate of a context gathers
    its pseudoinverse columns in one step, giving one target block.
    """
    if len(data) == 0:
        raise ConfigurationError("cannot decompose an empty dataset")
    batch = LoggedBatch.from_examples(data)
    source = pinv_source if pinv_source is not None else PinvSource()
    groups = batch.groups()
    spaces = {context: logging.space_of(context) for context, _ in groups}
    blocks = []
    for context, rows in groups:
        space = spaces[context]
        pinv = source.pseudoinverse(logging, context)
        coords = space.coords_of_actions(space.validate_batch(batch.actions[rows], context))
        # (dim, rows) column sums, transposed to one contiguous row per example
        summed = pinv[:, coords].sum(axis=2)
        blocks.append(np.ascontiguousarray((summed * batch.rewards[rows]).T))
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
        width = max(space.slot_counts)
        table = np.full((space.num_slots, width), -np.inf)
        for j in range(space.num_slots):
            action_features = np.stack(
                [features(context, j, a) for a in range(space.slot_counts[j])]
            )
            table[j, : space.slot_counts[j]] = (
                self.slot_weights()[j] + action_features @ self.feature_weights()
            )
        return table


def _design_matrix(space: SlateSpace, context, features: FeatureMap, feature_dim: int) -> np.ndarray:
    """Rows for every (slot, action) coordinate, slot-major action-minor."""
    num_slots = space.num_slots
    rows = np.zeros((space.dim, num_slots + feature_dim))
    for j in range(num_slots):
        for a in range(space.slot_counts[j]):
            row = space.coord(j, a)
            rows[row, j] = 1.0
            rows[row, num_slots:] = features(context, j, a)
    return rows


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
    probe = targets.features(targets.contexts[0], 0, 0)
    feature_dim = len(np.atleast_1d(probe))
    moments = _fold_moments(targets, feature_dim, folds)
    penalize = np.ones(targets.num_slots + feature_dim)
    alpha = cv_select_alpha(moments, penalize, alphas)
    weights = solve_ridge(moments.xtx.sum(axis=0), moments.xty.sum(axis=0), alpha, penalize)
    return PointwiseScorer(
        weights=weights, num_slots=targets.num_slots, feature_dim=feature_dim, alpha=alpha
    )


def _fold_moments(targets: DecomposedTargets, feature_dim: int, folds: int) -> FoldMoments:
    """Per-fold normal-equation moments of the regression rows.

    Every row of a context shares that context's design matrix, so each
    block reduces to per-(fold, coordinate) row counts, target sums and
    sums of squares, and the moments follow from a few products with the
    design matrix; the row matrix is never materialized.
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
    for context, rows, block in zip(targets.contexts, targets.rows, targets.phi_hats):
        space = targets.spaces[context]
        design = _design_matrix(space, context, targets.features, feature_dim)
        local = np.arange(space.dim)
        keys = ((starts[rows, None] + local) % folds * space.dim + local).ravel()
        size = folds * space.dim
        values = block.ravel()
        n_rows = np.bincount(keys, minlength=size).reshape(folds, space.dim)
        sums = np.bincount(keys, weights=values, minlength=size).reshape(folds, space.dim)
        squares = np.bincount(keys, weights=values * values, minlength=size)
        xtx += (design.T * n_rows[:, None, :]) @ design
        xty += sums @ design
        yty += squares.reshape(folds, space.dim).sum(axis=1)
        counts += n_rows.sum(axis=1)
    return FoldMoments(xtx=xtx, xty=xty, yty=yty, counts=counts)


def greedy_slate(scorer, context, space: SlateSpace, features: FeatureMap) -> tuple[int, ...]:
    """Build a slate by repeatedly taking the best available (slot, action).

    A chosen slot never recurs; in ranking spaces the chosen action is
    excluded too (product spaces have disjoint per-slot action sets). Ties
    resolve to the smallest (slot, action) pair in a slot-major scan;
    scores within a small relative tolerance of the round maximum count as
    tied, so rounding dust cannot scramble slot placement.
    """
    scores = np.asarray(scorer.score_matrix(context, space, features), dtype=np.float64)
    num_slots = space.num_slots
    available = np.isfinite(scores)
    slate = [-1] * num_slots
    for _ in range(num_slots):
        masked = np.where(available, scores, -np.inf)
        best = float(masked.max())
        if not np.isfinite(best):
            raise ConfigurationError("no available (slot, action) pair left to place")
        tol = 1e-9 * max(1.0, abs(best))
        flat = int(np.argmax(masked >= best - tol))
        slot, action = divmod(flat, scores.shape[1])
        slate[slot] = action
        available[slot, :] = False
        if space.kind is SpaceKind.RANKING:
            available[:, action] = False
    return space.validate(tuple(slate))


def evaluate_learned(scorer, instance, contexts=None) -> float:
    """Mean NDCG of the scorer's greedy slates over an instance's queries."""
    contexts = tuple(instance.contexts if contexts is None else contexts)
    total = 0.0
    for context in contexts:
        slate = greedy_slate(scorer, context, instance.space_of(context), instance.features)
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
