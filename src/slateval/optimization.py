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
from .util import fmt17


@dataclass(frozen=True)
class DecomposedTargets:
    """Per-(slot, action) regression targets recovered from logged rewards.

    ``phi_hats[i]`` has one entry per indicator coordinate of example i's
    context; rows pair those entries with (slot one-hot, action features).
    """

    contexts: tuple
    phi_hats: tuple[np.ndarray, ...]
    spaces: dict
    features: FeatureMap
    num_slots: int

    def __len__(self) -> int:
        return len(self.contexts)


def decompose(
    data: Sequence[LoggedExample],
    logging: Policy,
    *,
    features: FeatureMap,
    pinv_source: PinvSource | None = None,
) -> DecomposedTargets:
    """Per-example reward decomposition through the logging pseudoinverse.

    Works one context at a time: every logged slate of a context gathers
    its pseudoinverse columns in one step.
    """
    if len(data) == 0:
        raise ConfigurationError("cannot decompose an empty dataset")
    batch = LoggedBatch.from_examples(data)
    source = pinv_source if pinv_source is not None else PinvSource()
    spaces: dict = {}
    phi_hats: list = [None] * len(batch)
    for context, rows in batch.groups():
        space = logging.space_of(context)
        spaces[context] = space
        pinv = source.pseudoinverse(logging, context)
        coords = space.coords_of_actions(space.validate_batch(batch.actions[rows], context))
        # (dim, rows) column sums, then one contiguous target row per example
        summed = pinv[:, coords].sum(axis=2)
        hats = np.ascontiguousarray((summed * batch.rewards[rows]).T)
        for i, hat in zip(rows.tolist(), hats):
            phi_hats[i] = hat
    contexts = tuple(batch.contexts[c] for c in batch.codes.tolist())
    return DecomposedTargets(
        contexts=contexts,
        phi_hats=tuple(phi_hats),
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
    assignment is by global row index modulo the fold count. The fit
    streams per-fold normal-equation moments instead of materializing the
    row matrix (one logged example yields a whole coordinate block of rows).
    """
    probe = targets.features(targets.contexts[0], 0, 0)
    feature_dim = len(np.atleast_1d(probe))
    width = targets.num_slots + feature_dim

    designs: dict = {}
    residue_grams: dict = {}
    xtx = np.zeros((folds, width, width))
    xty = np.zeros((folds, width))
    yty = np.zeros(folds)
    counts = np.zeros(folds)

    row_start = 0
    for context, phi_hat in zip(targets.contexts, targets.phi_hats):
        space = targets.spaces[context]
        design = designs.get(context)
        if design is None:
            design = _design_matrix(space, context, targets.features, feature_dim)
            designs[context] = design
            residue_grams[context] = {}
        offset = row_start % folds
        grams = residue_grams[context]
        masks = grams.get("masks")
        if masks is None:
            local = np.arange(space.dim)
            masks = [local % folds == c for c in range(folds)]
            grams["masks"] = masks
            grams["xtx"] = [design[mask].T @ design[mask] for mask in masks]
        for c in range(folds):
            fold = (offset + c) % folds
            mask = masks[c]
            block = phi_hat[mask]
            xtx[fold] += grams["xtx"][c]
            xty[fold] += design[mask].T @ block
            yty[fold] += float(block @ block)
            counts[fold] += int(mask.sum())
        row_start += space.dim

    moments = FoldMoments(xtx=xtx, xty=xty, yty=yty, counts=counts)
    penalize = np.ones(width)
    alpha = cv_select_alpha(moments, penalize, alphas)
    weights = solve_ridge(xtx.sum(axis=0), xty.sum(axis=0), alpha, penalize)
    return PointwiseScorer(
        weights=weights, num_slots=targets.num_slots, feature_dim=feature_dim, alpha=alpha
    )


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


# -- scorer text format ----------------------------------------------------------


def write_scorer(path, scorer: PointwiseScorer) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"slots {scorer.num_slots} features {scorer.feature_dim} ")
        handle.write(f"alpha {fmt17(scorer.alpha)}\n")
        handle.write(" ".join(fmt17(w) for w in scorer.weights) + "\n")


def read_scorer(path) -> PointwiseScorer:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().split()
        weights = np.array([float(x) for x in handle.readline().split()])
    num_slots, feature_dim, alpha = int(header[1]), int(header[3]), float(header[5])
    return PointwiseScorer(
        weights=weights, num_slots=num_slots, feature_dim=feature_dim, alpha=alpha
    )
