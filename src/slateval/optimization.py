"""Off-policy slate optimization from page-level rewards.

Each logged example's reward is pushed back through the pseudoinverse of
the logging policy's indicator second moment, which turns one slate-level
observation into a full vector of per-(slot, action) regression targets.
A pointwise ridge scorer (slot one-hot concatenated with action features)
is fit to those targets and slates are built greedily from its scores.
The fit reads the targets only through per-(context, fold residue class)
row counts and target sums, so those are all ``decompose`` keeps; no
per-example target is ever built.
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
from .policies import Policy, positions_by_space
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
from .util import block_runs

FOLDS = 5  # cross-validation folds of the PI scorer's ridge fit


@dataclass(frozen=True)
class DecomposedTargets:
    """Per-(slot, action) regression targets recovered from logged rewards,
    summed per context and fold residue class.

    Example i's targets are ``r_i P 1_{s_i}``, one per indicator coordinate
    of its context's space, and its regression rows start at global row
    ``s``, the dims of the examples before it summed in batch order. Its
    coordinate k lands in fold ``(s + k) % FOLDS``, so the class ``s %
    FOLDS`` fixes every fold it touches. Per context ``contexts[b]``,
    ``counts[b]`` holds the ``(FOLDS,)`` example counts of the classes and
    ``phi_hats[b]`` the ``(FOLDS, dim)`` sums of their targets. Rows pair
    the targets with (slot one-hot, action features).
    """

    contexts: tuple
    counts: tuple[np.ndarray, ...]
    phi_hats: tuple[np.ndarray, ...]
    spaces: dict
    features: FeatureMap
    num_slots: int

    def __post_init__(self):
        shapes = [(FOLDS, self.spaces[context].dim) for context in self.contexts]
        if (
            not self.contexts
            or [sums.shape for sums in self.phi_hats] != shapes
            or [counts.shape for counts in self.counts] != [(FOLDS,)] * len(shapes)
        ):
            raise ConfigurationError(
                f"targets must be nonempty, with ({FOLDS}, dim) sums and ({FOLDS},) counts "
                "per context"
            )

    def __len__(self) -> int:
        return int(sum(counts.sum() for counts in self.counts))


def decompose(
    data: Sequence[LoggedExample],
    logging: Policy,
    *,
    features: FeatureMap,
    pinv_source: PinvSource | None = None,
) -> DecomposedTargets:
    """Reward decomposition through the logging pseudoinverse, summed per
    context and fold residue class.

    Works one space at a time, in runs of contexts at rows x slots plus
    ``FOLDS`` x dim cells a context, its logged coordinates and its class
    sums (``util.block_runs``): one ``validate_batch`` and one
    ``coords_of_actions`` serve all of a run's contexts. A failing check is
    redone context by context in batch order, so the error names the first
    failing context. One reward-weighted ``bincount`` of the run's logged
    coordinates gives each context's ``(FOLDS, dim)`` class sums ``B`` of
    ``r_i 1_{s_i}``, and its targets are ``B @ P.T`` with the pseudoinverse
    ``P`` of its moment store row: the paper's ``r_i P 1_{s_i}``, summed
    before the product.
    """
    if len(data) == 0:
        raise ConfigurationError("cannot decompose an empty dataset")
    batch = LoggedBatch.from_examples(data)
    source = pinv_source if pinv_source is not None else PinvSource()
    groups = batch.groups()
    contexts = [context for context, _ in groups]
    spaces = {context: logging.space_of(context) for context in contexts}
    # fold residue class of every example: its global row start modulo FOLDS
    dims = np.zeros(len(batch), dtype=np.int64)
    for context, rows in groups:
        dims[rows] = spaces[context].dim
    residues = (np.cumsum(dims) - dims) % FOLDS
    by_space = positions_by_space(logging, contexts)
    # every space's missing moments are built before any slate is checked
    stores = [source.moments(logging, [contexts[i] for i in at]) for _, at in by_space]
    counts, sums = [None] * len(groups), [None] * len(groups)
    for (space, positions), (store, store_rows) in zip(by_space, stores):
        pinv = store.column("pinv")
        space_rows = [groups[i][1] for i in positions]
        sizes = np.array([len(rows) for rows in space_rows])
        for lo, hi in block_runs(len(sizes), sizes * space.num_slots + FOLDS * space.dim):
            rows = np.concatenate(space_rows[lo:hi])
            try:
                coords = space.coords_of_actions(space.validate_batch(batch.actions[rows]))
            except SlateError:
                for context, own in groups:
                    spaces[context].validate_batch(batch.actions[own], context)
                raise
            # one key per example: its context's place in the run, then its class
            keys = np.repeat(np.arange(hi - lo) * FOLDS, sizes[lo:hi])
            keys += residues[rows]
            run_counts = np.bincount(keys, minlength=(hi - lo) * FOLDS).reshape(-1, FOLDS)
            cells = (keys * space.dim)[:, None] + coords
            weights = np.repeat(batch.rewards[rows], space.num_slots)
            run_sums = np.bincount(cells.ravel(), weights, (hi - lo) * FOLDS * space.dim)
            run_sums = run_sums.reshape(hi - lo, FOLDS, space.dim)
            for k, i in enumerate(positions[lo:hi]):
                counts[i] = run_counts[k]
                sums[i] = run_sums[k] @ pinv[store_rows[lo + k]].T
    return DecomposedTargets(
        contexts=tuple(contexts),
        counts=tuple(counts),
        phi_hats=tuple(sums),
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
        space, one (dim, feature_dim) @ weights product a context, so no
        stack of feature tables is held; impossible cells are -inf."""
        weights = self.feature_weights()
        scores = np.stack([_feature_table(space, c, features) @ weights for c in contexts])
        scores += np.repeat(self.slot_weights(), space.slot_counts)
        width = max(space.slot_counts)
        if space.dim == space.num_slots * width:
            return scores.reshape(len(contexts), space.num_slots, width)
        stack = np.full((len(contexts), space.num_slots, width), -np.inf)
        stack[:, np.arange(width) < np.array(space.slot_counts)[:, None]] = scores
        return stack


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


def fit_scorer(targets: DecomposedTargets, *, alphas=DEFAULT_ALPHAS) -> PointwiseScorer:
    """Ridge fit of the pointwise scorer on the decomposed targets.

    Regression rows are ordered example-major, coordinate-major; fold
    assignment is by global row index modulo ``FOLDS``.
    """
    tables = [_feature_table(targets.spaces[c], c, targets.features) for c in targets.contexts]
    feature_dim = tables[0].shape[1]
    moments = _table_moments(targets, tables, feature_dim)
    penalize = np.ones(targets.num_slots + feature_dim)
    alpha = cv_select_alpha(moments, penalize, alphas)
    weights = solve_ridge(moments.xtx.sum(axis=0), moments.xty.sum(axis=0), alpha, penalize)
    return PointwiseScorer(
        weights=weights, num_slots=targets.num_slots, feature_dim=feature_dim, alpha=alpha
    )


def _table_moments(targets: DecomposedTargets, tables, feature_dim: int) -> FoldMoments:
    """Per-fold normal-equation moments from one feature table per context.

    Every row of a context shares that context's design matrix, so the
    moments follow from a few products of it with the per-(fold,
    coordinate) row counts and target sums; the row matrix is never
    materialized. Cell ``(fold, k)`` holds the examples of residue class
    ``(fold - k) % FOLDS``. The slot one-hot columns and the class of every
    cell are built once per space; the products and sums stay per context,
    in context order.
    """
    width = targets.num_slots + feature_dim
    xtx = np.zeros((FOLDS, width, width))
    xty = np.zeros((FOLDS, width))
    counts = np.zeros(FOLDS)
    cells: dict[SlateSpace, tuple[np.ndarray, np.ndarray]] = {}
    for context, class_counts, class_sums, table in zip(
        targets.contexts, targets.counts, targets.phi_hats, tables
    ):
        space = targets.spaces[context]
        if space not in cells:
            local = np.arange(space.dim)
            cells[space] = (local, (np.arange(FOLDS)[:, None] - local) % FOLDS)
        local, cls = cells[space]
        design = _slot_design(space, table, feature_dim)
        # as floats: the products below would otherwise convert every count
        n_rows = class_counts.astype(np.float64)[cls]
        xtx += (design.T * n_rows[:, None, :]) @ design
        xty += class_sums[cls, local] @ design
        counts += n_rows.sum(axis=1)
    return FoldMoments(xtx=xtx, xty=xty, counts=counts)


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


def evaluate_learned(scorer, instance, contexts=None) -> float:
    """Mean NDCG of the scorer's greedy slates over an instance's queries.

    A scorer gives the score tables of many contexts on one space in one
    call, ``scorer.score_tables(contexts, space, features)`` (a
    ``PointwiseScorer`` through one product a context). Each space's contexts
    are scored, built by one greedy pass and checked by one
    ``validate_batch``, in runs of contexts at dim (slot, action) rows a
    context (``util.block_runs``); the NDCG values are then summed in the
    caller's context order.
    """
    contexts = tuple(instance.contexts if contexts is None else contexts)
    if not contexts:
        raise ConfigurationError("cannot evaluate a scorer over no contexts")
    slates = [None] * len(contexts)
    for space, positions in positions_by_space(instance, contexts):
        for lo, hi in block_runs(len(positions), space.dim):
            run = positions[lo:hi]
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
    fit = fit_ridge_cv(add_intercept(X), y, penalize=intercept_penalty_mask(X.shape[1]))
    num_slots = instance.space_of(contexts[0]).num_slots
    # Identical scores in every slot: the greedy pass then ranks by score.
    weights = np.concatenate([np.full(num_slots, fit.weights[-1]), fit.weights[:-1]])
    return PointwiseScorer(
        weights=weights, num_slots=num_slots, feature_dim=X.shape[1], alpha=fit.alpha
    )
