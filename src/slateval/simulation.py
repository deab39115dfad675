"""Semi-synthetic slate-evaluation experiments on ranking data.

A ranking dataset becomes a bandit instance as follows: two block-
restricted linear score models are fit to relevance (one on the "title"
feature block, one on the "body" block). Per query, the candidate pool is
the top-m documents by title score; the logging policy samples slates
slot-by-slot without replacement from a softmax of title scores at a
temperature knob; the target policy deterministically ranks the top
slots by body score. The reward is NDCG, which decomposes exactly into
per-(slot, action) intrinsic values, so every estimator can be compared
against the exactly enumerable target value. The score models read
column blocks of the dataset's feature matrix, and the pools are slices
of one sort of all documents. Each cell of the RMSE sweep draws one log,
all its contexts' slates through one multi-context sampling call per run
of rows, and scores it once for all the configured importance-weighted
estimators (pi, ips, wips, sb, wsb); dm and onpolicy run on their own.
The semi-bandit estimators live in ``slateval.estimators`` and are
re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, UndefinedEstimateError
from .estimators import (  # estimate_sb and estimate_wsb are re-exported
    _ScoredBatch,
    estimate_dm,
    estimate_onpolicy,
    estimate_sb,
    estimate_wsb,
    fit_dm,
)
from .letor import RankingDataset
from .logs import LoggedBatch, SemibanditExample  # SemibanditExample is re-exported
from .moments import PinvSource
from .policies import (
    DeterministicPolicy,
    MultinomialWoRPolicy,
    Policy,
    positions_by_space,
    row_runs,
)
from .ridge import add_intercept, fit_ridge_cv, intercept_penalty_mask
from .spaces import SlateSpace
from .util import fmt, pairwise_sum

KNOWN_ESTIMATORS = ("pi", "ips", "wips", "dm", "onpolicy", "sb", "wsb")


# -- score models -------------------------------------------------------------


@dataclass(frozen=True)
class ScoreModel:
    """Linear relevance predictor over a named subset of feature indices."""

    feature_indices: np.ndarray
    weights: np.ndarray  # restricted features plus intercept


def fit_score_model(dataset: RankingDataset, feature_indices) -> ScoreModel:
    """Ridge fit of relevance on a feature block, strength chosen by CV."""
    feature_indices = np.asarray(list(feature_indices), dtype=np.int64)
    if len(feature_indices) == 0:
        raise ConfigurationError("score model needs at least one feature index")
    for bad in (feature_indices.max(), feature_indices.min()):
        if not 0 <= bad < dataset.feature_dim:
            raise ConfigurationError(
                f"feature index {bad} out of range for dimension {dataset.feature_dim}"
            )
    X = add_intercept(dataset.features[:, feature_indices])
    labels = dataset.labels.astype(np.float64)
    fit = fit_ridge_cv(X, labels, penalize=intercept_penalty_mask(len(feature_indices)))
    return ScoreModel(feature_indices=feature_indices, weights=fit.weights)


# -- experiment configuration ---------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Shape and schedule of one semi-synthetic evaluation experiment."""

    m: int
    slots: int
    alpha: float = 0.0
    n_grid: tuple[int, ...] = (1000,)
    runs: int = 20
    seed: int = 0
    estimators: tuple[str, ...] = ("pi", "wips")
    title_dims: int | None = None  # feature indices [0, title_dims) form the title block
    noise: str = "none"  # "none" or "bernoulli"

    def __post_init__(self):
        if self.slots < 1 or self.m < self.slots:
            raise ConfigurationError(f"need 1 <= slots <= m, got slots={self.slots}, m={self.m}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(
                f"temperature must be a finite nonnegative number, got {self.alpha}"
            )
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        if any(n < 1 for n in self.n_grid) or len(self.n_grid) == 0:
            raise ConfigurationError(f"n_grid must hold positive sizes, got {self.n_grid}")
        if self.noise not in ("none", "bernoulli"):
            raise ConfigurationError(f"unknown noise mode {self.noise!r}")
        unknown = set(self.estimators) - set(KNOWN_ESTIMATORS)
        if unknown or len(self.estimators) == 0:
            raise ConfigurationError(
                f"estimators must be a nonempty subset of {KNOWN_ESTIMATORS}, "
                f"got {self.estimators}"
            )


DEFAULT_TITLE_DIMS = 20  # first feature block on 47-dimensional ranking data


# -- bandit instance -------------------------------------------------------------


def position_discounts(slots: int) -> np.ndarray:
    """1 / log2(position + 1) for 1-indexed positions."""
    return 1.0 / np.log2(np.arange(2, slots + 2, dtype=np.float64))


@dataclass(frozen=True)
class QueryArm:
    """Everything the simulator needs about one query."""

    space: SlateSpace
    pool_doc_ids: tuple[str, ...]
    pool_features: np.ndarray  # (pool, feature_dim)
    gains: np.ndarray  # 2**relevance - 1 per pooled document
    title_scores: np.ndarray
    dcg_star: float
    intrinsic: np.ndarray  # per (slot, action) value; rewards sum these
    target_slate: tuple[int, ...]


@dataclass(frozen=True)
class BanditInstance:
    """A fixed evaluation environment over a set of queries."""

    contexts: tuple[str, ...]
    arms: dict
    logging: Policy
    target: Policy
    noise: str = "none"

    def space_of(self, context) -> SlateSpace:
        return self.arms[context].space

    def intrinsic(self, context) -> np.ndarray:
        return self.arms[context].intrinsic

    def features(self, context) -> np.ndarray:
        """(dim, feature_dim) feature table: the pool's features once per slot."""
        arm = self.arms[context]
        return np.tile(arm.pool_features, (arm.space.num_slots, 1))

    def ndcg(self, context, slate) -> float:
        arm = self.arms[context]
        value = float(arm.intrinsic[arm.space.coords(slate)].sum())
        # the sum is NDCG, which lives in [0, 1] up to rounding dust
        return min(max(value, 0.0), 1.0)

    def slot_values(self, context, slate) -> np.ndarray:
        arm = self.arms[context]
        return arm.intrinsic[arm.space.coords(slate)]

    def sample_context(self, rng: np.random.Generator):
        return self.contexts[rng.integers(len(self.contexts))]

    def reward(self, context, slate, rng: np.random.Generator | None = None) -> float:
        value = self.ndcg(context, slate)
        if self.noise == "bernoulli":
            if rng is None:
                raise ConfigurationError("bernoulli reward noise needs an rng")
            return float(rng.random() < value)
        return value

    def policy_value(self, policy: Policy, contexts=None) -> float:
        """Exact expected NDCG of a policy: additive rewards make the value
        an inner product of the mean indicator with the intrinsic values."""
        contexts = self.contexts if contexts is None else tuple(contexts)
        if not contexts:
            raise ConfigurationError("cannot value a policy over no contexts")
        values = np.empty(len(contexts))
        for space, positions in positions_by_space(policy, contexts):
            means = policy.mean_indicators([contexts[i] for i in positions], space)
            for i, q in zip(positions, means):
                values[i] = q @ self.arms[contexts[i]].intrinsic
        return pairwise_sum(values) / len(values)


def build_instance(dataset: RankingDataset, config: ExperimentConfig) -> BanditInstance:
    """Assemble the bandit instance for one dataset and configuration.

    Queries with fewer documents than the pool size keep all their
    documents (the space shrinks per query); queries with fewer documents
    than slots cannot form a slate and are left out. Each query's pool is
    its top-m documents by title score, ties broken by document id, and the
    target ranks the pool by body score the same way. Both score models
    read column blocks of the dataset's feature matrix, and each query is
    scored by its own product, so a score does not depend on the other
    queries.
    """
    dim = dataset.feature_dim
    title_dims = config.title_dims if config.title_dims is not None else DEFAULT_TITLE_DIMS
    if not 1 <= title_dims < dim:
        name = "title_dims" if config.title_dims is not None else "default title_dims"
        raise ConfigurationError(
            f"{name} {title_dims}: the title block [0, {title_dims}) must leave a nonempty "
            f"body block in {dim} dimensions"
        )
    title_model = fit_score_model(dataset, range(title_dims))
    body_model = fit_score_model(dataset, range(title_dims, dim))
    title_design = add_intercept(dataset.features[:, title_model.feature_indices])
    body_design = add_intercept(dataset.features[:, body_model.feature_indices])

    bounds = dataset.bounds.tolist()
    kept = [q for q in range(len(dataset.query_ids)) if bounds[q + 1] - bounds[q] >= config.slots]
    if not kept:
        raise ConfigurationError("no query has enough documents to fill a slate")
    title = np.zeros(len(dataset.doc_ids))
    for q in kept:
        rows = slice(bounds[q], bounds[q + 1])
        title[rows] = title_design[rows] @ title_model.weights
    # each document id's rank in str order breaks score ties
    doc_rank = np.argsort(sorted(range(len(dataset.doc_ids)), key=dataset.doc_ids.__getitem__))
    query_of = np.repeat(np.arange(len(dataset.query_ids)), np.diff(dataset.bounds))
    by_title = np.lexsort((doc_rank, -title, query_of))
    gains = 2.0 ** dataset.labels.astype(np.float64) - 1.0

    discounts = position_discounts(config.slots)
    arms: dict[str, QueryArm] = {}
    ranking_spaces: dict[int, SlateSpace] = {}
    for q in kept:
        query_id = dataset.query_ids[q]
        pool = by_title[bounds[q] : min(bounds[q] + config.m, bounds[q + 1])]
        body = body_design[pool] @ body_model.weights
        target_slate = tuple(np.lexsort((doc_rank[pool], -body))[: config.slots].tolist())
        pool_gains = gains[pool]
        dcg_star = float(np.sort(pool_gains)[::-1][: config.slots] @ discounts)
        space = ranking_spaces.get(len(pool))
        if space is None:
            space = ranking_spaces[len(pool)] = SlateSpace.ranking(len(pool), config.slots)
        if dcg_star > 0.0:
            intrinsic = np.outer(discounts, pool_gains).reshape(-1) / dcg_star
        else:
            intrinsic = np.zeros(space.dim)
        arms[query_id] = QueryArm(
            space=space,
            pool_doc_ids=tuple(map(dataset.doc_ids.__getitem__, pool.tolist())),
            pool_features=dataset.features[pool],
            gains=pool_gains,
            title_scores=title[pool],
            dcg_star=dcg_star,
            intrinsic=intrinsic,
            target_slate=target_slate,
        )

    spaces = {c: arm.space for c, arm in arms.items()}
    title_scores = {c: arm.title_scores for c, arm in arms.items()}
    logging = MultinomialWoRPolicy(spaces, title_scores, config.alpha)
    target = DeterministicPolicy(spaces, {c: arm.target_slate for c, arm in arms.items()})
    return BanditInstance(
        contexts=tuple(arms), arms=arms, logging=logging, target=target, noise=config.noise
    )


# -- logged-data generation --------------------------------------------------------


def draw_logs(
    instance: BanditInstance,
    n: int,
    rng: np.random.Generator,
    contexts: Sequence | None = None,
) -> LoggedBatch:
    """Draw n logged examples under the instance's logging policy.

    Contexts are sampled uniformly (optionally restricted to a subset).
    The slates of the drawn contexts come from ``Policy.sample_rows`` in
    runs of at most ``STACK_ROWS`` rows, contexts in pool order with each
    context's rows together: the stream of one ``sample_batch`` call per
    context, so it is deterministic given the generator state. The batch
    carries each example's per-slot values, gathered from the contexts'
    intrinsic values.
    """
    pool = tuple(instance.contexts if contexts is None else contexts)
    picks = rng.integers(0, len(pool), size=n)
    counts = np.bincount(picks, minlength=len(pool))
    present = np.flatnonzero(counts)
    bounds = np.concatenate([[0], np.cumsum(counts[present])])
    by_context = np.argsort(picks, kind="stable")
    num_slots = instance.space_of(pool[0]).num_slots
    actions = np.empty((n, num_slots), dtype=np.int64)
    slot_values = np.empty((n, num_slots))
    for lo, hi in row_runs(bounds):
        run = [pool[i] for i in present[lo:hi].tolist()]
        run_counts = counts[present[lo:hi]]
        slates = instance.logging.sample_rows(run, run_counts, rng)
        rows = by_context[bounds[lo] : bounds[hi]]
        actions[rows] = slates
        slot_values[rows] = _slot_values(instance, run, run_counts, slates)
    values = np.clip(slot_values.sum(axis=1), 0.0, 1.0)
    if instance.noise == "bernoulli":
        rewards = (rng.random(n) < values).astype(np.float64)
    else:
        rewards = values
    return LoggedBatch(pool, picks, actions, rewards, slot_values)


def _slot_values(instance: BanditInstance, contexts, counts, slates) -> np.ndarray:
    """Each slate's per-slot intrinsic values, counts[i] rows at contexts[i],
    back to back: one gather from the contexts' intrinsic vectors laid end
    to end."""
    intrinsic = [instance.intrinsic(c) for c in contexts]
    starts = np.cumsum([0] + [len(values) for values in intrinsic[:-1]])
    offsets = np.stack([instance.space_of(c).offsets for c in contexts]) + starts[:, None]
    return np.concatenate(intrinsic)[np.repeat(offsets, counts, axis=0) + slates]


# -- RMSE sweep ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    estimator: str
    n: int
    run: int
    squared_error: float


@dataclass(frozen=True)
class SweepAggregate:
    estimator: str
    n: int
    rmse: float
    stderr: float


@dataclass(frozen=True)
class SweepResult:
    target_value: float
    rows: tuple[SweepRow, ...]
    aggregates: tuple[SweepAggregate, ...]

    def rmse(self, estimator: str, n: int) -> float:
        for agg in self.aggregates:
            if agg.estimator == estimator and agg.n == n:
                return agg.rmse
        raise KeyError(f"no aggregate for ({estimator}, {n})")


def _run_once(
    instance: BanditInstance,
    config: ExperimentConfig,
    n: int,
    run: int,
    pinv_source: PinvSource,
) -> list[tuple[str, float]]:
    """One (n, run) cell: draw logs, apply every configured estimator.

    A self-normalized estimate whose weights all vanish is recorded as 0
    (the unnormalized estimator's value on the same data) so the sweep
    stays total; the estimator APIs themselves raise instead.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, run, n]))
    logs = draw_logs(instance, n, rng)
    scored_names = [name for name in config.estimators if name in _ScoredBatch.ESTIMATORS]
    scored = (
        _ScoredBatch(logs, instance.logging, instance.target, scored_names, pinv_source)
        if scored_names
        else None
    )

    def dm():
        half = max(len(logs) // 2, 1)
        model = fit_dm(logs[:half], instance.features, instance.space_of)
        return estimate_dm(model, logs[half:] or logs[:half], instance.target)

    unscored = {"dm": dm, "onpolicy": lambda: estimate_onpolicy(instance.target, instance, n, rng)}
    estimates = []
    for name in config.estimators:
        reduce = unscored[name] if name in unscored else getattr(scored, name)
        try:
            estimates.append((name, reduce().estimate))
        except UndefinedEstimateError:
            estimates.append((name, 0.0))
    return estimates


def run_rmse_sweep(instance: BanditInstance, config: ExperimentConfig) -> SweepResult:
    """Full schedule over n_grid and runs, one cell after another.

    Each cell owns its rng stream, so the result is bit-reproducible for a
    fixed seed.
    """
    target_value = instance.policy_value(instance.target)
    pinv_source = PinvSource()
    cells = [(n, run) for n in config.n_grid for run in range(config.runs)]
    outputs = [_run_once(instance, config, n, run, pinv_source) for n, run in cells]

    rows = []
    for (n, run), estimates in zip(cells, outputs):
        for name, estimate in estimates:
            rows.append(SweepRow(name, n, run, (estimate - target_value) ** 2))

    aggregates = []
    for name in config.estimators:
        for n in config.n_grid:
            errors = np.array(
                [row.squared_error for row in rows if row.estimator == name and row.n == n]
            )
            rmse = float(np.sqrt(errors.mean()))
            if len(errors) > 1 and rmse > 0.0:
                stderr = float(errors.std(ddof=1) / np.sqrt(len(errors)) / (2.0 * rmse))
            else:
                stderr = 0.0
            aggregates.append(SweepAggregate(name, n, rmse, stderr))
    return SweepResult(target_value=target_value, rows=tuple(rows), aggregates=tuple(aggregates))


def sweep_rows_csv(result: SweepResult) -> str:
    lines = ["estimator,n,run,squared_error"]
    for row in result.rows:
        lines.append(f"{row.estimator},{row.n},{row.run},{fmt(row.squared_error)}")
    return "\n".join(lines) + "\n"


def sweep_aggregate_csv(result: SweepResult) -> str:
    lines = ["estimator,n,rmse,stderr"]
    for agg in result.aggregates:
        lines.append(f"{agg.estimator},{agg.n},{fmt(agg.rmse)},{fmt(agg.stderr)}")
    return "\n".join(lines) + "\n"
