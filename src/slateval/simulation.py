"""Semi-synthetic slate-evaluation experiments on ranking data.

A ranking dataset becomes a bandit instance as follows: two block-
restricted linear score models are fit to relevance (one on the "title"
feature block, one on the "body" block). Per query, the candidate pool is
the top-m documents by title score; the logging policy samples slates
slot-by-slot without replacement from a softmax of title scores at a
temperature knob; the target policy deterministically ranks the top
slots by body score. The reward is NDCG, which decomposes exactly into
per-(slot, action) intrinsic values, so every estimator here can be
compared against the exactly enumerable target value.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AbsoluteContinuityError, ConfigurationError, UndefinedEstimateError
from .estimators import (
    EstimatorReport,
    estimate_dm,
    estimate_ips,
    estimate_onpolicy,
    estimate_pi,
    estimate_wips,
    fit_dm,
)
from .letor import RankingDataset
from .logs import LoggedBatch, SemibanditExample, group_rows
from .moments import PinvSource
from .policies import DeterministicPolicy, MultinomialWoRPolicy, Policy
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

    def score(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        restricted = features[:, self.feature_indices]
        return add_intercept(restricted) @ self.weights


def fit_score_model(dataset: RankingDataset, feature_indices, *, folds: int = 5) -> ScoreModel:
    """Ridge fit of relevance on a feature block, strength chosen by CV."""
    feature_indices = np.asarray(list(feature_indices), dtype=np.int64)
    if len(feature_indices) == 0:
        raise ConfigurationError("score model needs at least one feature index")
    if feature_indices.max(initial=0) >= dataset.feature_dim:
        raise ConfigurationError(
            f"feature index {feature_indices.max()} out of range for "
            f"dimension {dataset.feature_dim}"
        )
    rows = []
    targets = []
    for _, doc in dataset.rows():
        rows.append(doc.features[feature_indices])
        targets.append(float(doc.relevance))
    X = add_intercept(np.asarray(rows))
    fit = fit_ridge_cv(
        X, np.asarray(targets), folds=folds, penalize=intercept_penalty_mask(len(feature_indices))
    )
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
        if self.alpha < 0:
            raise ConfigurationError(f"temperature must be nonnegative, got {self.alpha}")
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

    def features(self, context, slot: int, action: int) -> np.ndarray:
        return self.arms[context].pool_features[action]

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
        values = [
            float(policy.mean_indicator(c) @ self.arms[c].intrinsic) for c in contexts
        ]
        return pairwise_sum(np.asarray(values)) / len(values)


def build_instance(dataset: RankingDataset, config: ExperimentConfig) -> BanditInstance:
    """Assemble the bandit instance for one dataset and configuration.

    Queries with fewer documents than the pool size keep all their
    documents (the space shrinks per query); queries with fewer documents
    than slots cannot form a slate and are left out.
    """
    title_dims = config.title_dims if config.title_dims is not None else DEFAULT_TITLE_DIMS
    title_dims = min(title_dims, dataset.feature_dim)
    if title_dims < 1 or title_dims >= dataset.feature_dim:
        raise ConfigurationError(
            f"title block [0, {title_dims}) must leave a nonempty body block in "
            f"{dataset.feature_dim} dimensions"
        )
    title_model = fit_score_model(dataset, range(title_dims))
    body_model = fit_score_model(dataset, range(title_dims, dataset.feature_dim))

    discounts = position_discounts(config.slots)
    contexts: list[str] = []
    arms: dict[str, QueryArm] = {}
    spaces: dict[str, SlateSpace] = {}
    logging_scores: dict[str, np.ndarray] = {}
    target_slates: dict[str, tuple[int, ...]] = {}

    for query in dataset.queries:
        if len(query.documents) < config.slots:
            continue
        features = np.stack([doc.features for doc in query.documents])
        title = title_model.score(features)
        doc_ids = [doc.doc_id for doc in query.documents]
        order = sorted(range(len(doc_ids)), key=lambda i: (-title[i], doc_ids[i]))
        pool = order[: config.m]
        pool_features = features[pool]
        pool_ids = tuple(doc_ids[i] for i in pool)
        gains = np.array(
            [2.0 ** query.documents[i].relevance - 1.0 for i in pool], dtype=np.float64
        )
        title_scores = title[pool]
        body = body_model.score(pool_features)
        by_body = sorted(range(len(pool)), key=lambda a: (-body[a], pool_ids[a]))
        target_slate = tuple(by_body[: config.slots])

        dcg_star = float(np.sort(gains)[::-1][: config.slots] @ discounts)
        space = SlateSpace.ranking(len(pool), config.slots)
        if dcg_star > 0.0:
            intrinsic = np.outer(discounts, gains).reshape(-1) / dcg_star
        else:
            intrinsic = np.zeros(space.dim)

        contexts.append(query.query_id)
        spaces[query.query_id] = space
        logging_scores[query.query_id] = title_scores
        target_slates[query.query_id] = target_slate
        arms[query.query_id] = QueryArm(
            space=space,
            pool_doc_ids=pool_ids,
            pool_features=pool_features,
            gains=gains,
            title_scores=title_scores,
            dcg_star=dcg_star,
            intrinsic=intrinsic,
            target_slate=target_slate,
        )

    if not contexts:
        raise ConfigurationError("no query has enough documents to fill a slate")
    logging = MultinomialWoRPolicy(spaces, logging_scores, config.alpha)
    target = DeterministicPolicy(spaces, target_slates)
    return BanditInstance(
        contexts=tuple(contexts), arms=arms, logging=logging, target=target, noise=config.noise
    )


# -- logged-data generation --------------------------------------------------------


def draw_logs(
    instance: BanditInstance,
    n: int,
    rng: np.random.Generator,
    contexts: Sequence | None = None,
) -> LoggedBatch:
    """Draw n logged examples under the instance's logging policy.

    Contexts are sampled uniformly (optionally restricted to a subset);
    slates are drawn per context in one batch, contexts in pool order, which
    keeps the stream deterministic given the generator state. The batch
    carries each example's per-slot values.
    """
    pool = tuple(instance.contexts if contexts is None else contexts)
    picks = rng.integers(0, len(pool), size=n)
    num_slots = instance.space_of(pool[0]).num_slots
    actions = np.empty((n, num_slots), dtype=np.int64)
    slot_values = np.empty((n, num_slots))
    for ci, rows in group_rows(picks, len(pool)):
        context = pool[ci]
        slates = instance.logging.sample_batch(context, len(rows), rng)
        actions[rows] = slates
        coords = instance.space_of(context).coords_of_actions(slates)
        slot_values[rows] = instance.intrinsic(context)[coords]
    values = np.clip(slot_values.sum(axis=1), 0.0, 1.0)
    if instance.noise == "bernoulli":
        rewards = (rng.random(n) < values).astype(np.float64)
    else:
        rewards = values
    return LoggedBatch(pool, picks, actions, rewards, slot_values)


# -- semi-bandit baselines -----------------------------------------------------------


def _slot_weights(batch: LoggedBatch, logging: Policy, target: Policy) -> np.ndarray:
    """(n, slots) ratios of target to logging per-(slot, action) marginals."""
    weights = np.empty(batch.actions.shape)
    for context, rows in batch.groups():
        space = logging.space_of(context)
        coords = space.coords_of_actions(space.validate_batch(batch.actions[rows], context))
        mu = logging.slot_marginals(context)[coords]
        zero = mu <= 0.0
        if zero.any():
            i, slot = np.argwhere(zero)[0]
            raise AbsoluteContinuityError(
                f"logged action {batch.actions[rows[i], slot]} in slot {slot} at context "
                f"{context!r} has zero marginal probability under the logging policy"
            )
        weights[rows] = target.slot_marginals(context)[coords] / mu
    return weights


def _semibandit_batch(data: Sequence[SemibanditExample]) -> LoggedBatch:
    if len(data) == 0:
        raise ConfigurationError("cannot estimate from an empty dataset")
    batch = LoggedBatch.from_examples(data)
    if batch.slot_values is None:
        raise ConfigurationError("semi-bandit estimators need per-slot values for every example")
    return batch


def estimate_sb(
    data: Sequence[SemibanditExample], logging: Policy, target: Policy
) -> EstimatorReport:
    """Per-slot inverse propensity scoring on observed intrinsic values."""
    batch = _semibandit_batch(data)
    weights = _slot_weights(batch, logging, target)
    total = 0.0
    for j in range(batch.num_slots):
        total += pairwise_sum(batch.slot_values[:, j] * weights[:, j]) / len(batch)
    return EstimatorReport("sb", total, len(batch))


def estimate_wsb(
    data: Sequence[SemibanditExample], logging: Policy, target: Policy
) -> EstimatorReport:
    """Per-slot self-normalized inverse propensity scoring, summed over slots."""
    batch = _semibandit_batch(data)
    all_weights = _slot_weights(batch, logging, target)
    total = 0.0
    for j in range(batch.num_slots):
        weights = all_weights[:, j]
        values = batch.slot_values[:, j]
        normalizer = pairwise_sum(weights)
        if normalizer <= 0.0:
            raise UndefinedEstimateError(
                f"all importance weights in slot {j} are zero; the self-normalized "
                f"per-slot estimate is undefined"
            )
        total += pairwise_sum(values * weights) / normalizer
    return EstimatorReport("wsb", total, len(batch))


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
    estimates = []
    for name in config.estimators:
        try:
            if name == "pi":
                report = estimate_pi(logs, instance.logging, instance.target, pinv_source=pinv_source)
            elif name == "ips":
                report = estimate_ips(logs, instance.logging, instance.target)
            elif name == "wips":
                report = estimate_wips(logs, instance.logging, instance.target)
            elif name == "dm":
                half = max(len(logs) // 2, 1)
                model = fit_dm(logs[:half], instance.features)
                report = estimate_dm(model, logs[half:] or logs[:half], instance.target)
            elif name == "onpolicy":
                report = estimate_onpolicy(instance.target, instance, n, rng)
            elif name == "sb":
                report = estimate_sb(logs, instance.logging, instance.target)
            else:
                report = estimate_wsb(logs, instance.logging, instance.target)
            estimates.append((name, report.estimate))
        except UndefinedEstimateError:
            estimates.append((name, 0.0))
    return estimates


def run_rmse_sweep(
    instance: BanditInstance, config: ExperimentConfig, *, threads: int = 1
) -> SweepResult:
    """Full schedule over n_grid and runs; bit-reproducible for a fixed
    seed regardless of thread count (each cell owns its rng stream)."""
    target_value = instance.policy_value(instance.target)
    pinv_source = PinvSource()
    cells = [(n, run) for n in config.n_grid for run in range(config.runs)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            outputs = list(
                executor.map(
                    lambda cell: _run_once(instance, config, cell[0], cell[1], pinv_source), cells
                )
            )
    else:
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
