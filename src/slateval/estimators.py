"""Offline value estimators over logged slate data.

The pseudoinverse estimator averages, over the logged examples, the
reward times the overlap coefficient between the target policy's mean
indicator and the logged slate's indicator, measured through the
pseudoinverse of the logging policy's indicator second moment:

    estimate = (1/n) * sum_i  r_i * q_target(x_i)' P(mu, x_i) 1_{s_i}

It is exact inverse propensity scoring for single-slot spaces and reduces
to the plain reward average when the target equals the logging policy.
Standard baselines (IPS, weighted IPS, a ridge direct-method model, and
an on-policy rollout) share the same report type.

Logged data is taken as a ``LoggedBatch`` (plain sequences of examples are
converted once), and the per-example work runs vectorized per context:
slates are validated, scored and gathered one context group at a time.
Per-example terms are summed with a fixed pairwise (tree) reduction in
example order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from .diagnostics import bernstein_bound
from .errors import (
    AbsoluteContinuityError,
    ConfigurationError,
    SlateError,
    UndefinedEstimateError,
)
from .logs import LoggedBatch, LoggedExample
from .moments import PinvSource
from .policies import DeterministicPolicy, Policy
from .ridge import add_intercept, fit_ridge_cv, intercept_penalty_mask
from .util import context_rng, fmt, pairwise_sum

FeatureMap = Callable[[object, int, int], np.ndarray]


@dataclass(frozen=True)
class EstimatorReport:
    """A point estimate plus optional overlap diagnostics."""

    estimator: str
    estimate: float
    n: int
    sigma_sq: float | None = None
    rho: float | None = None
    bound: float | None = None
    delta: float | None = None

    CSV_HEADER: ClassVar[str] = "estimator,estimate,n,sigma_sq,rho,bound,delta"

    def to_kv_line(self) -> str:
        parts = [f"estimator={self.estimator}", f"estimate={fmt(self.estimate)}", f"n={self.n}"]
        for name in ("sigma_sq", "rho", "bound", "delta"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={fmt(value)}")
        return " ".join(parts)

    def to_csv_row(self) -> str:
        cells = [self.estimator, fmt(self.estimate), str(self.n)]
        for name in ("sigma_sq", "rho", "bound", "delta"):
            value = getattr(self, name)
            cells.append("" if value is None else fmt(value))
        return ",".join(cells)


def _require_data(data: Sequence[LoggedExample]) -> None:
    if len(data) == 0:
        raise SlateError("cannot estimate from an empty dataset")


def _batch(data: Sequence[LoggedExample]) -> LoggedBatch:
    _require_data(data)
    return LoggedBatch.from_examples(data)


def _logged_groups(
    batch: LoggedBatch, logging: Policy, target: Policy
) -> Iterator[tuple[object, np.ndarray, np.ndarray, np.ndarray]]:
    """Validate the logged slates per context against the policy pair.

    Yields (context, rows, slates, logging propensities) per context. A zero
    propensity is always an error: if the target puts mass on the slate it
    is an absolute-continuity violation, otherwise the record contradicts
    the stated logging policy.
    """
    for context, rows in batch.groups():
        actions = batch.actions[rows]
        mu = logging.slate_prob_batch(context, actions)
        zero = mu <= 0.0
        if zero.any():
            slate = tuple(actions[np.argmax(zero)].tolist())
            if target.slate_prob(context, slate) > 0.0:
                raise AbsoluteContinuityError(
                    f"target puts positive probability on slate {slate} at context "
                    f"{context!r} but the logging policy does not"
                )
            raise AbsoluteContinuityError(
                f"logged slate {slate} at context {context!r} has zero probability "
                f"under the stated logging policy"
            )
        yield context, rows, actions, mu


def estimate_pi(
    data: Sequence[LoggedExample],
    logging: Policy,
    target: Policy,
    *,
    pinv_source: PinvSource | None = None,
    diagnostics: bool = False,
    delta: float = 0.05,
) -> EstimatorReport:
    """Pseudoinverse estimator of the target policy's value.

    ``pinv_source`` lets callers share the per-context pseudoinverse cache
    across repeated calls; by default a fresh one is used (closed form under
    uniform logging, numeric otherwise).
    """
    batch = _batch(data)
    n = len(batch)
    source = pinv_source if pinv_source is not None else PinvSource()
    coefficients = np.empty(n)  # q_target' P 1_s per example
    quad = np.empty(n)  # q_target' P q_target of each example's context
    for context, rows, actions, _ in _logged_groups(batch, logging, target):
        space = logging.space_of(context)
        q = target.mean_indicator(context)
        w = q @ source.pseudoinverse(logging, context)
        coefficients[rows] = w[space.coords_of_actions(actions)].sum(axis=1)
        quad[rows] = float(w @ q)
    estimate = pairwise_sum(batch.rewards * coefficients) / n
    if not diagnostics:
        return EstimatorReport("pi", estimate, n)
    sigma_sq = pairwise_sum(quad) / n
    rho_empirical = float(np.abs(coefficients).max())
    bound = bernstein_bound(sigma_sq, rho_empirical, n, delta)
    return EstimatorReport(
        "pi", estimate, n, sigma_sq=sigma_sq, rho=rho_empirical, bound=bound, delta=delta
    )


def _importance_weights(batch: LoggedBatch, logging: Policy, target: Policy) -> np.ndarray:
    weights = np.empty(len(batch))
    for context, rows, actions, mu in _logged_groups(batch, logging, target):
        weights[rows] = target.slate_prob_batch(context, actions) / mu
    return weights


def estimate_ips(data: Sequence[LoggedExample], logging: Policy, target: Policy) -> EstimatorReport:
    """Inverse propensity scoring with whole-slate probability ratios."""
    batch = _batch(data)
    weights = _importance_weights(batch, logging, target)
    estimate = pairwise_sum(batch.rewards * weights) / len(batch)
    return EstimatorReport("ips", estimate, len(batch))


def estimate_wips(data: Sequence[LoggedExample], logging: Policy, target: Policy) -> EstimatorReport:
    """Self-normalized (weighted) inverse propensity scoring."""
    batch = _batch(data)
    weights = _importance_weights(batch, logging, target)
    normalizer = pairwise_sum(weights)
    if normalizer <= 0.0:
        raise UndefinedEstimateError(
            "all importance weights are zero; the self-normalized estimate is undefined"
        )
    estimate = pairwise_sum(batch.rewards * weights) / normalizer
    return EstimatorReport("wips", estimate, len(batch))


# -- direct method -----------------------------------------------------------


@dataclass(frozen=True)
class RewardModel:
    """Ridge model of the slate reward over concatenated per-slot features."""

    weights: np.ndarray
    alpha: float
    features: FeatureMap
    num_slots: int

    def predict(self, context, slate) -> float:
        row = np.concatenate(
            [self.features(context, j, a) for j, a in enumerate(slate)] + [[1.0]]
        )
        return float(np.clip(row @ self.weights, -1.0, 1.0))


def fit_dm(train: Sequence[LoggedExample], features: FeatureMap, *, folds: int = 5) -> RewardModel:
    """Fit the direct-method reward model on logged examples."""
    _require_data(train)
    num_slots = len(train[0].slate)
    rows = np.stack(
        [
            np.concatenate([features(ex.context, j, a) for j, a in enumerate(ex.slate)])
            for ex in train
        ]
    )
    X = add_intercept(rows)
    y = np.array([ex.reward for ex in train])
    fit = fit_ridge_cv(X, y, folds=folds, penalize=intercept_penalty_mask(rows.shape[1]))
    return RewardModel(weights=fit.weights, alpha=fit.alpha, features=features, num_slots=num_slots)


def estimate_dm(
    model: RewardModel,
    eval_data: Sequence[LoggedExample],
    target: Policy,
    *,
    enumeration_cap: int | None = None,
    mc_slates: int = 10_000,
    seed: int = 0,
) -> EstimatorReport:
    """Score the target policy with the reward model.

    The inner expectation over target slates is exact when the support is
    enumerable and a Monte Carlo average over sampled slates otherwise.
    """
    _require_data(eval_data)
    cap = enumeration_cap if enumeration_cap is not None else target.enumeration_cap
    per_context: dict = {}
    values = np.empty(len(eval_data))
    for i, ex in enumerate(eval_data):
        value = per_context.get(ex.context)
        if value is None:
            space = target.space_of(ex.context)
            if isinstance(target, DeterministicPolicy):
                value = model.predict(ex.context, target.slate_of(ex.context))
            elif space.num_slates() <= cap:
                value = sum(
                    p * model.predict(ex.context, slate) for slate, p in target.support(ex.context)
                )
            else:
                rng = context_rng(seed, ex.context)
                draws = target.sample_batch(ex.context, mc_slates, rng)
                value = float(
                    np.mean([model.predict(ex.context, tuple(row)) for row in draws])
                )
            per_context[ex.context] = value
        values[i] = value
    return EstimatorReport("dm", pairwise_sum(values) / len(eval_data), len(eval_data))


# -- on-policy rollout ---------------------------------------------------------


def estimate_onpolicy(target: Policy, env, n: int, rng: np.random.Generator) -> EstimatorReport:
    """Deploy the target policy in a simulated environment.

    ``env`` must provide ``sample_context(rng)`` and
    ``reward(context, slate, rng)``.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one rollout, got n={n}")
    rewards = np.empty(n)
    for i in range(n):
        context = env.sample_context(rng)
        slate = target.sample(context, rng)
        rewards[i] = env.reward(context, slate, rng)
    return EstimatorReport("onpolicy", pairwise_sum(rewards) / n, n)


# -- enumeration oracle --------------------------------------------------------


def exact_policy_value(target: Policy, contexts: Sequence, reward_fn) -> float:
    """Exact value of a policy by full enumeration over supports.

    ``reward_fn(context, slate)`` must return the expected reward; contexts
    are weighted uniformly.
    """
    total = 0.0
    for context in contexts:
        total += sum(p * reward_fn(context, slate) for slate, p in target.support(context))
    return total / len(contexts)
