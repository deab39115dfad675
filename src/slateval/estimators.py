"""Offline value estimators over logged slate data.

The pseudoinverse estimator averages, over the logged examples, the
reward times the overlap coefficient between the target policy's mean
indicator and the logged slate's indicator, measured through the
pseudoinverse of the logging policy's indicator second moment:

    estimate = (1/n) * sum_i  r_i * q_target(x_i)' P(mu, x_i) 1_{s_i}

It is exact inverse propensity scoring for single-slot spaces and reduces
to the plain reward average when the target equals the logging policy.
Standard baselines (IPS, weighted IPS, the semi-bandit per-slot IPS ``sb``
and its self-normalized ``wsb``, a ridge direct-method model, and an
on-policy rollout) share the same report type.

Logged data is taken as a ``LoggedBatch`` (plain sequences of examples are
converted once). The importance-weighted estimators share one scoring pass
per (batch, logging, target): per logging space, the slates of all its
contexts are validated once and scored by one row-level call of each
policy, and the per-example terms the requested estimators need are
gathered from per-context stacks; each estimator is then a reduction over
those terms. The direct method fits a ridge model of the reward on per-slot
features and averages its predictions over the target's ``moment_arrays``
rows; a context's features come from one table that both it and the
optimizer read. Per-example terms are summed with a fixed pairwise (tree)
reduction in example order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .diagnostics import _require_space, bernstein_bound
from .errors import (
    AbsoluteContinuityError,
    ConfigurationError,
    SlateError,
    UndefinedEstimateError,
)
from .logs import LoggedBatch, LoggedExample, SemibanditExample
from .moments import PinvSource, context_runs
from .policies import Policy
from .ridge import add_intercept, fit_ridge_cv, intercept_penalty_mask
from .spaces import SlateSpace, space_of
from .util import fmt, pairwise_sum

# features(context) -> (space.dim, feature_dim) table: one row per (slot,
# action) coordinate of the context's space, slot-major action-minor. The
# optimizer and the direct method read it through _feature_table, once per
# context per call.
FeatureMap = Callable[[object], np.ndarray]


def _feature_table(space: SlateSpace, context, features: FeatureMap) -> np.ndarray:
    """The context's (dim, feature_dim) feature table as float64: the one
    place the package calls a feature map. Raises ConfigurationError, naming
    the context, for a table that is not 2-d, lacks one row per coordinate,
    or holds a non-finite entry."""
    table = np.asarray(features(context), dtype=np.float64)
    if table.ndim != 2 or len(table) != space.dim:
        raise ConfigurationError(
            f"the feature table at context {context!r} has shape {table.shape}; "
            f"expected ({space.dim}, feature_dim), one row per (slot, action)"
        )
    if not np.isfinite(table).all():
        raise ConfigurationError(f"the feature table at context {context!r} is not finite")
    return table


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


class _ScoredBatch:
    """One scoring pass of a logged batch under a (logging, target) pair.

    The constructor groups the batch's contexts by logging space, in runs
    of bounded stack size (``moments.context_runs``). Per group it validates the rows once (unless the batch was read and checked on
    that space) and scores them with one row-level call of the logging
    policy; a zero logging propensity is always an error (an
    absolute-continuity violation if the target puts mass on the slate, else
    a record that contradicts the stated logging policy). The group then
    fills only what the named estimators reduce:

    - ``weights``: whole-slate importance weights, from one row-level call
      of the target (ips, wips);
    - ``coefficients`` and ``quad``: ``w[coords].sum()`` and ``w' q`` with
      ``w = q' P``, ``q`` the target's mean indicator and ``P`` the
      logging pseudoinverse from the given ``PinvSource`` (pi);
    - ``slot_weights``: per-slot ratios of target to logging marginals (sb,
      wsb).

    ``q``, ``w``, ``w' q`` and the marginals are computed per group as
    (contexts x dim) stacks, ``w`` and ``w' q`` by one batched product with
    the stacked pseudoinverses, and gathered for the rows; pi, sb and wsb need
    the target on the logging space at every context (ConfigurationError
    otherwise), while ips and wips score other spaces. If any group fails,
    the contexts are scored again one at a time in batch order, so the error
    raised is the one of the first failing context, and of its first row.
    Each estimator method is a reduction over these per-example arrays.
    """

    ESTIMATORS = ("pi", "ips", "wips", "sb", "wsb")

    def __init__(
        self,
        data: Sequence[LoggedExample],
        logging: Policy,
        target: Policy,
        names: Sequence[str],
        pinv_source: PinvSource | None = None,
    ):
        _require_data(data)
        batch = self.batch = LoggedBatch.from_examples(data)
        n = len(batch)
        self.want_weights = "ips" in names or "wips" in names
        self.want_pi = "pi" in names
        self.want_slots = "sb" in names or "wsb" in names
        if self.want_slots and batch.slot_values is None:
            raise ConfigurationError(
                "semi-bandit estimators need per-slot values for every example"
            )
        self.logging, self.target = logging, target
        self.source = pinv_source if pinv_source is not None else PinvSource()
        self.weights = np.empty(n) if self.want_weights else None
        self.coefficients = np.empty(n) if self.want_pi else None
        self.quad = np.empty(n) if self.want_pi else None
        self.slot_weights = np.empty(batch.actions.shape) if self.want_slots else None
        try:
            spaces: dict = {}
            for context, rows in batch.groups():
                spaces.setdefault(logging.space_of(context), []).append((context, rows))
            for space, members in spaces.items():
                for lo, hi in context_runs(len(members), space.dim):
                    self._score(space, members[lo:hi])
        except Exception:
            # whatever failed, the first context to fail alone raises first
            for context, rows in batch.groups():
                self._score(logging.space_of(context), [(context, rows)])
            raise

    def _score(self, space: SlateSpace, members: list) -> None:
        """Score the rows of the contexts in ``members``, (context, rows)
        pairs that share the logging space ``space``."""
        logging, target = self.logging, self.target
        contexts = [context for context, _ in members]
        rows = np.concatenate([r for _, r in members]) if len(members) > 1 else members[0][1]
        codes = np.repeat(np.arange(len(members)), [len(r) for _, r in members])
        actions = self.batch.actions[rows]
        if self.batch.valid_in != space:
            actions = space.validate_batch(actions, contexts[0] if len(members) == 1 else None)
        mu = logging._slate_prob_rows(contexts, codes, actions)
        zero = mu <= 0.0
        if zero.any():
            i = int(np.argmax(zero))
            context, slate = contexts[codes[i]], tuple(actions[i].tolist())
            if target.slate_prob(context, slate) > 0.0:
                raise AbsoluteContinuityError(
                    f"target puts positive probability on slate {slate} at context "
                    f"{context!r} but the logging policy does not"
                )
            raise AbsoluteContinuityError(
                f"logged slate {slate} at context {context!r} has zero probability "
                f"under the stated logging policy"
            )
        if self.want_weights:
            if all(target.space_of(c) == space for c in contexts):
                target_probs = target._slate_prob_rows(contexts, codes, actions)
            else:  # the rows are valid in the logging spaces only
                target_probs = target.slate_prob_rows(contexts, codes, actions)
            self.weights[rows] = target_probs / mu
        if not (self.want_pi or self.want_slots):
            return
        for context in contexts:  # q and the marginals are read in the logging coordinates
            _require_space(target, context, space, "target")
        at = (codes[:, None], space.coords_of_actions(actions))
        qs = target.mean_indicators(contexts, space)
        if self.want_pi:
            ws = (qs[:, None, :] @ self.source.pinv_stack(logging, contexts))[:, 0]
            quad = (ws[:, None, :] @ qs[:, :, None])[:, 0, 0]
            self.coefficients[rows] = ws[at].sum(axis=1)
            self.quad[rows] = quad[codes]
        if self.want_slots:
            marginals = logging.mean_indicators(contexts, space)[at]
            zero = marginals <= 0.0
            if zero.any():
                i, slot = np.argwhere(zero)[0]
                raise AbsoluteContinuityError(
                    f"logged action {actions[i, slot]} in slot {slot} at context "
                    f"{contexts[codes[i]]!r} has zero marginal probability under the "
                    f"logging policy"
                )
            self.slot_weights[rows] = np.asarray(qs)[at] / marginals

    def pi(self, diagnostics: bool = False, delta: float = 0.05) -> EstimatorReport:
        n = len(self.batch)
        estimate = pairwise_sum(self.batch.rewards * self.coefficients) / n
        if not diagnostics:
            return EstimatorReport("pi", estimate, n)
        sigma_sq = pairwise_sum(self.quad) / n
        rho_empirical = float(np.abs(self.coefficients).max())
        bound = bernstein_bound(sigma_sq, rho_empirical, n, delta)
        return EstimatorReport(
            "pi", estimate, n, sigma_sq=sigma_sq, rho=rho_empirical, bound=bound, delta=delta
        )

    def ips(self) -> EstimatorReport:
        n = len(self.batch)
        return EstimatorReport("ips", pairwise_sum(self.batch.rewards * self.weights) / n, n)

    def wips(self) -> EstimatorReport:
        normalizer = pairwise_sum(self.weights)
        if normalizer <= 0.0:
            raise UndefinedEstimateError(
                "all importance weights are zero; the self-normalized estimate is undefined"
            )
        estimate = pairwise_sum(self.batch.rewards * self.weights) / normalizer
        return EstimatorReport("wips", estimate, len(self.batch))

    def sb(self) -> EstimatorReport:
        n = len(self.batch)
        total = 0.0
        for j in range(self.batch.num_slots):
            total += pairwise_sum(self.batch.slot_values[:, j] * self.slot_weights[:, j]) / n
        return EstimatorReport("sb", total, n)

    def wsb(self) -> EstimatorReport:
        total = 0.0
        for j in range(self.batch.num_slots):
            weights = self.slot_weights[:, j]
            normalizer = pairwise_sum(weights)
            if normalizer <= 0.0:
                raise UndefinedEstimateError(
                    f"all importance weights in slot {j} are zero; the self-normalized "
                    f"per-slot estimate is undefined"
                )
            total += pairwise_sum(self.batch.slot_values[:, j] * weights) / normalizer
        return EstimatorReport("wsb", total, len(self.batch))


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

    ``pinv_source`` lets callers share the pseudoinverse store across
    repeated calls; by default a fresh one is used (closed form under
    uniform logging, numeric otherwise).
    """
    return _ScoredBatch(data, logging, target, ("pi",), pinv_source).pi(diagnostics, delta)


def estimate_ips(data: Sequence[LoggedExample], logging: Policy, target: Policy) -> EstimatorReport:
    """Inverse propensity scoring with whole-slate probability ratios."""
    return _ScoredBatch(data, logging, target, ("ips",)).ips()


def estimate_wips(data: Sequence[LoggedExample], logging: Policy, target: Policy) -> EstimatorReport:
    """Self-normalized (weighted) inverse propensity scoring."""
    return _ScoredBatch(data, logging, target, ("wips",)).wips()


def estimate_sb(
    data: Sequence[SemibanditExample], logging: Policy, target: Policy
) -> EstimatorReport:
    """Per-slot inverse propensity scoring on observed intrinsic values."""
    return _ScoredBatch(data, logging, target, ("sb",)).sb()


def estimate_wsb(
    data: Sequence[SemibanditExample], logging: Policy, target: Policy
) -> EstimatorReport:
    """Per-slot self-normalized inverse propensity scoring, summed over slots."""
    return _ScoredBatch(data, logging, target, ("wsb",)).wsb()


# -- direct method -----------------------------------------------------------


@dataclass(frozen=True)
class RewardModel:
    """Ridge model of the slate reward: one weight block per slot over that
    slot's action features, an intercept, and a clip to [-1, 1]. ``space``
    is the space (or per-context mapping/callable) it was fit on."""

    weights: np.ndarray
    alpha: float
    features: FeatureMap
    space: object
    num_slots: int

    def predict(self, context, actions) -> np.ndarray:
        """Clipped rewards of an (n, slots) array of slates: the intercept
        plus, per slot, the slot's weight block times the action's features."""
        space = space_of(self.space, context)
        coords = space.coords_of_actions(space.validate_batch(actions, context))
        table = _feature_table(space, context, self.features)
        blocks = self.weights[:-1].reshape(self.num_slots, -1)
        if space.num_slots != self.num_slots or table.shape[1] != blocks.shape[1]:
            raise ConfigurationError(
                f"the model was fit on {self.num_slots} slots of {blocks.shape[1]} features; "
                f"context {context!r} has {space.num_slots} slots of {table.shape[1]}"
            )
        scores = np.einsum("kf,kf->k", table, np.repeat(blocks, space.slot_counts, axis=0))
        return np.clip(scores[coords].sum(axis=1) + self.weights[-1], -1.0, 1.0)


def fit_dm(
    train: Sequence[LoggedExample], features: FeatureMap, space, *, folds: int = 5
) -> RewardModel:
    """Fit the direct-method reward model on logged examples.

    ``space`` is a ``SlateSpace`` or a per-context mapping/callable, as for
    a ``Policy``. Each context's logged slates are validated and their
    design rows gathered from the context's feature table.
    """
    _require_data(train)
    batch = LoggedBatch.from_examples(train)
    blocks = []
    for context, rows in batch.groups():
        sp = space_of(space, context)
        coords = sp.coords_of_actions(sp.validate_batch(batch.actions[rows], context))
        blocks.append((rows, _feature_table(sp, context, features)[coords].reshape(len(rows), -1)))
    widths = {block.shape[1] for _, block in blocks}
    if len(widths) != 1:
        raise ConfigurationError(f"the feature map gives differing row widths: {sorted(widths)}")
    X = np.empty((len(batch), widths.pop()))
    for rows, block in blocks:
        X[rows] = block
    fit = fit_ridge_cv(
        add_intercept(X), batch.rewards, folds=folds, penalize=intercept_penalty_mask(X.shape[1])
    )
    return RewardModel(fit.weights, fit.alpha, features, space, batch.num_slots)


def estimate_dm(
    model: RewardModel, eval_data: Sequence[LoggedExample], target: Policy
) -> EstimatorReport:
    """Score the target policy with the reward model: per context, the
    probability-weighted predictions of the target's ``moment_arrays`` rows
    (its listed support, else its own seeded sample)."""
    _require_data(eval_data)
    batch = LoggedBatch.from_examples(eval_data)
    values = np.empty(len(batch))
    for context, rows in batch.groups():
        space = target.space_of(context)
        if space != space_of(model.space, context):
            raise ConfigurationError(f"target space {space} at {context!r} is not the model's")
        arrays = target.moment_arrays(context)
        values[rows] = arrays.probs @ model.predict(context, arrays.actions)
    return EstimatorReport("dm", pairwise_sum(values) / len(batch), len(batch))


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
