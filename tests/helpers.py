"""Shared builders for the test suite."""

import numpy as np

from slateval import (
    AbsoluteContinuityError,
    ConfigurationError,
    ExplicitPolicy,
    LoggedBatch,
    LoggedExample,
    PinvSource,
    ParseError,
    SlateError,
    SlateSpace,
    SpaceKind,
    UniformMixturePolicy,
)
from slateval.estimators import _feature_table
from slateval.optimization import _slot_design, _table_moments
from slateval.ridge import FoldMoments
from slateval.spaces import space_of
from slateval.diagnostics import bernstein_bound
from slateval.util import fmt17, pairwise_sum


def coord(space, slot: int, action: int) -> int:
    """Indicator coordinate of ``action`` in ``slot`` of the space."""
    return int(space.offsets[slot]) + int(action)


def is_valid(space, slate) -> bool:
    """Whether ``space.validate`` accepts the slate."""
    try:
        space.validate(slate)
    except SlateError:
        return False
    return True


def random_explicit_policy(space, contexts, rng, sparsity=None) -> ExplicitPolicy:
    """Random stochastic policy over the full (or sparse) slate set."""
    slates = list(space.enumerate_slates())
    table = {}
    for context in contexts:
        weights = rng.gamma(0.5, size=len(slates))
        if sparsity is not None:
            mask = rng.random(len(slates)) < sparsity
            if not mask.any():
                mask[rng.integers(len(slates))] = True
            weights = weights * mask
        weights = weights / weights.sum()
        table[context] = [(s, p) for s, p in zip(slates, weights)]
    return ExplicitPolicy(space, table)


def few_slate_table(space, contexts, slates_per_context, rng) -> dict:
    """Explicit-policy table listing a few distinct random slates per context
    of a ranking space, for spaces far too large to enumerate."""
    table = {}
    for context in contexts:
        slates = set()
        while len(slates) < slates_per_context:
            slates.add(tuple(rng.permutation(space.num_actions)[: space.num_slots].tolist()))
        probs = rng.dirichlet(np.ones(slates_per_context))
        table[context] = list(zip(sorted(slates), probs.tolist()))
    return table


class AdaInstance:
    """Tiny environment with additive rewards and enumerable slate sets."""

    def __init__(self, space, contexts, phi):
        self.space = space
        self.contexts = list(contexts)
        self.phi = phi

    def reward(self, context, slate, rng=None):
        return float(self.phi[context][self.space.coords(slate)].sum())

    def sample_context(self, rng):
        return self.contexts[rng.integers(len(self.contexts))]


def make_ada_instance(space=None, num_contexts=5, seed=0) -> AdaInstance:
    space = space if space is not None else SlateSpace.ranking(4, 3)
    rng = np.random.default_rng(seed)
    contexts = list(range(num_contexts))
    # per-coordinate values scaled so every slate reward stays in [0, 1]
    phi = {c: rng.uniform(0.0, 1.0 / space.num_slots, size=space.dim) for c in contexts}
    return AdaInstance(space, contexts, phi)


def mixture_logging_policy(instance, kappa, rng, sparsity=0.4) -> UniformMixturePolicy:
    base = random_explicit_policy(instance.space, instance.contexts, rng, sparsity=sparsity)
    return UniformMixturePolicy(base, kappa)


def draw_ada_logs(instance, logging, n, rng) -> list[LoggedExample]:
    logs = []
    for _ in range(n):
        context = instance.sample_context(rng)
        slate = logging.sample(context, rng)
        logs.append(LoggedExample(context, slate, instance.reward(context, slate)))
    return logs


def rho_bar_uniform(space) -> float:
    """Largest slate self-overlap under uniform logging, in closed form."""
    if space.kind is SpaceKind.CARTESIAN:
        return float(sum(space.slot_counts) - space.num_slots + 1)
    m, ell = space.num_actions, space.num_slots
    if ell < m:
        return float(m * ell - ell + 1)
    return float(m * m - 2 * m + 2)


def write_matrix(path, matrix) -> None:
    """Row-major text serialization at 17 significant digits."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for row in matrix:
            handle.write(" ".join(fmt17(x) for x in row) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().split()
        rows, cols = int(header[0]), int(header[1])
        data = [[float(x) for x in handle.readline().split()] for _ in range(rows)]
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.shape != (rows, cols):
        raise ParseError(f"{path}: matrix body does not match header {rows}x{cols}")
    return matrix


def write_explicit_policy(path, policy: ExplicitPolicy) -> None:
    """Write a policy in the tab-separated format ``load_explicit_policy`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for context in policy.contexts:
            for slate, prob in policy.support(context):
                slate_text = ",".join(str(a) for a in slate)
                handle.write(f"{context}\t{slate_text}\t{prob!r}\n")


def keyed_features(space, dim, seed):
    """Feature map over ``space`` (a SlateSpace, or a per-context mapping or
    callable): each context's table repeats one normal vector per (context,
    action) in every slot that offers the action. Vectors are drawn on
    first use, in slot-major action-minor order."""
    rng = np.random.default_rng(seed)
    cache = {}

    def features(context):
        rows = []
        for count in space_of(space, context).slot_counts:
            for action in range(count):
                if (context, action) not in cache:
                    cache[context, action] = rng.normal(size=dim)
                rows.append(cache[context, action])
        return np.stack(rows)

    return features


def decompose_reference(data, logging, source) -> list[np.ndarray]:
    """``decompose``'s target blocks, one per context in batch order, from
    the sums ``pinv[:, coords].sum(axis=2)`` of each logged slate's
    pseudoinverse columns, times the rewards, one row per example."""
    batch = LoggedBatch.from_examples(data)
    blocks = []
    for context, rows in batch.groups():
        pinv = source.pseudoinverse(logging, context)
        coords = logging.space_of(context).coords_of_actions(batch.actions[rows])
        blocks.append(np.ascontiguousarray((pinv[:, coords].sum(axis=2) * batch.rewards[rows]).T))
    return blocks


def _design_matrix(space, context, features, feature_dim) -> np.ndarray:
    """Optimizer design rows for every (slot, action) coordinate,
    slot-major action-minor."""
    return _slot_design(space, _feature_table(space, context, features), feature_dim)


def _fold_moments(targets, feature_dim, folds) -> FoldMoments:
    """Per-fold normal-equation moments of the regression rows, reading each
    context's feature table from the targets' feature map."""
    tables = [_feature_table(targets.spaces[c], c, targets.features) for c in targets.contexts]
    return _table_moments(targets, tables, feature_dim, folds)


def fold_moments_reference(targets, feature_dim, folds) -> FoldMoments:
    """Per-fold regression moments from per-(fold, coordinate) ``bincount``s
    over every row of each target block, with the design matrix filled one
    (slot, action) coordinate at a time from the context's feature table."""
    width = targets.num_slots + feature_dim
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
        table = targets.features(context)
        design = np.zeros((space.dim, width))
        for j in range(space.num_slots):
            for a in range(space.slot_counts[j]):
                design[coord(space, j, a), j] = 1.0
                design[coord(space, j, a), targets.num_slots:] = table[coord(space, j, a)]
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


def greedy_reference(scores, space) -> tuple[int, ...]:
    """Greedy slate of one score table, one (slot, action) pick per round,
    with the optimizer's tie tolerance and exclusion rules."""
    scores = np.asarray(scores, dtype=np.float64)
    available = np.isfinite(scores)
    slate = [-1] * space.num_slots
    for _ in range(space.num_slots):
        masked = np.where(available, scores, -np.inf)
        best = float(masked.max())
        if not np.isfinite(best):
            raise ConfigurationError("no available (slot, action) pair left to place")
        tol = 1e-9 * max(1.0, abs(best))
        slot, action = divmod(int(np.argmax(masked >= best - tol)), scores.shape[1])
        slate[slot] = action
        available[slot, :] = False
        if space.kind is SpaceKind.RANKING:
            available[:, action] = False
    return space.validate(tuple(slate))


def plackett_luce_log_probs_reference(logits, actions) -> np.ndarray:
    """Per-slate Plackett-Luce log-probabilities under one logits vector: each
    step compacts the logits still available to every row, in pool order,
    and takes its log-sum-exp."""
    n, m = len(actions), len(logits)
    rows = np.arange(n)
    available = np.ones((n, m), dtype=bool)
    log_prob = np.zeros(n)
    for j in range(actions.shape[1]):
        rest = logits[np.nonzero(available)[1].reshape(n, m - j)]
        peak = rest.max(axis=1)
        chosen = actions[:, j]
        log_prob += logits[chosen] - peak - np.log(np.exp(rest - peak[:, None]).sum(axis=1))
        available[rows, chosen] = False
    return log_prob


def scored_reference(data, logging, target, delta=0.05) -> dict:
    """pi (with its diagnostics), ips, wips, sb and wsb from a loop that
    scores one context at a time through ``slate_prob_batch`` and reads each
    context's mean indicators and pseudoinverse directly."""
    batch = LoggedBatch.from_examples(data)
    n = len(batch)
    source = PinvSource()
    weights, coefficients, quad = np.empty(n), np.empty(n), np.empty(n)
    slot_weights = np.empty(batch.actions.shape)
    for context, rows in batch.groups():
        actions = batch.actions[rows]
        mu = logging.slate_prob_batch(context, actions)
        if (mu <= 0.0).any():
            raise AbsoluteContinuityError(f"zero logging propensity at {context!r}")
        weights[rows] = target.slate_prob_batch(context, actions) / mu
        coords = logging.space_of(context).coords_of_actions(actions)
        q = target.mean_indicator(context)
        w = q @ source.pseudoinverse(logging, context)
        coefficients[rows] = w[coords].sum(axis=1)
        quad[rows] = float(w @ q)
        slot_weights[rows] = q[coords] / logging.mean_indicator(context)[coords]
    rewards, values = batch.rewards, batch.slot_values
    sigma_sq = pairwise_sum(quad) / n
    rho = float(np.abs(coefficients).max())
    return {
        "pi": pairwise_sum(rewards * coefficients) / n,
        "sigma_sq": sigma_sq,
        "rho": rho,
        "bound": bernstein_bound(sigma_sq, rho, n, delta),
        "ips": pairwise_sum(rewards * weights) / n,
        "wips": pairwise_sum(rewards * weights) / pairwise_sum(weights),
        "sb": sum(
            pairwise_sum(values[:, j] * slot_weights[:, j]) / n for j in range(batch.num_slots)
        ),
        "wsb": sum(
            pairwise_sum(values[:, j] * slot_weights[:, j]) / pairwise_sum(slot_weights[:, j])
            for j in range(batch.num_slots)
        ),
    }
