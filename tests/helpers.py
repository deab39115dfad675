"""Shared builders for the test suite."""

from dataclasses import dataclass

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
from slateval.optimization import (
    FOLDS,
    DecomposedTargets,
    _greedy_slates,
    _slot_design,
    _table_moments,
)
from slateval.ridge import FoldMoments
from slateval.spaces import space_of
from slateval.diagnostics import _Overlaps, bernstein_bound
from slateval.util import fmt, fmt17, pairwise_sum


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


@dataclass(frozen=True)
class ExampleTargets:
    """Per-example regression targets, one block per context in order of
    first appearance: ``blocks[b]`` holds one row per example of
    ``contexts[b]``, in example order, and ``residues[b]`` each row's fold
    residue class."""

    contexts: tuple
    blocks: tuple
    residues: tuple
    spaces: dict
    features: object
    num_slots: int

    def summed(self) -> DecomposedTargets:
        """The targets as ``decompose`` keeps them: per context, the example
        count and the target sums of each residue class, each sum one
        ``bincount`` in example order."""
        counts, sums = [], []
        for context, block, residues in zip(self.contexts, self.blocks, self.residues):
            dim = self.spaces[context].dim
            keys = (residues[:, None] * dim + np.arange(dim)).ravel()
            counts.append(np.bincount(residues, minlength=FOLDS))
            sums.append(np.bincount(keys, block.ravel(), FOLDS * dim).reshape(FOLDS, dim))
        return DecomposedTargets(
            contexts=self.contexts,
            counts=tuple(counts),
            phi_hats=tuple(sums),
            spaces=self.spaces,
            features=self.features,
            num_slots=self.num_slots,
        )


def example_targets(contexts, phi_hats, spaces, features, num_slots) -> ExampleTargets:
    """Per-example targets from one (context, target vector) pair per
    example. An example's regression rows start at the running sum of the
    dims of the examples before it, and its residue class is that start
    modulo ``FOLDS``."""
    order = list(dict.fromkeys(contexts))
    members = {context: [] for context in order}
    start = 0
    for context, phi_hat in zip(contexts, phi_hats):
        members[context].append((phi_hat, start % FOLDS))
        start += spaces[context].dim
    return ExampleTargets(
        contexts=tuple(order),
        blocks=tuple(np.stack([phi for phi, _ in members[c]]) for c in order),
        residues=tuple(np.array([r for _, r in members[c]], dtype=np.int64) for c in order),
        spaces=spaces,
        features=features,
        num_slots=num_slots,
    )


def decompose_reference(data, logging, source, features=None) -> ExampleTargets:
    """``decompose``'s per-example targets: the sums
    ``pinv[:, coords].sum(axis=2)`` of each logged slate's pseudoinverse
    columns, times the reward, one row per example."""
    batch = LoggedBatch.from_examples(data)
    targets = [None] * len(batch)
    for context, rows in batch.groups():
        pinv = source.pseudoinverse(logging, context)
        coords = logging.space_of(context).coords_of_actions(batch.actions[rows])
        for row, target in zip(rows.tolist(), (pinv[:, coords].sum(axis=2) * batch.rewards[rows]).T):
            targets[row] = target
    contexts = [example.context for example in batch]
    spaces = {context: logging.space_of(context) for context in contexts}
    return example_targets(contexts, targets, spaces, features, batch.num_slots)


def _design_matrix(space, context, features, feature_dim) -> np.ndarray:
    """Optimizer design rows for every (slot, action) coordinate,
    slot-major action-minor."""
    return _slot_design(space, _feature_table(space, context, features), feature_dim)


def _fold_moments(targets, feature_dim) -> FoldMoments:
    """Per-fold normal-equation moments of the regression rows, reading each
    context's feature table from the targets' feature map."""
    tables = [_feature_table(targets.spaces[c], c, targets.features) for c in targets.contexts]
    return _table_moments(targets, tables, feature_dim)


def fold_moments_reference(targets: ExampleTargets, feature_dim) -> FoldMoments:
    """Per-fold regression moments from per-(fold, coordinate) ``bincount``s
    over every row of each per-example target block, with the design matrix
    filled one (slot, action) coordinate at a time from the context's
    feature table."""
    width = targets.num_slots + feature_dim
    xtx = np.zeros((FOLDS, width, width))
    xty = np.zeros((FOLDS, width))
    counts = np.zeros(FOLDS)
    for context, block, residues in zip(targets.contexts, targets.blocks, targets.residues):
        space = targets.spaces[context]
        table = targets.features(context)
        design = np.zeros((space.dim, width))
        for j in range(space.num_slots):
            for a in range(space.slot_counts[j]):
                design[coord(space, j, a), j] = 1.0
                design[coord(space, j, a), targets.num_slots:] = table[coord(space, j, a)]
        local = np.arange(space.dim)
        keys = ((residues[:, None] + local) % FOLDS * space.dim + local).ravel()
        size = FOLDS * space.dim
        n_rows = np.bincount(keys, minlength=size).reshape(FOLDS, space.dim)
        sums = np.bincount(keys, weights=block.ravel(), minlength=size).reshape(FOLDS, space.dim)
        xtx += (design.T * n_rows[:, None, :]) @ design
        xty += sums @ design
        counts += n_rows.sum(axis=1)
    return FoldMoments(xtx=xtx, xty=xty, counts=counts)


def greedy_slate(scorer, context, space, features) -> tuple[int, ...]:
    """One context's greedy slate from the scorer's score table; see
    ``slateval.optimization._greedy_slates`` for the rule."""
    scores = scorer.score_tables((context,), space, features)
    return space.validate(_greedy_slates(scores, space)[0])


def kappa_of(logging, context, *, reference=None) -> float:
    """Smallest ratio of pairwise slot-action probabilities to a reference.

    The reference defaults to the uniform policy. The minimum runs over
    the reference's positive cross-slot pairwise probabilities and is
    clipped at 1. Single-slot spaces have no pairs, so the per-action
    marginal ratios are used instead.
    """
    return float(_Overlaps(PinvSource(), logging, [context]).kappa(reference)[0])


def write_logged_dataset(path, examples) -> None:
    """Write examples in the tab-separated format ``read_logged_dataset`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for ex in examples:
            slate_text = ",".join(str(a) for a in ex.slate)
            handle.write(f"{ex.context}\t{slate_text}\t{fmt(ex.reward)}\n")


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
