"""Shared builders for the test suite."""

import numpy as np

from slateval import (
    ExplicitPolicy,
    LoggedExample,
    ParseError,
    SlateSpace,
    SpaceKind,
    UniformMixturePolicy,
)
from slateval.util import fmt17


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
