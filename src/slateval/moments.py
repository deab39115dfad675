"""Second-moment matrices of slate indicators and their pseudoinverses.

For a logging policy and context, the matrix is the expectation of the
outer product of the slate-indicator vector with itself. Its entries are
the per-slot marginals on the diagonal, the cross-slot pairwise marginals
off the diagonal, and zeros within a slot block. The Moore-Penrose
pseudoinverse of this matrix is what turns logged page-level rewards back
into per-(slot, action) quantities.

Uniform logging admits exact closed-form pseudoinverses for both space
shapes, one per space. Everything else is built per (policy, space) as an
(N, dim, dim) stack over contexts: the policy lists the ``moment_rows`` of
all N contexts at once (exact supports or seeded samples, as it decides),
one bincount per slot pair accumulates them, and the pseudoinverses come
from one stacked symmetric eigendecomposition with per-matrix cutoffs.
Every cell adds its context's rows in row order, so a matrix does not
depend on which contexts share its stack.

``PinvSource`` keeps one stacked moment store per (logging policy, space),
one row per context with its matrix, pseudoinverse, rank, cutoff,
provenance and sample count, filled in stacked builds of bounded size
(``context_runs``); under uniform logging one closed-form row per space
serves every context. The estimators, the optimizer and the diagnostics
all read it by one fancy index (or a broadcast of that row), over runs of
the same bound.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import SlateError
from .policies import ContextColumns, MomentArrays, Policy, UniformMixturePolicy
from .spaces import SlateSpace, SpaceKind

DEFAULT_RCOND = 1e-10
SYMMETRY_TOL = 1e-8
STACK_CELLS = 1 << 18  # bounds one (contexts, dim, dim) stack: 2 MB of float64


class Provenance(Enum):
    ENUMERATED = "enumerated"
    MONTE_CARLO = "monte_carlo"
    CLOSED_FORM_UNIFORM_CARTESIAN = "closed_form_uniform_cartesian"
    CLOSED_FORM_UNIFORM_RANKING = "closed_form_uniform_ranking"


@dataclass(frozen=True)
class MomentMatrix:
    """Indicator second-moment matrix with a record of how it was built."""

    space: SlateSpace
    entries: np.ndarray
    provenance: Provenance
    sample_count: int | None = None


@dataclass(frozen=True)
class PseudoInverse:
    """Moore-Penrose pseudoinverse of a moment matrix."""

    entries: np.ndarray
    rank: int
    singular_cutoff: float


def uniform_moment_matrix(space: SlateSpace) -> MomentMatrix:
    """Closed-form moment matrix of the uniform policy (any space size)."""
    counts = np.repeat(np.asarray(space.slot_counts, dtype=np.float64), space.slot_counts)
    slot = np.repeat(np.arange(space.num_slots), space.slot_counts)
    if space.kind is SpaceKind.CARTESIAN:
        entries = 1.0 / np.outer(counts, counts)
        provenance = Provenance.CLOSED_FORM_UNIFORM_CARTESIAN
    else:  # a ranking repeats no action (and m = 1 has no cross-slot pairs)
        m = space.num_actions
        action = np.tile(np.arange(m), space.num_slots)
        entries = np.where(action[:, None] == action, 0.0, 1.0 / max(m * (m - 1), 1))
        provenance = Provenance.CLOSED_FORM_UNIFORM_RANKING
    entries[slot[:, None] == slot] = 0.0
    np.fill_diagonal(entries, 1.0 / counts)
    return MomentMatrix(space, entries, provenance)


def moment_matrix(policy: Policy, contexts, space: SlateSpace | None = None) -> MomentMatrix:
    """Build the indicator second-moment matrix of ``policy`` at one context,
    or the (N, dim, dim) stack at a list of N contexts on one space (a list
    is never a context: contexts are hashable).

    Exact closed form where the policy is uniform (at every listed context
    or at none); otherwise the probability-weighted sum of indicator outer
    products over ``policy.moment_rows``: exact over a listed support, and
    a Monte Carlo average over a sample. Mixtures combine their components
    so they stay exact whenever the components are.
    """
    batch = contexts if isinstance(contexts, list) else [contexts]
    space = space if space is not None else policy.space_of(batch[0])
    uniform = [policy.is_uniform(c) for c in batch]
    if any(uniform):
        if not all(uniform):
            raise SlateError("a moment stack mixes contexts where the policy is uniform and not")
        closed = uniform_moment_matrix(space)
        if batch is not contexts:
            return closed
        shape = (len(batch), *closed.entries.shape)
        return replace(closed, entries=np.broadcast_to(closed.entries, shape))
    if isinstance(policy, UniformMixturePolicy):
        uniform_part = uniform_moment_matrix(space)
        base_part = moment_matrix(policy.base, contexts, space)
        entries = policy.kappa * uniform_part.entries + (1.0 - policy.kappa) * base_part.entries
        return replace(base_part, entries=entries)
    rows = policy.moment_rows(batch, space)
    entries = _moment_stack(space, rows, policy.mean_indicators(batch, space))
    entries = entries if batch is contexts else entries[0]
    if rows.exact:
        return MomentMatrix(space, entries, Provenance.ENUMERATED)
    return MomentMatrix(space, entries, Provenance.MONTE_CARLO, sample_count=int(rows.bounds[1]))


def _moment_stack(space: SlateSpace, rows: MomentArrays, means: np.ndarray) -> np.ndarray:
    """(N, dim, dim) second moments of each context's rows, given the mean
    indicators the policy sums over the same rows.

    The diagonal holds those per-slot marginals; each cross-slot block
    (j, k), j < k, is one bincount over the rows of a run of contexts
    (``MomentArrays.chunks``), mirrored into (k, j). Every cell adds its
    context's terms in row order, as one bincount per context would, and
    the matrices come out exactly symmetric.
    """
    n, dim = len(rows.bounds) - 1, space.dim
    entries = np.zeros((n, dim, dim))
    entries.reshape(n, dim * dim)[:, :: dim + 1] = means
    spans = list(zip(space.offsets.tolist(), space.slot_counts))
    for lo, hi, part in rows.chunks():
        codes, stack = part.codes(), entries[lo:hi]
        for j, (oj, mj) in enumerate(spans):
            for k in range(j + 1, len(spans)):
                ok, mk = spans[k]
                cells = (codes * mj + part.actions[:, j]) * mk + part.actions[:, k]
                block = np.bincount(cells, part.probs, minlength=(hi - lo) * mj * mk)
                block = block.reshape(hi - lo, mj, mk)
                stack[:, oj : oj + mj, ok : ok + mk] = block
                stack[:, ok : ok + mk, oj : oj + mj] = block.transpose(0, 2, 1)
    return entries


def pinv_numeric(matrix: MomentMatrix | np.ndarray, rcond: float = DEFAULT_RCOND) -> PseudoInverse:
    """Pseudoinverse via symmetric eigendecomposition, of one matrix or of
    each matrix of an (N, dim, dim) stack (rank and cutoff then per matrix).

    Eigenvalues below ``rcond`` times a matrix's largest one are treated as
    zero; negative eigenvalues (Monte Carlo noise) are clipped away by the
    same cutoff. Exactly diagonal matrices are inverted entrywise, the
    others share one stacked eigendecomposition and reconstruction.
    """
    entries = matrix.entries if isinstance(matrix, MomentMatrix) else np.asarray(matrix, float)
    if entries.ndim not in (2, 3) or entries.shape[-1] != entries.shape[-2]:
        raise SlateError(f"expected a square matrix, got shape {entries.shape}")
    stack = entries if entries.ndim == 3 else entries[None]
    flipped = stack.transpose(0, 2, 1)
    asym = np.abs(stack - flipped).max(axis=(1, 2), initial=0.0)
    if (asym > SYMMETRY_TOL).any():
        worst = asym[np.argmax(asym > SYMMETRY_TOL)]
        raise SlateError(f"matrix is not symmetric (max asymmetry {worst:.3g})")
    stack = 0.5 * (stack + flipped)

    n, dim = stack.shape[:2]
    diag = np.arange(dim)
    eigvals = stack[:, diag, diag]  # a copy; the eigenvalues of the diagonal matrices
    off_diagonal = stack.copy()
    off_diagonal[:, diag, diag] = 0.0
    full = off_diagonal.reshape(n, -1).any(axis=1)
    eigvecs = None
    if full.any():
        eigvals[full], eigvecs = np.linalg.eigh(stack[full])
    cutoff = rcond * eigvals.max(axis=1, initial=0.0)
    keep = eigvals > cutoff[:, None]
    inv = np.zeros_like(eigvals)
    inv[keep] = 1.0 / eigvals[keep]
    pinv = np.zeros_like(stack)
    pinv[:, diag, diag] = np.where(full[:, None], 0.0, inv)
    if eigvecs is not None:
        pinv[full] = (eigvecs * inv[full][:, None, :]) @ eigvecs.transpose(0, 2, 1)
    pinv = 0.5 * (pinv + pinv.transpose(0, 2, 1))
    rank = keep.sum(axis=1)
    if entries.ndim == 2:
        return PseudoInverse(pinv[0], rank=int(rank[0]), singular_cutoff=float(cutoff[0]))
    return PseudoInverse(pinv, rank=rank, singular_cutoff=cutoff)


def pinv_uniform_cartesian(space: SlateSpace) -> PseudoInverse:
    """Closed-form pseudoinverse for uniform logging on a product space."""
    if space.kind is not SpaceKind.CARTESIAN:
        raise SlateError("expected a Cartesian-product space")
    counts = np.asarray(space.slot_counts, dtype=np.float64)
    slot = np.repeat(np.arange(space.num_slots), space.slot_counts)
    v = np.repeat(1.0 / counts, space.slot_counts)
    inv_sum = float((1.0 / counts).sum())
    entries = np.diag(counts[slot]) - (slot[:, None] == slot) + np.outer(v, v) / inv_sum**2
    rank = 1 + int((counts - 1).sum())
    return PseudoInverse(entries, rank=rank, singular_cutoff=0.0)


def pinv_uniform_ranking(space: SlateSpace) -> PseudoInverse:
    """Closed-form pseudoinverse for uniform logging on a ranking space.

    The full-permutation case (slots == pool size) has a different
    spectrum from the partial-ranking case and its own expression.
    """
    if space.kind is not SpaceKind.RANKING:
        raise SlateError("expected a ranking space")
    m = space.num_actions
    ell = space.num_slots
    ones = np.ones((space.dim, space.dim))
    eye = np.eye(space.dim)
    slot_blocks = np.kron(np.eye(ell), np.ones((m, m)))
    action_blocks = np.kron(np.ones((ell, ell)), np.eye(m))
    if ell < m:
        coef_ones = 1.0 / ell**2 - (m - 1.0) / (m * (m - ell))
        entries = (
            coef_ones * ones
            + (m - 1.0) * eye
            - (m - 1.0) / m * slot_blocks
            + (m - 1.0) / (m - ell) * action_blocks
        )
        rank = ell * m - ell + 1
    else:
        entries = (
            ones / m
            + (m - 1.0) * eye
            - (m - 1.0) / m * slot_blocks
            - (m - 1.0) / m * action_blocks
        )
        rank = 1 + (m - 1) ** 2
    return PseudoInverse(entries, rank=rank, singular_cutoff=0.0)


def pinv_uniform(space: SlateSpace) -> PseudoInverse:
    if space.kind is SpaceKind.CARTESIAN:
        return pinv_uniform_cartesian(space)
    return pinv_uniform_ranking(space)


def context_runs(n: int, dim: int) -> list[tuple[int, int]]:
    """Runs [lo, hi) of n contexts whose (contexts, dim, dim) stacks hold at
    most ``STACK_CELLS`` cells each (or one context): what a stacked build
    or product takes at a time, so its temporaries stay bounded."""
    step = max(1, STACK_CELLS // dim**2)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


class PinvSource:
    """One moment store per key: the space where the policy is uniform,
    whose one closed-form row serves every uniform policy on it, and
    (policy, space) otherwise. A store holds each context's moment matrix
    ``gamma``, pseudoinverse ``pinv``, rank, cutoff, provenance and sample
    count as ``ContextColumns``, each column read-only to its readers."""

    def __init__(self):
        self._stores = defaultdict(ContextColumns)

    def moments(self, policy: Policy, contexts) -> tuple[ContextColumns, np.ndarray]:
        """The store of the moments at contexts on one space and each
        context's row in it: all 0 in the one-row store where the policy is
        uniform. The missing contexts are built together, as stacks of at
        most ``STACK_CELLS`` cells."""
        space = policy.space_of(contexts[0])
        uniform = [policy.is_uniform(c) for c in contexts]
        if any(uniform) != all(uniform):
            raise SlateError("a moment stack mixes contexts where the policy is uniform and not")
        store = self._stores[space if uniform[0] else (policy, space)]
        if uniform[0]:
            if not store.index:
                matrix, pinv = moment_matrix(policy, contexts[0], space), pinv_uniform(space)
                store.append(
                    [space], gamma=[matrix.entries], pinv=[pinv.entries], rank=[pinv.rank],
                    cutoff=[pinv.singular_cutoff], provenance=[matrix.provenance], sample_count=[0],
                )
            return store, np.zeros(len(contexts), dtype=np.int64)
        missing = store.missing(contexts)
        for lo, hi in context_runs(len(missing), space.dim):
            matrices = moment_matrix(policy, missing[lo:hi], space)
            pinvs = pinv_numeric(matrices)
            store.append(
                missing[lo:hi], gamma=matrices.entries, pinv=pinvs.entries, rank=pinvs.rank,
                cutoff=pinvs.singular_cutoff, provenance=[matrices.provenance] * (hi - lo),
                sample_count=[matrices.sample_count or 0] * (hi - lo),  # 0 where exact
            )
        return store, store.rows(contexts)

    def pseudoinverse(self, policy: Policy, context) -> np.ndarray:
        """The pseudoinverse at one context: a read-only row of its store."""
        store, rows = self.moments(policy, [context])
        return store.column("pinv")[rows[0]]

    def pinv_stack(self, policy: Policy, contexts) -> np.ndarray:
        """(N, dim, dim) pseudoinverses at contexts on one space: one fancy
        index of their store, or a read-only broadcast of its row when it
        has one (uniform logging)."""
        store, rows = self.moments(policy, contexts)
        pinv = store.column("pinv")
        if len(pinv) == 1:
            return np.broadcast_to(pinv[0], (len(rows), *pinv.shape[1:]))
        return pinv[rows]
