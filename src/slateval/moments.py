"""Second-moment matrices of slate indicators and their pseudoinverses.

For a logging policy and context, the matrix is the expectation of the
outer product of the slate-indicator vector with itself. Its entries are
the per-slot marginals on the diagonal, the cross-slot pairwise marginals
off the diagonal, and zeros within a slot block. The Moore-Penrose
pseudoinverse of this matrix is what turns logged page-level rewards back
into per-(slot, action) quantities.

Uniform logging admits exact closed-form pseudoinverses for both space
shapes; everything else goes through a symmetric eigendecomposition of the
matrix summed over the policy's ``moment_arrays`` rows (exact support or
seeded sample, as the policy decides).

``PinvSource`` caches one ``MomentRecord`` (matrix and pseudoinverse) per
(logging policy, context), which the estimators, the optimizer and the
diagnostics all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SlateError
from .policies import Policy, UniformMixturePolicy
from .spaces import SlateSpace, SpaceKind

DEFAULT_RCOND = 1e-10
SYMMETRY_TOL = 1e-8


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


def moment_matrix(policy: Policy, context, space: SlateSpace | None = None) -> MomentMatrix:
    """Build the indicator second-moment matrix of ``policy`` at ``context``.

    Exact closed form for uniform policies; otherwise the probability-weighted
    sum of indicator outer products over ``policy.moment_arrays``: exact over
    a listed support, and a Monte Carlo average over a sample.
    Mixtures combine their components so they stay exact whenever the
    components are.
    """
    space = space if space is not None else policy.space_of(context)
    if policy.is_uniform(context):
        return uniform_moment_matrix(space)
    if isinstance(policy, UniformMixturePolicy):
        uniform_part = uniform_moment_matrix(space)
        base_part = moment_matrix(policy.base, context, space)
        entries = policy.kappa * uniform_part.entries + (1.0 - policy.kappa) * base_part.entries
        return MomentMatrix(space, entries, base_part.provenance, base_part.sample_count)
    arrays = policy.moment_arrays(context)
    # Every cell belongs to one (slot j, slot k) pair, so one bincount over
    # the flattened (row, j, k) cells adds each cell's terms in row order;
    # cells (a, b) and (b, a) get the same terms, so the sum is symmetric.
    dim = space.dim
    coords = space.coords_of_actions(arrays.actions)
    cells = coords[:, :, None] * dim + coords[:, None, :]
    weights = np.repeat(arrays.probs, space.num_slots**2)
    entries = np.bincount(cells.ravel(), weights, minlength=dim**2).reshape(dim, dim)
    if arrays.exact:
        return MomentMatrix(space, entries, Provenance.ENUMERATED)
    return MomentMatrix(space, entries, Provenance.MONTE_CARLO, sample_count=len(arrays.probs))


def pinv_numeric(matrix: MomentMatrix | np.ndarray, rcond: float = DEFAULT_RCOND) -> PseudoInverse:
    """Pseudoinverse via symmetric eigendecomposition.

    Eigenvalues below ``rcond`` times the largest one are treated as zero;
    negative eigenvalues (Monte Carlo noise) are clipped away by the same
    cutoff. Exactly diagonal input is inverted entrywise.
    """
    entries = matrix.entries if isinstance(matrix, MomentMatrix) else np.asarray(matrix, float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise SlateError(f"expected a square matrix, got shape {entries.shape}")
    asym = np.abs(entries - entries.T).max() if entries.size else 0.0
    if asym > SYMMETRY_TOL:
        raise SlateError(f"matrix is not symmetric (max asymmetry {asym:.3g})")
    entries = 0.5 * (entries + entries.T)

    diagonal = not (entries - np.diag(np.diag(entries))).any()
    eigvals, eigvecs = (np.diag(entries).copy(), None) if diagonal else np.linalg.eigh(entries)
    cutoff = rcond * float(eigvals.max(initial=0.0))
    keep = eigvals > cutoff
    inv = np.zeros_like(eigvals)
    inv[keep] = 1.0 / eigvals[keep]
    pinv = np.diag(inv) if diagonal else (eigvecs * inv) @ eigvecs.T
    return PseudoInverse(0.5 * (pinv + pinv.T), rank=int(keep.sum()), singular_cutoff=cutoff)


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


@dataclass(frozen=True)
class MomentRecord:
    """A moment matrix and its pseudoinverse, built together once per key."""

    matrix: MomentMatrix
    pinv: PseudoInverse


class PinvSource:
    """Builds and caches one ``MomentRecord`` per key: the space for a policy
    that is uniform at the context, whose closed forms depend on nothing
    else, and (policy, context) otherwise."""

    def __init__(self):
        self._cache: dict = {}

    def record(self, policy: Policy, context) -> MomentRecord:
        space = policy.space_of(context)
        uniform = policy.is_uniform(context)
        key = space if uniform else (policy, context)
        cached = self._cache.get(key)
        if cached is None:
            matrix = moment_matrix(policy, context, space)
            pinv = pinv_uniform(space) if uniform else pinv_numeric(matrix)
            cached = self._cache[key] = MomentRecord(matrix, pinv)
        return cached

    def pseudoinverse(self, policy: Policy, context) -> np.ndarray:
        return self.record(policy, context).pinv.entries
