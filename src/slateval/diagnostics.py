"""Overlap diagnostics between a logging and a target policy.

Three scalars govern how well logged data supports an offline estimate:
``sigma_sq`` (average overlap), ``rho`` (worst-case overlap over logged
slates), and ``rho_bar`` (largest slate self-overlap on the logging
support). They satisfy sigma_sq <= rho <= rho_bar, all equal 1 when the
target equals the logging policy, and plug into a Bernstein-style
deviation bound.

The slate maxima run over the logging policy's ``moment_arrays`` rows: its
exact support when the policy lists it, else the same seeded sample its
second moments and mean indicator are built from. Every diagnostic is a
reduction of one per-context step that reads the cached moment records of
a ``PinvSource``, and ``overlap_profile`` makes one pass over the contexts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from .errors import AbsoluteContinuityError, ConfigurationError
from .moments import PinvSource
from .policies import Policy, UniformPolicy
from .util import fmt


@dataclass(frozen=True)
class OverlapProfile:
    """Aggregated overlap diagnostics over a context sample.

    The maxima and minima are empirical (taken over the provided
    contexts), not suprema over the whole context distribution.
    """

    sigma_sq: float
    rho: float
    rho_bar: float
    kappa: float

    CSV_HEADER: ClassVar[str] = "sigma_sq,rho,rho_bar,kappa"

    def to_csv_row(self) -> str:
        return ",".join(fmt(getattr(self, f.name)) for f in fields(self))

    def to_kv_block(self) -> str:
        return "\n".join(f"{f.name}={fmt(getattr(self, f.name))}" for f in fields(self))


def bernstein_bound(sigma_sq: float, rho: float, n: int, delta: float) -> float:
    """High-probability deviation bound from the overlap diagnostics."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    if n < 1:
        raise ConfigurationError(f"need at least one sample, got n={n}")
    log_term = math.log(2.0 / delta)
    return math.sqrt(2.0 * sigma_sq * log_term / n) + 2.0 * (rho + 1.0) * log_term / (3.0 * n)


def _require_space(policy: Policy, context, space, role: str) -> None:
    if policy.space_of(context) != space:
        raise ConfigurationError(
            f"the {role} policy's space at context {context!r} differs from the logging space"
        )


class _ContextOverlap:
    """The logging policy's overlaps at one context, read lazily from cached records."""

    def __init__(self, source: PinvSource, logging: Policy, context, target: Policy | None = None):
        self.source, self.logging, self.context, self.target = source, logging, context, target
        self.record = source.record(logging, context)
        self.space = self.record.matrix.space

    @cached_property
    def coords(self) -> np.ndarray:
        return self.space.coords_of_actions(self.logging.moment_arrays(self.context).actions)

    @cached_property
    def w(self) -> np.ndarray:
        """q' pinv, with q the target's mean indicator."""
        _require_space(self.target, self.context, self.space, "target")
        return self.target.mean_indicator(self.context) @ self.record.pinv.entries

    @property
    def sigma_sq(self) -> float:
        return float(self.w @ self.target.mean_indicator(self.context))

    @property
    def rho(self) -> float:
        return float(np.abs(self.w[self.coords].sum(axis=1)).max())

    @property
    def rho_bar(self) -> float:
        pinv, coords, slots = self.record.pinv.entries, self.coords, range(self.space.num_slots)
        return float(sum(pinv[coords[:, j], coords[:, k]] for j in slots for k in slots).max())

    def kappa(self, reference: Policy | None = None) -> float:
        reference = reference if reference is not None else UniformPolicy(self.space)
        _require_space(reference, self.context, self.space, "reference")
        gamma_ref = self.source.record(reference, self.context).matrix.entries
        # cross-slot pairs; a single-slot space has none and compares marginals
        slot = np.repeat(np.arange(self.space.num_slots), self.space.slot_counts)
        positive = (gamma_ref > 0.0) & ((slot[:, None] != slot) | (self.space.num_slots == 1))
        ratio = self.record.matrix.entries[positive] / gamma_ref[positive]
        return float(min(ratio.min(), 1.0)) if ratio.size else 1.0


def _overlaps(contexts: Sequence, logging: Policy, target: Policy, source: PinvSource | None):
    """One ``_ContextOverlap`` per context, in order, sharing one source."""
    if len(contexts) == 0:
        raise ConfigurationError("the overlap diagnostics need at least one context")
    source = source or PinvSource()
    return (_ContextOverlap(source, logging, context, target) for context in contexts)


def compute_sigma_sq(
    contexts: Sequence,
    logging: Policy,
    target: Policy,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Mean over contexts of the target mean indicator's quadratic overlap."""
    overlaps = _overlaps(contexts, logging, target, pinv_source)
    return sum(step.sigma_sq for step in overlaps) / len(contexts)


def compute_rho(
    contexts: Sequence,
    logging: Policy,
    target: Policy,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Largest absolute overlap coefficient over contexts and logged slates
    (the logging policy's moment rows: its support, or its seeded sample)."""
    return max(step.rho for step in _overlaps(contexts, logging, target, pinv_source))


def compute_rho_bar(
    logging: Policy,
    context,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Largest slate self-overlap on the logging support at one context."""
    return _ContextOverlap(pinv_source or PinvSource(), logging, context).rho_bar


def kappa_of(logging: Policy, context, *, reference: Policy | None = None) -> float:
    """Smallest ratio of pairwise slot-action probabilities to a reference.

    The reference defaults to the uniform policy. The minimum runs over
    the reference's positive cross-slot pairwise probabilities and is
    clipped at 1. Single-slot spaces have no pairs, so the per-action
    marginal ratios are used instead.
    """
    return _ContextOverlap(PinvSource(), logging, context).kappa(reference)


@dataclass(frozen=True)
class TranslationCheck:
    lhs: float  # kappa * rho_bar(logging)
    rhs: float  # rho_bar(reference)
    holds: bool


def check_translation(
    logging: Policy,
    reference: Policy,
    context,
    *,
    pinv_source: PinvSource | None = None,
    tol: float = 1e-8,
) -> TranslationCheck:
    """Check kappa * rho_bar(logging) <= rho_bar(reference) at one context.

    Requires the logging policy to be absolutely continuous with respect
    to the reference on its moment rows (support or sample).
    """
    source = pinv_source or PinvSource()
    step = _ContextOverlap(source, logging, context)
    _require_space(reference, context, step.space, "reference")
    actions = logging.moment_arrays(context).actions
    outside = reference.slate_prob_batch(context, actions) <= 0.0
    if outside.any():
        slate = tuple(actions[np.argmax(outside)].tolist())
        raise AbsoluteContinuityError(
            f"logging slate {slate} at context {context!r} is outside the "
            f"reference policy's support"
        )
    lhs = step.kappa(reference) * step.rho_bar
    rhs = _ContextOverlap(source, reference, context).rho_bar
    return TranslationCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)


def kappa_uniform_rho_limit(space) -> float:
    """Worst-case overlap cap for pairwise kappa-uniform logging, per unit
    of 1/kappa: slots times the largest slot action count."""
    return float(space.num_slots * max(space.slot_counts))


def overlap_profile(
    contexts: Sequence,
    logging: Policy,
    target: Policy,
    *,
    pinv_source: PinvSource | None = None,
) -> OverlapProfile:
    """All four diagnostics in one pass over a context sample."""
    sigma_sq, rho, rho_bar, kappa = 0.0, [], [], []
    for step in _overlaps(contexts, logging, target, pinv_source):
        sigma_sq += step.sigma_sq
        rho.append(step.rho)
        rho_bar.append(step.rho_bar)
        kappa.append(step.kappa())
    return OverlapProfile(
        sigma_sq=sigma_sq / len(contexts), rho=max(rho), rho_bar=max(rho_bar), kappa=min(kappa)
    )
