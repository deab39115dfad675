"""Overlap diagnostics between a logging and a target policy.

Three scalars govern how well logged data supports an offline estimate:
``sigma_sq`` (average overlap), ``rho`` (worst-case overlap over logged
slates), and ``rho_bar`` (largest slate self-overlap on the logging
support). They satisfy sigma_sq <= rho <= rho_bar, all equal 1 when the
target equals the logging policy, and plug into a Bernstein-style
deviation bound.

The slate maxima run over the logging policy's ``moment_arrays`` rows: its
exact support when the policy lists it, else the same seeded sample its
second moments and mean indicator are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import AbsoluteContinuityError, ConfigurationError
from .moments import PinvSource, moment_matrix, uniform_moment_matrix
from .policies import Policy
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
        return f"{fmt(self.sigma_sq)},{fmt(self.rho)},{fmt(self.rho_bar)},{fmt(self.kappa)}"

    def to_kv_block(self) -> str:
        return (
            f"sigma_sq={fmt(self.sigma_sq)}\nrho={fmt(self.rho)}\n"
            f"rho_bar={fmt(self.rho_bar)}\nkappa={fmt(self.kappa)}"
        )


def bernstein_bound(sigma_sq: float, rho: float, n: int, delta: float) -> float:
    """High-probability deviation bound from the overlap diagnostics."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    if n < 1:
        raise ConfigurationError(f"need at least one sample, got n={n}")
    log_term = math.log(2.0 / delta)
    return math.sqrt(2.0 * sigma_sq * log_term / n) + 2.0 * (rho + 1.0) * log_term / (3.0 * n)


def compute_sigma_sq(
    contexts: Sequence,
    logging: Policy,
    target: Policy,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Mean over contexts of the target mean indicator's quadratic overlap."""
    source = pinv_source if pinv_source is not None else PinvSource()
    total = 0.0
    for context in contexts:
        q = target.mean_indicator(context)
        pinv = source.pseudoinverse(logging, context)
        total += float(q @ pinv @ q)
    return total / len(contexts)


def compute_rho(
    contexts: Sequence,
    logging: Policy,
    target: Policy,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Largest absolute overlap coefficient over contexts and logged slates.

    The inner maximum is exact when the logging policy lists its support and
    is taken over its seeded moment sample otherwise.
    """
    source = pinv_source if pinv_source is not None else PinvSource()
    worst = 0.0
    for context in contexts:
        q = target.mean_indicator(context)
        w = q @ source.pseudoinverse(logging, context)
        actions = logging.moment_arrays(context).actions
        values = w[logging.space_of(context).coords_of_actions(actions)].sum(axis=1)
        worst = max(worst, float(np.abs(values).max()))
    return worst


def compute_rho_bar(
    logging: Policy,
    context,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Largest slate self-overlap on the logging support at one context."""
    source = pinv_source if pinv_source is not None else PinvSource()
    pinv = source.pseudoinverse(logging, context)
    actions = logging.moment_arrays(context).actions
    coords = logging.space_of(context).coords_of_actions(actions)
    num_slots = coords.shape[1]
    values = np.zeros(len(coords))
    for j in range(num_slots):
        for k in range(num_slots):
            values += pinv[coords[:, j], coords[:, k]]
    return float(values.max())


def kappa_of(logging: Policy, context, *, reference: Policy | None = None) -> float:
    """Smallest ratio of pairwise slot-action probabilities to a reference.

    The reference defaults to the uniform policy. The minimum runs over
    the reference's positive cross-slot pairwise probabilities and is
    clipped at 1. Single-slot spaces have no pairs, so the per-action
    marginal ratios are used instead.
    """
    space = logging.space_of(context)
    gamma_mu = moment_matrix(logging, context, space).entries
    if reference is None:
        gamma_ref = uniform_moment_matrix(space).entries
    else:
        gamma_ref = moment_matrix(reference, context, space).entries
    if space.num_slots == 1:
        positive = gamma_ref > 0.0
        ratio = np.min(gamma_mu[positive] / gamma_ref[positive]) if positive.any() else 1.0
        return float(min(ratio, 1.0))
    cross = np.ones_like(gamma_ref, dtype=bool)
    for j in range(space.num_slots):
        block = slice(space.offsets[j], space.offsets[j] + space.slot_counts[j])
        cross[block, block] = False
    positive = cross & (gamma_ref > 0.0)
    if not positive.any():
        return 1.0
    return float(min(np.min(gamma_mu[positive] / gamma_ref[positive]), 1.0))


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
    actions = logging.moment_arrays(context).actions
    outside = reference.slate_prob_batch(context, actions) <= 0.0
    if outside.any():
        slate = tuple(actions[np.argmax(outside)].tolist())
        raise AbsoluteContinuityError(
            f"logging slate {slate} at context {context!r} is outside the "
            f"reference policy's support"
        )
    kappa = kappa_of(logging, context, reference=reference)
    lhs = kappa * compute_rho_bar(logging, context, pinv_source=pinv_source)
    rhs = compute_rho_bar(reference, context, pinv_source=pinv_source)
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
    """Convenience aggregation of all diagnostics over a context sample."""
    source = pinv_source if pinv_source is not None else PinvSource()
    sigma_sq = compute_sigma_sq(contexts, logging, target, pinv_source=source)
    rho = compute_rho(contexts, logging, target, pinv_source=source)
    rho_bar = max(
        compute_rho_bar(logging, context, pinv_source=source) for context in contexts
    )
    kappa = min(kappa_of(logging, context) for context in contexts)
    return OverlapProfile(sigma_sq=sigma_sq, rho=rho, rho_bar=rho_bar, kappa=kappa)
