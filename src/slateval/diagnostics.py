"""Overlap diagnostics between a logging and a target policy.

Three scalars govern how well logged data supports an offline estimate:
``sigma_sq`` (average overlap), ``rho`` (worst-case overlap over logged
slates), and ``rho_bar`` (largest slate self-overlap on the logging
support). They satisfy sigma_sq <= rho <= rho_bar, all equal 1 when the
target equals the logging policy, and plug into a Bernstein-style
deviation bound.

The slate maxima run over the logging policy's ``moment_rows``: its exact
support when the policy lists it, else the same seeded sample its second
moments and mean indicator are built from. Every diagnostic is a reduction
over per-space stacks read from the moment store of a ``PinvSource`` (one
batched product gives every context's ``q' P``), and ``overlap_profile``
builds them once for all four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from .errors import AbsoluteContinuityError, ConfigurationError
from .moments import PinvSource, context_runs
from .policies import Policy, UniformPolicy, positions_by_space
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


class _Overlaps:
    """The logging policy's overlaps at a list of contexts, each diagnostic
    one array over them in order, reduced per run of the contexts of one
    logging space (``moments.context_runs``) from stacks of the rows of the
    moment store."""

    def __init__(self, source: PinvSource, logging: Policy, contexts, target: Policy | None = None):
        if len(contexts) == 0:
            raise ConfigurationError("the overlap diagnostics need at least one context")
        self.source, self.logging, self.target = source, logging, target
        self.contexts = list(contexts)
        by_space = positions_by_space(logging, self.contexts)
        for _, positions in by_space:  # every space's missing moments, built together
            source.moments(logging, [self.contexts[i] for i in positions])
        self.runs = [
            (space, run, [self.contexts[i] for i in run])
            for space, positions in by_space
            for lo, hi in context_runs(len(positions), space.dim)
            for run in [positions[lo:hi]]
        ]

    def _per_run(self, reduce) -> np.ndarray:
        """``reduce(r, space, contexts)`` of each run r, scattered back."""
        out = np.empty(len(self.contexts))
        for r, (space, positions, contexts) in enumerate(self.runs):
            out[positions] = reduce(r, space, contexts)
        return out

    def _matrices(self, policy: Policy, contexts) -> np.ndarray:
        store, rows = self.source.moments(policy, contexts)
        return store.column("gamma")[rows]

    def _rows(self, space, contexts):
        """The logging moment rows' context codes and indicator coordinates."""
        rows = self.logging.moment_rows(contexts, space)
        return rows, rows.codes(), space.coords_of_actions(rows.actions)

    @cached_property
    def _overlap(self) -> list:
        """Per run: the target's mean indicators q and w = q' pinv."""
        out = []
        for space, _, contexts in self.runs:
            for context in contexts:
                _require_space(self.target, context, space, "target")
            qs = self.target.mean_indicators(contexts, space)
            out.append((qs, (qs[:, None, :] @ self.source.pinv_stack(self.logging, contexts))[:, 0]))
        return out

    def sigma_sq(self) -> np.ndarray:
        def reduce(r, space, contexts):
            qs, ws = self._overlap[r]
            return (ws[:, None, :] @ qs[:, :, None])[:, 0, 0]

        return self._per_run(reduce)

    def rho(self) -> np.ndarray:
        def reduce(r, space, contexts):
            rows, codes, coords = self._rows(space, contexts)
            values = np.abs(self._overlap[r][1][codes[:, None], coords].sum(axis=1))
            return np.maximum.reduceat(values, rows.bounds[:-1])

        return self._per_run(reduce)

    def rho_bar(self) -> np.ndarray:
        def reduce(r, space, contexts):
            rows, codes, coords = self._rows(space, contexts)
            pinv, slots = self.source.pinv_stack(self.logging, contexts), range(space.num_slots)
            values = sum(pinv[codes, coords[:, j], coords[:, k]] for j in slots for k in slots)
            return np.maximum.reduceat(values, rows.bounds[:-1])

        return self._per_run(reduce)

    def kappa(self, reference: Policy | None = None) -> np.ndarray:
        def reduce(r, space, contexts):
            ref = reference if reference is not None else UniformPolicy(space)
            for context in contexts:
                _require_space(ref, context, space, "reference")
            gamma, gamma_ref = self._matrices(self.logging, contexts), self._matrices(ref, contexts)
            # cross-slot pairs; a single-slot space has none and compares marginals
            slot = np.repeat(np.arange(space.num_slots), space.slot_counts)
            cross = (slot[:, None] != slot) | (space.num_slots == 1)
            ratio = np.full(gamma_ref.shape, np.inf)
            np.divide(gamma, gamma_ref, out=ratio, where=(gamma_ref > 0.0) & cross)
            return np.minimum(ratio.min(axis=(1, 2)), 1.0)

        return self._per_run(reduce)


def compute_sigma_sq(
    contexts: Sequence,
    logging: Policy,
    target: Policy,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Mean over contexts of the target mean indicator's quadratic overlap."""
    overlaps = _Overlaps(pinv_source or PinvSource(), logging, contexts, target)
    return sum(overlaps.sigma_sq().tolist()) / len(contexts)


def compute_rho(
    contexts: Sequence,
    logging: Policy,
    target: Policy,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Largest absolute overlap coefficient over contexts and logged slates
    (the logging policy's moment rows: its support, or its seeded sample)."""
    return float(_Overlaps(pinv_source or PinvSource(), logging, contexts, target).rho().max())


def compute_rho_bar(
    logging: Policy,
    context,
    *,
    pinv_source: PinvSource | None = None,
) -> float:
    """Largest slate self-overlap on the logging support at one context."""
    return float(_Overlaps(pinv_source or PinvSource(), logging, [context]).rho_bar()[0])


def kappa_of(logging: Policy, context, *, reference: Policy | None = None) -> float:
    """Smallest ratio of pairwise slot-action probabilities to a reference.

    The reference defaults to the uniform policy. The minimum runs over
    the reference's positive cross-slot pairwise probabilities and is
    clipped at 1. Single-slot spaces have no pairs, so the per-action
    marginal ratios are used instead.
    """
    return float(_Overlaps(PinvSource(), logging, [context]).kappa(reference)[0])


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
) -> TranslationCheck:
    """Check kappa * rho_bar(logging) <= rho_bar(reference) at one context,
    up to 1e-8.

    Requires the logging policy to be absolutely continuous with respect
    to the reference on its moment rows (support or sample).
    """
    source = pinv_source or PinvSource()
    overlaps = _Overlaps(source, logging, [context])
    _require_space(reference, context, overlaps.runs[0][0], "reference")
    actions = logging.moment_arrays(context).actions
    outside = reference.slate_prob_batch(context, actions) <= 0.0
    if outside.any():
        slate = tuple(actions[np.argmax(outside)].tolist())
        raise AbsoluteContinuityError(
            f"logging slate {slate} at context {context!r} is outside the "
            f"reference policy's support"
        )
    lhs = float(overlaps.kappa(reference)[0] * overlaps.rho_bar()[0])
    rhs = float(_Overlaps(source, reference, [context]).rho_bar()[0])
    return TranslationCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-8)


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
    """All four diagnostics from one set of stacks over a context sample."""
    overlaps = _Overlaps(pinv_source or PinvSource(), logging, contexts, target)
    return OverlapProfile(
        sigma_sq=sum(overlaps.sigma_sq().tolist()) / len(contexts),
        rho=float(overlaps.rho().max()),
        rho_bar=float(overlaps.rho_bar().max()),
        kappa=float(overlaps.kappa().min()),
    )
