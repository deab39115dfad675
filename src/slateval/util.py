"""Small shared helpers: deterministic reductions, seeding, formatting."""

from __future__ import annotations

import zlib

import numpy as np


def pairwise_sum(values: np.ndarray) -> float:
    """Sum by recursive halving so the result is independent of how the
    input was partitioned across workers."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        return 0.0
    block = values
    while block.size > 1:
        half = block.size // 2
        head = block[: 2 * half]
        block = np.concatenate([head[0::2] + head[1::2], block[2 * half :]])
    return float(block[0])


def context_entropy(context) -> int:
    """Stable 32-bit fingerprint of a context id (Python's hash() is
    salted per process and cannot be used for reproducible seeding)."""
    return zlib.crc32(repr(context).encode("utf-8"))


def context_rng(base_seed: int, context) -> np.random.Generator:
    """Generator with a fixed stream per (seed, context) pair."""
    # the trailing 0 is part of the seed: dropping it would change every sample
    return np.random.default_rng(
        np.random.SeedSequence([base_seed & 0xFFFFFFFF, context_entropy(context), 0])
    )


def fmt(x: float) -> str:
    """Shortest round-trip decimal form; stable across runs and platforms."""
    return repr(float(x))


def fmt17(x: float) -> str:
    """Fixed 17-significant-digit decimal form for golden files."""
    return format(float(x), ".17g")
