"""Small shared helpers: deterministic reductions, seeding, formatting,
and the linear-algebra thread cap."""

from __future__ import annotations

import ctypes
import functools
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (get, set) thread-count symbols of the OpenBLAS builds numpy wheels bundle
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


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


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the OpenBLAS pool size in numpy's wheel, or None."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def blas_threads(limit: int):
    """Cap numpy's OpenBLAS pool at ``limit`` threads (at least one) inside
    the block, then restore it; never raises the pool size.

    Every matrix here is small: per-context moments of a few dozen rows
    and ridge systems of a few dozen features. On them a second BLAS thread
    saves nothing, and its spin-wait takes a core from the main thread
    whenever the machine is busy. The commands write the same bytes at any
    pool size (the acceptance suite compares ``--threads`` 1 and 4). A no-op
    when numpy does not bundle OpenBLAS.
    """
    calls = _openblas_thread_calls()
    before = calls[0]() if calls is not None else 0
    if before <= max(limit, 1):
        yield
        return
    calls[1](max(limit, 1))
    try:
        yield
    finally:
        calls[1](before)
