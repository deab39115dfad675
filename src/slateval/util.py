"""Small shared helpers: deterministic reductions, seeding, formatting,
the block budget of bounded loops, and the linear-algebra thread cap."""

from __future__ import annotations

import ctypes
import functools
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

BLOCK_CELLS = 1 << 18  # array elements of the largest temporary one block holds: 2 MB of float64

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


def block_runs(n: int, cost) -> Iterator[tuple[int, int]]:
    """Runs [lo, hi) of n consecutive items whose costs sum to at most
    ``BLOCK_CELLS``, or one item when it alone is over: the blocks a bounded
    loop takes at a time, so its temporaries stay bounded. ``cost`` is every
    item's cost, or an array of each item's, in elements of the largest
    temporary the item adds to a block. The budget is looked up as the runs
    are taken, never bound at definition, so patching ``BLOCK_CELLS``
    reaches every loop."""
    ends = np.cumsum(np.broadcast_to(cost, (n,)))
    lo = 0
    while lo < n:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + BLOCK_CELLS, "right")))
        yield lo, hi
        lo = hi


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
    """(get, set, shutdown) of the OpenBLAS pool in numpy's wheel, or None;
    shutdown is None when the build does not export ``blas_thread_shutdown_``
    (an OpenMP build, for one)."""
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
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.restype, shutdown.argtypes = ctypes.c_int, []
                return get, set_, shutdown
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

    At one thread the block also stops OpenBLAS's idle workers: the one
    started when numpy loads would otherwise spin for about 0.1 s, whatever
    the pool size. Restoring the pool size starts them again, as OpenBLAS
    does after a ``fork``. Like ``openblas_set_num_threads`` itself, the
    helper must not be entered or left while another Python thread is
    inside a BLAS call.
    """
    calls = _openblas_thread_calls()
    before = calls[0]() if calls is not None else 0
    limit = max(limit, 1)
    if before <= limit:
        yield
        return
    _, set_, shutdown = calls
    set_(limit)
    # after the cap: setting the size on a stopped pool would restart it
    if limit == 1 and shutdown is not None:
        shutdown()
    try:
        yield
    finally:
        set_(before)
