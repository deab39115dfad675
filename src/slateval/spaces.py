"""Slate spaces and slate-indicator coordinates.

A slate is an ordered tuple of per-slot action ids. Two space shapes are
supported: a Cartesian product (each slot has its own action set) and a
ranking (every slot draws from one shared action set, no repeats). Both
map slates to binary indicator vectors laid out slot-major, action-minor,
which is the coordinate system every matrix in this package uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import prod
from typing import Iterator, Mapping

import numpy as np

from .errors import SlateError

Slate = tuple[int, ...]


class SpaceKind(Enum):
    CARTESIAN = "cartesian"
    RANKING = "ranking"


@dataclass(frozen=True)
class SlateSpace:
    """Structural description of the valid slates at one context.

    Parameters
    ----------
    kind : SpaceKind
        CARTESIAN allows any combination of per-slot actions; RANKING
        requires all slots to share one action set and forbids repeats.
    slot_counts : tuple of int
        Number of actions available in each slot. For RANKING all entries
        are equal to the shared pool size m, and m >= number of slots.
    """

    kind: SpaceKind
    slot_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.slot_counts) == 0:
            raise SlateError("a slate space needs at least one slot")
        if any(int(m) <= 0 for m in self.slot_counts):
            raise SlateError(f"slot action counts must be positive: {self.slot_counts}")
        object.__setattr__(self, "slot_counts", tuple(int(m) for m in self.slot_counts))
        if self.kind is SpaceKind.RANKING:
            m = self.slot_counts[0]
            if any(c != m for c in self.slot_counts):
                raise SlateError("ranking slots must share one action set")
            if m < self.num_slots:
                raise SlateError(
                    f"ranking needs at least as many actions as slots "
                    f"(m={m}, slots={self.num_slots})"
                )

    @classmethod
    def cartesian(cls, slot_counts) -> "SlateSpace":
        return cls(SpaceKind.CARTESIAN, tuple(slot_counts))

    @classmethod
    def ranking(cls, num_actions: int, num_slots: int) -> "SlateSpace":
        return cls(SpaceKind.RANKING, (int(num_actions),) * int(num_slots))

    @property
    def num_slots(self) -> int:
        return len(self.slot_counts)

    @property
    def num_actions(self) -> int:
        """Shared pool size of a ranking space."""
        if self.kind is not SpaceKind.RANKING:
            raise SlateError("num_actions is only defined for ranking spaces")
        return self.slot_counts[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start coordinate of each slot block in the indicator vector."""
        return np.concatenate([[0], np.cumsum(self.slot_counts[:-1])]).astype(np.int64)

    @property
    def dim(self) -> int:
        """Length of the indicator vector (sum of slot action counts)."""
        return int(sum(self.slot_counts))

    def num_slates(self) -> int:
        if self.kind is SpaceKind.CARTESIAN:
            return prod(self.slot_counts)
        m, ell = self.num_actions, self.num_slots
        return prod(range(m - ell + 1, m + 1))

    def validate(self, slate) -> Slate:
        """Return the slate as a tuple of ints, or raise SlateError."""
        slate = tuple(int(a) for a in slate)
        if len(slate) != self.num_slots:
            raise SlateError(
                f"slate {slate} has {len(slate)} slots, expected {self.num_slots}"
            )
        for j, a in enumerate(slate):
            if not 0 <= a < self.slot_counts[j]:
                raise SlateError(f"action {a} out of range for slot {j} in {slate}")
        if self.kind is SpaceKind.RANKING and len(set(slate)) != len(slate):
            raise SlateError(f"ranking slate {slate} repeats an action")
        return slate

    def validate_batch(self, actions, context=None) -> np.ndarray:
        """Check an (n, num_slots) array of slates in one pass.

        Returns the rows as int64. Raises SlateError naming the first invalid
        row, and ``context`` when one is given.
        """
        actions = np.asarray(actions)
        if actions.ndim != 2:
            raise SlateError(f"expected a 2-d array of slates, got shape {actions.shape}")
        if actions.shape[1] != self.num_slots:
            if len(actions) == 0:
                return np.empty((0, self.num_slots), dtype=np.int64)
            first_bad = 0
        else:
            actions = actions.astype(np.int64, copy=False)
            # negative actions wrap around to huge unsigned values
            bad = actions.view(np.uint64) >= np.asarray(self.slot_counts, dtype=np.uint64)
            repeats = np.zeros((len(actions), 0), dtype=bool)
            if self.kind is SpaceKind.RANKING:
                ordered = np.sort(actions, axis=1)
                repeats = ordered[:, 1:] == ordered[:, :-1]
            if not (bad.any() or repeats.any()):
                return actions
            first_bad = int(np.argmax(bad.any(axis=1) | repeats.any(axis=1)))
        where = "" if context is None else f" at context {context!r}"
        try:
            self.validate(actions[first_bad])
        except SlateError as exc:
            raise SlateError(f"invalid slate{where}: {exc}") from None
        raise AssertionError("validate_batch flagged a slate that validate accepts")

    def slate_keys(self, actions) -> np.ndarray:
        """One sortable key per row of valid slates, equal only for equal slates.

        Mixed-radix int64 codes; spaces too large for those fall back to the
        rows' raw bytes.
        """
        actions = np.ascontiguousarray(actions, dtype=np.int64)
        if prod(self.slot_counts) < 2**63:
            radix = np.cumprod((1,) + self.slot_counts[:0:-1])[::-1].astype(np.int64)
            return actions @ radix
        return actions.view(np.dtype((np.void, 8 * self.num_slots))).ravel()

    def is_valid(self, slate) -> bool:
        try:
            self.validate(slate)
            return True
        except SlateError:
            return False

    def coord(self, slot: int, action: int) -> int:
        return int(self.offsets[slot]) + int(action)

    def coords(self, slate) -> np.ndarray:
        """Indicator coordinates of a slate, one per slot."""
        return self.offsets + np.asarray(slate, dtype=np.int64)

    def coords_of_actions(self, actions: np.ndarray) -> np.ndarray:
        """Vectorized coords for an (n, num_slots) array of action ids."""
        return self.offsets[None, :] + np.asarray(actions, dtype=np.int64)

    def indicator(self, slate) -> np.ndarray:
        """Binary vector with exactly one 1 per slot block."""
        slate = self.validate(slate)
        vec = np.zeros(self.dim)
        vec[self.coords(slate)] = 1.0
        return vec

    def enumerate_slates(self) -> Iterator[Slate]:
        """All valid slates in lexicographic order."""
        if self.kind is SpaceKind.CARTESIAN:
            yield from itertools.product(*(range(m) for m in self.slot_counts))
        else:
            yield from itertools.permutations(range(self.num_actions), self.num_slots)

    def slate_array(self) -> np.ndarray:
        """All valid slates as one int64 array, one row per slate in
        lexicographic order."""
        flat = itertools.chain.from_iterable(self.enumerate_slates())
        count = self.num_slates() * self.num_slots
        return np.fromiter(flat, dtype=np.int64, count=count).reshape(-1, self.num_slots)


SpaceMap = SlateSpace | Mapping | None


def space_of(space, context) -> SlateSpace:
    """Resolve a per-context space from a constant, mapping, or callable."""
    if isinstance(space, SlateSpace):
        return space
    if callable(space):
        return space(context)
    return space[context]
