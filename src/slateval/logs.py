"""Logged bandit records, their columnar batch form, and their tab-separated
text format."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SlateError
from .spaces import Slate, SlateSpace
from .util import fmt


@dataclass(frozen=True)
class LoggedExample:
    """One (context, slate, reward) record drawn under the logging policy."""

    context: object
    slate: Slate
    reward: float

    def __post_init__(self):
        object.__setattr__(self, "slate", tuple(int(a) for a in self.slate))
        object.__setattr__(self, "reward", float(self.reward))
        if not -1.0 <= self.reward <= 1.0:
            raise SlateError(f"reward {self.reward} outside [-1, 1]")

    def marginal_reward(self, space: SlateSpace) -> np.ndarray:
        """Reward-scaled slate indicator: the single-record estimate of the
        logging policy's per-(slot, action) marginal values."""
        return self.reward * space.indicator(self.slate)


@dataclass(frozen=True)
class SemibanditExample(LoggedExample):
    """Logged example augmented with the per-slot intrinsic values that a
    semi-bandit learner would observe (simulation only)."""

    slot_values: tuple[float, ...] = ()


def group_rows(codes: np.ndarray, num_codes: int) -> list[tuple[int, np.ndarray]]:
    """(code, row indices) for every code present, codes ascending, rows ascending."""
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=num_codes)
    ends = np.cumsum(counts)
    return [(int(c), order[ends[c] - counts[c] : ends[c]]) for c in np.flatnonzero(counts)]


class LoggedBatch(Sequence):
    """Logged examples in columnar form.

    ``contexts`` holds distinct context ids and ``codes[i]`` indexes example
    i's context in it; ``actions`` is the (n, slots) int64 slate array and
    ``rewards`` the float64 rewards in [-1, 1]. ``slot_values`` holds the
    per-slot values of simulated logs and is None otherwise.

    The batch is also a read-only sequence: integer indexing and iteration
    give ``LoggedExample`` (or ``SemibanditExample``) views, and slicing
    gives a batch.
    """

    def __init__(self, contexts, codes, actions, rewards, slot_values=None):
        self.contexts = tuple(contexts)
        self.codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        self.actions = np.asarray(actions, dtype=np.int64)
        self.rewards = np.asarray(rewards, dtype=np.float64).reshape(-1)
        self.slot_values = None if slot_values is None else np.asarray(slot_values, np.float64)
        n = len(self.codes)
        if self.actions.ndim != 2 or len(self.actions) != n or len(self.rewards) != n:
            raise SlateError(
                f"batch columns disagree: {n} codes, actions of shape "
                f"{self.actions.shape}, {len(self.rewards)} rewards"
            )
        if self.slot_values is not None and self.slot_values.shape != self.actions.shape:
            raise SlateError(
                f"slot values of shape {self.slot_values.shape} do not match "
                f"actions of shape {self.actions.shape}"
            )
        if n and not 0 <= self.codes.min() <= self.codes.max() < len(self.contexts):
            raise SlateError(f"context codes outside [0, {len(self.contexts)})")
        outside = ~((self.rewards >= -1.0) & (self.rewards <= 1.0))
        if outside.any():
            raise SlateError(f"reward {self.rewards[np.argmax(outside)]} outside [-1, 1]")
        self._groups = None

    @classmethod
    def from_examples(cls, examples) -> "LoggedBatch":
        """Columnar copy of a sequence of examples; a batch is returned as is."""
        if isinstance(examples, LoggedBatch):
            return examples
        examples = list(examples)
        index: dict = {}
        codes = [index.setdefault(ex.context, len(index)) for ex in examples]
        slates = [ex.slate for ex in examples]
        width = len(slates[0]) if slates else 0
        for ex in examples:
            if len(ex.slate) != width:
                raise SlateError(
                    f"logged slate {ex.slate} at context {ex.context!r} has "
                    f"{len(ex.slate)} slots, but the first logged slate has {width}"
                )
        slot_values = None
        if examples and all(getattr(ex, "slot_values", ()) for ex in examples):
            slot_values = [ex.slot_values for ex in examples]
        return cls(
            contexts=index,
            codes=np.asarray(codes, dtype=np.int64),
            actions=np.asarray(slates, dtype=np.int64).reshape(len(examples), width),
            rewards=[ex.reward for ex in examples],
            slot_values=slot_values,
        )

    @property
    def num_slots(self) -> int:
        return self.actions.shape[1]

    def groups(self) -> list[tuple[object, np.ndarray]]:
        """(context, row indices) per distinct context present, rows ascending."""
        if self._groups is None:
            self._groups = [
                (self.contexts[c], rows)
                for c, rows in group_rows(self.codes, len(self.contexts))
            ]
        return self._groups

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LoggedBatch(
                self.contexts,
                self.codes[index],
                self.actions[index],
                self.rewards[index],
                None if self.slot_values is None else self.slot_values[index],
            )
        i = range(len(self))[index]
        values = None if self.slot_values is None else self.slot_values[i].tolist()
        return self._view(
            int(self.codes[i]), self.actions[i].tolist(), float(self.rewards[i]), values
        )

    def __iter__(self):
        columns = [self.codes.tolist(), self.actions.tolist(), self.rewards.tolist()]
        if self.slot_values is not None:
            columns.append(self.slot_values.tolist())
        for row in zip(*columns):
            yield self._view(*row)

    def _view(self, code, slate, reward, slot_values=None) -> LoggedExample:
        if slot_values is None:
            return LoggedExample(self.contexts[code], tuple(slate), reward)
        return SemibanditExample(self.contexts[code], tuple(slate), reward, tuple(slot_values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"LoggedBatch(n={len(self)}, slots={self.num_slots}, "
            f"contexts={len(self.contexts)})"
        )


def read_logged_dataset(path) -> LoggedBatch:
    """Read tab-separated lines: context_id, comma-joined slate, reward.

    Every slate must have as many slots as the first one.
    """
    index: dict = {}
    codes: list[int] = []
    slates: list[list[int]] = []
    rewards: list[float] = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
            context, slate_text, reward_text = parts
            try:
                slate = list(map(int, slate_text.split(",")))
                reward = float(reward_text)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not -1.0 <= reward <= 1.0:
                raise ParseError(f"{path}:{lineno}: reward {reward} outside [-1, 1]")
            if width is None:
                width = len(slate)
            elif len(slate) != width:
                raise ParseError(
                    f"{path}:{lineno}: slate has {len(slate)} slots, earlier lines have {width}"
                )
            codes.append(index.setdefault(context, len(index)))
            slates.append(slate)
            rewards.append(reward)
    return LoggedBatch(
        contexts=index,
        codes=codes,
        actions=np.asarray(slates, dtype=np.int64).reshape(len(codes), width or 0),
        rewards=rewards,
    )


def write_logged_dataset(path, examples) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ex in examples:
            slate_text = ",".join(str(a) for a in ex.slate)
            handle.write(f"{ex.context}\t{slate_text}\t{fmt(ex.reward)}\n")
