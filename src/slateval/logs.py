"""Logged bandit records, their columnar batch form, and their tab-separated
text format."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from .errors import ParseError, SlateError
from .spaces import Slate
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


class _Columns(NamedTuple):
    """A parsed ``context<TAB>comma-joined slate<TAB>number`` file, one row per data line."""

    linenos: np.ndarray  # 1-based physical line numbers
    contexts: tuple  # distinct context ids, in order of first appearance
    codes: np.ndarray  # each row's index into ``contexts``
    widths: np.ndarray  # slate tokens per row
    tokens: np.ndarray  # every row's slate tokens, flat int64
    numbers: np.ndarray  # the third field, float64


def _read_tsv_columns(path, error_type) -> _Columns:
    """Parse a ``context<TAB>comma-joined slate<TAB>number`` file in bulk.

    The text is split into lines as iterating the file would (universal
    newlines), and each line is stripped; blank and ``#`` lines are skipped
    but still count toward line numbers. Slate tokens follow ``int()`` and
    numbers ``float()``. A line without exactly three tab-separated fields,
    or with a token or number that does not parse, raises ``error_type``
    naming ``path:lineno``; field counts are checked first.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = list(map(str.strip, text.split("\n")))
    keep = np.fromiter(map(bool, lines), dtype=bool, count=len(lines))
    if "#" in text:
        keep &= ~np.fromiter(map(str.startswith, lines, repeat("#")), dtype=bool, count=len(lines))
    del text
    linenos = np.flatnonzero(keep) + 1
    lines = list(compress(lines, keep))
    n = len(lines)
    misfit = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64, count=n) != 2
    if misfit.any():
        raise error_type(f"{path}:{linenos[np.argmax(misfit)]}: expected 3 tab-separated fields")
    fields = "\t".join(lines).split("\t") if n else []
    del lines
    context_texts, slate_texts, number_texts = fields[0::3], fields[1::3], fields[2::3]
    del fields
    index = {context: code for code, context in enumerate(dict.fromkeys(context_texts))}
    codes = np.fromiter(map(index.__getitem__, context_texts), dtype=np.int64, count=n)
    del context_texts
    widths = np.fromiter(map(str.count, slate_texts, repeat(",")), dtype=np.int64, count=n) + 1
    try:
        tokens = np.array(",".join(slate_texts).split(",") if n else [], dtype=np.int64)
        numbers = np.array(number_texts, dtype=np.float64)
    except (ValueError, OverflowError):
        _raise_unparsable(path, error_type, linenos, slate_texts, number_texts)
        raise
    return _Columns(linenos, tuple(index), codes, widths, tokens, numbers)


def _raise_unparsable(path, error_type, linenos, slate_texts, number_texts) -> None:
    """Raise ``error_type`` for the first line whose tokens or number do not parse."""
    for lineno, slate_text, number_text in zip(linenos.tolist(), slate_texts, number_texts):
        try:
            actions = list(map(int, slate_text.split(",")))
            float(number_text)
        except ValueError as exc:
            raise error_type(f"{path}:{lineno}: {exc}") from exc
        if not all(-(2**63) <= a < 2**63 for a in actions):
            raise error_type(f"{path}:{lineno}: slate {slate_text!r} does not fit in int64")


def read_logged_dataset(path) -> LoggedBatch:
    """Read tab-separated lines: context_id, comma-joined slate, reward.

    Every slate must have as many slots as the first one.
    """
    columns = _read_tsv_columns(path, ParseError)
    rewards, widths = columns.numbers, columns.widths
    outside = ~((rewards >= -1.0) & (rewards <= 1.0))
    ragged = widths != widths[:1]
    if (outside | ragged).any():
        i = int(np.argmax(outside | ragged))
        if outside[i]:
            problem = f"reward {float(rewards[i])} outside [-1, 1]"
        else:
            problem = f"slate has {widths[i]} slots, earlier lines have {widths[0]}"
        raise ParseError(f"{path}:{columns.linenos[i]}: {problem}")
    n = len(rewards)
    return LoggedBatch(
        contexts=columns.contexts,
        codes=columns.codes,
        actions=columns.tokens.reshape(n, int(widths[0]) if n else 0),
        rewards=rewards,
    )


def write_logged_dataset(path, examples) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ex in examples:
            slate_text = ",".join(str(a) for a in ex.slate)
            handle.write(f"{ex.context}\t{slate_text}\t{fmt(ex.reward)}\n")
