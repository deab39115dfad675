"""Logged bandit records, their columnar batch form, and their tab-separated
text format."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from .errors import ParseError, SlateError
from .spaces import Slate, space_of


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
    per-slot values of simulated logs and is None otherwise. ``valid_in``
    is a space every slate is known to be valid in (``read_logged_dataset``
    checked them), so readers on that space need not check again.

    The batch is also a read-only sequence: integer indexing and iteration
    give ``LoggedExample`` (or ``SemibanditExample``) views, and slicing
    gives a batch.
    """

    def __init__(self, contexts, codes, actions, rewards, slot_values=None, valid_in=None):
        self.contexts = tuple(contexts)
        self.valid_in = valid_in
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
                self.valid_in,
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

    Files in the canonical form the writers emit are parsed on their bytes
    (see ``_canonical_columns``) with the same result; every other file, and
    every error, goes through the text parser.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    columns = _canonical_columns(raw)
    if columns is None:
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        del raw
        columns = _text_columns(path, error_type, text)
    return columns


# Byte classes of the canonical form, one bit per field a byte may stand in:
# printable ASCII in a context, digits and commas in a slate, and digits,
# signs, points and exponents in a number. Each field's bytes are checked
# together with the byte that ends it: a tab ends a context and a slate, a
# newline ends a number. Every other byte is class 0.
_CONTEXT, _SLATE, _NUMBER = 1, 2, 4


def _byte_classes() -> bytes:
    table = bytearray(256)
    table[0x21:0x7F] = bytes([_CONTEXT]) * (0x7F - 0x21)
    for byte in b"0123456789":
        table[byte] |= _SLATE | _NUMBER
    table[ord(",")] |= _SLATE
    for byte in b".eE+-":
        table[byte] |= _NUMBER
    table[ord("\t")] = _CONTEXT | _SLATE
    table[ord("\n")] = _NUMBER
    return bytes(table)


_BYTE_CLASSES = _byte_classes()
_MAX_TOKEN_DIGITS = 18  # every 18-digit token fits in int64


def _canonical_columns(raw: bytes) -> _Columns | None:
    """The columns of a file in canonical form, or None for any other file.

    Canonical: ASCII with ``\\n`` line ends (the last one optional), no
    blank or ``#`` lines, exactly two tabs per line and no other whitespace,
    every field non-empty, slate tokens of 1-18 digits, and numbers made of
    digits, signs, points and exponents only. Such a file parses exactly as
    the text parser parses it; ``np.fromstring`` reads its numbers with
    ``float()``'s rounding. A number that does not parse gives None, so that
    the text parser names its line.
    """
    classes = raw.translate(_BYTE_CLASSES)
    if not raw or b"\0" in classes:
        return None
    if not raw.endswith(b"\n"):
        raw += b"\n"
        classes += bytes([_NUMBER])
    data = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    tabs = np.flatnonzero(data == ord("\t"))
    n = len(ends)
    if len(tabs) != 2 * n:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, second = tabs[0::2], tabs[1::2]
    # both tabs of line i lie inside it, around three non-empty fields
    if not ((starts < first) & (first + 1 < second) & (second + 1 < ends)).all():
        return None
    if (data[starts] == ord("#")).any():
        return None
    # each byte's field, its ending tab or newline included
    lengths = np.column_stack((first + 1 - starts, second - first, ends - second)).ravel()
    field = np.repeat(np.tile(np.array([_CONTEXT, _SLATE, _NUMBER], np.uint8), n), lengths)
    if not (np.frombuffer(classes, dtype=np.uint8) & field).all():
        return None
    del classes

    names = data[field == _CONTEXT].tobytes().split(b"\t")[:-1]
    index = {name: code for code, name in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=n)
    del names

    slates = data[field == _SLATE]  # each slate ends in its tab
    delimiters = np.flatnonzero(slates < ord("0"))
    digits = np.diff(delimiters, prepend=-1) - 1
    if digits.min() < 1 or digits.max() > _MAX_TOKEN_DIGITS:
        return None
    row_ends = np.flatnonzero(slates[delimiters] == ord("\t"))
    widths = np.diff(row_ends, prepend=-1)
    slates[delimiters[row_ends]] = ord(",")
    tokens = np.fromstring(slates.tobytes(), dtype=np.int64, sep=",")
    del slates

    try:
        numbers = np.fromstring(data[field == _NUMBER].tobytes(), dtype=np.float64, sep="\n")
    except ValueError:
        return None
    if len(tokens) != len(delimiters) or len(numbers) != n:
        return None
    contexts = tuple(name.decode("ascii") for name in index)
    return _Columns(np.arange(1, n + 1), contexts, codes, widths, tokens, numbers)


def _text_columns(path, error_type, text: str) -> _Columns:
    """``_read_tsv_columns`` on the decoded text, newlines already universal."""
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


def read_logged_dataset(path, space=None) -> LoggedBatch:
    """Read tab-separated lines: context_id, comma-joined slate, reward.

    Every slate must have as many slots as the first one. When ``space`` (a
    ``SlateSpace``) is given, every slate must also be valid in it; the
    first one that is not raises ``ParseError`` naming its line.
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
    actions = columns.tokens.reshape(n, int(widths[0]) if n else 0)
    if space is not None:
        try:
            space.validate_batch(actions)
        except SlateError:
            _raise_invalid_slate(path, ParseError, space, columns)
    return LoggedBatch(
        contexts=columns.contexts,
        codes=columns.codes,
        actions=actions,
        rewards=rewards,
        valid_in=space,
    )


def _invalid_slate(space, contexts, codes, widths, tokens) -> tuple[int, SlateError]:
    """The first row (context codes, slot widths, the slates' tokens back to
    back) whose slate is not valid in its context's space (a ``SlateSpace``,
    mapping or callable), with the error ``SlateSpace.validate`` raises for
    it; a per-row loop, for error paths."""
    slates = np.split(tokens, np.cumsum(widths)[:-1])
    for row, (code, slate) in enumerate(zip(codes.tolist(), slates)):
        try:
            space_of(space, contexts[code]).validate(slate)
        except SlateError as exc:
            return row, exc
    raise AssertionError("a batch check flagged a slate that validate accepts")


def _raise_invalid_slate(path, error_type, space, columns: _Columns) -> None:
    """Raise ``error_type`` naming the line and context of the first slate
    that is not valid in its context's space."""
    contexts, codes = columns.contexts, columns.codes
    row, exc = _invalid_slate(space, contexts, codes, columns.widths, columns.tokens)
    context = contexts[codes[row]]
    raise error_type(f"{path}:{columns.linenos[row]}: context {context!r}: {exc}") from None

