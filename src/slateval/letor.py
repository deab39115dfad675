"""Ranking datasets: SVMlight-with-qid parsing and a synthetic generator.

Lines look like ``<rel> qid:<id> <k>:<v> ... # <comment>`` with 1-indexed
feature keys in the file and 0-indexed features in memory. Relevance
labels are restricted to {0, 1, 2}.

A dataset is held in columns from the moment it is read: one
(documents, feature_dim) float64 matrix, an int64 label array, the
document ids, and the query ids with per-query row offsets, queries in
order of first appearance. ``RankingDataset.rows`` yields per-document
views for callers that want them.

The synthetic generator plants a linear relevance signal in random
features so the whole experimental pipeline can run without downloading
anything; the same weight vector drives two feature blocks, which makes
block-restricted score models informative but imperfect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, FieldError, ParseError
from .util import fmt17

VALID_RELEVANCES = (0, 1, 2)


class Document(NamedTuple):
    """One document of a dataset, as ``RankingDataset.rows`` yields it."""

    doc_id: str
    relevance: int
    features: np.ndarray


@dataclass(frozen=True)
class RankingDataset:
    """Documents grouped by query, in columns.

    Query i is ``query_ids[i]``, and its documents are rows
    ``bounds[i]:bounds[i + 1]`` of ``features`` (a (documents, feature_dim)
    float64 matrix), ``labels`` (int64 relevance) and ``doc_ids``.
    """

    features: np.ndarray
    labels: np.ndarray
    doc_ids: tuple[str, ...]
    query_ids: tuple[str, ...]
    bounds: np.ndarray

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def rows(self) -> Iterator[tuple[str, Document]]:
        """(query id, document) pairs in dataset order."""
        documents = map(Document, self.doc_ids, self.labels.tolist(), self.features)
        return zip(self._row_queries(), documents)

    def _row_queries(self) -> Iterator[str]:
        """Each document's query id, in dataset order."""
        return chain.from_iterable(map(repeat, self.query_ids, np.diff(self.bounds).tolist()))


def _grouped(query_ids: list, doc_ids: list, labels: np.ndarray, features: np.ndarray):
    """The dataset of documents given in file order with their query ids:
    queries in order of first appearance, each keeping its documents in
    file order."""
    index = {query: i for i, query in enumerate(dict.fromkeys(query_ids))}
    codes = np.fromiter(map(index.__getitem__, query_ids), dtype=np.int64, count=len(query_ids))
    if (np.diff(codes) < 0).any():  # interleaved queries
        order = np.argsort(codes, kind="stable")
        codes, labels, features = codes[order], labels[order], features[order]
        doc_ids = list(map(doc_ids.__getitem__, order.tolist()))
    bounds = np.concatenate([[0], np.cumsum(np.bincount(codes, minlength=len(index)))])
    return RankingDataset(features, labels, tuple(doc_ids), tuple(index), bounds)


def parse_letor(path) -> RankingDataset:
    """Parse an SVMlight-with-qid file into a dataset.

    Malformed lines, non-finite feature values, inconsistent feature
    dimensionality, and relevance labels outside {0, 1, 2} are rejected
    with their line number. Features missing from a line are 0, and a
    repeated key keeps its last value. An empty file parses to an empty
    dataset. Queries whose lines interleave are regrouped in order of first
    appearance, each keeping its documents in file order.

    A canonical file, every line ``<rel> qid:<id> 1:<v> 2:<v> ... d:<v> #
    <doc id>`` with single spaces, is read by ``_canonical_columns``; every
    other file by ``_text_columns``, which is also the only source of
    errors. Both convert all feature values with one numpy call
    (``float()`` semantics) into one (documents x dim) matrix.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    columns = _canonical_columns(text)
    if columns is None:
        columns = _text_columns(path, text)
    return _grouped(*columns)


_LABELS = {"0": 0, "1": 1, "2": 2}
_NUMBER_CHARS = str.maketrans("", "", "0123456789+-.eE")


def _canonical_columns(text: str):
    """(query ids, doc ids, labels, features) of a canonical file, or None.

    Each line splits at its first two spaces and its first " # " into the
    label, the qid token, the features and the doc id. The features of all
    lines must leave exactly ":", " :", ... once their number characters
    are deleted, so every token holds one colon; one list comparison then
    checks the keys against "1".."d", and one numpy call converts the
    values. Any other shape, and non-finite values, return None.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    n = len(lines)
    heads = [line.split(" ", 2) for line in lines]
    if set(map(len, heads)) != {3}:  # no lines, or a line with fewer than three fields
        return None
    labels, qid_tokens, rests = zip(*heads)
    regions, marks, doc_ids = zip(*[rest.partition(" # ") for rest in rests])
    dim = regions[0].count(":")
    qids = "".join(qid_tokens)
    if (
        dim < 1
        or not set(labels) <= _LABELS.keys()
        or [token[:4] for token in qid_tokens] != ["qid:"] * n
        or "#" in qids
        or qids.split() != [qids]
        or "" in marks
        or "" in doc_ids
        or "".join(doc_ids).split() != ["".join(doc_ids)]
    ):
        return None
    # each copy of the text goes before the next is made, which keeps the
    # heap the parse leaves behind small
    del lines, heads, rests
    features = " ".join(regions)
    del regions
    layout = " ".join([":" + " :" * (dim - 1)] * n)
    if features.translate(_NUMBER_CHARS) != layout:
        return None
    pieces = features.replace(" ", ":").split(":")
    del features
    if pieces[0::2] != [str(key) for key in range(1, dim + 1)] * n:
        return None
    try:
        values = np.array(pieces[1::2], dtype=np.float64)
    except ValueError:
        return None
    del pieces
    if not np.isfinite(values).all():
        return None
    query_ids = [token[4:] for token in qid_tokens]
    codes = np.fromiter(map(_LABELS.__getitem__, labels), dtype=np.int64, count=len(labels))
    return query_ids, list(doc_ids), codes, values.reshape(n, dim)


def _text_columns(path, text: str):
    """(query ids, doc ids, labels, features) of any file, line by line;
    raises the ParseError of the first malformed line.

    Labels, query ids and document ids are taken line by line; all feature
    keys and values are converted with one numpy call each (``int()`` and
    ``float()`` semantics).
    """
    lines = []  # (line number, whitespace-split fields, comment) per data line
    for lineno, line in enumerate(text.split("\n"), start=1):
        data, _, comment = line.partition("#")
        fields = data.split()
        if fields:
            lines.append((lineno, fields, comment))
    labels = [_relevance(fields[0]) for _, fields, _ in lines]
    malformed = any(
        label is None or len(fields) < 2 or not fields[1].startswith("qid:")
        for label, (_, fields, _) in zip(labels, lines)
    )
    widths = np.array([len(fields) - 2 for _, fields, _ in lines], dtype=np.int64)
    tokens = list(chain.from_iterable(fields[2:] for _, fields, _ in lines))
    colons = np.fromiter(map(str.count, tokens, repeat(":")), dtype=np.int64, count=len(tokens))
    if malformed or (colons != 1).any():
        _raise_first_error(path, lines)
    pieces = ":".join(tokens).split(":") if tokens else []
    del tokens
    try:
        keys = np.array(pieces[0::2], dtype=np.int64)
        values = np.array(pieces[1::2], dtype=np.float64)
    except (ValueError, OverflowError):
        _raise_first_error(path, lines)
        raise
    del pieces
    line_of = np.repeat(np.arange(len(lines)), widths)
    dims = np.zeros(len(lines), dtype=np.int64)
    filled = widths > 0
    if filled.any():
        dims[filled] = np.maximum.reduceat(keys, (np.cumsum(widths) - widths)[filled])
    if (keys < 1).any() or not np.isfinite(values).all() or (dims != dims[:1]).any():
        _raise_first_error(path, lines)
    dim = int(dims[0]) if len(lines) else 0
    features = np.zeros((len(lines), dim))
    cells = line_of * dim + (keys - 1)
    if (np.diff(cells) <= 0).any():  # a repeated key keeps its last value
        by_cell = np.argsort(cells, kind="stable")
        last = by_cell[np.r_[cells[by_cell][1:] != cells[by_cell][:-1], True]]
        cells, values = cells[last], values[last]
    features.flat[cells] = values

    anonymous = map("doc{}".format, count())
    words = [comment.split(None, 1) for _, _, comment in lines]
    doc_ids = [first[0] if first else next(anonymous) for first in words]
    query_ids = [fields[1][len("qid:") :] for _, fields, _ in lines]
    return query_ids, doc_ids, np.array(labels, dtype=np.int64), features


def _relevance(text: str) -> int | None:
    """The label ``int(text)`` if it is a valid relevance, else None."""
    try:
        label = int(text)
    except ValueError:
        return None
    return label if label in VALID_RELEVANCES else None


def _raise_first_error(path, lines) -> None:
    """Check the data lines one at a time, in order, and raise the ParseError
    of the first malformed one."""
    feature_dim = None
    for lineno, parts, _ in lines:
        where = f"{path}:{lineno}"
        if len(parts) < 2 or not parts[1].startswith("qid:"):
            raise ParseError(f"{where}: expected '<rel> qid:<id> ...'")
        try:
            relevance = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"{where}: bad relevance {parts[0]!r}") from exc
        if relevance not in VALID_RELEVANCES:
            raise ParseError(f"{where}: relevance {relevance} outside {VALID_RELEVANCES}")
        dim = 0
        for token in parts[2:]:
            if ":" not in token:
                raise ParseError(f"{where}: bad feature token {token!r}")
            key_text, value_text = token.split(":", 1)
            try:
                key = int(key_text)
                value = float(value_text)
            except ValueError as exc:
                raise ParseError(f"{where}: bad feature token {token!r}") from exc
            if key < 1:
                raise ParseError(f"{where}: feature indices are 1-based")
            if key >= 2**63:
                raise ParseError(f"{where}: feature index {key} does not fit in int64")
            if not math.isfinite(value):
                raise ParseError(f"{where}: feature value {value_text!r} is not finite")
            dim = max(dim, key)
        if feature_dim is None:
            feature_dim = dim
        elif dim != feature_dim:
            raise ParseError(f"{where}: feature dimension {dim} != {feature_dim} seen earlier")
    raise AssertionError("parse_letor flagged a line that the line checks accept")


def write_letor(path, dataset: RankingDataset) -> None:
    """Serialize in the same format, 17 significant digits per value; doc
    ids go into the comment."""
    dim = dataset.feature_dim
    values = map(fmt17, dataset.features.ravel().tolist())
    row_format = " ".join(f"{k + 1}:{{}}" for k in range(dim)).format
    rows = map(row_format, *[values] * dim) if dim else repeat("")
    labels, queries = dataset.labels.tolist(), dataset._row_queries()
    lines = map("{} qid:{} {} # {}\n".format, labels, queries, rows, dataset.doc_ids)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic dataset generator."""

    num_queries: int = 120
    docs_per_query: int = 15
    feature_dim: int = 24
    title_dims: int = 12
    seed: int = 0
    # Fractions of documents labeled (0, 1, 2), before per-query shifts.
    relevant_fraction: float = 0.35
    highly_relevant_fraction: float = 0.15
    feature_noise: float = 0.6
    # Std of the per-query difficulty shift. Real ranking collections mix
    # barren and rich queries (MQ2008 has many with no relevant document),
    # so per-query value varies a lot more than document noise alone gives.
    query_spread: float = 1.5

    def __post_init__(self):
        for name in ("num_queries", "docs_per_query", "feature_dim"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"must be >= 1, got {getattr(self, name)}")
        reals = ("relevant_fraction", "highly_relevant_fraction", "feature_noise", "query_spread")
        for name in reals:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise FieldError(name, f"must be a finite nonnegative number, got {value}")
        # checked as generate_synthetic computes its lower label cut's quantile
        if 1.0 - self.highly_relevant_fraction - self.relevant_fraction < 0.0:
            raise ConfigurationError(
                f"relevant_fraction {self.relevant_fraction} and highly_relevant_fraction "
                f"{self.highly_relevant_fraction} sum to more than 1"
            )


def generate_synthetic(config: GeneratorConfig) -> RankingDataset:
    """Random features with a planted linear relevance signal.

    A hidden weight vector spans both feature blocks; each document's
    latent quality is its feature response plus noise, and a per-query
    shift makes some queries rich in relevant documents and others barren.
    Labels are assigned by global latent-quality quantiles.
    """
    rng = np.random.default_rng(config.seed)
    hidden = rng.normal(size=config.feature_dim)
    hidden /= np.linalg.norm(hidden)

    num_docs = config.num_queries * config.docs_per_query
    features = rng.normal(size=(num_docs, config.feature_dim))
    query_shift = np.repeat(
        rng.normal(scale=config.query_spread, size=config.num_queries), config.docs_per_query
    )
    latent = features @ hidden + query_shift + config.feature_noise * rng.normal(size=num_docs)

    ordered = np.sort(latent)
    hi_cut = _quantile(ordered, 1.0 - config.highly_relevant_fraction)
    lo_cut = _quantile(ordered, 1.0 - config.highly_relevant_fraction - config.relevant_fraction)
    relevance = np.where(latent >= hi_cut, 2, np.where(latent >= lo_cut, 1, 0))

    doc_ids = map(
        "q{}d{}".format,
        np.repeat(np.arange(config.num_queries), config.docs_per_query).tolist(),
        np.tile(np.arange(config.docs_per_query), config.num_queries).tolist(),
    )
    return RankingDataset(
        features,
        relevance,
        tuple(doc_ids),
        tuple(f"q{qi}" for qi in range(config.num_queries)),
        np.arange(config.num_queries + 1) * config.docs_per_query,
    )


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of the default linear method, from the
    values sorted ascending; bit for bit, without the lazy ``numpy.ma``
    import ``np.quantile`` makes."""
    pos = (len(ordered) - 1) * q
    below = math.floor(pos)
    t = pos - below
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
