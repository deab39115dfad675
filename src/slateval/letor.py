"""Ranking datasets: SVMlight-with-qid parsing and a synthetic generator.

Lines look like ``<rel> qid:<id> <k>:<v> ... # <comment>`` with 1-indexed
feature keys in the file and 0-indexed features in memory. Relevance
labels are restricted to {0, 1, 2}.

The synthetic generator plants a linear relevance signal in random
features so the whole experimental pipeline can run without downloading
anything; the same weight vector drives two feature blocks, which makes
block-restricted score models informative but imperfect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ConfigurationError, FieldError, ParseError
from .util import fmt17

VALID_RELEVANCES = (0, 1, 2)


@dataclass(frozen=True)
class Document:
    doc_id: str
    relevance: int
    features: np.ndarray


@dataclass(frozen=True)
class Query:
    query_id: str
    documents: tuple[Document, ...]


@dataclass(frozen=True)
class RankingDataset:
    queries: tuple[Query, ...]

    @property
    def feature_dim(self) -> int:
        for query in self.queries:
            for doc in query.documents:
                return len(doc.features)
        return 0

    def rows(self):
        """Iterate (query, document) pairs in file order."""
        for query in self.queries:
            for doc in query.documents:
                yield query, doc


def parse_letor(path) -> RankingDataset:
    """Parse an SVMlight-with-qid file into a dataset.

    Malformed lines, non-finite feature values, inconsistent feature
    dimensionality, and relevance labels outside {0, 1, 2} are rejected
    with their line number. Features missing from a line are 0, and a
    repeated key keeps its last value. An empty file parses to an empty
    dataset.

    The whole file is read at once: labels, query ids and document ids are
    taken line by line, all feature keys and values are converted with one
    numpy call each (``int()`` and ``float()`` semantics), and one
    (documents x dim) matrix holds every document's features.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = []  # (line number, whitespace-split fields, comment) per data line
    for lineno, line in enumerate(text.split("\n"), start=1):
        data, _, comment = line.partition("#")
        fields = data.split()
        if fields:
            lines.append((lineno, fields, comment))
    del text
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

    order: list[str] = []
    per_query: dict[str, list[Document]] = {}
    anonymous = 0
    for (_, fields, comment), label, row in zip(lines, labels, features):
        words = comment.split(None, 1)
        if words:
            doc_id = words[0]
        else:
            doc_id = f"doc{anonymous}"
            anonymous += 1
        query_id = fields[1][len("qid:") :]
        if query_id not in per_query:
            order.append(query_id)
            per_query[query_id] = []
        per_query[query_id].append(Document(doc_id, label, row))
    return RankingDataset(tuple(Query(qid, tuple(per_query[qid])) for qid in order))


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
    """Serialize in the same format; doc ids go into the comment."""
    with open(path, "w", encoding="utf-8") as handle:
        for query in dataset.queries:
            for doc in query.documents:
                feats = " ".join(
                    f"{k + 1}:{fmt17(v)}" for k, v in enumerate(doc.features)
                )
                handle.write(f"{doc.relevance} qid:{query.query_id} {feats} # {doc.doc_id}\n")


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

    queries = []
    for qi in range(config.num_queries):
        rows = slice(qi * config.docs_per_query, (qi + 1) * config.docs_per_query)
        docs = tuple(
            Document(f"q{qi}d{di}", int(rel), feat)
            for di, (rel, feat) in enumerate(zip(relevance[rows], features[rows]))
        )
        queries.append(Query(f"q{qi}", docs))
    return RankingDataset(tuple(queries))


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of the default linear method, from the
    values sorted ascending; bit for bit, without the lazy ``numpy.ma``
    import ``np.quantile`` makes."""
    pos = (len(ordered) - 1) * q
    below = math.floor(pos)
    t = pos - below
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
