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

import numpy as np

from .errors import ParseError
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

    Malformed lines, inconsistent feature dimensionality, and relevance
    labels outside {0, 1, 2} are rejected with their line number. An empty
    file parses to an empty dataset.
    """
    order: list[str] = []
    per_query: dict[str, list[Document]] = {}
    feature_dim: int | None = None
    anonymous = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            comment = ""
            if "#" in line:
                line, comment = line.split("#", 1)
                comment = comment.strip()
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2 or not parts[1].startswith("qid:"):
                raise ParseError(f"{path}:{lineno}: expected '<rel> qid:<id> ...'")
            try:
                relevance = int(parts[0])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad relevance {parts[0]!r}") from exc
            if relevance not in VALID_RELEVANCES:
                raise ParseError(
                    f"{path}:{lineno}: relevance {relevance} outside {VALID_RELEVANCES}"
                )
            query_id = parts[1][len("qid:") :]
            pairs = []
            for token in parts[2:]:
                if ":" not in token:
                    raise ParseError(f"{path}:{lineno}: bad feature token {token!r}")
                key_text, value_text = token.split(":", 1)
                try:
                    key = int(key_text)
                    value = float(value_text)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad feature token {token!r}") from exc
                if key < 1:
                    raise ParseError(f"{path}:{lineno}: feature indices are 1-based")
                pairs.append((key, value))
            dim = max((k for k, _ in pairs), default=0)
            if feature_dim is None:
                feature_dim = dim
            elif dim != feature_dim:
                raise ParseError(
                    f"{path}:{lineno}: feature dimension {dim} != {feature_dim} seen earlier"
                )
            features = np.zeros(feature_dim)
            for key, value in pairs:
                features[key - 1] = value
            if comment:
                doc_id = comment.split()[0]
            else:
                doc_id = f"doc{anonymous}"
                anonymous += 1
            if query_id not in per_query:
                order.append(query_id)
                per_query[query_id] = []
            per_query[query_id].append(Document(doc_id, relevance, features))
    queries = tuple(Query(qid, tuple(per_query[qid])) for qid in order)
    return RankingDataset(queries)


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
