"""Demonstration selection: Okapi BM25 over the pool questions.

Documents and queries are tokenized by lowercasing and splitting on runs of
non-alphanumeric characters. IDF uses the plus-one form
``ln((N - df + 0.5) / (df + 0.5) + 1)`` so scores are never negative.

The index is inverted: each term keeps the pool indices of the documents
that contain it, with that term's BM25 weight in each, so a query scores
only the documents that share one of its terms.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .alignment import Alignment
from .errors import EmptyPoolError, MalformedDatasetError

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


@dataclass
class Demonstration:
    question: str
    sql: str
    db_id: str
    alignment: Alignment | None = None


def load_demonstration_pool(path: str | Path) -> list[Demonstration]:
    """Read a JSON array of {question, query, db_id} records (the Spider
    training-set shape; ``sql`` is accepted as a synonym for ``query``)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedDatasetError(f"{path}: cannot parse pool file: {exc}") from exc
    if not isinstance(raw, list):
        raise MalformedDatasetError(f"{path}: expected a top-level array")
    pool = []
    for index, record in enumerate(raw):
        if not isinstance(record, dict):
            raise MalformedDatasetError(f"{path}: entry {index} is not an object")
        question = record.get("question", "")
        sql = record.get("query", record.get("sql", ""))
        db_id = record.get("db_id", "")
        if not question or not sql:
            raise MalformedDatasetError(
                f"{path}: entry {index} is missing question or query"
            )
        pool.append(Demonstration(question=question, sql=sql, db_id=db_id))
    return pool


def bm25_tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@dataclass
class Bm25Index:
    """BM25 statistics of a pool. ``postings`` maps each term to the
    ascending indices of the documents holding it and the term's weight in
    each; the weights are fixed by ``k1`` and ``b`` at build time."""

    documents: list[list[str]]
    document_frequencies: dict[str, int]
    average_document_length: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    postings: dict[str, tuple[array, array]] = field(default_factory=dict)


def build_index(
    pool: list[Demonstration], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> Bm25Index:
    if not pool:
        raise EmptyPoolError("demonstration pool is empty")
    if k1 < 0 or not 0 <= b <= 1:
        # Outside these ranges a weight can be zero or negative, and an
        # unmatched document could then outrank a matched one.
        raise ValueError("BM25 needs k1 >= 0 and 0 <= b <= 1")
    # Interned, so each distinct term is stored once across the pool.
    documents = [list(map(sys.intern, bm25_tokenize(demo.question))) for demo in pool]
    counts = [Counter(doc) for doc in documents]
    frequencies: dict[str, int] = {}
    for tf in counts:
        for term in tf:
            frequencies[term] = frequencies.get(term, 0) + 1
    total = len(documents)
    average = sum(len(d) for d in documents) / total
    idfs = {
        term: math.log((total - df + 0.5) / (df + 0.5) + 1.0)
        for term, df in frequencies.items()
    }
    postings = {term: (array("i"), array("d")) for term in frequencies}
    for doc_index, (doc, tf) in enumerate(zip(documents, counts)):
        if not doc:
            continue  # no postings; the average is 0 when every document is empty
        norm = k1 * (1 - b + b * len(doc) / average)
        for term, f in tf.items():
            indices, weights = postings[term]
            indices.append(doc_index)
            weights.append(idfs[term] * (f * (k1 + 1)) / (f + norm))
    return Bm25Index(
        documents=documents,
        document_frequencies=frequencies,
        average_document_length=average,
        k1=k1,
        b=b,
        postings=postings,
    )


def top_k(index: Bm25Index, query: str, k: int) -> list[tuple[int, float]]:
    """Rank pool documents against the query, descending score, ties broken
    by ascending pool index; returns min(k, N) items.

    Scores add each query token's weight in query order, repeats included,
    so every sum is the same float a scan over all documents would give.
    Documents sharing no term score 0.0 and fill any remaining places in
    ascending index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = [0.0] * len(index.documents)
    for term in bm25_tokenize(query):
        posting = index.postings.get(term)
        if posting is None:
            continue
        for doc_index, weight in zip(*posting):
            scores[doc_index] += weight
    limit = min(k, len(scores))
    # Weights are positive, so exactly the matched documents score above 0.
    best = heapq.nsmallest(limit, ((-score, i) for i, score in enumerate(scores) if score))
    ranked = [(i, -negated) for negated, i in best]
    if len(ranked) < limit:
        unmatched = (i for i, score in enumerate(scores) if not score)
        ranked.extend((i, 0.0) for i in itertools.islice(unmatched, limit - len(ranked)))
    return ranked
