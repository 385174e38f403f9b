"""Demonstration selection: Okapi BM25 over the pool questions.

Documents and queries are tokenized by lowercasing and splitting on runs of
non-alphanumeric characters. IDF uses the plus-one form
``ln((N - df + 0.5) / (df + 0.5) + 1)`` so scores are never negative.

The index is inverted: each term keeps the ascending pool indices of the
documents that contain it and its largest weight in any of them. A forward
index keeps each document's term -> weight map. ``top_k`` is an exact
MaxScore search (Turtle & Flood 1995): it visits the query's terms highest
bound first, scores each newly met document whole from the forward index,
and stops once the terms left cannot lift any unmet document to the k-th
score. Each score is a left fold from 0.0 of the document's weights in
query-token order, repeats included, which is the float a scan over all
documents gives; ``sum()`` is not used, because from Python 3.12 it
compensates rounding and changes the last bits.
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
from .datasets import entry_text
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
        question = entry_text(path, index, "question", record.get("question"))
        sql = entry_text(path, index, "query", record.get("query", record.get("sql")))
        db_id = entry_text(path, index, "db_id", record.get("db_id"), required=False) or ""
        pool.append(Demonstration(question=question, sql=sql, db_id=db_id))
    return pool


def bm25_tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@dataclass
class Bm25Index:
    """BM25 weights of a pool, with ``k1`` = ``DEFAULT_K1`` and ``b`` =
    ``DEFAULT_B``.

    ``postings`` maps each term to the ascending indices of the documents
    holding it, so its length is the term's document frequency; ``forward``
    holds each document's term -> weight map, and ``max_weights`` each
    term's largest weight in any document."""

    postings: dict[str, array] = field(default_factory=dict)
    forward: list[dict[str, float]] = field(default_factory=list)
    max_weights: dict[str, float] = field(default_factory=dict)


def build_index(pool: list[Demonstration]) -> Bm25Index:
    if not pool:
        raise EmptyPoolError("demonstration pool is empty")
    k1, b = DEFAULT_K1, DEFAULT_B
    # Interned, so each distinct term is stored once across the pool.
    counts = [Counter(map(sys.intern, bm25_tokenize(demo.question))) for demo in pool]
    postings: dict[str, array] = {}
    for doc_index, tf in enumerate(counts):
        for term in tf:
            if term not in postings:
                postings[term] = array("i")
            postings[term].append(doc_index)
    total = len(counts)
    average = sum(tf.total() for tf in counts) / total
    idfs = {
        term: math.log((total - len(docs) + 0.5) / (len(docs) + 0.5) + 1.0)
        for term, docs in postings.items()
    }
    forward: list[dict[str, float]] = []
    maxima = dict.fromkeys(postings, 0.0)
    for tf in counts:
        weights: dict[str, float] = {}
        forward.append(weights)
        if not tf:
            continue  # the average is 0 when every document is empty
        norm = k1 * (1 - b + b * tf.total() / average)
        for term, f in tf.items():
            weight = weights[term] = idfs[term] * (f * (k1 + 1)) / (f + norm)
            if weight > maxima[term]:
                maxima[term] = weight
    return Bm25Index(postings=postings, forward=forward, max_weights=maxima)


def top_k(index: Bm25Index, query: str, k: int) -> list[tuple[int, float]]:
    """Rank pool documents against the query, descending score, ties broken
    by ascending pool index; returns min(k, N) items.

    A document's score adds its weight for each query token in query order,
    repeats included, so every sum is the same float a scan over all
    documents would give. Terms are visited highest bound first and each
    newly met document is scored whole from ``forward``; the search stops
    once no unmet document can reach the k-th score (MaxScore). Documents
    sharing no term score 0.0 and fill any remaining places in ascending
    index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    forward = index.forward
    maxima = index.max_weights
    tokens = [t for t in bm25_tokenize(query) if t in maxima]
    limit = min(k, len(forward))
    terms = sorted(dict.fromkeys(tokens), key=lambda t: -maxima[t] * tokens.count(t))
    heap: list[tuple[float, int]] = []  # (score, -index): the root ranks last
    seen: set[int] = set()
    for position, term in enumerate(terms):
        if len(heap) == limit:
            # An unmet document holds none of the terms visited so far. Its
            # score is a fold of weights no larger than the remaining
            # maxima, and rounded addition is monotone, so folding those
            # maxima in query order bounds it from above with no margin.
            # Strict < keeps a tie at the k-th score, won by a lower index.
            remaining = terms[position:]
            bound = 0.0
            for t in tokens:
                if t in remaining:
                    bound += maxima[t]
            if bound < heap[0][0]:
                break
        for doc_index in index.postings[term]:
            if doc_index in seen:
                continue
            seen.add(doc_index)
            weights = forward[doc_index]
            score = 0.0
            for t in tokens:
                score += weights.get(t, 0.0)  # + 0.0 leaves a sum >= 0 unchanged
            entry = (score, -doc_index)
            if len(heap) < limit:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
    ranked = [(-negated, score) for score, negated in sorted(heap, reverse=True)]
    if len(ranked) < limit:
        # Every term was visited, so ``seen`` holds every matched document.
        unmatched = (i for i in range(len(forward)) if i not in seen)
        ranked.extend((i, 0.0) for i in itertools.islice(unmatched, limit - len(ranked)))
    return ranked
