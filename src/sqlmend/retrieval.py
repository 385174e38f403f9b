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
score. Once k documents are held, one scoring below the k-th score is
dropped without building its heap entry; one tying it is compared whole, so
the lower index wins. Each score is a left fold from 0.0 of the document's
weights in query-token order, repeats included, which is the float a scan
over all documents gives; ``sum()`` is not used, because from Python 3.12
it compensates rounding and changes the last bits.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from .alignment import Alignment
from .datasets import entry_text, json_entries
from .errors import EmptyPoolError

_TOKENS = re.compile(r"[0-9a-z]+").findall

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


@dataclass(slots=True)
class Demonstration:
    question: str
    sql: str
    db_id: str
    alignment: Alignment | None = None


def load_demonstration_pool(path: str | Path) -> list[Demonstration]:
    """Read a JSON array of {question, query, db_id} records (the Spider
    training-set shape; ``sql`` is accepted as a synonym for ``query``)."""
    path = Path(path)
    pool = []
    for index, record in enumerate(json_entries(path)):
        question = entry_text(path, index, "question", record.get("question"))
        sql = entry_text(path, index, "query", record.get("query", record.get("sql")))
        db_id = entry_text(path, index, "db_id", record.get("db_id"), required=False) or ""
        pool.append(Demonstration(question=question, sql=sql, db_id=db_id))
    return pool


def bm25_tokenize(text: str) -> list[str]:
    """The maximal runs of ``[0-9a-z]`` in the lowercased text: what is left
    of splitting it on runs of any other character, empty pieces dropped."""
    return _TOKENS(text.lower())


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
    """The BM25 index of the pool's questions. One pass over the documents
    counts each one's terms into the dict that becomes its forward map and
    fills the postings; a second, once the document frequencies and the
    average length are known, turns each count into its weight in place.
    Terms are interned, so each is stored once across the pool."""
    if not pool:
        raise EmptyPoolError("demonstration pool is empty")
    k1, b = DEFAULT_K1, DEFAULT_B
    postings: dict[str, array] = {}
    forward: list[dict] = []
    lengths: list[int] = []
    for doc_index, demo in enumerate(pool):
        tokens = list(map(sys.intern, bm25_tokenize(demo.question)))
        lengths.append(len(tokens))
        tf = dict.fromkeys(tokens, 1)
        if len(tf) < len(tokens):  # a term repeats: count every occurrence
            tf = dict.fromkeys(tf, 0)
            for term in tokens:
                tf[term] += 1
        forward.append(tf)
        for term in tf:
            docs = postings.get(term)
            if docs is None:
                docs = postings[term] = array("i")
            docs.append(doc_index)
    total = len(pool)
    average = sum(lengths) / total
    idfs = {
        term: math.log((total - len(docs) + 0.5) / (len(docs) + 0.5) + 1.0)
        for term, docs in postings.items()
    }
    maxima = dict.fromkeys(postings, 0.0)
    for weights, length in zip(forward, lengths):
        if not length:
            continue  # the average is 0 when every document is empty
        norm = k1 * (1 - b + b * length / average)
        for term, f in weights.items():
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
    newly met document is scored whole from ``forward``; once k are held,
    one scoring below the k-th is dropped before its heap entry is built.
    The search stops once no unmet document can reach the k-th score
    (MaxScore). Documents
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
            if len(heap) < limit:
                heapq.heappush(heap, (score, -doc_index))
            elif score >= heap[0][0] and (score, -doc_index) > heap[0]:
                heapq.heapreplace(heap, (score, -doc_index))
    ranked = [(-negated, score) for score, negated in sorted(heap, reverse=True)]
    if len(ranked) < limit:
        # Every term was visited, so ``seen`` holds every matched document.
        unmatched = (i for i in range(len(forward)) if i not in seen)
        ranked.extend((i, 0.0) for i in itertools.islice(unmatched, limit - len(ranked)))
    return ranked
