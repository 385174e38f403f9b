"""Reference BM25 ranking: the linear scan over every pool document that
``retrieval.top_k`` replaced. It tokenizes the pool itself and reads nothing
from the index it checks; the inverted index must return exactly the same
``(index, score)`` list, float for float. ``reference_index`` is the plain
build that ``retrieval.build_index`` must equal, float for float."""

from __future__ import annotations

import math
import re
from collections import Counter

from sqlmend.retrieval import DEFAULT_B, DEFAULT_K1, Demonstration, bm25_tokenize


def linear_top_k(
    pool: list[Demonstration], query: str, k: int, k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> list[tuple[int, float]]:
    documents = [bm25_tokenize(demo.question) for demo in pool]
    total = len(documents)
    average = sum(len(d) for d in documents) / total
    frequencies = Counter(term for document in documents for term in set(document))
    terms = bm25_tokenize(query)
    scored = []
    for doc_index, document in enumerate(documents):
        tf = Counter(document)
        norm = k1 * (1 - b + b * len(document) / average)
        score = 0.0
        for term in terms:
            f = tf.get(term, 0)
            if not f:
                continue
            df = frequencies[term]
            idf = math.log((total - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * (f * (k1 + 1)) / (f + norm)
        scored.append((doc_index, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[: min(k, total)]


def reference_index(
    pool: list[Demonstration], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> tuple[dict[str, list[int]], list[dict[str, float]], dict[str, float]]:
    """The postings, forward weights and per-term maxima of the pool, built
    the plain way: its own tokenizer, a ``Counter`` per document and one
    weight at a time, in the order of each term's first occurrence."""
    documents = [[t for t in re.split(r"[^0-9a-z]+", demo.question.lower()) if t]
                 for demo in pool]
    postings: dict[str, list[int]] = {}
    for doc_index, document in enumerate(documents):
        for term in Counter(document):
            postings.setdefault(term, []).append(doc_index)
    total = len(documents)
    average = sum(len(d) for d in documents) / total
    forward = []
    maxima = {term: 0.0 for term in postings}
    for document in documents:
        weights = {}
        for term, f in Counter(document).items():
            df = len(postings[term])
            idf = math.log((total - df + 0.5) / (df + 0.5) + 1.0)
            norm = k1 * (1 - b + b * len(document) / average)
            weights[term] = idf * (f * (k1 + 1)) / (f + norm)
            maxima[term] = max(maxima[term], weights[term])
        forward.append(weights)
    return postings, forward, maxima
