"""Reference BM25 ranking: the linear scan over every pool document that
``retrieval.top_k`` replaced. It tokenizes the pool itself and reads nothing
from the index it checks; the inverted index must return exactly the same
``(index, score)`` list, float for float."""

from __future__ import annotations

import math
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
