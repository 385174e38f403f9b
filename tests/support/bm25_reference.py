"""Reference BM25 ranking: the linear scan over every pool document that
``retrieval.top_k`` replaced. The inverted index must return exactly the
same ``(index, score)`` list, float for float."""

from __future__ import annotations

import math
from collections import Counter

from sqlmend.retrieval import Bm25Index, bm25_tokenize


def linear_top_k(index: Bm25Index, query: str, k: int) -> list[tuple[int, float]]:
    terms = bm25_tokenize(query)
    total = len(index.documents)
    scored = []
    for doc_index, document in enumerate(index.documents):
        tf = Counter(document)
        norm = index.k1 * (
            1 - index.b + index.b * len(document) / index.average_document_length
        )
        score = 0.0
        for term in terms:
            f = tf.get(term, 0)
            if not f:
                continue
            df = index.document_frequencies[term]
            idf = math.log((total - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * (f * (index.k1 + 1)) / (f + norm)
        scored.append((doc_index, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[: min(k, total)]
