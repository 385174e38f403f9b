from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqlmend.errors import EmptyPoolError, MalformedDatasetError
from sqlmend.retrieval import (
    Demonstration,
    bm25_tokenize,
    build_index,
    load_demonstration_pool,
    top_k,
)

from support.bm25_reference import linear_top_k

FIXTURE_POOL = [
    Demonstration(question="show singer names", sql="S1", db_id="d"),
    Demonstration(question="count concerts", sql="S2", db_id="d"),
    Demonstration(question="singer age order", sql="S3", db_id="d"),
]

# Okapi scores for query "singer names" over the fixture, computed by an
# independent brute-force pass (k1=1.2, b=0.75, plus-one IDF) and frozen.
EXPECTED_SCORES = {0: 1.3802518231206125, 1: 0.0, 2: 0.44713858782297017}


class TestBuildIndex:
    def test_document_statistics(self):
        index = build_index(FIXTURE_POOL)
        assert len(index.documents) == 3
        assert index.document_frequencies["singer"] == 2
        assert index.document_frequencies["names"] == 1
        assert index.document_frequencies["concerts"] == 1
        assert index.average_document_length == pytest.approx(8 / 3)

    def test_single_document_average_length(self):
        index = build_index([FIXTURE_POOL[0]])
        assert index.average_document_length == 3

    def test_empty_pool(self):
        with pytest.raises(EmptyPoolError):
            build_index([])

    @pytest.mark.parametrize("k1, b", [(-0.1, 0.75), (1.2, -0.1), (1.2, 1.5)])
    def test_parameters_out_of_range(self, k1, b):
        with pytest.raises(ValueError):
            build_index(FIXTURE_POOL, k1=k1, b=b)

    def test_postings_list_each_document_once_in_ascending_order(self):
        pool = FIXTURE_POOL + [
            Demonstration(question="singer singer names", sql="S4", db_id="d")
        ]
        index = build_index(pool)
        assert list(index.postings["singer"][0]) == [0, 2, 3]
        assert list(index.postings["names"][0]) == [0, 3]
        assert set(index.postings) == set(index.document_frequencies)

    def test_tokenization_lowercases_and_splits(self):
        assert bm25_tokenize("Show; the STOCK-idx 5,000!") == [
            "show", "the", "stock", "idx", "5", "000",
        ]


class TestTopK:
    def test_identical_query_ranks_first(self):
        index = build_index(FIXTURE_POOL)
        ranked = top_k(index, "count concerts", k=3)
        assert ranked[0][0] == 1

    def test_hand_computed_scores(self):
        index = build_index(FIXTURE_POOL)
        ranked = top_k(index, "singer names", k=2)
        assert [doc for doc, _ in ranked] == [0, 2]
        for doc, score in ranked:
            assert score == pytest.approx(EXPECTED_SCORES[doc], abs=1e-9)

    def test_k_larger_than_pool(self):
        index = build_index(FIXTURE_POOL)
        assert len(top_k(index, "singer", k=10)) == 3

    def test_k_must_be_positive(self):
        index = build_index(FIXTURE_POOL)
        with pytest.raises(ValueError):
            top_k(index, "singer", k=0)

    def test_scores_non_increasing(self):
        index = build_index(FIXTURE_POOL)
        ranked = top_k(index, "singer names order", k=3)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_ties_break_by_ascending_index(self):
        pool = [
            Demonstration(question="apple pie", sql="S", db_id="d"),
            Demonstration(question="apple pie", sql="S", db_id="d"),
        ]
        ranked = top_k(build_index(pool), "apple", k=2)
        assert [doc for doc, _ in ranked] == [0, 1]
        assert ranked[0][1] == ranked[1][1]

    def test_pool_of_empty_documents_ranks_by_index(self):
        pool = [Demonstration(question=q, sql="S", db_id="d") for q in ("?", "!!", "-")]
        assert top_k(build_index(pool), "singer", k=2) == [(0, 0.0), (1, 0.0)]

    def test_deterministic_across_rebuilds(self):
        baseline = None
        for _ in range(100):
            ranked = top_k(build_index(FIXTURE_POOL), "singer names", k=3)
            if baseline is None:
                baseline = ranked
            assert ranked == baseline

    def test_non_matching_document_preserves_relative_order(self):
        with_extra = FIXTURE_POOL + [
            Demonstration(question="weather tomorrow maybe", sql="S4", db_id="d")
        ]
        base = top_k(build_index(FIXTURE_POOL), "singer names", k=3)
        extended = top_k(build_index(with_extra), "singer names", k=4)
        base_order = [doc for doc, score in base if score > 0]
        extended_order = [doc for doc, score in extended if score > 0]
        assert base_order == extended_order


# A small vocabulary makes shared terms, repeated terms and tied scores
# common; "zzz" never occurs in a pool question.
_WORDS = ["singer", "names", "count", "concerts", "age", "order", "show", "the"]
_questions = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)


class TestMatchesLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(
        questions=st.lists(_questions, min_size=1, max_size=12),
        query=st.lists(st.sampled_from(_WORDS + ["zzz"]), max_size=8).map(" ".join),
        k=st.integers(min_value=1, max_value=15),
    )
    def test_same_ranking_and_scores(self, questions, query, k):
        assume(any(questions))  # the scan divides by a zero average length
        index = build_index(
            [Demonstration(question=q, sql="S", db_id="d") for q in questions]
        )
        assert top_k(index, query, k) == linear_top_k(index, query, k)

    @pytest.mark.parametrize(
        "query", ["", "zzz", "singer singer names", "names zzz singer", "the"]
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_fixture_queries(self, query, k):
        index = build_index(FIXTURE_POOL)
        assert top_k(index, query, k) == linear_top_k(index, query, k)


class TestPoolLoading:
    def test_spider_shape(self, tmp_path):
        path = tmp_path / "pool.json"
        path.write_text(
            json.dumps([{"question": "q", "query": "SELECT 1", "db_id": "d"}]),
            encoding="utf-8",
        )
        pool = load_demonstration_pool(path)
        assert pool[0].sql == "SELECT 1"

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "pool.json"
        path.write_text(json.dumps([{"question": "q"}]), encoding="utf-8")
        with pytest.raises(MalformedDatasetError):
            load_demonstration_pool(path)
