from __future__ import annotations

import json
import sys
from array import array

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

from support.bm25_reference import linear_top_k, reference_index

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
        assert len(index.forward) == 3
        assert len(index.postings["singer"]) == 2
        assert len(index.postings["names"]) == 1
        assert len(index.postings["concerts"]) == 1

    def test_single_document_average_length(self):
        pool = [FIXTURE_POOL[0]]
        index = build_index(pool)
        for query in ("singer names", "show", "count"):
            assert top_k(index, query, k=1) == linear_top_k(pool, query, k=1)

    def test_empty_pool(self):
        with pytest.raises(EmptyPoolError):
            build_index([])

    def test_postings_list_each_document_once_in_ascending_order(self):
        pool = FIXTURE_POOL + [
            Demonstration(question="singer singer names", sql="S4", db_id="d")
        ]
        index = build_index(pool)
        assert list(index.postings["singer"]) == [0, 2, 3]
        assert list(index.postings["names"]) == [0, 3]
        assert set(index.postings) == set(index.max_weights)

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
        pool = [Demonstration(question=q, sql="S", db_id="d") for q in questions]
        assert top_k(build_index(pool), query, k) == linear_top_k(pool, query, k)

    @pytest.mark.parametrize(
        "query", ["", "zzz", "singer singer names", "names zzz singer", "the"]
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_fixture_queries(self, query, k):
        index = build_index(FIXTURE_POOL)
        assert top_k(index, query, k) == linear_top_k(FIXTURE_POOL, query, k)


def _pool(questions):
    return [Demonstration(question=q, sql="S", db_id="d") for q in questions]


def _bits(ranked):
    return [(i, score.hex()) for i, score in ranked]


def _assert_same_as_scan(questions, query, k):
    pool = _pool(questions)
    assert _bits(top_k(build_index(pool), query, k)) == _bits(linear_top_k(pool, query, k))


class _CountingList(list):
    """A forward index that counts the documents scored from it."""

    reads = 0

    def __getitem__(self, item):
        self.reads += 1
        return super().__getitem__(item)


class TestPruning:
    """The search stops early (MaxScore); none of that may show in the
    output, which must equal the linear scan's float for float."""

    def test_tie_at_the_bound_goes_to_the_lower_index(self):
        # After "a" fills the heap, the bound of "b" equals the k-th score
        # exactly: the search must go on, and the "b" documents, with lower
        # indices, win every tie.
        questions = ["b"] * 5 + ["a"] * 5
        index = build_index(_pool(questions))
        ranked = top_k(index, "a b", 5)
        assert [i for i, _ in ranked] == [0, 1, 2, 3, 4]
        assert _bits(ranked) == _bits(linear_top_k(_pool(questions), "a b", 5))

    def test_tie_with_the_root_after_the_heap_fills_replaces_it(self):
        # "a" and "b" weigh the same, so "a" is visited first and fills the
        # heap with documents 2 and 3. Of the "b" documents, 0 scores below
        # the root and is dropped; 1 ties it with a lower index and must
        # take the place of document 3.
        questions = ["b pad", "b", "a", "a"]
        index = build_index(_pool(questions))
        ranked = top_k(index, "a b", 2)
        assert [i for i, _ in ranked] == [1, 2]
        assert ranked[0][1] == ranked[1][1] > top_k(index, "b", 2)[1][1]
        assert _bits(ranked) == _bits(linear_top_k(_pool(questions), "a b", 2))

    @pytest.mark.parametrize("k", [1, 3, 5, 12, 40])
    def test_many_documents_tied_at_the_kth_score(self, k):
        questions = ["apple pie"] * 30 + ["apple pie crust"] * 3 + ["crust"] * 10
        questions = questions[::2] + questions[1::2]  # interleave the ties
        for query in ("apple", "apple pie", "crust apple", "pie crust crust"):
            _assert_same_as_scan(questions, query, k)

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_query_of_terms_in_most_documents(self, k):
        words = ["the", "of", "a", "name", "singer", "show", "list", "age"]
        questions = [
            " ".join(["the", "of"][: 1 + i % 2] + words[2 + i % 6 : 4 + i % 5] + ["a"] * (i % 3))
            for i in range(60)
        ]
        for query in ("the", "the of", "of the a the", "a a a of"):
            _assert_same_as_scan(questions, query, k)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_repeated_query_terms(self, k):
        # "common" has the smaller weight, but repeated it bounds higher.
        questions = ["rare"] + ["common"] * 8 + ["common rare", "common common x"]
        for query in ("common common common rare", "rare common rare common common",
                      "common rare common", "x common x common"):
            _assert_same_as_scan(questions, query, k)

    def test_repeated_term_counts_in_the_bound(self):
        # "rare" fills the heap with documents 0 and 1. One "common" weight
        # is below document 1's score, but the query holds "common" twice.
        questions = ["rare", "rare pad", "common", "common", "common", "common"]
        index = build_index(_pool(questions))
        ranked = top_k(index, "rare common common", 2)
        assert [i for i, _ in ranked] == [0, 2]
        assert _bits(ranked) == _bits(linear_top_k(_pool(questions), "rare common common", 2))

    def test_fewer_matched_documents_than_k(self):
        questions = ["x y", "apple", "x", "pie apple", "y", "z", "apple apple", "q"]
        index = build_index(_pool(questions))
        ranked = top_k(index, "apple pie", 6)
        assert [i for i, _ in ranked] == [3, 6, 1, 0, 2, 4]
        assert [score for _, score in ranked[3:]] == [0.0] * 3
        assert _bits(ranked) == _bits(linear_top_k(_pool(questions), "apple pie", 6))

    def test_stops_before_terms_that_cannot_reach_the_kth_score(self):
        questions = ["rare common"] + ["common filler words"] * 200
        index = build_index(_pool(questions))
        index.forward = _CountingList(index.forward)
        ranked = top_k(index, "rare common", 1)
        assert ranked == linear_top_k(_pool(questions), "rare common", 1)
        assert ranked[0][0] == 0
        assert index.forward.reads == 1  # the 200 "common" documents are never scored

    @settings(max_examples=300, deadline=None)
    @given(
        questions=st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=5).map(" ".join),
            min_size=1,
            max_size=40,
        ),
        query=st.lists(st.sampled_from("abcdez"), max_size=7).map(" ".join),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_small_vocabulary(self, questions, query, k):
        # Five words over up to 40 documents: ties at the k-th score and
        # early stops are the common case, not the rare one.
        _assert_same_as_scan(questions, query, k)


# Characters whose lowercase is not themselves in ASCII's way: the dotted
# capital I lowers to "i" and a combining dot, the Kelvin sign to "k", and
# the capital sharp s and final sigma to letters outside [0-9a-z].
_MIXED_TEXT = st.text(alphabet="ab AB1_-\u0130\u212a\u1e9e\u03a3\u00e9\t", max_size=20)


class TestBuildIndexMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(questions=st.lists(st.one_of(_questions, _MIXED_TEXT), min_size=1, max_size=20))
    def test_same_postings_weights_and_maxima(self, questions):
        # Empty documents, repeated terms and text that lower() changes.
        pool = [Demonstration(question=q, sql="S", db_id="d") for q in questions]
        index = build_index(pool)
        postings, forward, maxima = reference_index(pool)
        assert list(index.postings) == list(postings)
        assert {term: list(docs) for term, docs in index.postings.items()} == postings
        assert all(type(docs) is array and docs.typecode == "i"
                   for docs in index.postings.values())
        assert index.forward == forward  # float for float: == on floats is exact
        assert [list(weights) for weights in index.forward] == [list(w) for w in forward]
        assert index.max_weights == maxima and list(index.max_weights) == list(maxima)
        assert all(term is sys.intern(term) for term in index.postings)
        assert all(term is sys.intern(term) for weights in index.forward for term in weights)

    def test_dotted_capital_i_holds_an_i(self):
        index = build_index([Demonstration(question="\u0130D", sql="S", db_id="d")])
        assert list(index.postings) == ["i", "d"]


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

    @pytest.mark.parametrize("field, value, message", [
        ("question", "  ", "question must be a non-blank string"),
        ("question", 5, "question must be a non-blank string, not 5"),
        ("query", "", "query must be a non-blank string"),
        ("query", ["SELECT 1"], "query must be a non-blank string"),
        ("db_id", 3, "db_id must be a string, not 3"),
    ])
    def test_fields_of_the_wrong_type_rejected(self, tmp_path, field, value, message):
        good = {"question": "q", "query": "SELECT 1", "db_id": "d"}
        path = tmp_path / "pool.json"
        path.write_text(json.dumps([good, {**good, field: value}]), encoding="utf-8")
        with pytest.raises(MalformedDatasetError, match=f"pool.json: entry 1: {message}"):
            load_demonstration_pool(path)
