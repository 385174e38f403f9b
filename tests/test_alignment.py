from __future__ import annotations

import pytest

from sqlmend.alignment import (
    Alignment,
    AlignmentEntry,
    linked_entities,
    parse_alignment,
    score_alignment,
    tokenize_question,
)
from sqlmend.errors import AlignmentParseError, EmptyInputError, ScoringError


class TestTokenizeQuestion:
    def test_comma_number_kept_whole(self):
        assert tokenize_question("Order the stock idx with earnings more than 5,000") == [
            "Order", "the", "stock", "idx", "with", "earnings", "more", "than", "5,000",
        ]

    def test_trailing_question_mark_split(self):
        assert tokenize_question("How many heads?") == ["How", "many", "heads", "?"]

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            tokenize_question("")

    def test_leading_and_stacked_punctuation(self):
        assert tokenize_question('"Hello there!?') == ['"', "Hello", "there", "!", "?"]

    def test_internal_apostrophe_kept(self):
        assert tokenize_question("the singer's age") == ["the", "singer's", "age"]


class TestParseAlignment:
    def test_python_literal_with_none(self):
        raw = (
            "[{'token':'stock','schema':'stock_idx','type':'tbl'},"
            "{'token':'the','schema':None,'type':None}]"
        )
        alignment = parse_alignment(raw, question="stock the")
        assert len(alignment.entries) == 2
        assert alignment.entries[0].schema_entity == "stock_idx"
        assert alignment.entries[0].entity_type == "tbl"
        assert not alignment.entries[1].linked()
        assert alignment.repairs == 0

    def test_json_null_accepted(self):
        raw = '[{"token": "a", "schema": null, "type": null}]'
        alignment = parse_alignment(raw, question="a")
        assert not alignment.entries[0].linked()

    def test_empty_list(self):
        assert parse_alignment("[]", question="q").entries == []

    def test_refusal_text_raises(self):
        with pytest.raises(AlignmentParseError) as excinfo:
            parse_alignment("sorry, I cannot", question="q")
        assert excinfo.value.raw == "sorry, I cannot"

    def test_surrounding_prose_is_skipped(self):
        raw = "Sure! Here are the alignments: [{'token': 'x', 'schema': 'singer', 'type': 'tbl'}] done"
        alignment = parse_alignment(raw, question="x")
        assert alignment.entries[0].schema_entity == "singer"

    def test_type_hint_echo_not_decoded(self):
        raw = "List[Dict[str, str]] -> [{'token': 'x', 'schema': None, 'type': None}]"
        alignment = parse_alignment(raw, question="x")
        assert len(alignment.entries) == 1

    def test_one_sided_entry_repaired(self):
        raw = "[{'token': 'x', 'schema': 'singer', 'type': None}]"
        alignment = parse_alignment(raw, question="x")
        assert not alignment.entries[0].linked()
        assert alignment.repairs == 1

    def test_tab_synonym_normalized_to_tbl(self):
        raw = "[{'token': 'x', 'schema': 'singer', 'type': 'tab'}]"
        alignment = parse_alignment(raw, question="x")
        assert alignment.entries[0].entity_type == "tbl"

    def test_dropped_tokens_tolerated_with_warning(self):
        raw = "[{'token': 'singers', 'schema': 'singer', 'type': 'tbl'}]"
        alignment = parse_alignment(raw, question="How many singers are there?")
        assert len(alignment.entries) == 1
        assert alignment.repairs == 0  # a sub-sequence is fine

    def test_invented_tokens_flagged(self):
        raw = "[{'token': 'zzz', 'schema': None, 'type': None}]"
        alignment = parse_alignment(raw, question="How many singers are there?")
        assert len(alignment.entries) == 1
        assert alignment.repairs == 1

    def test_never_emits_one_sided_entries(self):
        raw = (
            "[{'token': 'a', 'schema': 'singer', 'type': 'xyz'},"
            " {'token': 'b', 'schema': None, 'type': 'col'}]"
        )
        alignment = parse_alignment(raw, question="a b")
        for entry in alignment.entries:
            assert (entry.schema_entity is None) == (entry.entity_type is None)

    def test_entries_hold_no_instance_dict(self):
        raw = "[{'token': 'x', 'schema': None, 'type': None}]"
        assert not hasattr(parse_alignment(raw, "x").entries[0], "__dict__")

    @pytest.mark.parametrize(
        "raw",
        [
            "[{'token': 'singer age', 'schema': 'singer.age', 'type': 'col'},"
            " {'token': '5,000', 'schema': '5,000', 'type': 'val'}]",
            '[{"token": "singer age", "schema": "singer.age", "type": "col"},'
            ' {"token": "5,000", "schema": "5,000", "type": "val"}]',
        ],
    )
    def test_same_text_parsed_twice_shares_strings(self, raw):
        first, second = parse_alignment(raw, "x"), parse_alignment(raw, "x")
        for a, b in zip(first.entries, second.entries, strict=True):
            assert a.token is b.token
            assert a.schema_entity is b.schema_entity


class TestLinkedEntities:
    def test_tables_and_columns_collected(self):
        alignment = Alignment(
            entries=[
                AlignmentEntry("stock", "stock_idx", "tbl"),
                AlignmentEntry("earnings", "earnings", "col"),
            ],
            question="q",
        )
        entities = linked_entities(alignment)
        assert entities.tables == {"stock_idx"}
        assert entities.columns == {"earnings"}

    def test_all_unlinked_gives_empty(self):
        alignment = Alignment(entries=[AlignmentEntry("the"), AlignmentEntry("a")], question="q")
        entities = linked_entities(alignment)
        assert not entities.tables and not entities.columns and not entities.values

    def test_duplicates_collapse(self):
        alignment = Alignment(
            entries=[
                AlignmentEntry("name", "name", "col"),
                AlignmentEntry("names", "Name", "col"),
            ],
            question="q",
        )
        assert len(linked_entities(alignment).columns) == 1

    def test_values_keep_order_and_multiplicity(self):
        alignment = Alignment(
            entries=[
                AlignmentEntry("5", "5", "val"),
                AlignmentEntry("two", "2", "val"),
                AlignmentEntry("5b", "5", "val"),
            ],
            question="q",
        )
        assert linked_entities(alignment).values == ["5", "2", "5"]

    def test_invariant_under_unlinked_reordering(self):
        linked = [
            AlignmentEntry("stock", "stock_idx", "tbl"),
            AlignmentEntry("earnings", "earnings", "col"),
        ]
        fillers = [AlignmentEntry("the"), AlignmentEntry("with")]
        one = Alignment(entries=[fillers[0], *linked, fillers[1]], question="q")
        two = Alignment(entries=[*linked, *fillers], question="q")
        first = linked_entities(one)
        second = linked_entities(two)
        assert first.tables == second.tables and first.columns == second.columns


def _alignment(pairs, question="q tokens here for scoring inde xx"):
    """pairs: list of (token, schema, type) or None for unlinked filler."""
    entries = []
    for pair in pairs:
        if pair is None:
            entries.append(AlignmentEntry("tok"))
        else:
            token, schema, kind = pair
            entries.append(AlignmentEntry(token, schema, kind))
    return Alignment(entries=entries, question=question)


class TestScoreAlignment:
    def test_identity_macro_f1(self):
        alignment = _alignment(
            [("stock", "stock_idx", "tbl"), None, ("earnings", "earnings", "col"),
             ("5,000", "5000", "val")]
        )
        score = score_alignment(alignment, alignment)
        assert score.macro.precision == 1.0
        assert score.macro.recall == 1.0
        assert score.macro.f1 == 1.0

    def test_empty_prediction_against_two_gold_columns(self):
        gold = _alignment([("a", "c1", "col"), ("b", "c2", "col")])
        predicted = _alignment([None, None])
        score = score_alignment(predicted, gold)
        assert score.by_type["col"].precision == 0.0
        assert score.by_type["col"].recall == 0.0
        assert score.by_type["col"].f1 == 0.0

    def test_two_thirds_macro_fixture(self):
        # gold links token 2 -> stock_idx (tbl) and token 5 -> earnings (col);
        # prediction finds only the table. Hand computation: tbl F=1, col F=0,
        # val F=1 (both empty), macro F = 2/3.
        gold = _alignment(
            [None, None, ("stock", "stock_idx", "tbl"), None, None,
             ("earnings", "earnings", "col")]
        )
        predicted = _alignment(
            [None, None, ("stock", "stock_idx", "tbl"), None, None, None]
        )
        score = score_alignment(predicted, gold)
        assert score.by_type["tbl"].f1 == 1.0
        assert score.by_type["col"].f1 == 0.0
        assert score.by_type["val"].f1 == 1.0
        assert score.macro.f1 == pytest.approx(2 / 3)

    def test_precision_recall_swap_symmetry(self):
        gold = _alignment(
            [("a", "singer", "tbl"), ("b", "name", "col"), None, ("d", "7", "val")]
        )
        predicted = _alignment(
            [("a", "singer", "tbl"), None, ("c", "age", "col"), None]
        )
        forward = score_alignment(predicted, gold)
        backward = score_alignment(gold, predicted)
        for kind in ("tbl", "col", "val"):
            assert forward.by_type[kind].precision == backward.by_type[kind].recall
            assert forward.by_type[kind].recall == backward.by_type[kind].precision

    def test_question_mismatch_raises(self):
        with pytest.raises(ScoringError):
            score_alignment(
                _alignment([None], question="one"), _alignment([None], question="two")
            )

    def test_schema_entity_match_is_case_insensitive(self):
        gold = _alignment([("a", "Stock_Idx", "tbl")])
        predicted = _alignment([("a", "stock_idx", "tbl")])
        assert score_alignment(predicted, gold).macro.f1 == 1.0
