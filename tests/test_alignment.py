from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend import alignment
from sqlmend.alignment import (
    Alignment,
    AlignmentEntry,
    linked_entities,
    parse_alignment,
    score_alignment,
    tokenize_question,
)
from sqlmend.errors import (
    AlignmentParseError,
    EmptyInputError,
    MalformedDatasetError,
)

from support import alignment_reference, question_tokens_reference


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

    # Edge punctuation, digits and commas, letters, and the characters where
    # whitespace is easy to get wrong: the ASCII separators \x1c-\x1f, NEL,
    # no-break space, line separator and ideographic space are whitespace
    # to ``str.split``; zero-width space and the byte-order mark are not.
    @settings(max_examples=1000, deadline=None)
    @given(st.text(
        alphabet=",.?!;:\"'0159aZé \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
        "\x85\xa0\u2028\u3000\u200b\ufeff",
        max_size=30,
    ))
    def test_same_tokens_as_the_peeling_tokenizer(self, question):
        try:
            expected = question_tokens_reference.tokenize_question(question)
        except EmptyInputError:
            with pytest.raises(EmptyInputError):
                tokenize_question(question)
        else:
            assert tokenize_question(question) == expected

    @given(st.text(alphabet=" \t\n\x1c\x1f\x85\xa0\u2028\u3000", max_size=8))
    def test_blank_raises(self, question):
        with pytest.raises(EmptyInputError):
            tokenize_question(question)


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

    def test_record_not_an_object_or_without_a_token_dropped(self):
        raw = ("[1, {'token': None, 'schema': None, 'type': None},"
               " {'token': '', 'schema': 'singer', 'type': 'tbl'},"
               " {'token': 'a', 'schema': None, 'type': None}]")
        alignment = parse_alignment(raw, question="a")
        assert [e.token for e in alignment.entries] == ["a"]
        assert alignment.repairs == 3

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


# Text with quotes, backslashes, control and non-ASCII characters, which
# ``repr`` escapes or keeps in its own ways.
_LITERAL_TEXT = st.text(alphabet="a'\"\\ \n\x00\x7fé\u2028\U0001f600\ud800", max_size=6)


class TestRecordsLiteral:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(
        AlignmentEntry,
        token=_LITERAL_TEXT,
        schema_entity=st.none() | _LITERAL_TEXT,
        entity_type=st.none() | st.sampled_from(alignment.LINK_TYPES) | _LITERAL_TEXT,
    ), max_size=5))
    def test_equals_the_repr_of_the_records(self, entries):
        found = Alignment(entries=entries)
        assert found.records_literal() == repr(found.to_records())


class TestSharedEntryTable:
    _ANSWERS = [
        "[{'token': 'singer', 'schema': 'singer', 'type': 'tbl'},"
        " {'token': 'age', 'schema': 'singer.age', 'type': 'col'}]",
        '[{"token": "age", "schema": "singer.age", "type": "col"},'
        ' {"token": "the", "schema": null, "type": null}]',
        "[{'token': 'the', 'schema': 'x', 'type': None},"  # repaired: unlinked
        " {'token': 'singer', 'schema': 'singer', 'type': 'tab'}]",
    ]

    def test_same_alignments_as_without_a_table(self):
        shared: dict = {}
        for raw in self._ANSWERS:
            assert parse_alignment(raw, "the singer age", shared=shared) == parse_alignment(
                raw, "the singer age"
            )

    def test_equal_entries_are_one_object(self):
        shared: dict = {}
        parsed = [parse_alignment(raw, "the singer age", shared=shared) for raw in self._ANSWERS]
        entries = [entry for found in parsed for entry in found.entries]
        assert len(entries) == 6
        assert len({id(entry) for entry in entries}) == len(set(entries)) == 3
        for entry in entries:
            assert shared[(entry.token, entry.schema_entity, entry.entity_type)] is entry


class TestLinkedEntities:
    def test_tables_and_columns_collected(self):
        alignment = Alignment(
            entries=[
                AlignmentEntry("stock", "stock_idx", "tbl"),
                AlignmentEntry("earnings", "earnings", "col"),
            ]
        )
        entities = linked_entities(alignment)
        assert entities.tables == {"stock_idx"}
        assert entities.columns == {"earnings"}

    def test_all_unlinked_gives_empty(self):
        alignment = Alignment(entries=[AlignmentEntry("the"), AlignmentEntry("a")])
        entities = linked_entities(alignment)
        assert not entities.tables and not entities.columns and not entities.values

    def test_duplicates_collapse(self):
        alignment = Alignment(
            entries=[
                AlignmentEntry("name", "name", "col"),
                AlignmentEntry("names", "Name", "col"),
            ]
        )
        assert len(linked_entities(alignment).columns) == 1

    def test_values_keep_order_and_multiplicity(self):
        alignment = Alignment(
            entries=[
                AlignmentEntry("5", "5", "val"),
                AlignmentEntry("two", "2", "val"),
                AlignmentEntry("5b", "5", "val"),
            ]
        )
        assert linked_entities(alignment).values == ["5", "2", "5"]

    def test_invariant_under_unlinked_reordering(self):
        linked = [
            AlignmentEntry("stock", "stock_idx", "tbl"),
            AlignmentEntry("earnings", "earnings", "col"),
        ]
        fillers = [AlignmentEntry("the"), AlignmentEntry("with")]
        one = Alignment(entries=[fillers[0], *linked, fillers[1]])
        two = Alignment(entries=[*linked, *fillers])
        first = linked_entities(one)
        second = linked_entities(two)
        assert first.tables == second.tables and first.columns == second.columns


def _alignment(pairs):
    """pairs: list of (token, schema, type) or None for unlinked filler."""
    entries = []
    for pair in pairs:
        if pair is None:
            entries.append(AlignmentEntry("tok"))
        else:
            token, schema, kind = pair
            entries.append(AlignmentEntry(token, schema, kind))
    return Alignment(entries=entries)


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

    def test_schema_entity_match_is_case_insensitive(self):
        gold = _alignment([("a", "Stock_Idx", "tbl")])
        predicted = _alignment([("a", "stock_idx", "tbl")])
        assert score_alignment(predicted, gold).macro.f1 == 1.0


def _fallback_work(monkeypatch) -> list[int]:
    """The work of each step of the fallback scan as it runs: the characters
    each bracket scan looks at and each decoder is handed."""
    work: list[int] = []
    match_bracket = alignment._match_bracket

    def counted_match(raw, start, limit):
        end = match_bracket(raw, start, limit)
        work.append(min(limit, len(raw) - start) if end is None else end - start + 1)
        return end

    def counted(decoder):
        def decode(text):
            work.append(len(text))
            return decoder(text)
        return decode

    monkeypatch.setattr(alignment, "_match_bracket", counted_match)
    monkeypatch.setattr(alignment, "_DECODERS", tuple(map(counted, alignment._DECODERS)))
    return work


# Unmatched brackets, brackets each in an open quote, and a deep nest that
# neither decoder takes: with no budget, each costs work quadratic in its
# length (16 million characters for the first at 8,000 characters).
_HOSTILE_ANSWERS = {
    "unmatched": lambda n: "x[" * (n // 2),
    "quoted": lambda n: "'[" * (n // 2),
    "nested": lambda n: "[" * (n // 2) + "x" + "]" * (n // 2),
}
# Fragments that make the scan start often, look far and decode often.
_SCAN_FRAGMENTS = ["[", "]", "'", '"', "\\", "x", "1", ",", " ", "{", "}", ":", "'a'",
                   "[1]", "[]", "null", "None"]


class TestFallbackBudget:
    @pytest.mark.parametrize("shape", sorted(_HOSTILE_ANSWERS))
    def test_hostile_answer_gives_up_within_the_budget(self, monkeypatch, shape):
        work = _fallback_work(monkeypatch)
        spent = {}
        for length in (8_000, 32_000):
            work.clear()
            with pytest.raises(AlignmentParseError):
                parse_alignment(_HOSTILE_ANSWERS[shape](length), "q")
            spent[length] = sum(work)
            assert 0 < spent[length] <= alignment._FALLBACK_BUDGET
        # Four times the answer, not even twice the work (16 times with no budget).
        assert spent[32_000] < 2 * spent[8_000]

    def test_answer_after_prose_decodes_for_its_own_length(self, monkeypatch):
        # A float is outside the one-pass shape, so the fallback reads it.
        raw = "See [1]: [{'token': 'x', 'schema': 1.5}]"
        work = _fallback_work(monkeypatch)
        assert alignment._first_list_literal(raw) == [1]
        assert work == [3, 3]
        work.clear()
        raw = "See (1): [{'token': 'x', 'schema': 1.5}]"
        assert alignment._first_list_literal(raw) == [{"token": "x", "schema": 1.5}]
        assert work == [31, 31]

    def test_budget_covers_every_answer_of_200_characters(self, monkeypatch):
        # From each of n starts: a scan and two decodes of at most the rest.
        assert 3 * 200 * 201 // 2 <= alignment._FALLBACK_BUDGET
        work = _fallback_work(monkeypatch)
        for raw in ("[" * 200, "'[" * 100, "[" * 199 + "]", "[x]" * 66 + "[]"):
            work.clear()
            assert repr(alignment._first_list_literal(raw)) == repr(
                alignment_reference._first_list_literal(raw)
            )
            assert sum(work) <= alignment._FALLBACK_BUDGET

    @settings(max_examples=300, deadline=None)
    @given(raw=st.lists(st.sampled_from(_SCAN_FRAGMENTS), max_size=120)
           .map("".join).map(lambda text: text[:200]))
    def test_short_answers_decode_as_with_no_budget(self, raw):
        assert repr(alignment._first_list_literal(raw)) == repr(
            alignment_reference._first_list_literal(raw)
        )


class TestDecoderCallCharge:
    def test_many_short_lists_give_up_after_few_decoder_calls(self, monkeypatch):
        # Each "[x]" is a short span that neither decoder takes. Charged only
        # its three characters, each call left room for 22,222 calls (about
        # 0.16 s); charged a fixed cost per call besides, the scan stops
        # within the budget's worth of calls.
        calls = []

        def counted(decoder):
            def decode(text):
                calls.append(text)
                return decoder(text)
            return decode

        monkeypatch.setattr(alignment, "_DECODERS", tuple(map(counted, alignment._DECODERS)))
        with pytest.raises(AlignmentParseError):
            parse_alignment("[x]" * 100_000, "q")
        per_start = 3 + 2 * (3 + alignment._DECODER_CALL_CHARS)  # one scan, two decodes
        assert len(calls) == 2 * (alignment._FALLBACK_BUDGET // per_start)
        assert len(calls) < 1_000

    def test_charge_keeps_every_answer_of_200_characters_covered(self):
        n = 200
        assert 3 * n * (n + 1) // 2 + 2 * n * alignment._DECODER_CALL_CHARS <= (
            alignment._FALLBACK_BUDGET
        )


def test_strict_call_refuses_a_blank_token_a_lenient_call_filed():
    # ``parse_alignment`` takes a blank token as it is and files its entry in
    # *shared*; ``from_records`` with the same table must still refuse it.
    shared = {}
    blank = [{"token": " ", "schema": None, "type": None}]
    filed = parse_alignment(repr(blank), question="a", shared=shared)
    assert [e.token for e in filed.entries] == [" "]
    with pytest.raises(MalformedDatasetError, match="record 0: token must be a non-blank"):
        Alignment.from_records(blank, shared=shared)
    # An entry a lenient call made for a record that passes strictly is
    # taken as it is.
    good = [{"token": "a", "schema": "t", "type": "tbl"}]
    lenient = parse_alignment(repr(good), question="a", shared=shared)
    assert Alignment.from_records(good, shared=shared).entries == lenient.entries
    assert Alignment.from_records(good, shared=shared).entries[0] is lenient.entries[0]


def test_macro_average_adds_left_to_right():
    # Precisions 0.1, 0.2 and 0.3 add to 0.6000000000000001 left to right;
    # sum() compensates rounding from Python 3.12 and gives 0.6.
    kinds = ["tbl"] * 10 + ["col"] * 10 + ["val"] * 10
    matched = {0, 10, 11, 20, 21, 22}
    predicted = Alignment(
        [AlignmentEntry(f"w{i}", f"s{i}", kind) for i, kind in enumerate(kinds)]
    )
    gold = Alignment(
        [AlignmentEntry(f"w{i}", f"s{i}", kind) if i in matched else AlignmentEntry(f"w{i}")
         for i, kind in enumerate(kinds)]
    )
    score = score_alignment(predicted, gold)
    assert [score.by_type[kind].precision for kind in alignment.LINK_TYPES] == [0.1, 0.2, 0.3]
    assert score.macro.precision == (0.1 + 0.2 + 0.3) / 3
