from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend import sql_analysis
from sqlmend.errors import EmptyInputError, TokenizationError
from sqlmend.sql_analysis import (
    KEYWORDS,
    analyze_sql,
    extract_entities,
    extract_skeleton,
    tokenize_sql,
)

from support import analysis_reference
from support.ast_oracle import oracle_entities
from support.corpus import GOLDEN_CORPUS
from support.order_by_reference import has_top_level_order_by

CORPUS_SQLS = [entry["sql"] for entry in GOLDEN_CORPUS]


class TestTokenizer:
    def test_simple_statement(self):
        tokens = tokenize_sql("SELECT name FROM singer")
        assert [(t.kind, t.text) for t in tokens] == [
            ("keyword", "SELECT"),
            ("identifier", "name"),
            ("keyword", "FROM"),
            ("identifier", "singer"),
        ]

    def test_escaped_string_is_one_token(self):
        tokens = tokenize_sql("WHERE x = 'a''b'")
        strings = [t for t in tokens if t.kind == "string"]
        assert len(strings) == 1
        assert strings[0].text == "a''b"

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            tokenize_sql("")
        with pytest.raises(EmptyInputError):
            tokenize_sql("   ")

    def test_unterminated_string_reports_offset(self):
        with pytest.raises(TokenizationError) as excinfo:
            tokenize_sql("SELECT 'oops FROM t")
        assert excinfo.value.offset == 7

    def test_unexpected_character(self):
        with pytest.raises(TokenizationError):
            tokenize_sql("SELECT @ FROM t")

    def test_keyword_recognition_case_insensitive(self):
        kinds = {t.text: t.kind for t in tokenize_sql("select Name from singer")}
        assert kinds["select"] == "keyword"
        assert kinds["Name"] == "identifier"

    def test_numbers_and_operators(self):
        tokens = tokenize_sql("WHERE a >= 1.5 AND b <> -2")
        pairs = [(t.kind, t.text) for t in tokens]
        assert ("operator", ">=") in pairs
        assert ("number", "1.5") in pairs
        assert ("operator", "<>") in pairs
        assert ("operator", "-") in pairs
        assert ("number", "2") in pairs

    @pytest.mark.parametrize("sql", CORPUS_SQLS)
    def test_full_cover_except_whitespace(self, sql):
        previous_end = 0
        for token in tokenize_sql(sql):
            assert sql[previous_end : token.position].strip() == ""
            if token.kind == "string":
                raw = sql[token.position : token.position + len(token.text) + 2]
                assert raw[0] in "'\"" and raw[-1] == raw[0]
                assert raw[1:-1] == token.text
                previous_end = token.position + len(token.text) + 2
            else:
                end = token.position + len(token.text)
                assert sql[token.position : end] == token.text
                previous_end = end
        assert sql[previous_end:].strip() == ""


class TestSkeletonCorpus:
    @pytest.mark.parametrize("entry", GOLDEN_CORPUS, ids=lambda e: e["sql"][:40])
    def test_matches_hand_written_mask(self, entry):
        assert extract_skeleton(entry["sql"]) == entry["skeleton"]

    @pytest.mark.parametrize("sql", CORPUS_SQLS)
    def test_idempotent_on_own_output(self, sql):
        once = extract_skeleton(sql)
        assert extract_skeleton(once) == once

    @pytest.mark.parametrize("entry", GOLDEN_CORPUS, ids=lambda e: e["sql"][:40])
    def test_masking_completeness(self, entry, catalog):
        names = {t.name.lower() for t in catalog.tables}
        for table in catalog.tables:
            names.update(c.name.lower() for c in table.columns)
        literals = {v.lower() for v in entry["values"]}
        for token in extract_skeleton(entry["sql"]).split(" "):
            assert token.lower() not in names
            assert token.lower() not in literals or token == "_"

    def test_alias_drop_example(self):
        assert (
            extract_skeleton("SELECT T1.name FROM singer AS T1 ORDER BY T1.age")
            == "SELECT _ FROM _ ORDER BY _"
        )

    def test_semicolon_dropped(self):
        assert extract_skeleton("SELECT name FROM singer;") == "SELECT _ FROM _"

    def test_lone_semicolon_masks_to_the_empty_string(self):
        skeleton = extract_skeleton(";")
        assert type(skeleton) is str and skeleton == ""

    def test_join_using_keeps_the_keyword(self, catalog):
        sql = "SELECT name FROM singer JOIN performance USING (singer_id)"
        assert extract_skeleton(sql) == "SELECT _ FROM _ JOIN _ USING ( _ )"
        assert "using" not in sql_analysis._analyze(tokenize_sql(sql)).aliases
        entities = extract_entities(sql, catalog)
        assert entities.tables == {"singer", "performance"}
        assert entities.columns == {"name", "singer_id"}


class TestSkeletonsEqual:
    @pytest.mark.parametrize("sql", CORPUS_SQLS[:10])
    def test_deterministic(self, sql):
        assert extract_skeleton(sql) == extract_skeleton(sql)


class TestEntityCorpus:
    @pytest.mark.parametrize("entry", GOLDEN_CORPUS, ids=lambda e: e["sql"][:40])
    def test_matches_frozen_hand_derivation(self, entry, catalog):
        entities = extract_entities(entry["sql"], catalog)
        assert entities.tables == entry["tables"]
        assert entities.columns == entry["columns"]
        assert entities.values == entry["values"]

    @pytest.mark.parametrize("entry", GOLDEN_CORPUS, ids=lambda e: e["sql"][:40])
    def test_matches_ast_walk_oracle(self, entry, catalog):
        tables, columns, values = oracle_entities(entry["sql"], catalog)
        entities = extract_entities(entry["sql"], catalog)
        assert entities.tables == tables
        assert entities.columns == columns
        assert entities.values == values

    @pytest.mark.parametrize("entry", GOLDEN_CORPUS, ids=lambda e: e["sql"][:40])
    def test_entity_soundness(self, entry, catalog):
        entities = extract_entities(entry["sql"], catalog)
        table_names = {t.name for t in catalog.tables}
        column_names = set()
        for table in catalog.tables:
            column_names.update(table.column_names())
        assert entities.tables <= table_names
        assert entities.columns <= column_names

    @pytest.mark.parametrize("sql", CORPUS_SQLS)
    def test_case_insensitivity_up_to_canonical_casing(self, sql, catalog):
        base = extract_entities(sql, catalog)
        upper = extract_entities(sql.upper(), catalog)
        assert {t.lower() for t in upper.tables} == {t.lower() for t in base.tables}
        assert {c.lower() for c in upper.columns} == {c.lower() for c in base.columns}
        assert [v.lower() for v in upper.values] == [v.lower() for v in base.values]

    def test_star_is_not_an_entity(self, catalog):
        entities = extract_entities("SELECT * FROM singer", catalog)
        assert entities.tables == {"singer"}
        assert entities.columns == set()
        assert entities.values == []

    def test_unknown_identifiers_ignored(self, catalog):
        entities = extract_entities("SELECT bogus FROM nowhere", catalog)
        assert entities.tables == set()
        assert entities.columns == set()

    def test_alias_resolution(self, catalog):
        entities = extract_entities("SELECT T1.name FROM singer AS T1", catalog)
        assert entities.tables == {"singer"}
        assert entities.columns == {"name"}


@settings(max_examples=60, deadline=None)
@given(
    sql=st.sampled_from(CORPUS_SQLS),
    mangle=st.sampled_from(["same", "upper", "lower", "spaces"]),
)
def test_skeleton_stable_under_surface_noise(sql, mangle):
    """Case and extra whitespace never change the skeleton."""
    variants = {
        "same": sql,
        "upper": sql.upper(),
        "lower": sql.lower(),
        "spaces": sql.replace(" ", "  "),
    }
    # Case-folding only touches literal contents (masked anyway) and keyword
    # casing (canonicalized anyway); extra spaces vanish in tokenization.
    assert extract_skeleton(variants[mangle]) == extract_skeleton(sql)


def test_corpus_has_fifty_queries():
    assert len(GOLDEN_CORPUS) == 50


def test_corpus_queries_all_execute(corpus_db):
    import sqlite3

    conn = sqlite3.connect(corpus_db)
    try:
        for sql in CORPUS_SQLS:
            conn.execute(sql).fetchall()
    finally:
        conn.close()


def test_aggregate_names_are_keywords():
    for name in ("COUNT", "SUM", "AVG", "MIN", "MAX", "DISTINCT"):
        assert name in KEYWORDS


# ORDER and BY in every placement: nested and unbalanced parentheses, other
# casing, a quoted or misspelt BY, qualified names, and text that does not
# tokenize (an unterminated quote, ``#``).
_ORDER_FRAGMENTS = [
    "ORDER", "order", "Order", "BY", "by", "'by'", '"BY"', "ORDERBY", "order_",
    "(", ")", "((", "))", "SELECT", "x", "FROM", "t", "T1.", "WHERE", "IN",
    "LIMIT", "1", ",", "*", "=", "UNION", "AS", "'", "#", ";",
]


def is_ordered(sql: str) -> bool:
    """The ORDER BY flag of a gold query's analysis, which ``evaluate_run``
    passes to ``results_match``; False for text that does not tokenize."""
    return analyze_sql(sql).ordered


class TestIsOrdered:
    @settings(max_examples=500, deadline=None)
    @given(
        parts=st.lists(st.sampled_from(_ORDER_FRAGMENTS), max_size=25),
        separator=st.sampled_from([" ", "", "\n"]),
    )
    def test_agrees_with_the_depth_scanner_on_token_soup(self, parts, separator):
        sql = separator.join(parts)
        assert is_ordered(sql) == has_top_level_order_by(sql)

    @settings(max_examples=300, deadline=None)
    @given(sql=st.text(max_size=80))
    def test_agrees_with_the_depth_scanner_on_any_text(self, sql):
        assert is_ordered(sql) == has_top_level_order_by(sql)

    def test_agrees_with_the_depth_scanner_on_the_corpus(self):
        flags = [is_ordered(sql) for sql in CORPUS_SQLS]
        assert flags == [has_top_level_order_by(sql) for sql in CORPUS_SQLS]
        assert 0 < sum(flags) < len(flags)

    @pytest.mark.parametrize("sql, ordered", [
        ("SELECT a FROM t ORDER BY a", True),
        ("select a from t order by a", True),
        ("SELECT a FROM t WHERE a IN (SELECT a FROM t ORDER BY a)", False),
        ("SELECT a FROM (SELECT a FROM t) ORDER BY a", True),
        ("SELECT a FROM t ORDER", False),
        ("SELECT a FROM t ORDER 'by'", True),
        ("SELECT 'ORDER BY' FROM t", False),
        ("", False),
        ("SELECT 'a FROM t ORDER BY a", False),
    ])
    def test_examples(self, sql, ordered):
        assert is_ordered(sql) is ordered


# FROM/JOIN clauses with explicit and implicit aliases, ``T1.*``, derived
# tables, function calls, CAST aliases, ``;`` and ORDER BY at several
# depths, plus catalog names, literals and text that does not tokenize.
_ANALYSIS_FRAGMENTS = [
    "SELECT", "select", "FROM", "from", "JOIN", "LEFT", "ON", "AS", "as", "WHERE",
    "GROUP", "ORDER", "order", "BY", "HAVING", "LIMIT", "UNION", "AND", "IN",
    "CAST", "COUNT", "count", "DISTINCT", "singer", "concert", "performance",
    "name", "age", "venue", "singer_id", "T1", "T2", "s", "x", "T1.", "T1.name",
    "T2.*", "T1.*", "singer.age", "a.b.c", "*", "lower", "(", ")", "((", "))",
    ",", ".", ";", "=", ">=", "||", "-", "1", "2.5", "'a'", "'('", '"US"',
    "'", "#",
]


def _analysis_outcome(module, sql: str, catalog) -> tuple:
    """What an analyser makes of a text: its skeleton, entities and ORDER
    BY flag, or the type of the error it raises."""
    try:
        entities = module.extract_entities(sql, catalog)
        skeleton = module.extract_skeleton(sql)
        ordered = module._analyze(tokenize_sql(sql)).ordered
    except Exception as exc:
        return (type(exc),)
    return skeleton, entities.tables, entities.columns, entities.values, ordered


class TestAgreesWithPlanAnalyser:
    """The one-pass analyser writes the skeleton the two-pass one did."""

    @settings(max_examples=1000, deadline=None)
    @given(
        parts=st.lists(st.sampled_from(_ANALYSIS_FRAGMENTS), max_size=30),
        separator=st.sampled_from([" ", "", "\n"]),
    )
    def test_on_token_soup(self, parts, separator, catalog):
        sql = separator.join(parts)
        assert _analysis_outcome(sql_analysis, sql, catalog) == _analysis_outcome(
            analysis_reference, sql, catalog
        )

    @pytest.mark.parametrize("sql", CORPUS_SQLS + [
        "SELECT name '(' FROM singer",
        "SELECT age AS singer, singer.age FROM singer",
        "SELECT T1.* FROM singer AS T1 JOIN concert T2 ON T1.singer_id = T2.concert_id;",
        "SELECT x.a FROM (SELECT age AS a FROM singer) AS x ORDER BY x.a",
        "SELECT CAST(age AS TEXT) FROM singer s WHERE s.name IN "
        "(SELECT name FROM singer ORDER BY age)",
        "SELECT lower(name), count(*) FROM singer, concert c GROUP BY name "
        "ORDER BY count(*) DESC LIMIT 1",
    ])
    def test_on_the_corpus_and_edge_cases(self, sql, catalog):
        outcome = _analysis_outcome(sql_analysis, sql, catalog)
        assert len(outcome) == 5
        assert outcome == _analysis_outcome(analysis_reference, sql, catalog)
