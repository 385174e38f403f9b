from __future__ import annotations

import math
import shutil
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlmend.alignment import Alignment, AlignmentEntry, score_alignment
from sqlmend.backends import ReplayBackend, ReplayStore
from sqlmend.datasets import Example
from sqlmend.errors import EvaluationError
from sqlmend import evaluation
from sqlmend.evaluation import classify_errors, evaluate_run, results_match
from sqlmend.execution import (
    DEFAULT_TIMEOUT,
    MAX_RESULT_ROWS,
    Connections,
    ExecutionResult,
    execute_sql,
)
from sqlmend.pipeline import ORACLE_MODES, CorrectionTrace
from sqlmend.sql_analysis import analyze_sql, extract_skeleton

from support import results_match_reference
from support.corpus import corpus_catalog
from support.mini import record_store

RUNAWAY = (
    "WITH RECURSIVE cnt(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM cnt) "
    "SELECT count(*) FROM cnt"
)


def _catalog_of(path):
    """The corpus catalog, whose tables are those of ``corpus_db``, run
    against the SQLite file at *path*."""
    catalog = corpus_catalog()
    catalog.source_path = path
    return catalog


@pytest.fixture(scope="module")
def db_catalog(corpus_db):
    return _catalog_of(corpus_db)


class _CursorKeepingConnection(sqlite3.Connection):
    """Holds on to every cursor it hands out, so that a cursor the code
    under test leaves unclosed keeps its statement unfinished, as it would
    without reference counting, instead of being reset when freed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cursors = []

    def cursor(self, *args, **kwargs):
        cursor = super().cursor(*args, **kwargs)
        self.cursors.append(cursor)
        return cursor


@pytest.fixture()
def opened(monkeypatch):
    """Every connection ``sqlite3.connect`` opens while the test runs."""
    connections = []
    connect = sqlite3.connect

    def spy(*args, **kwargs):
        conn = connect(*args, factory=_CursorKeepingConnection, **kwargs)
        connections.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", spy)
    return connections


@contextmanager
def _keeping_connections():
    """A kept connection set, as one ``evaluate_run`` holds."""
    with closing(Connections()) as connections:
        yield connections


def _is_closed(conn: sqlite3.Connection) -> bool:
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False


class TestExecuteSql:
    def test_select_one(self, db_catalog):
        result = execute_sql("SELECT 1", db_catalog)
        assert result.ok
        assert result.rows == [(1,)]

    def test_no_such_table_message_verbatim(self, db_catalog):
        result = execute_sql("SELECT x FROM nonexistent", db_catalog)
        assert result.status == "engine_error"
        assert "no such table" in result.error_message

    def test_writes_rejected_read_only(self, db_catalog):
        result = execute_sql("DROP TABLE singer", db_catalog)
        assert result.status == "engine_error"
        # the table must still be there
        assert execute_sql("SELECT count(*) FROM singer", db_catalog).ok

    def test_empty_sql_is_engine_error(self, db_catalog):
        assert execute_sql("", db_catalog).status == "engine_error"

    def test_timeout_interrupts_runaway_query(self, db_catalog):
        result = execute_sql(RUNAWAY, db_catalog, timeout=0.2)
        assert result.status == "timeout"
        assert result.elapsed >= 0.2

    def test_fresh_connection_each_call(self, db_catalog):
        for _ in range(3):
            assert execute_sql("SELECT count(*) FROM ticket", db_catalog).ok

    @pytest.mark.parametrize("statement", ["ATTACH '{path}' AS x", "VACUUM INTO '{path}'"])
    def test_statements_writing_files_refused(self, db_catalog, tmp_path, statement):
        target = tmp_path / "written.sqlite"
        result = execute_sql(statement.format(path=target), db_catalog)
        assert result.status == "engine_error"
        assert "authoriz" in result.error_message
        assert not target.exists()

    @pytest.mark.parametrize(
        "statement",
        ["PRAGMA user_version = 7", "PRAGMA journal_mode", "CREATE TEMP TABLE t (a)"],
    )
    def test_statements_other_than_reads_refused(self, db_catalog, statement):
        result = execute_sql(statement, db_catalog)
        assert result.status == "engine_error"
        assert result.error_message == "not authorized"

    def test_reads_still_authorized(self, db_catalog):
        result = execute_sql(
            "WITH RECURSIVE n(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM n WHERE x < 3) "
            "SELECT count(*), (SELECT max(age) FROM singer) FROM n "
            "UNION SELECT count(*), 0 FROM sqlite_master",
            db_catalog,
        )
        assert result.ok
        assert sorted(result.rows) == [(3, 41), (4, 0)]


    def test_result_over_the_row_cap_refused(self, db_catalog):
        count_to = (
            "WITH RECURSIVE n(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM n WHERE x < {}) "
            "SELECT x FROM n"
        )
        at_cap = execute_sql(count_to.format(MAX_RESULT_ROWS), db_catalog)
        assert at_cap.ok
        assert len(at_cap.rows) == MAX_RESULT_ROWS
        over = execute_sql(count_to.format(MAX_RESULT_ROWS + 1), db_catalog)
        assert over.status == "too_many_rows"
        assert not over.ok
        assert over.rows is None
        assert str(MAX_RESULT_ROWS) in over.error_message

    def test_cross_join_over_the_cap_refused(self, db_catalog, monkeypatch):
        monkeypatch.setattr("sqlmend.execution.MAX_RESULT_ROWS", 16)
        assert execute_sql("SELECT a.name FROM singer a, singer b", db_catalog).ok
        result = execute_sql("SELECT a.name FROM singer a, singer b, concert c", db_catalog)
        assert result.status == "too_many_rows"
        assert result.error_message == "result has more than 16 rows"

class TestKeptConnections:
    """The connections one ``evaluate_run`` keeps, one per database file,
    reached through ``execute_sql`` while the call is in progress."""

    @pytest.mark.parametrize("statement", ["ATTACH '{path}' AS x", "VACUUM INTO '{path}'"])
    def test_refused_write_leaves_the_connection_working(
        self, db_catalog, tmp_path, opened, statement
    ):
        target = tmp_path / "written.sqlite"
        with _keeping_connections() as kept:
            refused = execute_sql(statement.format(path=target), db_catalog, connections=kept)
            after = execute_sql("SELECT count(*) FROM singer", db_catalog, connections=kept)
        assert refused.status == "engine_error"
        assert "authoriz" in refused.error_message
        assert not target.exists()
        assert after.rows == [(4,)]
        assert len(opened) == 1

    def test_timeout_drops_the_connection(self, db_catalog, opened):
        with _keeping_connections() as kept:
            runaway = execute_sql(RUNAWAY, db_catalog, timeout=0.2, connections=kept)
            assert runaway.status == "timeout"
            after = execute_sql(
                "SELECT count(*) FROM singer", db_catalog, timeout=0.2, connections=kept
            )
            assert after.rows == [(4,)]
            assert len(opened) == 2
            assert _is_closed(opened[0]) and not _is_closed(opened[1])

    def test_watchdog_restarts_on_every_query(self, db_catalog, opened):
        count_to = (
            "WITH RECURSIVE n(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM n WHERE x < 5000) "
            "SELECT count(*) FROM n"
        )
        with _keeping_connections() as kept:
            assert execute_sql(count_to, db_catalog, timeout=0.3, connections=kept).ok
            time.sleep(0.4)
            again = execute_sql(count_to, db_catalog, timeout=0.3, connections=kept)
            assert again.rows == [(5000,)]
        assert len(opened) == 1

    def test_too_many_rows_leaves_no_read_open(self, corpus_db, tmp_path, monkeypatch, opened):
        copy = tmp_path / "concert_hall.sqlite"
        shutil.copy(corpus_db, copy)
        catalog = _catalog_of(copy)
        del opened[:]
        monkeypatch.setattr("sqlmend.execution.MAX_RESULT_ROWS", 16)
        with _keeping_connections() as kept:
            over = execute_sql(
                "SELECT a.name FROM singer a, singer b, concert c", catalog, connections=kept
            )
            assert over.status == "too_many_rows"
            # A read statement left open would hold the file's shared lock.
            writer = sqlite3.connect(copy, timeout=0)
            try:
                writer.execute("UPDATE singer SET age = age")
                writer.commit()
            finally:
                writer.close()
            after = execute_sql("SELECT count(*) FROM singer", catalog, connections=kept)
        assert after.rows == [(4,)]
        assert len(opened) == 2  # the kept connection and the writer

    def test_overflow_drops_the_connection(self, db_catalog, monkeypatch, opened):
        with _keeping_connections() as kept:
            monkeypatch.setattr("sqlmend.execution.MAX_RESULT_ROWS", 2**64)
            overflow = execute_sql("SELECT name FROM singer", db_catalog, connections=kept)
            monkeypatch.setattr("sqlmend.execution.MAX_RESULT_ROWS", MAX_RESULT_ROWS)
            assert overflow.status == "engine_error"
            assert "too large" in overflow.error_message
            after = execute_sql("SELECT count(*) FROM singer", db_catalog, connections=kept)
            assert after.rows == [(4,)]
            assert len(opened) == 2
            assert _is_closed(opened[0]) and not _is_closed(opened[1])

    def test_unopenable_file_keeps_no_connection(self, corpus_db, tmp_path, opened):
        path = tmp_path / "created_later.sqlite"
        catalog = _catalog_of(path)
        with _keeping_connections() as kept:
            missing = execute_sql("SELECT count(*) FROM singer", catalog, connections=kept)
            assert missing.status == "engine_error"
            assert missing.error_message == "unable to open database file"
            assert opened == []
            shutil.copy(corpus_db, path)
            after = execute_sql("SELECT count(*) FROM singer", catalog, connections=kept)
            assert after.rows == [(4,)]
            assert execute_sql("SELECT 1", catalog, connections=kept).ok
        assert len(opened) == 1 and _is_closed(opened[0])

    def test_no_connection_crosses_threads(self, db_catalog):
        with _keeping_connections() as kept:
            assert execute_sql("SELECT 1", db_catalog, connections=kept).ok
            with ThreadPoolExecutor(max_workers=1) as pool:
                other = pool.submit(execute_sql, "SELECT count(*) FROM singer", db_catalog)
                assert other.result(timeout=30).rows == [(4,)]


def _ok(rows):
    return ExecutionResult(status="ok", rows=rows)


def _ordered(gold_sql):
    """The ORDER BY flag ``evaluate_run`` passes for a gold query."""
    return analyze_sql(gold_sql).ordered


class TestResultsMatch:
    def test_multiset_rule_ignores_row_order(self):
        gold = _ok([("a",), ("b",)])
        predicted = _ok([("b",), ("a",)])
        assert results_match(predicted, gold, ordered=_ordered("SELECT x FROM t"))

    def test_order_by_makes_sequences_significant(self):
        gold = _ok([("a",), ("b",)])
        predicted = _ok([("b",), ("a",)])
        assert not results_match(predicted, gold, ordered=_ordered("SELECT x FROM t ORDER BY x"))

    def test_order_by_inside_subquery_does_not_count(self):
        gold = _ok([("a",), ("b",)])
        predicted = _ok([("b",), ("a",)])
        sql = "SELECT x FROM (SELECT x FROM t ORDER BY x)"
        assert results_match(predicted, gold, ordered=_ordered(sql))

    def test_numeric_tolerance(self):
        ordered = _ordered("SELECT v FROM t")
        assert results_match(_ok([(0.1 + 0.2,)]), _ok([(0.3,)]), ordered=ordered)

    def test_numeric_difference_beyond_tolerance(self):
        ordered = _ordered("SELECT v FROM t")
        assert not results_match(_ok([(0.3001,)]), _ok([(0.3,)]), ordered=ordered)

    def test_strings_exact(self):
        ordered = _ordered("SELECT v FROM t")
        assert not results_match(_ok([("a",)]), _ok([("A",)]), ordered=ordered)

    def test_null_only_equals_null(self):
        ordered = _ordered("SELECT v FROM t")
        assert results_match(_ok([(None,)]), _ok([(None,)]), ordered=ordered)
        assert not results_match(_ok([(None,)]), _ok([(0,)]), ordered=ordered)
        assert not results_match(_ok([(None,)]), _ok([("",)]), ordered=ordered)

    def test_engine_error_never_matches(self):
        error = ExecutionResult(status="engine_error", error_message="boom")
        assert not results_match(error, _ok([(1,)]), ordered=_ordered("SELECT 1"))

    def test_column_count_mismatch(self):
        ordered = _ordered("SELECT a FROM t")
        assert not results_match(_ok([(1, 2)]), _ok([(1,)]), ordered=ordered)

    def test_row_count_mismatch(self):
        ordered = _ordered("SELECT a FROM t")
        assert not results_match(_ok([(1,)]), _ok([(1,), (1,)]), ordered=ordered)

    def test_reflexivity(self):
        for rows in ([], [(1, "x")], [(None,)], [(2.5,), (1.5,)]):
            result = _ok(rows)
            assert results_match(result, result, ordered=_ordered("SELECT a FROM t"))

    def test_symmetry_without_order_semantics(self):
        left = _ok([(1,), (2,)])
        right = _ok([(2,), (1,)])
        sql = "SELECT a FROM t"
        ordered = _ordered(sql)
        assert results_match(left, right, ordered=ordered) == results_match(
            right, left, ordered=ordered
        )


_CELLS = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-3, max_value=3),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1.0, 0.5, 1e-7]),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
    st.booleans(),
)


def _near(cell):
    """A cell equal to ``cell`` for Python, within the numeric tolerance, or
    just outside it."""
    if isinstance(cell, bool):
        return st.sampled_from([int(cell), float(cell), not cell])
    if isinstance(cell, int):
        return st.sampled_from([cell, float(cell), cell + 1, bool(cell)])
    if isinstance(cell, float):
        if not math.isfinite(cell):
            return st.sampled_from([cell, -cell, math.nan])
        return st.sampled_from([cell, -cell, cell + 5e-7, cell + 9.9e-7, cell + 1.01e-6,
                                cell + 2e-6, cell * (1 + 1e-15)])
    if isinstance(cell, str):
        return st.sampled_from([cell, cell.encode(), cell + "x"])
    if isinstance(cell, bytes):
        return st.sampled_from([cell, cell.decode("latin-1")])
    return st.sampled_from([None, 0, ""])


@st.composite
def _row_lists(draw):
    """A gold row list and a predicted one: the same rows (the same objects
    or copies), a permutation, a copy with one cell changed, or unrelated."""
    width = draw(st.integers(min_value=1, max_value=3))
    rows = st.tuples(*[_CELLS] * width)
    gold = draw(st.lists(rows, max_size=6))
    how = draw(st.sampled_from(["same", "copy", "permuted", "changed", "unrelated"]))
    if how == "same":
        predicted = gold
    elif how == "copy":
        predicted = [tuple(row) for row in gold]
    elif how == "permuted":
        predicted = draw(st.permutations(gold))
    elif how == "changed" and gold:
        i = draw(st.integers(min_value=0, max_value=len(gold) - 1))
        j = draw(st.integers(min_value=0, max_value=width - 1))
        row = list(gold[i])
        row[j] = draw(_near(row[j]))
        predicted = gold[:i] + [tuple(row)] + gold[i + 1:]
    else:
        predicted = draw(st.lists(rows, max_size=6))
    return predicted, gold


class TestResultsMatchReference:
    @settings(max_examples=1000, deadline=None)
    @given(pair=_row_lists(), ordered=st.booleans())
    @example(pair=([(True,)], [(1,)]), ordered=False)
    @example(pair=([(math.inf,)], [(math.inf,)]), ordered=False)
    @example(pair=([(math.nan,)],) * 2, ordered=True)
    @example(pair=([(1, "a"), (2, b"b")], [(1.0, "a"), (2, b"b")]), ordered=True)
    def test_same_verdict_as_the_sorting_comparison(self, pair, ordered):
        predicted, gold = (_ok(rows) for rows in pair)
        gold_sql = "SELECT a FROM t ORDER BY a" if ordered else "SELECT a FROM t"
        verdict = results_match(predicted, gold, ordered=_ordered(gold_sql))
        assert verdict == results_match_reference.results_match(predicted, gold, gold_sql)


class TestSkeletonAccuracy:
    """``Report.skeleton_accuracy``: the share of initial SQL texts whose
    skeleton is the gold query's."""

    @staticmethod
    def _accuracy(pairs, db_catalog):
        dataset = [
            Example(str(i), f"q{i}", "concert_hall", gold_sql=gold)
            for i, (_, gold) in enumerate(pairs)
        ]
        traces = [_trace(str(i), source) for i, (source, _) in enumerate(pairs)]
        report = evaluate_run(traces, dataset, {"concert_hall": db_catalog})
        assert report.record_count == len(pairs)
        return report.skeleton_accuracy

    def test_identity_is_one(self, db_catalog):
        records = [("SELECT name FROM singer", "SELECT name FROM singer")] * 3
        assert self._accuracy(records, db_catalog) == 1.0

    def test_quarter(self, db_catalog):
        records = [
            ("SELECT name FROM singer", "SELECT name FROM singer"),
            ("SELECT name FROM singer", "SELECT name FROM singer WHERE age > 2"),
            ("SELECT name FROM singer", "SELECT count(*) FROM singer"),
            ("SELECT name FROM singer", "SELECT name FROM singer ORDER BY age"),
        ]
        assert self._accuracy(records, db_catalog) == 0.25

    def test_untokenizable_source_counts_as_miss(self, db_catalog):
        records = [("@@@", "SELECT name FROM singer")]
        assert self._accuracy(records, db_catalog) == 0.0


def _classify(predicted, gold, catalog):
    return classify_errors(
        analyze_sql(predicted), analyze_sql(gold), catalog, execute_sql(predicted, catalog)
    )


class TestClassifyErrors:
    def test_missing_gold_table(self, db_catalog):
        gold = "SELECT name FROM singer"
        categories = _classify("SELECT venue FROM concert", gold, db_catalog)
        assert "table_error" in categories
        assert "column_error" in categories

    def test_pure_execution_error(self, db_catalog):
        # Same skeleton and a superset of gold's entities, but ordering by a
        # column outside the FROM scope, which only the engine rejects.
        gold = "SELECT name FROM singer WHERE age > 20 ORDER BY name"
        predicted = "SELECT name FROM singer WHERE age > 20 ORDER BY venue"
        assert extract_skeleton(predicted) == extract_skeleton(gold)
        categories = _classify(predicted, gold, db_catalog)
        assert categories == {"execution_error"}

    def test_untokenizable_prediction_lands_in_all_categories(self, db_catalog):
        gold = "SELECT name FROM singer"
        categories = _classify("@@@", gold, db_catalog)
        assert categories == {
            "table_error",
            "column_error",
            "skeleton_error",
            "execution_error",
        }

    def test_skeleton_error_flagged(self, db_catalog):
        gold = "SELECT name FROM singer WHERE age > 20"
        predicted = "SELECT name FROM singer"
        categories = _classify(predicted, gold, db_catalog)
        assert "skeleton_error" in categories
        assert "column_error" in categories  # age unused

    def test_execution_error_iff_executor_says_so(self, db_catalog):
        gold = "SELECT name FROM singer"
        good = _classify("SELECT venue FROM concert", gold, db_catalog)
        assert "execution_error" not in good
        bad = _classify("SELECT ghost FROM singer", gold, db_catalog)
        assert "execution_error" in bad


def _trace(example_id, sql, initial=None):
    return {
        "example_id": example_id,
        "initial_sql": initial if initial is not None else sql,
        "final_sql": sql,
        "parsed_skeleton": None,
        "alignment": None,
    }


class TestEvaluateRun:
    def test_three_of_four(self, corpus_db, db_catalog):
        catalogs = {"concert_hall": db_catalog}
        dataset = [
            Example("0", "q0", "concert_hall", gold_sql="SELECT name FROM singer"),
            Example("1", "q1", "concert_hall", gold_sql="SELECT count(*) FROM singer"),
            Example("2", "q2", "concert_hall", gold_sql="SELECT venue FROM concert"),
            Example("3", "q3", "concert_hall", gold_sql="SELECT max(age) FROM singer"),
        ]
        traces = [
            _trace("0", "SELECT name FROM singer"),
            _trace("1", "SELECT count(*) FROM singer"),
            _trace("2", "SELECT venue FROM concert"),
            _trace("3", "SELECT min(age) FROM singer"),
        ]
        report = evaluate_run(traces, dataset, catalogs)
        assert report.record_count == 4
        assert report.ex_accuracy == 0.75
        assert report.ex_accuracy * report.record_count == 3

    def test_initial_and_delta_reported(self, db_catalog):
        catalogs = {"concert_hall": db_catalog}
        dataset = [
            Example("0", "q0", "concert_hall", gold_sql="SELECT name FROM singer"),
            Example("1", "q1", "concert_hall", gold_sql="SELECT count(*) FROM singer"),
        ]
        traces = [
            _trace("0", "SELECT name FROM singer", initial="SELECT age FROM singer"),
            _trace("1", "SELECT count(*) FROM singer"),
        ]
        report = evaluate_run(traces, dataset, catalogs)
        assert report.ex_accuracy_initial == 0.5
        assert report.ex_accuracy == 1.0
        assert report.ex_delta == 0.5

    def test_invalid_gold_excluded(self, db_catalog):
        catalogs = {"concert_hall": db_catalog}
        dataset = [
            Example("0", "q0", "concert_hall", gold_sql="SELECT broken FROM nowhere"),
            Example("1", "q1", "concert_hall", gold_sql="SELECT count(*) FROM singer"),
        ]
        traces = [_trace("0", "SELECT 1"), _trace("1", "SELECT count(*) FROM singer")]
        report = evaluate_run(traces, dataset, catalogs)
        assert report.invalid_gold == ["0"]
        assert report.record_count == 1
        assert report.ex_accuracy == 1.0

    @pytest.mark.parametrize("gold", [
        "SELECT `name` FROM singer",
        "SELECT [name] FROM singer",
        "SELECT age & 1 FROM singer",
    ])
    def test_gold_the_tokenizer_rejects_is_invalid(self, db_catalog, gold):
        assert execute_sql(gold, db_catalog).ok
        dataset = [
            Example("0", "q0", "concert_hall", gold_sql=gold),
            Example("1", "q1", "concert_hall", gold_sql="SELECT count(*) FROM singer"),
        ]
        traces = [_trace("0", "SELECT name FROM singer"),
                  _trace("1", "SELECT count(*) FROM singer")]
        report = evaluate_run(traces, dataset, {"concert_hall": db_catalog})
        assert report.invalid_gold == ["0"]
        assert [r.example_id for r in report.records] == ["1"]
        assert report.ex_accuracy == 1.0

    def test_same_wrong_text_in_both_stages_scored_once(self, db_catalog, monkeypatch):
        calls = []

        def counted(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        for name in ("results_match", "classify_errors"):
            monkeypatch.setattr(evaluation, name, counted(getattr(evaluation, name)))
        dataset = [Example("0", "q0", "concert_hall", gold_sql="SELECT name FROM singer")]
        traces = [_trace("0", "SELECT age FROM singer")]
        report = evaluate_run(traces, dataset, {"concert_hall": db_catalog})
        assert calls == ["results_match", "classify_errors"]
        record = report.records[0]
        assert not record.ex_match and not record.ex_match_initial
        assert record.error_categories == record.error_categories_initial == {"column_error"}
        assert report.error_histogram["initial"] == report.error_histogram["final"] == {
            "table_error": 0, "column_error": 1, "skeleton_error": 0, "execution_error": 0,
        }

    def test_rows_over_the_cap(self, db_catalog, monkeypatch):
        monkeypatch.setattr("sqlmend.execution.MAX_RESULT_ROWS", 3)
        four_rows = "SELECT name FROM singer"
        dataset = [
            Example("0", "q0", "concert_hall", gold_sql=four_rows),
            Example("1", "q1", "concert_hall", gold_sql="SELECT venue FROM concert"),
        ]
        traces = [_trace("0", "SELECT 1"), _trace("1", four_rows)]
        report = evaluate_run(traces, dataset, {"concert_hall": db_catalog})
        assert report.invalid_gold == ["0"]
        assert [r.example_id for r in report.records] == ["1"]
        assert not report.records[0].ex_match
        assert "execution_error" in report.records[0].error_categories
        assert report.error_histogram["final"]["execution_error"] == 1

    def test_unknown_trace_ids_rejected(self, db_catalog):
        with pytest.raises(EvaluationError, match="ghost"):
            evaluate_run(
                [_trace("ghost", "SELECT 1")],
                [Example("0", "q", "concert_hall", gold_sql="SELECT 1")],
                {"concert_hall": db_catalog},
            )

    def test_empty_traces_give_null_accuracies(self, db_catalog):
        report = evaluate_run([], [], {})
        assert report.record_count == 0
        assert report.ex_accuracy is None
        assert report.ex_accuracy_initial is None

    def test_each_distinct_text_executed_once_per_trace(self, db_catalog, monkeypatch):
        executed = []

        def counting(sql, catalog, timeout=DEFAULT_TIMEOUT, connections=None):
            executed.append(sql)
            return execute_sql(sql, catalog, timeout, connections)

        monkeypatch.setattr("sqlmend.evaluation.execute_sql", counting)
        gold = "SELECT name FROM singer"
        dataset = [
            Example("0", "q0", "concert_hall", gold_sql=gold),
            Example("1", "q1", "concert_hall", gold_sql=gold),
            Example("2", "q2", "concert_hall", gold_sql=gold),
        ]
        traces = [
            _trace("0", "SELECT age FROM singer"),
            _trace("1", gold, initial="SELECT age FROM singer"),
            _trace("2", "SELECT venue FROM concert", initial="SELECT age FROM singer"),
        ]
        report = evaluate_run(traces, dataset, {"concert_hall": db_catalog})
        assert executed == [
            gold, "SELECT age FROM singer",
            gold, "SELECT age FROM singer",
            gold, "SELECT age FROM singer", "SELECT venue FROM concert",
        ]
        assert [r.ex_match for r in report.records] == [False, True, False]
        assert [r.ex_match_initial for r in report.records] == [False, False, False]

    def test_connections_closed_when_it_returns(self, db_catalog, opened):
        dataset = [Example(str(i), f"q{i}", "concert_hall", gold_sql="SELECT name FROM singer")
                   for i in range(3)]
        traces = [_trace("0", "SELECT name FROM singer"), _trace("1", "SELECT age FROM singer"),
                  _trace("2", "SELECT ghost FROM singer")]
        report = evaluate_run(traces, dataset, {"concert_hall": db_catalog})
        assert [r.ex_match for r in report.records] == [True, False, False]
        assert len(opened) == 1
        assert _is_closed(opened[0])

    def test_connections_closed_when_it_raises(self, db_catalog, opened):
        dataset = [
            Example("0", "q0", "concert_hall", gold_sql="SELECT name FROM singer"),
            Example("1", "q1", "concert_hall", gold_sql="SELECT age FROM singer"),
            Example("2", "q2", "fileless", gold_sql="SELECT 1"),
        ]
        traces = [_trace("0", "SELECT name FROM singer"), _trace("1", "SELECT 1"),
                  _trace("2", "SELECT 1")]
        fileless = corpus_catalog()
        assert fileless.source_path is None
        with pytest.raises(EvaluationError, match="has no SQLite source path"):
            evaluate_run(traces, dataset, {"concert_hall": db_catalog, "fileless": fileless})
        assert len(opened) == 1
        assert _is_closed(opened[0])
        # A query after the failed call opens, and closes, a connection of its own.
        assert execute_sql("SELECT 1", db_catalog).ok
        assert len(opened) == 2
        assert _is_closed(opened[1])

    def test_one_connection_per_database_file(self, mini_env, replay_store_path, opened):
        traces = mini_env.pipeline(ReplayBackend(ReplayStore(replay_store_path))).run(
            mini_env.examples
        )
        del opened[:]
        report = evaluate_run([t.to_dict() for t in traces], mini_env.examples,
                              mini_env.catalogs)
        assert report.record_count == len(mini_env.examples)
        files = {mini_env.catalogs[e.db_id].source_path for e in mini_env.examples}
        assert len(files) == 2
        assert len(opened) == len(files)
        assert all(_is_closed(conn) for conn in opened)

    def test_per_hardness_breakdown(self, db_catalog):
        catalogs = {"concert_hall": db_catalog}
        dataset = [
            Example("0", "q0", "concert_hall", gold_sql="SELECT name FROM singer",
                    hardness_label="easy"),
            Example("1", "q1", "concert_hall", gold_sql="SELECT count(*) FROM singer",
                    hardness_label="hard"),
        ]
        traces = [
            _trace("0", "SELECT name FROM singer"),
            _trace("1", "SELECT count(*) FROM concert"),
        ]
        report = evaluate_run(traces, dataset, catalogs)
        assert report.per_hardness["easy"]["ex_final"] == 1
        assert report.per_hardness["hard"]["ex_final"] == 0


class TestMetricDefinitions:
    """The frozen metric definitions, pinned by literal values: nothing but
    the functions under test is imported from the code."""

    def test_numbers_match_within_one_millionth_inclusive(self):
        # abs(1e-6 - 0.0) is the tolerance exactly.
        for ordered in (False, True):
            assert results_match(_ok([(0.0,)]), _ok([(1e-6,)]), ordered=ordered)
            assert results_match(_ok([(1e-6,)]), _ok([(0.0,)]), ordered=ordered)
            assert not results_match(_ok([(0.0,)]), _ok([(2e-6,)]), ordered=ordered)
            assert not results_match(_ok([(2e-6,)]), _ok([(0.0,)]), ordered=ordered)

    def test_prediction_that_fails_does_not_match_gold_with_no_rows(self, db_catalog):
        failed = ExecutionResult(status="engine_error", error_message="no such table: ghost")
        for ordered in (False, True):
            assert not results_match(failed, _ok([]), ordered=ordered)
        report = evaluate_run(
            [_trace("0", "SELECT name FROM ghost")],
            [Example("0", "q", "concert_hall", gold_sql="SELECT name FROM singer WHERE age > 99")],
            {"concert_hall": db_catalog},
        )
        assert [r.ex_match for r in report.records] == [False]

    def test_wrong_column_of_the_right_type_lowers_col_precision_and_recall(self):
        def alignment(first_column):
            return Alignment([AlignmentEntry("singers", "singer", "tbl"),
                              AlignmentEntry("names", first_column, "col"),
                              AlignmentEntry("ages", "age", "col")])

        score = score_alignment(alignment("country"), alignment("name"))
        assert (score.by_type["col"].precision, score.by_type["col"].recall) == (0.5, 0.5)
        assert score.by_type["col"].f1 == 0.5
        assert (score.by_type["tbl"].precision, score.by_type["tbl"].recall) == (1.0, 1.0)
        assert score.macro.f1 == (1.0 + 0.5 + 1.0) / 3


def test_last_walk_over_the_traces_scores_them(db_catalog, monkeypatch):
    # perfbench's evaluate-exec times each example from the gaps between the
    # items of evaluate_run's last walk over its list. A last walk that only
    # decoded would pass perfbench's own check and time the decoding.
    queries = 0

    def counting(*args, **kwargs):
        nonlocal queries
        queries += 1
        return execute_sql(*args, **kwargs)

    class CountingTraces(list):
        """Records, at each item its last walk yields, the queries run so far."""

        def __iter__(self):
            self.queries = []
            for item in list.__iter__(self):
                self.queries.append(queries)
                yield item

    monkeypatch.setattr("sqlmend.evaluation.execute_sql", counting)
    dataset = [Example(str(i), f"q{i}", "concert_hall", gold_sql="SELECT name FROM singer")
               for i in range(4)]
    traces = CountingTraces(_trace(str(i), sql) for i, sql in enumerate(
        ["SELECT name FROM singer", "SELECT age FROM singer", "SELECT 1", "SELECT ghost"]))
    evaluate_run(traces, dataset, {"concert_hall": db_catalog})
    assert len(traces.queries) == 4
    assert all(a < b for a, b in zip(traces.queries, traces.queries[1:])), traces.queries
    assert traces.queries[-1] < queries


@pytest.fixture(scope="module")
def every_oracle_store(mini_env, tmp_path_factory):
    return record_store(mini_env, tmp_path_factory.mktemp("oracles") / "store.jsonl")


@pytest.mark.parametrize("oracle", ORACLE_MODES)
def test_trace_alignment_decodes_from_its_records_alone(mini_env, every_oracle_store, oracle):
    # An alignment holds no question: a trace's records rebuild it, and
    # scoring the rebuilt one against the gold gives what evaluate reports.
    pipeline = mini_env.pipeline(ReplayBackend(ReplayStore(every_oracle_store)), oracle=oracle)
    traces = [trace.to_dict() for trace in pipeline.run(mini_env.examples)]
    report = evaluate_run(traces, mini_env.examples, mini_env.catalogs)
    linking = {record.example_id: record.linking for record in report.records}
    gold = {e.example_id: e.gold_alignment for e in mini_env.examples}
    scored = 0
    for trace in traces:
        if trace["alignment"] is None:
            continue
        alignment = CorrectionTrace.from_dict(trace).alignment
        assert alignment.to_records() == trace["alignment"]
        if gold[trace["example_id"]] is not None and trace["example_id"] in linking:
            expected = score_alignment(alignment, gold[trace["example_id"]])
            assert linking[trace["example_id"]] == expected
            scored += 1
    assert scored > 0


def test_mean_adds_left_to_right():
    # Ten 0.1s add to 0.9999999999999999 left to right; sum() compensates
    # rounding from Python 3.12 and gives 1.0.
    assert evaluation._mean([0.1] * 10) == 0.9999999999999999 / 10
    assert evaluation._mean([True, False, True]) == 2 / 3
    assert evaluation._mean([]) is None
