from __future__ import annotations

import pytest

from sqlmend.datasets import Example
from sqlmend.errors import EvaluationError
from sqlmend.evaluation import (
    MAX_RESULT_ROWS,
    ExecutionResult,
    classify_errors,
    evaluate_run,
    execute_sql,
    results_match,
    skeleton_accuracy,
)
from sqlmend.schema import introspect_sqlite
from sqlmend.sql_analysis import extract_skeleton


@pytest.fixture(scope="module")
def db_catalog(corpus_db):
    return introspect_sqlite(corpus_db)


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
        runaway = (
            "WITH RECURSIVE cnt(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM cnt) "
            "SELECT count(*) FROM cnt"
        )
        result = execute_sql(runaway, db_catalog, timeout=0.2)
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
        monkeypatch.setattr("sqlmend.evaluation.MAX_RESULT_ROWS", 16)
        assert execute_sql("SELECT a.name FROM singer a, singer b", db_catalog).ok
        result = execute_sql("SELECT a.name FROM singer a, singer b, concert c", db_catalog)
        assert result.status == "too_many_rows"
        assert result.error_message == "result has more than 16 rows"

def _ok(rows):
    return ExecutionResult(status="ok", rows=rows)


class TestResultsMatch:
    def test_multiset_rule_ignores_row_order(self):
        gold = _ok([("a",), ("b",)])
        predicted = _ok([("b",), ("a",)])
        assert results_match(predicted, gold, "SELECT x FROM t")

    def test_order_by_makes_sequences_significant(self):
        gold = _ok([("a",), ("b",)])
        predicted = _ok([("b",), ("a",)])
        assert not results_match(predicted, gold, "SELECT x FROM t ORDER BY x")

    def test_order_by_inside_subquery_does_not_count(self):
        gold = _ok([("a",), ("b",)])
        predicted = _ok([("b",), ("a",)])
        sql = "SELECT x FROM (SELECT x FROM t ORDER BY x)"
        assert results_match(predicted, gold, sql)

    def test_numeric_tolerance(self):
        assert results_match(_ok([(0.1 + 0.2,)]), _ok([(0.3,)]), "SELECT v FROM t")

    def test_numeric_difference_beyond_tolerance(self):
        assert not results_match(_ok([(0.3001,)]), _ok([(0.3,)]), "SELECT v FROM t")

    def test_strings_exact(self):
        assert not results_match(_ok([("a",)]), _ok([("A",)]), "SELECT v FROM t")

    def test_null_only_equals_null(self):
        assert results_match(_ok([(None,)]), _ok([(None,)]), "SELECT v FROM t")
        assert not results_match(_ok([(None,)]), _ok([(0,)]), "SELECT v FROM t")
        assert not results_match(_ok([(None,)]), _ok([("",)]), "SELECT v FROM t")

    def test_engine_error_never_matches(self):
        error = ExecutionResult(status="engine_error", error_message="boom")
        assert not results_match(error, _ok([(1,)]), "SELECT 1")

    def test_column_count_mismatch(self):
        assert not results_match(_ok([(1, 2)]), _ok([(1,)]), "SELECT a FROM t")

    def test_row_count_mismatch(self):
        assert not results_match(_ok([(1,)]), _ok([(1,), (1,)]), "SELECT a FROM t")

    def test_reflexivity(self):
        for rows in ([], [(1, "x")], [(None,)], [(2.5,), (1.5,)]):
            result = _ok(rows)
            assert results_match(result, result, "SELECT a FROM t")

    def test_symmetry_without_order_semantics(self):
        left = _ok([(1,), (2,)])
        right = _ok([(2,), (1,)])
        sql = "SELECT a FROM t"
        assert results_match(left, right, sql) == results_match(right, left, sql)


class TestSkeletonAccuracy:
    def test_identity_is_one(self):
        records = [("SELECT name FROM singer", "SELECT name FROM singer")] * 3
        assert skeleton_accuracy(records) == 1.0

    def test_quarter(self):
        records = [
            ("SELECT name FROM singer", "SELECT name FROM singer"),
            ("SELECT name FROM singer", "SELECT name FROM singer WHERE age > 2"),
            ("SELECT name FROM singer", "SELECT count(*) FROM singer"),
            ("SELECT name FROM singer", "SELECT name FROM singer ORDER BY age"),
        ]
        assert skeleton_accuracy(records) == 0.25

    def test_untokenizable_source_counts_as_miss(self):
        records = [("@@@", "SELECT name FROM singer")]
        assert skeleton_accuracy(records) == 0.0


class TestClassifyErrors:
    def test_missing_gold_table(self, db_catalog):
        gold = "SELECT name FROM singer"
        categories = classify_errors(
            "SELECT venue FROM concert", gold, db_catalog, extract_skeleton(gold)
        )
        assert "table_error" in categories
        assert "column_error" in categories

    def test_pure_execution_error(self, db_catalog):
        # Same skeleton and a superset of gold's entities, but ordering by a
        # column outside the FROM scope, which only the engine rejects.
        gold = "SELECT name FROM singer WHERE age > 20 ORDER BY name"
        predicted = "SELECT name FROM singer WHERE age > 20 ORDER BY venue"
        gold_skeleton = extract_skeleton(gold)
        assert extract_skeleton(predicted).text == gold_skeleton.text
        categories = classify_errors(predicted, gold, db_catalog, gold_skeleton)
        assert categories == {"execution_error"}

    def test_untokenizable_prediction_lands_in_all_categories(self, db_catalog):
        gold = "SELECT name FROM singer"
        categories = classify_errors("@@@", gold, db_catalog, extract_skeleton(gold))
        assert categories == {
            "table_error",
            "column_error",
            "skeleton_error",
            "execution_error",
        }

    def test_skeleton_error_flagged(self, db_catalog):
        gold = "SELECT name FROM singer WHERE age > 20"
        predicted = "SELECT name FROM singer"
        categories = classify_errors(
            predicted, gold, db_catalog, extract_skeleton(gold)
        )
        assert "skeleton_error" in categories
        assert "column_error" in categories  # age unused

    def test_execution_error_iff_executor_says_so(self, db_catalog):
        gold = "SELECT name FROM singer"
        good = classify_errors(
            "SELECT venue FROM concert", gold, db_catalog, extract_skeleton(gold)
        )
        assert "execution_error" not in good
        bad = classify_errors(
            "SELECT ghost FROM singer", gold, db_catalog, extract_skeleton(gold)
        )
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

    def test_rows_over_the_cap(self, db_catalog, monkeypatch):
        monkeypatch.setattr("sqlmend.evaluation.MAX_RESULT_ROWS", 3)
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

        def counting(sql, catalog, timeout):
            executed.append(sql)
            return execute_sql(sql, catalog, timeout)

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
