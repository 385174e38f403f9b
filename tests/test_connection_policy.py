"""Every SQLite connection follows one policy, whoever runs the query: a lone
``execute_sql`` call, ``evaluate_run`` or the pipeline's execution check.
Each connection opens with no prepared-statement cache and a page cache of
128 KiB, and is closed by the time its caller returns; each query runs under
the 30 s watchdog, and a connection kept after a query holds none of its
pages."""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from sqlmend import execution
from sqlmend.backends import ReplayBackend, ReplayStore
from sqlmend.evaluation import evaluate_run


def _one_query(mini_env, replay_store_path):
    catalog = mini_env.catalogs[mini_env.examples[0].db_id]
    assert execution.execute_sql("SELECT 1", catalog).ok


def _evaluate(mini_env, replay_store_path):
    traces = [{"example_id": e.example_id, "initial_sql": e.gold_sql, "final_sql": e.gold_sql}
              for e in mini_env.examples]
    assert evaluate_run(traces, mini_env.examples, mini_env.catalogs).ex_accuracy == 1.0


def _pipeline_run(mini_env, replay_store_path):
    backend = ReplayBackend(ReplayStore(replay_store_path))
    assert len(mini_env.pipeline(backend, workers=2).run(mini_env.examples)) == 10


CALLERS = {"execute_sql": _one_query, "evaluate_run": _evaluate, "pipeline_run": _pipeline_run}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_every_connection_opens_under_the_one_policy(
    mini_env, replay_store_path, monkeypatch, caller
):
    opened: list[dict] = []
    closed: list[int] = []  # PRAGMA cache_size as each connection closes

    class Reporting(sqlite3.Connection):
        def close(self):
            # The connection's own authorizer refuses every PRAGMA.
            self.set_authorizer(lambda *_: sqlite3.SQLITE_OK)
            closed.append(self.execute("PRAGMA cache_size").fetchone()[0])
            super().close()

    connect = sqlite3.connect

    def tracked(*args, **kwargs):
        opened.append(kwargs)
        return connect(*args, factory=Reporting, **kwargs)

    monkeypatch.setattr(execution.sqlite3, "connect", tracked)
    CALLERS[caller](mini_env, replay_store_path)
    assert opened
    assert [kwargs["cached_statements"] for kwargs in opened] == [0] * len(opened)
    assert closed == [-128] * len(opened)  # negative: KiB, not pages


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_every_query_runs_under_the_30_s_watchdog(
    mini_env, replay_store_path, monkeypatch, caller
):
    timeouts: list[float] = []
    run = execution.Connections.execute

    def noted(self, sql, path, timeout):
        timeouts.append(timeout)
        return run(self, sql, path, timeout)

    monkeypatch.setattr(execution.Connections, "execute", noted)
    CALLERS[caller](mini_env, replay_store_path)
    assert timeouts
    assert set(timeouts) == {30.0}


class Tracing(sqlite3.Connection):
    """Records each statement the connection runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.statements: list[str] = []
        self.set_trace_callback(self.statements.append)


@pytest.fixture
def traced(monkeypatch):
    """Every connection opened while the test runs."""
    opened: list[Tracing] = []
    connect = sqlite3.connect

    def tracked(*args, **kwargs):
        opened.append(connect(*args, factory=Tracing, **kwargs))
        return opened[-1]

    monkeypatch.setattr(execution.sqlite3, "connect", tracked)
    return opened


RELEASE = "PRAGMA shrink_memory"
COUNT_TO = ("WITH RECURSIVE n(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM n WHERE x < {}) "
            "SELECT x FROM n")


@pytest.mark.parametrize("sql, status", [
    ("SELECT name FROM singer", "ok"),
    ("SELECT ghost FROM singer", "engine_error"),  # refused while prepared
    ("SELECT abs(-9223372036854775807 - 1)", "engine_error"),  # fails while it runs
    (COUNT_TO.format(execution.MAX_RESULT_ROWS + 1), "too_many_rows"),
])
def test_kept_query_pages_released_before_execute_returns(corpus_db, traced, sql, status):
    with closing(execution.Connections()) as kept:
        for query in range(1, 4):
            assert kept.execute(sql, corpus_db, 30.0).status == status
            (conn,) = traced
            assert conn.statements[-1] == RELEASE
            assert conn.statements.count(RELEASE) == query


def test_dropped_connection_is_not_released(corpus_db, traced, monkeypatch):
    runaway = ("WITH RECURSIVE n(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM n) "
               "SELECT count(*) FROM n")
    with closing(execution.Connections()) as kept:
        assert kept.execute(runaway, corpus_db, 0.2).status == "timeout"
        monkeypatch.setattr(execution, "MAX_RESULT_ROWS", 2**64)  # overflows in fetchmany
        assert kept.execute("SELECT 1", corpus_db, 30.0).status == "engine_error"
    assert len(traced) == 2
    assert all(RELEASE not in conn.statements for conn in traced)


@pytest.mark.parametrize("statement", [RELEASE, "PRAGMA cache_size = 0"])
def test_model_written_cache_pragmas_refused(corpus_db, traced, statement):
    with closing(execution.Connections()) as kept:
        assert kept.execute("SELECT 1", corpus_db, 30.0).ok
        refused = kept.execute(statement, corpus_db, 30.0)
        after = kept.execute("SELECT count(*) FROM singer", corpus_db, 30.0)
    assert (refused.status, refused.error_message) == ("engine_error", "not authorized")
    assert after.rows == [(4,)]
    assert len(traced) == 1
    assert "PRAGMA cache_size = 0" not in traced[0].statements


def test_read_only_authorizer_restored_when_the_release_fails(corpus_db, monkeypatch):
    class FailingRelease(sqlite3.Connection):
        def execute(self, sql, *args):
            if sql == RELEASE:
                raise sqlite3.OperationalError("release failed")
            return super().execute(sql, *args)

    connect = sqlite3.connect
    monkeypatch.setattr(execution.sqlite3, "connect",
                        lambda *args, **kwargs: connect(*args, factory=FailingRelease, **kwargs))
    with closing(execution.Connections()) as kept:
        first = kept.execute("SELECT name FROM singer ORDER BY singer_id", corpus_db, 30.0)
        missing = kept.execute("SELECT ghost FROM singer", corpus_db, 30.0)
        refused = kept.execute("PRAGMA cache_size = 0", corpus_db, 30.0)
        after = kept.execute("SELECT count(*) FROM singer", corpus_db, 30.0)
    # A failed release replaces neither the query's rows nor its error.
    assert first.rows == [("Ann",), ("Bob",), ("Cal",), ("Dee",)]
    assert missing.error_message == "no such column: ghost"
    assert refused.error_message == "not authorized"
    assert after.rows == [(4,)]


def test_connection_whose_cache_pragma_fails_is_closed(tmp_path, traced):
    path = tmp_path / "text.sqlite"
    path.write_text("not a database, only text: " + "x" * 100, encoding="utf-8")
    with closing(execution.Connections()) as kept:
        for _ in range(2):  # nothing is kept: the second query opens again
            result = kept.execute("SELECT 1", path, 30.0)
            assert (result.status, result.error_message) == (
                "engine_error", "file is not a database"
            )
        assert kept._open == {}
    assert len(traced) == 2
    for conn in traced:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.total_changes
