"""Every SQLite connection follows one policy, whoever runs the query: a lone
``execute_sql`` call, ``evaluate_run`` or the pipeline's execution check.
Each connection opens with no prepared-statement cache and a page cache of
1 KiB, and is closed by the time its caller returns; each query runs under
the 30 s watchdog."""

from __future__ import annotations

import sqlite3

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
    assert closed == [-1] * len(opened)  # negative: KiB, not pages


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
