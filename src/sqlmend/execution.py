"""Read-only SQLite execution with a timeout and a row cap, shared by the
pipeline's execution check and ``evaluate``'s execution accuracy.

Every connection follows one policy. It opens read-only with a page cache of
128 KiB and no prepared-statement cache, gets an authorizer that allows only
reads and a limit of no attached databases, and a watchdog whose deadline
restarts on every query. A query's pages live for that query alone:
``PRAGMA shrink_memory`` releases them before ``Connections.execute``
returns. So the probes of a running query hit the cache, in place of
re-reading the root and interior b-tree pages from the file on each probe,
while an idle connection holds no pages, and peak memory stays flat in the
number of database files. The statement cache would reuse about 2% of the
statements in an ``evaluate`` call. A connection that timed out or raised
something other than ``sqlite3.Error`` is dropped, unreleased.

A query runs on the ``Connections`` set its caller passes, one connection per
database file, kept until the set is closed; with no set passed it gets a set
of its own, closed after the query.
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

from .errors import EvaluationError
from .schema import SchemaCatalog

DEFAULT_TIMEOUT = 30.0
# A result with more rows fails with ``too_many_rows``, so a runaway join
# cannot exhaust memory before the timeout fires.
MAX_RESULT_ROWS = 100_000

# Everything else, ATTACH, PRAGMA and temporary tables included, is refused
# while a statement is prepared, so model-written SQL cannot write anywhere.
_ALLOWED_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE}
)


def _authorize(action: int, *_) -> int:
    return sqlite3.SQLITE_OK if action in _ALLOWED_ACTIONS else sqlite3.SQLITE_DENY


def _allow_all(*_) -> int:  # set_authorizer(None) needs Python >= 3.11
    return sqlite3.SQLITE_OK


# The page cache of a running query. Past about 128 KiB a larger one saves
# next to nothing per query (CHANGES.md has the sweep).
PAGE_CACHE_KIB = 128


@dataclass
class ExecutionResult:
    status: str  # ok | engine_error | timeout | too_many_rows
    rows: list[tuple] | None = None
    error_message: str | None = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Connections:
    """Connections to SQLite files, one per path, opened under the module's
    policy on first use and kept until ``close``. One thread uses a set at a
    time, though not always the same thread: the pipeline hands its sets
    from one worker to the next."""

    def __init__(self) -> None:
        self._open: dict[Path, sqlite3.Connection] = {}
        self._deadline = 0.0
        self._timed_out = False

    def _watchdog(self) -> int:
        if time.monotonic() > self._deadline:
            self._timed_out = True
            return 1
        return 0

    def _connect(self, path: Path) -> sqlite3.Connection:
        conn = sqlite3.connect(
            f"file:{path}?mode=ro", uri=True, check_same_thread=False, cached_statements=0
        )
        try:
            # Before the authorizer, which refuses every PRAGMA.
            conn.execute(f"PRAGMA cache_size = -{PAGE_CACHE_KIB}")
        except sqlite3.Error:
            conn.close()
            raise
        conn.set_authorizer(_authorize)
        if hasattr(conn, "setlimit"):  # Python >= 3.11
            conn.setlimit(sqlite3.SQLITE_LIMIT_ATTACHED, 0)
        conn.set_progress_handler(self._watchdog, 10_000)
        return conn

    def _drop(self, path: Path) -> None:
        self._open.pop(path).close()

    @staticmethod
    def _release(conn: sqlite3.Connection) -> None:
        """Free the connection's cached pages. The read-only authorizer
        refuses every PRAGMA, so a permissive one stands in for this one
        statement. A failed release leaves the pages to the next query's
        release or to ``close``; it never replaces the query's outcome."""
        conn.set_authorizer(_allow_all)
        try:
            conn.execute("PRAGMA shrink_memory")
        except sqlite3.Error:
            pass
        finally:
            conn.set_authorizer(_authorize)

    def execute(self, sql: str, path: Path, timeout: float) -> ExecutionResult:
        started = time.monotonic()
        if not sql or not sql.strip():
            return ExecutionResult(status="engine_error", error_message="empty SQL statement")
        conn = self._open.get(path)
        if conn is None:
            try:
                conn = self._open[path] = self._connect(path)
            except sqlite3.Error as exc:
                return ExecutionResult(status="engine_error", error_message=str(exc))
        self._deadline = started + timeout
        self._timed_out = False
        try:
            return self._query(conn, sql, path, started)
        finally:
            if self._open.get(path) is conn:  # kept, not dropped
                self._release(conn)

    def _query(
        self, conn: sqlite3.Connection, sql: str, path: Path, started: float
    ) -> ExecutionResult:
        try:
            cursor = conn.cursor()
            try:
                rows = cursor.execute(sql).fetchmany(MAX_RESULT_ROWS + 1)
            finally:
                cursor.close()  # an unfinished read must not stay open on the connection
        except sqlite3.Error as exc:
            elapsed = time.monotonic() - started
            if self._timed_out:
                self._drop(path)
                return ExecutionResult(status="timeout", error_message=str(exc), elapsed=elapsed)
            return ExecutionResult(status="engine_error", error_message=str(exc), elapsed=elapsed)
        except Exception as exc:  # e.g. overflow converting huge integers
            self._drop(path)
            return ExecutionResult(
                status="engine_error", error_message=str(exc), elapsed=time.monotonic() - started
            )
        if len(rows) > MAX_RESULT_ROWS:
            return ExecutionResult(
                status="too_many_rows",
                error_message=f"result has more than {MAX_RESULT_ROWS} rows",
                elapsed=time.monotonic() - started,
            )
        return ExecutionResult(status="ok", rows=rows, elapsed=time.monotonic() - started)

    def close(self) -> None:
        for conn in self._open.values():
            conn.close()
        self._open.clear()


def execute_sql(
    sql: str,
    catalog: SchemaCatalog,
    timeout: float = DEFAULT_TIMEOUT,
    connections: Connections | None = None,
) -> ExecutionResult:
    """Run a query against the catalog's SQLite file on a read-only
    connection that authorizes only reads (a refused statement fails with
    ``not authorized``); long queries are interrupted once *timeout*
    passes, and at most ``MAX_RESULT_ROWS`` rows are fetched. The
    connection is the one *connections* keeps for the file; with no set it
    is opened for this query and closed after it."""
    if catalog.source_path is None:
        raise EvaluationError(f"catalog {catalog.db_id} has no SQLite source path")
    if connections is not None:
        return connections.execute(sql, catalog.source_path, timeout)
    with closing(Connections()) as connections:
        return connections.execute(sql, catalog.source_path, timeout)
