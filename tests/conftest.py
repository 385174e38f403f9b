from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from sqlmend.backends import ModelBackend

from support.corpus import corpus_catalog
from support.mini import MiniEnv, build_mini_benchmark, record_store


@pytest.fixture(scope="session")
def catalog():
    return corpus_catalog()


@pytest.fixture(scope="session")
def corpus_db(tmp_path_factory, catalog) -> Path:
    """SQLite database matching the corpus schema, with a few rows."""
    path = tmp_path_factory.mktemp("corpus") / "concert_hall.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE singer (singer_id INTEGER PRIMARY KEY, name TEXT, age INTEGER,
                             country TEXT, net_worth REAL);
        CREATE TABLE concert (concert_id INTEGER PRIMARY KEY, venue TEXT,
                              year INTEGER, capacity INTEGER);
        CREATE TABLE performance (singer_id INTEGER, concert_id INTEGER, rank INTEGER);
        CREATE TABLE ticket (ticket_id INTEGER PRIMARY KEY, concert_id INTEGER,
                             price REAL, buyer TEXT);
        INSERT INTO singer VALUES (1, 'Ann', 41, 'US', 5000000.0);
        INSERT INTO singer VALUES (2, 'Bob', 25, 'UK', 1200000.0);
        INSERT INTO singer VALUES (3, 'Cal', 32, 'France', 700000.0);
        INSERT INTO singer VALUES (4, 'Dee', 30, NULL, 2500000.0);
        INSERT INTO concert VALUES (1, 'Hyde Park', 2019, 40000);
        INSERT INTO concert VALUES (2, 'Dome', 2020, 3000);
        INSERT INTO concert VALUES (3, 'Arena', 2014, 12000);
        INSERT INTO performance VALUES (1, 1, 1);
        INSERT INTO performance VALUES (2, 2, 2);
        INSERT INTO performance VALUES (3, 2, 1);
        INSERT INTO ticket VALUES (1, 1, 120.5, 'Flo');
        INSERT INTO ticket VALUES (2, 2, 45.0, 'Gus');
        INSERT INTO ticket VALUES (3, 2, 6000.0, 'Hal');
        """
    )
    conn.commit()
    conn.close()
    return path


@pytest.fixture(scope="session")
def mini_paths(tmp_path_factory) -> dict[str, Path]:
    return build_mini_benchmark(tmp_path_factory.mktemp("mini"))


@pytest.fixture(scope="session")
def mini_env(mini_paths) -> MiniEnv:
    return MiniEnv(mini_paths)


@pytest.fixture(scope="session")
def replay_store_path(mini_paths, mini_env) -> Path:
    """Record the scripted model once, covering both the plain and the
    oracle-both configurations, so replay-mode tests never need the script."""
    return record_store(mini_env, mini_paths["root"] / "replay_store.jsonl", ("none", "both"))


class CountingBackend(ModelBackend):
    """Wrapper that counts completions, for call-budget assertions."""

    def __init__(self, inner: ModelBackend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.inner.complete(request)
