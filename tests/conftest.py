from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from sqlmend.backends import ModelBackend, RecordingBackend, ReplayStore
from sqlmend.datasets import load_alignment_sidecar, load_dataset
from sqlmend.pipeline import MendPipeline, PipelineConfig
from sqlmend.retrieval import build_index, load_demonstration_pool
from sqlmend.schema import load_database_dir, load_tables_json

from support.corpus import corpus_catalog
from support.mini import build_mini_benchmark, ScriptedBackend


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


class MiniEnv:
    """Loaded mini benchmark: catalogs with db paths, dataset with gold
    alignments, pool with alignments, and a prebuilt BM25 index."""

    def __init__(self, paths: dict[str, Path]):
        self.paths = paths
        self.catalogs = {c.db_id: c for c in load_tables_json(paths["tables"])}
        for db_id, db_path in load_database_dir(paths["databases"]).items():
            self.catalogs[db_id].source_path = db_path
        self.examples = load_dataset(paths["dataset"])
        for example, alignment in zip(
            self.examples,
            load_alignment_sidecar(
                paths["dataset_alignments"], [e.question for e in self.examples]
            ),
        ):
            example.gold_alignment = alignment
        self.pool = load_demonstration_pool(paths["pool"])
        for demo, alignment in zip(
            self.pool,
            load_alignment_sidecar(
                paths["pool_alignments"], [d.question for d in self.pool]
            ),
        ):
            demo.alignment = alignment
        self.index = build_index(self.pool)

    def pipeline(self, backend: ModelBackend, **config) -> MendPipeline:
        return MendPipeline(
            catalogs=self.catalogs,
            pool=self.pool,
            index=self.index,
            backend=backend,
            config=PipelineConfig(**config),
        )


@pytest.fixture(scope="session")
def mini_env(mini_paths) -> MiniEnv:
    return MiniEnv(mini_paths)


@pytest.fixture(scope="session")
def replay_store_path(mini_paths, mini_env) -> Path:
    """Record the scripted model once, covering both the plain and the
    oracle-both configurations, so replay-mode tests never need the script."""
    store_path = mini_paths["root"] / "replay_store.jsonl"
    store = ReplayStore(store_path)
    backend = RecordingBackend(ScriptedBackend(), store)
    for oracle in ("none", "both"):
        pipeline = mini_env.pipeline(backend, oracle=oracle)
        pipeline.run(mini_env.examples)
    return store_path


class CountingBackend(ModelBackend):
    """Wrapper that counts completions, for call-budget assertions."""

    def __init__(self, inner: ModelBackend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.inner.complete(request)
