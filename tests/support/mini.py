"""Ten-example mini benchmark used by the end-to-end and CLI tests.

Two small SQLite databases (talent_show, market), a demonstration pool with
gold alignments, a dataset with gold alignments, and a scripted model whose
responses are keyed by (question, prompt kind). The scripted model plays a
flawed-but-correctable generator: four examples start wrong, three of them
are fixable through entity / skeleton / execution feedback, and one (ex3's
wrong literal) stays wrong because no feedback channel can see it.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from sqlmend.alignment import tokenize_question
from sqlmend.backends import (
    ModelBackend,
    ModelRequest,
    ModelResponse,
    RecordingBackend,
    ReplayStore,
)
from sqlmend.cli import main
from sqlmend.datasets import load_alignment_sidecar, load_dataset
from sqlmend.pipeline import ORACLE_MODES, MendPipeline, PipelineConfig
from sqlmend.prompts import EXECUTION_NOTIFICATION_PREFIX
from sqlmend.retrieval import build_index, load_demonstration_pool
from sqlmend.schema import load_database_dir, load_tables_json

TALENT_DDL = [
    "CREATE TABLE singer (singer_id INTEGER PRIMARY KEY, name TEXT, age INTEGER,"
    " country TEXT, net_worth REAL)",
    "CREATE TABLE concert (concert_id INTEGER PRIMARY KEY, venue TEXT, year INTEGER)",
    "CREATE TABLE performance (singer_id INTEGER, concert_id INTEGER, rank INTEGER,"
    " FOREIGN KEY (singer_id) REFERENCES singer (singer_id),"
    " FOREIGN KEY (concert_id) REFERENCES concert (concert_id))",
]
TALENT_ROWS = {
    "singer": [
        (1, "Ann", 41, "US", 5000000.0),
        (2, "Bob", 25, "UK", 1200000.0),
        (3, "Cal", 32, "France", 700000.0),
        (4, "Dee", 30, "US", 2500000.0),
    ],
    "concert": [(1, "Hyde Park", 2019), (2, "Dome", 2020), (3, "Arena", 2020)],
    "performance": [(1, 1, 1), (2, 2, 2), (3, 2, 1), (4, 3, 1)],
}

MARKET_DDL = [
    "CREATE TABLE stock_idx (idx_name TEXT, earnings REAL, volume INTEGER)",
]
MARKET_ROWS = {
    "stock_idx": [
        ("Alpha", 7500.0, 100),
        ("Beta", 4100.0, 200),
        ("Gamma", 5200.5, 150),
        ("Delta", 900.0, 80),
    ],
}

TABLES_JSON = [
    {
        "db_id": "talent_show",
        "table_names_original": ["singer", "concert", "performance"],
        "column_names_original": [
            [-1, "*"],
            [0, "singer_id"], [0, "name"], [0, "age"], [0, "country"], [0, "net_worth"],
            [1, "concert_id"], [1, "venue"], [1, "year"],
            [2, "singer_id"], [2, "concert_id"], [2, "rank"],
        ],
        "column_types": [
            "text",
            "integer", "text", "integer", "text", "real",
            "integer", "text", "integer",
            "integer", "integer", "integer",
        ],
        "primary_keys": [1, 6],
        "foreign_keys": [[9, 1], [10, 6]],
    },
    {
        "db_id": "market",
        "table_names_original": ["stock_idx"],
        "column_names_original": [
            [-1, "*"], [0, "idx_name"], [0, "earnings"], [0, "volume"],
        ],
        "column_types": ["text", "text", "real", "integer"],
        "primary_keys": [],
        "foreign_keys": [],
    },
]


def _link(token, schema=None, kind=None):
    return {"token": token, "schema": schema, "type": kind}


def _aligned(question: str, links: dict[str, tuple[str, str]]) -> list[dict]:
    """Gold alignment for a question: links maps token -> (schema, type)."""
    records = []
    for token in tokenize_question(question):
        if token in links:
            schema, kind = links[token]
            records.append(_link(token, schema, kind))
        else:
            records.append(_link(token))
    return records


# --- the ten examples -------------------------------------------------------

EXAMPLES = [
    {
        "question": "Order the stock idx with earnings more than 5,000",
        "db_id": "market",
        "query": "SELECT idx_name FROM stock_idx WHERE earnings > 5000 ORDER BY earnings",
        "links": {"stock": ("stock_idx", "tbl"), "idx": ("stock_idx", "tbl"),
                  "earnings": ("earnings", "col"), "5,000": ("5000", "val")},
    },
    {
        "question": "How many singers are there?",
        "db_id": "talent_show",
        "query": "SELECT count(*) FROM singer",
        "links": {"singers": ("singer", "tbl")},
    },
    {
        "question": "List the names of singers older than 30",
        "db_id": "talent_show",
        "query": "SELECT name FROM singer WHERE age > 30",
        "links": {"names": ("name", "col"), "singers": ("singer", "tbl"),
                  "older": ("age", "col"), "30": ("30", "val")},
    },
    {
        "question": "Show the venue of each concert in year 2020",
        "db_id": "talent_show",
        "query": "SELECT venue FROM concert WHERE year = 2020",
        "links": {"venue": ("venue", "col"), "concert": ("concert", "tbl"),
                  "year": ("year", "col"), "2020": ("2020", "val")},
    },
    {
        "question": "What is the average age of singers whose country is France?",
        "db_id": "talent_show",
        "query": "SELECT avg(age) FROM singer WHERE country = 'France'",
        "links": {"age": ("age", "col"), "singers": ("singer", "tbl"),
                  "country": ("country", "col"), "France": ("France", "val")},
    },
    {
        "question": "List singer names with their concert venues",
        "db_id": "talent_show",
        "query": (
            "SELECT T2.name, T3.venue FROM performance AS T1 "
            "JOIN singer AS T2 ON T1.singer_id = T2.singer_id "
            "JOIN concert AS T3 ON T1.concert_id = T3.concert_id"
        ),
        "links": {"singer": ("singer", "tbl"), "names": ("name", "col"),
                  "concert": ("concert", "tbl"), "venues": ("venue", "col")},
    },
    {
        "question": "Show names of singers older than 20",
        "db_id": "talent_show",
        "query": "SELECT name FROM singer WHERE age > 20",
        "links": {"names": ("name", "col"), "singers": ("singer", "tbl"),
                  "20": ("20", "val")},
    },
    {
        "question": "What is the maximum age of singers from each country?",
        "db_id": "talent_show",
        "query": "SELECT country, max(age) FROM singer GROUP BY country",
        "links": {"age": ("age", "col"), "singers": ("singer", "tbl"),
                  "country": ("country", "col")},
    },
    {
        "question": "Count the concerts",
        "db_id": "talent_show",
        "query": "SELECT count(*) FROM concert",
        "links": {"concerts": ("concert", "tbl")},
    },
    {
        "question": "List all venues",
        "db_id": "talent_show",
        "query": "SELECT venue FROM concert",
        "links": {"venues": ("venue", "col")},
    },
]

POOL = [
    {
        "question": "Show the name of all singers",
        "query": "SELECT name FROM singer",
        "db_id": "talent_show",
        "links": {"name": ("name", "col"), "singers": ("singer", "tbl")},
    },
    {
        "question": "How many concerts are there in total?",
        "query": "SELECT count(*) FROM concert",
        "db_id": "talent_show",
        "links": {"concerts": ("concert", "tbl")},
    },
    {
        "question": "List singers older than 40",
        "query": "SELECT name FROM singer WHERE age > 40",
        "db_id": "talent_show",
        "links": {"singers": ("singer", "tbl"), "older": ("age", "col"),
                  "40": ("40", "val")},
    },
    {
        "question": "Order the singers by age",
        "query": "SELECT name FROM singer ORDER BY age",
        "db_id": "talent_show",
        "links": {"singers": ("singer", "tbl"), "age": ("age", "col")},
    },
    {
        "question": "Which venues hosted concerts in 2019?",
        "query": "SELECT venue FROM concert WHERE year = 2019",
        "db_id": "talent_show",
        "links": {"venues": ("venue", "col"), "concerts": ("concert", "tbl"),
                  "2019": ("2019", "val")},
    },
    {
        "question": "What is the average earnings of stock idx?",
        "query": "SELECT avg(earnings) FROM stock_idx",
        "db_id": "market",
        "links": {"earnings": ("earnings", "col"), "stock": ("stock_idx", "tbl"),
                  "idx": ("stock_idx", "tbl")},
    },
    {
        "question": "List stock idx names with volume above 120",
        "query": "SELECT idx_name FROM stock_idx WHERE volume > 120",
        "db_id": "market",
        "links": {"stock": ("stock_idx", "tbl"), "idx": ("stock_idx", "tbl"),
                  "names": ("idx_name", "col"), "volume": ("volume", "col"),
                  "120": ("120", "val")},
    },
    {
        "question": "Show the maximum age for each country",
        "query": "SELECT country, max(age) FROM singer GROUP BY country",
        "db_id": "talent_show",
        "links": {"age": ("age", "col"), "country": ("country", "col")},
    },
]


def _fenced(sql: str) -> str:
    return f"```sql\n{sql}\n```"


# Responses keyed by (question, kind); kind is one of
# generation | linking | hallucination | correction_entity |
# correction_skeleton | correction_execution.
SCRIPT: dict[tuple[str, str], str] = {
    (EXAMPLES[0]["question"], "generation"): _fenced("SELECT idx_name FROM stock_idx"),
    (EXAMPLES[0]["question"], "linking"): repr(
        _aligned(EXAMPLES[0]["question"], EXAMPLES[0]["links"])
    ),
    (EXAMPLES[0]["question"], "hallucination"): _fenced(
        "SELECT name FROM stocks WHERE profit > 5000 ORDER BY profit"
    ),
    (EXAMPLES[0]["question"], "correction_entity"): _fenced(
        "SELECT idx_name FROM stock_idx WHERE earnings > 5000"
    ),
    (EXAMPLES[0]["question"], "correction_skeleton"): _fenced(
        "SELECT idx_name FROM stock_idx WHERE earnings > 5000 ORDER BY earnings"
    ),

    (EXAMPLES[1]["question"], "generation"): _fenced("SELECT count(*) FROM singer"),
    (EXAMPLES[1]["question"], "linking"): repr(
        _aligned(EXAMPLES[1]["question"], EXAMPLES[1]["links"])
    ),
    (EXAMPLES[1]["question"], "hallucination"): _fenced("SELECT count(*) FROM people"),

    (EXAMPLES[2]["question"], "generation"): _fenced(
        "SELECT name FROM singer WHERE age > 30"
    ),
    (EXAMPLES[2]["question"], "linking"): repr(
        _aligned(EXAMPLES[2]["question"], EXAMPLES[2]["links"])
    ),
    (EXAMPLES[2]["question"], "hallucination"): _fenced(
        "SELECT moniker FROM artists WHERE years > 30"
    ),

    (EXAMPLES[3]["question"], "generation"): _fenced(
        "SELECT venue FROM concert WHERE year = 2019"
    ),
    (EXAMPLES[3]["question"], "linking"): repr(
        _aligned(EXAMPLES[3]["question"], EXAMPLES[3]["links"])
    ),
    (EXAMPLES[3]["question"], "hallucination"): _fenced(
        "SELECT place FROM events WHERE season = 2020"
    ),

    (EXAMPLES[4]["question"], "generation"): _fenced(
        "SELECT avg(age) FROM singer WHERE name = 'France'"
    ),
    (EXAMPLES[4]["question"], "linking"): repr(
        _aligned(EXAMPLES[4]["question"], EXAMPLES[4]["links"])
    ),
    (EXAMPLES[4]["question"], "hallucination"): _fenced(
        "SELECT avg(years) FROM persons WHERE nation = 'France'"
    ),
    (EXAMPLES[4]["question"], "correction_entity"): _fenced(
        "SELECT avg(age) FROM singer WHERE country = 'France'"
    ),

    (EXAMPLES[5]["question"], "generation"): _fenced(EXAMPLES[5]["query"]),
    (EXAMPLES[5]["question"], "linking"): repr(
        _aligned(EXAMPLES[5]["question"], EXAMPLES[5]["links"])
    ),
    (EXAMPLES[5]["question"], "hallucination"): _fenced(
        "SELECT a.name, c.venue FROM people AS a JOIN acts AS b ON a.id = b.pid "
        "JOIN shows AS c ON b.sid = c.id"
    ),

    (EXAMPLES[6]["question"], "generation"): _fenced(
        "SELECT concert.name FROM singer WHERE age > 20"
    ),
    # Deliberately sparse linking: only the table, so no entity feedback and
    # the execution channel gets to act.
    (EXAMPLES[6]["question"], "linking"): repr(
        _aligned(EXAMPLES[6]["question"], {"singers": ("singer", "tbl")})
    ),
    (EXAMPLES[6]["question"], "hallucination"): _fenced(
        "SELECT handle FROM crowd WHERE age > 20"
    ),
    (EXAMPLES[6]["question"], "correction_execution"): _fenced(
        "SELECT name FROM singer WHERE age > 20"
    ),
    # Only reached in oracle-entity runs, where the gold alignment links name.
    (EXAMPLES[6]["question"], "correction_entity"): _fenced(
        "SELECT name FROM singer WHERE age > 20"
    ),

    (EXAMPLES[7]["question"], "generation"): _fenced(
        "SELECT country, max(age) FROM singer"
    ),
    (EXAMPLES[7]["question"], "linking"): repr(
        _aligned(EXAMPLES[7]["question"], EXAMPLES[7]["links"])
    ),
    (EXAMPLES[7]["question"], "hallucination"): _fenced(
        "SELECT region, max(years) FROM folks GROUP BY region"
    ),
    (EXAMPLES[7]["question"], "correction_skeleton"): _fenced(
        "SELECT country, max(age) FROM singer GROUP BY country"
    ),

    (EXAMPLES[8]["question"], "generation"): _fenced("SELECT count(*) FROM concert"),
    (EXAMPLES[8]["question"], "linking"): "I cannot align these tokens.",
    (EXAMPLES[8]["question"], "hallucination"): _fenced("SELECT count(*) FROM gigs"),

    (EXAMPLES[9]["question"], "generation"): _fenced("SELECT venue FROM concert"),
    (EXAMPLES[9]["question"], "linking"): repr(
        _aligned(EXAMPLES[9]["question"], EXAMPLES[9]["links"])
    ),
    (EXAMPLES[9]["question"], "hallucination"): (
        "The question is too vague for me to answer."
    ),
}


class ScriptedBackend(ModelBackend):
    """Deterministic stand-in for a live model, used to record fixtures."""

    backend_id = "scripted"

    def __init__(self):
        self.calls = 0

    def complete(self, request: ModelRequest) -> ModelResponse:
        self.calls += 1
        prompt = request.prompt
        kind = self._kind(prompt)
        question = self._question(prompt, kind)
        try:
            return ModelResponse(text=SCRIPT[(question, kind)], backend_id=self.backend_id)
        except KeyError:
            raise AssertionError(
                f"scripted backend has no response for ({question!r}, {kind})"
            ) from None

    @staticmethod
    def _kind(prompt: str) -> str:
        if prompt.startswith("Generate a SQL"):
            return "generation"
        if prompt.startswith("Align the tokens"):
            return "linking"
        if prompt.startswith("Hallucinate a SQL"):
            return "hallucination"
        if EXECUTION_NOTIFICATION_PREFIX in prompt:
            return "correction_execution"
        if "the SQL skeleton could be like" in prompt:
            return "correction_skeleton"
        if "are mentioned by the question" in prompt:
            return "correction_entity"
        raise AssertionError(f"scripted backend cannot classify prompt: {prompt[:80]!r}")

    @staticmethod
    def _question(prompt: str, kind: str) -> str:
        for example in EXAMPLES:
            question = example["question"]
            if kind == "linking":
                if " ".join(tokenize_question(question)) in prompt:
                    return question
            elif f'"{question}"' in prompt or f"Question: {question}" in prompt:
                return question
        raise AssertionError(f"scripted backend found no known question in prompt ({kind})")


def _create_db(path: Path, ddl: list[str], rows: dict[str, list[tuple]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    try:
        for statement in ddl:
            conn.execute(statement)
        for table, table_rows in rows.items():
            if not table_rows:
                continue
            placeholders = ", ".join("?" * len(table_rows[0]))
            conn.executemany(f"INSERT INTO {table} VALUES ({placeholders})", table_rows)
        conn.commit()
    finally:
        conn.close()


def build_mini_benchmark(root: Path) -> dict[str, Path]:
    """Materialize databases, tables.json, dataset, pool, and both alignment
    sidecars under *root*; returns the path map."""
    databases = root / "database"
    _create_db(databases / "talent_show" / "talent_show.sqlite", TALENT_DDL, TALENT_ROWS)
    _create_db(databases / "market" / "market.sqlite", MARKET_DDL, MARKET_ROWS)

    tables_path = root / "tables.json"
    tables_path.write_text(json.dumps(TABLES_JSON, indent=2), encoding="utf-8")

    dataset_path = root / "dataset.json"
    dataset_path.write_text(
        json.dumps(
            [
                {"question": e["question"], "db_id": e["db_id"], "query": e["query"]}
                for e in EXAMPLES
            ],
            indent=2,
        ),
        encoding="utf-8",
    )

    pool_path = root / "pool.json"
    pool_path.write_text(
        json.dumps(
            [
                {"question": d["question"], "db_id": d["db_id"], "query": d["query"]}
                for d in POOL
            ],
            indent=2,
        ),
        encoding="utf-8",
    )

    dataset_alignments = root / "dataset_alignments.jsonl"
    dataset_alignments.write_text(
        "\n".join(json.dumps(_aligned(e["question"], e["links"])) for e in EXAMPLES) + "\n",
        encoding="utf-8",
    )
    pool_alignments = root / "pool_alignments.jsonl"
    pool_alignments.write_text(
        "\n".join(json.dumps(_aligned(d["question"], d["links"])) for d in POOL) + "\n",
        encoding="utf-8",
    )

    return {
        "root": root,
        "databases": databases,
        "tables": tables_path,
        "dataset": dataset_path,
        "pool": pool_path,
        "dataset_alignments": dataset_alignments,
        "pool_alignments": pool_alignments,
    }


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


def record_store(env: MiniEnv, store_path: Path, oracles=ORACLE_MODES) -> Path:
    """Record the scripted model's answers under each oracle mode into one
    replay store, so that replaying any of them needs no script."""
    backend = RecordingBackend(ScriptedBackend(), ReplayStore(store_path))
    for oracle in oracles:
        env.pipeline(backend, oracle=oracle).run(env.examples)
    return store_path


def run_args(paths: dict[str, Path], store_path: Path, output: Path, *extra: str) -> list[str]:
    """The ``sqlmend run`` arguments that replay *store_path* over the mini
    benchmark into *output*."""
    return [
        "run",
        "--dataset", str(paths["dataset"]),
        "--databases", str(paths["databases"]),
        "--tables", str(paths["tables"]),
        "--pool", str(paths["pool"]),
        "--alignments", str(paths["dataset_alignments"]),
        "--pool-alignments", str(paths["pool_alignments"]),
        "--backend", "replay",
        "--replay-store", str(store_path),
        "--output", str(output),
        *extra,
    ]


def replay_and_evaluate(
    paths: dict[str, Path], store_path: Path, output: Path, oracle: str, *extra: str
) -> tuple[bytes, bytes]:
    """``sqlmend run --oracle <oracle>`` over the replay store, then
    ``sqlmend evaluate`` of its traces; returns the bytes of
    ``traces.jsonl`` and of ``report.json``."""
    assert main(run_args(paths, store_path, output, "--oracle", oracle, *extra)) == 0
    traces = output / "traces.jsonl"
    assert main([
        "evaluate", str(traces),
        "--dataset", str(paths["dataset"]),
        "--alignments", str(paths["dataset_alignments"]),
        "--databases", str(paths["databases"]),
        "--tables", str(paths["tables"]),
        "--format", "json",
    ]) == 0
    return traces.read_bytes(), (output / "report.json").read_bytes()
