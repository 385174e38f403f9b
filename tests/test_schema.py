from __future__ import annotations

import json
import re
import sqlite3
import tracemalloc

import pytest

from sqlmend.errors import MalformedDatasetError, SchemaIntegrityError
from sqlmend.schema import (
    ColumnDef,
    ForeignKey,
    SchemaCatalog,
    TableDef,
    load_database_dir,
    load_tables_json,
    render_schema_prompt,
)


# A valid one-table entry, for a test to break one field of.
_ENTRY = {
    "db_id": "bad",
    "table_names_original": ["t"],
    "column_names_original": [[-1, "*"], [0, "a"]],
    "column_types": ["text", "integer"],
    "primary_keys": [],
    "foreign_keys": [],
}


def _write_tables(tmp_path, payload):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadTablesJson:
    def test_single_table_entry(self, tmp_path):
        path = _write_tables(
            tmp_path,
            [
                {
                    "db_id": "concert_singer",
                    "table_names_original": ["singer"],
                    "column_names_original": [[-1, "*"], [0, "Name"]],
                    "column_types": ["text", "text"],
                    "primary_keys": [],
                    "foreign_keys": [],
                }
            ],
        )
        catalogs = load_tables_json(path)
        assert len(catalogs) == 1
        catalog = catalogs[0]
        assert catalog.db_id == "concert_singer"
        assert [t.name for t in catalog.tables] == ["singer"]
        assert catalog.tables[0].column_names() == ["Name"]

    def test_empty_array(self, tmp_path):
        assert load_tables_json(_write_tables(tmp_path, [])) == []

    def test_column_types_of_another_length(self, tmp_path):
        path = _write_tables(
            tmp_path,
            [
                {
                    "db_id": "bad",
                    "table_names_original": ["t"],
                    "column_names_original": [[-1, "*"], [0, "a"]],
                    "column_types": ["text"],
                    "primary_keys": [],
                    "foreign_keys": [],
                }
            ],
        )
        with pytest.raises(MalformedDatasetError,
                           match=r"entry 0 \(bad\): column_types length does not match columns$"):
            load_tables_json(path)

    def test_dangling_foreign_key_index(self, tmp_path):
        path = _write_tables(
            tmp_path,
            [
                {
                    "db_id": "bad",
                    "table_names_original": ["t"],
                    "column_names_original": [[-1, "*"], [0, "a"]],
                    "column_types": ["text", "integer"],
                    "primary_keys": [],
                    "foreign_keys": [[1, 5]],
                }
            ],
        )
        with pytest.raises(SchemaIntegrityError):
            load_tables_json(path)

    def test_missing_key_names_entry_index(self, tmp_path):
        path = _write_tables(tmp_path, [{"db_id": "x"}])
        with pytest.raises(MalformedDatasetError, match="entry 0"):
            load_tables_json(path)

    def test_errors_start_with_the_path(self, tmp_path):
        entry = {
            "db_id": "bad",
            "table_names_original": ["t"],
            "column_names_original": [[-1, "*"], [0, "a"]],
            "column_types": ["text", "integer"],
            "primary_keys": [],
            "foreign_keys": [[1, 5]],
        }
        path = _write_tables(tmp_path, [entry])
        with pytest.raises(SchemaIntegrityError) as raised:
            load_tables_json(path)
        assert str(raised.value).startswith(f"{path}: entry 0 (bad): foreign key column index 5")
        path = _write_tables(tmp_path, [{**entry, "foreign_keys": [], "column_types": ["text", 5]}])
        with pytest.raises(MalformedDatasetError) as raised:
            load_tables_json(path)
        assert str(raised.value) == f"{path}: entry 0 (bad): column type 1 must be a string, not 5"

    def test_boolean_primary_key_index_rejected(self, tmp_path):
        path = _write_tables(tmp_path, [{
            "db_id": "bad",
            "table_names_original": ["t"],
            "column_names_original": [[-1, "*"], [0, "a"]],
            "column_types": ["text", "integer"],
            "primary_keys": [True],
            "foreign_keys": [],
        }])
        with pytest.raises(SchemaIntegrityError, match="primary key column index True"):
            load_tables_json(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "tables.json"
        path.write_text("nope[", encoding="utf-8")
        with pytest.raises(MalformedDatasetError):
            load_tables_json(path)

    def test_foreign_keys_resolved_to_names(self, tmp_path):
        path = _write_tables(
            tmp_path,
            [
                {
                    "db_id": "pair",
                    "table_names_original": ["a", "b"],
                    "column_names_original": [[-1, "*"], [0, "id"], [1, "a_id"]],
                    "column_types": ["text", "integer", "integer"],
                    "primary_keys": [1],
                    "foreign_keys": [[2, 1]],
                }
            ],
        )
        catalog = load_tables_json(path)[0]
        fk = catalog.tables[1].foreign_keys[0]
        assert (fk.column, fk.foreign_table, fk.foreign_column) == ("a_id", "a", "id")
        assert catalog.tables[0].primary_key == ["id"]


    def test_column_naming_a_table_out_of_range(self, tmp_path):
        path = _write_tables(tmp_path, [{**_ENTRY, "column_names_original": [[-1, "*"], [3, "a"]]}])
        with pytest.raises(SchemaIntegrityError) as raised:
            load_tables_json(path)
        assert str(raised.value) == (
            f"{path}: entry 0 (bad): column 'a' names table index 3 out of range"
        )

    @pytest.mark.parametrize("foreign_key", [[1], [1, 1, 1], 1, None])
    def test_foreign_key_entry_that_is_not_a_pair(self, tmp_path, foreign_key):
        path = _write_tables(tmp_path, [{**_ENTRY, "foreign_keys": [foreign_key]}])
        with pytest.raises(MalformedDatasetError) as raised:
            load_tables_json(path)
        assert str(raised.value) == f"{path}: entry 0 (bad): foreign key entry is not a pair"

    def test_catalog_check_failure_names_the_entry(self, tmp_path):
        path = _write_tables(tmp_path, [
            {**_ENTRY, "db_id": "good"},
            {**_ENTRY, "column_names_original": [[-1, "*"], [0, "a"], [0, "A"]],
             "column_types": ["text", "text", "text"]},
        ])
        with pytest.raises(SchemaIntegrityError) as raised:
            load_tables_json(path)
        assert str(raised.value) == f"{path}: entry 1: bad.t: duplicate column 'A'"

    def test_names_and_types_are_shared_strings(self, tmp_path):
        # The decoder makes a new string object for each string it reads.
        entry = {
            "table_names_original": ["a", "b"],
            "column_names_original": [[-1, "*"], [0, "id"], [1, "id"], [1, "a_id"]],
            "column_types": ["text", "number", "number", "number"],
            "primary_keys": [1, 2],
            "foreign_keys": [[3, 1]],
        }
        path = _write_tables(tmp_path, [{**entry, "db_id": "one"}, {**entry, "db_id": "two"}])
        one, two = load_tables_json(path)
        columns = [c for catalog in (one, two) for t in catalog.tables for c in t.columns]
        assert len({id(c.name) for c in columns}) == 2
        assert len({id(c.data_type) for c in columns}) == 1
        a, b = one.tables
        assert a.primary_key[0] is b.primary_key[0] is a.columns[0].name
        fk = b.foreign_keys[0]
        assert (fk.column, fk.foreign_column) == ("a_id", "id")
        assert fk.column is b.columns[1].name and fk.foreign_column is a.columns[0].name

    def test_loading_holds_little_beside_the_catalogs(self, tmp_path):
        # Many databases with the Spider shape: a few tables of about a
        # dozen columns each, names drawn from a shared vocabulary.
        words = [f"w{i}" for i in range(300)]
        entries = []
        for db in range(60):
            tables = [f"t{db}_{i}" for i in range(5)]
            columns = [[-1, "*"]] + [
                [table, f"{words[(db * 7 + table * 13 + k * k) % 300]}_{k}"]
                for table in range(5) for k in range(12)
            ]
            types = ["text"] + [("text", "number", "time")[k % 3] for k in range(60)]
            entries.append({
                "db_id": f"db{db}",
                "table_names": tables,
                "table_names_original": tables,
                "column_names": columns,
                "column_names_original": columns,
                "column_types": types,
                "primary_keys": [1 + 12 * table for table in range(5)],
                "foreign_keys": [[13 + 12 * table, 1] for table in range(4)],
            })
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(entries, indent=1), encoding="utf-8")
        size = path.stat().st_size
        # A first load also grows the interpreter's table of interned
        # strings by a step that depends on what the process interned
        # before; the second load measures the loader alone.
        load_tables_json(path)
        tracemalloc.start()
        try:
            catalogs = load_tables_json(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(catalogs) == 60
        assert peak < 4 * size, f"peak {peak} bytes for a file of {size}"


class TestRenderSchemaPrompt:
    def test_single_column_golden(self):
        catalog = SchemaCatalog("d", [TableDef("singer", [ColumnDef("Name", "TEXT")])])
        assert render_schema_prompt(catalog) == "CREATE TABLE singer (Name TEXT);"

    def test_two_tables_blank_line_separated(self):
        catalog = SchemaCatalog(
            "d",
            [
                TableDef("a", [ColumnDef("x", "INTEGER")]),
                TableDef("b", [ColumnDef("y", "TEXT")]),
            ],
        )
        assert render_schema_prompt(catalog) == (
            "CREATE TABLE a (x INTEGER);\n\nCREATE TABLE b (y TEXT);"
        )

    def test_composite_primary_key_golden(self):
        catalog = SchemaCatalog(
            "d",
            [
                TableDef(
                    "t",
                    [ColumnDef("a", "INTEGER"), ColumnDef("b", "INTEGER")],
                    primary_key=["a", "b"],
                )
            ],
        )
        assert render_schema_prompt(catalog) == (
            "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b));"
        )

    def test_types_uppercased_identifiers_preserved(self):
        catalog = SchemaCatalog("d", [TableDef("T", [ColumnDef("CamelCol", "text")])])
        assert render_schema_prompt(catalog) == "CREATE TABLE T (CamelCol TEXT);"

    def test_identifier_with_quotes_and_spaces_is_quoted(self):
        catalog = SchemaCatalog("d", [TableDef("t", [ColumnDef('b "c" (d)', "int")])])
        assert render_schema_prompt(catalog) == 'CREATE TABLE t ("b ""c"" (d)" INT);'

    def test_pure_function_identical_bytes(self, catalog):
        assert render_schema_prompt(catalog) == render_schema_prompt(catalog)

    def test_rendered_once_per_catalog(self, catalog):
        assert render_schema_prompt(catalog) is render_schema_prompt(catalog)

    def test_round_trip_through_sqlite(self, tmp_path, catalog):
        ddl = render_schema_prompt(catalog)
        db = tmp_path / f"{catalog.db_id}.sqlite"
        conn = sqlite3.connect(db)
        try:
            conn.executescript(ddl)
            names = [name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY rowid"
            )]
            assert names == [t.name for t in catalog.tables]
            for orig in catalog.tables:
                # cid, name, type, notnull, default, position in the primary key
                info = conn.execute(f"PRAGMA table_info('{orig.name}')").fetchall()
                assert [row[1] for row in info] == orig.column_names()
                assert [row[2].upper() for row in info] == [
                    c.data_type.upper() for c in orig.columns
                ]
                assert sorted(row[1] for row in info if row[5]) == sorted(orig.primary_key)
                # id, seq, table, from, to, ...
                keys = conn.execute(f"PRAGMA foreign_key_list('{orig.name}')").fetchall()
                assert {(row[3], row[2], row[4]) for row in keys} == {
                    (fk.column, fk.foreign_table, fk.foreign_column)
                    for fk in orig.foreign_keys
                }
        finally:
            conn.close()


class TestCatalogInvariants:
    def test_case_insensitive_lookup_returns_canonical(self, catalog):
        assert catalog.find_table("SINGER").name == "singer"
        assert catalog.tables[0].find_column("NAME").name == "name"

    def test_duplicate_table_rejected(self):
        with pytest.raises(SchemaIntegrityError):
            SchemaCatalog(
                "d",
                [
                    TableDef("t", [ColumnDef("a", "TEXT")]),
                    TableDef("T", [ColumnDef("b", "TEXT")]),
                ],
            )

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaIntegrityError):
            SchemaCatalog(
                "d", [TableDef("t", [ColumnDef("a", "TEXT"), ColumnDef("A", "TEXT")])]
            )

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaIntegrityError):
            SchemaCatalog(
                "d", [TableDef("t", [ColumnDef("a", "TEXT")], primary_key=["b"])]
            )

    def test_empty_db_id_rejected(self):
        with pytest.raises(SchemaIntegrityError):
            SchemaCatalog("", [])

    @pytest.mark.parametrize("tables, message", [
        ([TableDef("t", [ColumnDef("", "TEXT")])], "d.t: empty column name"),
        ([TableDef("t", [ColumnDef("a", "TEXT")], foreign_keys=[ForeignKey("x", "t", "a")])],
         "d.t: foreign key column 'x' missing"),
        ([TableDef("t", [ColumnDef("a", "TEXT")], foreign_keys=[ForeignKey("A", "u", "a")])],
         "d.t: foreign key targets unknown table 'u'"),
        ([TableDef("t", [ColumnDef("a", "TEXT")], foreign_keys=[ForeignKey("a", "U", "b")]),
          TableDef("u", [ColumnDef("c", "TEXT")])],
         "d.t: foreign key targets unknown column U.b"),
    ], ids=["empty-column", "key-column", "target-table", "target-column"])
    def test_built_catalog_refused(self, tables, message):
        with pytest.raises(SchemaIntegrityError) as raised:
            SchemaCatalog("d", tables)
        assert str(raised.value) == message


def test_load_database_dir_layout(tmp_path):
    (tmp_path / "db1").mkdir()
    sqlite3.connect(tmp_path / "db1" / "db1.sqlite").close()
    (tmp_path / "db2").mkdir()  # no sqlite file inside
    mapping = load_database_dir(tmp_path)
    assert set(mapping) == {"db1"}


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_load_database_dir_refuses_a_path_that_is_not_a_directory(tmp_path, kind):
    # Returning no databases here would turn every execution check off.
    path = tmp_path / "databases"
    if kind == "file":
        path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedDatasetError, match=f"^{re.escape(str(path))}: not a directory$"):
        load_database_dir(path)
