from __future__ import annotations

import json
import re
import sqlite3

import pytest

from sqlmend.errors import MalformedDatasetError, SchemaIntegrityError
from sqlmend.schema import (
    ColumnDef,
    SchemaCatalog,
    TableDef,
    load_database_dir,
    load_tables_json,
    render_schema_prompt,
)


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
