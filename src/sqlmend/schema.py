"""Database schema catalogs: Spider ``tables.json`` loading and rendering
to the ``CREATE TABLE`` text block that every prompt embeds.

Catalogs are treated as immutable after construction and are safe to share
across worker threads. A loaded catalog holds one string object per distinct
column name and per distinct column type (``sys.intern``), shared by every
column, key and catalog that names it, so a ``tables.json`` of many databases
with the same few types and common names keeps each of them once.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .datasets import checked, json_entries
from .errors import MalformedDatasetError, SchemaIntegrityError

_BARE_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(slots=True)
class ColumnDef:
    name: str
    data_type: str


@dataclass(slots=True)
class ForeignKey:
    column: str
    foreign_table: str
    foreign_column: str


@dataclass(slots=True)
class TableDef:
    name: str
    columns: list[ColumnDef]
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def find_column(self, name: str) -> ColumnDef | None:
        lowered = name.lower()
        for col in self.columns:
            if col.name.lower() == lowered:
                return col
        return None


@dataclass(slots=True)
class SchemaCatalog:
    """One database's tables plus optional path to its SQLite file."""

    db_id: str
    tables: list[TableDef]
    source_path: Path | None = None
    _table_index: dict[str, TableDef] = field(init=False, repr=False, compare=False)
    # Set by ``render_schema_prompt``.
    _schema_prompt: str | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.validate()
        self._table_index = {t.name.lower(): t for t in self.tables}

    def validate(self) -> None:
        if not self.db_id:
            raise SchemaIntegrityError("db_id must be non-empty")
        # Each table's lowercased column names: a key column is found when its
        # lowercased name is among them, as ``find_column`` would find it.
        columns_of: dict[str, set[str]] = {}
        for table in self.tables:
            key = table.name.lower()
            if key in columns_of:
                raise SchemaIntegrityError(
                    f"{self.db_id}: duplicate table name {table.name!r}"
                )
            seen_cols = columns_of[key] = set()
            for col in table.columns:
                if not col.name:
                    raise SchemaIntegrityError(
                        f"{self.db_id}.{table.name}: empty column name"
                    )
                ckey = col.name.lower()
                if ckey in seen_cols:
                    raise SchemaIntegrityError(
                        f"{self.db_id}.{table.name}: duplicate column {col.name!r}"
                    )
                seen_cols.add(ckey)
            for pk in table.primary_key:
                if pk.lower() not in seen_cols:
                    raise SchemaIntegrityError(
                        f"{self.db_id}.{table.name}: primary key column {pk!r} missing"
                    )
            for fk in table.foreign_keys:
                if fk.column.lower() not in seen_cols:
                    raise SchemaIntegrityError(
                        f"{self.db_id}.{table.name}: foreign key column {fk.column!r} missing"
                    )
        # Foreign-key targets must resolve within the catalog.
        for table in self.tables:
            for fk in table.foreign_keys:
                target = columns_of.get(fk.foreign_table.lower())
                if target is None:
                    raise SchemaIntegrityError(
                        f"{self.db_id}.{table.name}: foreign key targets unknown "
                        f"table {fk.foreign_table!r}"
                    )
                if fk.foreign_column.lower() not in target:
                    raise SchemaIntegrityError(
                        f"{self.db_id}.{table.name}: foreign key targets unknown "
                        f"column {fk.foreign_table}.{fk.foreign_column}"
                    )

    def find_table(self, name: str) -> TableDef | None:
        """Case-insensitive lookup returning the canonically cased table."""
        return self._table_index.get(name.lower())


def _render_identifier(name: str) -> str:
    if _BARE_IDENTIFIER.match(name):
        return name
    return '"' + name.replace('"', '""') + '"'


def render_schema_prompt(catalog: SchemaCatalog) -> str:
    """Render a catalog as one single-line ``CREATE TABLE`` statement per
    table, in catalog order, separated by a blank line.

    The output is byte-for-byte deterministic for a given catalog; type
    names are uppercased, identifier casing is preserved. It is rendered
    once per catalog, which is immutable, and the same string is returned
    afterwards.
    """
    if catalog._schema_prompt is None:
        catalog._schema_prompt = _render_schema(catalog)
    return catalog._schema_prompt


def _render_schema(catalog: SchemaCatalog) -> str:
    statements = []
    for table in catalog.tables:
        parts = [
            f"{_render_identifier(col.name)} {col.data_type.upper()}"
            for col in table.columns
        ]
        if table.primary_key:
            keys = ", ".join(_render_identifier(c) for c in table.primary_key)
            parts.append(f"PRIMARY KEY ({keys})")
        for fk in table.foreign_keys:
            parts.append(
                f"FOREIGN KEY ({_render_identifier(fk.column)}) REFERENCES "
                f"{_render_identifier(fk.foreign_table)} ({_render_identifier(fk.foreign_column)})"
            )
        statements.append(
            f"CREATE TABLE {_render_identifier(table.name)} ({', '.join(parts)});"
        )
    return "\n\n".join(statements)


def load_tables_json(path: str | Path) -> list[SchemaCatalog]:
    """Load Spider-style ``tables.json`` into one catalog per database.

    The ``*`` pseudo-column (table index -1) is dropped; foreign-key column
    index pairs are resolved to (column, table, column) name triples. Key
    indices are resolved against the column list itself, and each table's
    key columns are checked against one set of its lowercased column names.
    """
    path = Path(path)
    catalogs = []
    for index, entry in enumerate(json_entries(path)):
        try:
            catalogs.append(_catalog_from_entry(entry, index))
        except (MalformedDatasetError, SchemaIntegrityError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    return catalogs


def _catalog_from_entry(entry: dict, index: int) -> SchemaCatalog:
    required = (
        "db_id",
        "table_names_original",
        "column_names_original",
        "column_types",
        "primary_keys",
        "foreign_keys",
    )
    for key in required:
        if key not in entry:
            raise MalformedDatasetError(f"entry {index}: missing key {key!r}")

    db_id = entry["db_id"]
    if not isinstance(db_id, str) or not db_id.strip():
        raise MalformedDatasetError(
            f"entry {index}: db_id must be a non-blank string, not {db_id!r:.40}"
        )
    for key in required[1:]:
        checked(entry[key], list, f"entry {index} ({db_id}): {key}")
    table_names = entry["table_names_original"]
    column_names = entry["column_names_original"]
    column_types = entry["column_types"]
    if len(column_types) != len(column_names):
        raise MalformedDatasetError(
            f"entry {index} ({db_id}): column_types length does not match columns"
        )

    for what, names in (("table name", table_names), ("column type", column_types)):
        for position, name in enumerate(names):
            checked(name, str, f"entry {index} ({db_id}): {what} {position}")
    tables: list[TableDef] = [TableDef(name=n, columns=[]) for n in table_names]
    columns_of = [table.columns for table in tables]
    for col_idx, (pair, data_type) in enumerate(zip(column_names, column_types)):
        if not (isinstance(pair, list) and len(pair) == 2
                and type(pair[0]) is int and isinstance(pair[1], str)):
            raise MalformedDatasetError(
                f"entry {index} ({db_id}): column entry {col_idx} is not a"
                " [table index, name] pair"
            )
        table_idx, col_name = pair
        pair[1] = col_name = sys.intern(col_name)  # the keys resolved below share it
        if table_idx == -1:
            continue  # the '*' pseudo-column
        if not 0 <= table_idx < len(tables):
            raise SchemaIntegrityError(
                f"entry {index} ({db_id}): column {col_name!r} names table "
                f"index {table_idx} out of range"
            )
        columns_of[table_idx].append(ColumnDef(col_name, sys.intern(data_type)))

    def resolve(col_idx: object, what: str) -> tuple[int, str]:
        """The [table index, name] pair at a position of the original (global)
        column list, which every pair above has passed; not the ``*``."""
        if type(col_idx) is int and 0 <= col_idx < len(column_names):
            pair = column_names[col_idx]
            if pair[0] != -1:
                return pair
        raise SchemaIntegrityError(
            f"entry {index} ({db_id}): {what} column index {col_idx!r} "
            "does not name a real column"
        )

    for pk in entry["primary_keys"]:
        members = pk if isinstance(pk, list) else [pk]
        for col_idx in members:
            table_idx, col_name = resolve(col_idx, "primary key")
            tables[table_idx].primary_key.append(col_name)

    for fk_pair in entry["foreign_keys"]:
        try:
            local_idx, foreign_idx = fk_pair
        except (TypeError, ValueError):
            raise MalformedDatasetError(
                f"entry {index} ({db_id}): foreign key entry is not a pair"
            ) from None
        local_table, local_col = resolve(local_idx, "foreign key")
        foreign_table, foreign_col = resolve(foreign_idx, "foreign key")
        tables[local_table].foreign_keys.append(
            ForeignKey(
                column=local_col,
                foreign_table=tables[foreign_table].name,
                foreign_column=foreign_col,
            )
        )

    try:
        return SchemaCatalog(db_id=db_id, tables=tables)
    except SchemaIntegrityError as exc:
        raise SchemaIntegrityError(f"entry {index}: {exc}") from exc


def load_database_dir(database_dir: str | Path) -> dict[str, Path]:
    """Map db_id -> SQLite path for a ``<dir>/<db_id>/<db_id>.sqlite`` layout.
    A path that is not a directory is a ``MalformedDatasetError`` naming it."""
    database_dir = Path(database_dir)
    if not database_dir.is_dir():
        raise MalformedDatasetError(f"{database_dir}: not a directory")
    mapping = {}
    for child in sorted(database_dir.iterdir()):
        candidate = child / f"{child.name}.sqlite"
        if candidate.is_file():
            mapping[child.name] = candidate
    return mapping
