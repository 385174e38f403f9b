"""Deterministic comparison of the current SQL against the linked entities
and the parsed skeleton, yielding the feedback that drives correction.

This module never calls a model. Entities present in the SQL but absent from
the question are never reported: bridge tables and helper columns are not
mistakes. Linked values participate only through skeleton slots, not through
missing-entity feedback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractViolationError, TokenizationError
from .schema import SchemaCatalog
from .sql_analysis import SqlEntities, extract_entities, extract_skeleton

MISSING_ENTITIES = "missing_entities"
SKELETON_MISMATCH = "skeleton_mismatch"
EXECUTION_ERROR = "execution_error"


@dataclass
class Feedback:
    kind: str
    missing_tables: set[str] = field(default_factory=set)
    missing_columns: set[str] = field(default_factory=set)
    expected_skeleton: str | None = None
    error_message: str | None = None

    def __post_init__(self):
        if self.kind == MISSING_ENTITIES:
            ok = (self.missing_tables or self.missing_columns) and (
                self.expected_skeleton is None and self.error_message is None
            )
        elif self.kind == SKELETON_MISMATCH:
            ok = (
                self.expected_skeleton is not None
                and not self.missing_tables
                and not self.missing_columns
                and self.error_message is None
            )
        elif self.kind == EXECUTION_ERROR:
            ok = (
                self.error_message is not None
                and not self.missing_tables
                and not self.missing_columns
                and self.expected_skeleton is None
            )
        else:
            ok = False
        if not ok:
            raise ContractViolationError(f"inconsistent feedback fields for kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "missing_tables": sorted(self.missing_tables, key=str.lower),
            "missing_columns": sorted(self.missing_columns, key=str.lower),
            "expected_skeleton": self.expected_skeleton,
            "error_message": self.error_message,
        }


def compare_entities(
    linked: SqlEntities, sql: str, catalog: SchemaCatalog
) -> Feedback | None:
    """Report linked tables/columns that the SQL does not use; none when the
    linked entities are a subset of the used ones."""
    try:
        used = extract_entities(sql, catalog)
    except TokenizationError:
        used = SqlEntities()
    used_tables = {name.lower() for name in used.tables}
    used_columns = {name.lower() for name in used.columns}
    missing_tables = {t for t in linked.tables if t.lower() not in used_tables}
    missing_columns = {c for c in linked.columns if c.lower() not in used_columns}
    if not missing_tables and not missing_columns:
        return None
    return Feedback(
        kind=MISSING_ENTITIES,
        missing_tables=missing_tables,
        missing_columns=missing_columns,
    )


def compare_skeletons(current_sql: str, parsed: str) -> Feedback | None:
    """Mismatch feedback carrying the full parsed skeleton; an untokenizable
    current SQL counts as a mismatch."""
    try:
        if extract_skeleton(current_sql) == parsed:
            return None
    except TokenizationError:
        pass
    return Feedback(kind=SKELETON_MISMATCH, expected_skeleton=parsed)

