"""Deterministic comparison of the current SQL against the linked entities
and the parsed skeleton, yielding the feedback that drives correction.

This module never calls a model. Entities present in the SQL but absent from
the question are never reported: bridge tables and helper columns are not
mistakes. Linked values participate only through skeleton slots, not through
missing-entity feedback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .datasets import checked, checked_items
from .errors import ContractViolationError, MalformedDatasetError
from .schema import SchemaCatalog
from .sql_analysis import SqlAnalysis, SqlEntities, entities_of

MISSING_ENTITIES = "missing_entities"
SKELETON_MISMATCH = "skeleton_mismatch"
EXECUTION_ERROR = "execution_error"


def name_order(name: str) -> tuple[str, str]:
    """The sort key of an entity name in feedback: case-insensitive, and
    names that differ only in case in one order under every hash seed."""
    return name.lower(), name


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
            "missing_tables": sorted(self.missing_tables, key=name_order),
            "missing_columns": sorted(self.missing_columns, key=name_order),
            "expected_skeleton": self.expected_skeleton,
            "error_message": self.error_message,
        }

    @classmethod
    def from_dict(cls, record: object, name: str = "feedback") -> "Feedback":
        """The feedback ``to_dict`` wrote as *record*, the field *name*. An
        absent or null field takes its default; a value of the wrong type, or
        fields that contradict the kind, is a ``MalformedDatasetError``
        naming the field."""
        get = checked(record, dict, name).get

        def text(key: str, nullable: bool = False) -> str | None:
            return checked(get(key), str, f"{name}.{key}", nullable)

        def names(key: str) -> set[str]:
            return {checked(item, str, at) for at, item in checked_items(get(key), f"{name}.{key}")}

        try:
            return cls(
                kind=text("kind"),
                missing_tables=names("missing_tables"),
                missing_columns=names("missing_columns"),
                expected_skeleton=text("expected_skeleton", nullable=True),
                error_message=text("error_message", nullable=True),
            )
        except ContractViolationError as exc:
            raise MalformedDatasetError(f"{name}: {exc}") from exc


def compare_entities(
    linked: SqlEntities, analysis: SqlAnalysis, catalog: SchemaCatalog
) -> Feedback | None:
    """Report linked tables/columns that the analysed SQL does not use; none
    when the linked entities are a subset of the used ones. SQL that does
    not tokenize uses none."""
    used = entities_of(analysis, catalog)
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


def compare_skeletons(analysis: SqlAnalysis, parsed: str) -> Feedback | None:
    """Mismatch feedback carrying the full parsed skeleton; SQL that does
    not tokenize counts as a mismatch."""
    if analysis.tokenizes and analysis.skeleton == parsed:
        return None
    return Feedback(kind=SKELETON_MISMATCH, expected_skeleton=parsed)
