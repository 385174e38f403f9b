"""A model's alignment answer read record by record, as the repairing rule
states it: a record that is not an object, or whose token is null or empty,
is dropped; one whose type is unknown, or that has only one of schema and
type, is unlinked; each of these counts one repair, and so does an answer
whose tokens are not in the question's order. The differential test holds
``alignment.parse_alignment``'s entries and repair count to what this gives."""

from __future__ import annotations

_TYPES = {"tbl": "tbl", "tab": "tbl", "col": "col", "val": "val"}


def read_answer(records: list, question_tokens: list[str]) -> tuple[list[tuple], int]:
    """The (token, schema, type) of each entry, and the number of repairs."""
    entries: list[tuple] = []
    repairs = 0
    for record in records:
        if not isinstance(record, dict):
            repairs += 1
            continue
        token = record.get("token")
        if token is None or str(token) == "":
            repairs += 1
            continue
        schema, raw_type = record.get("schema"), record.get("type")
        if schema is not None:
            schema = str(schema)
        kind = None if raw_type is None else _TYPES.get(str(raw_type).strip().lower())
        unknown = raw_type is not None and kind is None
        if unknown or (schema is None) != (kind is None):
            repairs += 1
            schema = kind = None
        entries.append((str(token), schema, kind))
    remaining = iter(question_tokens)
    if question_tokens and not all(token in remaining for token, _, _ in entries):
        repairs += 1
    return entries, repairs
