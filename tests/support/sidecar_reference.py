"""The gold alignment sidecar read record by record, as it was read before
each distinct record was checked once: every line through ``json.loads``
and every record through every check. The differential tests hold
``datasets.load_alignment_sidecar`` to the entries and refusals this gives."""

from __future__ import annotations

import json
from pathlib import Path

from sqlmend.errors import MalformedDatasetError

_TYPES = {"tbl": "tbl", "tab": "tbl", "col": "col", "val": "val"}


def load_sidecar(path: Path, questions: list[str]) -> list[list[tuple] | None]:
    """Per question, None or the (token, schema, type) of each entry."""
    lines = path.read_bytes().decode("utf-8").split("\n")
    if not lines[-1]:
        lines.pop()
    if len(lines) > len(questions):
        raise MalformedDatasetError(
            f"{path}: {len(lines)} sidecar lines for {len(questions)} examples"
        )
    alignments: list[list[tuple] | None] = []
    for index in range(len(questions)):
        line = lines[index].strip() if index < len(lines) else ""
        if not line:
            alignments.append(None)
            continue
        try:
            records = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedDatasetError(f"{path}: line {index + 1}: {exc}") from exc
        if not isinstance(records, list):
            raise MalformedDatasetError(f"{path}: line {index + 1}: expected a list")
        try:
            alignments.append([_checked(position, record)
                               for position, record in enumerate(records)])
        except MalformedDatasetError as exc:
            raise MalformedDatasetError(f"{path}: line {index + 1}: {exc}") from exc
    return alignments


def _checked(position: int, record: object) -> tuple:
    def fault(text: str) -> MalformedDatasetError:
        return MalformedDatasetError(f"record {position}: {text}")

    if not isinstance(record, dict):
        raise fault(f"not an object: {record!r:.40}")
    token, schema, raw_type = record.get("token"), record.get("schema"), record.get("type")
    if not (isinstance(token, str) and token.strip()):
        raise fault(f"token must be a non-blank string, not {token!r:.40}")
    if not isinstance(schema, str | None):
        raise fault(f"schema must be a string or null, not {schema!r:.40}")
    entity_type = None
    if raw_type is not None:
        entity_type = _TYPES.get(str(raw_type).strip().lower())
        if entity_type is None:
            raise fault(f"unknown type {raw_type!r:.40}")
    if (schema is None) != (entity_type is None):
        raise fault(f"schema {schema!r:.40} and type {raw_type!r:.40}"
                    " must both be set or both be null")
    return (token, schema, entity_type)
