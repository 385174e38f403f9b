"""Dataset records and sidecar loading.

A dataset file is a JSON array of {question, db_id, query} objects (the
Spider dev shape); ``query`` holds the gold SQL and may be absent for
inference-only runs. Gold alignments ride in a JSON-lines sidecar whose
line *i* is the alignment list for example *i* (the same
List-of-{token,schema,type} shape the linking prompt uses); the same sidecar
format is used for the demonstration pool.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .alignment import Alignment
from .errors import MalformedDatasetError


@dataclass
class Example:
    example_id: str
    question: str
    db_id: str
    gold_sql: str | None = None
    gold_alignment: Alignment | None = None
    hardness_label: str | None = None


def load_dataset(path: str | Path) -> list[Example]:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedDatasetError(f"{path}: cannot parse dataset: {exc}") from exc
    if not isinstance(raw, list):
        raise MalformedDatasetError(f"{path}: expected a top-level array")
    examples = []
    first_index: dict[str, int] = {}
    for index, record in enumerate(raw):
        if not isinstance(record, dict):
            raise MalformedDatasetError(f"{path}: entry {index} is not an object")
        question = record.get("question", "")
        db_id = record.get("db_id", "")
        if not question or not db_id:
            raise MalformedDatasetError(
                f"{path}: entry {index} is missing question or db_id"
            )
        example_id = str(record.get("example_id", index))
        first = first_index.setdefault(example_id, index)
        if first != index:
            raise MalformedDatasetError(
                f"{path}: entries {first} and {index} share example_id {example_id!r}"
            )
        examples.append(
            Example(
                example_id=example_id,
                question=question,
                db_id=db_id,
                gold_sql=record.get("query", record.get("sql")) or None,
                hardness_label=record.get("hardness") or None,
            )
        )
    return examples


def load_alignment_sidecar(path: str | Path, questions: list[str]) -> list[Alignment | None]:
    """Attach sidecar line *i* to question *i*; blank lines mean no gold."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) > len(questions):
        raise MalformedDatasetError(
            f"{path}: {len(lines)} sidecar lines for {len(questions)} examples"
        )
    alignments: list[Alignment | None] = []
    for index, question in enumerate(questions):
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
        alignments.append(Alignment.from_records(records, question=question))
    return alignments
