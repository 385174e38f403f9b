"""Entity-linking records: question tokenization, parsing of model-emitted
alignment lists, and precision/recall/F1 scoring against gold alignments.

An alignment entry links one question token to a schema entity with a type
of ``tbl`` (table), ``col`` (column), or ``val`` (literal value); unlinked
tokens carry null for both fields. ``tab`` is accepted as an input synonym
for ``tbl`` and normalized on parse.
"""

from __future__ import annotations

import ast
import json
import sys
from dataclasses import dataclass

from .errors import AlignmentParseError, EmptyInputError, ScoringError
from .sql_analysis import SqlEntities

_EDGE_PUNCTUATION = set(",.?!;:\"'")

LINK_TYPES = ("tbl", "col", "val")
_TYPE_SYNONYMS = {"tbl": "tbl", "tab": "tbl", "col": "col", "val": "val"}


@dataclass(slots=True)
class AlignmentEntry:
    token: str
    schema_entity: str | None = None
    entity_type: str | None = None  # tbl | col | val

    def linked(self) -> bool:
        return self.schema_entity is not None


@dataclass
class Alignment:
    entries: list[AlignmentEntry]
    question: str
    repairs: int = 0  # entries whose fields were nulled to restore the both-null rule

    def to_records(self) -> list[dict]:
        return [
            {"token": e.token, "schema": e.schema_entity, "type": e.entity_type}
            for e in self.entries
        ]

    @classmethod
    def from_records(cls, records: list[dict], question: str) -> "Alignment":
        entries, repairs = _entries_from_records(records)
        return cls(entries=entries, question=question, repairs=repairs)


def tokenize_question(question: str) -> list[str]:
    """Whitespace-split a question, peeling leading/trailing punctuation into
    separate tokens; numbers with internal commas (``5,000``) stay whole."""
    if not question or not question.strip():
        raise EmptyInputError("cannot tokenize an empty question")
    tokens: list[str] = []
    for chunk in question.split():
        leading: list[str] = []
        trailing: list[str] = []
        while chunk and chunk[0] in _EDGE_PUNCTUATION:
            leading.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in _EDGE_PUNCTUATION:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(leading)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


def parse_alignment(raw: str, question: str) -> Alignment:
    """Decode the first list-of-dicts literal found in model output.

    Both Python literal syntax (``None``) and JSON (``null``) are accepted.
    Entries violating the both-null rule are repaired by nulling both fields
    and counted in ``repairs``.
    """
    records = _first_list_literal(raw)
    if records is None:
        raise AlignmentParseError("no decodable alignment list in model output", raw=raw)
    entries, repairs = _entries_from_records(records)
    if question.strip() and not _is_subsequence(
        [e.token for e in entries], tokenize_question(question)
    ):
        repairs += 1  # model dropped or invented tokens; keep entries, flag it
    return Alignment(entries=entries, question=question, repairs=repairs)


def _is_subsequence(candidate: list[str], reference: list[str]) -> bool:
    position = 0
    for token in candidate:
        while position < len(reference) and reference[position] != token:
            position += 1
        if position >= len(reference):
            return False
        position += 1
    return True


def _entries_from_records(records: list) -> tuple[list[AlignmentEntry], int]:
    entries: list[AlignmentEntry] = []
    repairs = 0
    for record in records:
        if not isinstance(record, dict):
            repairs += 1
            continue
        token = record.get("token")
        if token is None or str(token) == "":
            repairs += 1
            continue
        schema_entity = record.get("schema")
        entity_type = record.get("type")
        if schema_entity is not None:
            schema_entity = sys.intern(str(schema_entity))
        if entity_type is not None:
            entity_type = _TYPE_SYNONYMS.get(str(entity_type).strip().lower())
        if (schema_entity is None) != (entity_type is None) or (
            entity_type is None and record.get("type") is not None
        ):
            # One-sided link or unrecognized type: unlink and flag.
            schema_entity = None
            entity_type = None
            repairs += 1
        # Interned: a pool's alignments repeat the same tokens and names.
        entries.append(
            AlignmentEntry(
                token=sys.intern(str(token)),
                schema_entity=schema_entity,
                entity_type=entity_type,
            )
        )
    return entries, repairs


def _first_list_literal(raw: str) -> list | None:
    """Scan for the first balanced ``[...]`` span that decodes as a list."""
    i = 0
    n = len(raw)
    while i < n:
        start = raw.find("[", i)
        if start < 0:
            return None
        end = _match_bracket(raw, start)
        if end is None:
            i = start + 1
            continue
        candidate = raw[start : end + 1]
        for decoder in (ast.literal_eval, json.loads):
            try:
                value = decoder(candidate)
            except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
                continue
            if isinstance(value, list):
                return value
        i = start + 1
    return None


def _match_bracket(raw: str, start: int) -> int | None:
    depth = 0
    quote: str | None = None
    i = start
    n = len(raw)
    while i < n:
        ch = raw[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


def linked_entities(alignment: Alignment) -> SqlEntities:
    """Collect the distinct tables/columns (and values, in order) that the
    alignment links."""
    entities = SqlEntities()
    seen_tables: set[str] = set()
    seen_columns: set[str] = set()
    for entry in alignment.entries:
        if not entry.linked():
            continue
        name = entry.schema_entity or ""
        if entry.entity_type == "tbl":
            if name.lower() not in seen_tables:
                seen_tables.add(name.lower())
                entities.tables.add(name)
        elif entry.entity_type == "col":
            if name.lower() not in seen_columns:
                seen_columns.add(name.lower())
                entities.columns.add(name)
        elif entry.entity_type == "val":
            entities.values.append(name)
    return entities


@dataclass
class TypeScore:
    precision: float
    recall: float
    f1: float


@dataclass
class LinkingScore:
    by_type: dict[str, TypeScore]
    macro: TypeScore


def _pairs(alignment: Alignment, kind: str) -> set[tuple[int, str]]:
    return {
        (idx, (entry.schema_entity or "").lower())
        for idx, entry in enumerate(alignment.entries)
        if entry.entity_type == kind
    }


def _precision(pred: set, gold: set) -> float:
    if not pred:
        return 1.0 if not gold else 0.0
    return len(pred & gold) / len(pred)


def score_alignment(predicted: Alignment, gold: Alignment) -> LinkingScore:
    """Per-type precision/recall/F1 on (token index, schema entity) pairs,
    macro-averaged over the three link types.

    A type absent from both sides scores 1.0 so it does not drag the macro
    average down.
    """
    if predicted.question != gold.question:
        raise ScoringError(
            "predicted and gold alignments refer to different questions"
        )
    by_type: dict[str, TypeScore] = {}
    for kind in LINK_TYPES:
        pred = _pairs(predicted, kind)
        ref = _pairs(gold, kind)
        precision = _precision(pred, ref)
        recall = _precision(ref, pred)
        f1 = (
            0.0
            if precision + recall == 0
            else 2 * precision * recall / (precision + recall)
        )
        by_type[kind] = TypeScore(precision=precision, recall=recall, f1=f1)
    macro = TypeScore(
        precision=sum(s.precision for s in by_type.values()) / len(LINK_TYPES),
        recall=sum(s.recall for s in by_type.values()) / len(LINK_TYPES),
        f1=sum(s.f1 for s in by_type.values()) / len(LINK_TYPES),
    )
    return LinkingScore(by_type=by_type, macro=macro)
