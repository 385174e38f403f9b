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
import re
import sys
from dataclasses import dataclass

from .errors import AlignmentParseError, EmptyInputError, MalformedDatasetError
from .sql_analysis import SqlEntities

_QUESTION_TOKENS = re.compile(r"""[,.?!;:"']|[^\s,.?!;:"'](?:\S*[^\s,.?!;:"'])?""").findall

LINK_TYPES = ("tbl", "col", "val")
_TYPE_SYNONYMS = {"tbl": "tbl", "tab": "tbl", "col": "col", "val": "val"}


@dataclass(slots=True, frozen=True)
class AlignmentEntry:
    token: str
    schema_entity: str | None = None
    entity_type: str | None = None  # tbl | col | val

    def linked(self) -> bool:
        return self.schema_entity is not None


@dataclass(slots=True)
class Alignment:
    entries: list[AlignmentEntry]
    repairs: int = 0  # entries whose fields were nulled to restore the both-null rule

    def to_records(self) -> list[dict]:
        return [
            {"token": e.token, "schema": e.schema_entity, "type": e.entity_type}
            for e in self.entries
        ]

    def records_literal(self) -> str:
        """``repr(self.to_records())``, written from the entries with no
        record dicts: the alignment as the linking prompt shows it."""
        return "[" + ", ".join([
            f"{{'token': {e.token!r}, 'schema': {e.schema_entity!r}, 'type': {e.entity_type!r}}}"
            for e in self.entries
        ]) + "]"

    @classmethod
    def from_records(cls, records: list[dict], shared: dict | None = None) -> "Alignment":
        """The alignment gold *records* describe, repairing nothing: a record
        ``parse_alignment`` would repair is a ``MalformedDatasetError`` (see
        ``_entries_from_records``). Entries equal to one already in *shared*,
        a table the caller keeps across calls, are that entry."""
        entries, _ = _entries_from_records(records, {} if shared is None else shared, strict=True)
        return cls(entries=entries)


def tokenize_question(question: str) -> list[str]:
    """Whitespace-split a question, peeling leading/trailing punctuation into
    separate tokens; numbers with internal commas (``5,000``) stay whole.

    One regular expression does it: an edge punctuation mark alone, or a
    run of non-whitespace that neither starts nor ends with one. Its ``\\s``
    is the whitespace ``str.split`` splits on."""
    tokens = _QUESTION_TOKENS(question)
    if not tokens:
        raise EmptyInputError("cannot tokenize an empty question")
    return tokens


def parse_alignment(raw: str, question: str, shared: dict | None = None) -> Alignment:
    """Decode the first list-of-dicts literal found in model output.

    Both Python literal syntax (``None``) and JSON (``null``) are accepted:
    the list is what ``ast.literal_eval``, or else ``json.loads``, makes of
    the first balanced ``[...]`` span that decodes as a list. When the first
    ``[`` opens a list of flat dicts of strings, constants and small ints,
    as models write it, that list is read in one pass; anything else goes
    through the two decoders. Entries violating the both-null rule are
    repaired by nulling both fields and counted in ``repairs``; so is an
    answer whose tokens are not a subsequence of *question*'s.

    *shared* is a table of entries the caller keeps across calls, as
    ``Alignment.from_records`` takes it: an entry equal to one already in it
    is that entry, so answers that repeat links hold each entry once.
    """
    records = _first_list_literal(raw)
    if records is None:
        raise AlignmentParseError("no decodable alignment list in model output", raw=raw)
    entries, repairs = _entries_from_records(records, {} if shared is None else shared)
    reference = _QUESTION_TOKENS(question)
    if reference and not _is_subsequence([e.token for e in entries], reference):
        repairs += 1  # model dropped or invented tokens; keep entries, flag it
    return Alignment(entries=entries, repairs=repairs)


def _is_subsequence(candidate: list[str], reference: list[str]) -> bool:
    position = 0
    for token in candidate:
        while position < len(reference) and reference[position] != token:
            position += 1
        if position >= len(reference):
            return False
        position += 1
    return True


def _entries_from_records(
    records: list, shared: dict[tuple, AlignmentEntry], strict: bool = False
) -> tuple[list[AlignmentEntry], int]:
    """The entries of *records* and the number of repairs made to them.
    With *strict*, as for gold data, a record that would be repaired, or
    whose token or schema is not a string, raises ``MalformedDatasetError``
    naming its position instead.

    *shared* holds only entries that this function made, keyed by their
    (token, schema, type). Each such key passes every strict check but the
    one for a blank token, which only a lenient call lets through: its token
    is a string, its schema a string or null, and its type a known one, set
    or null together with the schema. So a strict call takes a record whose
    raw (token, schema, type) is such a key, with a non-blank token, as that
    entry with no further check; a gold pool repeats few distinct records."""
    entries: list[AlignmentEntry] = []
    repairs = 0

    def repair(position: int, fault: str) -> int:
        if strict:
            raise MalformedDatasetError(f"record {position}: {fault}")
        return 1

    for position, record in enumerate(records):
        if not isinstance(record, dict):
            repairs += repair(position, f"not an object: {record!r:.40}")
            continue
        token = record.get("token")
        schema_entity, raw_type = record.get("schema"), record.get("type")
        if strict:
            try:
                entry = shared.get((token, schema_entity, raw_type))
            except TypeError:  # an unhashable value, which the checks refuse
                entry = None
            if entry is not None and entry.token.strip():
                entries.append(entry)
                continue
        if token is None or str(token) == "" or strict and not (
            isinstance(token, str) and token.strip()
        ):
            repairs += repair(position, f"token must be a non-blank string, not {token!r:.40}")
            continue
        if strict and not isinstance(schema_entity, str | None):
            raise MalformedDatasetError(
                f"record {position}: schema must be a string or null, not {schema_entity!r:.40}"
            )
        if schema_entity is not None:
            schema_entity = sys.intern(str(schema_entity))
        entity_type = fault = None
        if raw_type is not None:
            entity_type = _TYPE_SYNONYMS.get(str(raw_type).strip().lower())
            if entity_type is None:
                fault = f"unknown type {raw_type!r:.40}"
        if fault is None and (schema_entity is None) != (entity_type is None):
            fault = (f"schema {schema_entity!r:.40} and type {raw_type!r:.40}"
                     " must both be set or both be null")
        if fault:
            # One-sided link or unrecognized type: unlink and flag.
            repairs += repair(position, fault)
            schema_entity = entity_type = None
        # Interned and shared: a pool's alignments, and a run's answers,
        # repeat the same tokens, names and entries. ``setdefault`` is one
        # step, so threads that share the table agree on each entry.
        key = (sys.intern(str(token)), schema_entity, entity_type)
        entry = shared.get(key)
        if entry is None:
            entry = shared.setdefault(key, AlignmentEntry(*key))
        entries.append(entry)
    return entries, repairs


# The shape of list that models answer the linking prompt with, decoded in
# one pass: flat dicts with string keys, whose values are strings, the three
# constants in Python or JSON spelling, or ints. Strings may hold no
# backslash, control character or surrogate, ints no leading zero and at most
# 18 digits, and whitespace is ASCII only; so whichever of
# ``ast.literal_eval`` and ``json.loads`` takes such a list gives what this
# decoder gives.
_WS = r"[ \t\n\r]*"
_STRING = r"""(?:'[^'\\\x00-\x1f\ud800-\udfff]*'|"[^"\\\x00-\x1f\ud800-\udfff]*")"""
_VALUE = rf"(?:{_STRING}|None|True|False|null|true|false|-?(?:0|[1-9][0-9]{{0,17}}))"
_PAIR = rf"{_STRING}{_WS}:{_WS}{_VALUE}"
# Each item is followed by a comma and the next item, or by the closing
# bracket: so no trailing comma, with each item written once in the pattern.
_DICT = rf"\{{{_WS}(?:{_PAIR}{_WS}(?:,{_WS}(?=['\"])|(?=\}})))*\}}"
_RECORDS = re.compile(rf"\[{_WS}(?:{_DICT}{_WS}(?:,{_WS}(?=\{{)|(?=\])))*\]")
_RECORD_PARTS = re.compile(rf"(\{{)|({_STRING}){_WS}:{_WS}({_VALUE})")
# Constant -> (value, spelling): Python's names fail json.loads, JSON's fail
# ast.literal_eval.
_CONSTANTS = {
    "None": (None, "python"), "True": (True, "python"), "False": (False, "python"),
    "null": (None, "json"), "true": (True, "json"), "false": (False, "json"),
}


def _decode_records(raw: str, start: int) -> list[dict] | None:
    """The list of dicts at ``raw[start]``, a ``[``, when it has the shape
    above and one of the two decoders would take it; None otherwise."""
    match = _RECORDS.match(raw, start)
    if match is None:
        return None
    records: list[dict] = []
    spellings = set()
    for brace, key, value in _RECORD_PARTS.findall(raw, start, match.end()):
        if brace:
            record: dict = {}
            records.append(record)
            continue
        if key[0] == "'":
            spellings.add("python")
        if value[0] == "'":
            spellings.add("python")
            record[key[1:-1]] = value[1:-1]
        elif value[0] == '"':
            record[key[1:-1]] = value[1:-1]
        elif value in _CONSTANTS:
            constant, spelling = _CONSTANTS[value]
            spellings.add(spelling)
            record[key[1:-1]] = constant
        else:
            record[key[1:-1]] = int(value)
    # Both spellings at once: ast.literal_eval fails on ``null``, json.loads on
    # ``None`` or on single quotes.
    return None if len(spellings) == 2 else records


# The fallback scan's work budget, in characters looked at while seeking a
# closing bracket plus characters handed to a decoder, plus
# ``_DECODER_CALL_CHARS`` for each decoder call: a call costs about 10 us
# however short its text, as much as a hundred characters of scanning.
# From each ``[`` it scans and decodes at most the rest of the answer, so an
# answer of n characters costs at most 3 * n * (n + 1) / 2 + 2 * n * 99,
# which is 99,900 for n = 200: every answer that short decodes as with no
# budget. A long one of unmatched brackets, open quotes or many short
# lists, whose cost grows with the square of its length or with its number
# of brackets, gives up instead.
_FALLBACK_BUDGET = 100_000
_DECODER_CALL_CHARS = 99
_DECODERS = (ast.literal_eval, json.loads)


def _first_list_literal(raw: str) -> list | None:
    """The first balanced ``[...]`` span that ``ast.literal_eval``, or else
    ``json.loads``, decodes as a list. The span at the first ``[`` is read
    in one pass when it has the shape models answer with; anything else is
    left to the two decoders, span after span, until ``_FALLBACK_BUDGET``
    runs out."""
    i = raw.find("[")
    if i < 0:
        return None
    records = _decode_records(raw, i)
    if records is not None:
        return records
    budget = _FALLBACK_BUDGET
    while (start := raw.find("[", i)) >= 0:
        end = _match_bracket(raw, start, budget)
        if end is None:
            budget -= len(raw) - start
        else:
            candidate = raw[start : end + 1]
            budget -= len(candidate)
            for decoder in _DECODERS:
                if budget < len(candidate) + _DECODER_CALL_CHARS:
                    return None
                budget -= len(candidate) + _DECODER_CALL_CHARS
                try:
                    value = decoder(candidate)
                except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
                    continue
                if isinstance(value, list):
                    return value
        if budget <= 0:
            return None
        i = start + 1
    return None


def _match_bracket(raw: str, start: int, limit: int) -> int | None:
    """The index of the ``]`` that closes the ``[`` at *start*, looking at
    fewer than *limit* characters; None when there is none among them."""
    depth = 0
    quote: str | None = None
    i = start
    n = min(len(raw), start + limit)
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


@dataclass(slots=True)
class TypeScore:
    precision: float
    recall: float
    f1: float


@dataclass(slots=True)
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
    # Added left to right: from Python 3.12, sum() compensates rounding.
    first, second, third = (by_type[kind] for kind in LINK_TYPES)
    macro = TypeScore(
        precision=(first.precision + second.precision + third.precision) / len(LINK_TYPES),
        recall=(first.recall + second.recall + third.recall) / len(LINK_TYPES),
        f1=(first.f1 + second.f1 + third.f1) / len(LINK_TYPES),
    )
    return LinkingScore(by_type=by_type, macro=macro)
