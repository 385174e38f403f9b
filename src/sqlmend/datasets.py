"""Dataset records and sidecar loading.

A dataset file is a JSON array of {question, db_id, query} objects (the
Spider dev shape); ``query`` holds the gold SQL and may be absent for
inference-only runs. Gold alignments ride in a JSON-lines sidecar whose
line *i* is the alignment list for example *i* (the same
List-of-{token,schema,type} shape the linking prompt uses); the same sidecar
format is used for the demonstration pool.

Every JSON input, file, store line or HTTP answer, is decoded by
``decode_json``; files are read as UTF-8 only (``read_utf8``). Model output
is the alignment parser's to decode. ``checked`` and ``checked_items`` check
the type of a decoded value and name the field at fault.

An array file (dataset, pool, ``tables.json``) is decoded one entry at a
time (``json_entries``), and its loader checks each entry before the next is
decoded, so a load holds the file's text and what it keeps, not the whole
decoded array. Its faults are refused in file order: an entry the loader
refuses is named even when a later entry is not JSON, where decoding the
whole file first named the syntax error. JSON-lines files keep their own
reader (``jsonl_lines``).
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .alignment import Alignment
from .errors import MalformedDatasetError


@dataclass(slots=True)
class Example:
    example_id: str
    question: str
    db_id: str
    gold_sql: str | None = None
    gold_alignment: Alignment | None = None
    hardness_label: str | None = None


def entry_text(
    path: Path, index: int, name: str, value: object, required: bool = True
) -> str | None:
    """*value* if it is a string, a non-blank one when *required*; an
    optional field may also be absent (None). Anything else is a
    ``MalformedDatasetError`` naming the file, the entry and the field."""
    if isinstance(value, str) and (value.strip() or not required):
        return value
    if value is None and not required:
        return None
    kind = "a non-blank string" if required else "a string"
    raise MalformedDatasetError(f"{path}: entry {index}: {name} must be {kind}, not {value!r:.40}")


_KIND_NAMES = {str: "a string", list: "a list", dict: "an object"}


def checked(value: object, kind: type, name: str, nullable: bool = False):
    """*value* if it is a *kind* (a ``str``, ``list`` or ``dict``), or None
    when *nullable*. Anything else is a ``MalformedDatasetError`` naming the
    field *name*."""
    if isinstance(value, kind) or value is None and nullable:
        return value
    kinds = _KIND_NAMES[kind] + (" or null" if nullable else "")
    raise MalformedDatasetError(f"{name} must be {kinds}, not {value!r:.40}")


def checked_items(value: object, name: str) -> list[tuple[str, object]]:
    """``(f"{name}[i]", item)`` for each item of *value*, a list or null
    (none)."""
    items = checked(value, list, name, nullable=True) or ()
    return [(f"{name}[{i}]", item) for i, item in enumerate(items)]


def decode_json(data: str | bytes, path: object, line: int | None = None, start: int | None = None,
                *, _raw_decode=json.JSONDecoder().raw_decode) -> object:
    """``json.loads(data)``; with *start*, the value that begins at index
    *start* of the text *data*, and the index just past it, decoded by one
    decoder made once (*_raw_decode*). A text it refuses, nested too deep
    included, is a ``MalformedDatasetError`` naming *path* and *line*,
    formatted only then."""
    try:
        return json.loads(data) if start is None else _raw_decode(data, start)
    except (ValueError, RecursionError) as exc:
        where = path if line is None else f"{path}: line {line}"
        raise MalformedDatasetError(f"{where}: {exc}") from exc


# The whitespace JSON allows around its tokens, and a comma within it.
_space = re.compile(r"[ \t\n\r]*").match
_comma = re.compile(r"[ \t\n\r]*,[ \t\n\r]*").match


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file, untranslated: a ``"\r"`` stays as it is. A
    file that is not UTF-8 is a ``MalformedDatasetError`` naming it."""
    try:
        with path.open(encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise MalformedDatasetError(f"{path}: {exc}") from exc


def json_entries(path: Path) -> Iterator[dict]:
    """The entries of a file holding a JSON array of objects, decoded one at
    a time as the caller takes them. A file that is not UTF-8, not JSON or
    not an array, or has an entry that is not an object, is a
    ``MalformedDatasetError`` naming it, raised when the reading gets there:
    after the entries before it have been taken."""
    text = read_utf8(path)
    at = _space(text).end()
    if text.startswith("[", at):
        at = _space(text, at + 1).end()
        if not text.startswith("]", at):
            for index in itertools.count():
                entry, at = decode_json(text, path, start=at)
                if not isinstance(entry, dict):
                    raise MalformedDatasetError(f"{path}: entry {index} is not an object")
                yield entry
                comma = _comma(text, at)
                if comma is None or text.startswith("]", comma.end()):
                    break  # 3.13 names a trailing comma in words of its own
                at = comma.end()
        at = _space(text, at).end()
        if text.startswith("]", at) and _space(text, at + 1).end() == len(text):
            return
    # Not an array, or a fault between its entries or after it: the decoder
    # names it in the words it used when the file was decoded whole.
    decode_json(text, path)
    raise MalformedDatasetError(f"{path}: expected a top-level array")


def load_dataset(path: str | Path) -> list[Example]:
    path = Path(path)
    examples = []
    first_index: dict[str, int] = {}
    for index, record in enumerate(json_entries(path)):
        question = entry_text(path, index, "question", record.get("question"))
        db_id = entry_text(path, index, "db_id", record.get("db_id"))
        gold_sql = record.get("query", record.get("sql"))
        gold_sql = entry_text(path, index, "query", gold_sql, required=False)
        hardness = entry_text(path, index, "hardness", record.get("hardness"), required=False)
        example_id = record.get("example_id", index)
        if type(example_id) is not int and not isinstance(example_id, str):
            raise MalformedDatasetError(
                f"{path}: entry {index}: example_id must be a string or an integer,"
                f" not {example_id!r:.40}"
            )
        example_id = str(example_id)
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
                gold_sql=gold_sql or None,
                hardness_label=hardness or None,
            )
        )
    return examples


def jsonl_lines(path: Path) -> list[str]:
    """The lines of a JSON-lines file. A line ends at ``"\n"`` only, so that
    U+2028 and the other breaks ``str.splitlines`` knows may stand raw inside
    a JSON string. The text is read untranslated: a ``"\r"`` ends no line,
    and one before ``"\n"`` is whitespace to JSON. A final newline ends the
    last line rather than starting an empty one."""
    lines = read_utf8(path).split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def load_alignment_sidecar(path: str | Path, questions: list[str]) -> list[Alignment | None]:
    """Sidecar line *i* is the gold alignment of question *i*; blank lines
    mean no gold, and *questions* bounds the line count. Lines end at
    ``"\n"`` (see ``jsonl_lines``). Each line is read by
    ``Alignment.from_records``, which states the gold rule, with one table
    of entries for the whole file: equal entries of different lines are one
    ``AlignmentEntry``. A record it refuses is a ``MalformedDatasetError``
    naming the file and line."""
    path = Path(path)
    lines = jsonl_lines(path)
    if len(lines) > len(questions):
        raise MalformedDatasetError(
            f"{path}: {len(lines)} sidecar lines for {len(questions)} examples"
        )
    alignments: list[Alignment | None] = []
    shared: dict = {}
    for index in range(len(questions)):
        line = lines[index].strip() if index < len(lines) else ""
        if not line:
            alignments.append(None)
            continue
        records = decode_json(line, path, index + 1)
        if not isinstance(records, list):
            raise MalformedDatasetError(f"{path}: line {index + 1}: expected a list")
        try:
            alignments.append(Alignment.from_records(records, shared=shared))
        except MalformedDatasetError as exc:
            raise MalformedDatasetError(f"{path}: line {index + 1}: {exc}") from exc
    return alignments
