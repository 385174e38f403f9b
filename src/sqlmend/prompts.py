"""Prompt construction for every pipeline stage, plus extraction of SQL from
model output.

Each builder instantiates a fixed template byte-for-byte; the instruction
lines are load-bearing (tests pin them) and must not be reworded.
``build_prompt`` builds the three sub-task prompts (generation, linking and
skeleton hallucination), which carry few-shot demonstration blocks joined by
``---`` separators; the skeleton-hallucination prompt deliberately contains
no schema text. ``correction_prompt`` turns one comparison feedback into its
zero-shot correction prompt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .comparison import EXECUTION_ERROR, SKELETON_MISMATCH, Feedback, name_order
from .errors import PromptConstructionError, SqlExtractionError
from .schema import SchemaCatalog, render_schema_prompt


class PromptKind(Enum):
    SQL_GENERATION = "sql_generation"
    ENTITY_LINKING = "entity_linking"
    SKELETON_PARSING = "skeleton_parsing"


@dataclass
class PromptDemo:
    """One few-shot demonstration, already rendered to prompt-ready text."""

    question: str
    sql: str
    schema_text: str = ""
    alignment_text: str = ""


_SEPARATOR = "\n\n---\n\n"

_GENERATION_HEADER = (
    "Generate a SQL to answer the question with the given schema.\n"
    "Quote your answer with:\n"
    "```sql\n"
    "<answer sql>\n"
    "```"
)

_LINKING_HEADER = (
    "Align the tokens in the given question to the table entities or the "
    "column entities of the schema above, considering the given SQL.\n"
    "Present the aligned tokens in the python format List[Dict[str, str]], "
    "where each Dict[str, str] denoting each token in the question containing "
    "the following keys:\n"
    "{\n"
    '    "token": the token in the question\n'
    '    "schema": the schema entity aligned to the token\n'
    '    "type": the type of the entity aligned to the token\n'
    "}\n"
    'The "type" can be one of the following:\n'
    '* "tbl": the table name\n'
    '* "col": the column name\n'
    '* "val": the value\n'
    '"schema" and "type" are either both null or not null at the same time.\n'
    "\n"
    "Here are some examples."
)

_HALLUCINATION_HEADER = (
    "Hallucinate a SQL to answer the question.\n"
    "Quote your answer with:\n"
    "```sql\n"
    "<answer sql>\n"
    "```"
)

_CORRECTION_ENTITY_TEMPLATE = (
    "```sql\n{schema}\n```\n"
    "\n"
    'Fix the sql "{sql}" to answer the question "{question}" based on the '
    "above database and the alignment.\n"
    "Present your sql in the format:\n"
    "```sql\n"
    "<your sql>\n"
    "```\n"
    "It should be noticed that {notification}. Your sql must contain the "
    "tables and columns mentioned by the question."
)

_CORRECTION_SKELETON_TEMPLATE = (
    "```sql\n{schema}\n```\n"
    "\n"
    'Fix the sql "{sql}" to answer the question "{question}" with the above '
    "schema.\n"
    "Present your sql in the format:\n"
    "```sql\n"
    "<your sql>\n"
    "```\n"
    'It should be noticed that the SQL skeleton could be like "{skeleton}", '
    "where each '_' can only be replaced with one single table, column or value."
)

EXECUTION_NOTIFICATION_PREFIX = "executing the sql raises the error: "


def build_prompt(
    kind: PromptKind,
    catalog: SchemaCatalog | None = None,
    question: str = "",
    demonstrations: list[PromptDemo] | None = None,
    *,
    sql: str | None = None,
) -> str:
    """Instantiate the template for *kind*; pure and deterministic."""
    demos = list(demonstrations or [])
    if not question:
        raise PromptConstructionError(f"{kind.value} prompt requires a question")
    if kind is PromptKind.SQL_GENERATION:
        return _build_generation(_require_catalog(kind, catalog), question, demos)
    if kind is PromptKind.ENTITY_LINKING:
        if sql is None:
            raise PromptConstructionError("entity_linking prompt requires the initial sql")
        return _build_linking(_require_catalog(kind, catalog), question, sql, demos)
    if kind is PromptKind.SKELETON_PARSING:
        return _build_hallucination(question, demos)
    raise PromptConstructionError(f"unknown prompt kind {kind!r}")


def _require_catalog(kind: PromptKind, catalog: SchemaCatalog | None) -> SchemaCatalog:
    if catalog is None:
        raise PromptConstructionError(f"{kind.value} prompt requires a schema catalog")
    return catalog


def _join_sections(header: str, demo_blocks: list[str], closing: str) -> str:
    sections = [header]
    if demo_blocks:
        body = _SEPARATOR.join(demo_blocks)
        sections.append(f"For example:\n\n{body}")
    sections.append(closing)
    return _SEPARATOR.join(sections)


def _build_generation(
    catalog: SchemaCatalog, question: str, demos: list[PromptDemo]
) -> str:
    blocks = [
        f"```sql\n{d.schema_text}\n```\n\nQuestion: {d.question}\n```sql\n{d.sql}\n```"
        for d in demos
    ]
    closing = (
        "Based on the instruction and the examples, answer the following question:\n"
        "\n"
        f"```sql\n{render_schema_prompt(catalog)}\n```\n"
        "\n"
        f"Question: {question}"
    )
    return _join_sections(_GENERATION_HEADER, blocks, closing)


def _build_linking(
    catalog: SchemaCatalog, question: str, sql: str, demos: list[PromptDemo]
) -> str:
    blocks = [
        f"{d.schema_text}\n\nSQL: {d.sql}\nQuestion: {d.question}\n"
        f"Alignments: {d.alignment_text}"
        for d in demos
    ]
    closing = (
        "Based on the instruction and the examples above, solve the following "
        "question:\n"
        "\n"
        f"{render_schema_prompt(catalog)}\n"
        "\n"
        f"SQL: {sql}\n"
        f"Question: {question}\n"
        "Alignments:"
    )
    sections = [_LINKING_HEADER]
    if blocks:
        sections.append(_SEPARATOR.join(blocks))
    sections.append(closing)
    return _SEPARATOR.join(sections)


def _build_hallucination(question: str, demos: list[PromptDemo]) -> str:
    blocks = [f"Question: {d.question}\n```sql\n{d.sql}\n```" for d in demos]
    closing = (
        "Based on the instruction and the examples, answer the following question:\n"
        "\n"
        f"Question: {question}"
    )
    return _join_sections(_HALLUCINATION_HEADER, blocks, closing)


def correction_prompt(
    catalog: SchemaCatalog, question: str, sql: str, feedback: Feedback
) -> str:
    """The zero-shot prompt asking the model to fix *sql* given *feedback*:
    the skeleton template for a skeleton mismatch, else the entity template
    with a notification naming the missing tables and columns or quoting the
    engine error."""
    schema = render_schema_prompt(catalog)
    if feedback.kind == SKELETON_MISMATCH:
        return _CORRECTION_SKELETON_TEMPLATE.format(
            schema=schema, sql=sql, question=question, skeleton=feedback.expected_skeleton
        )
    if feedback.kind == EXECUTION_ERROR:
        notification = EXECUTION_NOTIFICATION_PREFIX + feedback.error_message
    else:
        names = sorted(feedback.missing_tables, key=name_order) + sorted(
            feedback.missing_columns, key=name_order
        )
        notification = ", ".join(names) + " are mentioned by the question"
    return _CORRECTION_ENTITY_TEMPLATE.format(
        schema=schema, sql=sql, question=question, notification=notification
    )


_SQL_FENCE = re.compile(r"```sql\s*(.*?)```", re.IGNORECASE | re.DOTALL)
_SQL_START = re.compile(r"\b(select|with)\b", re.IGNORECASE)


def extract_sql_block(raw: str) -> str:
    """Pull the SQL out of model output: the first ```sql fenced block, or
    the first statement starting with SELECT/WITH; newlines collapse to
    spaces and a trailing semicolon is dropped."""
    if not raw or not raw.strip():
        raise SqlExtractionError("model output is empty", raw=raw)
    fence = _SQL_FENCE.search(raw)
    if fence:
        candidate = _normalize_sql(fence.group(1))
        if candidate:
            return candidate
    start = _SQL_START.search(raw)
    if start:
        tail = raw[start.start() :]
        fence_pos = tail.find("```")
        if fence_pos >= 0:
            tail = tail[:fence_pos]
        candidate = _normalize_sql(tail)
        if candidate:
            return candidate
    raise SqlExtractionError("no SQL statement found in model output", raw=raw)


def _normalize_sql(text: str) -> str:
    collapsed = re.sub(r"\s*\n\s*", " ", text.strip())
    return collapsed.rstrip("; \t")
