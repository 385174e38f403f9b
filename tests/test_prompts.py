from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.backends import ModelBackend, ModelResponse, prompt_sha256
from sqlmend.comparison import Feedback
from sqlmend.datasets import Example
from sqlmend.errors import PromptConstructionError, SqlExtractionError
from sqlmend.pipeline import CorrectionTrace, MendPipeline, PipelineConfig
from sqlmend.prompts import (
    PromptDemo,
    PromptKind,
    build_prompt,
    correction_prompt,
    extract_sql_block,
)
from sqlmend.schema import render_schema_prompt
from sqlmend.sql_analysis import extract_skeleton

DEMOS = [
    PromptDemo(
        question="Show the name of all singers",
        sql="SELECT name FROM singer",
        schema_text="CREATE TABLE singer (name TEXT);",
        alignment_text="[{'token': 'name', 'schema': 'name', 'type': 'col'}]",
    ),
    PromptDemo(
        question="How many concerts are there in total?",
        sql="SELECT count(*) FROM concert",
        schema_text="CREATE TABLE concert (venue TEXT);",
        alignment_text="[]",
    ),
]


class TestInstructionLines:
    """Each built prompt must carry its template's verbatim instruction."""

    def test_sql_generation(self, catalog):
        prompt = build_prompt(PromptKind.SQL_GENERATION, catalog, "How many?", DEMOS)
        assert "Generate a SQL to answer the question with the given schema." in prompt
        assert "Quote your answer with:" in prompt
        assert "```sql\n<answer sql>\n```" in prompt

    def test_entity_linking(self, catalog):
        prompt = build_prompt(
            PromptKind.ENTITY_LINKING, catalog, "How many ?", DEMOS, sql="SELECT 1"
        )
        assert "Align the tokens in the given question" in prompt
        assert "List[Dict[str, str]]" in prompt
        assert '"schema" and "type" are either both null or not null at the same time.' in prompt

    def test_skeleton_parsing(self, catalog):
        prompt = build_prompt(PromptKind.SKELETON_PARSING, None, "How many?", DEMOS)
        assert "Hallucinate a SQL to answer the question." in prompt

    def test_correction_entity(self, catalog):
        feedback = Feedback(kind="missing_entities", missing_columns={"name", "age"})
        prompt = correction_prompt(catalog, "How many?", "SELECT 1", feedback)
        assert "age, name are mentioned by the question" in prompt
        assert "Your sql must contain the tables and columns mentioned by the question." in prompt

    def test_correction_skeleton(self, catalog):
        feedback = Feedback(
            kind="skeleton_mismatch", expected_skeleton="SELECT _ FROM _ WHERE _ > _"
        )
        prompt = correction_prompt(catalog, "How many?", "SELECT 1", feedback)
        assert 'the SQL skeleton could be like "SELECT _ FROM _ WHERE _ > _"' in prompt
        assert "each '_' can only be replaced with one single table, column or value" in prompt

    def test_correction_execution(self, catalog):
        feedback = Feedback(kind="execution_error", error_message="no such table: x")
        prompt = correction_prompt(catalog, "How many?", "SELECT 1", feedback)
        assert "executing the sql raises the error: no such table: x" in prompt


class TestPromptStructure:
    def test_zero_shots_have_no_demo_blocks(self, catalog):
        prompt = build_prompt(PromptKind.SQL_GENERATION, catalog, "Q?", [])
        assert "For example:" not in prompt
        assert prompt.count("Question:") == 1

    def test_demos_joined_by_separators(self, catalog):
        prompt = build_prompt(PromptKind.SQL_GENERATION, catalog, "Q?", DEMOS)
        # header | For example: demo1 --- demo2 | closing
        assert prompt.count("\n\n---\n\n") == 3
        assert prompt.index(DEMOS[0].question) < prompt.index(DEMOS[1].question)

    def test_skeleton_prompt_is_schema_free(self, catalog):
        prompt = build_prompt(PromptKind.SKELETON_PARSING, catalog, "Q?", DEMOS)
        assert "CREATE TABLE" not in prompt

    def test_generation_embeds_rendered_schema(self, catalog):
        prompt = build_prompt(PromptKind.SQL_GENERATION, catalog, "Q?", [])
        assert render_schema_prompt(catalog) in prompt

    def test_linking_ends_ready_for_completion(self, catalog):
        prompt = build_prompt(
            PromptKind.ENTITY_LINKING, catalog, "tokens here", [], sql="SELECT 1"
        )
        assert prompt.endswith("Alignments:")
        assert "SQL: SELECT 1" in prompt

    def test_correction_quotes_sql_and_question(self, catalog):
        feedback = Feedback(kind="skeleton_mismatch", expected_skeleton="SELECT _")
        prompt = correction_prompt(catalog, "How many heads?", "SELECT 1", feedback)
        assert 'Fix the sql "SELECT 1" to answer the question "How many heads?"' in prompt

    def test_determinism(self, catalog):
        first = build_prompt(PromptKind.SQL_GENERATION, catalog, "Q?", DEMOS)
        second = build_prompt(PromptKind.SQL_GENERATION, catalog, "Q?", DEMOS)
        assert first == second


class TestEntityNotification:
    """The missing-entity notification: tables before columns, each sorted
    without regard to case."""

    @staticmethod
    def _notification(catalog, tables=(), columns=()):
        feedback = Feedback(
            kind="missing_entities", missing_tables=set(tables), missing_columns=set(columns)
        )
        prompt = correction_prompt(catalog, "Q?", "SELECT 1", feedback)
        return prompt.split("It should be noticed that ", 1)[1].split(". Your sql", 1)[0]

    def test_single_column(self, catalog):
        assert (
            self._notification(catalog, columns=["earnings"])
            == "earnings are mentioned by the question"
        )

    def test_tables_before_columns_each_sorted(self, catalog):
        assert (
            self._notification(catalog, tables=["singer"], columns=["name", "age"])
            == "singer, age, name are mentioned by the question"
        )

    def test_deterministic(self, catalog):
        columns = ["b", "a", "c"]
        assert self._notification(catalog, columns=columns) == self._notification(
            catalog, columns=columns
        )


class TestPromptContracts:
    def test_missing_question(self, catalog):
        with pytest.raises(PromptConstructionError):
            build_prompt(PromptKind.SQL_GENERATION, catalog, "", [])

    def test_generation_requires_catalog(self):
        with pytest.raises(PromptConstructionError):
            build_prompt(PromptKind.SQL_GENERATION, None, "Q?", [])

    def test_linking_requires_sql(self, catalog):
        with pytest.raises(PromptConstructionError):
            build_prompt(PromptKind.ENTITY_LINKING, catalog, "Q?", [])

    def test_unknown_kind(self, catalog):
        with pytest.raises(PromptConstructionError, match="^unknown prompt kind 'summary'$"):
            build_prompt("summary", catalog, "Q?", [])


class TestExtractSqlBlock:
    def test_fenced_block(self):
        assert extract_sql_block("```sql\nSELECT 1\n```") == "SELECT 1"

    def test_fallback_statement(self):
        assert (
            extract_sql_block("Here you go: SELECT name FROM singer;")
            == "SELECT name FROM singer"
        )

    @pytest.mark.parametrize("raw", ["", " \n "])
    def test_empty_output_raises(self, raw):
        with pytest.raises(SqlExtractionError, match="^model output is empty$"):
            extract_sql_block(raw)

    def test_refusal_raises(self):
        with pytest.raises(SqlExtractionError):
            extract_sql_block("I cannot answer")

    def test_multiline_collapsed(self):
        raw = "```sql\nSELECT name\nFROM singer\nWHERE age > 2\n```"
        assert extract_sql_block(raw) == "SELECT name FROM singer WHERE age > 2"

    def test_first_fence_wins(self):
        raw = "```sql\nSELECT 1\n```\nor maybe\n```sql\nSELECT 2\n```"
        assert extract_sql_block(raw) == "SELECT 1"

    def test_with_statement_fallback(self):
        raw = "Try: WITH t AS (SELECT 1) SELECT * FROM t"
        assert extract_sql_block(raw) == "WITH t AS (SELECT 1) SELECT * FROM t"

    def test_statement_in_a_plain_fence_ends_at_the_fence(self):
        raw = "```\nSELECT name\nFROM singer\n```\nThat is all."
        assert extract_sql_block(raw) == "SELECT name FROM singer"

    def test_unclosed_fence_falls_back_to_statement(self):
        raw = "```sql\nSELECT name FROM singer"
        assert extract_sql_block(raw) == "SELECT name FROM singer"

    @settings(max_examples=50, deadline=None)
    @given(
        sql=st.sampled_from(
            [
                "SELECT 1",
                "SELECT name FROM singer WHERE age > 20",
                "SELECT a, b FROM t ORDER BY a",
            ]
        ),
        prefix=st.sampled_from(["", "Sure thing!\n", "Answer below.\n\n"]),
    )
    def test_round_trip_through_fence(self, sql, prefix):
        assert extract_sql_block(f"{prefix}```sql\n{sql}\n```") == sql


class _Capture(ModelBackend):
    """Notes each prompt and answers with a fixed SQL."""

    backend_id = "capture"

    def __init__(self):
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.prompt)
        return ModelResponse(text="```sql\nSELECT 1\n```", backend_id=self.backend_id)


def _golden_prompts(catalog) -> dict[str, str]:
    """Every prompt kind built from fixed inputs; correction prompts come from
    one pipeline correction round each, as a run sends them."""
    question = "How many singers are older than 20?"
    sql = "SELECT count(*) FROM singer WHERE age > 20"
    prompts = {}
    for label, demos in (("demos", DEMOS), ("zero_shot", [])):
        prompts[f"generation/{label}"] = build_prompt(
            PromptKind.SQL_GENERATION, catalog, question, demos
        )
        prompts[f"linking/{label}"] = build_prompt(
            PromptKind.ENTITY_LINKING, catalog, "How many singers are older than 20 ?",
            demos, sql=sql,
        )
        prompts[f"hallucination/{label}"] = build_prompt(
            PromptKind.SKELETON_PARSING, None, question, demos
        )
    feedbacks = {
        "correction/entities": Feedback(
            kind="missing_entities",
            missing_tables={"Singer", "concert"},
            missing_columns={"Venue", "age", "Name"},
        ),
        "correction/skeleton": Feedback(
            kind="skeleton_mismatch",
            expected_skeleton=extract_skeleton(
                "SELECT T1.name FROM singer AS T1 WHERE T1.age > 20"
            ),
        ),
        "correction/execution": Feedback(
            kind="execution_error", error_message="no such column: nam"
        ),
    }
    example = Example(example_id="golden", question=question, db_id=catalog.db_id)
    for label, feedback in feedbacks.items():
        backend = _Capture()
        pipeline = MendPipeline(
            {catalog.db_id: catalog}, [], None, backend, PipelineConfig(shots=0)
        )
        trace = CorrectionTrace(example_id="golden")
        pipeline._correction_round(example, sql, feedback, trace)
        [prompts[label]] = backend.prompts
        assert trace.rounds[0].prompt_sha256 == prompt_sha256(prompts[label])
    return prompts


GOLDEN_PROMPT_SHA256 = {
    "generation/demos": "061fcc1b0e6716555359dda0ed59a53da8c43c4607f73e3d26edaaaa7d0d80e6",
    "linking/demos": "d8dd94502a1d7393bddb3115651c3236a6795248d9325931353a4334034eceec",
    "hallucination/demos": "112b49702df7d0c00b502d662d859a603f0a8aaa4bc8087748f25da25a2cca04",
    "generation/zero_shot": "0764a75255679460d016912470037306cd722905f5df3e25020600f208eff2cf",
    "linking/zero_shot": "93427d46f457e57e4e9513c711a42cc7ec1b93cd7ce803aa6b720bab5edbbfe1",
    "hallucination/zero_shot": "b7ac956b6be114eb97f84e5af1b51e0dfdd14d35d9bce825e7b034c37540803f",
    "correction/entities": "bbf6d37b364418392cbbc7a8eb03cc587b1b23c34d2f1a4b5d86b79da2bad3e3",
    "correction/skeleton": "e54934148e37a164e97e8005181cf43ac065db09c6e547eeecb4c65a8ee09590",
    "correction/execution": "62d197f458c4471bce2eaebf091f26218d1c2bf44cf914f2fb3609ee0b3a22e7",
}


def test_golden_prompt_bytes(catalog):
    """The replay store is keyed by prompt hash, so a prompt may not change
    by one byte. The hashes below were computed once and are never
    re-derived from the code under test."""
    hashes = {label: prompt_sha256(p) for label, p in _golden_prompts(catalog).items()}
    assert hashes == GOLDEN_PROMPT_SHA256
