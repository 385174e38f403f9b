"""Per-example orchestration: initial generation, entity linking, skeleton
hallucination, deterministic comparison, then ordered correction rounds
(entities first, then skeleton, then execution retries), all captured in a
CorrectionTrace.

The skeleton-hallucination completion is sent before generation starts and
its answer collected after linking, so a backend that waits on a live model
has it in flight alongside the other two. Its prompt holds only the question
and the demonstrations. Linking cannot overlap generation: its prompt carries
the draft SQL. Answers are read in stage order, so ``stage_errors`` and a
``FixtureMissingError`` come out as they would one call at a time.

Every model-backed step follows one failure rule (``_attempt``): a replay-store
miss (``FixtureMissingError``) ends the example, and any other package error is
recorded in ``stage_errors`` and the step falls back. So a failed sub-task only
disables its own feedback channel, a failed correction keeps the SQL it was
sent, and the pipeline always emits a final SQL. Rounds never loop backward:
after a correction the earlier checks are not re-run, and the skeleton check is
evaluated against the post-entity-correction SQL. The entity and skeleton
checks read one analysis of each distinct SQL text.

The execution check runs through ``execution.execute_sql`` on connection sets
the pipeline keeps, one connection per database file for each example running
at once: a running example holds one set (``execution.using``), and hands it
to the next example when it ends. ``close()`` closes them, and so does the
end of ``run()``; the next example opens them again.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from .alignment import Alignment, linked_entities, parse_alignment, tokenize_question
from .backends import ModelBackend, ModelRequest, prompt_sha256
from .comparison import EXECUTION_ERROR, Feedback, compare_entities, compare_skeletons
from .datasets import Example, jsonl_lines
from .errors import FixtureMissingError, MalformedDatasetError, SqlMendError
from .execution import Connections, execute_sql, using
from .prompts import PromptDemo, PromptKind, build_prompt, correction_prompt, extract_sql_block
from .retrieval import Bm25Index, Demonstration, top_k
from .schema import SchemaCatalog, render_schema_prompt
from .sql_analysis import SqlAnalysis, analyze_sql, extract_skeleton

ORACLE_MODES = ("none", "entities", "skeleton", "both")

STAGE_GENERATION = "sql_generation"
STAGE_LINKING = "entity_linking"
STAGE_SKELETON = "skeleton_parsing"
STAGE_CORRECTION = "correction"


@dataclass
class PipelineConfig:
    shots: int = 5
    max_execution_retries: int = 1
    demonstration_order: str = "nearest-last"  # or nearest-first
    oracle: str = "none"  # or entities | skeleton | both, taken from gold data
    temperature: float = 0.0
    max_output_tokens: int = 512
    workers: int = 1

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.max_execution_retries < 0:
            raise ValueError("max_execution_retries must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.oracle not in ORACLE_MODES:
            raise ValueError(f"oracle must be one of {ORACLE_MODES}")
        if self.demonstration_order not in ("nearest-last", "nearest-first"):
            raise ValueError("demonstration_order must be nearest-last or nearest-first")

    @property
    def gold_entities(self) -> bool:
        return self.oracle in ("entities", "both")

    @property
    def gold_skeleton(self) -> bool:
        return self.oracle in ("skeleton", "both")


@dataclass
class CorrectionRound:
    feedback: Feedback
    prompt_sha256: str
    corrected_sql: str


@dataclass
class CorrectionTrace:
    example_id: str
    initial_sql: str = ""
    alignment: Alignment | None = None
    hallucinated_sql: str | None = None
    parsed_skeleton: str | None = None
    rounds: list[CorrectionRound] = field(default_factory=list)
    final_sql: str = ""
    stage_errors: list[tuple[str, str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "initial_sql": self.initial_sql,
            "alignment": self.alignment.to_records() if self.alignment else None,
            "hallucinated_sql": self.hallucinated_sql,
            "parsed_skeleton": self.parsed_skeleton,
            "rounds": [
                {
                    "feedback": r.feedback.to_dict(),
                    "prompt_sha256": r.prompt_sha256,
                    "corrected_sql": r.corrected_sql,
                }
                for r in self.rounds
            ],
            "final_sql": self.final_sql,
            "stage_errors": [
                {"stage": stage, "error": error} for stage, error in self.stage_errors
            ],
        }


T = TypeVar("T")


def _attempt(trace: CorrectionTrace, stage: str, fallback: T, work: Callable[[], T]) -> T:
    """Run one model-backed step under the failure rule: a replay-store miss
    propagates, any other package error is recorded against *stage* and
    yields *fallback*."""
    try:
        return work()
    except FixtureMissingError:
        raise
    except SqlMendError as exc:
        trace.stage_errors.append((stage, str(exc)))
        return fallback


class MendPipeline:
    """Runs the generate/link/parse/compare/correct flow over examples."""

    def __init__(
        self,
        catalogs: dict[str, SchemaCatalog],
        pool: list[Demonstration],
        index: Bm25Index | None,
        backend: ModelBackend,
        config: PipelineConfig | None = None,
    ):
        self.catalogs = catalogs
        self.pool = pool
        self.index = index
        self.backend = backend
        self.config = config or PipelineConfig()
        if self.config.shots > 0 and (not pool or index is None):
            raise SqlMendError("few-shot inference requires a demonstration pool and index")
        # Connection sets no running example holds. ``list.pop`` and
        # ``append`` are atomic, so two threads never take the same set.
        self._idle: list[Connections] = []

    # -- stage helpers -----------------------------------------------------

    def _request(self, prompt: str) -> ModelRequest:
        return ModelRequest(
            prompt=prompt,
            temperature=self.config.temperature,
            max_output_tokens=self.config.max_output_tokens,
        )

    def _complete(self, prompt: str) -> str:
        return self.backend.complete(self._request(prompt)).text

    def select_demos(self, question: str) -> list[Demonstration]:
        """The pool's ``shots`` nearest demonstrations, in prompt order."""
        if self.config.shots == 0 or self.index is None:
            return []
        ranked = top_k(self.index, question, self.config.shots)
        demos = [self.pool[i] for i, _ in ranked]
        if self.config.demonstration_order == "nearest-last":
            demos.reverse()
        return demos

    def _demo_schema_text(self, demo: Demonstration) -> str:
        catalog = self.catalogs.get(demo.db_id)
        return render_schema_prompt(catalog) if catalog else ""

    def generate_initial_sql(
        self, example: Example, trace: CorrectionTrace, selected: list[Demonstration]
    ) -> str:
        catalog = self.catalogs[example.db_id]
        demos = [
            PromptDemo(
                question=d.question, sql=d.sql, schema_text=self._demo_schema_text(d)
            )
            for d in selected
        ]
        prompt = build_prompt(
            PromptKind.SQL_GENERATION, catalog, example.question, demos
        )
        return _attempt(
            trace, STAGE_GENERATION, "", lambda: extract_sql_block(self._complete(prompt))
        )

    def link_entities(
        self,
        example: Example,
        initial_sql: str,
        trace: CorrectionTrace,
        selected: list[Demonstration],
    ) -> Alignment | None:
        if self.config.gold_entities:
            if example.gold_alignment is not None:
                return example.gold_alignment
            trace.stage_errors.append((STAGE_LINKING, "oracle mode without gold alignment"))
            return None
        catalog = self.catalogs[example.db_id]
        tokenized = " ".join(tokenize_question(example.question))
        demos = []
        for demo in selected:
            demo_tokens = " ".join(tokenize_question(demo.question))
            alignment_text = (
                repr(demo.alignment.to_records()) if demo.alignment else "[]"
            )
            demos.append(
                PromptDemo(
                    question=demo_tokens,
                    sql=demo.sql,
                    schema_text=self._demo_schema_text(demo),
                    alignment_text=alignment_text,
                )
            )
        prompt = build_prompt(
            PromptKind.ENTITY_LINKING, catalog, tokenized, demos, sql=initial_sql
        )
        return _attempt(
            trace,
            STAGE_LINKING,
            None,
            lambda: parse_alignment(self._complete(prompt), question=example.question),
        )

    def submit_skeleton(
        self, example: Example, selected: list[Demonstration]
    ) -> Future | None:
        """Send the skeleton-hallucination completion; None in oracle-skeleton
        mode, which makes no call."""
        if self.config.gold_skeleton:
            return None
        demos = [PromptDemo(question=d.question, sql=d.sql) for d in selected]
        prompt = build_prompt(PromptKind.SKELETON_PARSING, None, example.question, demos)
        return self.backend.submit(self._request(prompt))

    def parse_question_skeleton(
        self, example: Example, trace: CorrectionTrace, pending: Future | None
    ) -> str | None:
        """The skeleton from ``pending``, the future ``submit_skeleton`` gave,
        or in oracle-skeleton mode the gold query's."""

        def parse() -> str:
            if self.config.gold_skeleton:
                if not example.gold_sql:
                    raise SqlMendError("oracle mode without gold SQL")
                return extract_skeleton(example.gold_sql)
            trace.hallucinated_sql = extract_sql_block(pending.result().text)
            return extract_skeleton(trace.hallucinated_sql)

        return _attempt(trace, STAGE_SKELETON, None, parse)

    def _correction_round(
        self,
        example: Example,
        current_sql: str,
        feedback: Feedback,
        trace: CorrectionTrace,
    ) -> str:
        """One correction completion; on extraction failure the SQL is kept."""
        prompt = correction_prompt(
            self.catalogs[example.db_id], example.question, current_sql, feedback
        )
        corrected = _attempt(
            trace,
            STAGE_CORRECTION,
            current_sql,
            lambda: extract_sql_block(self._complete(prompt)),
        )
        trace.rounds.append(
            CorrectionRound(
                feedback=feedback, prompt_sha256=prompt_sha256(prompt), corrected_sql=corrected
            )
        )
        return corrected

    def correct(
        self,
        example: Example,
        trace: CorrectionTrace,
        alignment: Alignment | None,
        parsed_skeleton: str | None,
    ) -> str:
        catalog = self.catalogs[example.db_id]
        current = trace.initial_sql
        analysis: SqlAnalysis | None = None  # of ``current``, for both checks

        if alignment is not None and current:
            analysis = analyze_sql(current)
            feedback = compare_entities(linked_entities(alignment), analysis, catalog)
            if feedback is not None:
                corrected = self._correction_round(example, current, feedback, trace)
                if corrected != current:
                    current, analysis = corrected, None

        if parsed_skeleton is not None and current:
            if analysis is None:
                analysis = analyze_sql(current)
            feedback = compare_skeletons(analysis, parsed_skeleton)
            if feedback is not None:
                current = self._correction_round(example, current, feedback, trace)

        if catalog.source_path is not None:
            for _ in range(self.config.max_execution_retries):
                result = execute_sql(current, catalog)
                if result.ok:
                    break
                feedback = Feedback(
                    kind=EXECUTION_ERROR,
                    error_message=result.error_message or "execution failed",
                )
                current = self._correction_round(example, current, feedback, trace)

        return current

    # -- whole-example and whole-dataset entry points ----------------------

    def run_example(self, example: Example) -> CorrectionTrace:
        trace = CorrectionTrace(example_id=example.example_id)
        if example.db_id not in self.catalogs:
            trace.stage_errors.append((STAGE_GENERATION, f"unknown db_id {example.db_id!r}"))
            return trace
        try:
            connections = self._idle.pop()
        except IndexError:
            connections = Connections()
        try:
            with using(connections):
                # The three sub-task prompts share one ranking of the pool.
                selected = self.select_demos(example.question)
                skeleton = self.submit_skeleton(example, selected)
                trace.initial_sql = self.generate_initial_sql(example, trace, selected)
                alignment = self.link_entities(example, trace.initial_sql, trace, selected)
                trace.alignment = alignment
                parsed = self.parse_question_skeleton(example, trace, skeleton)
                trace.parsed_skeleton = parsed
                trace.final_sql = self.correct(example, trace, alignment, parsed)
        finally:
            self._idle.append(connections)
        return trace

    def run(self, examples: list[Example]) -> list[CorrectionTrace]:
        """Run every example; output order always matches input order. The
        kept connections are closed at the end."""
        try:
            if self.config.workers <= 1:
                return [self.run_example(example) for example in examples]
            with ThreadPoolExecutor(max_workers=self.config.workers) as executor:
                return list(executor.map(self.run_example, examples))
        finally:
            self.close()

    def close(self) -> None:
        """Close the connections kept for the execution check; the next
        example opens them again. Call it while no example is running."""
        while self._idle:
            self._idle.pop().close()


def write_traces(traces: list[CorrectionTrace], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for trace in traces:
            handle.write(json.dumps(trace.to_dict(), sort_keys=True) + "\n")


# The types evaluation accepts for each trace field it reads; absent is null.
_TRACE_FIELD_TYPES = {
    "example_id": (str,),
    "initial_sql": (str, type(None)),
    "final_sql": (str, type(None)),
    "parsed_skeleton": (str, type(None)),
    "alignment": (list, type(None)),
}


def read_traces(path: str | Path) -> list[dict]:
    """The trace records of a JSON-lines file, skipping blank lines; lines
    end at ``"\n"`` (see ``datasets.jsonl_lines``). A line that is not a JSON
    object, one with a field of a type ``_TRACE_FIELD_TYPES`` does not allow,
    or one that repeats an earlier line's ``example_id`` is a
    ``MalformedDatasetError`` naming it."""
    path = Path(path)
    records = []
    first_line: dict[str, int] = {}
    for number, line in enumerate(jsonl_lines(path), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedDatasetError(f"{path}: line {number}: {exc}") from exc
        if not isinstance(record, dict):
            raise MalformedDatasetError(f"{path}: line {number}: expected a JSON object")
        for key, kinds in _TRACE_FIELD_TYPES.items():
            if not isinstance(record.get(key), kinds):
                names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
                raise MalformedDatasetError(f"{path}: line {number}: {key} must be {names}")
        first = first_line.setdefault(record["example_id"], number)
        if first != number:
            raise MalformedDatasetError(
                f"{path}: lines {first} and {number} share example_id {record['example_id']!r}"
            )
        records.append(record)
    return records
