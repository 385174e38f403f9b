"""Per-example orchestration: initial generation, entity linking, skeleton
hallucination, deterministic comparison, then ordered correction rounds
(entities first, then skeleton, then execution retries), all captured in a
CorrectionTrace.

Each stage method writes its result onto the example's trace and reads
earlier results from it, returning None: ``generate_initial_sql`` sets
``initial_sql``, ``link_entities`` sets ``alignment`` from the draft,
``parse_question_skeleton`` sets ``parsed_skeleton`` (and
``hallucinated_sql``), and ``correct`` reads all three, appends its
``rounds`` and sets ``final_sql``. ``run_example`` only calls them in that
order.

The skeleton-hallucination completion is sent before generation starts and
its answer collected after linking. Its prompt holds only the question and
the demonstrations. Linking cannot overlap generation: its prompt carries the
draft SQL. When the backend waits on a live model (``waits_on_model``), the
skeleton completion runs on the pipeline's pool of ``max(1, workers)``
threads, started on first use, so each worker has at most two completions in
flight and a run at most ``2 × workers``. Any other backend, such as replay,
answers it in the calling thread. Answers are read in stage order, so
``stage_errors`` and a ``FixtureMissingError`` come out as they would one call
at a time.

On the same backends the draft is checked while linking is in flight: as
soon as generation returns, ``submit_draft_checks`` sends ``analyze_sql`` of
the draft and, where the catalog has a database file and
``max_execution_retries > 0``, its execution to the same pool, while the
worker's own thread sends linking. ``correct`` uses that analysis
and result only while the SQL it checks is still the draft text; a check
still queued when ``correct`` starts is cancelled, and ``correct`` runs it
itself, as it does on every other backend.

Every model-backed step follows one failure rule (``_attempt``): a replay-store
miss (``FixtureMissingError``) ends the example, and any other package error is
recorded in ``stage_errors`` and the step falls back. So a failed sub-task only
disables its own feedback channel, a failed correction keeps the SQL it was
sent, and an example whose ``db_id`` has a catalog always gets a final SQL (one
without gets an empty one). Rounds never loop backward: after a correction the
earlier checks are not re-run, and the skeleton check is evaluated against the
post-entity-correction SQL. The entity and skeleton checks read one analysis of
each distinct SQL text.

The linking prompt shows each demonstration's gold alignment as the literal
``Alignment.records_literal`` writes from its entries, the text ``repr`` gives
of its records. The pipeline keeps one table of alignment entries for its
life and passes it to ``parse_alignment``, so the answers of a run hold each
distinct entry once.

A trace's ``to_dict`` is the line ``write_traces`` writes, and
``CorrectionTrace.from_dict`` its exact inverse: ``read_traces`` checks each
line through it, and ``evaluation.evaluate_run`` reads traces through it.

The execution check runs through ``execution.execute_sql`` on connection sets
the pipeline keeps, one connection per database file for each example running
at once: a running example holds one set, passes it to ``correct``, and hands
it to the next example when it ends. A draft check sent ahead runs on its
example's set, so the example hands the set on only once that check is
cancelled or over, even when a stage raises: no two threads use one set at
once. ``close()`` closes them, and so does the end of ``run()``; the next
example opens them again.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from .alignment import (
    LINK_TYPES,
    Alignment,
    AlignmentEntry,
    linked_entities,
    parse_alignment,
    tokenize_question,
)
from .backends import ModelBackend, ModelRequest, prompt_sha256
from .comparison import EXECUTION_ERROR, Feedback, compare_entities, compare_skeletons
from .datasets import Example, checked, checked_items, decode_json, jsonl_lines
from .errors import FixtureMissingError, MalformedDatasetError, SqlMendError
from .execution import Connections, ExecutionResult, execute_sql
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

    def to_dict(self) -> dict:
        return {
            "feedback": self.feedback.to_dict(),
            "prompt_sha256": self.prompt_sha256,
            "corrected_sql": self.corrected_sql,
        }

    @classmethod
    def from_dict(cls, record: object, name: str = "round") -> "CorrectionRound":
        """The round ``to_dict`` wrote as *record*, the field *name*; see
        ``CorrectionTrace.from_dict``."""
        get = checked(record, dict, name).get
        return cls(
            feedback=Feedback.from_dict(get("feedback"), f"{name}.feedback"),
            prompt_sha256=checked(get("prompt_sha256"), str, f"{name}.prompt_sha256"),
            corrected_sql=checked(get("corrected_sql"), str, f"{name}.corrected_sql"),
        )


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
            "rounds": [r.to_dict() for r in self.rounds],
            "final_sql": self.final_sql,
            "stage_errors": [
                {"stage": stage, "error": error} for stage, error in self.stage_errors
            ],
        }

    @classmethod
    def from_dict(cls, record: object) -> "CorrectionTrace":
        """The trace ``to_dict`` wrote as *record*: ``from_dict(t.to_dict())``
        writes what ``t`` writes. A field that is absent or null takes its
        default, as in traces of earlier versions. Anything ``to_dict``
        cannot write is a ``MalformedDatasetError`` naming the field, at any
        depth (``rounds[0].feedback.kind``), with nothing repaired: a value of
        the wrong type, feedback fields that contradict the kind, or an
        alignment record other than an object with a non-empty string token
        (blank is kept, as ``parse_alignment`` keeps it), a string or null
        schema, and a link type that is null exactly when the schema is."""
        get = checked(record, dict, "trace").get

        def text(key: str) -> str | None:
            return checked(get(key), str, key, nullable=True)

        return cls(
            example_id=checked(get("example_id"), str, "example_id"),
            initial_sql=text("initial_sql") or "",
            alignment=_decode_alignment(get("alignment")),
            hallucinated_sql=text("hallucinated_sql"),
            parsed_skeleton=text("parsed_skeleton"),
            rounds=[CorrectionRound.from_dict(r, at)
                    for at, r in checked_items(get("rounds"), "rounds")],
            final_sql=text("final_sql") or "",
            stage_errors=[_decode_stage_error(e, at)
                          for at, e in checked_items(get("stage_errors"), "stage_errors")],
        )


def _decode_stage_error(record: object, name: str) -> tuple[str, str]:
    """The ``(stage, error)`` pair ``to_dict`` wrote as *record*, the field
    *name*."""
    get = checked(record, dict, name).get
    return checked(get("stage"), str, f"{name}.stage"), checked(get("error"), str, f"{name}.error")


def _decode_alignment(records: object) -> Alignment | None:
    """The alignment ``Alignment.to_records`` wrote as *records*, or None for
    null; see ``CorrectionTrace.from_dict``."""
    if records is None:
        return None
    entries = []
    for at, record in checked_items(records, "alignment"):
        get = checked(record, dict, at).get
        token, schema, kind = get("token"), get("schema"), get("type")
        if not (isinstance(token, str) and token):
            raise MalformedDatasetError(f"{at}.token must be a non-empty string, not {token!r:.40}")
        checked(schema, str, f"{at}.schema", nullable=True)
        if kind not in (LINK_TYPES if schema is not None else (None,)):
            expected = f"one of {LINK_TYPES}" if schema is not None else "null, as the schema is"
            raise MalformedDatasetError(f"{at}.type must be {expected}, not {kind!r:.40}")
        entries.append(AlignmentEntry(token, schema, kind))
    return Alignment(entries)


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
        self._entries: dict = {}  # every distinct alignment entry parsed
        self._ahead = ThreadPoolExecutor(
            max(1, self.config.workers), thread_name_prefix="sqlmend-ahead"
        )

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
    ) -> None:
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
        trace.initial_sql = _attempt(
            trace, STAGE_GENERATION, "", lambda: extract_sql_block(self._complete(prompt))
        )

    def link_entities(
        self, example: Example, trace: CorrectionTrace, selected: list[Demonstration]
    ) -> None:
        if self.config.gold_entities:
            if example.gold_alignment is None:
                trace.stage_errors.append((STAGE_LINKING, "oracle mode without gold alignment"))
            trace.alignment = example.gold_alignment
            return
        catalog = self.catalogs[example.db_id]
        tokenized = " ".join(tokenize_question(example.question))
        demos = []
        for demo in selected:
            demo_tokens = " ".join(tokenize_question(demo.question))
            alignment_text = demo.alignment.records_literal() if demo.alignment else "[]"
            demos.append(
                PromptDemo(
                    question=demo_tokens,
                    sql=demo.sql,
                    schema_text=self._demo_schema_text(demo),
                    alignment_text=alignment_text,
                )
            )
        prompt = build_prompt(
            PromptKind.ENTITY_LINKING, catalog, tokenized, demos, sql=trace.initial_sql
        )
        trace.alignment = _attempt(
            trace,
            STAGE_LINKING,
            None,
            lambda: parse_alignment(
                self._complete(prompt), question=example.question, shared=self._entries
            ),
        )

    def submit_skeleton(
        self, example: Example, selected: list[Demonstration]
    ) -> Future | None:
        """Send the skeleton-hallucination completion and return its future,
        which keeps any exception; None in oracle-skeleton mode, which makes
        no call."""
        if self.config.gold_skeleton:
            return None
        demos = [PromptDemo(question=d.question, sql=d.sql) for d in selected]
        prompt = build_prompt(PromptKind.SKELETON_PARSING, None, example.question, demos)
        request = self._request(prompt)
        if self.backend.waits_on_model:
            return self._ahead.submit(self.backend.complete, request)
        future: Future = Future()
        try:
            future.set_result(self.backend.complete(request))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def submit_draft_checks(
        self, example: Example, trace: CorrectionTrace, connections: Connections
    ) -> Future | None:
        """On a backend that waits on a live model, send the checks of
        ``trace.initial_sql`` to the pool and return their future: its
        analysis and, where ``correct`` runs the execution check, its
        execution result on *connections* (else None). None on any other
        backend, where ``correct`` runs the checks itself."""
        if not self.backend.waits_on_model:
            return None
        sql = trace.initial_sql
        catalog = self.catalogs[example.db_id]
        executes = catalog.source_path is not None and self.config.max_execution_retries > 0

        def check() -> tuple[SqlAnalysis, ExecutionResult | None]:
            return analyze_sql(sql), (
                execute_sql(sql, catalog, connections=connections) if executes else None
            )

        return self._ahead.submit(check)

    def parse_question_skeleton(
        self, example: Example, trace: CorrectionTrace, pending: Future | None
    ) -> None:
        """Set ``parsed_skeleton`` from ``pending``, the future
        ``submit_skeleton`` gave, or in oracle-skeleton mode from the gold."""

        def parse() -> str:
            if self.config.gold_skeleton:
                if not example.gold_sql:
                    raise SqlMendError("oracle mode without gold SQL")
                return extract_skeleton(example.gold_sql)
            trace.hallucinated_sql = extract_sql_block(pending.result().text)
            return extract_skeleton(trace.hallucinated_sql)

        trace.parsed_skeleton = _attempt(trace, STAGE_SKELETON, None, parse)

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
        connections: Connections | None = None,
        draft: Future | None = None,
    ) -> None:
        """Run the correction rounds and set ``final_sql``. *draft* is the
        future ``submit_draft_checks`` gave; its analysis and execution
        result stand for ``trace.initial_sql`` while the SQL checked is still
        that text. If it has not started, it is cancelled and each check
        runs here when it is needed, as with no *draft*."""
        catalog = self.catalogs[example.db_id]
        current = trace.initial_sql
        # Of ``current``: its analysis, for both checks, and its execution.
        analysis: SqlAnalysis | None = None
        result: ExecutionResult | None = None
        if draft is not None and not draft.cancel():
            analysis, result = draft.result()

        if trace.alignment is not None and current:
            if analysis is None:
                analysis = analyze_sql(current)
            feedback = compare_entities(linked_entities(trace.alignment), analysis, catalog)
            if feedback is not None:
                corrected = self._correction_round(example, current, feedback, trace)
                if corrected != current:
                    current, analysis, result = corrected, None, None

        if trace.parsed_skeleton is not None and current:
            if analysis is None:
                analysis = analyze_sql(current)
            feedback = compare_skeletons(analysis, trace.parsed_skeleton)
            if feedback is not None:
                corrected = self._correction_round(example, current, feedback, trace)
                if corrected != current:
                    current, result = corrected, None

        if catalog.source_path is not None:
            for _ in range(self.config.max_execution_retries):
                if result is None:
                    result = execute_sql(current, catalog, connections=connections)
                if result.ok:
                    break
                feedback = Feedback(
                    kind=EXECUTION_ERROR,
                    error_message=result.error_message or "execution failed",
                )
                current = self._correction_round(example, current, feedback, trace)
                result = None

        trace.final_sql = current

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
        draft = None
        try:
            # The three sub-task prompts share one ranking of the pool.
            selected = self.select_demos(example.question)
            skeleton = self.submit_skeleton(example, selected)
            self.generate_initial_sql(example, trace, selected)
            draft = self.submit_draft_checks(example, trace, connections)
            self.link_entities(example, trace, selected)
            self.parse_question_skeleton(example, trace, skeleton)
            if draft is None:
                self.correct(example, trace, connections)
            else:
                self.correct(example, trace, connections, draft)
        finally:
            if draft is not None and not draft.cancel():
                wait([draft])  # the check may still be using the set
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


def read_traces(path: str | Path) -> list[dict]:
    """The trace records of a JSON-lines file, skipping blank lines; lines
    end at ``"\n"`` (see ``datasets.jsonl_lines``). Each line is checked
    through ``CorrectionTrace.from_dict`` and returned as the dict it holds.
    A line that is not JSON, one ``from_dict`` refuses, or one that repeats
    an earlier line's ``example_id`` is a ``MalformedDatasetError`` naming
    it, and the field at fault."""
    path = Path(path)
    records = []
    first_line: dict[str, int] = {}
    for number, line in enumerate(jsonl_lines(path), 1):
        if not line.strip():
            continue
        record = decode_json(line, path, number)
        try:
            example_id = CorrectionTrace.from_dict(record).example_id
        except MalformedDatasetError as exc:
            raise MalformedDatasetError(f"{path}: line {number}: {exc}") from exc
        first = first_line.setdefault(example_id, number)
        if first != number:
            raise MalformedDatasetError(
                f"{path}: lines {first} and {number} share example_id {example_id!r}"
            )
        records.append(record)
    return records
