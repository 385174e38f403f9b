from __future__ import annotations

import dataclasses
import json
import sqlite3
import sys
import threading
import time
from contextlib import closing

import pytest

import sqlmend.pipeline
from sqlmend import execution
from sqlmend.backends import (
    HttpBackend,
    HttpBackendConfig,
    ModelBackend,
    ModelRequest,
    ModelResponse,
    RecordingBackend,
    ReplayBackend,
    ReplayStore,
)
from sqlmend.comparison import Feedback
from sqlmend.errors import FixtureMissingError
from sqlmend.pipeline import (
    STAGE_GENERATION,
    STAGE_LINKING,
    STAGE_SKELETON,
    CorrectionRound,
    CorrectionTrace,
    PipelineConfig,
    read_traces,
    write_traces,
)
from sqlmend.cli import main
from sqlmend.sql_analysis import extract_skeleton

from conftest import CountingBackend
from support.mini import EXAMPLES, ScriptedBackend, run_args

ROUND_ORDER = ["missing_entities", "skeleton_mismatch", "execution_error"]


def _is_subsequence(kinds):
    """Feedback kinds must follow entity -> skeleton -> execution... order."""
    allowed = ROUND_ORDER[:2] + ["execution_error"] * len(kinds)
    position = 0
    for kind in kinds:
        while position < len(allowed) and allowed[position] != kind:
            position += 1
        if position >= len(allowed):
            return False
        position += 1
    return True


@pytest.fixture(scope="module")
def replay_traces(mini_env, replay_store_path):
    backend = ReplayBackend(ReplayStore(replay_store_path))
    pipeline = mini_env.pipeline(backend)
    return pipeline.run(mini_env.examples)


class TestStageBehaviour:
    def test_initial_sql_recorded(self, replay_traces):
        assert replay_traces[0].initial_sql == "SELECT idx_name FROM stock_idx"

    def test_alignment_parsed_with_table_links(self, replay_traces):
        alignment = replay_traces[0].alignment
        assert alignment is not None
        assert any(e.entity_type == "tbl" for e in alignment.entries)

    def test_hallucinated_sql_and_parsed_skeleton(self, replay_traces):
        trace = replay_traces[0]
        assert trace.hallucinated_sql == (
            "SELECT name FROM stocks WHERE profit > 5000 ORDER BY profit"
        )
        assert trace.parsed_skeleton == "SELECT _ FROM _ WHERE _ > _ ORDER BY _"

    def test_unparseable_alignment_disables_entity_channel_only(self, replay_traces):
        trace = replay_traces[8]
        assert trace.alignment is None
        assert any(stage == "entity_linking" for stage, _ in trace.stage_errors)
        assert trace.final_sql  # pipeline still emitted SQL
        assert trace.rounds == []

    def test_prose_hallucination_disables_skeleton_channel_only(self, replay_traces):
        trace = replay_traces[9]
        assert trace.parsed_skeleton is None
        assert any(stage == "skeleton_parsing" for stage, _ in trace.stage_errors)
        assert trace.final_sql == "SELECT venue FROM concert"

    def test_execution_round_repairs_engine_error(self, replay_traces):
        trace = replay_traces[6]
        kinds = [r.feedback.kind for r in trace.rounds]
        assert kinds == ["execution_error"]
        assert "no such column" in trace.rounds[0].feedback.error_message
        assert trace.final_sql == "SELECT name FROM singer WHERE age > 20"

    def test_unknown_db_id_ends_the_example_with_no_sql(self, mini_env):
        backend = CountingBackend(ScriptedBackend())
        example = dataclasses.replace(mini_env.examples[7], db_id="zzz")
        trace = mini_env.pipeline(backend).run_example(example)
        assert trace.stage_errors == [(STAGE_GENERATION, "unknown db_id 'zzz'")]
        assert backend.calls == 0
        assert trace.initial_sql == trace.final_sql == ""
        assert trace.rounds == []

    def test_execution_round_sees_the_row_cap(self, mini_env, monkeypatch):
        monkeypatch.setattr("sqlmend.execution.MAX_RESULT_ROWS", 1)
        prompts = []

        class AllRows(ModelBackend):
            backend_id = "all-rows"

            def complete(self, request):
                prompts.append(request.prompt)
                return ModelResponse(text="```sql\nSELECT name FROM singer\n```",
                                     backend_id=self.backend_id)

        example = next(e for e in mini_env.examples if e.db_id == "talent_show")
        with closing(mini_env.pipeline(AllRows(), max_execution_retries=1)) as pipeline:
            trace = pipeline.run_example(example)
        assert [r.feedback.kind for r in trace.rounds] == ["execution_error"]
        assert trace.rounds[0].feedback.error_message == "result has more than 1 rows"
        assert "result has more than 1 rows" in prompts[-1]

class TestPipelineInvariants:
    def test_round_kinds_follow_stage_order(self, replay_traces):
        for trace in replay_traces:
            kinds = [r.feedback.kind for r in trace.rounds]
            assert _is_subsequence(kinds), kinds

    def test_no_feedback_fixpoint(self, replay_traces):
        for trace in replay_traces:
            if not trace.rounds:
                assert trace.final_sql == trace.initial_sql

    def test_bounded_backend_calls(self, mini_env):
        backend = CountingBackend(ScriptedBackend())
        config = PipelineConfig()
        bound = 3 + 2 + config.max_execution_retries
        for example in mini_env.examples:
            backend.calls = 0
            with closing(mini_env.pipeline(backend)) as pipeline:
                pipeline.run_example(example)
            assert backend.calls <= bound

    def test_oracle_both_reduces_bound_by_two(self, mini_env):
        backend = CountingBackend(ScriptedBackend())
        config = PipelineConfig(oracle="both")
        bound = 1 + 2 + config.max_execution_retries
        for example in mini_env.examples:
            backend.calls = 0
            with closing(mini_env.pipeline(backend, oracle="both")) as pipeline:
                pipeline.run_example(example)
            assert backend.calls <= bound

    def test_replay_runs_are_byte_identical(self, mini_env, replay_store_path, tmp_path):
        outputs = []
        for run in range(2):
            backend = ReplayBackend(ReplayStore(replay_store_path))
            traces = mini_env.pipeline(backend).run(mini_env.examples)
            path = tmp_path / f"run{run}.jsonl"
            write_traces(traces, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_workers_preserve_output_order(self, mini_env, replay_store_path):
        backend = ReplayBackend(ReplayStore(replay_store_path))
        sequential = mini_env.pipeline(backend).run(mini_env.examples)
        threaded = mini_env.pipeline(backend, workers=4).run(mini_env.examples)
        assert [t.to_dict() for t in threaded] == [t.to_dict() for t in sequential]


class TestDemonstrationSelection:
    @pytest.mark.parametrize("shots, rankings", [(5, 1), (0, 0)])
    def test_pool_ranked_once_per_example(self, mini_env, monkeypatch, shots, rankings):
        queries = []
        rank = sqlmend.pipeline.top_k

        def counting(index, query, k):
            queries.append(query)
            return rank(index, query, k)

        monkeypatch.setattr(sqlmend.pipeline, "top_k", counting)
        with closing(mini_env.pipeline(ScriptedBackend(), shots=shots)) as pipeline:
            for example in mini_env.examples:
                queries.clear()
                pipeline.run_example(example)
                assert queries == [example.question] * rankings


class TestOracleModes:
    def test_oracle_entities_skips_linking_call(self, mini_env):
        backend = CountingBackend(ScriptedBackend())
        with closing(mini_env.pipeline(backend, oracle="entities")) as pipeline:
            trace = pipeline.run_example(mini_env.examples[1])
        # generation + hallucination only: alignment came from the sidecar
        assert backend.calls == 2
        assert trace.alignment is mini_env.examples[1].gold_alignment

    def test_oracle_skeleton_uses_gold_derived_skeleton(self, mini_env):
        backend = ScriptedBackend()
        example = mini_env.examples[7]
        with closing(mini_env.pipeline(backend, oracle="skeleton")) as pipeline:
            trace = pipeline.run_example(example)
        assert trace.parsed_skeleton == extract_skeleton(example.gold_sql)
        assert trace.hallucinated_sql is None

    def test_oracle_skeleton_round_fires_iff_initial_differs_from_gold(self, mini_env):
        backend = ScriptedBackend()
        with closing(mini_env.pipeline(backend, oracle="both")) as pipeline:
            for example in mini_env.examples:
                trace = pipeline.run_example(example)
                fired = any(r.feedback.kind == "skeleton_mismatch" for r in trace.rounds)
                differs = extract_skeleton(trace.initial_sql) != extract_skeleton(example.gold_sql)
                assert fired == differs, example.example_id


    def test_oracle_entities_without_gold_alignment_disables_entity_channel_only(
        self, mini_env
    ):
        example = dataclasses.replace(mini_env.examples[1], gold_alignment=None)
        with closing(mini_env.pipeline(ScriptedBackend(), oracle="entities")) as pipeline:
            trace = pipeline.run_example(example)
        assert trace.stage_errors == [(STAGE_LINKING, "oracle mode without gold alignment")]
        assert trace.alignment is None
        assert trace.parsed_skeleton is not None
        assert trace.final_sql == trace.initial_sql != ""

    def test_oracle_skeleton_without_gold_sql_disables_skeleton_channel_only(self, mini_env):
        example = dataclasses.replace(mini_env.examples[7], gold_sql=None)
        with closing(mini_env.pipeline(ScriptedBackend(), oracle="skeleton")) as pipeline:
            trace = pipeline.run_example(example)
        assert trace.stage_errors == [(STAGE_SKELETON, "oracle mode without gold SQL")]
        assert trace.parsed_skeleton is None and trace.hallucinated_sql is None
        assert trace.alignment is not None
        assert trace.final_sql == trace.initial_sql != ""

    @pytest.mark.parametrize("oracle", ["skeleton", "both"])
    def test_oracle_skeleton_gold_the_tokenizer_rejects(self, mini_env, oracle):
        pipeline = mini_env.pipeline(ScriptedBackend(), oracle=oracle)
        example = dataclasses.replace(mini_env.examples[7], gold_sql="SELECT `name` FROM t")
        [trace] = pipeline.run([example])
        assert trace.parsed_skeleton is None
        assert [stage for stage, _ in trace.stage_errors] == [STAGE_SKELETON]
        assert "unexpected character '`'" in trace.stage_errors[0][1]
        assert not any(r.feedback.kind == "skeleton_mismatch" for r in trace.rounds)
        assert trace.final_sql


class _SkeletonBeforeGeneration(ScriptedBackend):
    """Answers generation only once the skeleton request has arrived."""

    def __init__(self):
        super().__init__()
        self.skeleton_sent = threading.Event()

    def complete(self, request):
        if request.prompt.startswith("Hallucinate a SQL"):
            self.skeleton_sent.set()
        elif request.prompt.startswith("Generate a SQL"):
            assert self.skeleton_sent.wait(timeout=2), "skeleton request not sent yet"
            self.skeleton_sent.clear()
        return super().complete(request)


class _GenerationMeetsSkeleton(ScriptedBackend):
    """Generation and skeleton hallucination each wait until the other is in
    flight, so they pass only if both are sent at once."""

    def __init__(self):
        super().__init__()
        self.meeting = threading.Barrier(2, timeout=5)

    def complete(self, request):
        if request.prompt.startswith(("Generate a SQL", "Hallucinate a SQL")):
            self.meeting.wait()
        return super().complete(request)


class _Prose(ModelBackend):
    backend_id = "prose"

    def complete(self, request):
        return ModelResponse(text="Sorry, I do not know.", backend_id=self.backend_id)


class _ThreadNotingReplay(ReplayBackend):
    def __init__(self, store):
        super().__init__(store)
        self.threads = set()

    def complete(self, request):
        self.threads.add(threading.get_ident())
        return super().complete(request)


def _trace_bytes(traces, path) -> bytes:
    write_traces(traces, path)
    return path.read_bytes()


class TestSkeletonOverlap:
    def test_skeleton_sent_before_generation(self, mini_env):
        pipeline = mini_env.pipeline(_SkeletonBeforeGeneration())
        expected = mini_env.pipeline(ScriptedBackend()).run(mini_env.examples)
        traces = pipeline.run(mini_env.examples)
        assert [t.to_dict() for t in traces] == [t.to_dict() for t in expected]

    def test_skeleton_in_flight_with_generation(self, mini_env, tmp_path):
        backend = RecordingBackend(_GenerationMeetsSkeleton(), ReplayStore(tmp_path / "s.jsonl"))
        traces = mini_env.pipeline(backend).run(mini_env.examples)
        expected = mini_env.pipeline(ScriptedBackend()).run(mini_env.examples)
        assert [t.to_dict() for t in traces] == [t.to_dict() for t in expected]

    @pytest.mark.parametrize("recording", [False, True])
    def test_stage_errors_keep_stage_order(self, mini_env, tmp_path, recording):
        backend = _Prose()
        if recording:
            backend = RecordingBackend(backend, ReplayStore(tmp_path / "s.jsonl"))
        trace = mini_env.pipeline(backend).run_example(mini_env.examples[0])
        stages = [stage for stage, _ in trace.stage_errors]
        assert stages[:3] == ["sql_generation", "entity_linking", "skeleton_parsing"]
        assert trace.hallucinated_sql is None

    def test_generation_miss_wins_over_skeleton_miss(self, mini_env, replay_store_path, tmp_path):
        question = mini_env.examples[0].question
        kept, dropped = [], {}
        for line in replay_store_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            prompt = record["prompt_text"]
            kind = prompt.split(" ", 1)[0]
            if kind in ("Generate", "Hallucinate") and prompt.endswith(f"\nQuestion: {question}"):
                dropped[kind] = record["prompt_sha256"]
            else:
                kept.append(line)
        assert set(dropped) == {"Generate", "Hallucinate"}
        store_path = tmp_path / "partial.jsonl"
        store_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        pipeline = mini_env.pipeline(ReplayBackend(ReplayStore(store_path)))
        with pytest.raises(FixtureMissingError) as excinfo:
            pipeline.run_example(mini_env.examples[0])
        assert excinfo.value.prompt_sha256 == dropped["Generate"]

    def test_replay_answers_in_calling_thread(self, mini_env, replay_store_path):
        backend = _ThreadNotingReplay(ReplayStore(replay_store_path))
        mini_env.pipeline(backend).run(mini_env.examples)
        assert backend.threads == {threading.get_ident()}

    def test_recorded_with_submits_on_threads_then_replayed(self, mini_env, tmp_path):
        store_path = tmp_path / "s.jsonl"
        recorder = RecordingBackend(ScriptedBackend(), ReplayStore(store_path))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            recorded = mini_env.pipeline(recorder, workers=8).run(mini_env.examples)
        finally:
            sys.setswitchinterval(interval)
        lines = store_path.read_text(encoding="utf-8").splitlines()
        assert len({json.loads(line)["prompt_sha256"] for line in lines}) == len(lines)
        replayed = mini_env.pipeline(ReplayBackend(ReplayStore(store_path))).run(
            mini_env.examples
        )
        direct = mini_env.pipeline(ScriptedBackend()).run(mini_env.examples)
        recorded_bytes = _trace_bytes(recorded, tmp_path / "recorded.jsonl")
        assert _trace_bytes(replayed, tmp_path / "replayed.jsonl") == recorded_bytes
        assert _trace_bytes(direct, tmp_path / "direct.jsonl") == recorded_bytes

    def test_oracle_skeleton_submits_nothing(self, mini_env):
        backend = CountingBackend(ScriptedBackend())
        pipeline = mini_env.pipeline(backend, oracle="skeleton")
        assert pipeline.submit_skeleton(mini_env.examples[0], []) is None
        assert backend.calls == 0


def _chat(content) -> bytes:
    """A chat-completions body whose message content is *content*."""
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


class _Answer:
    """An HTTP 200 response whose body is *body*."""

    status_code = 200
    headers: dict = {}

    def __init__(self, body: bytes):
        self.content = body


class _ModelSession:
    """A fake HTTP session that answers as the scripted model after *delay*
    seconds, counting the requests in flight and the threads that send the
    skeleton hallucination."""

    def __init__(self, delay: float = 0.05):
        self.script = ScriptedBackend()
        self.delay = delay
        self.lock = threading.Lock()
        self.in_flight = self.most = 0
        self.skeleton_threads: set[int] = set()

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["messages"][0]["content"]
        with self.lock:
            self.in_flight += 1
            self.most = max(self.most, self.in_flight)
            if prompt.startswith("Hallucinate a SQL"):
                self.skeleton_threads.add(threading.get_ident())
        time.sleep(self.delay)
        with self.lock:
            self.in_flight -= 1
        return _Answer(_chat(self.script.complete(ModelRequest(prompt=prompt)).text))


def _http(session) -> HttpBackend:
    """An HTTP backend as a library user builds it: the default config."""
    return HttpBackend(HttpBackendConfig(base_url="http://model.local/v1", model="m"),
                       session=session)


class TestCompletionsInFlight:
    """The pipeline alone bounds the completions in flight: each worker has
    its own and at most one skeleton completion sent ahead of it."""

    def test_at_most_two_per_worker_and_more_than_one(self, mini_env):
        session = _ModelSession()
        traces = mini_env.pipeline(_http(session), workers=3).run(mini_env.examples)
        assert 3 < session.most <= 6
        expected = mini_env.pipeline(ScriptedBackend()).run(mini_env.examples)
        assert [t.to_dict() for t in traces] == [t.to_dict() for t in expected]

    def test_default_http_backend_is_not_capped_below_the_workers(self, mini_env):
        session = _ModelSession()
        mini_env.pipeline(_http(session), workers=8).run(mini_env.examples)
        assert 4 < session.most <= 16

    def test_no_workers_sends_the_skeleton_from_one_pool_thread(self, mini_env):
        session = _ModelSession(delay=0.01)
        pipeline = mini_env.pipeline(_http(session), workers=0)
        pipeline.run(mini_env.examples)
        assert session.most == 2
        assert len(session.skeleton_threads) == 1
        assert threading.get_ident() not in session.skeleton_threads
        assert pipeline._ahead._max_workers == 1

    def test_replay_example_starts_no_thread(self, mini_env, replay_store_path):
        with closing(mini_env.pipeline(ReplayBackend(ReplayStore(replay_store_path)))) as pipeline:
            before = set(threading.enumerate())
            pipeline.run_example(mini_env.examples[0])
            assert set(threading.enumerate()) <= before


class _Live:
    """Marks a backend as waiting on a live model, so that the pipeline sends
    completions and the draft's checks ahead to its pool."""

    waits_on_model = True


class _LiveScripted(_Live, ScriptedBackend):
    pass


class _LinkingAfterDraft(_Live, ScriptedBackend):
    """The scripted model, live, holding back each linking answer until a
    query of *runs* (``noted_runs``) has ended, and noting the queries run
    by then."""

    def __init__(self, runs, *args):
        super().__init__(*args)
        self.runs = runs
        self.runs_at_linking = []

    def complete(self, request):
        if request.prompt.startswith("Align the tokens"):
            assert self.runs.ran.wait(timeout=5), "the draft was not run during linking"
            self.runs_at_linking.append(list(self.runs))
        return super().complete(request)


class _FixFails(ScriptedBackend):
    """The scripted model, except that its correction of *kind* for one
    example gives SQL that fails to run where the draft ran; its execution
    correction for that example gives the gold."""

    FIXES = {  # kind: (example, the failing fix)
        "correction_entity": (4, "SELECT avg(age) FROM singer WHERE nation = 'France'"),
        "correction_skeleton": (7, "SELECT country, max(age) FROM singer GROUP BY nation"),
    }

    def __init__(self, kind):
        super().__init__()
        index, self.failing = self.FIXES[kind]
        self.kind, self.example = kind, EXAMPLES[index]

    def complete(self, request):
        kind = self._kind(request.prompt)
        question, gold = self.example["question"], self.example["query"]
        if f'"{question}"' in request.prompt:
            if kind == self.kind:
                return ModelResponse(text=f"```sql\n{self.failing}\n```", backend_id="fails")
            if kind == "correction_execution":
                return ModelResponse(text=f"```sql\n{gold}\n```", backend_id="fails")
        return super().complete(request)


class _LiveFixFails(_LinkingAfterDraft, _FixFails):
    pass


class _LinkingRaises(_Live, ScriptedBackend):
    """The scripted model, live, whose first linking answer raises an error
    that is not the package's once the draft's check is running."""

    def __init__(self, check_started: threading.Event):
        super().__init__()
        self.check_started = check_started
        self.raised = False

    def complete(self, request):
        if request.prompt.startswith("Align the tokens") and not self.raised:
            self.raised = True
            assert self.check_started.wait(timeout=5)
            raise RuntimeError("connection reset")
        return super().complete(request)


class _NotingConnections:
    """A stand-in connection set that runs no SQLite. Each query takes
    ``delay`` seconds; the set notes the threads that use it, its finished
    queries, and any query that starts while another thread's is running."""

    delay = 0.0
    made: list = []
    started = threading.Event()  # set by the first query

    def __init__(self):
        self.in_use = threading.Lock()
        self.threads: set[int] = set()
        self.finished = 0
        self.overlaps = 0
        self.made.append(self)

    def execute(self, sql, path, timeout):
        self.started.set()
        self.threads.add(threading.get_ident())
        if not self.in_use.acquire(blocking=False):
            self.overlaps += 1
            self.in_use.acquire()
        try:
            time.sleep(self.delay)
            self.finished += 1
            return execution.ExecutionResult(status="ok", rows=[])
        finally:
            self.in_use.release()

    def close(self):
        pass


class _Runs(list):
    """The SQL of each execution check run, in order, with the thread it ran
    on; ``ran`` is set as each one ends."""

    def __init__(self):
        super().__init__()
        self.ran = threading.Event()


@pytest.fixture
def noted_runs(monkeypatch):
    runs = _Runs()
    execute = sqlmend.pipeline.execute_sql

    def noted(sql, catalog, **kwargs):
        runs.append((sql, threading.get_ident()))
        try:
            return execute(sql, catalog, **kwargs)
        finally:
            runs.ran.set()

    monkeypatch.setattr(sqlmend.pipeline, "execute_sql", noted)
    return runs


@pytest.fixture
def noting_connections(monkeypatch):
    monkeypatch.setattr(sqlmend.pipeline, "Connections", _NotingConnections)
    monkeypatch.setattr(_NotingConnections, "made", [])
    monkeypatch.setattr(_NotingConnections, "started", threading.Event())
    return _NotingConnections


class TestDraftCheckedAhead:
    """On a live backend the draft is analysed and run while its linking
    completion is in flight; the trace is the one the checks give in line."""

    def test_draft_runs_once_before_linking_answers(self, mini_env, noted_runs):
        backend = _LinkingAfterDraft(noted_runs)
        expected = mini_env.pipeline(ScriptedBackend()).run(mini_env.examples)
        traces = []
        with closing(mini_env.pipeline(backend)) as pipeline:
            for example in mini_env.examples:
                noted_runs.clear()
                noted_runs.ran.clear()
                trace = pipeline.run_example(example)
                traces.append(trace)
                assert backend.runs_at_linking[-1] == [(trace.initial_sql, noted_runs[0][1])]
                assert noted_runs[0][1] != threading.get_ident()
                if not trace.rounds:  # the draft's result stands: it runs once
                    assert [sql for sql, _ in noted_runs] == [trace.initial_sql]
        assert len(backend.runs_at_linking) == len(mini_env.examples)
        assert [t.to_dict() for t in traces] == [t.to_dict() for t in expected]

    @pytest.mark.parametrize("kind, first_round", [
        ("correction_entity", "missing_entities"),
        ("correction_skeleton", "skeleton_mismatch"),
    ])
    def test_sql_changed_by_a_round_is_run_again(self, mini_env, noted_runs, kind, first_round):
        index = _FixFails.FIXES[kind][0]
        example = mini_env.examples[index]
        expected = mini_env.pipeline(_FixFails(kind)).run_example(example)
        in_line = [sql for sql, _ in noted_runs]
        noted_runs.clear()
        noted_runs.ran.clear()
        with closing(mini_env.pipeline(_LiveFixFails(noted_runs, kind))) as pipeline:
            trace = pipeline.run_example(example)
        fix = trace.rounds[0].corrected_sql
        assert fix == _FixFails.FIXES[kind][1]
        assert [r.feedback.kind for r in trace.rounds] == [first_round, "execution_error"]
        assert trace.to_dict() == expected.to_dict()
        assert in_line == [fix]
        # The draft ran ahead, and its ``ok`` was set aside for the fix's error.
        assert [sql for sql, _ in noted_runs] == [trace.initial_sql, fix]

    def test_linking_that_raises_hands_on_the_set_after_its_check(
        self, mini_env, noting_connections, monkeypatch
    ):
        monkeypatch.setattr(noting_connections, "delay", 0.05)
        example = next(e for e in mini_env.examples if e.db_id == "talent_show")
        backend = _LinkingRaises(noting_connections.started)
        with closing(mini_env.pipeline(backend)) as pipeline:
            with pytest.raises(RuntimeError, match="connection reset"):
                pipeline.run_example(example)
            [connections] = pipeline._idle
            assert connections.finished == 1  # the draft's check ended first
            pipeline.run_example(example)
        assert noting_connections.made == [connections]
        assert connections.overlaps == 0

    def test_queued_check_is_cancelled_and_run_in_the_calling_thread(
        self, mini_env, noting_connections
    ):
        example = next(e for e in mini_env.examples if e.db_id == "talent_show")
        expected = mini_env.pipeline(ScriptedBackend(), oracle="skeleton").run_example(example)
        noting_connections.made.clear()
        gate = threading.Event()
        # No skeleton completion, and the pool's one thread is held, so the
        # draft's check is still queued when ``correct`` needs it.
        with closing(mini_env.pipeline(_LiveScripted(), oracle="skeleton")) as pipeline:
            try:
                pipeline._ahead.submit(gate.wait)
                trace = pipeline.run_example(example)
            finally:
                gate.set()
            pipeline._ahead.shutdown(wait=True)
        [connections] = noting_connections.made
        assert connections.threads == {threading.get_ident()}
        assert connections.overlaps == 0
        assert connections.finished == 1  # the cancelled check never ran
        assert trace.to_dict() == expected.to_dict()

    def test_threads_of_live_examples_never_share_a_set(self, mini_env, noting_connections,
                                                        monkeypatch):
        monkeypatch.setattr(noting_connections, "delay", 0.002)
        expected = mini_env.pipeline(ScriptedBackend()).run(mini_env.examples * 4)
        noting_connections.made.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            traces = mini_env.pipeline(_LiveScripted(), workers=4).run(mini_env.examples * 4)
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= len(noting_connections.made) <= 4
        assert all(c.overlaps == 0 for c in noting_connections.made)
        assert [t.to_dict() for t in traces] == [t.to_dict() for t in expected]


class _SameAnswerSession:
    """A fake HTTP session that answers every request with the body *body*."""

    def __init__(self, body: bytes):
        self.body = body

    def post(self, url, json=None, headers=None, timeout=None):
        return _Answer(self.body)


@pytest.mark.parametrize("body", [
    _chat(None),  # null content, as chat APIs send for a refusal or a tool call
    b"[" * 200_000 + b"]" * 200_000,  # nested deeper than json.loads can go
], ids=["null-content", "deep"])
def test_answer_that_is_not_text_fails_its_stage_and_is_not_recorded(mini_env, tmp_path, body):
    path = tmp_path / "s.jsonl"
    backend = RecordingBackend(_http(_SameAnswerSession(body)), ReplayStore(path))
    trace = mini_env.pipeline(backend).run_example(mini_env.examples[0])
    stages = [stage for stage, _ in trace.stage_errors]
    assert stages[:3] == [STAGE_GENERATION, STAGE_LINKING, STAGE_SKELETON]
    assert all("malformed response" in error for _, error in trace.stage_errors)
    assert len(ReplayStore(path)) == 0


class _ProseEntityFix(ScriptedBackend):
    """The scripted model, except that it answers the entity correction with
    no SQL."""

    def __init__(self):
        super().__init__()
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.prompt)
        if "are mentioned by the question" in request.prompt:
            return ModelResponse(text="I would rather not.", backend_id=self.backend_id)
        return super().complete(request)


class TestCorrectionFailures:
    def test_answer_without_sql_keeps_the_sql_it_was_sent(self, mini_env):
        backend = _ProseEntityFix()
        example = mini_env.examples[0]
        with closing(mini_env.pipeline(backend)) as pipeline:
            trace = pipeline.run_example(example)
        sent = trace.initial_sql
        entity_round, skeleton_round = trace.rounds
        assert entity_round.feedback.kind == "missing_entities"
        assert entity_round.corrected_sql == sent
        assert trace.stage_errors == [
            ("correction", "no SQL statement found in model output")
        ]
        assert skeleton_round.feedback.kind == "skeleton_mismatch"
        assert f'Fix the sql "{sent}"' in backend.prompts[-1]
        assert trace.final_sql == skeleton_round.corrected_sql != sent

    def test_replay_miss_on_a_correction_prompt_raises(self, mini_env, replay_store_path, tmp_path):
        question = mini_env.examples[0].question
        kept, dropped = [], []
        for line in replay_store_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            prompt = record["prompt_text"]
            if f'"{question}"' in prompt and "are mentioned by the question" in prompt:
                dropped.append(record["prompt_sha256"])
            else:
                kept.append(line)
        assert len(dropped) == 1
        store_path = tmp_path / "partial.jsonl"
        store_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        pipeline = mini_env.pipeline(ReplayBackend(ReplayStore(store_path)))
        with pytest.raises(FixtureMissingError) as excinfo:
            pipeline.run_example(mini_env.examples[0])
        assert excinfo.value.prompt_sha256 == dropped[0]


class _SameSql(ModelBackend):
    """Answers every prompt with ``sql``, fenced."""

    backend_id = "same-sql"

    def __init__(self, sql: str):
        self.sql = sql

    def complete(self, request):
        return ModelResponse(text=f"```sql\n{self.sql}\n```", backend_id=self.backend_id)


class TestKeptConnections:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_closes_every_connection_it_opened(
        self, mini_paths, replay_store_path, tmp_path, monkeypatch, workers
    ):
        # Python 3.11 warns about no unclosed sqlite3 connection, so each one
        # is tracked from where it is opened.
        opened = []
        connect = sqlite3.connect

        def tracked(*args, **kwargs):
            opened.append((connect(*args, **kwargs), kwargs))
            return opened[-1][0]

        monkeypatch.setattr(execution.sqlite3, "connect", tracked)
        output = tmp_path / "out"
        assert main(run_args(mini_paths, replay_store_path, output, "--workers", str(workers))) == 0
        # Ten examples on two database files: a connection per file and
        # running example, not per query, and none caches statements.
        assert 2 <= len(opened) <= 2 * workers
        assert all(kwargs["cached_statements"] == 0 for _, kwargs in opened)
        for conn, _ in opened:
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                conn.total_changes

    def test_threads_never_hold_one_connection_set_at_once(self, mini_env, monkeypatch):
        # Stand-in sets that run no SQLite: two threads on one real
        # connection can deadlock the interpreter instead of failing.
        class Recorded:
            def __init__(self, *args, **kwargs):
                pass

            def execute(self, sql, path, timeout):
                return execution.ExecutionResult(status="ok", rows=[])

            def close(self):
                pass

        lock = threading.Lock()
        held: set = set()
        overlaps: list = []
        correct = sqlmend.pipeline.MendPipeline.correct

        def exclusive(self, *args):
            connections = args[-1]
            with lock:
                if connections in held:
                    overlaps.append(connections)
                held.add(connections)
            try:
                return correct(self, *args)
            finally:
                with lock:
                    held.discard(connections)

        monkeypatch.setattr(sqlmend.pipeline, "Connections", Recorded)
        monkeypatch.setattr(sqlmend.pipeline.MendPipeline, "correct", exclusive)
        pipeline = mini_env.pipeline(_SameSql("SELECT name FROM singer"), shots=0)
        examples = mini_env.examples
        expected = [pipeline.run_example(e).to_dict() for e in examples]
        threads_count, rounds = 8, 5
        mismatches: list = []

        def client(offset):
            for i in range(rounds * len(examples)):
                k = (i + offset) % len(examples)
                if pipeline.run_example(examples[k]).to_dict() != expected[k]:
                    mismatches.append(examples[k].example_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert overlaps == [] and mismatches == []
        assert 1 <= len(pipeline._idle) <= threads_count
        pipeline.close()
        assert pipeline._idle == []

    def test_run_example_reopens_after_close(self, mini_env):
        pipeline = mini_env.pipeline(_SameSql("SELECT name FROM singer"), shots=0)
        example = next(e for e in mini_env.examples if e.db_id == "talent_show")
        first = pipeline.run_example(example)
        pipeline.close()
        assert pipeline.run_example(example).to_dict() == first.to_dict()
        pipeline.close()

    @pytest.mark.parametrize("hostile, probe, expected", [
        ("ATTACH DATABASE '{side}' AS side", "SELECT count(*) FROM side.sqlite_master",
         "no such table: side.sqlite_master"),
        ("CREATE TEMP TABLE leak AS SELECT 1 AS x", "SELECT x FROM leak", "no such table: leak"),
        ("PRAGMA case_sensitive_like = ON", "SELECT 'a' LIKE 'A'", [(1,)]),
    ])
    def test_refused_statement_leaves_no_file_and_no_state(
        self, mini_env, tmp_path, hostile, probe, expected
    ):
        side = tmp_path / "side.sqlite"
        pipeline = mini_env.pipeline(_SameSql(hostile.format(side=side)), shots=0)
        example = next(e for e in mini_env.examples if e.db_id == "talent_show")
        trace = pipeline.run_example(example)
        execution = [r.feedback for r in trace.rounds if r.feedback.kind == "execution_error"]
        assert execution and execution[0].error_message == "not authorized"
        assert not side.exists()
        # The connection the next example gets is the one that refused it.
        [connections] = pipeline._idle
        path = mini_env.catalogs["talent_show"].source_path
        assert path in connections._open
        result = connections.execute(probe, path, timeout=5.0)
        if isinstance(expected, str):
            assert (result.status, result.error_message) == ("engine_error", expected)
        else:
            assert result.rows == expected
        pipeline.close()


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.shots == 5
        assert config.max_execution_retries == 1
        assert config.demonstration_order == "nearest-last"

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(shots=-1)
        with pytest.raises(ValueError):
            PipelineConfig(max_execution_retries=-1)
        with pytest.raises(ValueError):
            PipelineConfig(oracle="sideways")
        with pytest.raises(ValueError):
            PipelineConfig(oracle="oracle_both")  # the old spelling; manifests still map it
        with pytest.raises(ValueError):
            PipelineConfig(demonstration_order="random")


class TestTraceSerialization:
    def test_round_trip(self, replay_traces, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_traces(replay_traces, path)
        loaded = read_traces(path)
        assert len(loaded) == len(replay_traces)
        assert loaded[0]["example_id"] == replay_traces[0].example_id
        assert loaded[0]["final_sql"] == replay_traces[0].final_sql
        kinds = [r["feedback"]["kind"] for r in loaded[0]["rounds"]]
        assert kinds == ["missing_entities", "skeleton_mismatch"]

    def test_stable_field_names(self, replay_traces, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_traces(replay_traces, path)
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert set(record) == {
            "example_id",
            "initial_sql",
            "alignment",
            "hallucinated_sql",
            "parsed_skeleton",
            "rounds",
            "final_sql",
            "stage_errors",
        }

    def test_empty_skeleton_written_as_empty_string(self):
        # A lone ";" masks to "": a skeleton with no tokens, not a missing one.
        empty = extract_skeleton(";")
        feedback = Feedback(kind="skeleton_mismatch", expected_skeleton=empty)
        trace = CorrectionTrace(
            example_id="0",
            parsed_skeleton=empty,
            rounds=[CorrectionRound(feedback, "0" * 64, "SELECT 1")],
        )
        record = trace.to_dict()
        assert record["parsed_skeleton"] == ""
        assert record["rounds"][0]["feedback"]["expected_skeleton"] == ""
        assert feedback.to_dict()["expected_skeleton"] == ""


def test_mini_dataset_questions_are_unique_markers():
    questions = [e["question"] for e in EXAMPLES]
    assert len(set(questions)) == len(questions)
    for q in questions:
        assert sum(q in other for other in questions) == 1


def test_read_traces_lines_end_at_newline_only(tmp_path):
    # JSON allows U+0085, U+2028 and U+2029 raw inside a string, and
    # str.splitlines() breaks lines at each of them.
    path = tmp_path / "traces.jsonl"
    records = [{"example_id": str(i), "initial_sql": f"SELECT 'a{mark}b'", "final_sql": None,
                "parsed_skeleton": None, "alignment": None}
               for i, mark in enumerate(["\u0085", "\u2028", "\u2029"])]
    lines = [json.dumps(record, ensure_ascii=False) for record in records]
    path.write_text("\n".join(lines), encoding="utf-8")
    assert read_traces(path) == records
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    assert read_traces(path) == records


def test_read_traces_lone_carriage_return_ends_no_line(tmp_path):
    path = tmp_path / "traces.jsonl"
    record = {"example_id": "0", "initial_sql": "SELECT 1", "final_sql": None,
              "parsed_skeleton": None, "alignment": None}
    path.write_bytes(json.dumps(record).replace(", ", ",\r").encode() + b"\n")
    assert read_traces(path) == [record]
