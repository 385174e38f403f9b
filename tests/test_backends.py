from __future__ import annotations

import json
import logging
import os
import re
import sys
import threading
import time
import tracemalloc

import pytest
import requests

from sqlmend.backends import (
    HttpBackend,
    HttpBackendConfig,
    ModelBackend,
    ModelRequest,
    ModelResponse,
    RecordingBackend,
    ReplayBackend,
    ReplayStore,
    prompt_sha256,
)
from sqlmend.errors import BackendUnavailableError, FixtureMissingError, SqlMendError

DEEP = b"[" * 200_000 + b"]" * 200_000  # deeper than json.loads can go


class TestModelRequest:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            ModelRequest(prompt="")

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            ModelRequest(prompt="p", temperature=-0.5)


def test_base_backend_answers_nothing():
    with pytest.raises(NotImplementedError):
        ModelBackend().complete(ModelRequest(prompt="p"))


class TestReplayStore:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ReplayStore(path)
        store.append("prompt text", "response text", "backend-x")
        reloaded = ReplayStore(path)
        record = reloaded.get(prompt_sha256("prompt text"))
        assert record["response_text"] == "response text"
        assert record["backend_id"] == "backend-x"

    def test_jsonl_layout(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ReplayStore(path)
        store.append("a", "1", "b")
        store.append("c", "2", "b")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        keys = set(json.loads(lines[0]))
        assert keys == {"prompt_sha256", "prompt_text", "response_text", "backend_id"}


    def test_torn_last_line_skipped_then_cut_off(self, tmp_path, caplog):
        path = tmp_path / "store.jsonl"
        ReplayStore(path).append("a", "1", "b")
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"prompt_sha256": "ab')  # a write cut short
        with caplog.at_level(logging.WARNING, logger="sqlmend.backends"):
            store = ReplayStore(path)
        assert len(store) == 1
        assert "torn last line" in caplog.text
        store.append("c", "2", "b")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["prompt_text"] for line in lines] == ["a", "c"]
        assert len(ReplayStore(path)) == 2

    @pytest.mark.parametrize("deep", [DEEP, b'{"prompt_sha256": ' + DEEP + b"}"],
                             ids=["bytes", "written-shape"])
    def test_deep_line_raises_naming_it(self, tmp_path, deep):
        path = tmp_path / "store.jsonl"
        ReplayStore(path).append("a", "1", "b")
        path.write_bytes(path.read_bytes() + deep + b"\n")
        with pytest.raises(SqlMendError, match=f"{re.escape(str(path))}: line 2 is not a replay"):
            ReplayStore(path)

    @pytest.mark.parametrize("deep", [DEEP, b'{"prompt_sha256": ' + DEEP + b"}"],
                             ids=["bytes", "written-shape"])
    def test_deep_torn_last_line_skipped_then_cut_off(self, tmp_path, caplog, deep):
        path = tmp_path / "store.jsonl"
        ReplayStore(path).append("a", "1", "b")
        whole = path.read_bytes()
        path.write_bytes(whole + deep)
        with caplog.at_level(logging.WARNING, logger="sqlmend.backends"):
            store = ReplayStore(path)
        assert len(store) == 1
        assert f"torn last line ({len(deep)} bytes)" in caplog.text
        store.append("c", "2", "b")
        assert path.read_bytes() == whole + _store_line("c", "2")

    def test_whole_last_line_without_newline_kept(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ReplayStore(path).append("a", "1", "b")
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        store = ReplayStore(path)
        assert store.get(prompt_sha256("a"))["response_text"] == "1"
        store.append("c", "2", "b")
        assert len(ReplayStore(path)) == 2

    def test_bad_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ReplayStore(path).append("a", "1", "b")
        path.write_bytes(b"not json\n" + path.read_bytes())
        with pytest.raises(SqlMendError, match="line 1"):
            ReplayStore(path)

    @pytest.mark.parametrize("record, message", [
        ({"prompt_sha256": "ab", "response_text": 5}, "response_text must be a string, not 5"),
        ({"prompt_sha256": "ab", "response_text": None},
         "response_text must be a string, not None"),
        ({"prompt_sha256": ["ab"], "response_text": "r"},
         "prompt_sha256 must be a string, not ['ab']"),
        ({"response_text": "r"}, "prompt_sha256 must be a string, not None"),
        ({"prompt_sha256": "ab", "response_text": "r", "backend_id": {}},
         "backend_id must be a string or null, not {}"),
        (["ab", "r"], "expected a JSON object, not ['ab', 'r']"),
    ])
    @pytest.mark.parametrize("newline", ["\n", ""])
    def test_field_of_the_wrong_type_raises_naming_the_line(
        self, tmp_path, record, message, newline
    ):
        # A whole last line without a newline is not torn: it raises too.
        path = tmp_path / "store.jsonl"
        ReplayStore(path).append("a", "1", "b")
        path.write_bytes(path.read_bytes() + (json.dumps(record) + newline).encode())
        with pytest.raises(SqlMendError) as raised:
            ReplayStore(path)
        assert str(raised.value) == f"{path}: line 2 is not a replay record: {message}"

    def test_null_backend_id_is_none(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = {"prompt_sha256": prompt_sha256("p"), "response_text": "r", "backend_id": None}
        path.write_text(json.dumps(record), encoding="utf-8")
        assert ReplayStore(path).get(prompt_sha256("p")) == {"response_text": "r",
                                                            "backend_id": None}

    def test_loaded_store_holds_no_prompt_text(self, tmp_path):
        path = tmp_path / "store.jsonl"
        prompts = [f"{i} " + "p" * 500_000 for i in range(2)]
        writer = ReplayStore(path)
        for i, prompt in enumerate(prompts):
            writer.append(prompt, f"r{i}", "b")
        del writer
        started = not tracemalloc.is_tracing()  # PYTHONTRACEMALLOC may have started it
        if started:
            tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            store = ReplayStore(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert held < 100_000  # the prompts alone are 1 MB
        for i, prompt in enumerate(prompts):
            assert store.get(prompt_sha256(prompt)) == {"response_text": f"r{i}", "backend_id": "b"}

    def test_appended_record_held_without_prompt_text(self, tmp_path):
        store = ReplayStore(tmp_path / "store.jsonl")
        store.append("a prompt", "1", "b")
        assert store.get(prompt_sha256("a prompt")) == {"response_text": "1", "backend_id": "b"}
        assert "a prompt" not in repr(store._records)

    def test_line_without_backend_id(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = {"prompt_sha256": prompt_sha256("p"), "prompt_text": "p", "response_text": "r"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert ReplayBackend(ReplayStore(path)).complete(ModelRequest(prompt="p")).backend_id == (
            "replay"
        )


def _store_line(prompt: str, response: str, **dumps) -> bytes:
    record = {"backend_id": "b", "prompt_sha256": prompt_sha256(prompt),
              "prompt_text": prompt, "response_text": response}
    return (json.dumps(record, sort_keys=True, **dumps) + "\n").encode("utf-8")


class TestReplayStoreLines:
    """How the store reads its lines: as bytes split at b"\n" and read by
    ``json.loads``, whichever way it streams them."""

    def test_crlf_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(_store_line("a", "1").replace(b"\n", b"\r\n")
                         + _store_line("c", "2").replace(b"\n", b"\r\n"))
        store = ReplayStore(path)
        assert [store.get(prompt_sha256(p))["response_text"] for p in "ac"] == ["1", "2"]

    def test_whitespace_only_lines_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"\n  \t\r\n" + _store_line("a", "1")
                         + b"\x0b\x0c\n \n" + _store_line("c", "2"))
        assert len(ReplayStore(path)) == 2

    def test_non_ascii_whitespace_line_is_not_blank(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(_store_line("a", "1") + "\u00a0\n".encode() + _store_line("c", "2"))
        with pytest.raises(SqlMendError, match="line 2 is not a replay record"):
            ReplayStore(path)

    def test_raw_line_separators_inside_a_string(self, tmp_path):
        # JSON allows U+2028, U+2029 and U+0085 raw; a line ends at "\n" only.
        path = tmp_path / "store.jsonl"
        path.write_bytes(_store_line("a\u2028b", "1\u2029\u0085", ensure_ascii=False)
                         + _store_line("c", "2"))
        store = ReplayStore(path)
        assert store.get(prompt_sha256("a\u2028b"))["response_text"] == "1\u2029\u0085"
        assert len(store) == 2

    def test_undecodable_byte_on_a_middle_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        bad = _store_line("c", "2").replace(b'"2"', b'"\xff"')
        path.write_bytes(_store_line("a", "1") + bad + _store_line("d", "3"))
        with pytest.raises(ValueError) as decoded:
            json.loads(bad)
        with pytest.raises(SqlMendError) as raised:
            ReplayStore(path)
        assert str(raised.value) == f"{path}: line 2 is not a replay record: {decoded.value}"

    def test_torn_multibyte_last_line_cut_at_its_first_byte(self, tmp_path, caplog):
        path = tmp_path / "store.jsonl"
        whole = _store_line("\u00e9t\u00e9", "\u2603", ensure_ascii=False)
        torn = _store_line("\u00e9", "\u2603\u2603", ensure_ascii=False)
        cut = torn.index("\u2603".encode()) + 1  # inside the three bytes of the first snowman
        path.write_bytes(whole + torn[:cut])
        with caplog.at_level(logging.WARNING, logger="sqlmend.backends"):
            store = ReplayStore(path)
        assert len(store) == 1
        assert f"torn last line ({cut} bytes)" in caplog.text
        store.append("c", "2", "b")
        assert path.read_bytes() == whole + _store_line("c", "2")


class TestReplayStoreWrites:
    """Each appended line goes out whole, on one descriptor kept open."""

    @staticmethod
    def _append_from_threads(store, threads_count=8, per_thread=50):
        def client(k):
            for i in range(per_thread):
                store.append(f"prompt {k}-{i}", f"{k}-{i}:" + "x" * 10_000, "b")

        threads = [threading.Thread(target=client, args=(k,)) for k in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

    @staticmethod
    def _assert_reloads_whole(path, threads_count=8, per_thread=50):
        reloaded = ReplayStore(path)
        assert len(reloaded) == threads_count * per_thread
        assert len(path.read_bytes().splitlines()) == threads_count * per_thread
        for k in range(threads_count):
            for i in range(per_thread):
                record = reloaded.get(prompt_sha256(f"prompt {k}-{i}"))
                assert record["response_text"] == f"{k}-{i}:" + "x" * 10_000

    def test_eight_threads_of_long_lines_reload_as_every_record(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._append_from_threads(ReplayStore(path))
        self._assert_reloads_whole(path)

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        write = os.write
        calls = []

        def short(fd, data):  # at most 4 KiB a call, as a pipe or full disk may
            calls.append(len(data))
            return write(fd, data[:4096])

        path = tmp_path / "s.jsonl"
        store = ReplayStore(path)
        monkeypatch.setattr(os, "write", short)
        self._append_from_threads(store, threads_count=4, per_thread=10)
        monkeypatch.undo()
        assert len(calls) >= 3 * 4 * 10
        self._assert_reloads_whole(path, threads_count=4, per_thread=10)

    def test_directory_made_by_the_first_append_and_reopened_after_close(self, tmp_path):
        path = tmp_path / "new" / "dir" / "s.jsonl"
        store = ReplayStore(path)
        assert not path.parent.exists()
        store.append("a", "1", "b")
        store.append("c", "2", "b")
        store.close()
        store.close()
        store.append("d", "3", "b")
        store.close()
        assert path.read_bytes() == b"".join(
            _store_line(p, r) for p, r in [("a", "1"), ("c", "2"), ("d", "3")])


class TestReplayBackend:
    def test_hit(self, tmp_path):
        store = ReplayStore(tmp_path / "s.jsonl")
        store.append("p", "```sql\nSELECT 1\n```", "live")
        response = ReplayBackend(store).complete(ModelRequest(prompt="p"))
        assert response.text == "```sql\nSELECT 1\n```"
        assert response.cached is True

    def test_miss_names_hash(self, tmp_path):
        backend = ReplayBackend(ReplayStore(tmp_path / "s.jsonl"))
        with pytest.raises(FixtureMissingError) as excinfo:
            backend.complete(ModelRequest(prompt="unseen"))
        assert excinfo.value.prompt_sha256 == prompt_sha256("unseen")


class _OneShotBackend(ModelBackend):
    backend_id = "oneshot"

    def __init__(self):
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return ModelResponse(text=f"reply to {request.prompt}", backend_id=self.backend_id)


class TestRecordingBackend:
    def test_record_then_replay_byte_identical(self, tmp_path):
        store = ReplayStore(tmp_path / "s.jsonl")
        inner = _OneShotBackend()
        recorder = RecordingBackend(inner, store)
        first = recorder.complete(ModelRequest(prompt="hello"))
        assert inner.calls == 1 and first.cached is False

        second = recorder.complete(ModelRequest(prompt="hello"))
        assert inner.calls == 1  # served from the store
        assert second.cached is True
        assert second.text == first.text

        replayed = ReplayBackend(ReplayStore(tmp_path / "s.jsonl")).complete(
            ModelRequest(prompt="hello")
        )
        assert replayed.text == first.text

    def test_store_grows_once_per_distinct_prompt(self, tmp_path):
        store = ReplayStore(tmp_path / "s.jsonl")
        recorder = RecordingBackend(_OneShotBackend(), store)
        for prompt in ("a", "b", "a", "b", "c"):
            recorder.complete(ModelRequest(prompt=prompt))
        assert len(store) == 3


class _SlowBackend(ModelBackend):
    """Counts calls and takes *delay* seconds to answer, so two callers
    racing on one prompt overlap unless something makes them take turns."""

    backend_id = "slow"

    def __init__(self, delay: float):
        self.calls = 0
        self.delay = delay
        self._count_lock = threading.Lock()

    def complete(self, request):
        with self._count_lock:
            self.calls += 1
        time.sleep(self.delay)
        return ModelResponse(text=f"reply to {request.prompt}", backend_id=self.backend_id)


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


class TestRecordingBackendConcurrency:
    def test_same_prompt_from_two_workers_calls_model_once(self, tmp_path):
        path = tmp_path / "s.jsonl"
        inner = _SlowBackend(delay=0.3)
        recorder = RecordingBackend(inner, ReplayStore(path))
        start = threading.Barrier(2)
        texts = []

        def worker(_):
            start.wait(timeout=10)
            texts.append(recorder.complete(ModelRequest(prompt="same")).text)

        _run_threads(2, worker)
        assert inner.calls == 1
        assert texts == ["reply to same"] * 2
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_many_workers_record_each_prompt_once(self, tmp_path):
        path = tmp_path / "s.jsonl"
        inner = _SlowBackend(delay=0.002)
        recorder = RecordingBackend(inner, ReplayStore(path))
        prompts = [f"p{i % 7}" for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(
                8,
                lambda w: [recorder.complete(ModelRequest(prompt=p)) for p in prompts[w::8]],
            )
        finally:
            sys.setswitchinterval(interval)
        assert inner.calls == 7
        assert len(path.read_text(encoding="utf-8").splitlines()) == 7


class _FailingOnceBackend(_SlowBackend):
    """A ``_SlowBackend`` whose first completion raises."""

    def complete(self, request):
        if self.calls == 0:
            self.calls += 1
            raise BackendUnavailableError("first call fails")
        return super().complete(request)


class TestRecordingBackendPromptLocks:
    """The table of per-prompt locks holds only prompts not yet recorded."""

    def test_table_empty_after_sequential_recording(self, tmp_path):
        recorder = RecordingBackend(_SlowBackend(delay=0), ReplayStore(tmp_path / "s.jsonl"))
        for prompt in ["a", "b", "a", "c", "b"]:
            recorder.complete(ModelRequest(prompt=prompt))
        assert recorder.inner.calls == 3
        assert recorder._prompt_locks == {}

    def test_table_empty_after_recording_on_8_threads(self, tmp_path):
        path = tmp_path / "s.jsonl"
        inner = _SlowBackend(delay=0.002)
        recorder = RecordingBackend(inner, ReplayStore(path))
        prompts = [f"p{i % 7}" for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(
                8,
                lambda w: [recorder.complete(ModelRequest(prompt=p)) for p in prompts[w::8]],
            )
        finally:
            sys.setswitchinterval(interval)
        assert inner.calls == 7
        assert len(path.read_text(encoding="utf-8").splitlines()) == 7
        assert recorder._prompt_locks == {}

    def test_failed_completion_keeps_its_lock_until_recorded(self, tmp_path):
        inner = _FailingOnceBackend(delay=0)
        recorder = RecordingBackend(inner, ReplayStore(tmp_path / "s.jsonl"))
        with pytest.raises(BackendUnavailableError):
            recorder.complete(ModelRequest(prompt="p"))
        assert list(recorder._prompt_locks) == [prompt_sha256("p")]
        assert recorder.complete(ModelRequest(prompt="p")).text == "reply to p"
        assert recorder.complete(ModelRequest(prompt="p")).cached
        assert inner.calls == 2
        assert recorder._prompt_locks == {}


class _FakeResponse:
    """An HTTP response whose body is *payload* as JSON, or *payload* itself
    if it is already bytes."""

    def __init__(self, status: int, payload: dict | bytes, headers: dict | None = None):
        self.status_code = status
        self.content = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.headers = headers or {}


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


class TestHttpBackend:
    def _config(self, **kwargs):
        defaults = dict(
            base_url="http://model.local/v1",
            model="test-model",
            max_retries=2,
            backoff_seconds=0.0,
        )
        defaults.update(kwargs)
        return HttpBackendConfig(**defaults)

    def test_posts_chat_completion_body(self):
        payload = {"choices": [{"message": {"content": "SELECT 1"}}]}
        session = _FakeSession([_FakeResponse(200, payload)])
        backend = HttpBackend(self._config(), session=session)
        response = backend.complete(ModelRequest(prompt="p", temperature=0.0))
        assert response.text == "SELECT 1"
        sent = session.requests[0]
        assert sent["url"] == "http://model.local/v1/chat/completions"
        assert sent["json"]["messages"] == [{"role": "user", "content": "p"}]
        assert sent["json"]["model"] == "test-model"
        assert sent["json"]["max_tokens"] == 512

    def test_retries_then_succeeds(self):
        import requests

        payload = {"choices": [{"message": {"content": "ok"}}]}
        session = _FakeSession(
            [requests.ConnectionError("down"), _FakeResponse(200, payload)]
        )
        backend = HttpBackend(self._config(), session=session)
        assert backend.complete(ModelRequest(prompt="p")).text == "ok"
        assert len(session.requests) == 2

    def test_exhausted_retries_raise(self):
        session = _FakeSession(
            [_FakeResponse(500, {}), _FakeResponse(500, {}), _FakeResponse(500, {})]
        )
        backend = HttpBackend(self._config(), session=session)
        with pytest.raises(BackendUnavailableError):
            backend.complete(ModelRequest(prompt="p"))

    def test_api_key_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("SQLMEND_API_KEY", "sk-test")
        payload = {"choices": [{"message": {"content": "ok"}}]}
        session = _FakeSession([_FakeResponse(200, payload)])
        HttpBackend(self._config(), session=session).complete(ModelRequest(prompt="p"))
        assert session.requests[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_body_has_only_the_request_fields(self):
        payload = {"choices": [{"message": {"content": "ok"}}]}
        session = _FakeSession([_FakeResponse(200, payload)])
        HttpBackend(self._config(), session=session).complete(ModelRequest(prompt="p"))
        assert set(session.requests[0]["json"]) == {"model", "messages", "temperature",
                                                    "max_tokens"}


_OK = {"choices": [{"message": {"content": "ok"}}]}


class TestHttpRetries:
    """Only what can succeed on a second try is retried."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("sqlmend.backends.time.sleep", slept.append)
        return slept

    def _backend(self, responses):
        config = HttpBackendConfig(
            base_url="http://model.local/v1", model="m", max_retries=3, backoff_seconds=0.5
        )
        session = _FakeSession(responses)
        return HttpBackend(config, session=session), session

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_client_errors_raise_at_once(self, sleeps, status):
        backend, session = self._backend([_FakeResponse(status, {})] + [_FakeResponse(200, _OK)])
        with pytest.raises(BackendUnavailableError, match=f"status {status}"):
            backend.complete(ModelRequest(prompt="p"))
        assert len(session.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("payload", [
        {"choices": []},
        # Content that is not text: null, as a refusal or a tool call sends.
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": ["SELECT 1"]}}]},
        {"choices": [{"message": {"content": {"sql": "SELECT 1"}}}]},
        {"choices": [{"message": {"content": 5}}]},
        b"<html>Bad Gateway</html>",
        DEEP,
    ], ids=["no-choice", "null", "list", "dict", "int", "not-json", "deep"])
    def test_malformed_body_raises_at_once(self, sleeps, payload):
        backend, session = self._backend([_FakeResponse(200, payload),
                                          _FakeResponse(200, _OK)])
        with pytest.raises(BackendUnavailableError, match="malformed"):
            backend.complete(ModelRequest(prompt="p"))
        assert len(session.requests) == 1

    def test_request_that_cannot_be_sent_raises_at_once(self, sleeps):
        backend, session = self._backend([requests.exceptions.InvalidURL("bad"),
                                          _FakeResponse(200, _OK)])
        with pytest.raises(BackendUnavailableError):
            backend.complete(ModelRequest(prompt="p"))
        assert len(session.requests) == 1

    def test_timeouts_and_server_errors_retried_with_backoff(self, sleeps):
        backend, session = self._backend([
            requests.Timeout("slow"),
            requests.ConnectionError("down"),
            _FakeResponse(502, {}),
            _FakeResponse(200, _OK),
        ])
        assert backend.complete(ModelRequest(prompt="p")).text == "ok"
        assert len(session.requests) == 4
        assert sleeps == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_honoured(self, sleeps, status):
        backend, session = self._backend([
            _FakeResponse(status, {}, headers={"Retry-After": "7"}),
            _FakeResponse(status, {}, headers={"Retry-After": "0"}),
            _FakeResponse(200, _OK),
        ])
        assert backend.complete(ModelRequest(prompt="p")).text == "ok"
        assert sleeps == [7.0, 0.0]

    def test_retry_after_capped_at_the_request_timeout(self, sleeps):
        # A day-long Retry-After would hold the worker for a day.
        backend, _ = self._backend([
            _FakeResponse(429, {}, headers={"Retry-After": "86400"}),
            _FakeResponse(503, {}, headers={"Retry-After": "120"}),
            _FakeResponse(200, _OK),
        ])
        assert backend.complete(ModelRequest(prompt="p")).text == "ok"
        assert backend.config.request_timeout == 120.0
        assert sleeps == [120.0, 120.0]

    @pytest.mark.parametrize("headers", [
        {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, {"Retry-After": "-1"}, {},
    ])
    def test_retry_after_that_is_no_number_of_seconds_falls_back(self, sleeps, headers):
        backend, _ = self._backend([_FakeResponse(429, {}, headers=headers),
                                    _FakeResponse(200, _OK)])
        assert backend.complete(ModelRequest(prompt="p")).text == "ok"
        assert sleeps == [0.5]

    def test_retry_after_ignored_on_other_server_errors(self, sleeps):
        backend, _ = self._backend([_FakeResponse(500, {}, headers={"Retry-After": "9"}),
                                    _FakeResponse(200, _OK)])
        backend.complete(ModelRequest(prompt="p"))
        assert sleeps == [0.5]

    def test_exhausted_retries_name_the_last_failure(self, sleeps):
        backend, session = self._backend([_FakeResponse(503, {})] * 4)
        with pytest.raises(BackendUnavailableError, match="4 attempts: status 503"):
            backend.complete(ModelRequest(prompt="p"))
        assert len(session.requests) == 4
