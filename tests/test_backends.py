from __future__ import annotations

import json
import logging
import sys
import threading
import time

import pytest

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


class TestModelRequest:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            ModelRequest(prompt="")

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            ModelRequest(prompt="p", temperature=-0.5)


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


class _FakeResponse:
    def __init__(self, status: int, payload: dict):
        self.status_code = status
        self._payload = payload

    def raise_for_status(self):
        if self.status_code >= 400:
            import requests

            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self._payload


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
