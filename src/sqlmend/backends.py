"""Model backends behind a single text-completion contract.

``HttpBackend`` speaks the OpenAI-compatible ``/chat/completions`` JSON shape
with the whole prompt as one user message. ``ReplayBackend`` serves recorded
responses keyed by the SHA-256 of the prompt, which makes full pipeline runs
deterministic and network-free. ``RecordingBackend`` wraps any live backend
and persists every new response to the same JSON-lines store.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

from .errors import BackendUnavailableError, FixtureMissingError, SqlMendError

logger = logging.getLogger(__name__)


@dataclass
class ModelRequest:
    prompt: str
    temperature: float = 0.0
    max_output_tokens: int = 512
    stop_sequences: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass
class ModelResponse:
    text: str
    backend_id: str
    cached: bool = False


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ModelBackend:
    """Text-completion contract every backend implements."""

    backend_id = "abstract"

    def complete(self, request: ModelRequest) -> ModelResponse:
        raise NotImplementedError


@dataclass
class HttpBackendConfig:
    base_url: str
    model: str
    api_key_env: str = "SQLMEND_API_KEY"
    max_retries: int = 3
    backoff_seconds: float = 1.0
    request_timeout: float = 120.0
    max_in_flight: int = 4


class HttpBackend(ModelBackend):
    def __init__(self, config: HttpBackendConfig, session: requests.Session | None = None):
        self.config = config
        self.backend_id = f"http:{config.model}"
        self._session = session or requests.Session()
        self._gate = threading.Semaphore(config.max_in_flight)

    def complete(self, request: ModelRequest) -> ModelResponse:
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        if request.stop_sequences:
            body["stop"] = request.stop_sequences
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        url = self.config.base_url.rstrip("/") + "/chat/completions"

        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.backoff_seconds * (2 ** (attempt - 1)))
            with self._gate:
                try:
                    response = self._session.post(
                        url, json=body, headers=headers, timeout=self.config.request_timeout
                    )
                    response.raise_for_status()
                    payload = response.json()
                    text = payload["choices"][0]["message"]["content"]
                    return ModelResponse(text=text, backend_id=self.backend_id)
                except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
                    last_error = exc
        raise BackendUnavailableError(
            f"{url}: no successful response after {self.config.max_retries + 1} attempts: {last_error}"
        )


class ReplayStore:
    """JSON-lines store of {prompt_sha256, prompt_text, response_text,
    backend_id} records, keyed by prompt hash. Append-only while recording.

    A last line with no newline after it that does not parse is a write cut
    short, as a killed recording leaves: it is skipped with a warning and
    cut off before the next append. Any other line that does not parse
    raises ``SqlMendError``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._torn_at: int | None = None  # byte offset of a torn last line
        self._unterminated = False  # the last line is whole but lacks "\n"
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        offset = 0
        last = b"\n"
        with self.path.open("rb") as handle:
            for number, line in enumerate(handle, 1):
                start, offset, last = offset, offset + len(line), line
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    self._records[record["prompt_sha256"]] = record
                except (ValueError, KeyError, TypeError) as exc:
                    if line.endswith(b"\n"):
                        raise SqlMendError(
                            f"{self.path}: line {number} is not a replay record: {exc}"
                        ) from exc
                    logger.warning(
                        "%s: skipping torn last line (%d bytes); it is cut off before the next append",
                        self.path, len(line),
                    )
                    self._torn_at = start
        self._unterminated = not last.endswith(b"\n") and self._torn_at is None

    def __len__(self) -> int:
        return len(self._records)

    def get(self, prompt_hash: str) -> dict | None:
        return self._records.get(prompt_hash)

    def append(self, prompt: str, response_text: str, backend_id: str) -> dict:
        record = {
            "prompt_sha256": prompt_sha256(prompt),
            "prompt_text": prompt,
            "response_text": response_text,
            "backend_id": backend_id,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._records[record["prompt_sha256"]] = record
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            if self._unterminated:
                line = "\n" + line
                self._unterminated = False
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line)
        return record


class ReplayBackend(ModelBackend):
    backend_id = "replay"

    def __init__(self, store: ReplayStore):
        self.store = store

    def complete(self, request: ModelRequest) -> ModelResponse:
        digest = prompt_sha256(request.prompt)
        record = self.store.get(digest)
        if record is None:
            raise FixtureMissingError(digest)
        return ModelResponse(
            text=record["response_text"],
            backend_id=record.get("backend_id", self.backend_id),
            cached=True,
        )


class RecordingBackend(ModelBackend):
    """Serve from the store when possible, otherwise delegate and record.

    Workers sending the same prompt take turns on one lock per prompt hash,
    so the prompt is sent to the inner backend and recorded once; different
    prompts never wait on each other."""

    def __init__(self, inner: ModelBackend, store: ReplayStore):
        self.inner = inner
        self.store = store
        self.backend_id = f"record:{inner.backend_id}"
        self._prompt_locks: dict[str, threading.Lock] = {}
        self._prompt_locks_guard = threading.Lock()

    def complete(self, request: ModelRequest) -> ModelResponse:
        digest = prompt_sha256(request.prompt)
        with self._prompt_locks_guard:
            lock = self._prompt_locks.setdefault(digest, threading.Lock())
        with lock:
            record = self.store.get(digest)
            if record is not None:
                return ModelResponse(
                    text=record["response_text"],
                    backend_id=record.get("backend_id", self.inner.backend_id),
                    cached=True,
                )
            response = self.inner.complete(request)
            self.store.append(request.prompt, response.text, response.backend_id)
            return response
