"""Model backends behind a single text-completion contract.

``HttpBackend`` speaks the OpenAI-compatible ``/chat/completions`` JSON shape
with the whole prompt as one user message. ``ReplayBackend`` serves recorded
responses keyed by the SHA-256 of the prompt, which makes full pipeline runs
deterministic and network-free. ``RecordingBackend`` wraps any live backend
and persists every new response to the same JSON-lines store.

A backend only answers ``complete``; when completions overlap is the
pipeline's decision. ``waits_on_model`` marks the two backends whose answer
waits on a live model, ``HttpBackend`` and ``RecordingBackend``: the pipeline
sends a completion ahead only to them, and asks the others in the calling
thread.

``requests`` is imported by ``HttpBackend`` alone, when one is built, so
that replaying, recording with an offline model and evaluating never load
the HTTP client.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .datasets import decode_json
from .errors import BackendUnavailableError, FixtureMissingError, MalformedDatasetError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)


@dataclass
class ModelRequest:
    prompt: str
    temperature: float = 0.0
    max_output_tokens: int = 512

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(slots=True)
class ModelResponse:
    text: str
    backend_id: str
    cached: bool = False


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ModelBackend:
    """Text-completion contract every backend implements."""

    backend_id = "abstract"
    waits_on_model = False  # True where ``complete`` waits on a live model

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


def _retry_after(response) -> float | None:
    """A numeric ``Retry-After`` header in seconds, or None."""
    try:
        seconds = float(response.headers.get("Retry-After", ""))
    except ValueError:
        return None
    return seconds if 0 <= seconds < float("inf") else None


class HttpBackend(ModelBackend):
    """Retries connection errors, timeouts, 429 and 5xx, with exponential
    backoff or, on 429 and 503, a numeric ``Retry-After`` capped at
    ``request_timeout`` seconds. Any other failure cannot succeed on retry
    and raises ``BackendUnavailableError`` at once, as does a body whose
    bytes ``decode_json`` refuses, whatever charset it declares, or whose
    ``content`` is not a string (null for a refusal or a tool call): it is no
    text to extract SQL from or to record."""

    waits_on_model = True

    def __init__(self, config: HttpBackendConfig, session: requests.Session | None = None):
        import requests

        self.config = config
        self.backend_id = f"http:{config.model}"
        self._session = session or requests.Session()

    def complete(self, request: ModelRequest) -> ModelResponse:
        import requests  # loaded by __init__: a lookup in sys.modules

        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        url = self.config.base_url.rstrip("/") + "/chat/completions"

        attempts = self.config.max_retries + 1
        last_error: object = None
        wait = 0.0
        for attempt in range(attempts):
            if attempt:
                time.sleep(wait)
            wait = self.config.backoff_seconds * (2 ** attempt)
            try:
                response = self._session.post(
                    url, json=body, headers=headers, timeout=self.config.request_timeout
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
                continue
            except requests.RequestException as exc:
                raise BackendUnavailableError(f"{url}: {exc}") from exc
            status = response.status_code
            if status == 429 or status >= 500:
                last_error = f"status {status}"
                if status in (429, 503):
                    retry_after = _retry_after(response)
                    if retry_after is not None:
                        wait = min(retry_after, self.config.request_timeout)
                continue
            if status >= 400:
                raise BackendUnavailableError(f"{url}: status {status}, not retried")
            try:
                text = decode_json(response.content, url)["choices"][0]["message"]["content"]
            except (MalformedDatasetError, LookupError, TypeError) as exc:
                reason = exc.__cause__ or exc  # a decoding error's own reason
                raise BackendUnavailableError(f"{url}: malformed response: {reason!r}") from exc
            if not isinstance(text, str):
                raise BackendUnavailableError(
                    f"{url}: malformed response: content is {text!r:.40}, not a string"
                )
            return ModelResponse(text=text, backend_id=self.backend_id)
        raise BackendUnavailableError(
            f"{url}: no successful response after {attempts} attempts: {last_error}"
        )


def _record_problem(record: object) -> str | None:
    """What makes a decoded store line not a replay record, or None."""
    if not isinstance(record, dict):
        return f"expected a JSON object, not {record!r:.40}"
    for key in ("prompt_sha256", "response_text"):
        if not isinstance(record.get(key), str):
            return f"{key} must be a string, not {record.get(key)!r:.40}"
    backend_id = record.get("backend_id")
    if not isinstance(backend_id, str | None):
        return f"backend_id must be a string or null, not {backend_id!r:.40}"
    return None


class ReplayStore:
    """JSON-lines store of {prompt_sha256, prompt_text, response_text,
    backend_id} records, keyed by prompt hash. Append-only while recording.
    It is read a line at a time, and a line ends at ``"\n"`` only; each is
    taken or refused as ``json.loads`` takes its bytes.

    A last line with no newline after it that is not JSON is a write cut
    short, as a killed recording leaves: it is skipped with a warning and
    cut off before the next append. Any other line that is not JSON, and
    any line whose ``prompt_sha256`` or ``response_text`` is not a string or
    whose ``backend_id`` is neither a string nor absent or null, raises
    ``MalformedDatasetError`` naming it.

    Only what ``get`` answers is held in memory: the response text and the
    backend id of each hash, not the prompt text.

    The first append opens the file with ``O_APPEND``, and it stays open
    until ``close``. Each line goes out in one ``os.write`` of its bytes,
    repeated only for what a short write left, so a killed recording leaves
    at most one torn last line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[str, tuple[str, str | None]] = {}
        self._lock = threading.Lock()
        self._torn_at: int | None = None  # byte offset of a torn last line
        self._unterminated = False  # the last line is whole but lacks "\n"
        self._fd: int | None = None  # the file, opened for appending by an append
        self._closer: weakref.finalize | None = None  # closes it with the store
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        offset = 0
        last = "\n"
        # Text lines, split at "\n" only, as bytes would be. A line that this
        # store wrote is ASCII and starts '{"', and json.loads reads it as
        # text as it would read its bytes, with no blank-line test, encoding
        # guess or second decoding. Any other line goes back to its bytes, so
        # that a blank line, an undecodable byte, a byte-order mark or another
        # encoding is taken or refused as before.
        with self.path.open(encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
            for number, line in enumerate(handle, 1):
                start, last = offset, line
                if line.startswith('{"') and line.isascii():
                    offset += len(line)
                    text = line
                else:
                    text = line.encode("utf-8", "surrogateescape")
                    offset += len(text)
                    if not text.strip():
                        continue
                try:
                    record = decode_json(text, self.path, number)
                except MalformedDatasetError as exc:
                    if line.endswith("\n"):
                        raise MalformedDatasetError(
                            f"{self.path}: line {number} is not a replay record: {exc.__cause__}"
                        ) from exc
                    logger.warning(
                        "%s: skipping torn last line (%d bytes); it is cut off before the next append",
                        self.path, offset - start,
                    )
                    self._torn_at = start
                    continue
                problem = _record_problem(record)
                if problem:
                    raise MalformedDatasetError(
                        f"{self.path}: line {number} is not a replay record: {problem}"
                    )
                self._records[record["prompt_sha256"]] = (
                    record["response_text"], record.get("backend_id")
                )
        self._unterminated = not last.endswith("\n") and self._torn_at is None

    def __len__(self) -> int:
        return len(self._records)

    def get(self, prompt_hash: str) -> dict | None:
        """``{"response_text", "backend_id"}`` for a recorded hash; the
        backend id is None if its line had none."""
        kept = self._records.get(prompt_hash)
        return None if kept is None else dict(zip(("response_text", "backend_id"), kept))

    def append(self, prompt: str, response_text: str, backend_id: str) -> dict:
        record = {
            "prompt_sha256": prompt_sha256(prompt),
            "prompt_text": prompt,
            "response_text": response_text,
            "backend_id": backend_id,
        }
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self._records[record["prompt_sha256"]] = (response_text, backend_id)
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                self._closer = weakref.finalize(self, os.close, self._fd)
                if self._torn_at is not None:
                    os.ftruncate(self._fd, self._torn_at)
                elif self._unterminated:
                    line = b"\n" + line
                self._torn_at, self._unterminated = None, False
            unwritten = memoryview(line)
            while unwritten:
                unwritten = unwritten[os.write(self._fd, unwritten):]
        return record

    def close(self) -> None:
        """Close the file appends write to, if open; the next append opens
        it again. A store that is not closed closes it when collected."""
        with self._lock:
            if self._closer is not None:
                self._closer()
                self._fd = self._closer = None


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
            backend_id=record["backend_id"] or self.backend_id,
            cached=True,
        )


class RecordingBackend(ModelBackend):
    """Serve from the store when possible, otherwise delegate and record.

    Workers sending the same prompt take turns on one lock per prompt hash,
    so the prompt is sent to the inner backend and recorded once; different
    prompts never wait on each other. A lock is dropped from the table once
    its prompt is recorded: a worker still waiting on it then finds the
    record, and one that comes later needs no turn."""

    waits_on_model = True

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
            if record is None:
                # A failed completion raises here and keeps its lock.
                response = self.inner.complete(request)
                self.store.append(request.prompt, response.text, response.backend_id)
            else:
                response = ModelResponse(
                    text=record["response_text"],
                    backend_id=record["backend_id"] or self.inner.backend_id,
                    cached=True,
                )
        with self._prompt_locks_guard:
            self._prompt_locks.pop(digest, None)
        return response
