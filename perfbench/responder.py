"""The scripted model: it reads the prompt kind and the question from each
prompt and answers from the per-example plan the generator wrote.

``PacedBackend`` holds any backend to a fixed wall time per completion, so
that the responder's own CPU time is hidden inside it, as a remote model's
would be.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

from sqlmend.backends import ModelBackend, ModelRequest, ModelResponse

_CORRECTION_QUESTION = re.compile(r'to answer the question "(.*?)" (?:based on|with the above)')


def _fenced(sql: str) -> str:
    return f"Here is the query.\n```sql\n{sql}\n```"


class ScriptedResponder(ModelBackend):
    backend_id = "scripted"

    def __init__(self, plans_path: str | Path):
        plans = json.loads(Path(plans_path).read_text(encoding="utf-8"))
        self._by_question = {p["question"]: p for p in plans}
        self._by_tokens = {p["tokens"]: p for p in plans}

    def complete(self, request: ModelRequest) -> ModelResponse:
        return ModelResponse(text=self.respond(request.prompt), backend_id=self.backend_id)

    def respond(self, prompt: str) -> str:
        # The closing question is the last "Question:" line; demonstrations
        # come before it.
        if prompt.startswith("Generate a SQL"):
            return _fenced(self._plan(self._closing_question(prompt))["initial"])
        if prompt.startswith("Align the tokens"):
            tokens = prompt[prompt.rindex("\nQuestion: ") + 11:].split("\nAlignments:")[0]
            return self._by_tokens[tokens]["linking_response"]
        if prompt.startswith("Hallucinate a SQL"):
            return self._plan(self._closing_question(prompt))["skeleton_response"]
        # Every correction prompt, whatever its feedback, gets the gold query.
        match = _CORRECTION_QUESTION.search(prompt)
        if match is None:
            raise KeyError(f"unrecognised prompt: {prompt[:60]!r}")
        return _fenced(self._plan(match.group(1))["gold"])

    @staticmethod
    def _closing_question(prompt: str) -> str:
        return prompt[prompt.rindex("\nQuestion: ") + 11:]

    def _plan(self, question: str) -> dict:
        return self._by_question[question]


class PacedBackend(ModelBackend):
    """Each completion takes ``seconds`` of wall time, or longer if the inner
    backend does."""

    def __init__(self, inner: ModelBackend, seconds: float):
        self.inner = inner
        self.seconds = seconds
        self.backend_id = inner.backend_id

    def complete(self, request: ModelRequest) -> ModelResponse:
        due = time.perf_counter() + self.seconds
        response = self.inner.complete(request)
        remaining = due - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        return response
