"""The question tokenizer as it stood before its one-regex form: the
property tests hold ``alignment.tokenize_question`` to this copy."""

from __future__ import annotations

from sqlmend.errors import EmptyInputError

_EDGE_PUNCTUATION = set(",.?!;:\"'")


def tokenize_question(question: str) -> list[str]:
    """Whitespace-split a question, peeling leading/trailing punctuation into
    separate tokens; numbers with internal commas (``5,000``) stay whole."""
    if not question or not question.strip():
        raise EmptyInputError("cannot tokenize an empty question")
    tokens: list[str] = []
    for chunk in question.split():
        leading: list[str] = []
        trailing: list[str] = []
        while chunk and chunk[0] in _EDGE_PUNCTUATION:
            leading.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in _EDGE_PUNCTUATION:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(leading)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens
