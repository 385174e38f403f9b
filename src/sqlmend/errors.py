"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SqlMendError(Exception):
    """Base class for every error raised by this package."""


class MalformedDatasetError(SqlMendError):
    """An input file does not follow the expected layout."""


class SchemaIntegrityError(SqlMendError):
    """A schema references tables or columns that do not exist."""


class EmptyInputError(SqlMendError):
    """An operation received empty text where content is required."""


class TokenizationError(SqlMendError):
    """SQL text could not be tokenized."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class AlignmentParseError(SqlMendError):
    """Model output contained no decodable alignment list."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class ScoringError(SqlMendError):
    """Two alignments cannot be scored against each other."""


class EmptyPoolError(SqlMendError):
    """The demonstration pool is empty."""


class BackendUnavailableError(SqlMendError):
    """The model backend failed after exhausting retries."""


class FixtureMissingError(SqlMendError):
    """Replay store has no record for a prompt hash."""

    def __init__(self, prompt_sha256: str):
        super().__init__(f"no recorded response for prompt {prompt_sha256}")
        self.prompt_sha256 = prompt_sha256


class PromptConstructionError(SqlMendError):
    """A prompt template could not be filled from the given context."""


class SqlExtractionError(SqlMendError):
    """No SQL statement could be extracted from model output."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class ContractViolationError(SqlMendError):
    """An operation was called outside its stated contract."""


class EvaluationError(SqlMendError):
    """Trace file and dataset do not describe the same run."""
