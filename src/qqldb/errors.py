"""Exception hierarchy shared by the engine, the query language and the shell."""


class QqlError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(QqlError):
    """Register size exceeds the configured qubit budget, or a count exceeds a
    fixed limit (dense gate size, shots per sample)."""


class ValidationError(QqlError):
    """A matrix failed its unitarity check or a state drifted off unit norm."""


class ImpossibleOutcomeError(QqlError):
    """Post-selection requested an outcome whose probability is below epsilon."""


class SchemaError(QqlError):
    """A predicate or record does not fit the active table schema."""


class QqlSyntaxError(QqlError):
    """Lexical or grammatical error in query text, with source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class CompileError(QqlError):
    """A parsed statement cannot be bound against the current session."""


class SessionFormatError(QqlError):
    """A session file cannot be read or written, is malformed, or has an
    unsupported version header."""
