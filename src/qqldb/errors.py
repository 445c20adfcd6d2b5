"""Exception hierarchy shared by the engine, the query language and the shell,
:func:`as_int`, the package's one reader of an integer from a caller, and
:func:`as_probability`, its reader of a probability floor."""

import numbers
import operator

import numpy as np


class QqlError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(QqlError):
    """Register size exceeds the configured qubit budget, or a count exceeds a
    fixed limit (dense gate size, shots per sample)."""


class ValidationError(QqlError):
    """A matrix failed its unitarity check or a state drifted off unit norm."""


class ImpossibleOutcomeError(QqlError):
    """Post-selection requested an outcome whose probability is below epsilon."""


class ArgumentError(QqlError, ValueError):
    """A statement's argument is out of its range or does not fit the records
    already present: an INSERT count or record list, a shot count.  Also a
    ValueError, so a caller that catches ValueError still catches it."""


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


def as_int(value, what: str) -> int:
    """``value``, a count, index, qubit, width or literal from a caller, as
    an int by ``operator.index``; anything else, a ``bool`` and a
    ``numpy.bool_`` included (``operator.index`` takes ``True`` as 1), is
    refused with :class:`ArgumentError`, which names the value ``what``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ArgumentError(f"{what} {value!r} is not an integer")


def as_probability(value, what: str) -> float:
    """``value``, a probability floor from a caller, as a float: a finite
    real number from 0 to 1.  An integral value is read by :func:`as_int`,
    so ``bool`` and ``numpy.bool_`` are refused, as are strings, ``None``,
    NaN and the infinities, with :class:`ArgumentError`."""
    try:
        real = as_int(value, what) if isinstance(value, numbers.Integral) else value
    except ArgumentError:  # a bool
        real = None
    if isinstance(real, numbers.Real) and 0 <= real <= 1:
        return float(real)
    raise ArgumentError(f"{what} {value!r} is not a real number from 0 to 1")
