"""Shared exception types."""

from __future__ import annotations


class VarsmoothError(Exception):
    """Base class for package errors."""


class RingMismatchError(VarsmoothError):
    """Operands live in different polynomial rings."""


class DegreeOverflowError(VarsmoothError):
    """A monomial exponent left the packed-representation range."""


class NonHomogeneousError(VarsmoothError):
    """A projective operation received a non-homogeneous polynomial."""


class SingularMatrixError(VarsmoothError):
    """A linear change of coordinates was not invertible."""


class ContractError(VarsmoothError):
    """An internal precondition was violated (corrupted chart state)."""


class DegenerateGeneratorError(VarsmoothError):
    """A generator handed to the singular-locus construction already lies
    in the ambient ideal."""


class DescentError(VarsmoothError):
    """Chart descent could not produce a covering (diagnostic)."""


class LimitExceededError(VarsmoothError):
    """A configured resource limit (time, basis size) was exhausted."""

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        super().__init__(f"limit exceeded: {which}" + (f" ({detail})" if detail else ""))


class ParseError(VarsmoothError):
    """Ideal-file syntax or header error, with position information."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")
