"""Shared exception types and the argument checks: an int at or above a floor,
and a finite real number."""

import math
from fractions import Fraction


class DimacsError(ValueError):
    """Raised on malformed DIMACS CNF input.

    Carries the 1-based line number where the problem was found, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration or search exceeds its configured budget."""


class CertificateError(RuntimeError):
    """Raised when a verdict's certificate fails a check made by code other
    than the code that produced it, for example a sat witness that does not
    satisfy its formula."""


class UnsupportedFormulaError(ValueError):
    """Raised when a formula falls outside what an operation supports,
    for example mixed clause widths where a uniform width is required."""


def check_int(value: int, what: str, minimum: int) -> None:
    """Refuse a ``what`` that is not an int >= ``minimum`` (a bool is not an
    int)."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")


def check_real(value, what: str):
    """``value``, if it is an int (not a bool), a Fraction or a finite float;
    ints and Fractions are always finite (and ``math.isfinite`` overflows on
    huge Fractions)."""
    if type(value) not in (int, Fraction, float):
        raise TypeError(f"{what} must be an int, a Fraction or a float, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value
