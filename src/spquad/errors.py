"""Exception types shared across the package.

Every error raised by the library derives from :class:`SpquadError` and
each concrete one from exactly one category: :class:`OdeSyntaxError`,
:class:`UsageError`, :class:`DomainError` or :class:`NumericError`, which
the CLI maps to exit codes 2, 2, 3 and 4 without matching on message text.
Parse-time errors carry a :class:`~spquad.parse.SourceSpan`.
"""

from __future__ import annotations


class SpquadError(Exception):
    """Base class for all library errors."""


# --- parse errors -----------------------------------------------------------

class OdeSyntaxError(SpquadError):
    """Malformed input text; ``.span`` locates the offending fragment."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class DuplicateEquation(OdeSyntaxError):
    """The same left-hand side index was defined twice."""


class BadExponent(OdeSyntaxError):
    """Rational exponent with zero denominator."""


class NonSquare(OdeSyntaxError):
    """Frame matrix rows of unequal length or not square."""


# --- usage errors -----------------------------------------------------------

class UsageError(SpquadError):
    """An option, as a flag or a ``--config`` value, is missing, malformed or
    beyond its budget, or a file the command line names cannot be used."""


# --- domain errors ----------------------------------------------------------

class DomainError(SpquadError):
    """A generalized power such as x_i^{-1} is undefined where it is needed."""


class InvalidProjection(DomainError):
    """A retained monomial carries a negative exponent on a dropped index."""


class EmptySystem(DomainError):
    """Quadratization of a system with no monomials at all."""


class DomainViolation(DomainError):
    """A generalized power is undefined at the requested point."""


class ZeroComponent(DomainError):
    """An initial-value component is zero; the coefficient formulas need x_i != 0."""


class DomainExit(DomainError):
    """A trajectory component reached zero, leaving the valid domain."""


# --- numeric errors ---------------------------------------------------------

class NumericError(SpquadError):
    """A value is not finite, or a budget of steps or radius ran out."""


class OutOfRadius(NumericError):
    """Envelope bound requested outside the guaranteed convergence interval."""


class StepLimit(NumericError):
    """Analytic continuation exceeded the recenter-step budget."""


class Divergence(NumericError):
    """A computed value became non-finite."""


class Blowup(NumericError):
    """Reference integration or the coordinate map produced a non-finite
    state."""


class EmptyWindow(NumericError):
    """Comparison window contains no trajectory samples."""
