"""Exception types shared across the package.

Every error raised by the library derives from :class:`SpquadError`, so
callers (and the CLI) can map failures to exit codes without matching on
message text.  Parse-time errors carry a :class:`~spquad.parse.SourceSpan`.
"""

from __future__ import annotations


class SpquadError(Exception):
    """Base class for all library errors."""


# --- structural / domain errors -------------------------------------------

class ContradictoryDomain(SpquadError):
    """Domain intersection came out empty (internal inconsistency)."""


class InvalidProjection(SpquadError):
    """A retained monomial carries a negative exponent on a dropped index."""


class EmptySystem(SpquadError):
    """Quadratization of a system with no monomials at all."""


class DomainViolation(SpquadError):
    """A generalized power is undefined at the requested point."""


# --- series engine errors ---------------------------------------------------

class ZeroComponent(SpquadError):
    """An initial-value component is zero; the coefficient formulas need x_i != 0."""


class OrderBudget(SpquadError):
    """A truncated coefficient jet cannot supply the needed derivative order."""


class OutOfRadius(SpquadError):
    """Envelope bound requested outside the guaranteed convergence interval."""


class DomainExit(SpquadError):
    """A trajectory component reached zero, leaving the valid domain."""


class StepLimit(SpquadError):
    """Analytic continuation exceeded the recenter-step budget."""


class Divergence(SpquadError):
    """A computed value became non-finite."""


class MixedCenters(SpquadError):
    """Series with different expansion centers were combined."""


# --- oracle errors ----------------------------------------------------------

class Blowup(SpquadError):
    """Reference integration or the coordinate map produced a non-finite
    state."""


class EmptyWindow(SpquadError):
    """Comparison window contains no trajectory samples."""


# --- command-line errors ----------------------------------------------------

class UsageError(SpquadError):
    """A file the command line names cannot be read or written, or a
    ``--config`` file is not a JSON object of valid option values."""


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
