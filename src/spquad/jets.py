"""Truncated polynomial time coefficients ("jets").

A :class:`TimeJet` represents an analytic time coefficient by the polynomial

    c0 + c1*(t - center) + c2*(t - center)**2 + ... + cM*(t - center)**M

When ``exact`` is true the polynomial IS the coefficient (derivatives of all
orders are available, eventually zero).  When ``exact`` is false the
polynomial is a truncation of some analytic function and only the first
``valid_order + 1`` coefficients are trustworthy.  That budget is data: a
frame reports its smallest one (``QuadraticFrame.min_valid_order``), and
:func:`~spquad.series.taylor` and :func:`~spquad.series.coefficient_tensors`
raise :class:`~spquad.errors.OrderBudget` when it is below the order asked
for.  The series engines compute on the frame's coefficient arrays, so jets
carry no arithmetic beyond scaling and negation.

Jets are immutable; all operations return new instances.  Trailing zero
coefficients are trimmed so equality and zero tests are canonical.
"""

from __future__ import annotations

import numpy as np


def _trim(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0.0:
        n -= 1
    return coeffs[:n]


class TimeJet:
    """Polynomial-in-time coefficient with an exactness flag.

    Parameters
    ----------
    coeffs : sequence of float
        Coefficients ``(c0, c1, ..., cM)`` of powers of ``t - center``.
    center : float
        Reference time the powers are taken around.
    exact : bool
        True when the polynomial is the full coefficient, false when it is
        a truncation of an analytic function.
    valid_order : int, optional
        Number of trustworthy derivative orders for inexact jets; defaults
        to ``len(coeffs) - 1``.  Ignored for exact jets.
    """

    __slots__ = ("coeffs", "center", "exact", "valid_order")

    def __init__(self, coeffs, center: float = 0.0, exact: bool = True,
                 valid_order: int | None = None):
        # the + 0.0 copies (never alias the caller) and folds -0.0 into 0.0
        arr = _trim(np.asarray(coeffs, dtype=float).reshape(-1) + 0.0)
        if arr.size == 0:
            arr = np.zeros(1)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "center", float(center))
        object.__setattr__(self, "exact", bool(exact))
        if exact:
            vo = None
        elif valid_order is None:
            vo = len(coeffs) - 1
        else:
            vo = int(valid_order)
        object.__setattr__(self, "valid_order", vo)

    def __setattr__(self, name, value):
        raise AttributeError("TimeJet is immutable")

    # --- constructors ---

    @classmethod
    def constant(cls, value: float, center: float = 0.0) -> "TimeJet":
        return cls([float(value)], center=center)

    @classmethod
    def zero(cls, center: float = 0.0) -> "TimeJet":
        return cls([0.0], center=center)

    # --- predicates ---

    def is_zero(self) -> bool:
        """True iff every stored coefficient is exactly zero."""
        return bool(np.all(self.coeffs == 0.0))

    def is_constant(self) -> bool:
        return len(self.coeffs) == 1

    @property
    def order(self) -> int:
        """Polynomial order (index of the highest stored power)."""
        return len(self.coeffs) - 1

    # --- arithmetic ---

    def __neg__(self):
        return TimeJet(-self.coeffs, self.center, self.exact,
                       self.valid_order)

    def scale(self, a: float) -> "TimeJet":
        if a == 0.0:
            return TimeJet.zero(self.center)
        return TimeJet(self.coeffs * a, self.center, self.exact,
                       self.valid_order)

    def __call__(self, t: float) -> float:
        u = float(t) - self.center
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * u + c
        return acc

    # --- comparison / display ---

    def __eq__(self, other):
        if not isinstance(other, TimeJet):
            return NotImplemented
        return (self.center == other.center and self.exact == other.exact
                and len(self.coeffs) == len(other.coeffs)
                and bool(np.all(self.coeffs == other.coeffs)))

    def __hash__(self):
        return hash((self.center, self.exact, tuple(self.coeffs)))

    def __repr__(self):
        body = ",".join(repr(float(c)) for c in self.coeffs)
        tags = "" if self.exact else f", exact=False, valid_order={self.valid_order}"
        ctr = "" if self.center == 0.0 else f", center={self.center!r}"
        return f"TimeJet([{body}]{ctr}{tags})"


def as_jet(value, center: float = 0.0) -> TimeJet:
    """Coerce a float or TimeJet into a TimeJet at the given center."""
    if isinstance(value, TimeJet):
        return value
    return TimeJet.constant(float(value), center=center)
