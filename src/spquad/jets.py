"""Polynomial time coefficients ("jets").

A :class:`TimeJet` is a time coefficient given by the polynomial

    c0 + c1*(t - center) + c2*(t - center)**2 + ... + cM*(t - center)**M

The polynomial IS the coefficient: the ``.spode`` and ``.frame`` grammars
have numbers and ``poly(...)`` literals only, so every derivative order is
available (eventually zero).  A frame is one coefficient array, not jets,
so jets carry no arithmetic beyond negation.

Jets are immutable; all operations return new instances.  Trailing zero
coefficients are trimmed so equality and zero tests are canonical.
"""

from __future__ import annotations

import numpy as np


def _trim(coeffs):
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0.0:
        n -= 1
    return coeffs[:n]


class TimeJet:
    """Polynomial-in-time coefficient.

    Parameters
    ----------
    coeffs : sequence of float
        Coefficients ``(c0, c1, ..., cM)`` of powers of ``t - center``.
    center : float
        Reference time the powers are taken around.
    """

    __slots__ = ("coeffs", "center")

    def __init__(self, coeffs, center: float = 0.0):
        # the + 0.0 copies (never alias the caller) and folds -0.0 into 0.0
        arr = _trim(np.asarray(coeffs, dtype=float).reshape(-1) + 0.0)
        if arr.size == 0:
            arr = np.zeros(1)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "center", float(center))

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
        return TimeJet(-self.coeffs, self.center)

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
        return (self.center == other.center
                and len(self.coeffs) == len(other.coeffs)
                and bool(np.all(self.coeffs == other.coeffs)))

    def __hash__(self):
        return hash((self.center, tuple(self.coeffs)))

    def __repr__(self):
        return jet_repr(self.coeffs, self.center)


def jet_repr(coeffs, center: float = 0.0):
    """``TimeJet([c0,...], center=...)``, the center left out at 0.0."""
    body = ",".join(repr(float(c)) for c in coeffs)
    ctr = "" if center == 0.0 else f", center={center!r}"
    return f"TimeJet([{body}]{ctr})"


def coefficient_lists(coeffs: np.ndarray) -> list[list[list[float]]]:
    """The entries of an ``(L+1, m, m)`` coefficient array as m rows of m
    coefficient lists, each trimmed as a jet's coefficients are."""
    return [[_trim(c) for c in row]
            for row in coeffs.transpose(1, 2, 0).tolist()]
