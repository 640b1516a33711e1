"""Generalized-polynomial ODE systems and their structural analysis.

A system here is first order and written component-wise as

    dx_i/dt = sum_l  v_{i,l}(t) * X_{i,l}(x),      X_{i,l}(x) = prod_j x_j^{p_{i,j}^l}

where the exponents p may be arbitrary reals.  The right-hand sides are
"formal polynomials": polynomial writing, real exponents.  This module holds
the data model (:class:`Monomial`, :class:`SigmaPiOde`) and the structural
operations: domain classification, criticality/singularity detection,
projection onto a coordinate hyperplane, and the global decomposition into
regular stages.

Component indices are 1-based throughout, matching the text format.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainViolation, InvalidProjection


def trimmed(coeffs: list) -> list:
    """``coeffs`` without its trailing zeros; the first one is kept."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0.0:
        n -= 1
    return coeffs[:n]


def time_coefficient(value) -> tuple[float, ...]:
    """A number or a sequence (c0, ..., cM) of the powers of t - center as
    the tuple of floats a system stores: -0.0 folded to 0.0 and trailing
    zeros trimmed, so equality and zero tests are canonical."""
    if isinstance(value, (int, float)):   # a constant, without numpy
        return (float(value) + 0.0,)
    coeffs = (np.asarray(value, dtype=float).reshape(-1) + 0.0).tolist()
    return tuple(trimmed(coeffs)) or (0.0,)


def horner(coeffs, u: float) -> float:
    """c0 + c1*u + ... + cM*u**M by Horner's rule, from 0.0 and the highest
    power down: the one evaluation of a time coefficient."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def real_pow(base: float, value: float, rational: Fraction | None = None) -> float:
    """Evaluate ``base ** value`` for generalized (real) exponents.

    Negative bases are only defined for integer exponents or exact rationals
    with odd denominator; zero bases need ``value > 0`` (or == 0, giving 1).
    Raises :class:`DomainViolation` otherwise.
    """
    if value == 0.0:
        return 1.0
    if base > 0.0:
        return math.pow(base, value)
    if base == 0.0:
        if value > 0.0:
            return 0.0
        raise DomainViolation("zero base with negative exponent")
    # negative base
    if value == int(value):
        return math.pow(base, int(value))
    if rational is not None and rational.denominator % 2 == 1:
        mag = math.pow(-base, value)
        return -mag if rational.numerator % 2 == 1 else mag
    raise DomainViolation(
        f"negative base {base} with non-integer exponent {value}")


def _coerce_exponent(p) -> tuple[float, Fraction | None]:
    """Map an exponent literal to (float value, exact rational or None).

    Integers and Fractions are exact; integer-valued floats are treated as
    exact integers; other floats are conservatively non-rational (their
    domain is classified as if the exponent were irrational).
    """
    if isinstance(p, Fraction):
        return float(p), p
    if isinstance(p, int):
        return float(p), Fraction(p)
    v = float(p)
    if v.is_integer():
        return v, Fraction(int(v))
    return v, None


class Monomial:
    """Sparse product ``prod_j x_j ** p_j`` over 1-based component indices.

    Exponents may be ints, floats or :class:`fractions.Fraction`; exact
    rationals keep their arithmetic form, which drives the domain
    classification.  Zero exponents are dropped (canonical sparsity); the
    empty monomial is the constant 1.
    """

    __slots__ = ("_items",)

    def __init__(self, exponents: Mapping[int, object] | None = None):
        items = []
        for j, p in sorted((exponents or {}).items()):
            j = int(j)
            if j < 1:
                raise ValueError(f"component index must be >= 1, got {j}")
            value, rat = _coerce_exponent(p)
            if value == 0.0:
                continue
            items.append((j, value, rat))
        object.__setattr__(self, "_items", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def one(cls) -> "Monomial":
        return cls({})

    @property
    def exponents(self) -> dict[int, float]:
        return {j: v for j, v, _ in self._items}

    def items(self):
        """Iterate (index, value, exact rational or None)."""
        return iter(self._items)

    def indices(self) -> tuple[int, ...]:
        return tuple(j for j, _, _ in self._items)

    def exponent(self, j: int) -> float:
        for jj, v, _ in self._items:
            if jj == j:
                return v
        return 0.0

    def rational(self, j: int) -> Fraction | None:
        for jj, v, r in self._items:
            if jj == j:
                return r
        return Fraction(0)

    def max_index(self) -> int:
        return self._items[-1][0] if self._items else 0

    def evaluate(self, x: Sequence[float]) -> float:
        """Value at the point ``x`` (0-based array for 1-based indices)."""
        out = 1.0
        for j, v, rat in self._items:
            out *= real_pow(float(x[j - 1]), v, rat)
        return out

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        if not self._items:
            return "Monomial(1)"
        parts = []
        for j, v, rat in self._items:
            if rat is not None and rat.denominator != 1:
                parts.append(f"x{j}^({rat})")
            elif v == int(v):
                parts.append(f"x{j}^{int(v)}" if v != 1 else f"x{j}")
            else:
                parts.append(f"x{j}^{v}")
        return "Monomial(" + "*".join(parts) + ")"


class SigmaPiOde:
    """A generalized-polynomial ODE: per-equation lists of (coefficient, monomial).

    ``equations[i]`` (0-based list position for equation i+1) is an ordered
    tuple of ``(coefficient, Monomial)`` pairs; an empty tuple encodes the
    zero equation.  A coefficient is the tuple (c0, ..., cM) of the time
    polynomial c0 + c1*(t - center) + ... + cM*(t - center)**M, as
    :func:`time_coefficient` stores it; every term shares the system's one
    ``center``.  The constructor takes a number or a sequence of numbers
    per coefficient.  ``n == 0`` is allowed and represents the fully
    projected zero system produced by the decomposition cascade.

    :meth:`rhs` and the RK4 loop that :func:`~spquad.oracle.rk4`
    generates read a form built once, at construction: per term the
    coefficient (a float when constant, else its tuple) and the monomial's
    ``(0-based index, exponent, exact rational or None)`` factors.
    """

    __slots__ = ("n", "equations", "center", "_terms")

    def __init__(self, n: int, equations: Sequence[Sequence] = (),
                 center: float = 0.0):
        n = int(n)
        if n < 0:
            raise ValueError("n must be >= 0")
        eqs = []
        for i in range(n):
            row = equations[i] if i < len(equations) else ()
            terms = []
            for coeff, mono in row:
                if not isinstance(mono, Monomial):
                    mono = Monomial(mono)
                if mono.max_index() > n:
                    raise ValueError(
                        f"equation {i + 1} references x{mono.max_index()} "
                        f"but n = {n}")
                terms.append((time_coefficient(coeff), mono))
            eqs.append(tuple(terms))
        if len(equations) > n:
            raise ValueError("more equations than indeterminates")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "equations", tuple(eqs))
        object.__setattr__(self, "center", float(center))
        object.__setattr__(self, "_terms", tuple(
            tuple((coeff[0] if len(coeff) == 1 else coeff,
                   tuple((j - 1, value, rat) for j, value, rat in mono.items()))
                  for coeff, mono in eq)
            for eq in eqs))

    def __setattr__(self, name, value):
        raise AttributeError("SigmaPiOde is immutable")

    def nu(self, i: int) -> int:
        """Number of monomials in equation i (1-based)."""
        return len(self.equations[i - 1])

    def terms(self, i: int):
        return self.equations[i - 1]

    @property
    def is_zero_system(self) -> bool:
        return all(len(eq) == 0 for eq in self.equations)

    def rhs(self, t: float, x: Sequence[float]) -> np.ndarray:
        """Evaluate the right-hand side at (t, x), summing terms in order."""
        xs = np.asarray(x, dtype=float).tolist()
        u = float(t) - self.center
        out = []
        for terms in self._terms:
            acc = 0.0
            for coeff, powers in terms:
                mono = 1.0
                for j, value, rat in powers:
                    mono *= real_pow(xs[j], value, rat)
                acc += (coeff if type(coeff) is float
                        else horner(coeff, u)) * mono
            out.append(acc)
        return np.array(out)

    def __eq__(self, other):
        if not isinstance(other, SigmaPiOde):
            return NotImplemented
        return (self.n == other.n and self.center == other.center
                and self.equations == other.equations)

    def __hash__(self):
        return hash((self.n, self.center, self.equations))

    def __repr__(self):
        return f"SigmaPiOde(n={self.n}, nu={[len(e) for e in self.equations]})"


# --------------------------------------------------------------------------
# domain classification
# --------------------------------------------------------------------------

class DomainClass(enum.Enum):
    """Per-index constraint implied by all exponents on that index."""

    UNRESTRICTED = "unrestricted"          # x_j free
    CLOSED_POSITIVE = "closed-positive"    # x_j >= 0 definedness, x_j > 0 open domain
    OPEN_POSITIVE = "open-positive"        # x_j > 0
    NONZERO = "nonzero"                    # x_j != 0


# (allows negative values, allows zero)
_CLASS_BITS = {
    DomainClass.UNRESTRICTED: (True, True),
    DomainClass.CLOSED_POSITIVE: (False, True),
    DomainClass.OPEN_POSITIVE: (False, False),
    DomainClass.NONZERO: (True, False),
}
_BITS_CLASS = {v: k for k, v in _CLASS_BITS.items()}


def _exponent_case(value: float, rational: Fraction | None) -> DomainClass:
    """The definedness region of x ** p, one of the four canonical cases."""
    if rational is not None and rational.denominator % 2 == 1:
        return DomainClass.UNRESTRICTED if value >= 0 else DomainClass.NONZERO
    # irrational (or conservatively treated as such) or even denominator
    return DomainClass.CLOSED_POSITIVE if value > 0 else DomainClass.OPEN_POSITIVE


@dataclass(frozen=True)
class DomainDescriptor:
    """Where the system lives: per-index classes plus the open-domain shape.

    The open domain is the macro-orthant ``x_j > 0`` over ``macro_orthant``
    indices with the hyperplanes ``x_j = 0`` removed for ``removed_hyperplanes``
    indices (positivity already removes its own hyperplane).
    """

    classes: tuple[DomainClass, ...]
    macro_orthant: tuple[int, ...]
    removed_hyperplanes: tuple[int, ...]

    def domain_class(self, j: int) -> DomainClass:
        return self.classes[j - 1]

    def contains(self, x: Sequence[float]) -> bool:
        """Membership of x in the open system domain."""
        for j, cls in enumerate(self.classes, start=1):
            v = float(x[j - 1])
            if cls in (DomainClass.CLOSED_POSITIVE, DomainClass.OPEN_POSITIVE):
                if v <= 0.0:
                    return False
            elif cls is DomainClass.NONZERO and v == 0.0:
                return False
        return True


@dataclass(frozen=True)
class StructureReport:
    """Criticality and singularity index sets."""

    criticality: frozenset[int]
    singularity: frozenset[int]

    @property
    def nonsingular_criticality(self) -> frozenset[int]:
        return self.criticality - self.singularity

    @property
    def is_regular(self) -> bool:
        return not self.singularity


def _domain_classes(ode: SigmaPiOde,
                    inherited: Mapping[int, DomainClass] | None = None
                    ) -> list[DomainClass]:
    """Per-index class: the intersection of the cases of all exponents on
    the index, narrowed by the classes ``inherited`` assigns to selected
    indices.  Every pair of (allows negative, allows zero) bits names one
    of the four classes, so the intersection is never empty."""
    neg = [True] * ode.n
    zero = [True] * ode.n
    cases = [(j, _exponent_case(value, rat))
             for eq in ode.equations for _, mono in eq
             for j, value, rat in mono.items()]
    cases += (inherited or {}).items()
    for j, cls in cases:
        cneg, czero = _CLASS_BITS[cls]
        neg[j - 1] &= cneg
        zero[j - 1] &= czero
    return [_BITS_CLASS[bits] for bits in zip(neg, zero)]


def analyze_domain(ode: SigmaPiOde) -> DomainDescriptor:
    """Classify every index by intersecting the definedness cases of all
    exponents that mention it."""
    classes = tuple(_domain_classes(ode))
    macro = tuple(j for j, c in enumerate(classes, start=1)
                  if c in (DomainClass.CLOSED_POSITIVE, DomainClass.OPEN_POSITIVE))
    removed = tuple(j for j, c in enumerate(classes, start=1)
                    if c is DomainClass.NONZERO)
    return DomainDescriptor(classes, macro, removed)


def structure(ode: SigmaPiOde,
              inherited: Mapping[int, DomainClass] | None = None) -> StructureReport:
    """Criticality indices (hyperplane x_j = 0 meets the open domain) and
    singularity indices (x_j == 0 solves equation j identically).

    x_j == 0 meets the open domain exactly when every exponent on x_j falls
    in the everywhere-defined case, i.e. the index is unrestricted.  It
    solves equation j when each term there vanishes at x_j = 0: the
    coefficient is identically zero or x_j appears with positive exponent.

    ``inherited`` narrows the domain of selected indices before the test;
    the decomposition cascade uses it because projecting a system does not
    relax the constraints the deleted monomials imposed.
    """
    return _structure(ode, _domain_classes(ode, inherited))


def _structure(ode: SigmaPiOde, classes: list[DomainClass]) -> StructureReport:
    """:func:`structure` from the per-index domain classes."""
    crit = frozenset(j for j, c in enumerate(classes, start=1)
                     if c is DomainClass.UNRESTRICTED)
    sing = set()
    for j in crit:
        ok = True
        for coeff, mono in ode.terms(j):
            if not any(coeff):
                continue
            if mono.exponent(j) > 0.0:
                continue
            ok = False
            break
        if ok:
            sing.add(j)
    return StructureReport(crit, frozenset(sing))


def project(ode: SigmaPiOde, drop: Iterable[int]) -> tuple[SigmaPiOde, dict[int, int]]:
    """Set ``x_j = 0`` for j in ``drop`` and delete those equations.

    Terms whose monomial carries a positive exponent on a dropped index
    vanish; a negative exponent there makes the projection undefined and
    raises :class:`InvalidProjection`.  Returns the reduced system plus the
    dense renumbering map (old index -> new index).
    """
    drop = frozenset(int(j) for j in drop)
    for j in drop:
        if not 1 <= j <= ode.n:
            raise ValueError(f"cannot drop x{j}: out of range")
    keep = [j for j in range(1, ode.n + 1) if j not in drop]
    renumber = {old: new for new, old in enumerate(keep, start=1)}
    equations = []
    for old in keep:
        terms = []
        for coeff, mono in ode.terms(old):
            vanishes = False
            new_exps: dict[int, object] = {}
            for j, value, rat in mono.items():
                if j in drop:
                    if value < 0.0:
                        raise InvalidProjection(
                            f"x{j}^{value} in equation {old} is undefined at "
                            f"x{j} = 0")
                    vanishes = True
                    break
                new_exps[renumber[j]] = rat if rat is not None else value
            if not vanishes:
                terms.append((coeff, Monomial(new_exps)))
        equations.append(terms)
    return SigmaPiOde(len(keep), equations, ode.center), renumber


@dataclass(frozen=True)
class DecompositionStage:
    """One stage of the regular/singular cascade.

    ``ode`` is the stage system, ``report`` its structure, ``drop`` the
    singularity indices removed to form the next stage (empty on the
    terminal stage), and ``to_original`` maps this stage's indices back to
    the indices of the system the cascade started from.
    """

    ode: SigmaPiOde
    report: StructureReport
    drop: frozenset[int]
    to_original: dict[int, int]


def decompose_global(ode: SigmaPiOde) -> list[DecompositionStage]:
    """Peel singular parts until the remaining system is regular or zero.

    Each non-terminal stage projects away all of its singularity indices,
    strictly reducing dimension, so the chain has at most n + 1 stages.
    ``drop`` sets are reported in the original numbering.  Later stages keep
    the domain constraints accumulated upstream: deleting a monomial while
    projecting does not re-admit the points it excluded.
    """
    stages: list[DecompositionStage] = []
    current = ode
    to_orig = {j: j for j in range(1, ode.n + 1)}
    inherited: dict[int, DomainClass] = {}
    while True:
        classes = _domain_classes(current, inherited)
        report = _structure(current, classes)
        if current.is_zero_system or not report.singularity:
            stages.append(DecompositionStage(
                current, report, frozenset(), dict(to_orig)))
            return stages
        drop_orig = frozenset(to_orig[j] for j in report.singularity)
        stages.append(DecompositionStage(
            current, report, drop_orig, dict(to_orig)))
        current, renumber = project(current, report.singularity)
        inherited = {new: classes[old - 1] for old, new in renumber.items()}
        back = {new: old for old, new in renumber.items()}
        to_orig = {new: to_orig[back[new]] for new in back}
