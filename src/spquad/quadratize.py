"""Exact quadratization of generalized-polynomial ODEs.

The change of variables Z_{i,l} = x_i^{-1} X_{i,l} maps a system with
monomial right-hand sides onto a homogeneous quadratic one:

    dZ_{i,l}/dt = sum_j pi_{i,j}^l (v_j' Z_j) Z_{i,l},     pi = p - delta,
    dx_i/dt     = (v_i' Z_i) x_i,

where the first block (the "driver") is autonomous and the second (the
"final stage") recovers x.  Appending a fictitious 0 * x_i^2 monomial to
every equation that lacks one makes the original states driver coordinates
themselves ("inclusive" form), so the final stage becomes redundant and the
whole system is described by one square matrix V(t) of time polynomials,
the :class:`QuadraticFrame`, which holds it as one coefficient array.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import Blowup, EmptySystem
from .jets import TimeJet, coefficient_lists, jet_repr
from .sigmapi import Monomial, SigmaPiOde


class QuadraticFrame:
    """Square matrix V(t) defining dx_i/dt = (v_i' x) x_i, as one array.

    ``coeffs[l, i, j]`` is the read-only coefficient of (t - center)**l in
    entry (i+1, j+1), with -0.0 stored as 0.0 and no trailing all-zero
    layer.  Rows of numbers and jets take the center of their non-constant
    jets, which must share one, else that of the first entry (0.0 for a
    number).
    """

    __slots__ = ("coeffs", "center")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [list(row) for row in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("frame must be square")
        entries = [e for row in rows for e in row]
        orders = [e.order for e in entries if isinstance(e, TimeJet)]
        coeffs = np.zeros((max(orders, default=0) + 1, len(rows), len(rows)))
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if isinstance(e, TimeJet):
                    coeffs[:e.order + 1, i, j] = e.coeffs
                else:
                    coeffs[0, i, j] = e
        self._fill(coeffs, _center(entries))

    @classmethod
    def _from_coeffs(cls, coeffs, center: float) -> "QuadraticFrame":
        return object.__new__(cls)._fill(coeffs, center)

    def _fill(self, coeffs, center: float) -> "QuadraticFrame":
        """Keep ``coeffs``, in powers of t - ``center``."""
        coeffs = np.asarray(coeffs, dtype=float) + 0.0   # -0.0 folds to 0.0
        layers = np.flatnonzero(coeffs.reshape(len(coeffs), -1).any(axis=1))
        coeffs = coeffs[:layers[-1] + 1 if len(layers) else 1]
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "center", center)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticFrame is immutable")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def jet(self, i: int, j: int) -> TimeJet:
        """Entry v_{i,j} (1-based)."""
        return TimeJet(self.coeffs[:, i - 1, j - 1], self.center)

    @property
    def is_stationary(self) -> bool:
        return len(self.coeffs) == 1

    def constant_matrix(self) -> np.ndarray:
        if not self.is_stationary:
            raise ValueError("frame is not stationary")
        return self.coeffs[0].copy()

    def evaluate(self, t: float) -> np.ndarray:
        """V(t) by Horner's rule; for finite t each entry equals its
        jet(t) bit for bit.  Overflow gives inf without a warning."""
        u = float(t) - self.center
        acc = np.zeros((self.dim, self.dim))
        with np.errstate(over="ignore"):
            for c in self.coeffs[::-1]:
                acc = acc * u + c
        return acc

    def rhs(self, t: float, x: Sequence[float]) -> np.ndarray:
        xv = np.asarray(x, dtype=float)
        return (self.evaluate(t) @ xv) * xv

    def ref(self) -> str:
        """Stable short identifier derived from the frame contents."""
        text = ";".join(",".join(jet_repr(c, self.center) for c in row)
                        for row in coefficient_lists(self.coeffs))
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    def __eq__(self, other):
        if not isinstance(other, QuadraticFrame):
            return NotImplemented
        return (self.center == other.center
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.center, self.coeffs.tobytes()))

    def __repr__(self):
        return f"QuadraticFrame(dim={self.dim}, ref={self.ref()})"


def _center(entries: Sequence) -> float:
    """The center of a frame built from ``entries``, numbers and jets with
    entry (1, 1) first, by the rule :class:`QuadraticFrame` states."""
    centers = [e.center for e in entries
               if isinstance(e, TimeJet) and not e.is_constant()]
    if any(c != centers[0] for c in centers):
        raise ValueError("frame entries must share one center")
    first = entries[0] if entries else 0.0
    centers.append(first.center if isinstance(first, TimeJet) else 0.0)
    return centers[0]


@dataclass(frozen=True)
class Quadratization:
    """Result of quadratizing a system.

    ``source`` is the system the construction actually ran on (for the
    inclusive form this includes the appended fictitious monomials).  The
    driver coordinates are indexed both by the pair (i, l) and by the flat
    position s = alpha_i + l; ``phi`` lists the coordinate monomials in flat
    order.  ``identity`` maps each original index i to the flat coordinate
    equal to x_i when the quadratization is inclusive.  For ``inverse=True``
    the coordinates are the reciprocals W = Z^{-1} and the driver rows carry
    the negated exponent tensor.
    """

    source: SigmaPiOde
    pi: tuple[tuple[dict[int, float], ...], ...]   # pi[i-1][l-1] = {j: pi value}
    phi: tuple[Monomial, ...]                      # flat order
    pairs: tuple[tuple[int, int], ...]             # flat s -> (i, l), 1-based
    driver_dim: int
    inclusive: bool = False
    inverse: bool = False
    identity: dict[int, int] = field(default_factory=dict)

    @property
    def alpha(self) -> tuple[int, ...]:
        """Offsets alpha_i = nu_1 + ... + nu_{i-1}."""
        offs = [0]
        for i in range(1, self.source.n + 1):
            offs.append(offs[-1] + self.source.nu(i))
        return tuple(offs[:-1])

    def flat_index(self, i: int, l: int) -> int:
        """Flattened coordinate s = alpha_i + l (1-based)."""
        return self.alpha[i - 1] + l

    def pair(self, s: int) -> tuple[int, int]:
        return self.pairs[s - 1]


def _pi_row(ode: SigmaPiOde, i: int, mono: Monomial) -> dict[int, float]:
    row = {j: v for j, v, _ in mono.items()}
    row[i] = row.get(i, 0.0) - 1.0
    if row[i] == 0.0:
        del row[i]
    return row


def _phi_monomial(i: int, mono: Monomial, negate: bool = False) -> Monomial:
    """x_i^{-1} * mono (or its reciprocal when ``negate``), exactness kept."""
    exps: dict[int, object] = {}
    for j, value, rat in mono.items():
        exps[j] = rat if rat is not None else value
    prev = exps.get(i, Fraction(0))
    if isinstance(prev, float):
        exps[i] = prev - 1.0
    else:
        exps[i] = prev - 1
    if negate:
        exps = {j: -p for j, p in exps.items()}
    return Monomial(exps)


def quadratize_canonical(ode: SigmaPiOde) -> Quadratization:
    """Driver + final-stage quadratization under Z_{i,l} = x_i^{-1} X_{i,l}."""
    if ode.is_zero_system:
        raise EmptySystem("no monomials to quadratize")
    pi_rows = []
    phi = []
    pairs = []
    for i in range(1, ode.n + 1):
        rows_i = []
        for l, (_, mono) in enumerate(ode.terms(i), start=1):
            rows_i.append(_pi_row(ode, i, mono))
            phi.append(_phi_monomial(i, mono))
            pairs.append((i, l))
        pi_rows.append(tuple(rows_i))
    return Quadratization(
        source=ode, pi=tuple(pi_rows), phi=tuple(phi), pairs=tuple(pairs),
        driver_dim=len(pairs))


def _square_monomial(i: int) -> Monomial:
    return Monomial({i: 2})


def quadratize_inclusive(ode: SigmaPiOde) -> Quadratization:
    """Canonical quadratization after appending 0 * x_i^2 where missing.

    Every original state then appears among the driver coordinates; the
    returned ``identity`` map locates those coordinates so callers can read
    x straight off a driver trajectory.
    """
    square = {i: _square_monomial(i) for i in range(1, ode.n + 1)}
    equations = []
    for i in range(1, ode.n + 1):
        terms = list(ode.terms(i))
        if not any(mono == square[i] for _, mono in terms):
            terms.append((TimeJet.zero(), square[i]))
        equations.append(terms)
    augmented = SigmaPiOde(ode.n, equations)
    q = quadratize_canonical(augmented)
    identity = {}
    for i in range(1, augmented.n + 1):
        for l, (_, mono) in enumerate(augmented.terms(i), start=1):
            if mono == square[i]:
                identity[i] = q.flat_index(i, l)
                break
    return replace(q, inclusive=True, identity=identity)


def add_fictitious_monomial(ode: SigmaPiOde, host: int, q: Monomial) -> SigmaPiOde:
    """Append 0 * q to equation ``host``.

    The solutions do not change, but the quadratization gains the coordinate
    x_host^{-1} q, from which the monomial observable q(x) is recoverable as
    that coordinate times x_host.  Appending x_host * q instead makes q
    itself a coordinate.
    """
    if not 1 <= host <= ode.n:
        raise ValueError(f"host index {host} out of range")
    if q.max_index() > ode.n:
        raise ValueError("fictitious monomial references unknown index")
    equations = [list(ode.terms(i)) for i in range(1, ode.n + 1)]
    equations[host - 1].append((TimeJet.zero(), q))
    return SigmaPiOde(ode.n, equations)


def inverse_driver(ode: SigmaPiOde) -> Quadratization:
    """Quadratization record for the reciprocal coordinates W = Z^{-1}.

    The W dynamics negate the exponent tensor but keep the multipliers
    v_j' Z_j in the original Z coordinates: dW_{i,l}/dt =
    -(sum_j pi_{i,j}^l v_j' Z_j) W_{i,l}.  Consumers see ``inverse=True``
    and know the state is W while Z = W^{-1}.
    """
    q = quadratize_canonical(ode)
    phi_w = tuple(
        _phi_monomial(i, ode.terms(i)[l - 1][1], negate=True)
        for (i, l) in q.pairs)
    return replace(q, phi=phi_w, inverse=True)


def driver_frame(q: Quadratization) -> QuadraticFrame:
    """Flatten the driver block into a frame.

    Entry ((i,l),(j,s)) is pi_{i,j}^l * v_{j,s} (0.0 where pi is 0); for an
    inverse record the rows are negated (and multiply the reciprocal state,
    see :func:`inverse_joint_frame` for a simulatable system).
    """
    sign = -1.0 if q.inverse else 1.0
    jets = [q.source.terms(j)[s - 1][0] for (j, s) in q.pairs]
    pi = np.array([[q.pi[i - 1][l - 1].get(j, 0.0) for (j, _) in q.pairs]
                   for (i, l) in q.pairs])
    columns = np.zeros((max(jet.order for jet in jets) + 1, len(jets)))
    for c, jet in enumerate(jets):
        columns[:jet.order + 1, c] = jet.coeffs
    rows, cols = np.nonzero(pi)
    coeffs = np.zeros((len(columns), len(jets), len(jets)))
    coeffs[:, rows, cols] = sign * pi[rows, cols] * columns[:, cols]
    # entry (1, 1), whose center a constant frame takes, then the jets in use
    first = jets[0] if pi[0, 0] != 0.0 else 0.0
    return QuadraticFrame._from_coeffs(coeffs, _center(
        [first] + [jets[c] for c in sorted(set(cols.tolist()))]))


def inverse_joint_frame(q: Quadratization) -> QuadraticFrame:
    """Frame of the joint (Z, W) system, dimension 2d: the block
    ``[[B, 0], [-B, 0]]`` of the driver frame B.

    Rows 1..d are the driver; rows d+1..2d drive W with the negated rows,
    reading their multipliers off the Z block.  Along trajectories started
    at W = Z^{-1} the products Z_{s} W_{s} stay equal to 1.
    """
    base = driver_frame(replace(q, inverse=False))
    zero = np.zeros_like(base.coeffs)
    return QuadraticFrame._from_coeffs(
        np.block([[base.coeffs, zero], [-base.coeffs, zero]]), base.center)


def phi_eval(q: Quadratization, x: Sequence[float]) -> np.ndarray:
    """Evaluate the coordinate map at x, in flat order.

    Raises :class:`DomainViolation` where a generalized power is undefined
    (zero base with negative exponent, negative base with an exponent that
    is not an integer or odd-denominator rational), and :class:`Blowup`
    where a coordinate is not finite, a power beyond the float range
    included.
    """
    if len(x) != q.source.n:
        raise ValueError(f"expected {q.source.n} components, got {len(x)}")
    z = np.empty(len(q.phi))
    for s, mono in enumerate(q.phi):
        try:
            z[s] = mono.evaluate(x)
        except OverflowError:   # a power beyond the float range
            z[s] = math.inf
        if not math.isfinite(z[s]):
            raise Blowup(f"driver coordinate {s + 1}, {mono!r}, is not "
                          "finite at the initial point")
    return z


def driver_type_ode(frame: QuadraticFrame) -> SigmaPiOde:
    """The quadratic system of a frame written back as monomial equations.

    Equation i carries the n monomials x_i * x_l with coefficients v_{i,l};
    feeding the result to :func:`quadratize_canonical` yields
    pi_{i,j}^l = delta_{l,j}, the self-driver fixed point.
    """
    n = frame.dim
    equations = []
    for i in range(1, n + 1):
        terms = []
        for l in range(1, n + 1):
            exps = {i: 1, l: 1} if l != i else {i: 2}
            terms.append((frame.jet(i, l), Monomial(exps)))
        equations.append(terms)
    return SigmaPiOde(n, equations)
