"""Shared fixtures: worked systems from the write-ups and random generators."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import numpy as np

import spquad as sq


# --------------------------------------------------------------------------
# hand-built systems
# --------------------------------------------------------------------------

def exdom_ode() -> sq.SigmaPiOde:
    """3-equation system with a nonzero, an unrestricted and a positive index."""
    return sq.SigmaPiOde(3, [
        [(1.0, {2: F(1, 3), 3: 1}), ((0.0, 2.0), {2: 1, 1: F(-1, 5)})],
        [(6.0, {1: 1, 2: 5, 3: 1})],
        [(3.0, {1: -8, 2: 1}), (4.0, {}), (1.0, {3: F(1, 2)}),
         (-1.5, {1: 1, 3: 1})],
    ])


def exdom_variant() -> sq.SigmaPiOde:
    """Same system with the monomial x1 added to equation 2 (kills the
    singular part)."""
    base = exdom_ode()
    eqs = [list(base.terms(i)) for i in range(1, 4)]
    eqs[1].append((1.0, sq.Monomial({1: 1})))
    return sq.SigmaPiOde(3, eqs)


def singular_part_expected() -> sq.SigmaPiOde:
    """The projection of exdom_ode onto {1, 3}: x1' = 0,
    x2' = 4 + x2^(1/2) - 1.5*x1*x2 (renumbered)."""
    return sq.SigmaPiOde(2, [
        [],
        [(4.0, {}), (1.0, {2: F(1, 2)}), (-1.5, {1: 1, 2: 1})],
    ])


def five_monomial_ode() -> sq.SigmaPiOde:
    """x1' = x2*x3 + 2*x1^(-1/3); x2' = 4*x1*x2^4*x3; x3' = 5*x1^(-3)*x2 + 3."""
    return sq.SigmaPiOde(3, [
        [(1.0, {2: 1, 3: 1}), (2.0, {1: F(-1, 3)})],
        [(4.0, {1: 1, 2: 4, 3: 1})],
        [(5.0, {1: -3, 2: 1}), (3.0, {})],
    ])


def airy_first_order() -> sq.SigmaPiOde:
    """x1' = t*x2, x2' = x1 (x1 the derivative, x2 the function)."""
    return sq.SigmaPiOde(2, [
        [((0.0, 1.0), {2: 1})],
        [(1.0, {1: 1})],
    ])


def airy_frame_expected() -> sq.QuadraticFrame:
    """4x4 frame of the inclusive Airy quadratization in the presentation
    order (x1, x2, Z11 = x2/x1, Z21 = x1/x2).

    Row 3 follows from the driver equation dZ11 = (-t Z11 + Z21) Z11; the
    variant with (0, 1, -t, 0) there fails the reference-integration
    cross-check in test_quadratize.
    """
    t = (0.0, 1.0)
    mt = (0.0, -1.0)
    return sq.QuadraticFrame([
        [0.0, 0.0, t, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, mt, 1.0],
        [0.0, 0.0, t, -1.0],
    ])


def airy_series(a0: float, a1: float, K: int) -> np.ndarray:
    """Taylor coefficients of the solution of x'' = t x by the textbook
    recurrence a_{k+2} = a_{k-1} / ((k+1)(k+2))."""
    a = [float(a0), float(a1), 0.0]
    for k in range(1, K):
        a.append(a[k - 1] / ((k + 1) * (k + 2)))
    return np.array(a[:K + 1])


# --------------------------------------------------------------------------
# brute-force oracles
# --------------------------------------------------------------------------

def entry(frame: sq.QuadraticFrame, i: int, j: int) -> list[float]:
    """Entry v_{i,j} (1-based) of a frame: the coefficients of its powers of
    t - center, without trailing zeros (the first one kept)."""
    coeffs = frame.coeffs[:, i - 1, j - 1].tolist()
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    return coeffs


def scalar_horner(coeffs, u: float) -> float:
    """c0 + c1*u + ... + cM*u**M by Horner's rule on Python floats, from
    0.0 and the highest power down."""
    acc = 0.0
    for c in reversed([float(c) for c in coeffs]):
        acc = acc * u + c
    return acc


def ordered_string_ck(V: np.ndarray, x0: np.ndarray, i: int, k: int,
                      S: tuple[int, ...]) -> float:
    """c_k(i) for a constant frame by direct summation over all ordered
    index strings i_1..i_k in S^k, applying the stationary recursion
    v^{k+1} = v^k * sum_j v_{i_j, i_k} one string at a time."""
    if k == 0:
        return float(x0[i - 1])
    total = 0.0
    for string in itertools.product(S, repeat=k):
        seq = (i,) + string
        v = 1.0
        for pos in range(1, k + 1):
            v *= sum(V[seq[q] - 1, seq[pos] - 1] for q in range(pos))
        total += v * x0[i - 1] * float(np.prod([x0[s - 1] for s in string]))
    return total


def cauchy_exact(frame: sq.QuadraticFrame, x0, t0: float,
                 K: int) -> list[list[F]]:
    """Exact derivatives c[k][i] = x_i^{(k)}(t0) for a constant or
    time-polynomial frame, by the Cauchy-product recursion in rationals:
    (k+1) a_{k+1,i} = sum_j y_{j,i} a_{k-j,i} with y_j = sum_l W_l a_{j-l},
    W_l the l-th Taylor coefficient of V at t0 and a_k = c_k / k!."""
    m = frame.dim
    W = [[[F(0)] * m for _ in range(m)] for _ in range(K)]
    for i in range(m):
        for j in range(m):
            u = F(t0) - F(frame.center)
            for n, c in enumerate(frame.coeffs[:, i, j]):
                for l in range(min(n + 1, K)):
                    W[l][i][j] += F(float(c)) * math.comb(n, l) * u ** (n - l)
    a = [[F(float(v)) for v in x0]]
    y = []
    for k in range(K):
        y.append([sum((W[l][i][j] * a[k - l][j]
                       for l in range(k + 1) for j in range(m)), F(0))
                  for i in range(m)])
        a.append([sum((y[j][i] * a[k - j][i] for j in range(k + 1)), F(0))
                  / (k + 1) for i in range(m)])
    return [[v * math.factorial(k) for v in a[k]] for k in range(K + 1)]


def alpha_direct(indices: tuple[int, ...], l: int) -> int:
    """Occurrence count of l in an index string, summed definition."""
    return sum(1 for j in indices if j == l)


def alpha_recursive(indices: tuple[int, ...], l: int) -> int:
    """Same count built by the incremental rule alpha += delta."""
    acc = 0
    for j in indices:
        acc += 1 if j == l else 0
    return acc


# --------------------------------------------------------------------------
# random generators (seeded by the caller)
# --------------------------------------------------------------------------

_EXPONENT_POOL = [-3, -2, -1, 1, 2, 3, F(1, 2), F(-1, 2), F(1, 3), F(-1, 3)]


def random_sigma_pi(rng: np.random.Generator, n_max: int = 4,
                    nu_max: int = 3, with_jets: bool = True) -> sq.SigmaPiOde:
    """Random system safe to evaluate on the positive orthant."""
    n = int(rng.integers(1, n_max + 1))
    equations = []
    for _ in range(n):
        terms = []
        for _ in range(int(rng.integers(1, nu_max + 1))):
            exps = {}
            for j in range(1, n + 1):
                if rng.random() < 0.6:
                    exps[j] = _EXPONENT_POOL[int(rng.integers(len(_EXPONENT_POOL)))]
            mag = rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)
            if with_jets and rng.random() < 0.3:
                coeff = (mag, rng.uniform(-0.5, 0.5))
            else:
                coeff = mag
            terms.append((coeff, sq.Monomial(exps)))
        equations.append(terms)
    return sq.SigmaPiOde(n, equations)


def random_text_ode(rng: np.random.Generator) -> sq.SigmaPiOde:
    """Random system exercising the whole text grammar (round-trip tests)."""
    n = int(rng.integers(1, 5))
    pool = _EXPONENT_POOL + [0.2, -0.7, 1.5, F(5, 4), F(-7, 3)]
    equations = []
    for _ in range(n):
        nu = int(rng.integers(0, 4))
        terms = []
        for _ in range(nu):
            exps = {}
            for j in range(1, n + 1):
                if rng.random() < 0.5:
                    exps[j] = pool[int(rng.integers(len(pool)))]
            roll = rng.random()
            if roll < 0.25:
                coeff = rng.uniform(-2, 2, int(rng.integers(2, 4)))
            elif roll < 0.35:
                coeff = 0.0
            elif roll < 0.55:
                coeff = float(rng.integers(-5, 6)) or 1.0
            else:
                coeff = rng.uniform(-3, 3)
            terms.append((coeff, sq.Monomial(exps)))
        equations.append(terms)
    return sq.SigmaPiOde(n, equations)


def random_frame(rng: np.random.Generator, m_max: int = 3,
                 zero_column: bool = False) -> sq.QuadraticFrame:
    m = int(rng.integers(1, m_max + 1))
    V = rng.uniform(-1.0, 1.0, (m, m))
    if zero_column and m > 1:
        V[:, int(rng.integers(m))] = 0.0
    return sq.QuadraticFrame(V.tolist())


def random_jet_frame(rng: np.random.Generator, m_max: int = 4,
                     center: float = 0.0,
                     m: int | None = None) -> sq.QuadraticFrame:
    """Frame of time polynomials of mixed degree 0..3 around ``center``:
    some entries zero, some vanishing only at the center, and one zero
    column.  The
    dimension is ``m`` when given, else drawn from 1..m_max."""
    if m is None:
        m = int(rng.integers(1, m_max + 1))
    rows = []
    for _ in range(m):
        row = []
        for _ in range(m):
            roll = rng.random()
            if roll < 0.25:
                coeffs = [0.0]
            elif roll < 0.35:
                coeffs = [0.0, rng.uniform(-1.0, 1.0)]
            else:
                coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(1, 5)))
            row.append(coeffs)
        rows.append(row)
    if m > 1:
        col = int(rng.integers(m))
        for row in rows:
            row[col] = 0.0
    return sq.QuadraticFrame(rows, center)


def fixture_frame(path) -> sq.QuadraticFrame:
    """The frame a ``tests/data`` file solves on: a ``.frame`` as parsed, a
    ``.spode`` through the inclusive quadratization."""
    text = path.read_text()
    if path.suffix == ".frame":
        return sq.parse_frame(text)
    return sq.driver_frame(sq.quadratize_inclusive(sq.parse_ode(text)))
