"""Reference values the benchmark checks CLI outputs against.

Nothing here imports spquad.  Frames are read from their text form and
solved with the Cauchy-product (Parker-Sochacki) recursion for
dx_i/dt = (V(t) x)_i x_i in exact rational arithmetic; solve references are
closed forms evaluated with mpmath at 40 digits.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath

mpmath.mp.dps = 40

_POLY = re.compile(r"poly\(([^)]*)\)")


def exact(value) -> Fraction:
    """The exact value of the float the program reads for ``value``."""
    return Fraction(float(value))


def parse_frame_text(text: str) -> list[list[list[Fraction]]]:
    """Rows of entries; each entry is its polynomial coefficients in t."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        polys = [[exact(c) for c in body.split(",")]
                 for body in _POLY.findall(line)]
        plain = _POLY.sub(" P ", line).replace(",", " ").split()
        row, k = [], 0
        for tok in plain:
            if tok == "P":
                row.append(polys[k])
                k += 1
            else:
                row.append([exact(tok)])
        rows.append(row)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("frame is not square")
    return rows


def frame_text(rows) -> str:
    """Text of a frame given as rows of polynomial coefficient lists."""
    def entry(coeffs):
        if len(coeffs) == 1:
            return repr(float(coeffs[0]))
        return "poly(" + ",".join(repr(float(c)) for c in coeffs) + ")"
    return "".join(" ".join(entry(e) for e in row) + "\n" for row in rows)


_FACTOR = re.compile(r"^x(\d+)(?:\^\(?(-?[0-9./e+-]+)\)?)?$")


def monomial_value(text: str, x: list[float]) -> float:
    """Value at ``x`` of a monomial printed like ``x2*x1^(-1/3)`` or ``1``."""
    if text == "1":
        return 1.0
    out = 1.0
    for factor in text.split("*"):
        match = _FACTOR.match(factor)
        if match is None:
            raise ValueError(f"unexpected monomial factor {factor!r}")
        base = x[int(match.group(1)) - 1]
        expo = match.group(2)
        out *= base if expo is None else base ** float(Fraction(expo))
    return out


def _derivatives_at(coeffs: list[Fraction], t0: Fraction, top: int):
    """p^(l)(t0) for l = 0..top of the polynomial sum_n coeffs[n] t^n."""
    out = []
    for l in range(top + 1):
        acc = Fraction(0)
        for n in range(l, len(coeffs)):
            acc += coeffs[n] * math.perm(n, l) * t0 ** (n - l)
        out.append(acc)
    return out


def taylor_exact(rows, z0: list[Fraction], t0: Fraction, K: int):
    """Derivatives c[k][i] = x_i^(k)(t0) and normalized a[k][i] = c/k!, as
    floats, for dx_i/dt = (V(t) x)_i x_i with x(t0) = z0.

    Leibniz on both products gives y_k = sum_l C(k,l) V^(l) c_{k-l} and
    c_{k+1,i} = sum_j C(k,j) y_{j,i} c_{k-j,i}.  Every c_k is kept as an
    integer over the common denominator dV^k Dz^(k+1), so the recursion is
    exact without a gcd per operation.
    """
    m = len(rows)
    deg = max(len(e) for row in rows for e in row) - 1
    top = min(deg, K)
    D = [[_derivatives_at(e, t0, top) for e in row] for row in rows]
    W = [[[d[l] for d in row] for row in D] for l in range(top + 1)]
    dV = math.lcm(*(w.denominator for Wl in W for row in Wl for w in row))
    Dz = math.lcm(*(z.denominator for z in z0))
    NW = [[[int(w * dV) for w in row] for row in Wl] for Wl in W]
    scale = [(dV * Dz) ** l for l in range(top + 1)]
    N = [[int(z * Dz) for z in z0]]
    Ny = []
    for k in range(K):
        y = [0] * m
        for l in range(min(k, top) + 1):
            c = N[k - l]
            w = math.comb(k, l) * scale[l]
            for i in range(m):
                y[i] += w * sum(a * b for a, b in zip(NW[l][i], c) if a)
        Ny.append(y)
        N.append([sum(math.comb(k, j) * Ny[j][i] * N[k - j][i]
                      for j in range(k + 1)) for i in range(m)])
    c_out, a_out = [], []
    for k in range(K + 1):
        den = dV ** k * Dz ** (k + 1)
        c_out.append([_to_float(n, den) for n in N[k]])
        a_out.append([_to_float(n, den * math.factorial(k)) for n in N[k]])
    return c_out, a_out


def _to_float(num: int, den: int) -> float:
    try:
        return num / den
    except OverflowError:
        return math.copysign(math.inf, num)


def support_size(rows) -> int:
    """Number of frame columns with an entry that is not identically zero."""
    m = len(rows)
    return sum(1 for j in range(m)
               if any(any(c != 0 for c in rows[i][j]) for i in range(m)))


def radius_bound(rows, z0, t0) -> float:
    """The bound 1 / (sigma v_M x_M) the program documents, from the text."""
    sigma = support_size(rows)
    v_M = max(abs(sum(c * t0 ** n for n, c in enumerate(e)))
              for row in rows for e in row)
    x_M = max(abs(z) for z in z0)
    if sigma == 0 or v_M == 0:
        return math.inf
    return float(1 / (sigma * v_M * x_M))


# --------------------------------------------------------------------------
# closed forms for solve
# --------------------------------------------------------------------------

def riccati_1d(a: Fraction, x0: Fraction, t: Fraction) -> float:
    """x' = a x^2: x(t) = x0 / (1 - a x0 t)."""
    return float(x0 / (1 - a * x0 * t))


def linear(A, x0, t) -> list[float]:
    """x' = A x: x(t) = expm(A t) x0."""
    E = mpmath.expm(mpmath.matrix([[mpmath.mpf(float(a)) for a in row]
                                   for row in A]) * mpmath.mpf(float(t)))
    v = E * mpmath.matrix([mpmath.mpf(float(x)) for x in x0])
    return [float(v[i]) for i in range(len(x0))]


def affine(a, b, x0, t) -> float:
    """x' = a x + b."""
    a, b, x0, t = (mpmath.mpf(float(v)) for v in (a, b, x0, t))
    return float((x0 + b / a) * mpmath.exp(a * t) - b / a)


def bernoulli_half(a, b, x0, t) -> float:
    """x' = a x + b sqrt(x); y = sqrt(x) obeys y' = a/2 y + b/2."""
    a, b, x0, t = (mpmath.mpf(float(v)) for v in (a, b, x0, t))
    y = (mpmath.sqrt(x0) + b / a) * mpmath.exp(a * t / 2) - b / a
    return float(y * y)


def airy(x1_0, x2_0, t) -> list[float]:
    """x1' = t x2, x2' = x1, so x2'' = t x2: x2 = c1 Ai + c2 Bi, x1 = x2'."""
    x1_0, x2_0, t = (mpmath.mpf(float(v)) for v in (x1_0, x2_0, t))
    ai0, bi0 = mpmath.airyai(0), mpmath.airybi(0)
    dai0, dbi0 = mpmath.airyai(0, 1), mpmath.airybi(0, 1)
    wronskian = ai0 * dbi0 - dai0 * bi0
    c1 = (x2_0 * dbi0 - x1_0 * bi0) / wronskian
    c2 = (x1_0 * ai0 - x2_0 * dai0) / wronskian
    x2 = c1 * mpmath.airyai(t) + c2 * mpmath.airybi(t)
    x1 = c1 * mpmath.airyai(t, 1) + c2 * mpmath.airybi(t, 1)
    return [float(x1), float(x2)]
