"""Taylor-series solutions of homogeneous quadratic (driver-type) systems.

For dx_i/dt = (v_i' x) x_i with frame V the coefficients are computed by the
Cauchy-product (Parker-Sochacki) recursion on the normalized coefficients
a_k = x^{(k)}(t0) / k! of the whole state:

    a_0 = x0
    (k+1) a_{k+1,i} = sum_{j<=k} y_{j,i} a_{k-j,i},   y_j = sum_{l<=j} W_l a_{j-l}

where W_l = V^{(l)}(t0) / l! are the frame's time polynomials re-expanded at t0, read
from the frame's coefficient array ``frame.coeffs``.  It costs
O(K^2 m + K L m^2) for order K, dimension m and polynomial degree L, and serves
constant and time-dependent frames alike, and is the one that
:func:`taylor` runs.

The paper's layered recursion gives the same coefficients directly from the
frame.  :func:`coefficient_tensors` runs it on ``frame.coeffs`` for the
:class:`CoefficientTensor` objects it builds; they depend on the frame
alone, and x0 and t0 enter only when :meth:`CoefficientTensor.coefficients`
contracts them:

    c_0(i) = x_i
    c_k(i) = sum_{s=2}^{k+1} sum_tails  v^{k+1,s}_{i,tail}(t0) * x_i * prod(x_tail)

with layer updates on the numpy coefficients of each entry in powers of
t - center (A is the append step, d/dt the entrywise derivative)

    v^{k+1,k+1} = A v^{k,k}
    v^{k+1,s}   = A v^{k,s-1} + d/dt v^{k,s}     (3 <= s <= k)
    v^{k+1,2}   =               d/dt v^{k,2}
    v^{2,2}     = frame row

The append multiplier for a tail with multiset m and new index j is
sum_l alpha_l(m + root) * v_{l,j}, a function of the multiset only, so
ordered index strings are aggregated losslessly into multiset keys.  Tails
range over the support set S (indices of nonzero frame columns) only:
coefficients with a tail index outside S vanish identically.  Constant
frames populate only the diagonal layers.

Everything here uses 1-based component indices in public structures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (Divergence, DomainExit, OutOfRadius, StepLimit,
                     ZeroComponent)
from .quadratize import QuadraticFrame
from .sigmapi import horner

MAX_ORDER = 170  # float factorials overflow beyond this
TAIL_EPS = 1e-16  # relative size of the last kept terms the tail step aims at
# k! for k = 0..MAX_ORDER, each the sequential float product 1 * 2 * ... * k
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, MAX_ORDER + 1.0)])


class RadiusWarning(UserWarning):
    """Evaluation outside the guaranteed convergence interval."""


# --------------------------------------------------------------------------
# support
# --------------------------------------------------------------------------

def support(frame: QuadraticFrame) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """Nonzero columns S of the frame and, per j in S, the rows rho(j) in S
    whose entry in column j is not identically zero."""
    nonzero = np.any(frame.coeffs != 0.0, axis=0)
    cols = tuple(j + 1 for j in np.flatnonzero(nonzero.any(axis=0)).tolist())
    rho = {j: tuple(l for l in cols if nonzero[l - 1, j - 1]) for j in cols}
    return cols, rho


# --------------------------------------------------------------------------
# result containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexMultiset:
    """Unordered tail of a coefficient key: root index plus sorted
    (index, multiplicity) pairs."""

    root: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 0
        for j, mult in self.pairs:
            if j <= last:
                raise ValueError("indices must be strictly increasing")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            last = j

    @property
    def total(self) -> int:
        """Tail length s - 1."""
        return sum(m for _, m in self.pairs)

    def count(self, j: int) -> int:
        for jj, m in self.pairs:
            if jj == j:
                return m
        return 0


@dataclass(frozen=True, eq=False)
class CoefficientTensor:
    """Aggregated recursion coefficients for one root index, built to
    ``order``.

    ``layers[(k, s)]`` maps tail multisets to the coefficient array, in
    powers of t - ``center``, of the sum of v^{k,s} over all orderings of
    the tail.  Stationary frames populate only the diagonal layers (k, k).
    Tensors compare by identity: numpy arrays have no one truth value.
    """

    root: int
    layers: dict[tuple[int, int], dict[IndexMultiset, np.ndarray]]
    order: int
    center: float = 0.0

    def coefficients(self, x0, t0: float, K: int) -> np.ndarray:
        """c_0 .. c_K of the root component at center t0 from the full
        state x0: c_0 = x_i and c_k = x_i * sum over s and tails of
        v^{k+1,s}(t0) * prod(x_tail).  A K above the build order raises
        ValueError: the layers it needs were never built."""
        if K > self.order:
            raise ValueError(f"the tensor was built to order {self.order}, "
                             f"not {K}")
        x0 = np.asarray(x0, dtype=float)
        u = float(t0) - self.center
        c = np.zeros(K + 1)
        c[0] = x0[self.root - 1]
        for k in range(1, K + 1):
            acc = 0.0
            for s in range(2, k + 2):
                for key, p in self.layers.get((k + 1, s), {}).items():
                    acc += horner(p, u) * math.prod(x0[j - 1] ** m
                                                    for j, m in key.pairs)
            c[k] = c[0] * acc
        return c


@dataclass(frozen=True)
class SeriesSolution:
    """Taylor data of selected components around a center.

    ``coeffs[r, k]`` is c_k for ``components[r]`` (the derivative values,
    not yet divided by k!).  ``radius_bound`` is the guaranteed lower bound
    on the convergence radius at the center.
    """

    t0: float
    x0: np.ndarray
    order: int
    components: tuple[int, ...]
    coeffs: np.ndarray
    radius_bound: float

    def component_row(self, i: int) -> np.ndarray:
        return self.coeffs[self.components.index(i)]

    def normalized(self) -> np.ndarray:
        """Literal series coefficients c_k / k!."""
        return np.asarray(self.coeffs, dtype=float) / _FACTORIALS[:self.order + 1]


# --------------------------------------------------------------------------
# shared validation
# --------------------------------------------------------------------------

def _check_order(frame: QuadraticFrame, K: int,
                 components) -> tuple[int, ...]:
    """The selected 1-based components, once K passes the order cap."""
    if K < 0:
        raise ValueError("order must be >= 0")
    if K > MAX_ORDER:
        raise ValueError(f"order capped at {MAX_ORDER} by float factorial range")
    if components is None:
        return tuple(range(1, frame.dim + 1))
    seen = []
    for i in components:
        i = int(i)
        if not 1 <= i <= frame.dim:
            raise ValueError(f"component {i} out of range")
        if i not in seen:
            seen.append(i)
    return tuple(seen)


def _mset_from_counts(root: int, counts, cols: tuple[int, ...]) -> IndexMultiset:
    pairs = tuple((cols[l], int(c)) for l, c in enumerate(counts) if c)
    return IndexMultiset(root, pairs)


# --------------------------------------------------------------------------
# coefficient engine (Cauchy products of normalized series)
# --------------------------------------------------------------------------

def _shifted_jets(frame: QuadraticFrame, t0: float, K: int) -> np.ndarray:
    """W[l] = V^{(l)}(t0) / l! for l < K, up to the polynomial degree."""
    deg = len(frame.coeffs) - 1
    u = float(t0) - frame.center
    T = np.array([[math.comb(n, l) * _power(u, n - l) if n >= l else 0.0
                   for n in range(deg + 1)] for l in range(deg + 1)])
    return np.einsum("ln,nij->lij", T, frame.coeffs)[:K]


def _cauchy(frame: QuadraticFrame, x0: np.ndarray, t0: float,
            K: int) -> np.ndarray:
    """Derivatives c[i, k] = x_i^{(k)}(t0) of every component."""
    a = np.zeros((K + 1, frame.dim))
    y = np.zeros((K, frame.dim))
    a[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        W = _shifted_jets(frame, t0, K)
        for k in range(K):
            L = min(k + 1, len(W))
            y[k] = np.einsum("lij,lj->i", W[:L], a[k::-1][:L])
            a[k + 1] = np.einsum("ji,ji->i", y[:k + 1], a[k::-1]) / (k + 1)
        return (a * _FACTORIALS[:K + 1, None]).T


# --------------------------------------------------------------------------
# layered recursion (sparse layers of coefficient arrays, builds the tensors)
# --------------------------------------------------------------------------

def _kept(layer: dict) -> dict:
    """The nonzero entries of a layer, without trailing zero coefficients."""
    return {m: np.trim_zeros(p, "b") for m, p in layer.items() if p.any()}


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for coefficient arrays of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[:len(b)] += b
    return out


def _append(layer: dict, rows: np.ndarray, root: np.ndarray) -> dict:
    """A: per support column j, multiply each tail by the count-weighted sum
    of its rows' entries in column j plus the root's, and accumulate into
    the tail with j appended.  ``rows[:, l]`` and ``root`` are support-column
    coefficient arrays of the l-th support row and of the root row."""
    out: dict[tuple[int, ...], np.ndarray] = {}
    for counts, p in layer.items():
        mult = sum((c * rows[:, l] for l, c in enumerate(counts) if c),
                   0.0) + root
        for jpos in range(len(counts)):
            col = np.trim_zeros(mult[:, jpos], "b")
            if col.size:
                new = counts[:jpos] + (counts[jpos] + 1,) + counts[jpos + 1:]
                prod = np.convolve(p, col)
                out[new] = _add(out[new], prod) if new in out else prod
    return _kept(out)


def _derive(layer: dict) -> dict:
    return _kept({m: p[1:] * np.arange(1, len(p)) for m, p in layer.items()})


def coefficient_tensors(frame: QuadraticFrame, K: int,
                        components: Iterable[int] | None = None
                        ) -> dict[int, CoefficientTensor]:
    """The paper's layered recursion up to order K: one
    :class:`CoefficientTensor` per component, from the frame alone.  Each
    layer maps a tail's counts over the support to the coefficients of its
    entry in powers of t - center, so one build serves every initial point
    and center.  The cost grows like
    C(K + sigma, sigma) in the support size sigma."""
    comps = _check_order(frame, K, components)
    cols, _ = support(frame)
    S0 = [j - 1 for j in cols]
    V = frame.coeffs[:, :, S0]
    rows = V[:, S0]
    tensors = {}
    for i in comps:
        root = V[:, i - 1]
        # v^{2,2}, the root row, is A applied to the empty tail
        layers = {(2, 2): _append({(0,) * len(S0): np.ones(1)}, rows, root)}
        for k in range(2, K + 1):
            layers[(k + 1, k + 1)] = _append(layers[(k, k)], rows, root)
            for s in range(3, k + 1):
                merged = _append(layers[(k, s - 1)], rows, root)
                for m, p in _derive(layers[(k, s)]).items():
                    merged[m] = _add(merged[m], p) if m in merged else p
                layers[(k + 1, s)] = _kept(merged)
            layers[(k + 1, 2)] = _derive(layers[(k, 2)])
        tensors[i] = CoefficientTensor(i, {
            ks: {_mset_from_counts(i, counts, cols): p
                 for counts, p in layer.items()}
            for ks, layer in layers.items() if layer}, K, frame.center)
    return tensors


def taylor(frame: QuadraticFrame, x0, t0: float, K: int,
           components: Iterable[int] | None = None) -> SeriesSolution:
    """Series coefficients for an arbitrary (constant or time-dependent) frame,
    from the Cauchy-product recursion.  An x0 that is not one finite value
    per component raises ValueError.
    """
    x0 = _checked_state(frame, x0)
    comps = _check_order(frame, K, components)
    coeffs = _cauchy(frame, x0, t0, K)[[i - 1 for i in comps]]
    return SeriesSolution(
        t0=float(t0), x0=x0, order=K, components=comps, coeffs=coeffs,
        radius_bound=convergence_bound(frame, x0, t0))


def _checked_state(frame: QuadraticFrame, x0) -> np.ndarray:
    """x0 as a float array, once it holds one finite nonzero value per
    component."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (frame.dim,):
        raise ValueError(f"x0 must have {frame.dim} components")
    _check_finite(x0)
    if np.any(x0 == 0.0):
        bad = int(np.nonzero(x0 == 0.0)[0][0]) + 1
        raise ZeroComponent(f"x0 component {bad} is zero")
    return x0


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------

def _check_finite(x0: np.ndarray) -> None:
    finite = np.isfinite(x0)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"x0 component {bad + 1} is {x0.flat[bad]}, "
                         "not finite")


def convergence_bound(frame: QuadraticFrame, x0, t0: float = 0.0) -> float:
    """Guaranteed lower bound 1 / (sigma * v_M * x_M) on the convergence
    radius; +inf when the frame support is empty, all entries vanish at t0
    or x0 is zero (the solution is then x = 0).  Raises ValueError for a
    component of x0 that is not finite."""
    x0 = np.asarray(x0, dtype=float)
    _check_finite(x0)
    return _bound(frame, len(support(frame)[0]), t0, x0)


def _bound(frame: QuadraticFrame, sigma: int, t: float, x0: np.ndarray,
           v_M: float | None = None) -> float:
    """1 / (sigma * v_M * x_M) for support size sigma, with v_M = max |V(t)|
    unless given; inf where one of the three factors vanishes."""
    if sigma == 0:
        return math.inf
    if v_M is None:
        v_M = float(np.max(np.abs(frame.evaluate(t))))
    if v_M == 0.0:
        return math.inf
    x_M = float(np.max(np.abs(x0)))
    if x_M == 0.0:
        return math.inf
    return 1.0 / (sigma * v_M * x_M)


def bound_envelope(frame: QuadraticFrame, x0, t0: float, t: float) -> float:
    """Upper envelope x_M / (1 - sigma*v_M*x_M*|t - t0|), valid for
    |t - t0| below the radius bound."""
    x0 = np.asarray(x0, dtype=float)
    rbar = convergence_bound(frame, x0, t0)
    dt = abs(float(t) - float(t0))
    if dt >= rbar:
        raise OutOfRadius(f"|t - t0| = {dt} is not below the bound {rbar}")
    x_M = float(np.max(np.abs(x0)))
    if rbar == float("inf"):
        return x_M
    return x_M / (1.0 - dt / rbar)


# --------------------------------------------------------------------------
# evaluation and continuation
# --------------------------------------------------------------------------

def _power(u: float, K: int) -> float:
    """u ** K, or inf where its magnitude passes the float range."""
    try:
        return u ** K
    except OverflowError:
        return math.inf


def evaluate(series: SeriesSolution, t) -> tuple[np.ndarray, np.ndarray]:
    """Horner evaluation of sum c_k (t-t0)^k / k! per component.

    ``t`` is one time or an array of times.  Returns (values, truncation
    estimate), both of shape ``np.shape(t) + (len(series.components),)``,
    the estimate being the magnitude of the last kept term, where a power
    |t - t0|^K beyond the float range counts as inf and a zero last
    coefficient gives 0.0 at every time.  A scalar ``t`` runs
    as an array of shape (), so the array form equals the stacked scalar
    calls bit for bit.  Warns once when any time lies outside the radius
    bound.
    """
    K = series.order
    u = np.asarray(t, dtype=float)[..., None] - series.t0
    # Python's float power per time; numpy's power may round differently
    u_K = np.array([_power(v, K) for v in u.ravel().tolist()]).reshape(u.shape)
    if np.any(np.abs(u) >= series.radius_bound):
        warnings.warn(
            f"evaluating at |t - t0| = {np.max(np.abs(u))} outside the "
            f"guaranteed radius {series.radius_bound}", RadiusWarning,
            stacklevel=2)
    a = series.normalized()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.zeros(np.shape(u)[:-1] + a.shape[:1])
        for k in range(K, -1, -1):
            vals = vals * u + a[:, k]
        err = np.where(a[:, K] == 0.0, 0.0, np.abs(a[:, K] * u_K))
    return vals, err


def _horner(rows: list[list[float]], u: float,
            K: int) -> tuple[list[float], list[float]]:
    """Values sum_k a_k u^k and estimates |a_K u^K| (0.0 where a_K is 0)
    of rows of normalized coefficients a_0 .. a_K at one offset u, on
    Python floats.  Each step is the multiply and the add that the array
    loop of :func:`evaluate` makes per element, so both give the same
    bits."""
    u_K = _power(u, K)
    vals = []
    for row in rows:
        v = 0.0
        for c in reversed(row):
            v = v * u + c
        vals.append(v)
    return vals, [abs(row[K] * u_K) if row[K] else 0.0 for row in rows]


def _tail_step(a: np.ndarray, x) -> float:
    """Order-K step of Jorba & Zou (2005) from the normalized coefficients
    a[i, k], k <= K: the minimum over components i and j in {K-1, K}
    (j >= 1) with a_{j,i} != 0 of (eps |x_i| / |a_{j,i}|)^(1/j),
    eps = ``TAIL_EPS``; inf when all of those coefficients vanish.  Taken
    per component, not over norms, since driver coordinates may differ by
    hundreds of orders of magnitude."""
    K = a.shape[1] - 1
    js = np.arange(max(K - 1, 1), K + 1)
    tail = np.abs(a[:, js])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = (TAIL_EPS * np.abs(np.asarray(x, dtype=float))[:, None] / tail) ** (1.0 / js)
    return float(np.min(h, where=tail > 0.0, initial=math.inf))


def continue_to(frame: QuadraticFrame, x0, t0: float, t_target: float,
                K: int = 30, theta: float = 0.5, max_steps: int = 200,
                tail_tol: float = 1e-9) -> tuple[np.ndarray, list[tuple[float, np.ndarray]]]:
    """Analytic continuation by repeated re-expansion.

    Each stage expands at the current center to order K >= 1 and advances
    by the larger of the tail step :func:`_tail_step` (eps = ``TAIL_EPS``)
    and theta times the local radius bound, or straight to the target when
    that is closer; theta is thus the floor of the step as a fraction of
    the radius bound, and the floor alone applies when the tail step is
    inf.
    Neither rule is a truncation guarantee (the radius bound is a
    convergence statement, and for time-dependent frames only local to the
    center), so a step is additionally halved until the last-kept-term
    estimate drops below ``tail_tol`` relative to the values.  The start
    state and every accepted state, the one at the target included, are
    checked: :class:`Divergence` on non-finite values or on values that
    grow by 1e9 over the start (sustained near-envelope growth means the
    path is running into a blow-up, where accumulated rounding also
    corrupts the local radius bound, so stopping beats reporting a finite
    wrong answer), :class:`DomainExit` when a component reaches zero.
    :class:`StepLimit` is raised when the budget runs out or the step size
    underflows the time resolution.

    Once per continuation: the support size sigma of the radius bound,
    and for a stationary frame v_M = max |V| too, so a recenter computes
    only x_M of it.  Once per recenter: :func:`taylor`'s checks of the
    state, and the coefficients normalized as
    :meth:`SeriesSolution.normalized` does, which the tail step and every
    halving read; a halving evaluates its one time with :func:`_horner`.
    Steps, states and value equal those built from :func:`taylor` and
    :func:`evaluate` bit for bit.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if K < 1:
        raise ValueError("the continuation needs order K >= 1: at K = 0 the "
                         "tail estimate |a_0| is the value itself")
    if not (math.isfinite(t0) and math.isfinite(t_target)):
        raise ValueError(f"t0 = {t0} and t_target = {t_target} must be finite")
    x = np.asarray(x0, dtype=float)
    scale = np.maximum(np.abs(x), 1e-300)
    growth_cap = 1e9 * float(np.max(scale))
    t = float(t0)
    t_target = float(t_target)
    path: list[tuple[float, np.ndarray]] = []
    if t_target == t:
        return x.copy(), path

    def check_state(x, t):
        if not np.all(np.isfinite(x)):
            raise Divergence(f"state became non-finite near t = {t}")
        if np.max(np.abs(x)) > growth_cap:
            raise Divergence(
                f"values near t = {t} grew beyond the continuation trust "
                "threshold (approaching a blow-up)")
        if np.any(np.abs(x) <= 1e-12 * scale):
            raise DomainExit(f"a component reached zero near t = {t}")

    sigma = len(support(frame)[0])
    # a stationary V(t) is its one layer wherever t - center is finite, and
    # so between t0 and t_target when it is at both
    v_M = (float(np.max(np.abs(frame.coeffs[0]))) if frame.is_stationary
           and math.isfinite(t - frame.center)
           and math.isfinite(t_target - frame.center) else None)
    check_state(x, t)
    for _ in range(max_steps):
        x = _checked_state(frame, x)        # taylor's checks, in its order
        _check_order(frame, K, None)
        a = _cauchy(frame, x, t, K) / _FACTORIALS[:K + 1]
        rows = a.tolist()
        remaining = t_target - t
        reach = theta * _bound(frame, sigma, t, x, v_M)
        tail_step = _tail_step(a, x)
        if tail_step < math.inf:       # all-zero tails keep the floor
            reach = max(reach, tail_step)
        step = remaining if reach >= abs(remaining) else np.sign(remaining) * reach
        for _ in range(80):
            t_new = t_target if abs(step) >= abs(remaining) else t + step
            if t_new == t:
                raise StepLimit(
                    f"step size underflowed the time resolution near t = {t}")
            vals, err = _horner(rows, float(t_new - t), K)
            if all(map(math.isfinite, vals)):
                if max(e / max(abs(v), 1e-300)
                       for v, e in zip(vals, err)) <= tail_tol:
                    break
            step *= 0.5
        else:
            raise StepLimit(f"could not control truncation error near t = {t}")
        x, t = np.array(vals), t_new
        check_state(x, t)
        path.append((t, x.copy()))
        if t == t_target:
            return x.copy(), path
    raise StepLimit(f"did not reach {t_target} within {max_steps} recenters")
