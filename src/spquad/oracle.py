"""Independent numeric reference: classical fixed-step RK4.

Deliberately shares no machinery with the series engine so the two can
cross-check each other.  Accepts both monomial systems and quadratic frames
as right-hand sides.

:func:`rk4` generates the whole RK4 loop for a model as straight-line
Python over local floats, compiles it, and runs it.  A state of one to a
few floats steps several times faster as local floats than as a numpy
array, whose cost per operation is mostly call overhead.  The loop runs
the IEEE operations of a numpy-vector RK4 in the same order, so with the
same right-hand side its trajectories are bit for bit those of a numpy
loop.  Each stage's right-hand side is

* for a :class:`SigmaPiOde`, inlined from its terms in the order of
  :meth:`SigmaPiOde.rhs`: a sum from ``0.0`` of coefficient times
  product from ``1.0`` of its factors, a constant term c alone (c*1.0 is
  c exactly); a polynomial coefficient is Horner's rule on its
  coefficients at u = t - center, as :func:`~spquad.sigmapi.horner`
  evaluates it.  A factor x^1 is written as x,
  any other as ``pow(x, v)`` (``math.pow``) for x > 0 and a call of
  ``real_pow`` otherwise.  Both give the bits of ``real_pow``, which
  returns ``math.pow(x, v)`` for x > 0 and raises the same errors for
  other bases; x^1 differs from it only at x = -0.0, and the leading
  ``0.0 +`` of the sum erases the sign of a zero term.  A system with
  more than :data:`_NEST` terms in an equation, factors in a term or
  coefficients in a polynomial calls its own ``rhs`` instead, which does the
  same operations: CPython refuses to compile an expression nested a few
  thousand operations deep or inside more than 200 parentheses;
* for a constant frame of dimension m <= :data:`D`, inlined as
  ``(V x)_i x_i`` with each dot product summed left to right, which may
  differ from numpy's ``V @ x`` in the last bits;
* for a larger constant frame, a call of ``(V @ x) * x`` on
  ``np.array(x)``, and for a time-dependent frame a call of its own
  ``rhs``: these frames keep numpy's summation order.

The source holds no number of the model, and no text of the input: only
fixed names, operators and the literals ``0.0``, ``0.5``, ``1.0``,
``2.0`` and ``6.0`` of RK4 and the sums.  Every number of the model (an
entry of V, a coefficient, an exponent and its exact rational, a
polynomial coefficient or the system's center) is read from the argument ``R`` into a local
``r<position>``, and a local float is the same operand as a literal of
the same double, so the operations and their bits do not change.
Everything else the loop needs (the called right-hand side, the times
and the states array it writes into) is an argument too.  The source thus
depends on the model's shape alone: its dimension, which factors are
x^1, its term and polynomial structure, and whether the stages are inlined or
called.  Loops are cached per shape, for the 32 shapes last used, since
compiling is most of the cost of generating (about 0.3 ms for
``affine.spode``, 0.7 ms for ``five_monomials.spode`` and 2.5 ms for a
frame of dimension 9): a two-sided ``check`` runs its model twice, and a
process that steps many models of a few shapes (a sweep over
coefficients or starts) compiles each shape once.  The finiteness check
sums its terms as a tree of at most :data:`_NEST`, so it compiles for
any dimension.

:data:`D` keeps inlined frames where they are the faster right-hand side,
counting their compile time.  A sweep on dense random constant frames
(2000 steps, compile from a cold cache, medians of 7; 2-core shared host,
Python 3.11, numpy 2.4) read the inlined step over the numpy step as 0.19
at m = 4, 0.34 at m = 6, 0.56 at m = 9, 0.83 at m = 10, 0.99 at m = 12 and
1.55 at m = 16.  Inlining costs 0.4 ms more compile time at m = 4 and
1.4 ms more at m = 9, which its faster steps repay within 40 and 175 steps.

The loop tests finiteness after every step and raises :class:`Blowup`
naming the time of the first step whose state is not finite, or whose
monomial power overflows the float range: stepping on from an inf could
raise another error, such as an undefined power of a negative number.
The loop runs with numpy's overflow and invalid-value warnings silenced,
so a numpy right-hand side gives inf as Python floats do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Blowup, EmptyWindow
from .sigmapi import SigmaPiOde, real_pow

MAX_STEPS = 10_000_000
D = 9   # constant frames up to this dimension are inlined into the loop
_NEST = 64   # operations one generated expression chains at most


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve: strictly monotone times and finite states."""

    times: np.ndarray
    states: np.ndarray
    meta: dict


def step_count(span: float, h: float) -> int:
    """Number of RK4 steps of at most h covering ``span`` >= 0; raises
    ValueError when that exceeds :data:`MAX_STEPS`."""
    if span == 0.0:
        return 0
    ratio = span / h - 1e-12
    if not ratio <= MAX_STEPS:
        raise ValueError(f"covering {span} with steps of {h} takes more "
                         f"than the {MAX_STEPS} step limit")
    return max(1, int(np.ceil(ratio)))


def _steps(t0: float, t1: float, h: float) -> tuple[int, float, float]:
    n = step_count(abs(t1 - t0), h)
    if n == 0:
        return 0, h, 0.0
    signed_h = h if t1 > t0 else -h
    landing = (t1 - t0) - (n - 1) * signed_h
    return n, signed_h, landing


def _frame_rows(m: int) -> list[str]:
    """(V x)_i x_i per component of an m-dimensional constant frame, a
    template over the stage state ``{0}``, ``{1}``, ..., entry V_ij read
    as ``r<i m + j>``."""
    return ["(" + " + ".join(f"r{i * m + j}*{{{j}}}" for j in range(m))
            + f")*{{{i}}}" for i in range(m)]


def _inlined(ode: SigmaPiOde) -> bool:
    """Whether no equation, term or polynomial of ``ode`` has more than
    :data:`_NEST` terms, factors or coefficients."""
    return all(len(terms) <= _NEST
               and all(len(powers) <= _NEST
                       and (type(coeff) is float or len(coeff) <= _NEST)
                       for coeff, powers in terms)
               for terms in ode._terms)


def _sigma_pi_rows(ode: SigmaPiOde, values: list) -> list[str]:
    """:meth:`SigmaPiOde.rhs` written out from the same terms in their
    order, as templates like :func:`_frame_rows`.  Appends each number it
    reads to ``values`` (read as ``r<position>``): the exponent and exact
    rational of each power other than x^1, then the coefficient, or a
    polynomial's coefficients for Horner's rule as
    :func:`~spquad.sigmapi.horner` evaluates it at ``u`` = t - center."""
    def r(value) -> str:
        values.append(value)
        return f"r{len(values) - 1}"

    rows = []
    for terms in ode._terms:
        acc = "0.0"
        for coeff, powers in terms:
            if type(coeff) is float and not powers:   # c*1.0 is c
                acc += f" + {r(coeff)}"
                continue
            product = "1.0"
            for j, value, rat in powers:
                if value == 1.0:
                    product += f"*{{{j}}}"
                else:
                    v = r(value)
                    product += (f"*(pow({{{j}}}, {v}) if {{{j}}} > 0.0 "
                                f"else real_pow({{{j}}}, {v}, {r(rat)}))")
            if type(coeff) is float:
                coeff = r(coeff)
            else:
                horner = "0.0"
                for c in reversed(coeff):
                    horner = f"({horner})*u + {r(c)}"
                coeff = f"({horner})"
            acc += f" + {coeff}*({product})"
        rows.append(acc)
    return rows


def _block(level: int, lines: list[str]) -> list[str]:
    return [" " * level + line for line in lines or ["pass"]]


def _tree_sum(items: list[str]) -> str:
    """``items`` added as a tree of sums of at most :data:`_NEST` items."""
    if len(items) <= _NEST:
        return " + ".join(items)
    mid = len(items) // 2
    return f"({_tree_sum(items[:mid])}) + ({_tree_sum(items[mid:])})"


def _loop_source(m: int, rows: tuple[str, ...] | None, center: str | None,
                 n_values: int) -> str:
    """Source of the whole RK4 loop of an m-dimensional model whose stage
    right-hand sides are ``rows`` (None: each stage calls ``F(t, state)``),
    reading ``u`` = t - ``center`` when a center name is given and the
    ``n_values`` numbers ``R`` of the model."""
    timed = rows is None or center is not None

    def names(c: str, n: int = m) -> list[str]:
        return [f"{c}{j}" for j in range(n)]

    def listed(items: list[str]) -> str:
        return "[" + ", ".join(items) + "]"

    def stage(out: str, state: str, t: str) -> list[str]:
        if rows is None:
            return [f"{listed(names(out))} = "
                    f"F({t}, {listed(names(state))}).tolist()"]
        return (([f"u = {t} - {center}"] if center else [])
                + [f"{out}{i} = {row.format(*names(state))}"
                   for i, row in enumerate(rows)])

    def advance(step: str, k: str) -> list[str]:
        return [f"y{j} = x{j} + {step}*{k}{j}" for j in range(m)]

    accumulate = [f"p{j} = p{j} + 2.0*k{j}" for j in range(m)]
    # p sums k1 + 2 k2 + 2 k3 in that order, k holds the latest stage
    t_half, t_end = ("th", "te") if timed else ("t", "t")
    stages = (stage("p", "x", "t") + advance("half", "p")
              + stage("k", "y", t_half) + accumulate + advance("half", "k")
              + stage("k", "y", t_half) + accumulate + advance("dt", "k")
              + stage("k", "y", t_end))
    stages = (["try:"] + _block(1, stages)
              + ["except OverflowError as exc:",
                 " raise overflowed(ends[k]) from exc"])
    # x - x is 0.0 for a finite x and nan for inf or nan
    check = [f"if {_tree_sum([f'x{j} - x{j}' for j in range(m)])} != 0.0:",
             " raise nonfinite(ends[k])"] if m else []
    step = (["dt = landing if k == last else h", "half = 0.5*dt"]
            + (["t = t0 + h*k", "th = t + half", "te = t + dt"]
               if timed else [])
            + stages
            + ["sixth = dt/6.0"]
            + [f"x{j} = x{j} + sixth*(p{j} + k{j})" for j in range(m)]
            + check
            + [f"S[o{j}] = x{j}" for j in range(m)])
    lines = (["def loop(R, F, X, S, ends, steps, last, t0, h, landing):"]
             + _block(1, [f"{listed(names('r', n_values))} = R",
                          f"{listed(names('x'))} = X",
                          f"for {listed(['k'] + names('o'))} in steps:"]
                      + _block(1, step)))
    return "\n".join(lines) + "\n"


def _loop_spec(rhs, called: bool) -> tuple[tuple, list]:
    """The arguments of :func:`_loop_source` for ``rhs``, texts and counts
    that hold its shape and no number of it, and the numbers ``R`` the loop
    reads; when ``called`` the stages call a right-hand side."""
    values, center = [], None
    spode = isinstance(rhs, SigmaPiOde)
    m = rhs.n if spode else rhs.dim
    if called:
        rows = None
    elif spode:
        rows = tuple(_sigma_pi_rows(rhs, values))
        if any(type(coeff) is tuple for terms in rhs._terms
               for coeff, _ in terms):
            center = f"r{len(values)}"
            values.append(rhs.center)
    else:
        rows = tuple(_frame_rows(m))
        values = rhs.coeffs[0].ravel().tolist()
    return (m, rows, center, len(values)), values


def _overflowed(t) -> Blowup:
    return Blowup(f"state overflowed near t = {t}")


def _nonfinite(t) -> Blowup:
    return Blowup(f"state non-finite near t = {t}")


_NAMESPACE = {"__builtins__": {}, "OverflowError": OverflowError,
              "pow": math.pow, "real_pow": real_pow,
              "overflowed": _overflowed, "nonfinite": _nonfinite}


@functools.lru_cache(maxsize=32)
def _loop(*spec):
    """The compiled loop of :func:`_loop_source` (``spec`` are its
    arguments, a model's shape); the loops of the 32 shapes last used are
    kept."""
    namespace = dict(_NAMESPACE)
    exec(compile(_loop_source(*spec), "<rk4 loop>", "exec"), namespace)
    return namespace["loop"]


def rk4(rhs, x0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical RK4 from t0 to t1 (either direction) with finite step h > 0.

    ``rhs`` is a :class:`QuadraticFrame` or a :class:`SigmaPiOde`.  The
    final step is shortened to land on t1 exactly.  Every model steps in
    one generated loop on Python floats, as the module docstring says.
    Raises ``ValueError`` for an h that is not finite and positive, an x0
    that is not one value per component or a t0 or t1 that is not finite,
    and :class:`Blowup` at the first step whose state is not finite or
    whose monomial power overflows the float range; domain errors from
    monomial evaluation (undefined powers) propagate as
    :class:`~spquad.errors.DomainViolation`.
    """
    if not 0.0 < h < math.inf:
        raise ValueError("h must be finite and positive")
    x0 = np.asarray(x0, dtype=float)
    m = rhs.n if isinstance(rhs, SigmaPiOde) else rhs.dim
    if x0.shape != (m,):
        raise ValueError(f"x0 has shape {x0.shape}, the model dimension is {m}")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 = {t0} and t1 = {t1} must be finite")
    kind = type(rhs).__name__
    n, signed_h, landing = _steps(t0, t1, h)
    if n == 0:
        return Trajectory(np.array([t0]), x0.reshape(1, -1),
                          {"h": h, "rhs": kind})
    if isinstance(rhs, SigmaPiOde):
        F = None if _inlined(rhs) else rhs.rhs
    elif not rhs.is_stationary:
        F = rhs.rhs
    elif rhs.dim <= D:
        F = None
    else:
        V = rhs.coeffs[0]

        def F(t, x):
            xv = np.array(x)
            return (V @ xv) * xv
    # compiled before the arrays are allocated: the compiler's transient
    # memory then does not add to theirs
    spec, values = _loop_spec(rhs, F is not None)
    loop = _loop(*spec)
    times = t0 + signed_h * np.arange(n + 1)
    times[-1] = t1
    states = np.empty((n + 1, m))
    states[0] = x0
    # step k writes component j at position (k + 1) m + j of the states
    steps = zip(range(n), *(range(m + j, (n + 1) * m, m) for j in range(m)))
    args = (values, F, x0.tolist(), memoryview(states.reshape(-1)),
            times[1:], steps, n - 1,
            float(times[0]), float(signed_h), float(landing))
    with np.errstate(over="ignore", invalid="ignore"):
        loop(*args)
    return Trajectory(times, states, {"h": h, "rhs": kind})


@dataclass(frozen=True)
class CompareReport:
    """Componentwise relative deviation of a series from a trajectory."""

    max_rel: float
    rms_rel: float
    n_samples: int
    out_of_radius: int

    @property
    def flagged(self) -> bool:
        return self.out_of_radius > 0


def compare(series, traj: Trajectory, window: tuple[float, float],
            t0: float | None = None,
            radius: float | None = None) -> CompareReport:
    """Max and RMS relative error of the series against trajectory samples
    with window[0] <= t <= window[1].

    ``series`` is either an array of the series states at ``traj.times``,
    of the shape of ``traj.states`` (ValueError otherwise), or a callable
    ``series(t)`` giving the state at one time, called once per sample in
    the window.  When the series center and radius bound are supplied,
    samples beyond the bound are counted in ``out_of_radius`` (they still
    enter the error statistics; callers decide what to make of them).
    """
    a, b = float(window[0]), float(window[1])
    if a > b:
        a, b = b, a
    mask = (traj.times >= a - 1e-15) & (traj.times <= b + 1e-15)
    if not np.any(mask):
        raise EmptyWindow(f"no trajectory samples in [{a}, {b}]")
    times = traj.times[mask]
    states = traj.states[mask]
    if callable(series):
        got = np.empty(states.shape)
        for i, t in enumerate(times):
            got[i] = series(t)
    else:
        got = np.asarray(series, dtype=float)
        if got.shape != traj.states.shape:
            raise ValueError(f"series has shape {got.shape}, the "
                             f"trajectory states {traj.states.shape}")
        got = got[mask]
    rels = np.abs(got - states) / np.maximum(np.abs(states), 1e-12)
    out = 0
    if radius is not None and t0 is not None:
        out = int(np.count_nonzero(np.abs(times - t0) >= radius))
    with np.errstate(over="ignore"):   # relative errors above 1e154: inf RMS
        rms = float(np.sqrt(np.mean(rels ** 2)))
    return CompareReport(
        max_rel=float(rels.max()),
        rms_rel=rms,
        n_samples=len(times),
        out_of_radius=out)
