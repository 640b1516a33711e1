"""Independent numeric reference: classical fixed-step RK4.

Deliberately shares no machinery with the series engine so the two can
cross-check each other.  Accepts both monomial systems and quadratic frames
as right-hand sides.

One loop steps the RK4 formulas on a list of Python floats, whatever the
model; :func:`rk4` only chooses the right-hand side ``f(t, x)``, which
takes and returns such a list:

* a :class:`SigmaPiOde`: :meth:`SigmaPiOde.rhs_list`;
* a constant frame of dimension m <= :data:`D`: generated float code
  (below);
* a larger constant frame: ``(V @ x) * x`` on ``np.array(x)``;
* a time-dependent frame: its own ``rhs``.

A state of one to a few floats steps several times faster as a list than
as a numpy array, whose cost per operation is mostly call overhead.  The
loop runs the IEEE operations of a numpy-vector RK4 in the same order, so
with the same right-hand side its trajectories are bit for bit those of a
numpy loop.

A constant frame's float right-hand side is source generated once per
:func:`rk4` call: one straight-line expression per component with each
entry written as ``repr(float(V[i, j]))``.  The source holds only such
reprs because a float repr reads back as the same double (``5e-324``,
``1.7976931348623157e+308`` and the sign of ``-0.0`` included), the names
``inf`` and ``nan`` are bound to those floats so non-finite entries blow up
as with ``V @ x``, and no text of the frame's input reaches the source.
Its dot products sum left to right, which may differ from numpy's
``V @ x`` in the last bits.

:data:`D` keeps the generated code where it is the faster right-hand
side.  Its cost grows with m**2, while ``V @ x`` costs about 23 us a step
at any m up to 12, mostly call overhead.  A per-step sweep on dense random
constant frames (2000 steps, 9 interleaved repeats, medians; 2-core shared
host, Python 3.11, numpy 2.4) read generated over ``V @ x`` as 0.53 at
m = 6, 0.71 at m = 8, 0.80 at m = 9, 0.94 to 0.98 at m = 10 to 12 and 1.43
at m = 16.

The loop runs with numpy overflow and invalid values silenced, so a frame
whose numpy right-hand side overflows gives inf.  It tests finiteness after
every step and raises :class:`Blowup` naming the time of the first step
whose state is not finite, or whose monomial power overflows the float
range: stepping on from an inf could raise another error, such as an
undefined power of a negative number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Blowup, EmptyWindow
from .sigmapi import SigmaPiOde

MAX_STEPS = 10_000_000
D = 9   # constant frames up to this dimension get generated float code


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve: strictly monotone times and finite states."""

    times: np.ndarray
    states: np.ndarray
    meta: dict

    def at(self, t: float) -> np.ndarray:
        """State at the sample closest to t."""
        idx = int(np.argmin(np.abs(self.times - t)))
        return self.states[idx]


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


def _frame_rhs_list(V):
    """dx_i/dt = (V x)_i x_i on lists of floats, as generated straight-line
    source holding only the float reprs of V's entries."""
    m = len(V)
    names = ", ".join(f"x{j}" for j in range(m))
    rows = ", ".join(
        "(" + " + ".join(f"{float(V[i, j])!r} * x{j}" for j in range(m))
        + f") * x{i}" for i in range(m))
    source = f"def f(t, x):\n    [{names}] = x\n    return [{rows}]\n"
    namespace = {"__builtins__": {}, "inf": math.inf, "nan": math.nan}
    exec(source, namespace)
    return namespace["f"]


def _rk4_floats(f, x0, times, h, landing):
    """RK4 states on lists of floats; ``f(t, x)`` returns a list."""
    n = len(times) - 1
    states = np.empty((n + 1, len(x0)))
    states[0] = x0
    x = x0.tolist()
    t0 = float(times[0])
    isfinite = math.isfinite
    for k in range(n):
        dt = landing if k == n - 1 else h
        t = t0 + h * k
        half = 0.5 * dt
        try:
            k1 = f(t, x)
            k2 = f(t + half, [a + half * b for a, b in zip(x, k1)])
            k3 = f(t + half, [a + half * b for a, b in zip(x, k2)])
            k4 = f(t + dt, [a + dt * b for a, b in zip(x, k3)])
        except OverflowError as exc:   # a power beyond the float range
            raise Blowup(f"state overflowed near t = {times[k + 1]}") from exc
        sixth = dt / 6.0
        x = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
             for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        if not (isfinite(sum(x)) or all(map(isfinite, x))):
            raise Blowup(f"state non-finite near t = {times[k + 1]}")
        states[k + 1] = x
    return states


def rk4(rhs, x0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical RK4 from t0 to t1 (either direction) with finite step h > 0.

    ``rhs`` is a :class:`QuadraticFrame` or a :class:`SigmaPiOde`.  The
    final step is shortened to land on t1 exactly.  Every model steps in
    one loop on Python floats; ``rhs`` only selects the right-hand side it
    calls, as the module docstring lists.  Raises :class:`Blowup` at the
    first step whose state is not finite or whose monomial power overflows
    the float range; domain errors from monomial evaluation (undefined
    powers) propagate as :class:`~spquad.errors.DomainViolation`.
    """
    if not 0.0 < h < math.inf:
        raise ValueError("h must be finite and positive")
    x0 = np.asarray(x0, dtype=float)
    kind = type(rhs).__name__
    n, signed_h, landing = _steps(t0, t1, h)
    if n == 0:
        return Trajectory(np.array([t0]), x0.reshape(1, -1),
                          {"h": h, "rhs": kind})
    times = t0 + signed_h * np.arange(n + 1)
    times[-1] = t1

    if isinstance(rhs, SigmaPiOde):
        f = rhs.rhs_list
    elif not rhs.is_stationary:
        f = lambda t, x: rhs.rhs(t, x).tolist()
    elif rhs.dim <= D:
        f = _frame_rhs_list(rhs.coeffs[0])
    else:
        V = rhs.coeffs[0]

        def f(t, x):
            xv = np.array(x)
            return ((V @ xv) * xv).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        states = _rk4_floats(f, x0, times, signed_h, landing)
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


def compare(series_eval, traj: Trajectory, window: tuple[float, float],
            t0: float | None = None,
            radius: float | None = None) -> CompareReport:
    """Max and RMS relative error of ``series_eval(t)`` against trajectory
    samples with window[0] <= t <= window[1].

    When the series center and radius bound are supplied, samples beyond the
    bound are counted in ``out_of_radius`` (they still enter the error
    statistics; callers decide what to make of them).
    """
    a, b = float(window[0]), float(window[1])
    if a > b:
        a, b = b, a
    mask = (traj.times >= a - 1e-15) & (traj.times <= b + 1e-15)
    if not np.any(mask):
        raise EmptyWindow(f"no trajectory samples in [{a}, {b}]")
    times = traj.times[mask]
    states = traj.states[mask]
    rels = []
    out = 0
    for t, ref in zip(times, states):
        got = np.asarray(series_eval(t), dtype=float)
        denom = np.maximum(np.abs(ref), 1e-12)
        rels.append(np.abs(got - ref) / denom)
        if radius is not None and t0 is not None and abs(t - t0) >= radius:
            out += 1
    rels = np.array(rels)
    with np.errstate(over="ignore"):   # relative errors above 1e154: inf RMS
        rms = float(np.sqrt(np.mean(rels ** 2)))
    return CompareReport(
        max_rel=float(rels.max()),
        rms_rel=rms,
        n_samples=len(times),
        out_of_radius=out)
