"""Independent numeric reference: classical fixed-step RK4.

Deliberately shares no machinery with the series engine so the two can
cross-check each other.  Accepts both monomial systems and quadratic frames
as right-hand sides and steps their own ``rhs``; constant frames take a loop
over the matrix directly.

The constant-frame loop tests finiteness once per chunk of
``_FINITE_CHUNK`` steps and then locates the first non-finite state inside
the chunk, so it stops at the same state as a test after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Blowup, EmptyWindow
from .quadratize import QuadraticFrame

MAX_STEPS = 10_000_000
_FINITE_CHUNK = 128  # constant-frame RK4 steps between finiteness tests


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

    def to_csv(self, path) -> None:
        m = self.states.shape[1]
        header = "t," + ",".join(f"x{i}" for i in range(1, m + 1))
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t, row in zip(self.times, self.states):
                cells = [repr(float(t))] + [repr(float(v)) for v in row]
                fh.write(",".join(cells) + "\n")


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


def _rk4_frame(V, x0, n_steps, h, landing):
    """RK4 states for dx_i/dt = (V x)_i x_i; ``ok`` is false (and the states
    stop) once a state is non-finite."""
    states = np.empty((n_steps + 1, len(x0)))
    states[0] = x0
    x = x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _FINITE_CHUNK):
            stop = min(start + _FINITE_CHUNK, n_steps)
            for k in range(start, stop):
                dt = landing if k == n_steps - 1 else h
                k1 = (V @ x) * x
                x2 = x + 0.5 * dt * k1
                k2 = (V @ x2) * x2
                x3 = x + 0.5 * dt * k2
                k3 = (V @ x3) * x3
                x4 = x + dt * k3
                k4 = (V @ x4) * x4
                x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                states[k + 1] = x
            finite = np.isfinite(states[start + 1:stop + 1]).all(axis=1)
            if not finite.all():
                return states[:start + 2 + int(np.argmin(finite))], False
    return states, True


def rk4(rhs, x0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical RK4 from t0 to t1 (either direction) with step h > 0.

    ``rhs`` is a :class:`QuadraticFrame` or a :class:`SigmaPiOde`.  The
    final step is shortened to land on t1 exactly.  Raises :class:`Blowup`
    when the state stops being finite or a monomial power overflows the
    float range; domain errors from
    monomial evaluation (undefined powers) propagate as
    :class:`~spquad.errors.DomainViolation`.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    x0 = np.asarray(x0, dtype=float)
    kind = type(rhs).__name__
    n, signed_h, landing = _steps(t0, t1, h)
    if n == 0:
        return Trajectory(np.array([t0]), x0.reshape(1, -1),
                          {"h": h, "rhs": kind})
    times = t0 + signed_h * np.arange(n + 1)
    times[-1] = t1

    if isinstance(rhs, QuadraticFrame) and rhs.is_stationary:
        V = rhs.constant_matrix()
        states, ok = _rk4_frame(V, x0, n, signed_h, landing)
        if not ok:
            raise Blowup(f"state non-finite near t = {times[len(states) - 1]}")
        return Trajectory(times, states, {"h": h, "rhs": kind})

    f = rhs.rhs
    states = np.empty((n + 1, len(x0)))
    states[0] = x0
    x = x0.copy()
    for k in range(n):
        dt = landing if k == n - 1 else signed_h
        t = times[k]
        try:
            k1 = f(t, x)
            k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
            k4 = f(t + dt, x + dt * k3)
        except OverflowError as exc:   # a power beyond the float range
            raise Blowup(f"state overflowed near t = {times[k + 1]}") from exc
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise Blowup(f"state non-finite near t = {times[k + 1]}")
        states[k + 1] = x
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
    return CompareReport(
        max_rel=float(rels.max()),
        rms_rel=float(np.sqrt(np.mean(rels ** 2))),
        n_samples=len(times),
        out_of_radius=out)
