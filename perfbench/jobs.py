"""Seeded job lists for the four workloads, with their reference values.

A workload is one *round*: a list of CLI jobs that the closed loop repeats
until the run's time is up.  The seed draws every number the program sees
(initial values, generated frame and system entries, horizons, windows);
the round's structure (which fixtures, which (support, order) shapes, how
many RK4 steps) is fixed per workload, so runs with different seeds do the
same amount of work and their timings can be compared.

Generated numbers are dyadic rationals, so the floats the program parses
are exactly the rationals the references use.  Generated texts go to the
run's temporary directory; ``tests/data`` fixtures are read where they are.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

class Mismatch(Exception):
    """A CLI result that does not have the shape its reference expects."""


@dataclass
class Job:
    """One CLI invocation and how to judge its ``result``."""

    label: str
    command: str                 # series | solve | check
    path: str
    opts: dict
    error: Callable[[dict], float]   # relative error against the reference
    tol: float
    sizes: dict = field(default_factory=dict)

    def argv(self, output: str) -> list[str]:
        o = self.opts
        argv = [self.command, self.path, "--x0", _csv(o["x0"]),
                "--order", str(o["order"]), "--t0", repr(float(o["t0"]))]
        if self.command == "solve":
            argv += ["--to", repr(float(o["to"])), "--theta", repr(o["theta"]),
                     "--max-steps", str(o["max_steps"])]
        elif self.command == "check":
            a, b = o["window"]
            argv += [f"--window={float(a)!r},{float(b)!r}",
                     "--step", repr(float(o["step"])),
                     "--samples", str(o["samples"])]
        return argv + ["--format", "json", "--output", output]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _dyadic(rng: random.Random, lo, hi, den: int = 16, nonzero=False) -> Fraction:
    while True:
        k = rng.randint(math.ceil(lo * den), math.floor(hi * den))
        if k or not nonzero:
            return Fraction(k, den)


class Inputs:
    """Writes generated inputs and computes references before timing."""

    def __init__(self, root: Path, tmp: Path, seed: int, cli_main):
        self.data = root / "tests" / "data"
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.cli_main = cli_main
        self._quad: dict[str, tuple] = {}
        self._count = 0

    # ---- inputs -----------------------------------------------------------

    def fixture(self, name: str) -> str:
        return str(self.data / name)

    def write(self, suffix: str, text: str) -> str:
        self._count += 1
        path = self.tmp / f"gen{self._count:03d}{suffix}"
        path.write_text(text)
        return str(path)

    def x0(self, n, lo=0.5, hi=1.5) -> list[Fraction]:
        return [_dyadic(self.rng, lo, hi, nonzero=True) for _ in range(n)]

    def const_frame(self, m: int, sigma: int) -> list:
        """m x m constant frame whose first sigma columns are nonzero; row i
        has sign (-1)^i.  Signs that alternate along a row make the
        stationary engine cancel (see CANCELLATION_PROBE), by an amount that
        depends on the draw, which would make correct_digits depend on the
        seed."""
        return [[[(-1) ** i * _dyadic(self.rng, 0.5, 1, 8)] if j < sigma
                 else [Fraction(0)] for j in range(m)] for i in range(m)]

    def quadratic(self, path: str, x0) -> tuple[list, list[Fraction], dict[int, int]]:
        """Frame rows, initial point and component map the CLI solves on.

        A ``.spode`` input goes through ``spquad quadratize`` (inclusive),
        and the initial point of its frame is the printed coordinate monomials
        evaluated at x0.
        """
        if path.endswith(".frame"):
            rows = ref.parse_frame_text(Path(path).read_text())
            return rows, list(x0), {i: i for i in range(1, len(rows) + 1)}
        if path not in self._quad:
            out = self.tmp / "quadratize.json"
            rc = self.cli_main(["quadratize", path, "--mode", "inclusive",
                                "--format", "json", "--output", str(out)])
            if rc != 0:
                raise RuntimeError(f"quadratize {path} exited {rc}")
            res = json.loads(out.read_text())["result"]
            self._quad[path] = (ref.parse_frame_text(res["frame"]),
                                [c["monomial"] for c in res["coordinates"]],
                                {int(i): s for i, s in res["identity"].items()})
        rows, monomials, identity = self._quad[path]
        xf = [float(v) for v in x0]
        z0 = [ref.exact(ref.monomial_value(mono, xf)) for mono in monomials]
        return rows, z0, identity

    def horizon(self, path: str, x0, multiple) -> Fraction:
        """``multiple`` times the radius bound at the start, as a float."""
        rows, z0, _ = self.quadratic(path, x0)
        return Fraction(float(multiple * Fraction(ref.radius_bound(rows, z0, Fraction(0)))))

    # ---- jobs -------------------------------------------------------------

    def series(self, path: str, x0, K: int, t0=Fraction(0), label="") -> Job:
        """Error: the worst coefficient error relative to the largest
        coefficient of its order over the whole solution vector the program
        computes (normwise per order)."""
        rows, z0, comps = self.quadratic(path, x0)
        c, a = (np.array(v) for v in ref.taylor_exact(rows, z0, t0, K))
        want = {str(i): (c[:, s - 1], a[:, s - 1]) for i, s in comps.items()}
        c_scale, a_scale = (np.abs(v).max(axis=1) for v in (c, a))

        def error(result):
            if result["order"] != K or set(result["components"]) != set(want):
                raise Mismatch("order or component set differs")
            worst = 0.0
            for key, (c_ref, a_ref) in want.items():
                got = result["components"][key]
                worst = max(worst, _rel(got["c"], c_ref, c_scale),
                            _rel(got["c_normalized"], a_ref, a_scale))
            return worst

        return Job(label or Path(path).name, "series", path,
                   {"x0": x0, "order": K, "t0": t0}, error, tol=1e-6,
                   sizes=_sizes(rows, K))

    def solve(self, path: str, x0, T, exact_values: list[float], label="") -> Job:
        rows, _, comps = self.quadratic(path, x0)
        want = {str(i): v for i, v in zip(sorted(comps), exact_values)}

        def error(result):
            if result["t"] != float(T) or set(result["value"]) != set(want):
                raise Mismatch("target time or component set differs")
            return max(abs(result["value"][k] - v) / abs(v) for k, v in want.items())

        return Job(label or Path(path).name, "solve", path,
                   {"x0": x0, "order": 30, "t0": Fraction(0), "to": T,
                    "theta": 0.5, "max_steps": 200}, error, tol=1e-6,
                   sizes=_sizes(rows, 30))

    def check(self, path: str, x0, K: int, half_steps: int, both_sides: bool,
              label="") -> Job:
        """Window of an eighth of the radius bound, where the truncation
        error is near rounding, so max_rel does not swing with the draw; RK4
        step fixed by ``half_steps`` per side so the oracle's work does not
        depend on the seed either."""
        rows, z0, _ = self.quadratic(path, x0)
        w = Fraction(ref.radius_bound(rows, z0, Fraction(0))) / 8
        window = (-w if both_sides else Fraction(0), w)
        step = w / half_steps

        def error(result):
            if result["flagged"] or result["out_of_radius"]:
                raise Mismatch("samples beyond the radius bound")
            if result["window"] != [float(window[0]), float(window[1])]:
                raise Mismatch("window differs")
            return result["max_rel"]

        return Job(label or Path(path).name, "check", path,
                   {"x0": x0, "order": K, "t0": Fraction(0), "window": window,
                    "step": step, "samples": 200}, error, tol=1e-6,
                   sizes=_sizes(rows, K))


def _rel(got, want: np.ndarray, scale: np.ndarray) -> float:
    got = np.asarray(got, dtype=float).reshape(want.shape)
    err = np.abs(got - want)
    return float(np.max(np.where(scale > 0.0, err / np.where(scale > 0.0, scale, 1.0), err)))


def _sizes(rows, K) -> dict:
    return {"frame_dim": len(rows), "support_size": ref.support_size(rows), "order": K}


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

# A fixed frame whose columns alternate in sign: the multiset sums cancel,
# and the stationary engine keeps about 10 of 16 digits at order 16 (fewer
# as the order grows).  It pins correct_digits to the engine's accuracy on
# such frames without making it depend on the seed.
CANCELLATION_PROBE = "0.75 -0.625 0.5\n0.875 -0.5 0.625\n0.5 -0.75 0.875\n"


def series_stationary(b: Inputs) -> list[Job]:
    """24 jobs, each a distinct (support, order) shape, so that no job finds
    another job's tables.  High orders only where the support is small: the
    multiset sums cancel more as the order grows."""
    jobs = []
    for K in (9, 11, 13):
        jobs.append(b.series(b.fixture("five_monomials.spode"), b.x0(3), K))
    for K in (14, 17, 20):
        jobs.append(b.series(b.fixture("linear2.spode"), b.x0(2), K))
    for K in (60, 90):
        jobs.append(b.series(b.fixture("bernoulli.spode"), b.x0(1), K))
    for K in (70, 100):
        jobs.append(b.series(b.fixture("affine.spode"), b.x0(1), K))
    path = b.write(".frame", CANCELLATION_PROBE)
    jobs.append(b.series(path, [Fraction(1), Fraction(3, 4), Fraction(5, 4)], 16,
                         label="cancellation probe"))
    for m, sigma, K in ((2, 1, 40), (3, 1, 120), (3, 2, 16), (2, 2, 24),
                        (4, 3, 18), (4, 4, 10), (5, 4, 12),
                        (5, 5, 8), (6, 5, 10), (6, 6, 7), (7, 6, 9),
                        (7, 7, 8), (8, 8, 7)):
        path = b.write(".frame", ref.frame_text(b.const_frame(m, sigma)))
        jobs.append(b.series(path, b.x0(m), K, label=f"const m={m} sigma={sigma} K={K}"))
    return jobs


# The general engine's counterpart of CANCELLATION_PROBE: off-diagonal
# linear jets of opposite signs, where it keeps about 12.6 digits at order 14.
JET_PROBE = "0 poly(0.75,-0.5)\npoly(-0.625,0.875) 0\n"


def series_jet(b: Inputs) -> list[Job]:
    jobs = []
    t0s = lambda: _dyadic(b.rng, 0, 0.5, 8)
    for K in (8, 12, 16):
        jobs.append(b.series(b.fixture("airy_first_order.spode"), b.x0(2), K, t0s()))
    for K in (2, 3, 4):
        jobs.append(b.series(b.fixture("exdom.spode"), b.x0(3), K))
    for K in (4, 6, 8):
        jobs.append(b.series(b.fixture("ex4_variant.frame"), b.x0(4), K, t0s()))
    for K in (16, 32, 48):
        jobs.append(b.series(b.fixture("vex.frame"), b.x0(2), K, t0s()))
    path = b.write(".frame", JET_PROBE)
    jobs.append(b.series(path, [Fraction(1), Fraction(3, 4)], 14, Fraction(1, 4),
                         label="jet probe"))
    # generated frames: fixed sparsity and degrees per slot, seeded values,
    # row i with sign (-1)^i as in Inputs.const_frame
    for m, degrees, K in (
            (2, [[1, 0], [0, 2]], 12),
            (2, [[2, 1], [0, 0]], 12), (2, [[1, 1], [1, 1]], 10),
            (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6),
            (3, [[0, 1, 0], [0, 0, 2], [1, 0, 0]], 8),
            (3, [[1, 0, 1], [0, 0, 0], [0, 1, 0]], 7),
            (3, [[2, 0, 0], [0, 0, 1], [0, 1, 0]], 7)):
        rows = [[[(-1) ** i * _dyadic(b.rng, 0.5, 1, 8) for _ in range(d + 1)]
                 if d else [Fraction(0)] for d in row]
                for i, row in enumerate(degrees)]
        path = b.write(".frame", ref.frame_text(rows))
        jobs.append(b.series(path, b.x0(m), K, t0s(), label=f"poly m={m} K={K}"))
    return jobs


def _metzler_shapes(count: int) -> list[tuple[list, list[Fraction]]]:
    """Fixed 2x2 Metzler matrices (nonnegative off-diagonal) with initial
    points x0 > 0, where the exact solution stays in the open positive
    orthant for every t >= 0.  Drawn once from a fixed stream: a recenter
    count that depends on the draw made the median solve job jump by a
    fifth between seeds."""
    rng = random.Random(0)
    return [([[_dyadic(rng, -0.5, 0.5, 8, nonzero=True), _dyadic(rng, 0.125, 0.5, 8)],
              [_dyadic(rng, 0.125, 0.5, 8), _dyadic(rng, -0.5, 0.5, 8, nonzero=True)]],
             [_dyadic(rng, 0.5, 1.5, nonzero=True) for _ in range(2)])
            for _ in range(count)]


METZLER = _metzler_shapes(14)


def solve_path(b: Inputs) -> list[Job]:
    """Horizons are fixed multiples of the starting radius bound r0, so the
    number of recenters, and with it the work, depends little on the draw.
    The round is 12 cheap jobs (1-dim, affine, bernoulli), 14 Metzler jobs
    (1.25 to 2.9 r0) and 8 costly ones (linear2 at 3 to 4.5 r0, Airy), so
    that the median and p90 each fall inside one group of like jobs.  Within
    the Metzler and linear2 groups the multiple grows from job to job, so
    that their times spread out instead of piling up at one recenter count.
    """
    jobs = []
    for k in range(8):
        # x' = a x^2 is scale-free: a horizon c / (|a| x0) needs the same
        # recenters for every draw
        a = _dyadic(b.rng, 0.25, 1, nonzero=True) * (1 if k % 2 else -1)
        x0 = b.x0(1)[0]
        c = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))[k % 3] if a > 0 \
            else (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))[k % 4]
        T = Fraction(float(c / (abs(a) * x0)))
        path = b.write(".frame", ref.frame_text([[[a]]]))
        jobs.append(b.solve(path, [x0], T, [ref.riccati_1d(a, x0, T)],
                            label=f"riccati c={float(c)}"))
    for _ in range(2):
        # x' = -0.7 x - 1.1 stays positive until (x0 + 11/7) e^{-0.7t} = 11/7,
        # later than 4 r0 for x0 in [2, 5] (1.17 against 0.91 at x0 = 2)
        x0 = [_dyadic(b.rng, 2, 5)]
        T = b.horizon(b.fixture("affine.spode"), x0, 4)
        jobs.append(b.solve(b.fixture("affine.spode"), x0, T,
                            [ref.affine(-0.7, -1.1, x0[0], T)]))
    for _ in range(2):
        x0 = [_dyadic(b.rng, 0.25, 2, nonzero=True)]
        T = b.horizon(b.fixture("bernoulli.spode"), x0, 2)
        jobs.append(b.solve(b.fixture("bernoulli.spode"), x0, T,
                            [ref.bernoulli_half(0.5, 0.3, x0[0], T)]))
    linear2 = [[Fraction(3, 10), Fraction(-1, 5)], [Fraction(1), Fraction(1, 10)]]
    for k in range(7):
        # linear2 rotates slowly: redraw until the exact orbit stays in the
        # open positive orthant on a grid over the horizon
        while True:
            x0 = b.x0(2)
            T = b.horizon(b.fixture("linear2.spode"), x0, 3 + Fraction(k, 4))
            if all(min(ref.linear(linear2, x0, T * g / 8)) > 0 for g in range(1, 9)):
                break
        jobs.append(b.solve(b.fixture("linear2.spode"), x0, T,
                            ref.linear(linear2, x0, T)))
    for k, (shape, x0) in enumerate(METZLER):
        # the seed scales the matrix, which only rescales time: the horizon
        # scales with r0 and the recenters stay those of the shape
        scale = _dyadic(b.rng, 0.5, 1, nonzero=True)
        A = [[scale * a for a in row] for row in shape]
        text = "".join(
            f"x{i + 1}' = {float(r[0])!r}*x1 {'-' if r[1] < 0 else '+'} {float(abs(r[1]))!r}*x2\n"
            for i, r in enumerate(A))
        path = b.write(".spode", text)
        T = b.horizon(path, x0, Fraction(5, 4) + Fraction(k, 8))
        jobs.append(b.solve(path, x0, T, ref.linear(A, x0, T), label="metzler 2x2"))
    # K=30 on a time-dependent frame is costly per recenter: one recenter
    x0 = b.x0(2)
    T = b.horizon(b.fixture("airy_first_order.spode"), x0, Fraction(1, 4))
    jobs.append(b.solve(b.fixture("airy_first_order.spode"), x0, T,
                        ref.airy(x0[0], x0[1], T)))
    return jobs


def check_oracle(b: Inputs) -> list[Job]:
    """18 .spode jobs (RK4 over the monomial system) and 16 constant .frame
    jobs (rk4_frame), 400 to 1600 RK4 steps each."""
    jobs = []
    for k in range(4):
        jobs.append(b.check(b.fixture("five_monomials.spode"), b.x0(3), 10, 400, k % 2 == 0))
        jobs.append(b.check(b.fixture("linear2.spode"), b.x0(2), 10, 500, k % 2 == 1))
        jobs.append(b.check(b.fixture("bernoulli.spode"), b.x0(1), 12, 600, k % 2 == 0))
        jobs.append(b.check(b.fixture("affine.spode"), b.x0(1), 12, 600, k % 2 == 1))
    for k in range(2):
        jobs.append(b.check(b.fixture("airy_first_order.spode"), b.x0(2), 8, 400, k == 0))
    for k in range(16):
        m = 2 + k % 4
        path = b.write(".frame", ref.frame_text(b.const_frame(m, m)))
        jobs.append(b.check(path, b.x0(m), 10 + 2 * (k % 2), 800 + 200 * (k % 5), True,
                            label=f"const m={m}"))
    return jobs


WORKLOADS = {"series_stationary": series_stationary, "series_jet": series_jet,
            "solve_path": solve_path, "check_oracle": check_oracle}


def build(workload: str, root: Path, tmp: Path, seed: int, cli_main) -> list[Job]:
    """The workload's round in a seeded order."""
    b = Inputs(root, tmp, seed, cli_main)
    jobs = WORKLOADS[workload](b)
    b.rng.shuffle(jobs)
    return jobs
