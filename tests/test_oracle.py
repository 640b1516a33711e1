import functools
import hashlib
import io
import math
import operator
import re
import tokenize
import tracemalloc
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spquad as sq
from spquad.errors import Blowup, DomainViolation, EmptyWindow
from spquad.oracle import (D, _frame_rows, _loop, _loop_source, _loop_spec,
                           step_count)
from spquad.parse import parse_frame, parse_ode
from spquad.series import RadiusWarning

from support import random_jet_frame, scalar_horner

DATA = Path(__file__).resolve().parent / "data"


def test_rk4_exponential_accuracy():
    frame = sq.QuadraticFrame([[0.0, 1.0], [0.0, 0.0]])
    traj = sq.rk4(frame, [1.0, 1.0], 0.0, 1.0, 1e-4)
    assert abs(traj.states[-1][0] - np.e) < 1e-10
    assert traj.times[-1] == 1.0


def test_rk4_quadratic_accuracy():
    traj = sq.rk4(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 0.5, 1e-5)
    assert abs(traj.states[-1][0] - 2.0) < 1e-8


def test_rk4_single_point_when_span_zero():
    traj = sq.rk4(sq.QuadraticFrame([[1.0]]), [3.0], 2.0, 2.0, 0.1)
    assert traj.times.tolist() == [2.0]
    assert traj.states.tolist() == [[3.0]]


def test_rk4_backward_integration():
    frame = sq.QuadraticFrame([[0.0, 1.0], [0.0, 0.0]])
    traj = sq.rk4(frame, [1.0, 1.0], 0.0, -1.0, 1e-4)
    assert abs(traj.states[-1][0] - np.exp(-1.0)) < 1e-10


def test_rk4_sigma_pi_rhs():
    ode = sq.SigmaPiOde(1, [[((0.0, 2.0), {1: 1})]])  # x' = 2 t x
    traj = sq.rk4(ode, [1.0], 0.0, 0.7, 1e-4)
    assert abs(traj.states[-1][0] - np.exp(0.49)) < 1e-10


def test_a_polynomial_coefficient_at_a_center_keeps_the_horner_bits():
    """At center 0.7, SigmaPiOde.rhs, the generated RK4 loop and
    CoefficientTensor.coefficients evaluate c(t) = 0.3 - 1.2 u + 0.45 u^2
    + 2 u^3, u = t - 0.7, with the bits of Horner's rule on Python floats
    from 0.0."""
    c = (0.3, -1.2, 0.45, 2.0)
    ode = sq.SigmaPiOde(1, [[(c, {1: 1})]], center=0.7)   # x' = c(t) x

    def reference(t, x):
        return np.array([0.0 + scalar_horner(c, t - 0.7) * (1.0 * x[0])])

    for t in (0.0, 0.7, 1.3, -2.25, 5.0):
        assert ode.rhs(t, [1.5]).tobytes() == reference(t, [1.5]).tobytes()
    traj = sq.rk4(ode, [1.5], 0.0, 0.5, 0.01)
    _, states, message = numpy_rk4(reference, [1.5], 0.0, 0.5, 0.01)
    assert message is None and traj.states.tobytes() == states.tobytes()
    tensor = sq.coefficient_tensors(sq.QuadraticFrame([[c]], center=0.7), 1)[1]
    assert tensor.center == 0.7
    for t0 in (0.0, 0.7, 1.3, -2.25, 5.0):
        got = tensor.coefficients([1.0], t0, 1)[1]
        assert float(got).hex() == scalar_horner(c, t0 - 0.7).hex()


def test_rk4_order_four_convergence():
    frame = sq.QuadraticFrame([[1.0]])
    errs = []
    for h in (0.02, 0.01):
        traj = sq.rk4(frame, [1.0], 0.0, 0.5, h)
        errs.append(abs(traj.states[-1][0] - 2.0))
    assert errs[0] / errs[1] > 12.0  # ~16 for a 4th order method


@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1e-3])
def test_rk4_rejects_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match="h must be finite and positive"):
        sq.rk4(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 1.0, h)


@pytest.mark.parametrize("model, x0, t0, t1, message", [
    (sq.QuadraticFrame([[1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0, 1.0], 0.0, 0.1,
     r"x0 has shape \(3,\), the model dimension is 2"),
    (sq.QuadraticFrame([[1.0, 0.0], [0.0, 1.0]]), [1.0], 0.0, 0.1,
     r"x0 has shape \(1,\), the model dimension is 2"),
    (sq.SigmaPiOde(1, [[(1.0, {1: 2})]]), [[1.0]], 0.0, 0.1,
     r"x0 has shape \(1, 1\), the model dimension is 1"),
    (sq.QuadraticFrame([[1.0]]), [1.0], 0.0, math.nan,
     "t0 = 0.0 and t1 = nan must be finite"),
    (sq.QuadraticFrame([[1.0]]), [1.0], -math.inf, 0.0,
     "t0 = -inf and t1 = 0.0 must be finite"),
], ids=["three-values-two-components", "one-value-two-components",
        "nested-x0", "nan-t1", "infinite-t0"])
def test_rk4_rejects_a_start_that_does_not_fit_the_model(model, x0, t0, t1,
                                                         message):
    with pytest.raises(ValueError, match=message):
        sq.rk4(model, x0, t0, t1, 0.01)


def test_rk4_blowup_detected():
    with pytest.raises(Blowup):
        sq.rk4(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 2.0, 1e-3)


# --------------------------------------------------------------------------
# the float loop against a numpy-vector loop written out here
# --------------------------------------------------------------------------

def numpy_rk4(f, x0, t0, t1, h):
    """Reference: RK4 on numpy vectors, testing finiteness after every step.

    Returns (times, states up to the last one computed, Blowup message or
    None).  ``f(t, x)`` returns an array; an OverflowError from it ends the
    run like a non-finite state.
    """
    n = step_count(abs(t1 - t0), h)
    signed_h = h if t1 > t0 else -h
    landing = (t1 - t0) - (n - 1) * signed_h
    times = t0 + signed_h * np.arange(n + 1)
    times[-1] = t1
    states = np.empty((n + 1, len(x0)))
    states[0] = x0
    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            dt = landing if k == n - 1 else signed_h
            t = times[k]
            try:
                k1 = f(t, x)
                k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
                k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
                k4 = f(t + dt, x + dt * k3)
            except OverflowError:
                return (times, states[:k + 1],
                        f"state overflowed near t = {times[k + 1]}")
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[k + 1] = x
            if not np.isfinite(x).all():
                return (times, states[:k + 2],
                        f"state non-finite near t = {times[k + 1]}")
    return times, states, None


def matrix_rhs(V):
    return lambda t, x: (V @ x) * x


def frame_model(m):
    """x1' = x1^2, which blows up at t = 1/x1(0), and x_i' = x1 x_i / 2."""
    V = np.zeros((m, m))
    V[:, 0] = 0.5
    V[0, 0] = 1.0
    return sq.QuadraticFrame(V.tolist()), matrix_rhs(V), m


def jet_frame_model(m):
    """The same system with x_i' = (1/2 + t/4) x1 x_i for i > 1: a
    time-dependent frame whose first component blows up as before."""
    rows = [[0.0] * m for _ in range(m)]
    rows[0][0] = 1.0
    for row in rows[1:]:
        row[0] = (0.5, 0.25)
    frame = sq.QuadraticFrame(rows)
    return frame, frame.rhs, m


def spode_model():
    """The same system for m = 2, x1^2 a power that raises OverflowError."""
    ode = sq.SigmaPiOde(2, [[(1.0, {1: 2})], [(0.5, {1: 1, 2: 1})]])
    return ode, ode.rhs, 2


BLOWUP_MODELS = {
    "float_frame": lambda: frame_model(2),
    "jet_frame": lambda: jet_frame_model(3),
    "numpy_frame": lambda: frame_model(D + 1),
    "spode": spode_model,
}


@pytest.mark.parametrize("model", sorted(BLOWUP_MODELS))
@pytest.mark.parametrize("row", [1, 127, 128, 129, 256])
def test_rk4_blowup_is_reported_at_the_step_of_a_per_step_loop(model, row):
    """The first non-finite state (or overflowing power) comes at step
    ``row``: the first step, steps 127 to 129 and step 256, so a loop that
    tested finiteness only once per block of steps would name a later
    step; rk4 stops at ``row`` with the message of the per-step
    reference."""
    rhs, f, m = BLOWUP_MODELS[model]()
    h, t1 = 1e-2, 3.84                      # 384 steps
    for s in np.concatenate([np.geomspace(1e-30, 1.0, 61),
                             row + np.arange(-8.0, 8.0, 0.25)]):
        x0 = np.ones(m)
        x0[0] = 1.0 / (h * s)
        _, ref_states, message = numpy_rk4(f, x0, 0.0, t1, h)
        if message is not None and len(ref_states) == row + 1:
            break
    else:
        pytest.fail(f"no initial point blows up at step {row}")
    with pytest.raises(Blowup) as info:
        sq.rk4(rhs, x0, 0.0, t1, h)
    assert str(info.value) == message


SPODE_STARTS = {
    "affine": [0.9],
    "airy_first_order": [0.8, 0.6],
    "bernoulli": [1.2],
    "exdom": [2.0, 0.3, 3.0],
    "five_monomials": [1.0, 0.2, 0.8],
    "linear2": [1.0, 0.5],
}


def test_every_spode_fixture_has_a_start():
    assert {p.stem for p in DATA.glob("*.spode")} == set(SPODE_STARTS)


@pytest.mark.parametrize("name", sorted(SPODE_STARTS))
@pytest.mark.parametrize("span, h", [(0.0503, 1e-3), (-0.0503, 1e-3),
                                     (0.503, 0.05), (-0.503, 0.05)])
def test_spode_trajectory_is_bitwise_the_numpy_vector_loop(name, span, h):
    """Monomial systems step on floats with the IEEE operations of the
    numpy loop, in its order, so the states agree bit for bit; both
    directions, with a last step shortened to 3e-4 or 3e-3.  At h = 0.05 a
    step changes the state by enough that a rounding difference in the
    increment shows in the state."""
    ode = parse_ode((DATA / f"{name}.spode").read_text())
    x0 = SPODE_STARTS[name]
    traj = sq.rk4(ode, x0, 0.25, 0.25 + span, h)
    times, states, message = numpy_rk4(ode.rhs, x0, 0.25, 0.25 + span, h)
    assert message is None and abs(times[-1] - times[-2]) < h / 2
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


# exponents of every kind of factor: x^1, integer and negative powers,
# roots of odd and even denominator and a power with no exact rational
EXPONENTS = [1, 2, 3, -1, -3, F(1, 2), F(1, 3), F(-1, 5), F(2, 3), 0.7]
# signed zeros, bases a negative power overflows, and negative bases
STARTS = [-0.0, 0.0, 1e-300, -1e-300, 0.3, -0.3, 1.7, -2.5]


@st.composite
def sigma_pi_odes(draw):
    """A system of n <= 3 equations of 1 to 3 terms and its start."""
    n = draw(st.integers(1, 3))
    term = st.tuples(st.sampled_from([1.0, -0.5, 2.0, -1.25]),
                     st.dictionaries(st.integers(1, n),
                                     st.sampled_from(EXPONENTS), max_size=n))
    ode = sq.SigmaPiOde(n, [draw(st.lists(term, min_size=1, max_size=3))
                            for _ in range(n)])
    return ode, [draw(st.sampled_from(STARTS)) for _ in range(n)]


def outcome(run):
    """The state bytes of a run, or its error's class and text."""
    try:
        times, states, message = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if message is not None:
        return "Blowup", message
    return times.tobytes(), states.tobytes()


def loop_run(ode, x0, span):
    traj = sq.rk4(ode, x0, 0.0, span, 0.01)
    return traj.times, traj.states, None


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(sigma_pi_odes(), st.sampled_from([0.05, -0.05, 0.5]))
def test_generated_factors_keep_every_outcome_of_the_numpy_loop(case, span):
    """The loop writes x^1 as x and takes math.pow for a positive base,
    calling real_pow only for the others: the states, the Blowup and the
    domain errors are those of the numpy loop on the system's own rhs, the
    sign of a zero base included."""
    ode, x0 = case
    got = outcome(lambda: loop_run(ode, x0, span))
    want = outcome(lambda: numpy_rk4(ode.rhs, x0, 0.0, span, 0.01))
    assert got == want


@pytest.mark.parametrize("m", range(1, D + 3))
def test_constant_frame_agrees_with_matrix_product_loop(m):
    """Dimensions up to D step on generated float code, whose dot products
    sum left to right where ``V @ x`` may not; the states then differ by
    rounding only, bounded here by n * m * eps relative (n = 200 steps of a
    system whose states stay positive and of order one).  Above D the
    right-hand side is ``V @ x`` itself, so the states agree bit for
    bit."""
    rng = np.random.default_rng(700 + m)
    V = rng.uniform(-1.0, 1.0, (m, m))
    x0 = rng.uniform(0.2, 1.0, m)
    traj = sq.rk4(sq.QuadraticFrame(V.tolist()), x0, 0.0, 0.2, 1e-3)
    _, states, message = numpy_rk4(matrix_rhs(V), x0, 0.0, 0.2, 1e-3)
    assert message is None and traj.states.shape == states.shape == (201, m)
    rel = np.max(np.abs(traj.states - states) / np.abs(states))
    assert rel <= 200 * m * np.finfo(float).eps, rel
    if m > D:   # the same operations in the same order
        assert traj.states.tobytes() == states.tobytes()


def jet_frames():
    """The two .frame fixtures and seeded random jet frames of dimension 2,
    5, 10 and 12, with a start of positive components each."""
    for name in ("vex", "ex4_variant"):
        frame = parse_frame((DATA / f"{name}.frame").read_text())
        yield pytest.param(frame, np.linspace(0.5, 1.0, frame.dim), id=name)
    for m in (2, 5, 10, 12):
        rng = np.random.default_rng(800 + m)
        frame = random_jet_frame(rng, m=m, center=0.25)
        yield pytest.param(frame, rng.uniform(0.2, 1.0, m), id=f"jet{m}")


@pytest.mark.parametrize("frame, x0", list(jet_frames()))
@pytest.mark.parametrize("span, h", [(0.3006, 2e-3), (-0.3006, 2e-3),
                                     (0.503, 0.05), (-0.503, 0.05)])
def test_time_dependent_frame_is_bitwise_the_numpy_vector_loop(
        frame, x0, span, h):
    """A time-dependent frame steps on the floats of its own ``rhs``, so
    the states agree bit for bit with the numpy loop on the same
    right-hand side; both directions, from t0 = 0.1 off the jets' center,
    with a shortened last step."""
    assert not frame.is_stationary
    traj = sq.rk4(frame, x0, 0.1, 0.1 + span, h)
    times, states, message = numpy_rk4(frame.rhs, x0, 0.1, 0.1 + span, h)
    assert message is None and abs(times[-1] - times[-2]) < h / 2
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


# --------------------------------------------------------------------------
# golden trajectories: every model, recorded from the loop before it was
# generated
# --------------------------------------------------------------------------

# forward and backward from t0 = 0.1, each with a shortened last step
GOLDEN_SPANS = [(0.3006, 2e-3), (-0.3006, 2e-3), (2.503, 0.05), (-2.503, 0.05)]
# starts that leave the domain of a fractional power or blow up early
SPODE_EXITS = {
    "bernoulli": [-0.5],
    "exdom": [2.0, 0.3, -3.0],
    "five_monomials": [-1.0, 2.0, 0.8],
}
# signed zeros, whose sign the sums must keep as the per-stage loop did
SPODE_ZEROS = {"airy_first_order": [-0.0, -0.0], "linear2": [-0.0, 0.0]}
# one entry of the second frame of each dimension, cycled over m
GOLDEN_EXTREMES = [1.797e308, math.inf, -math.inf, math.nan]


def golden_models():
    """(name, model, x0): the .spode fixtures, seeded constant frames of
    dimension 1 to 12, and the jet frames above."""
    for name, x0 in sorted(SPODE_STARTS.items()):
        ode = parse_ode((DATA / f"{name}.spode").read_text())
        yield name, ode, x0
        if name in SPODE_EXITS:
            yield f"{name}-exit", ode, SPODE_EXITS[name]
        if name in SPODE_ZEROS:
            yield f"{name}-zero", ode, SPODE_ZEROS[name]
    for m in range(1, 13):
        rng = np.random.default_rng(900 + m)
        V = rng.uniform(-1.0, 1.0, (m, m))
        x0 = rng.uniform(0.2, 1.0, m)
        tiny = V.copy()
        tiny.flat[rng.permutation(m * m)[:2]] = [-0.0, 5e-324][:m * m]
        start = x0.copy()
        if m > 1:
            start[-1] = -0.0
        yield f"const{m}", sq.QuadraticFrame(tiny.tolist()), start
        V.flat[rng.integers(m * m)] = GOLDEN_EXTREMES[m % 4]
        yield f"const{m}-extreme", sq.QuadraticFrame(V.tolist()), x0
    for param in jet_frames():
        frame, x0 = param.values
        yield param.id, frame, x0


def golden_outcomes(model, x0):
    """Per span of GOLDEN_SPANS: the SHA-1 prefix of the times and states,
    or the error's class and text."""
    out = []
    for span, h in GOLDEN_SPANS:
        try:
            traj = sq.rk4(model, x0, 0.1, 0.1 + span, h)
        except (Blowup, DomainViolation) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        data = traj.times.tobytes() + traj.states.tobytes()
        out.append(hashlib.sha1(data).hexdigest()[:12])
    return tuple(out)


NF = "Blowup: state non-finite near t = "
OV = "Blowup: state overflowed near t = "
NEG = "DomainViolation: negative base "
# golden_outcomes per golden model, recorded from the list-of-floats loop
# that called a right-hand side per stage
GOLDEN = {
    "affine": ("f9e32fabc99b", "e1eafc8ad202", "657995c51b85", "cd488671f8cc"),
    "airy_first_order": ("b1565ef4ee01", "bc18d4c11356", "57ac26b7159f",
        "b11681935922"),
    "airy_first_order-zero": ("d6d1483742cc", "1c48c95b351c", "f962aa287200",
        "f696f197d568"),
    "bernoulli": ("db04341ed754", "8afa4cd7ce92", "101835cbd08e",
        "f28aecd1083f"),
    "bernoulli-exit": (NEG + "-0.5 with non-integer exponent 0.5",
        NEG + "-0.5 with non-integer exponent 0.5",
        NEG + "-0.5 with non-integer exponent 0.5",
        NEG + "-0.5 with non-integer exponent 0.5"),
    "exdom": ("a845aae27f83", "0c0d02863fb9", OV + "1.2500000000000002",
        NEG + "-0.08854559417735963 with non-integer exponent 0.5"),
    "exdom-exit": (NEG + "-3.0 with non-integer exponent 0.5",
        NEG + "-3.0 with non-integer exponent 0.5",
        NEG + "-3.0 with non-integer exponent 0.5",
        NEG + "-3.0 with non-integer exponent 0.5"),
    "five_monomials": ("13a7da10938c", "3bff1d7aed5e",
        OV + "1.5000000000000002", OV + "-0.7000000000000001"),
    "five_monomials-exit": ("7dfd776b34b7", OV + "0.084", "14d49b0358e1",
        OV + "0.0"),
    "linear2": ("b519d10daf56", "ad7040381673", "e095d112b9ea",
        "4fd1eadb236c"),
    "linear2-zero": ("15702c041144", "6122506ba855", "3f7e3af7cbc7",
        "f24e2c7b2b85"),
    "const1": ("3f3d98aa5dc8", "8b6ee0f810fb", "fa12f59091e5", "4a74a9a3ecf5"),
    "const1-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const2": ("8354315f7df5", "e1797a2d3fe2", "50c0f3eed85a", "c52ffb24cdbf"),
    "const2-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const3": ("5e269ad69504", "e40ac5b00806", NF + "1.9500000000000002",
        "b32fd6c89ee1"),
    "const3-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const4": ("816097a9a3a1", "9d08c86e4d67", "7aad962721b1",
        NF + "-0.9500000000000001"),
    "const4-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const5": ("81ef396ff691", "5cc8d62fd0a7", NF + "1.5500000000000003",
        NF + "-1.15"),
    "const5-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const6": ("5bcfdd71cf67", "8a14d738d5f2", NF + "1.85", "b23250bf174a"),
    "const6-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const7": ("bd6da5995c97", "ea1fc581b9aa", "205dedbe8493",
        NF + "-0.6000000000000001"),
    "const7-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const8": ("2a1bab813a1d", "b775b542ded1", NF + "2.2", "25847302ec5a"),
    "const8-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const9": ("5b7e7a7e2080", "eeb8d47f6535", NF + "1.8000000000000003",
        NF + "-1.5"),
    "const9-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const10": ("85827ac45304", "3076c3628394", NF + "1.35", NF + "-1.5"),
    "const10-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const11": ("6f6fbaf93b0a", "ea092a0502d8", NF + "1.2000000000000002",
        NF + "-1.1"),
    "const11-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "const12": ("b5633cc52911", "4996e76eb81e", NF + "1.05",
        NF + "-0.9500000000000001"),
    "const12-extreme": (NF + "0.10200000000000001", NF + "0.098",
        NF + "0.15000000000000002", NF + "0.05"),
    "vex": ("9661ac10fb6a", "a72e7fb3c417", "9a7801301b1c", "1068022f9daa"),
    "ex4_variant": ("429e31c71bc8", "2b65a1691a9e", "efd3d69edfec",
        NF + "-0.9500000000000001"),
    "jet2": ("c618e35cda9a", "f12ce3ab957f", "6a661c401735", "8974fc6a90f7"),
    "jet5": ("f4928b4e86f9", "13d24c773ab0", NF + "2.45", "7e41b2a2a035"),
    "jet10": ("275944107c51", "194b9ee60d18", NF + "1.5000000000000002",
        NF + "-1.4"),
    "jet12": ("cf1594b9444d", "3aa07a3fed8f", NF + "1.5000000000000002",
        NF + "-1.1"),
}


def test_every_model_keeps_its_golden_trajectories():
    got = {name: golden_outcomes(model, x0)
           for name, model, x0 in golden_models()}
    assert got == GOLDEN


# the names a generated loop may use: its arguments and locals, the helpers
# of its namespace, keywords, and numbered per-component names
LOOP_NAMES = {
    "def", "for", "in", "if", "else", "try", "except", "as", "raise", "from",
    "pass",
    "loop", "R", "F", "X", "S", "ends", "steps", "last", "t0", "h", "landing",
    "k", "dt", "half", "t", "th", "te", "u", "sixth", "exc", "tolist",
    "OverflowError", "pow", "real_pow", "overflowed", "nonfinite"}
NUMBERED = re.compile(r"[xypkor][0-9]+")


def loop_sources():
    """A system with rational exponents and a jet, a frame with non-finite
    and extreme entries, and a time-dependent frame whose stages call
    numpy."""
    yield pytest.param(parse_ode((DATA / "exdom.spode").read_text()), False,
                       id="exdom")
    V = np.full((3, 3), -0.0)
    V.flat[:5] = [math.inf, -math.inf, math.nan, 5e-324, 1.797e308]
    yield pytest.param(sq.QuadraticFrame(V.tolist()), False, id="extremes")
    yield pytest.param(parse_frame((DATA / "vex.frame").read_text()), True,
                       id="vex-numpy")


@pytest.mark.parametrize("model, numpy_rhs", list(loop_sources()))
def test_generated_source_holds_only_names_floats_and_operators(
        model, numpy_rhs):
    """No text or number of the input reaches the loop source: it tokenizes
    to names of a fixed set, the float literals of RK4 and the sums, and
    operators."""
    spec, _ = _loop_spec(model, numpy_rhs)
    source = _loop_source(*spec)
    layout = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER}
    floats = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in LOOP_NAMES or NUMBERED.fullmatch(tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert repr(float(tok.string)) == tok.string, tok
            floats.add(tok.string)
        else:
            assert tok.type == tokenize.OP or tok.type in layout, tok
    assert floats >= {"0.5", "2.0", "6.0"}
    assert floats <= {"0.0", "0.5", "1.0", "2.0", "6.0"}


@pytest.mark.parametrize("v", [5e-324, 1.7976931348623157e308, -0.0])
def test_generated_rhs_keeps_extreme_entries_exactly(v):
    """The generated source reads each entry as a local float: the 1x1
    right-hand side, its entry bound as r0, is (v x) x bit for bit, the
    sign of a zero product included."""
    [row] = _frame_rows(1)
    f = eval(f"lambda x: {row.format('x')}", {"__builtins__": {}, "r0": v})
    for x in (1e300, 0.5, -0.0, -3.0):
        got, want = np.array([f(x)]), np.array([(v * x) * x])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("v, x2", [(5e-324, 1e300),
                                   (1.7976931348623157e308, 1e-308)])
def test_rk4_with_extreme_entries_is_bitwise_the_numpy_loop(v, x2):
    """x1' = v x2 x1 with v x2 about 1.8, or about 5e-24 over steps of
    1e10; the other entries are zero, so no summation order is involved
    and the two loops agree bit for bit."""
    V = np.array([[0.0, v], [0.0, 0.0]])
    h = 1e-3 if v > 1.0 else 1e10
    x0 = [1.0, x2]
    traj = sq.rk4(sq.QuadraticFrame(V.tolist()), x0, 0.0, 10 * h, h)
    _, states, message = numpy_rk4(matrix_rhs(V), x0, 0.0, 10 * h, h)
    assert message is None
    assert traj.states[-1, 0] != 1.0
    assert traj.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("m", [2, D + 1])
def test_non_finite_entries_blow_up_as_on_the_numpy_path(v, m):
    """A non-finite entry, in generated code (m = 2) or in ``V @ x``
    (m = D + 1), ends the run on the first step, as in the numpy
    reference loop."""
    V = np.full((m, m), 0.25)
    V[m - 1, 0] = v
    x0 = np.linspace(0.5, 1.0, m)
    _, _, message = numpy_rk4(matrix_rhs(V), x0, 0.0, 0.1, 1e-2)
    assert message == "state non-finite near t = 0.01"
    with pytest.raises(Blowup) as info:
        sq.rk4(sq.QuadraticFrame(V.tolist()), x0, 0.0, 0.1, 1e-2)
    assert str(info.value) == message


def row_sum_rhs(V):
    """(V x) x with each dot product summed left to right, as the inlined
    loop of a constant frame sums it."""
    rows = np.asarray(V).tolist()

    def f(t, x):
        xs = x.tolist()
        return np.array([functools.reduce(operator.add,
                                          [v * xj for v, xj in zip(row, xs)])
                         * xi for row, xi in zip(rows, xs)])
    return f


# five_monomials.spode with other coefficients and non-unit exponents
RESCALED = sq.SigmaPiOde(3, [
    [(-0.5, {2: 1, 3: 1}), (1.5, {1: F(-1, 5)})],
    [(2.5, {1: 1, 2: 3, 3: 1})],
    [(-4.0, {1: -2, 2: 1}), (0.25, {})],
])
# and with its factor x2^4 turned into x2
X2_LINEAR = sq.SigmaPiOde(3, [
    [(1.0, {2: 1, 3: 1}), (2.0, {1: F(-1, 3)})],
    [(4.0, {1: 1, 2: 1, 3: 1})],
    [(5.0, {1: -3, 2: 1}), (3.0, {})],
])


def shape_runs():
    """(model, numpy right-hand side, x0) per run, and the count of new
    shapes it brings: two constant frames of m = 3 (extreme entries on an
    x2 of 1e-308 that keeps their products finite), two systems of the
    shape of five_monomials, two time-dependent frames whose stages call
    their rhs, two systems of one jet shape with other jet coefficients
    and centers, and last a frame of m = 4 and a system with one factor
    turned into x^1."""
    extreme = np.array([[0.5, 1.797e308, -0.0],
                        [5e-324, -0.25, 0.0],
                        [0.1, 0.2, -0.3]])
    ordinary = np.array([[0.3, -0.7, 0.2], [0.9, 0.1, -0.4], [-0.6, 0.5, 0.8]])
    yield sq.QuadraticFrame(extreme.tolist()), row_sum_rhs(extreme), \
        [1.0, 1e-308, 0.5], 1
    yield sq.QuadraticFrame(ordinary.tolist()), row_sum_rhs(ordinary), \
        [0.6, 0.7, 0.8], 0
    five = parse_ode((DATA / "five_monomials.spode").read_text())
    yield five, five.rhs, [1.0, 0.2, 0.8], 1
    yield RESCALED, RESCALED.rhs, [1.0, 0.2, 0.8], 0
    for seed, new in ((1, 1), (2, 0)):
        frame = random_jet_frame(np.random.default_rng(seed), m=3, center=0.25)
        yield frame, frame.rhs, [0.5, 0.6, 0.7], new
    for coeffs, center, new in (([0.5, 0.25, -1.0], 0.0, 1),
                                ([-2.0, 1e-300, 3.0], 0.75, 0)):
        # x1' = c(t) x1 x2^(1/2), x2' = -x2 with c a polynomial, inlined
        ode = sq.SigmaPiOde(2, [[(coeffs, {1: 1, 2: F(1, 2)})],
                                [(-1.0, {2: 1})]], center)
        yield ode, ode.rhs, [0.9, 0.4], new
    wide = np.linspace(-0.5, 0.5, 16).reshape(4, 4)
    yield sq.QuadraticFrame(wide.tolist()), row_sum_rhs(wide), \
        [0.2, 0.4, 0.6, 0.8], 1
    yield X2_LINEAR, X2_LINEAR.rhs, [1.0, 0.2, 0.8], 1


def test_one_compiled_loop_serves_every_model_of_a_shape():
    """The loop of a shape reads every number of the model as an argument:
    a model of a shape already compiled compiles nothing, and steps
    exactly as the numpy loop on its own right-hand side."""
    _loop.cache_clear()
    shapes = 0
    for model, f, x0, new in shape_runs():
        got = outcome(lambda: loop_run(model, x0, 0.1))
        want = outcome(lambda: numpy_rk4(f, x0, 0.0, 0.1, 0.01))
        assert got == want and isinstance(got[0], bytes), model
        shapes += new
        assert _loop.cache_info().misses == shapes, model
    for model, _, x0, _ in shape_runs():
        loop_run(model, x0, 0.1)
    assert _loop.cache_info().misses == shapes


def test_a_warm_loop_blows_up_on_a_non_finite_entry():
    """A frame with an inf entry runs the loop a finite frame of its
    dimension compiled, and ends as the numpy path does, on the first
    step."""
    _loop.cache_clear()
    V = np.full((2, 2), 0.25)
    x0 = [0.5, 1.0]
    sq.rk4(sq.QuadraticFrame(V.tolist()), x0, 0.0, 0.1, 1e-2)
    V[1, 0] = math.inf
    _, _, message = numpy_rk4(matrix_rhs(V), x0, 0.0, 0.1, 1e-2)
    assert message == "state non-finite near t = 0.01"
    with pytest.raises(Blowup) as info:
        sq.rk4(sq.QuadraticFrame(V.tolist()), x0, 0.0, 0.1, 1e-2)
    assert str(info.value) == message
    assert _loop.cache_info().misses == 1


def large_models():
    """Systems whose loop, inlined whole, nests too deep to compile: 3000
    terms in one equation, a jet of 250 coefficients, and a monomial of
    2500 factors, whose finiteness check then tests 2500 components."""
    yield pytest.param(
        sq.SigmaPiOde(1, [[(1e-9, {1: F(k, 1000)}) for k in range(3000)]]),
        id="terms")
    yield pytest.param(
        sq.SigmaPiOde(1, [[([1e-3] * 250, {1: 1})]]), id="jet")
    yield pytest.param(
        sq.SigmaPiOde(2500, [[(1e-3, {j: 1 for j in range(1, 2501)})]]),
        id="factors")


@pytest.mark.parametrize("ode", list(large_models()))
def test_large_systems_compile_and_match_the_numpy_loop(ode):
    x0 = np.ones(ode.n)
    traj = sq.rk4(ode, x0, 0.0, 2.5e-3, 1e-3)
    _, states, message = numpy_rk4(ode.rhs, x0, 0.0, 2.5e-3, 1e-3)
    assert message is None
    assert traj.states[-1, 0] != 1.0
    assert traj.states.tobytes() == states.tobytes()


def test_states_go_into_one_preallocated_array():
    """10 000 steps of a 6-dim frame: the traced peak stays within 1.2x of
    the states array (the times array adds 1/6 of it), where a list of
    per-step lists would take several times as much.  A first short run
    compiles the loop, so the bound measures the arrays alone."""
    m = 6
    frame = sq.QuadraticFrame((0.01 * np.eye(m)).tolist())
    sq.rk4(frame, np.ones(m), 0.0, 1e-4, 1e-4)
    tracemalloc.start()
    try:
        traj = sq.rk4(frame, np.ones(m), 0.0, 1.0, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (10_001, m)
    assert peak <= 1.2 * traj.states.nbytes, peak / traj.states.nbytes


def test_rk4_overflowing_power_is_a_blowup():
    ode = sq.SigmaPiOde(1, [[(1.0, {1: 3})]])   # x' = x^3 blows up at t = 1/2
    with pytest.raises(Blowup):
        sq.rk4(ode, [1.0], 0.0, 1.0, 1e-3)


def test_rk4_domain_exit_mid_step():
    # x' = -x^(1/2) pulls through zero; the power then becomes undefined
    ode = sq.SigmaPiOde(1, [[(-1.0, {1: F(1, 2)})]])
    with pytest.raises(DomainViolation):
        sq.rk4(ode, [0.01], 0.0, 5.0, 1e-2)


def test_rk4_step_budget():
    with pytest.raises(ValueError):
        sq.rk4(sq.QuadraticFrame([[0.0]]), [1.0], 0.0, 1.0, 1e-9)


def test_compare_series_against_own_oracle():
    frame = sq.QuadraticFrame([[0.0, 0.8], [0.0, 0.0]])
    x0 = [1.0, 1.0]
    sol = sq.taylor(frame, x0, 0.0, 20)
    rbar = sol.radius_bound
    traj = sq.rk4(frame, x0, 0.0, rbar / 2, 1e-4)
    report = sq.compare(lambda t: sq.evaluate(sol, t)[0], traj,
                        (0.0, rbar / 2), t0=0.0, radius=rbar)
    assert report.max_rel < 1e-6
    assert report.out_of_radius == 0 and not report.flagged


def test_compare_identical_inputs_zero_error():
    frame = sq.QuadraticFrame([[0.0, 1.0], [0.0, 0.0]])
    traj = sq.rk4(frame, [1.0, 1.0], 0.0, 0.2, 0.01)

    def lookup(t):
        return traj.states[np.argmin(np.abs(traj.times - t))]

    report = sq.compare(lookup, traj, (0.0, 0.2))
    assert report.max_rel == 0.0 and report.rms_rel == 0.0


def test_compare_flags_out_of_radius_samples():
    # bound 1/3 but entire solution: samples beyond the bound are flagged
    frame = sq.QuadraticFrame([[0.0, 1.0], [0.0, 0.0]])
    x0 = [3.0, 1.0]
    sol = sq.taylor(frame, x0, 0.0, 25)
    traj = sq.rk4(frame, x0, 0.0, 0.9, 1e-4)
    import warnings
    from spquad.series import RadiusWarning

    def ev(t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RadiusWarning)
            return sq.evaluate(sol, t)[0]

    report = sq.compare(ev, traj, (0.0, 0.9), t0=0.0, radius=sol.radius_bound)
    assert report.flagged and report.out_of_radius > 0


def test_compare_empty_window():
    frame = sq.QuadraticFrame([[0.0]])
    traj = sq.rk4(frame, [1.0], 0.0, 0.1, 0.01)
    with pytest.raises(EmptyWindow):
        sq.compare(lambda t: traj.states[np.argmin(np.abs(traj.times - t))],
                   traj, (5.0, 6.0))


def two_sided(frame, x0, a, b, h):
    """The reference of a check: RK4 from 0 back to a and on to b, so t0 = 0
    is sampled twice."""
    back = sq.rk4(frame, x0, 0.0, a, h)
    fwd = sq.rk4(frame, x0, 0.0, b, h)
    return sq.Trajectory(np.concatenate([back.times[::-1], fwd.times]),
                         np.concatenate([back.states[::-1], fwd.states]), {})


@pytest.mark.parametrize("x0, side, window, n_samples, out_of_radius", [
    ([1.0, 1.0], 0.3, (-0.2, 0.25), 47, 0),
    ([3.0, 1.0], 0.9, (-0.9, 0.9), 182, 114),
], ids=["inside-radius", "beyond-radius"])
def test_compare_takes_an_array_or_a_callable_alike(x0, side, window,
                                                    n_samples, out_of_radius):
    """The same report from the series states at the trajectory's times
    and from a callable: the first window masks samples out on both sides,
    the second has samples beyond the radius bound 1/3."""
    frame = sq.QuadraticFrame([[0.0, 1.0], [0.0, 0.0]])
    sol = sq.taylor(frame, x0, 0.0, 12)
    traj = two_sided(frame, x0, -side, side, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RadiusWarning)
        vals, _ = sq.evaluate(sol, traj.times)
        by_call = sq.compare(lambda t: sq.evaluate(sol, t)[0], traj, window,
                             t0=0.0, radius=sol.radius_bound)
    by_array = sq.compare(vals, traj, window, t0=0.0, radius=sol.radius_bound)
    assert by_array == by_call
    assert by_array.max_rel.hex() == by_call.max_rel.hex()
    assert by_array.rms_rel.hex() == by_call.rms_rel.hex()
    assert (by_array.n_samples, by_array.out_of_radius) == (n_samples,
                                                            out_of_radius)


@pytest.mark.parametrize("shape", [(20, 2), (21, 1), (21,)])
def test_compare_rejects_an_array_of_another_shape(shape):
    frame = sq.QuadraticFrame([[0.0, 1.0], [0.0, 0.0]])
    traj = sq.rk4(frame, [1.0, 1.0], 0.0, 0.2, 0.01)
    assert traj.states.shape == (21, 2)
    with pytest.raises(ValueError, match="series has shape"):
        sq.compare(np.ones(shape), traj, (0.0, 0.2))
