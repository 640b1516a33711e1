import math
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import spquad as sq
from spquad.errors import Blowup, DomainViolation, EmptyWindow
from spquad.oracle import D, _frame_rhs_list, step_count
from spquad.parse import parse_ode

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
    ode = sq.SigmaPiOde(1, [[(sq.TimeJet([0.0, 2.0]), {1: 1})]])  # x' = 2 t x
    traj = sq.rk4(ode, [1.0], 0.0, 0.7, 1e-4)
    assert abs(traj.states[-1][0] - np.exp(0.49)) < 1e-10


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


def test_rk4_blowup_detected():
    with pytest.raises(Blowup):
        sq.rk4(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 2.0, 1e-3)


# --------------------------------------------------------------------------
# the float and numpy paths against a numpy-vector loop written out here
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


def spode_model():
    """The same system for m = 2, x1^2 a power that raises OverflowError."""
    ode = sq.SigmaPiOde(2, [[(1.0, {1: 2})], [(0.5, {1: 1, 2: 1})]])
    return ode, ode.rhs, 2


BLOWUP_MODELS = {
    "float_frame": lambda: frame_model(2),
    "numpy_frame": lambda: frame_model(D + 1),
    "spode": spode_model,
}


@pytest.mark.parametrize("model", sorted(BLOWUP_MODELS))
@pytest.mark.parametrize("row", [1, 127, 128, 129, 256])
def test_rk4_blowup_is_reported_at_the_step_of_a_per_step_loop(model, row):
    """The first non-finite state (or overflowing power) comes at step
    ``row``: on the first step, on either side of a 128-step boundary and
    on the last step of the second 128; rk4 stops there with the message of
    the per-step reference."""
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


@pytest.mark.parametrize("m", range(1, D + 3))
def test_constant_frame_agrees_with_matrix_product_loop(m):
    """Dimensions up to D step on generated float code, whose dot products
    sum left to right where ``V @ x`` may not; the states then differ by
    rounding only, bounded here by n * m * eps relative (n = 200 steps of a
    system whose states stay positive and of order one).  Above D both
    loops run the same numpy operations and agree bit for bit over more
    than one 128-step chunk."""
    rng = np.random.default_rng(700 + m)
    V = rng.uniform(-1.0, 1.0, (m, m))
    x0 = rng.uniform(0.2, 1.0, m)
    traj = sq.rk4(sq.QuadraticFrame(V.tolist()), x0, 0.0, 0.2, 1e-3)
    _, states, message = numpy_rk4(matrix_rhs(V), x0, 0.0, 0.2, 1e-3)
    assert message is None and traj.states.shape == states.shape == (201, m)
    rel = np.max(np.abs(traj.states - states) / np.abs(states))
    assert rel <= 200 * m * np.finfo(float).eps, rel
    if m > D:   # the same operations, tested for finiteness per chunk
        assert traj.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("v", [5e-324, 1.7976931348623157e308, -0.0])
def test_generated_rhs_keeps_extreme_entries_exactly(v):
    """The generated source writes each entry as its float repr, which
    reads back as the same double: the 1x1 right-hand side is (v x) x bit
    for bit, the sign of a zero product included."""
    f = _frame_rhs_list(np.array([[v]]))
    for x in (1e300, 0.5, -0.0, -3.0):
        got, want = np.array(f(0.0, [x])), np.array([(v * x) * x])
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
    V = np.full((m, m), 0.25)
    V[m - 1, 0] = v
    x0 = np.linspace(0.5, 1.0, m)
    _, _, message = numpy_rk4(matrix_rhs(V), x0, 0.0, 0.1, 1e-2)
    assert message == "state non-finite near t = 0.01"
    with pytest.raises(Blowup) as info:
        sq.rk4(sq.QuadraticFrame(V.tolist()), x0, 0.0, 0.1, 1e-2)
    assert str(info.value) == message


def test_states_go_into_one_preallocated_array():
    """10 000 steps of a 6-dim frame: the traced peak stays within 1.2x of
    the states array (the times array adds 1/6 of it), where a list of
    per-step lists would take several times as much."""
    m = 6
    frame = sq.QuadraticFrame((0.01 * np.eye(m)).tolist())
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


def test_trajectory_csv_roundtrip(tmp_path):
    frame = sq.QuadraticFrame([[0.0, 1.0], [0.0, 0.0]])
    traj = sq.rk4(frame, [1.0, 1.0], 0.0, 0.1, 0.01)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.states)


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
        return traj.at(t)

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
        sq.compare(lambda t: traj.at(t), traj, (5.0, 6.0))
