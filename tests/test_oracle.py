from fractions import Fraction as F

import numpy as np
import pytest

import spquad as sq
from spquad.errors import Blowup, DomainViolation, EmptyWindow
from spquad.oracle import _FINITE_CHUNK, _rk4_frame


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


def test_rk4_blowup_detected():
    with pytest.raises(Blowup):
        sq.rk4(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 2.0, 1e-3)


def test_rk4_frame_reports_blowup():
    states, ok = _rk4_frame(np.array([[5.0]]), np.array([5.0]), 10000,
                            1e-1, 1e-1)
    assert not ok
    assert not np.all(np.isfinite(states[-1]))
    assert np.all(np.isfinite(states[:-1]))


def _rk4_frame_per_step(V, x0, n_steps, h, landing):
    """Reference: the constant-frame loop testing finiteness every step."""
    states = np.empty((n_steps + 1, len(x0)))
    states[0] = x0
    x = x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
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
            if not np.all(np.isfinite(x)):
                return states[:k + 2], False
    return states, True


@pytest.mark.parametrize("row", [_FINITE_CHUNK - 1, _FINITE_CHUNK,
                                 _FINITE_CHUNK + 1, 2 * _FINITE_CHUNK])
def test_rk4_frame_blowup_near_chunk_boundary(row):
    """The first non-finite state lands just before, at and just after the
    end of a chunk; the chunked test stops where the per-step one does."""
    V = np.array([[1.0, 0.0], [0.5, 0.0]])   # x1 blows up at t = 1 / x1(0)
    h, n = 1e-2, 3 * _FINITE_CHUNK
    for shift in np.arange(-8.0, 8.0, 0.25):
        x0 = np.array([1.0 / (h * (row + shift)), 1.0])
        ref_states, ref_ok = _rk4_frame_per_step(V, x0, n, h, h)
        if len(ref_states) == row + 1:
            break
    else:
        pytest.fail(f"no initial point blows up at row {row}")
    states, ok = _rk4_frame(V, x0, n, h, h)
    assert ok == ref_ok is False
    assert states.shape == ref_states.shape
    assert states.tobytes() == ref_states.tobytes()


@pytest.mark.parametrize("n", [1, _FINITE_CHUNK, _FINITE_CHUNK + 3])
def test_rk4_frame_without_blowup_matches_per_step_loop(n):
    V = np.array([[0.0, 0.8, -0.1], [0.2, 0.0, 0.3], [-0.4, 0.1, 0.0]])
    x0 = np.array([1.0, 0.5, 0.7])
    ref_states, ref_ok = _rk4_frame_per_step(V, x0, n, 1e-3, 4e-4)
    states, ok = _rk4_frame(V, x0, n, 1e-3, 4e-4)
    assert ok and ref_ok
    assert states.tobytes() == ref_states.tobytes()


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
