from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import spquad as sq
from spquad.errors import Blowup, DomainViolation, EmptySystem
from spquad.parse import monomial_text
from support import (airy_first_order, airy_frame_expected, airy_series,
                     entry, five_monomial_ode, fixture_frame, random_frame,
                     random_jet_frame, random_sigma_pi, scalar_horner)

DATA = Path(__file__).resolve().parent / "data"


def driver_rhs(q, t, x):
    """Driver right-hand side evaluated at Z = Phi(x), straight from the
    exponent tensor (kept separate from driver_frame on purpose)."""
    z = sq.phi_eval(q, x)
    mult = {}
    for j in range(1, q.source.n + 1):
        mult[j] = sum(scalar_horner(coeff, t - q.source.center)
                      * z[q.flat_index(j, l) - 1]
                      for l, (coeff, _) in enumerate(q.source.terms(j), start=1))
    return np.array([
        sum(p * mult[j] for j, p in q.pi[i - 1][l - 1].items()) * z[s - 1]
        for s, (i, l) in enumerate(q.pairs, start=1)])


# --------------------------------------------------------------------------
# canonical quadratization
# --------------------------------------------------------------------------

def test_five_monomial_coordinates():
    q = sq.quadratize_canonical(five_monomial_ode())
    texts = [monomial_text(m) for m in q.phi]
    assert texts[0] == "x1^(-1)*x2*x3"
    assert texts[1] == "x1^(-4/3)"
    assert texts[2] == "x1*x2^3*x3"   # x2^{-1} * (x1 x2^4 x3)
    assert texts[3] == "x1^(-3)*x2*x3^(-1)"
    assert texts[4] == "x3^(-1)"
    # driver row for Z11: (v2'Z2 + v3'Z3 - v1'Z1) Z11
    assert q.pi[0][0] == {1: -1.0, 2: 1.0, 3: 1.0}
    assert q.pi[0][1] == {1: pytest.approx(-4.0 / 3.0)}
    assert q.pi[2][1] == {3: -1.0}
    assert q.driver_dim == 5
    assert q.flat_index(3, 2) == 5


def test_exponent_identity_pi_plus_delta():
    """pi + delta = p: exact on the rational channel (which phi keeps), and
    to a rounding error on the float channel."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        ode = random_sigma_pi(rng)
        q = sq.quadratize_canonical(ode)
        for s, (i, l) in enumerate(q.pairs, start=1):
            mono = ode.terms(i)[l - 1][1]
            row = q.pi[i - 1][l - 1]
            for j in range(1, ode.n + 1):
                delta = 1 if i == j else 0
                p_rat = mono.rational(j)
                phi_rat = q.phi[s - 1].rational(j)
                if p_rat is not None and phi_rat is not None:
                    assert phi_rat == p_rat - delta
                assert row.get(j, 0.0) + delta == pytest.approx(
                    mono.exponent(j), rel=4e-16, abs=0.0)


def test_flattening_is_a_bijection():
    rng = np.random.default_rng(23)
    for _ in range(10):
        ode = random_sigma_pi(rng)
        q = sq.quadratize_canonical(ode)
        flats = [q.flat_index(i, l) for (i, l) in q.pairs]
        assert sorted(flats) == list(range(1, q.driver_dim + 1))
        for s, pair in enumerate(q.pairs, start=1):
            assert q.pair(s) == pair


def test_phi_times_state_recovers_monomial():
    rng = np.random.default_rng(29)
    for _ in range(20):
        ode = random_sigma_pi(rng)
        q = sq.quadratize_canonical(ode)
        x = rng.uniform(0.3, 2.0, ode.n)
        z = sq.phi_eval(q, x)
        for s, (i, l) in enumerate(q.pairs, start=1):
            X = ode.terms(i)[l - 1][1].evaluate(x)
            assert z[s - 1] * x[i - 1] == pytest.approx(X, rel=1e-12)


def test_relatedness_along_the_flow():
    """The time derivative of Phi along the original vector field equals the
    driver right-hand side at Z = Phi(x) (checked by central differences)."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        ode = random_sigma_pi(rng)
        q = sq.quadratize_canonical(ode)
        x = rng.uniform(0.5, 1.5, ode.n)
        t = float(rng.uniform(-0.5, 0.5))
        f = np.array(ode.rhs(t, x))
        eps = 1e-6
        fd = (sq.phi_eval(q, x + eps * f) - sq.phi_eval(q, x - eps * f)) / (2 * eps)
        dr = driver_rhs(q, t, x)
        scale = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(dr)))
        assert np.max(np.abs(fd - dr) / scale) < 1e-6


def test_linear_system_driver_rows():
    """A linear system with all n monomials written per equation gets the
    coordinates Z[i,l] = x_l / x_i and driver rows v_l'Z_l - v_i'Z_i."""
    rng = np.random.default_rng(43)
    n = 3
    A = rng.uniform(-1, 1, (n, n))
    equations = [[(A[i, l], {l + 1: 1}) for l in range(n)] for i in range(n)]
    q = sq.quadratize_canonical(sq.SigmaPiOde(n, equations))
    for i in range(1, n + 1):
        for l in range(1, n + 1):
            expected = {} if l == i else {l: 1, i: -1}
            assert q.phi[q.flat_index(i, l) - 1].exponents == expected
            pi_row = q.pi[i - 1][l - 1]
            assert pi_row == ({} if l == i else {l: 1.0, i: -1.0})
    fr = sq.driver_frame(q)
    for i in range(1, n + 1):
        for l in range(1, n + 1):
            row_s = q.flat_index(i, l)
            for j in range(1, n + 1):
                for s in range(1, n + 1):
                    got = entry(fr, row_s, q.flat_index(j, s))[0]
                    expect = (1.0 if j == l else 0.0) * A[j - 1, s - 1] \
                        - (1.0 if j == i else 0.0) * A[j - 1, s - 1]
                    assert got == pytest.approx(expect, abs=1e-15)


def test_empty_system_rejected():
    with pytest.raises(EmptySystem):
        sq.quadratize_canonical(sq.SigmaPiOde(2))


def test_zero_equations_contribute_no_coordinates():
    ode = sq.SigmaPiOde(2, [[(1.0, {1: 2})], []])
    q = sq.quadratize_canonical(ode)
    assert q.driver_dim == 1
    assert q.pairs == ((1, 1),)


# --------------------------------------------------------------------------
# phi_eval domain errors
# --------------------------------------------------------------------------

def test_phi_eval_examples():
    q = sq.quadratize_canonical(five_monomial_ode())
    assert np.allclose(sq.phi_eval(q, [1.0, 1.0, 1.0]), 1.0)
    z = sq.phi_eval(q, [1.0, 2.0, 3.0])
    assert z[0] == pytest.approx(6.0)
    assert z[1] == pytest.approx(1.0)
    assert z[2] == pytest.approx(24.0)     # 1 * 2^3 * 3
    assert z[3] == pytest.approx(2.0 / 3.0)
    assert z[4] == pytest.approx(1.0 / 3.0)


def test_phi_eval_rejects_undefined_powers():
    q = sq.quadratize_canonical(
        sq.SigmaPiOde(1, [[(1.0, {1: F(-1, 3)})]]))  # phi = x^{-4/3}
    with pytest.raises(DomainViolation):
        sq.phi_eval(q, [0.0])
    # odd denominator keeps negative bases defined: (-1)^(-4/3) = 1
    assert sq.phi_eval(q, [-1.0])[0] == pytest.approx(1.0)
    q2 = sq.quadratize_canonical(
        sq.SigmaPiOde(1, [[(1.0, {1: F(1, 2)})]]))   # phi = x^{-1/2}
    with pytest.raises(DomainViolation):
        sq.phi_eval(q2, [-1.0])


def test_phi_eval_overflow_is_a_blowup():
    # phi_1 = x1^399 overflows math.pow at x1 = 10
    q = sq.quadratize_inclusive(sq.parse_ode("x1' = x1^400\n"))
    with pytest.raises(Blowup, match="coordinate 1"):
        sq.phi_eval(q, [10.0])
    assert sq.phi_eval(q, [1.5])[0] == pytest.approx(1.5 ** 399)
    # each power is finite, their product is not
    q2 = sq.quadratize_canonical(
        sq.SigmaPiOde(2, [[(1.0, {1: 151, 2: 150})], [(1.0, {2: 1})]]))
    with pytest.raises(Blowup):
        sq.phi_eval(q2, [100.0, 100.0])


# --------------------------------------------------------------------------
# inclusive quadratization
# --------------------------------------------------------------------------

def test_inclusive_affine_example():
    # x' = -a x - b written with monomials (x, 1); appended square gives the
    # coordinates Z11 = 1, Z12 = x^{-1}, Z13 = x
    a, b = 0.7, 1.1
    ode = sq.SigmaPiOde(1, [[(-a, {1: 1}), (-b, {})]])
    q = sq.quadratize_inclusive(ode)
    assert [monomial_text(m) for m in q.phi] == ["1", "x1^(-1)", "x1"]
    assert q.identity == {1: 3}
    fr = sq.driver_frame(q)
    # dZ11 = 0, dZ12 = (a Z11 + b Z12) Z12, dZ13 = (-a Z11 - b Z12) Z13
    assert all(entry(fr, 1, j) == [0.0] for j in range(1, 4))
    assert [entry(fr, 2, j) for j in range(1, 4)] == [[a], [b], [0.0]]
    assert [entry(fr, 3, j) for j in range(1, 4)] == [[-a], [-b], [0.0]]


def test_inclusive_idempotent_when_square_present():
    ode = sq.SigmaPiOde(1, [[(2.0, {1: 2})]])
    q = sq.quadratize_inclusive(ode)
    assert q.driver_dim == 1
    assert q.identity == {1: 1}
    assert q.source == ode


def test_driver_frame_of_basic_linear_ode():
    # x' = a x, inclusive: coordinates (Z11 = 1, Z12 = x); the sub-frame on
    # (x, constant coordinate) is [[0, a], [0, 0]]
    a = 0.9
    q = sq.quadratize_inclusive(sq.SigmaPiOde(1, [[(a, {1: 1})]]))
    fr = sq.driver_frame(q)
    s_x, s_one = q.identity[1], q.flat_index(1, 1)
    assert entry(fr, s_x, s_one) == [a]
    assert entry(fr, s_x, s_x) == [0.0]
    assert entry(fr, s_one, s_one) == entry(fr, s_one, s_x) == [0.0]


def test_zero_coefficients_give_zero_frame():
    ode = sq.SigmaPiOde(2, [[(0.0, {1: 2})], [(0.0, {1: 1, 2: 1})]])
    fr = sq.driver_frame(sq.quadratize_canonical(ode))
    assert all(entry(fr, i, j) == [0.0]
               for i in range(1, 3) for j in range(1, 3))


# --------------------------------------------------------------------------
# Airy
# --------------------------------------------------------------------------

def test_airy_inclusive_frame_entries():
    q = sq.quadratize_inclusive(airy_first_order())
    fr = sq.driver_frame(q)
    # presentation order (x1, x2, Z11, Z21) = flat (2, 4, 1, 3)
    perm = [q.identity[1], q.identity[2], q.flat_index(1, 1), q.flat_index(2, 1)]
    got = sq.QuadraticFrame([[entry(fr, i, j) for j in perm] for i in perm],
                            fr.center)
    assert got == airy_frame_expected()


def test_airy_frame_row3_against_reference_integration():
    """Only the frame with row 3 equal to (0, 0, -t, 1) reproduces the Airy
    solution; the (0, 1, -t, 0) variant leaves the invariant set."""
    t, mt = (0.0, 1.0), (0.0, -1.0)
    variant = sq.QuadraticFrame([
        [0.0, 0.0, t, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, mt, 0.0],
        [0.0, 0.0, t, -1.0],
    ])
    corrected = airy_frame_expected()
    x1, x2 = 0.7, 1.3
    x0 = np.array([x1, x2, x2 / x1, x1 / x2])
    horizon = 0.8
    truth = float(np.polynomial.polynomial.polyval(
        horizon, airy_series(x2, x1, 40)))
    got_corrected = sq.rk4(corrected, x0, 0.0, horizon, 1e-4).states[-1][1]
    got_variant = sq.rk4(variant, x0, 0.0, horizon, 1e-4).states[-1][1]
    assert abs(got_corrected - truth) < 1e-10
    assert abs(got_variant - truth) > 1e-3


# --------------------------------------------------------------------------
# self-drivers and the inverse driver
# --------------------------------------------------------------------------

def test_driver_of_driver_has_kronecker_exponents():
    rng = np.random.default_rng(37)
    for _ in range(10):
        frame = random_frame(rng)
        ode = sq.driver_type_ode(frame)
        q = sq.quadratize_canonical(ode)
        n = frame.dim
        for i in range(1, n + 1):
            for l in range(1, n + 1):
                assert q.pi[i - 1][l - 1] == {l: 1.0}
        # frame of the driver-of-driver: V*[(i,l),(j,s)] = delta_{l,j} v_{j,s}
        fr2 = sq.driver_frame(q)
        for si, (i, l) in enumerate(q.pairs, start=1):
            for sj, (j, s) in enumerate(q.pairs, start=1):
                expected = entry(frame, j, s) if j == l else [0.0]
                assert entry(fr2, si, sj) == expected
        assert fr2.center == frame.center


def test_inverse_driver_bernoulli_structure():
    # x' = v1 x + v2 x^alpha: W12 = x^{1-alpha} obeys the linear equation
    # dW12 = (1-alpha)(v1 W12 + v2)
    alpha = F(1, 2)
    v1, v2 = 0.5, 0.3
    ode = sq.SigmaPiOde(1, [[(v1, {1: 1}), (v2, {1: alpha})]])
    inv = sq.inverse_driver(ode)
    assert inv.inverse
    assert monomial_text(inv.phi[0]) == "1"
    assert monomial_text(inv.phi[1]) == "x1^(1/2)"   # x^{1-alpha}
    assert inv.pi[0][1] == {1: float(alpha) - 1.0}
    # numeric check along a trajectory of the original equation
    traj = sq.rk4(ode, np.array([1.7]), 0.0, 1.0, 1e-3)
    qc = sq.quadratize_canonical(ode)
    for idx in (0, len(traj.times) // 2, -1):
        t, x = traj.times[idx], traj.states[idx]
        w = 1.0 / sq.phi_eval(qc, x)
        z = sq.phi_eval(qc, x)
        lhs_rate = -(inv.pi[0][1][1] * (v1 * z[0] + v2 * z[1])) * w[1]
        rhs_rate = (1 - float(alpha)) * (v1 * w[1] + v2)
        assert lhs_rate == pytest.approx(rhs_rate, rel=1e-12)


def test_inverse_driver_linear_case_is_constant():
    ode = sq.SigmaPiOde(1, [[(0.5, {1: 1}), (0.3, {1: 1})]])
    inv = sq.inverse_driver(ode)
    assert inv.pi[0][0] == {} and inv.pi[0][1] == {}
    assert monomial_text(inv.phi[0]) == "1"


def test_inverse_driver_of_pure_square():
    ode = sq.SigmaPiOde(1, [[(0.8, {1: 2})]])
    inv = sq.inverse_driver(ode)
    assert monomial_text(inv.phi[0]) == "x1^(-1)"
    # dW = -a Z W = -a, constant slope
    x0 = np.array([2.0])
    jf = sq.inverse_joint_frame(inv)
    qc = sq.quadratize_canonical(ode)
    z0 = sq.phi_eval(qc, x0)
    traj = sq.rk4(jf, np.concatenate([z0, 1.0 / z0]), 0.0, 0.4, 1e-4)
    w = traj.states[:, 1]
    slopes = np.diff(w) / np.diff(traj.times)
    assert np.allclose(slopes, -0.8, atol=1e-6)


def test_inverse_product_stays_one_along_joint_trajectories():
    rng = np.random.default_rng(41)
    for _ in range(5):
        ode = random_sigma_pi(rng, n_max=3, nu_max=2, with_jets=False)
        q = sq.quadratize_canonical(ode)
        jf = sq.inverse_joint_frame(q)
        x0 = rng.uniform(0.6, 1.4, ode.n)
        z0 = sq.phi_eval(q, x0)
        traj = sq.rk4(jf, np.concatenate([z0, 1.0 / z0]), 0.0, 0.2, 1e-3)
        prod = traj.states[:, :q.driver_dim] * traj.states[:, q.driver_dim:]
        assert np.max(np.abs(prod - 1.0)) < 1e-8


# --------------------------------------------------------------------------
# fictitious monomials and observables
# --------------------------------------------------------------------------

def test_add_fictitious_square_matches_inclusive_coordinate():
    ode = sq.SigmaPiOde(1, [[(1.5, {1: 1})]])
    augmented = sq.add_fictitious_monomial(ode, 1, sq.Monomial({1: 2}))
    q = sq.quadratize_canonical(augmented)
    assert monomial_text(q.phi[1]) == "x1"
    assert augmented.terms(1)[1][0] == (0.0,)


def test_constant_fictitious_monomial_gives_reciprocal_coordinate():
    ode = sq.SigmaPiOde(1, [[(1.5, {1: 1})]])
    augmented = sq.add_fictitious_monomial(ode, 1, sq.Monomial.one())
    q = sq.quadratize_canonical(augmented)
    assert monomial_text(q.phi[1]) == "x1^(-1)"


def test_cubed_observable_of_exponential_flow():
    a, x = 0.8, 1.3
    ode = sq.add_fictitious_monomial(
        sq.SigmaPiOde(1, [[(a, {1: 1})]]), 1, sq.Monomial({1: 3}))
    q = sq.quadratize_inclusive(ode)
    fr = sq.driver_frame(q)
    z0 = sq.phi_eval(q, [x])
    K = 24
    sol = sq.taylor(fr, z0, 0.0, K)
    rows = sol.normalized()
    cube = np.convolve(rows[sol.components.index(q.flat_index(1, 2))],
                       rows[sol.components.index(q.identity[1])])[:K + 1]
    val = np.polynomial.polynomial.polyval(0.3, cube)
    assert val == pytest.approx((x * np.exp(a * 0.3)) ** 3, rel=1e-10)


# --------------------------------------------------------------------------
# the frame's coefficient array
# --------------------------------------------------------------------------

def _frames_to_evaluate():
    frames = [fixture_frame(path) for path in sorted(DATA.iterdir())]
    rng = np.random.default_rng(401)
    frames += [random_jet_frame(rng, center=c) for c in (0.0, 0.25, -1.5)
               for _ in range(6)]
    return frames


def test_evaluate_equals_entry_jets_bitwise():
    """V(t) from the coefficient array is each entry's Horner value at
    t - center, bit for bit, at times on both sides of the center."""
    for frame in _frames_to_evaluate():
        for dt in (0.0, 1e-3, -1e-3, 0.3, -0.7, 2.5, -12.5):
            t = frame.center + dt
            index = range(1, frame.dim + 1)
            want = np.array([[scalar_horner(entry(frame, i, j), t - frame.center)
                              for j in index] for i in index])
            got = frame.evaluate(t)
            assert got.shape == (frame.dim, frame.dim)
            assert got.tobytes() == want.reshape(got.shape).tobytes()


def test_stationary_form_reads_the_entries():
    for frame in _frames_to_evaluate():
        index = range(1, frame.dim + 1)
        stationary = all(len(entry(frame, i, j)) == 1
                         for i in index for j in index)
        assert frame.is_stationary == stationary
        if stationary:
            want = np.array([[entry(frame, i, j)[0] for j in index]
                             for i in index])
            assert frame.constant_matrix().tobytes() == want.reshape(
                frame.dim, frame.dim).tobytes()
        else:
            with pytest.raises(ValueError):
                frame.constant_matrix()


def test_frame_coeffs_are_read_only():
    frame = sq.QuadraticFrame([[(1.0, 2.0), 0.5], [0.0, -1.0]])
    assert frame.coeffs.shape == (2, 2, 2)
    assert frame.coeffs[:, 0, 0].tolist() == [1.0, 2.0]
    assert frame.coeffs[:, 0, 1].tolist() == [0.5, 0.0]
    with pytest.raises(ValueError):
        frame.coeffs[0, 0, 0] = 3.0
    with pytest.raises(AttributeError):
        frame.coeffs = np.zeros((1, 2, 2))
    constant = sq.QuadraticFrame([[1.0]])
    constant.constant_matrix()[0, 0] = 2.0     # a copy, not the frame's array
    assert constant.coeffs[0, 0, 0] == 1.0
