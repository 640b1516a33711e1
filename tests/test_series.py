import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spquad as sq
from spquad.errors import Divergence, DomainExit, StepLimit, ZeroComponent
from spquad.series import RadiusWarning, _tail_step
from support import (airy_first_order, airy_frame_expected, airy_series,
                     cauchy_exact, fixture_frame, ordered_string_ck,
                     random_frame, random_jet_frame)


DATA = Path(__file__).resolve().parent / "data"


def exp_frame(a=1.0):
    return sq.QuadraticFrame([[0.0, a], [0.0, 0.0]])


def t_jet(scale=1.0):
    return sq.TimeJet([0.0, scale])


# --------------------------------------------------------------------------
# support
# --------------------------------------------------------------------------

def test_support_examples():
    S, rho = sq.support(exp_frame(0.7))
    assert S == (2,) and rho == {2: ()}
    zero = sq.QuadraticFrame([[0.0, 0.0], [0.0, 0.0]])
    assert sq.support(zero) == ((), {})
    # a frame variant with a column-2 entry has support {2,3,4}
    variant = sq.parse_frame("0 0 poly(0,1) 0\n0 0 0 1\n0 1 poly(0,-1) 0\n0 0 poly(0,1) -1\n")
    S, rho = sq.support(variant)
    assert S == (2, 3, 4)
    assert rho[2] == (3,)
    # the frame the quadratizer derives needs only {3, 4}
    S2, _ = sq.support(airy_frame_expected())
    assert S2 == (3, 4)


def _support_per_entry(frame):
    """Reference: columns with a nonzero jet, then the support rows whose
    jet in that column is nonzero."""
    m = frame.dim
    cols = tuple(j for j in range(1, m + 1)
                 if any(not frame.jet(i, j).is_zero() for i in range(1, m + 1)))
    return cols, {j: tuple(l for l in cols if not frame.jet(l, j).is_zero())
                  for j in cols}


def _bound_per_entry(frame, x0, t0):
    """Reference: 1 / (sigma * max_ij |v_ij(t0)| * max_i |x0_i|)."""
    sigma = len(_support_per_entry(frame)[0])
    if sigma == 0:
        return float("inf")
    v_M = max(abs(frame.jet(i, j)(t0)) for i in range(1, frame.dim + 1)
              for j in range(1, frame.dim + 1))
    if v_M == 0.0:
        return float("inf")
    return 1.0 / (sigma * v_M * float(np.max(np.abs(x0))))


def _frames_with_zero_columns():
    frames = [fixture_frame(path) for path in sorted(DATA.iterdir())]
    frames.append(sq.QuadraticFrame([[0.0, 0.0], [0.0, 0.0]]))
    rng = np.random.default_rng(409)
    frames += [random_jet_frame(rng, center=c) for c in (0.0, 0.5)
               for _ in range(10)]
    frames += [random_frame(rng, zero_column=True) for _ in range(6)]
    return frames


def test_support_and_bound_equal_their_per_entry_definitions():
    rng = np.random.default_rng(419)
    for frame in _frames_with_zero_columns():
        S, rho = sq.support(frame)
        assert (S, rho) == _support_per_entry(frame)
        assert all(type(j) is int for j in S)
        x0 = rng.uniform(-2.0, 2.0, frame.dim)
        for t0 in (frame.center, frame.center + 0.4, frame.center - 1.3):
            got = sq.convergence_bound(frame, x0, t0)
            want = _bound_per_entry(frame, x0, t0)
            assert got == want and type(got) is float


# --------------------------------------------------------------------------
# constant-frame goldens
# --------------------------------------------------------------------------

def test_exponential_coefficients():
    sol = sq.taylor(exp_frame(0.9), [1.0, 1.0], 0.0, 20)
    assert np.allclose(sol.component_row(1), 0.9 ** np.arange(21), rtol=1e-13)
    assert np.all(sol.component_row(2)[1:] == 0.0)


def test_pure_square_coefficients_are_factorials():
    a, x = 1.0, 1.0
    sol = sq.taylor(sq.QuadraticFrame([[a]]), [x], 0.0, 15)
    expect = np.array([math.factorial(k) * a**k * x**(k + 1) for k in range(16)])
    assert np.allclose(sol.component_row(1), expect, rtol=1e-12)


def test_zero_frame_constant_series():
    sol = sq.taylor(sq.QuadraticFrame([[0.0, 0.0], [0.0, 0.0]]),
                    [2.0, -3.0], 0.0, 8)
    assert np.all(sol.coeffs[:, 1:] == 0.0)
    assert sol.radius_bound == float("inf")


def test_order_zero_returns_initial_point_only():
    sol = sq.taylor(exp_frame(), [4.0, 1.0], 0.0, 0)
    assert sol.coeffs.shape == (2, 1)
    assert sol.coeffs[:, 0].tolist() == [4.0, 1.0]
    gen = sq.taylor(sq.QuadraticFrame([[t_jet()]]), [2.0], 0.5, 0)
    assert gen.coeffs.tolist() == [[2.0]]


# --------------------------------------------------------------------------
# ordered-string oracle and structural invariants
# --------------------------------------------------------------------------

def test_aggregated_recursion_matches_ordered_strings():
    rng = np.random.default_rng(101)
    for _ in range(10):
        frame = random_frame(rng)
        V = frame.constant_matrix()
        x0 = rng.uniform(0.2, 1.0, frame.dim)
        K = int(rng.integers(3, 7))
        sol = sq.taylor(frame, x0, 0.0, K)
        S, _ = sq.support(frame)
        for i in range(1, frame.dim + 1):
            for k in range(K + 1):
                brute = ordered_string_ck(V, x0, i, k, S)
                got = sol.component_row(i)[k]
                assert got == pytest.approx(brute, rel=1e-12, abs=1e-13)


def test_tail_keys_confined_to_support():
    rng = np.random.default_rng(103)
    for _ in range(6):
        frame = random_frame(rng, zero_column=True)
        rng.uniform(0.2, 1.0, frame.dim)  # keeps the seeded draws that follow
        S, _ = sq.support(frame)
        for tensor in sq.coefficient_tensors(frame, 6).values():
            for layer in tensor.layers.values():
                for key in layer:
                    assert all(j in S for j, _ in key.pairs)
                    assert key.total >= 1


def test_stationary_frames_have_no_mixed_layers():
    rng = np.random.default_rng(107)
    frame = random_frame(rng)
    for tensor in sq.coefficient_tensors(frame, 7).values():
        for (k, s), layer in tensor.layers.items():
            if layer:
                assert k == s


def _contracted(tensors, x0, t0, K):
    """The contracted coefficient rows, in the tensors' component order."""
    return np.array([t.coefficients(x0, t0, K) for t in tensors.values()])


def test_general_equals_stationary_on_constant_frames():
    """The coefficient engine agrees with the layered recursion that builds
    the tensors, on constant and on linear-jet frames."""
    rng = np.random.default_rng(109)
    for n in range(8):
        frame = random_frame(rng)
        if n % 2:
            frame = sq.QuadraticFrame(
                [[sq.TimeJet([v, rng.uniform(-0.5, 0.5)])
                  for v in row] for row in frame.coeffs[0]])
        x0 = rng.uniform(0.2, 1.0, frame.dim)
        a = sq.taylor(frame, x0, 0.3, 8)
        b = _contracted(sq.coefficient_tensors(frame, 8), x0, 0.3, 8)
        scale = np.maximum(np.abs(b), 1.0)
        assert np.max(np.abs(a.coeffs - b) / scale) < 1e-12


@pytest.mark.parametrize("jet_first", [True, False])
def test_frame_center_comes_from_its_jets(jet_first):
    """Constant entries take on the center of the frame's jets, whichever
    entry comes first, so the layered recursion can combine them."""
    jet = sq.TimeJet([1.0, 0.5], center=0.25)
    row = [jet, 0.3] if jet_first else [0.3, jet]
    frame = sq.QuadraticFrame([row, [0.2, 0.1]])
    assert frame.center == 0.25
    assert all(frame.jet(i, j).center == 0.25 for i in (1, 2) for j in (1, 2))
    a = sq.taylor(frame, [1.0, 0.7], 0.1, 8)
    b = _contracted(sq.coefficient_tensors(frame, 8), [1.0, 0.7], 0.1, 8)
    scale = np.maximum(np.abs(b), 1.0)
    assert np.max(np.abs(a.coeffs - b) / scale) < 1e-12


def test_a_frame_takes_the_one_center_of_its_jets():
    """Rows and driver frames take the center their non-constant jets
    share, else that of entry (1, 1); jets at two centers raise.  The refs
    pin each frame's coefficients and center."""
    def at(c):
        return sq.TimeJet([1.0, 0.5], center=c)

    def system(c1, c2):
        return sq.SigmaPiOde(2, [[(c1, {1: 2, 2: 1})], [(c2, {1: 1, 2: 1})]])

    const = sq.TimeJet([2.0], center=0.7)
    with pytest.raises(ValueError, match="frame entries must share one center"):
        sq.QuadraticFrame([[at(0.25), at(0.5)], [0.0, 1.0]])
    with pytest.raises(ValueError, match="frame entries must share one center"):
        sq.driver_frame(sq.quadratize_inclusive(system(at(0.3), at(0.6))))
    frames = [
        sq.QuadraticFrame([[const, 0.5], [0.0, 1.0]]),
        sq.QuadraticFrame([[const, at(0.25)], [0.0, 1.0]]),
        sq.driver_frame(sq.quadratize_inclusive(system(at(0.3), 0.5))),
        sq.driver_frame(sq.quadratize_canonical(
            sq.SigmaPiOde(1, [[(const, {1: 2})]]))),
        sq.inverse_joint_frame(sq.inverse_driver(system(at(0.3), 0.5))),
    ]
    assert [(f.center, f.ref()) for f in frames] == [
        (0.7, "4b5d4fa601a2"), (0.25, "7488af772710"), (0.3, "a19c774caf81"),
        (0.7, "dede3fb40cfe"), (0.3, "caa5a11914b6")]


def test_one_tensor_build_serves_every_start_and_center():
    """The tensors depend on the frame alone: one build, contracted at
    three initial points and three centers, gives taylor's coefficients,
    each order within 1e-12 of that order's largest coefficient.  (Per
    coefficient, cancellation in the Cauchy products puts taylor 4e-12 off
    the exact c_8 of the Airy driver at t0 = -0.3; the contraction is
    2e-16 off.)"""
    rng = np.random.default_rng(113)
    q = sq.quadratize_inclusive(airy_first_order())
    frames = [random_frame(rng), random_frame(rng, zero_column=True),
              random_jet_frame(rng, center=0.25, m=3), sq.driver_frame(q)]
    starts = [[0.7, 1.3], [-0.4, 0.9], [1.1, -0.6]]
    for frame in frames:
        tensors = sq.coefficient_tensors(frame, 8)
        for n, t0 in enumerate([0.0, 0.25, -0.3]):
            if frame is frames[-1]:
                x0 = sq.phi_eval(q, starts[n])
            else:
                x0 = rng.uniform(0.2, 1.0, frame.dim) * rng.choice([-1, 1])
            want = sq.taylor(frame, x0, t0, 8).coeffs
            got = _contracted(tensors, x0, t0, 8)
            scale = np.max(np.abs(want), axis=0)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_a_tensor_contracts_only_to_its_build_order():
    """Orders above the build order have no layers: asking for them raises
    instead of reading them as zero."""
    frame = fixture_frame(DATA / "vex.frame")
    x0 = [0.5, 1.0]
    tensor = sq.coefficient_tensors(frame, 3)[1]
    assert tensor.order == 3
    want = sq.taylor(frame, x0, 0.0, 3).component_row(1)
    assert np.allclose(tensor.coefficients(x0, 0.0, 3), want, rtol=1e-12)
    with pytest.raises(ValueError, match="built to order 3, not 6"):
        tensor.coefficients(x0, 0.0, 6)


def _key_digest(tensors):
    text = repr(sorted((i, sorted((ks, sorted(key.pairs for key in layer))
                                  for ks, layer in t.layers.items()))
                       for i, t in tensors.items()))
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def _seeded_frames():
    rng = np.random.default_rng(2024)
    for n in range(6):
        yield f"random{n}", random_frame(rng, zero_column=bool(n % 2))
    for n in range(6):
        yield f"jet{n}", random_jet_frame(rng, center=0.25)


# SHA-1 prefix of the sorted tail keys of every layer of
# coefficient_tensors(frame, 5), as recorded from the jet-object recursion
# that the coefficient-array layers replaced
TENSOR_KEYS = {
    "affine.spode": "b67d681256d1", "airy_first_order.spode": "ff0a35737930",
    "bernoulli.spode": "5486fa0b69f2", "ex4_variant.frame": "70afdf1f08d7",
    "exdom.spode": "725d321c7e1b", "five_monomials.spode": "7dcf5092d0c4",
    "linear2.spode": "b134e72d3558", "vex.frame": "dd3ebbea4f91",
    "random0": "957575fbe016", "random1": "0c3e8f1e5f48",
    "random2": "2a6f5c3720be", "random3": "957575fbe016",
    "random4": "d7d2516fecf0", "random5": "1d0c0a9fb604",
    "jet0": "a4881ca76e2c", "jet1": "3835b7cd7111", "jet2": "ec2b5bed3c5e",
    "jet3": "3e6170349193", "jet4": "2a80ec199714", "jet5": "4d69eb4e3831",
}


def test_tensor_layers_keep_their_key_sets():
    frames = [(f.name, fixture_frame(f)) for f in sorted(DATA.iterdir())]
    got = {name: _key_digest(sq.coefficient_tensors(frame, 5))
           for name, frame in frames + list(_seeded_frames())}
    assert got == TENSOR_KEYS


# frame.ref() and the SHA-1 prefix of serialize_frame per frame: a fixture
# name alone is its inclusive driver frame (or its parsed .frame),
# ":canonical" and ":inverse" name the other two quadratizations, "api:"
# frames are built from rows.  Rebuilding constant entries at the frame
# center must leave center-0 frames as they are.
FIXTURE_FRAMES = {
    "affine.spode": ("885736692422", "75ae9063503e"),
    "affine.spode:canonical": ("369e36baba29", "657d11838ebb"),
    "affine.spode:inverse": ("f5444b0e893a", "3814c8d4ff5c"),
    "airy_first_order.spode": ("8d884bb006b6", "0a315bec7060"),
    "airy_first_order.spode:canonical": ("c4699281a0b0", "a91f98282cc4"),
    "airy_first_order.spode:inverse": ("5bde06beacd7", "3783e66cce57"),
    "api:jet-at-0.25": ("de79a06bd6bd", "c29c96e41709"),
    "api:negative-zero": ("1f01febf7fab", "3e130d37619b"),
    "api:poly-lengths": ("b059e6772e2a", "82e3b09debca"),
    "bernoulli.spode": ("3220fdd42f7d", "57d7762243eb"),
    "bernoulli.spode:canonical": ("fb519da092be", "062392937735"),
    "bernoulli.spode:inverse": ("dbe3fa6cbced", "c81c827e6753"),
    "ex4_variant.frame": ("94d675d81e65", "249e18985ffe"),
    "exdom.spode": ("162584e345e9", "8b3b8eb921ec"),
    "exdom.spode:canonical": ("3a5992b1b484", "d48e5e4924e5"),
    "exdom.spode:inverse": ("557a91126a06", "c6995a9b8a5e"),
    "five_monomials.spode": ("8de608bb41ac", "480e778cd4db"),
    "five_monomials.spode:canonical": ("01f52e9e220e", "f6a957bf2c06"),
    "five_monomials.spode:inverse": ("6ac510df0ff5", "b85a8a39838f"),
    "linear2.spode": ("6323d041a409", "1275415f1d30"),
    "linear2.spode:canonical": ("2b114733b349", "0e2ea848c65e"),
    "linear2.spode:inverse": ("be4677563fe7", "355ed017784b"),
    "vex.frame": ("49548b4d1762", "959bddb95d97"),
}

API_FRAMES = {
    "api:jet-at-0.25": lambda: sq.QuadraticFrame(
        [[sq.TimeJet([1.0, 0.5], center=0.25), 0.3], [0.2, 0.1]]),
    "api:negative-zero": lambda: sq.QuadraticFrame(
        [[-0.0, 1.5], [0.0, -2.0]]),
    "api:poly-lengths": lambda: sq.QuadraticFrame(
        [[sq.TimeJet([1.0, 2.0, 0.0]), sq.TimeJet([0.5])],
         [sq.TimeJet([0.0, -1.0, 0.25, 0.0]), 0.0]]),
}


def _pinned_frame(name):
    if name in API_FRAMES:
        return API_FRAMES[name]()
    name, _, mode = name.partition(":")
    text = (DATA / name).read_text()
    if name.endswith(".frame"):
        return sq.parse_frame(text)
    ode = sq.parse_ode(text)
    if mode == "canonical":
        return sq.driver_frame(sq.quadratize_canonical(ode))
    if mode == "inverse":
        return sq.inverse_joint_frame(sq.inverse_driver(ode))
    return sq.driver_frame(sq.quadratize_inclusive(ode))


@pytest.mark.parametrize("name", sorted(FIXTURE_FRAMES))
def test_fixture_frames_keep_their_text_and_ref(name):
    frame = _pinned_frame(name)
    digest = hashlib.sha1(sq.serialize_frame(frame).encode()).hexdigest()[:12]
    assert (frame.ref(), digest) == FIXTURE_FRAMES[name]


def test_no_frame_builds_a_jet_per_entry(monkeypatch):
    """Frames are parsed, built, named, written and expanded on their
    coefficient arrays: none of these constructs a TimeJet."""
    rng = np.random.default_rng(40)
    text = "".join(" ".join(map(repr, row)) + "\n"
                   for row in rng.uniform(-1.0, 1.0, (40, 40)).tolist())
    q = sq.quadratize_inclusive(sq.parse_ode((DATA / "exdom.spode").read_text()))
    starts = [rng.uniform(0.5, 1.5, 40), sq.phi_eval(q, [0.5, 0.7, 0.9])]
    calls = []
    init = sq.TimeJet.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sq.TimeJet, "__init__", counted)
    for frame, x0 in zip([sq.parse_frame(text), sq.driver_frame(q)], starts):
        frame.ref()
        sq.serialize_frame(frame)
        sq.taylor(frame, x0, 0.0, 16)
    assert len(calls) == 0


def _alternating_frame():
    return sq.parse_frame("0.75 -0.625\n0.875 -0.5\n"), [1.0, 0.75], 0.0


def _wide_frame():
    rng = np.random.default_rng(1212)
    frame = sq.QuadraticFrame(rng.uniform(-1.0, 1.0, (12, 12)).tolist())
    return frame, rng.uniform(0.2, 1.0, 12), 0.0


def _linear_jet_frame():
    """Alternating-sign linear jets, expanded away from their center."""
    c = 0.25
    frame = sq.QuadraticFrame([
        [sq.TimeJet([0.75, -0.3], center=c), sq.TimeJet([-0.625, 0.1], center=c)],
        [sq.TimeJet([0.875, 0.2], center=c), sq.TimeJet([-0.5, -0.15], center=c)],
    ])
    return frame, [1.0, 0.75], 1.0


@pytest.mark.parametrize("make, K", [
    (_alternating_frame, 16), (_alternating_frame, 24),
    (_alternating_frame, 40), (_wide_frame, 40), (_linear_jet_frame, 16)])
def test_coefficients_match_exact_recursion(make, K):
    """Each order within 1e-12 of that order's largest exact coefficient."""
    frame, x0, t0 = make()
    sol = sq.taylor(frame, x0, t0, K)
    exact = cauchy_exact(frame, x0, t0, K)
    assert np.all(np.isfinite(sol.coeffs))
    for k in range(K + 1):
        want = np.array([float(v) for v in exact[k]])
        err = np.max(np.abs(sol.coeffs[:, k] - want))
        assert err <= 1e-12 * np.max(np.abs(want)), (k, err)


ENTRIES = st.floats(-2.0, 2.0, allow_subnormal=False)
STARTS = st.floats(0.25, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def frames_starts_orders(draw):
    """A constant or poly(...) frame of dim 1-4 (jets of degree up to 3),
    a start with no zero component and an order K <= 12."""
    m = draw(st.integers(1, 4))
    jet = st.lists(ENTRIES, min_size=1, max_size=4).map(sq.TimeJet)
    frame = sq.QuadraticFrame([[draw(jet) for _ in range(m)] for _ in range(m)])
    return frame, [draw(STARTS) for _ in range(m)], draw(st.integers(0, 12))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(frames_starts_orders())
def test_coefficients_match_exact_recursion_on_generated_frames(case):
    """Normwise per order: the largest error over the components of order
    k is at most 8 (k + 1) eps times the largest order-k coefficient of the
    majorant system (|V| and |x0|, exact), which bounds every term the
    recursion sums, so cancellation cannot fail the test.  Measured: at
    most 0.6 (k + 1) eps over 1000 random examples."""
    frame, x0, K = case
    sol = sq.taylor(frame, x0, 0.0, K)
    exact = cauchy_exact(frame, x0, 0.0, K)
    majorant = cauchy_exact(
        sq.QuadraticFrame([[sq.TimeJet(np.abs(frame.jet(i, j).coeffs))
                            for j in range(1, frame.dim + 1)]
                           for i in range(1, frame.dim + 1)]),
        np.abs(x0), 0.0, K)
    for k in range(K + 1):
        err = np.max(np.abs(sol.coeffs[:, k] - [float(v) for v in exact[k]]))
        scale = max(float(v) for v in majorant[k])
        assert err <= 8 * (k + 1) * np.finfo(float).eps * scale, (k, err, scale)


def test_append_multiplier_matches_alpha_weighted_sum():
    """The aggregated multiplier sum_l alpha_l(m + root) v_{l,j} equals the
    ordered form sum_q v_{i_q, j}, and the incremental alpha recursion
    agrees with the direct count."""
    rng = np.random.default_rng(113)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        V = rng.uniform(-1, 1, (m, m))
        length = int(rng.integers(1, 6))
        seq = tuple(int(v) for v in rng.integers(1, m + 1, length))
        j = int(rng.integers(1, m + 1))
        # incremental alpha along the string
        alpha = {l: 0 for l in range(1, m + 1)}
        for idx in seq:
            alpha[idx] += 1
        for l in range(1, m + 1):
            assert alpha[l] == sum(1 for idx in seq if idx == l)
        agg = sum(alpha[l] * V[l - 1, j - 1] for l in range(1, m + 1))
        ordered = sum(V[idx - 1, j - 1] for idx in seq)
        assert agg == pytest.approx(ordered, rel=1e-13, abs=1e-15)


# --------------------------------------------------------------------------
# general engine goldens
# --------------------------------------------------------------------------

def test_time_dependent_exponential_of_t_squared():
    frame = sq.QuadraticFrame([[0.0, t_jet(2.0)], [0.0, 0.0]])
    x = 3.0
    sol = sq.taylor(frame, [x, 1.0], 0.0, 8)
    expect = x * np.array([1, 0, 2, 0, 12, 0, 120, 0, 1680], dtype=float)
    assert np.array_equal(sol.component_row(1), expect)


def test_time_dependent_series_recentered():
    # the same layer jets serve any center: compare against exp(t^2)
    frame = sq.QuadraticFrame([[0.0, t_jet(2.0)], [0.0, 0.0]])
    t0 = 0.4
    x0 = np.array([np.exp(t0 ** 2), 1.0])
    sol = sq.taylor(frame, x0, t0, 16)
    vals, _ = sq.evaluate(sol, 0.55)
    assert vals[0] == pytest.approx(np.exp(0.55 ** 2), rel=1e-12)


def test_airy_component_series():
    q = sq.quadratize_inclusive(airy_first_order())
    frame = sq.driver_frame(q)
    x1, x2 = 0.7, 1.3
    z0 = sq.phi_eval(q, [x1, x2])
    sol = sq.taylor(frame, z0, 0.0, 12, components=[q.identity[2]])
    norm = sol.normalized()[0]
    assert np.allclose(norm, airy_series(x2, x1, 12), rtol=1e-12, atol=1e-14)
    c = sol.component_row(q.identity[2])
    assert c[0] == x2 and c[1] == pytest.approx(x1, rel=1e-14)
    assert c[2] == 0.0
    assert c[3] == pytest.approx(x2, rel=1e-14)


def test_airy_layer_jet_matches_hand_value():
    """The aggregated (3,3) layer for the function component holds the jet t
    on the tail {Z11, Z21}: before evaluation at any center, c_2 reads
    t * x2 once the product of the reciprocal pair is used."""
    q = sq.quadratize_inclusive(airy_first_order())
    frame = sq.driver_frame(q)
    root = q.identity[2]
    tensors = sq.coefficient_tensors(frame, 3, components=[root])
    assert list(tensors) == [root]
    layer = tensors[root].layers[(3, 3)]
    key = sq.IndexMultiset(root, ((q.flat_index(1, 1), 1),
                                  (q.flat_index(2, 1), 1)))
    assert layer[key] == sq.TimeJet([0.0, 1.0])
    # and its derivative feeds c_3 = x2 at the center (layer (4,3))
    layer43 = tensors[root].layers[(4, 3)]
    assert layer43[key] == sq.TimeJet([1.0])


def test_strings_with_tail_outside_support_have_zero_coefficient():
    """Brute-force version of the support restriction: any ordered string
    that uses an index from outside the support set contributes zero."""
    rng = np.random.default_rng(149)
    import itertools
    for _ in range(5):
        frame = random_frame(rng, zero_column=True)
        m = frame.dim
        V = frame.constant_matrix()
        S, _ = sq.support(frame)
        outside = [j for j in range(1, m + 1) if j not in S]
        if not outside:
            continue
        for i in range(1, m + 1):
            for string in itertools.product(range(1, m + 1), repeat=3):
                if not any(j in outside for j in string):
                    continue
                seq = (i,) + string
                v = 1.0
                for pos in range(1, 4):
                    v *= sum(V[seq[q_] - 1, seq[pos] - 1]
                             for q_ in range(pos))
                assert v == 0.0


def test_derivative_link_against_reference_flow():
    """c_k(i) equals the k-th derivative of the reference trajectory at t0,
    estimated by Richardson-extrapolated central differences (k <= 4)."""
    rng = np.random.default_rng(127)
    h, delta = 1e-5, 0.02
    for _ in range(4):
        m = int(rng.integers(1, 4))
        entries = [[sq.TimeJet([rng.uniform(-1, 1), rng.uniform(-1, 1)])
                    for _ in range(m)] for _ in range(m)]
        frame = sq.QuadraticFrame(entries)
        x0 = rng.uniform(0.4, 1.0, m)
        sol = sq.taylor(frame, x0, 0.0, 4)
        fwd = sq.rk4(frame, x0, 0.0, 2 * delta + 1e-12, h)
        back = sq.rk4(frame, x0, 0.0, -2 * delta - 1e-12, h)

        def x_at(offset):
            traj = fwd if offset >= 0 else back
            return traj.states[np.argmin(np.abs(traj.times - offset))]

        def stencil(k, d):
            if k == 1:
                return (x_at(d) - x_at(-d)) / (2 * d)
            if k == 2:
                return (x_at(d) - 2 * x_at(0.0) + x_at(-d)) / d**2
            if k == 3:
                return (x_at(2 * d) - 2 * x_at(d) + 2 * x_at(-d)
                        - x_at(-2 * d)) / (2 * d**3)
            return (x_at(2 * d) - 4 * x_at(d) + 6 * x_at(0.0)
                    - 4 * x_at(-d) + x_at(-2 * d)) / d**4

        for k in range(1, 5):
            rich = (4 * stencil(k, delta / 2) - stencil(k, delta)) / 3
            for i in range(1, m + 1):
                got = sol.component_row(i)[k]
                assert got == pytest.approx(rich[i - 1], rel=1e-4, abs=1e-6)


def test_general_engine_matches_oracle_on_quadratic_jets():
    rng = np.random.default_rng(151)
    for _ in range(3):
        m = int(rng.integers(1, 3))
        entries = [[sq.TimeJet(rng.uniform(-0.6, 0.6, 3)) for _ in range(m)]
                   for _ in range(m)]
        frame = sq.QuadraticFrame(entries)
        x0 = rng.uniform(0.4, 1.0, m)
        sol = sq.taylor(frame, x0, 0.0, 14)
        horizon = min(0.4, 0.4 * sol.radius_bound)
        traj = sq.rk4(frame, x0, 0.0, horizon, 1e-4)
        vals, _ = sq.evaluate(sol, horizon)
        assert np.allclose(vals, traj.states[-1], rtol=1e-9, atol=1e-12)


def test_root_components_are_independent():
    rng = np.random.default_rng(131)
    frame = random_frame(rng, m_max=3)
    x0 = rng.uniform(0.3, 1.0, frame.dim)
    joint = sq.taylor(frame, x0, 0.0, 10)
    for i in range(1, frame.dim + 1):
        alone = sq.taylor(frame, x0, 0.0, 10, components=[i])
        assert np.array_equal(alone.coeffs[0], joint.component_row(i))


# --------------------------------------------------------------------------
# error paths
# --------------------------------------------------------------------------

def test_zero_component_rejected():
    with pytest.raises(ZeroComponent):
        sq.taylor(exp_frame(), [1.0, 0.0], 0.0, 4)
    with pytest.raises(ZeroComponent):
        sq.taylor(exp_frame(), [0.0, 1.0], 0.0, 4)


def test_order_cap():
    with pytest.raises(ValueError):
        sq.taylor(exp_frame(), [1.0, 1.0], 0.0, 171)


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------

def test_radius_examples():
    a, x = 1.0, 1.0
    assert sq.convergence_bound(sq.QuadraticFrame([[a]]), [x]) == 1.0 / (1 * a * x)
    assert sq.convergence_bound(sq.QuadraticFrame([[1.0]]), [-2.0]) == 0.5
    assert sq.convergence_bound(
        sq.QuadraticFrame([[0.0, 0.0], [0.0, 0.0]]), [5.0, 1.0]) == float("inf")
    assert sq.convergence_bound(exp_frame(1.0), [3.0, 1.0]) == pytest.approx(1 / 3)


def test_a_zero_start_has_no_finite_radius_bound():
    # x = 0 solves every driver-type system, so nothing bounds its radius
    frame = sq.QuadraticFrame([[1.0]])
    assert sq.convergence_bound(frame, [0.0]) == float("inf")
    assert sq.bound_envelope(frame, [0.0], 0.0, 100.0) == 0.0


@pytest.mark.parametrize("call", [
    lambda frame, x0: sq.convergence_bound(frame, x0),
    lambda frame, x0: sq.bound_envelope(frame, x0, 0.0, 5.0),
    lambda frame, x0: sq.taylor(frame, x0, 0.0, 3),
], ids=["convergence_bound", "bound_envelope", "taylor"])
@pytest.mark.parametrize("x0, text", [
    ([math.nan], "x0 component 1 is nan, not finite"),
    ([1.0, math.inf], "x0 component 2 is inf, not finite"),
    ([-math.inf, math.nan], "x0 component 1 is -inf, not finite"),
], ids=["nan", "inf-second", "minus-inf"])
def test_a_start_that_is_not_finite_is_named(call, x0, text):
    """A non-finite component has no radius bound or series: the library
    names it rather than returning nan coefficients or a bound of nan or
    0.0."""
    frame = sq.QuadraticFrame(np.eye(len(x0)).tolist())
    with pytest.raises(ValueError, match=f"^{text}$"):
        call(frame, x0)


def test_radius_never_exceeds_root_test_estimate():
    rng = np.random.default_rng(137)
    for _ in range(10):
        frame = random_frame(rng)
        x0 = rng.uniform(0.2, 1.0, frame.dim)
        sol = sq.taylor(frame, x0, 0.0, 30)
        rbar = sol.radius_bound
        if rbar == float("inf"):
            continue
        norm = np.abs(sol.normalized())
        for row in norm:
            nz = [(k, v) for k, v in enumerate(row) if k >= 10 and v > 0]
            if not nz:
                continue
            root_radius = min(v ** (-1.0 / k) for k, v in nz)
            assert root_radius >= 0.98 * rbar


def test_envelope_examples():
    zero = sq.QuadraticFrame([[0.0]])
    assert sq.bound_envelope(zero, [3.0], 0.0, 100.0) == 3.0
    assert sq.bound_envelope(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 0.5) == 2.0
    env = sq.bound_envelope(exp_frame(1.0), [1.0, 1.0], 0.0, 0.5)
    assert env == pytest.approx(2.0)
    assert env >= np.exp(0.5)


def test_envelope_rejects_points_at_or_beyond_radius():
    from spquad.errors import OutOfRadius
    with pytest.raises(OutOfRadius):
        sq.bound_envelope(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 1.0)


def test_envelope_dominates_series_values():
    rng = np.random.default_rng(139)
    for _ in range(10):
        frame = random_frame(rng)
        x0 = rng.uniform(0.2, 1.0, frame.dim)
        sol = sq.taylor(frame, x0, 0.0, 25)
        rbar = sol.radius_bound
        horizon = min(rbar, 10.0)
        for frac in (0.1, 0.5, 0.9):
            t = frac * horizon
            vals, _ = sq.evaluate(sol, t)
            env = sq.bound_envelope(frame, x0, 0.0, t)
            assert np.all(np.abs(vals) <= env * (1 + 1e-12))


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_evaluate_at_center_is_exact():
    sol = sq.taylor(exp_frame(), [2.5, 1.0], 0.0, 10)
    vals, err = sq.evaluate(sol, 0.0)
    assert vals.tolist() == [2.5, 1.0]
    assert err.tolist() == [0.0, 0.0]


def test_evaluate_exponential_at_one():
    sol = sq.taylor(exp_frame(1.0), [1.0, 1.0], 0.0, 20)
    with pytest.warns(RadiusWarning):
        vals, _ = sq.evaluate(sol, 1.0)
    assert abs(vals[0] - np.e) < 1e-9


def test_evaluate_geometric_series():
    sol = sq.taylor(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 30)
    vals, err = sq.evaluate(sol, 0.5)
    assert abs(vals[0] - 2.0) < 1e-6
    assert err[0] == pytest.approx(0.5 ** 30)


def test_evaluate_on_array_equals_scalar_calls_bitwise():
    frame = sq.QuadraticFrame([[0.0, 0.8, 0.1], [0.2, 0.0, 0.3],
                               [0.1, 0.1, -0.2]])
    sol = sq.taylor(frame, [1.0, 0.5, 0.7], 0.1, 30, components=[3, 1])
    rng = np.random.default_rng(7)
    ts = 0.1 + rng.uniform(-0.9, 0.9, (4, 5)) * sol.radius_bound
    vals, err = sq.evaluate(sol, ts)
    assert vals.shape == err.shape == (4, 5, 2)
    pairs = [sq.evaluate(sol, t) for t in ts.ravel()]
    assert np.array_equal(vals.reshape(-1, 2), np.stack([v for v, _ in pairs]))
    assert np.array_equal(err.reshape(-1, 2), np.stack([e for _, e in pairs]))
    scalar_vals, scalar_err = sq.evaluate(sol, float(ts[0, 0]))
    assert scalar_vals.shape == scalar_err.shape == (2,)
    assert sq.evaluate(sol, np.array([]))[0].shape == (0, 2)


def test_evaluate_where_the_power_overflows():
    """|t - t0|^K beyond the float range reads inf in the estimate, in the
    scalar and the array form alike."""
    sol = sq.taylor(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 100)  # a_K = 1
    with pytest.warns(RadiusWarning):
        vals, err = sq.evaluate(sol, 1e5)
        arr_vals, arr_err = sq.evaluate(sol, np.array([1e5, -1e5]))
    assert err[0] == math.inf
    assert np.array_equal(arr_vals[0], vals) and np.array_equal(arr_err[0], err)
    assert arr_err[1, 0] == math.inf


def test_evaluate_on_array_warns_for_one_far_time():
    sol = sq.taylor(exp_frame(1.0), [1.0, 1.0], 0.0, 20)
    ts = np.array([0.0, 0.1, 2.0 * sol.radius_bound])
    with pytest.warns(RadiusWarning):
        sq.evaluate(sol, ts)


# --------------------------------------------------------------------------
# continuation
# --------------------------------------------------------------------------

def test_continuation_through_several_recenters():
    value, path = sq.continue_to(sq.QuadraticFrame([[1.0]]), [-2.0], 0.0, 2.0,
                                 K=30)
    assert value[0] == pytest.approx(-0.4, abs=1e-8)
    assert len(path) >= 2


def test_continuation_to_center_is_identity():
    value, path = sq.continue_to(exp_frame(), [1.0, 1.0], 0.0, 0.0)
    assert value.tolist() == [1.0, 1.0]
    assert path == []


def test_continuation_toward_pole_fails_cleanly():
    with pytest.raises((Divergence, StepLimit)):
        sq.continue_to(sq.QuadraticFrame([[1.0]]), [1.0], 0.0, 1.0, K=20)


def test_continuation_backward():
    value, _ = sq.continue_to(exp_frame(1.0), [1.0, 1.0], 0.0, -2.0, K=25)
    assert value[0] == pytest.approx(np.exp(-2.0), rel=1e-9)


def test_continuation_of_time_dependent_frame():
    frame = sq.QuadraticFrame([[0.0, t_jet(2.0)], [0.0, 0.0]])
    value, path = sq.continue_to(frame, [1.0, 1.0], 0.0, 1.5, K=24)
    assert value[0] == pytest.approx(np.exp(1.5 ** 2), rel=1e-8)
    assert path


def test_continuation_theta_validation():
    with pytest.raises(ValueError):
        sq.continue_to(exp_frame(), [1.0, 1.0], 0.0, 1.0, theta=0.0)


@pytest.mark.parametrize("t0, target", [(0.0, math.nan), (math.nan, 1.0),
                                        (0.0, math.inf), (-math.inf, 0.0)])
def test_continuation_rejects_a_time_that_is_not_finite(t0, target):
    with pytest.raises(ValueError, match="must be finite"):
        sq.continue_to(exp_frame(), [0.5, 1.0], t0, target)


def test_continuation_domain_exit():
    # x' = -x decays; by t = 60 the value underflows the zero tolerance
    frame = sq.QuadraticFrame([[0.0, -1.0], [0.0, 0.0]])
    with pytest.raises((DomainExit, StepLimit)):
        sq.continue_to(frame, [1e-300, 1.0], 0.0, 60.0, K=20, max_steps=500)


def _tail_step_per_component(series, x):
    """Reference: min over components i and j in {K-1, K} with a_{j,i} != 0
    of (1e-16 |x_i| / |a_{j,i}|)^(1/j); inf when no such coefficient."""
    a = series.normalized()
    K = series.order
    best = math.inf
    for i in range(len(x)):
        for j in (K - 1, K):
            if j >= 1 and a[i, j] != 0.0:
                best = min(best, (1e-16 * abs(x[i]) / abs(a[i, j])) ** (1.0 / j))
    return best


def test_tail_step_is_the_per_component_minimum():
    rng = np.random.default_rng(61)
    cases = [(fixture_frame(DATA / name), None)
             for name in ("vex.frame", "ex4_variant.frame", "linear2.spode")]
    cases += [(random_frame(rng, m_max=4, zero_column=True), None) for _ in range(8)]
    cases += [(random_jet_frame(rng, center=0.25), None) for _ in range(8)]
    # driver coordinates hundreds of orders of magnitude apart
    cases.append((sq.QuadraticFrame([[0.0, -1.0], [0.0, 0.0]]), [1e-300, 1.0]))
    for frame, x in cases:
        x = rng.uniform(0.5, 1.5, frame.dim) if x is None else np.array(x)
        for K in (1, 2, 10, 30):
            sol = sq.taylor(frame, x, 0.1, K)
            want = _tail_step_per_component(sol, x)
            assert _tail_step(sol, x) == pytest.approx(want, rel=1e-14)
    # the small component decides: over norms the step would be ~1e15
    sol = sq.taylor(cases[-1][0], [1e-300, 1.0], 0.0, 20)
    assert _tail_step(sol, [1e-300, 1.0]) < 2.0


def test_tail_step_of_an_all_zero_tail_is_inf():
    zero = sq.taylor(sq.QuadraticFrame([[0.0, 0.0], [0.0, 0.0]]), [1.0, 2.0], 0.0, 12)
    assert _tail_step(zero, [1.0, 2.0]) == math.inf
    assert _tail_step(sq.taylor(exp_frame(), [1.0, 1.0], 0.0, 0), [1.0, 1.0]) == math.inf


def test_all_zero_tail_keeps_the_radius_floor():
    """x' = (x1 - x2) x at x1 = x2 is at rest, so every coefficient past a_0
    vanishes and the tail step is inf; the steps stay theta * r_bar = 0.25."""
    frame = sq.QuadraticFrame([[1.0, -1.0], [1.0, -1.0]])
    value, path = sq.continue_to(frame, [1.0, 1.0], 0.0, 1.0, K=12)
    assert value.tolist() == [1.0, 1.0]
    assert [t for t, _ in path] == [0.25, 0.5, 0.75, 1.0]


def _theta_rbar_path(frame, x0, t0, T, K, theta=0.5, tail_tol=1e-9):
    """Reference: the step theta * r_bar, halved until the tail check holds."""
    x, t, path = np.asarray(x0, dtype=float), float(t0), []
    while t != T:
        sol = sq.taylor(frame, x, t, K)
        remaining = T - t
        reach = theta * sol.radius_bound
        step = remaining if reach >= abs(remaining) else np.sign(remaining) * reach
        while True:
            t_new = T if abs(step) >= abs(remaining) else t + step
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RadiusWarning)
                vals, err = sq.evaluate(sol, t_new)
            if np.all(np.isfinite(vals)) and np.max(err / np.abs(vals)) <= tail_tol:
                break
            step *= 0.5
        x, t = vals, t_new
        path.append((t, x.copy()))
    return x, path


@pytest.mark.parametrize("a, x0, T", [
    (1.0, -2.0, 2.0), (-0.75, 1.25, 3.2), (0.5, 1.5, 0.9), (-1.0, -0.5, -1.5)])
def test_riccati_steps_equal_the_radius_rule_bitwise(a, x0, T):
    """On x' = a x^2 the radius bound is the true radius and the tail step
    (about 0.28 r_bar at K = 30) lies below theta * r_bar = 0.5 r_bar."""
    frame = sq.QuadraticFrame([[a]])
    value, path = sq.continue_to(frame, [x0], 0.0, T, K=30)
    want_value, want_path = _theta_rbar_path(frame, [x0], 0.0, T, 30)
    assert np.array_equal(value, want_value)
    assert [t for t, _ in path] == [t for t, _ in want_path]
    assert all(np.array_equal(x, w) for (_, x), (_, w) in zip(path, want_path))


def test_strict_tail_tolerance_halves_and_succeeds():
    frame = exp_frame(1.0)
    _, loose = sq.continue_to(frame, [1.0, 1.0], 0.0, 2.0, K=20)
    value, strict = sq.continue_to(frame, [1.0, 1.0], 0.0, 2.0, K=20,
                                   tail_tol=1e-20)
    assert len(strict) > len(loose)
    assert value[0] == pytest.approx(np.exp(2.0), rel=1e-13)


def test_zero_tail_tolerance_runs_out_of_halvings():
    with pytest.raises(StepLimit):
        sq.continue_to(exp_frame(1.0), [1.0, 1.0], 0.0, 2.0, K=20, tail_tol=0.0)
