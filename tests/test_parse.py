from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spquad as sq
from spquad.errors import (BadExponent, DuplicateEquation, NonSquare,
                           OdeSyntaxError)
from support import exdom_ode, five_monomial_ode, random_text_ode


# --------------------------------------------------------------------------
# parse_ode
# --------------------------------------------------------------------------

def test_parse_worked_example_equation():
    ode = sq.parse_ode(
        "x1' = 1*x2^(1/3)*x3 + poly(0,2)*x2*x1^(-0.2)\n")
    assert ode.n == 3
    assert ode.nu(1) == 2 and ode.nu(2) == 0 and ode.nu(3) == 0
    coeff, mono = ode.terms(1)[1]
    assert coeff == (0.0, 2.0)
    assert mono.exponent(1) == pytest.approx(-0.2)
    assert mono.rational(1) is None            # decimal stays conservative
    assert ode.terms(1)[0][1].rational(2) == F(1, 3)


def test_parse_zero_equation():
    ode = sq.parse_ode("x1' = 0\n")
    assert ode.n == 1 and ode.nu(1) == 0


def test_parse_single_constant_coefficient_monomial():
    ode = sq.parse_ode("x1' = 3*x1^2")
    assert ode.nu(1) == 1
    coeff, mono = ode.terms(1)[0]
    assert coeff == (3.0,)
    assert mono.rational(1) == F(2)


def test_missing_equations_become_zero_equations():
    ode = sq.parse_ode("x2' = x4\n")
    assert ode.n == 4
    assert [ode.nu(i) for i in range(1, 5)] == [0, 1, 0, 0]


def test_signs_and_leading_minus():
    ode = sq.parse_ode("x1' = -2*x1 + 4 - x1^3")
    assert [coeff for coeff, _ in ode.terms(1)] == [(-2.0,), (4.0,), (-1.0,)]


def test_zero_coefficient_term_is_kept():
    ode = sq.parse_ode("x1' = 0*x1^2")
    assert ode.nu(1) == 1
    assert ode.terms(1)[0][0] == (0.0,)


def test_repeated_factor_exponents_merge():
    ode = sq.parse_ode("x1' = x1*x1^2")
    assert ode.terms(1)[0][1].rational(1) == F(3)


def test_syntax_error_carries_span():
    with pytest.raises(OdeSyntaxError) as err:
        sq.parse_ode("x1' = 3*\n")
    span = err.value.span
    assert span is not None
    assert span.line == 1
    assert 0 <= span.start <= span.end <= len("x1' = 3*\n")


@pytest.mark.parametrize("text, column", [
    ("x0' = x1\n", 2),
    ("x1' = x0\n", 8),
    ("x2' = 3*x1*x0^2\n", 13),
])
def test_index_zero_rejected_with_span(text, column):
    with pytest.raises(OdeSyntaxError) as err:
        sq.parse_ode(text)
    span = err.value.span
    assert (span.line, span.column, span.end - span.start) == (1, column, 1)


@pytest.mark.parametrize("text, literal", [
    ("x1' = 1e999*x1\n", "1e999"),
    ("x1' = x1^1e400\n", "1e400"),
    ("x1' = x1^(1/" + "9" * 400 + ")\n", "9" * 400),
    ("x1' = poly(1,-2e308)*x1\n", "2e308"),
])
def test_literals_beyond_float_range_rejected(text, literal):
    with pytest.raises(OdeSyntaxError) as err:
        sq.parse_ode(text)
    span = err.value.span
    assert text[span.start:span.end] == literal


def test_frame_literal_beyond_float_range_rejected():
    with pytest.raises(OdeSyntaxError) as err:
        sq.parse_frame("1 0\n0 1e999\n")
    span = err.value.span
    assert (span.line, span.column) == (2, 3)


def test_duplicate_equation_rejected():
    with pytest.raises(DuplicateEquation):
        sq.parse_ode("x1' = x1\nx1' = x1^2\n")


def test_bad_exponent_zero_denominator():
    with pytest.raises(BadExponent):
        sq.parse_ode("x1' = x1^(1/0)\n")


def test_garbage_rejected_with_spans():
    for text in ("y1' = 2", "x1 = 2", "x1' 2", "x1' = 2 +", "x1' = poly(", ""):
        with pytest.raises(OdeSyntaxError) as err:
            sq.parse_ode(text)
        span = err.value.span
        assert span is not None
        assert 0 <= span.start <= span.end <= max(len(text), 1)


# --------------------------------------------------------------------------
# serialize_ode
# --------------------------------------------------------------------------

def test_serialize_zero_system():
    assert sq.serialize_ode(sq.SigmaPiOde(2)) == "x1' = 0\nx2' = 0\n"


def test_serialize_jet_coefficient():
    ode = sq.SigmaPiOde(1, [[((0.0, 2.0), {1: 1})]])
    assert sq.serialize_ode(ode) == "x1' = poly(0.0,2.0)*x1\n"


def test_serialize_refuses_a_center_the_text_cannot_hold():
    """The grammar writes time polynomials in powers of t: a system or a
    frame at another center raises instead of printing as another model."""
    ode = sq.SigmaPiOde(1, [[((1.0, 2.0), {1: 1})]], center=0.5)
    with pytest.raises(ValueError, match="center 0.5"):
        sq.serialize_ode(ode)
    with pytest.raises(ValueError, match="center 0.5"):
        sq.serialize_frame(sq.QuadraticFrame([[(1.0, 2.0)]], center=0.5))
    at_zero = sq.SigmaPiOde(1, [[((1.0, 2.0), {1: 1})]])
    assert sq.parse_ode(sq.serialize_ode(at_zero)) == at_zero != ode


def test_serialize_kept_zero_constant_term():
    ode = sq.SigmaPiOde(1, [[(0.0, {})]])
    text = sq.serialize_ode(ode)
    assert text == "x1' = poly(0.0)\n"
    again = sq.parse_ode(text)
    assert again == ode            # still one term, not the zero equation


def test_round_trip_of_worked_examples():
    for ode in (exdom_ode(), five_monomial_ode()):
        text = sq.serialize_ode(ode)
        parsed = sq.parse_ode(text)
        assert parsed == ode
        assert sq.serialize_ode(parsed) == text   # canonical fixpoint


def test_round_trip_property():
    rng = np.random.default_rng(71)
    for _ in range(200):
        ode = random_text_ode(rng)
        text = sq.serialize_ode(ode)
        parsed = sq.parse_ode(text)
        assert parsed == ode, text
        assert sq.serialize_ode(parsed) == text


# --------------------------------------------------------------------------
# frames
# --------------------------------------------------------------------------

def test_parse_frame_with_jet_entry():
    frame = sq.parse_frame("0 poly(0,2)\n0 0\n")
    assert frame.dim == 2
    assert frame.coeffs[:, 0, 1].tolist() == [0.0, 2.0]
    assert not frame.coeffs[:, 0, 0].any()


def test_parse_frame_single_zero():
    frame = sq.parse_frame("0\n")
    assert frame.dim == 1 and frame.coeffs.tolist() == [[[0.0]]]


def test_parse_frame_commas_and_negatives():
    frame = sq.parse_frame("0, -1.5\n2, poly(1,-1)\n")
    assert frame.coeffs[:, 0, 1].tolist() == [-1.5, 0.0]
    assert frame.coeffs[:, 1, 1].tolist() == [1.0, -1.0]


def test_parse_frame_rejects_non_square():
    with pytest.raises(NonSquare):
        sq.parse_frame("0 1\n1\n")
    with pytest.raises(NonSquare):
        sq.parse_frame("0 1 0\n0 0 1\n")


def test_non_square_row_carries_the_span_of_its_own_line():
    text = "\n\n1 2\n3\n"
    with pytest.raises(NonSquare) as err:
        sq.parse_frame(text)
    span = err.value.span
    assert (span.line, span.column, span.start, span.end) == (4, 1, 6, 7)
    assert text[span.start:span.end] == "3"


def test_frame_round_trip():
    rng = np.random.default_rng(73)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        rows = []
        for _ in range(m):
            row = []
            for _ in range(m):
                if rng.random() < 0.3:
                    row.append(rng.uniform(-2, 2, 3))
                else:
                    row.append(rng.uniform(-2, 2))
            rows.append(row)
        frame = sq.QuadraticFrame(rows)
        text = sq.serialize_frame(frame)
        assert sq.parse_frame(text) == frame
        assert sq.serialize_frame(sq.parse_frame(text)) == text


# --------------------------------------------------------------------------
# generated round trips (hypothesis, derandomized so every run draws alike)
# --------------------------------------------------------------------------

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


# a constant or the coefficients of a poly(...) of degree up to 3
COEFFS = st.lists(FLOATS, min_size=1, max_size=4)


@st.composite
def frames(draw):
    m = draw(st.integers(1, 4))
    return sq.QuadraticFrame([[draw(COEFFS) for _ in range(m)] for _ in range(m)])


EXPONENTS = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-9, 9), st.integers(1, 7)))


@st.composite
def systems(draw):
    """Systems with integer and exact rational exponents."""
    n = draw(st.integers(1, 4))
    monomials = st.dictionaries(st.integers(1, n), EXPONENTS, max_size=n)
    terms = st.lists(st.tuples(COEFFS, monomials.map(sq.Monomial)), max_size=3)
    return sq.SigmaPiOde(n, [draw(terms) for _ in range(n)])


@DETERMINISTIC
@given(frames())
def test_frame_round_trip_generated(frame):
    assert sq.parse_frame(sq.serialize_frame(frame)) == frame


@DETERMINISTIC
@given(systems())
def test_ode_round_trip_generated(ode):
    text = sq.serialize_ode(ode)
    assert sq.serialize_ode(sq.parse_ode(text)) == text
