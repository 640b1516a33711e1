import math
from fractions import Fraction as F

import numpy as np
import pytest

import spquad as sq
from spquad import DomainClass
from spquad.errors import DomainViolation, InvalidProjection
from support import (exdom_ode, exdom_variant, random_sigma_pi,
                     scalar_horner, singular_part_expected)


# --------------------------------------------------------------------------
# analyze_domain
# --------------------------------------------------------------------------

def test_domain_of_worked_example():
    d = sq.analyze_domain(exdom_ode())
    assert d.domain_class(1) is DomainClass.NONZERO
    assert d.domain_class(2) is DomainClass.UNRESTRICTED
    # x3 carries the exponent 1/2, so zero is a definedness point but the
    # open domain is x3 > 0
    assert d.domain_class(3) is DomainClass.CLOSED_POSITIVE
    assert d.macro_orthant == (3,)
    assert d.removed_hyperplanes == (1,)
    assert d.contains([1.0, 0.0, 2.0])
    assert not d.contains([0.0, 1.0, 2.0])
    assert not d.contains([1.0, 1.0, -2.0])


def test_integer_exponents_leave_space_unrestricted():
    ode = sq.SigmaPiOde(2, [[(1.0, {1: 1, 2: 1})], []])
    d = sq.analyze_domain(ode)
    assert all(c is DomainClass.UNRESTRICTED for c in d.classes)
    assert d.macro_orthant == () and d.removed_hyperplanes == ()


def test_even_denominator_gives_closed_positive():
    ode = sq.SigmaPiOde(1, [[(1.0, {1: F(1, 2)})]])
    assert sq.analyze_domain(ode).domain_class(1) is DomainClass.CLOSED_POSITIVE


def test_decimal_exponent_is_conservative():
    # 0.25 as a decimal is classified like an irrational: closed-positive
    ode = sq.SigmaPiOde(1, [[(1.0, {1: 0.25})]])
    assert sq.analyze_domain(ode).domain_class(1) is DomainClass.CLOSED_POSITIVE
    # the same value as an exact rational has an even denominator: same class
    ode2 = sq.SigmaPiOde(1, [[(1.0, {1: F(1, 4)})]])
    assert sq.analyze_domain(ode2).domain_class(1) is DomainClass.CLOSED_POSITIVE
    # but an odd-denominator negative rational differs from its decimal twin
    ode3 = sq.SigmaPiOde(1, [[(1.0, {1: F(-1, 5)})]])
    assert sq.analyze_domain(ode3).domain_class(1) is DomainClass.NONZERO
    ode4 = sq.SigmaPiOde(1, [[(1.0, {1: -0.2})]])
    assert sq.analyze_domain(ode4).domain_class(1) is DomainClass.OPEN_POSITIVE


def test_domain_monotone_under_added_monomials():
    rng = np.random.default_rng(5)
    order = {DomainClass.UNRESTRICTED: 3, DomainClass.CLOSED_POSITIVE: 2,
             DomainClass.NONZERO: 2, DomainClass.OPEN_POSITIVE: 1}
    for _ in range(30):
        ode = random_sigma_pi(rng)
        d1 = sq.analyze_domain(ode)
        bigger = sq.add_fictitious_monomial(
            ode, 1, sq.Monomial({1: F(1, 2)}))
        d2 = sq.analyze_domain(bigger)
        for j in range(1, ode.n + 1):
            assert order[d2.domain_class(j)] <= order[d1.domain_class(j)]


# --------------------------------------------------------------------------
# structure
# --------------------------------------------------------------------------

def test_structure_of_worked_example():
    rep = sq.structure(exdom_ode())
    assert rep.criticality == frozenset({2})
    assert rep.singularity == frozenset({2})
    assert rep.nonsingular_criticality == frozenset()


def test_added_monomial_removes_singularity():
    rep = sq.structure(exdom_variant())
    assert rep.criticality == frozenset({2})
    assert rep.singularity == frozenset()
    assert rep.nonsingular_criticality == frozenset({2})


def test_zero_system_fully_singular():
    rep = sq.structure(sq.SigmaPiOde(2))
    assert rep.criticality == frozenset({1, 2})
    assert rep.singularity == frozenset({1, 2})


def test_zero_coefficient_counts_as_vanishing_term():
    # equation 1 carries x2 with an identically zero coefficient only
    ode = sq.SigmaPiOde(2, [[(0.0, {2: 1})], [(1.0, {2: 2})]])
    rep = sq.structure(ode)
    assert 1 in rep.singularity and 2 in rep.singularity


# --------------------------------------------------------------------------
# project
# --------------------------------------------------------------------------

def test_projection_of_worked_example():
    projected, renumber = sq.project(exdom_ode(), {2})
    assert renumber == {1: 1, 3: 2}
    assert projected == singular_part_expected()


def test_empty_projection_is_identity():
    ode = exdom_ode()
    projected, renumber = sq.project(ode, set())
    assert projected == ode
    assert renumber == {1: 1, 2: 2, 3: 3}


def test_projection_annihilates_whole_equation():
    ode = sq.SigmaPiOde(2, [[(1.0, {1: 1, 2: 1})], [(1.0, {2: 1})]])
    projected, _ = sq.project(ode, {2})
    assert projected.n == 1 and projected.nu(1) == 0


def test_projection_rejects_negative_exponent_on_dropped_index():
    ode = sq.SigmaPiOde(2, [[(1.0, {2: -1})], []])
    with pytest.raises(InvalidProjection):
        sq.project(ode, {2})


# --------------------------------------------------------------------------
# decompose_global
# --------------------------------------------------------------------------

def test_regular_system_decomposes_trivially():
    ode = exdom_variant()
    chain = sq.decompose_global(ode)
    assert len(chain) == 1
    assert chain[0].drop == frozenset()
    assert chain[0].ode == ode


def test_worked_example_decomposes_in_two_stages():
    chain = sq.decompose_global(exdom_ode())
    assert len(chain) == 2
    assert chain[0].drop == frozenset({2})
    assert chain[1].ode == singular_part_expected()
    # the projected stage inherits x1 != 0 from the deleted monomials,
    # so x1 = 0 is not one of its sub-solutions and the stage is regular
    assert chain[1].report.is_regular
    assert chain[1].to_original == {1: 1, 2: 3}


def test_double_singular_system_reaches_zero_system():
    ode = sq.SigmaPiOde(2, [[(1.0, {1: 1, 2: 1})], [(1.0, {1: 1, 2: 1})]])
    chain = sq.decompose_global(ode)
    assert len(chain) == 2
    assert chain[0].drop == frozenset({1, 2})
    assert chain[1].ode.is_zero_system


def test_cascade_terminates_within_dimension_bound():
    rng = np.random.default_rng(11)
    for _ in range(25):
        ode = random_sigma_pi(rng)
        chain = sq.decompose_global(ode)
        assert len(chain) <= ode.n + 1
        for stage in chain[:-1]:
            assert stage.drop
        last = chain[-1]
        assert last.report.is_regular or last.ode.is_zero_system
        # no dropped index survives into the next stage
        for a, b in zip(chain, chain[1:]):
            assert not (a.drop & set(b.to_original.values()))


# --------------------------------------------------------------------------
# data model basics
# --------------------------------------------------------------------------

def test_monomial_canonical_sparsity():
    m = sq.Monomial({1: 2, 2: 0, 3: F(0, 5)})
    assert m.indices() == (1,)
    assert sq.Monomial({}) == sq.Monomial.one()
    assert m.exponent(2) == 0.0


def test_monomial_evaluation_on_positive_orthant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ode = random_sigma_pi(rng)
        x = rng.uniform(0.3, 2.0, ode.n)
        for i in range(1, ode.n + 1):
            for _, mono in ode.terms(i):
                v = mono.evaluate(x)
                assert np.isfinite(v)


def test_negative_base_odd_denominator_is_defined():
    m = sq.Monomial({1: F(1, 3)})
    assert m.evaluate([-8.0]) == pytest.approx(-2.0)
    m2 = sq.Monomial({1: F(2, 3)})
    assert m2.evaluate([-8.0]) == pytest.approx(4.0)


def test_coefficients_are_tuples_trimmed_with_zero_signs_folded():
    """A number or sequence becomes a tuple of floats without trailing
    zeros, -0.0 stored as 0.0; at the center a polynomial reads c0."""
    ode = sq.SigmaPiOde(1, [[((3.0, 2.0, -1.0, 0.0), {1: 1}), (-0.0, {}),
                             (np.array([0.0, -0.0]), {1: 2}), ([], {1: 3})]],
                        center=1.5)
    coeffs = [coeff for coeff, _ in ode.terms(1)]
    assert coeffs == [(3.0, 2.0, -1.0), (0.0,), (0.0,), (0.0,)]
    assert all(type(c) is float for coeff in coeffs for c in coeff)
    assert [math.copysign(1.0, coeff[0]) for coeff in coeffs[1:]] == [1.0] * 3
    assert ode.rhs(1.5, [1.0]).tolist() == [3.0]
    assert ode.rhs(2.5, [1.0]).tolist() == [3.0 + 2.0 - 1.0]


def test_rhs_evaluation():
    ode = sq.SigmaPiOde(2, [[(2.0, {2: 1})], [((0.0, 1.0), {1: 2})]])
    assert ode.rhs(3.0, [1.5, 2.0]) == pytest.approx([4.0, 3.0 * 2.25])


def _per_term_rhs(ode, t, x):
    """Reference: per equation, the sum of the coefficient's value at t
    times mono.evaluate(x)."""
    out = []
    for eq in ode.equations:
        acc = 0.0
        for coeff, mono in eq:
            acc += scalar_horner(coeff, t - ode.center) * mono.evaluate(x)
        out.append(acc)
    return np.array(out)


def test_rhs_equals_per_term_sum_bitwise():
    ode = sq.SigmaPiOde(3, [
        [((0.5, -1.0, 0.25), {1: F(1, 3), 2: 2}),
         (2.0, {1: F(-2, 5)}), (-0.75, {})],
        [((0.6, 2.0), {2: F(1, 2), 3: -1}), (1.5, {1: 1.7})],
        [],
    ], center=0.3)
    rng = np.random.default_rng(2024)
    raised = computed = 0
    for _ in range(400):
        t = float(rng.uniform(-2.0, 2.0))
        x = rng.uniform(-2.0, 2.0, 3)
        x[rng.random(3) < 0.05] = 0.0
        try:
            want = _per_term_rhs(ode, t, x)
        except DomainViolation:
            with pytest.raises(DomainViolation):
                ode.rhs(t, x)
            raised += 1
            continue
        got = ode.rhs(t, list(x))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        computed += 1
    assert raised > 50 and computed > 50
