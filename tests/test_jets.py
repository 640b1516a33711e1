import pytest

from spquad import TimeJet


def test_evaluation_at_center_returns_constant_term():
    jet = TimeJet([3.0, 2.0, -1.0], center=1.5)
    assert jet(1.5) == 3.0
    assert jet(2.5) == 3.0 + 2.0 - 1.0


def test_trailing_zeros_trimmed_and_negative_zero_folded():
    jet = TimeJet([1.0, 0.0, 0.0])
    assert jet.order == 0
    assert repr(TimeJet([0.0, 1.0]).scale(-1.0)) == "TimeJet([0.0,-1.0])"


def test_scale_and_neg():
    a = TimeJet([1.0, -2.0])
    assert (-a).coeffs.tolist() == [-1.0, 2.0]
    assert a.scale(0.0).is_zero()
    assert a.scale(2.0).coeffs.tolist() == [2.0, -4.0]


def test_immutability():
    a = TimeJet([1.0])
    with pytest.raises(AttributeError):
        a.center = 3.0
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0
