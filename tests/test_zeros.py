"""Rational zero finding for the small systems the resolver produces."""

from fractions import Fraction

import pytest

from blowcube import builtin, parse_poly
from blowcube.zeros import affine_common_zeros, projective_rational_zeros

XY = ("x", "y")
P2 = ("x", "y", "z")


def aff(*texts):
    return [parse_poly(t, XY) for t in texts]


def test_transverse_pair():
    pts, flag = affine_common_zeros(aff("x^2 - 1", "y - x"))
    assert pts == {(1, 1), (-1, -1)}
    assert flag is False


def test_irrational_zeros_are_flagged_not_returned():
    pts, flag = affine_common_zeros(aff("x^2 - 2", "y"))
    assert pts == set()
    assert flag is True


def test_mixed_rational_and_irrational():
    pts, flag = affine_common_zeros(aff("(x^2 - 2) * (x - 1)", "y - x"))
    assert pts == {(1, 1)}
    assert flag is True


def test_fractional_coordinates():
    pts, _flag = affine_common_zeros(aff("2*x - 1", "3*y + 1"))
    assert pts == {(Fraction(1, 2), Fraction(-1, 3))}


# Each pair reaches one branch of the zero search that ends in the ideal test
# for zeros above irrational roots: once with such a zero, once without.
@pytest.mark.parametrize("texts, points, flag", [
    # univariate in y
    (("y^2 - 2", "x^2 - y"), set(), True),
    (("y^2 - 2", "x^2 - y", "x^2 - 2*y"), set(), False),
    # univariate in x
    (("x^2 - 2", "y^2 - x"), set(), True),
    (("x^2 - 2", "y^2 - x", "y^2 - 2*x"), set(), False),
    # bivariate, through the resultant's irreducible factors
    (("x*y - 1", "x^2 + y^2 - 3"), set(), True),
    (("(y^2 - 2)*x^2 + x + 1", "(y^2 - 2)*x^2 + 2*x + 3"),
     {(-2, Fraction(-3, 2)), (-2, Fraction(3, 2))}, False),
])
def test_zeros_above_irrational_roots(texts, points, flag):
    assert affine_common_zeros(aff(*texts)) == (points, flag)


def test_degenerate_systems_are_rejected():
    with pytest.raises(ValueError):
        affine_common_zeros(aff("x*y", "x"))  # shares the component x = 0
    with pytest.raises(ValueError):
        affine_common_zeros(aff("x + y"))
    with pytest.raises(ValueError):
        affine_common_zeros([parse_poly("0", XY)])
    pts, flag = affine_common_zeros(aff("1", "x"))
    assert pts == set() and flag is False


def test_projective_zeros_of_the_standard_involution():
    pts, flag = projective_rational_zeros(builtin("sigma").entries)
    assert pts == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert flag is False


def test_projective_zeros_at_infinity_only():
    entries = [parse_poly(t, P2) for t in ("x*z", "y^2", "z^2")]
    # common zero needs z = 0 and y = 0: the point at infinity (1 : 0 : 0)
    pts, flag = projective_rational_zeros(entries)
    assert pts == [(1, 0, 0)]
    assert flag is False


def test_projective_irrational_locus_flagged():
    entries = [parse_poly(t, P2) for t in ("x^2 - 2*y^2", "z^2", "x*z")]
    pts, flag = projective_rational_zeros(entries)
    assert pts == []
    assert flag is True


def test_projective_rejects_common_divisor_z():
    entries = [parse_poly(t, P2) for t in ("x*z", "y*z", "z^2")]
    with pytest.raises(ValueError):
        projective_rational_zeros(entries)
