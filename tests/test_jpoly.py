from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from su2ladders.jpoly import JPoly, poly_matrix_det

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)
poly_coeffs = st.lists(rationals, max_size=6)


def test_canonical_form_strips_trailing_zeros():
    p = JPoly.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert JPoly.from_coeffs([0, 0]).is_zero()
    assert JPoly.zero().degree == -1


def test_basic_arithmetic_exact():
    j = JPoly.symbol()
    p = j * j + j                     # j(j+1)
    assert p.coeffs == (Fraction(0), Fraction(1), Fraction(1))
    assert (p - p).is_zero()
    assert (p * JPoly.constant(Fraction(1, 3))).coeffs == (
        Fraction(0), Fraction(1, 3), Fraction(1, 3))
    assert p.scalar_div(2)(Fraction(3)) == Fraction(6)


def test_exact_evaluation_and_float_evaluation():
    p = JPoly.from_coeffs([Fraction(1, 2), Fraction(1, 2)])
    assert p(Fraction(3)) == Fraction(2)
    assert p(3.0) == pytest.approx(2.0)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        JPoly.one().scalar_div(0)


def test_non_rational_coefficients_rejected():
    with pytest.raises(TypeError):
        JPoly.from_coeffs([0.5])


@settings(max_examples=100, deadline=None)
@given(cs=poly_coeffs)
def test_serialization_roundtrip_lossless(cs):
    p = JPoly.from_coeffs(cs)
    assert JPoly.from_pairs(p.to_pairs()) == p


@settings(max_examples=60, deadline=None)
@given(a=poly_coeffs, b=poly_coeffs, c=poly_coeffs)
def test_ring_axioms(a, b, c):
    pa, pb, pc = (JPoly.from_coeffs(x) for x in (a, b, c))
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


@settings(max_examples=60, deadline=None)
@given(a=poly_coeffs, b=poly_coeffs, x=st.fractions(
    min_value=-10, max_value=10, max_denominator=20))
def test_evaluation_is_homomorphism(a, b, x):
    pa, pb = JPoly.from_coeffs(a), JPoly.from_coeffs(b)
    assert (pa * pb)(x) == pa(x) * pb(x)
    assert (pa + pb)(x) == pa(x) + pb(x)


def test_determinant_two_by_two():
    j = JPoly.symbol()
    rows = [[j, JPoly.one()], [JPoly.constant(2), j]]
    det = poly_matrix_det(rows)
    assert det == j * j - JPoly.constant(2)


def test_determinant_triangular_is_diagonal_product():
    j = JPoly.symbol()
    rows = [[j, JPoly.zero(), JPoly.zero()],
            [JPoly.one(), j + JPoly.one(), JPoly.zero()],
            [JPoly.one(), JPoly.one(), JPoly.constant(3)]]
    assert poly_matrix_det(rows) == j * (j + JPoly.one()) * JPoly.constant(3)


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        poly_matrix_det([[JPoly.one()], [JPoly.one()]])


def test_str_rendering():
    j = JPoly.symbol()
    assert str(JPoly.zero()) == "0"
    assert str(j * j + j) == "j + j^2"


@given(poly_coeffs, st.integers(min_value=-60, max_value=60))
@settings(max_examples=200, deadline=None)
def test_integer_evaluation_equals_fraction_horner(cs, x):
    # At an int, Horner runs on integers over the common denominator; the
    # value must be the Fraction that Horner's rule over Fractions gives.
    p = JPoly.from_coeffs(cs)
    want = Fraction(0)
    for c in reversed(p.coeffs):
        want = want * x + c
    got = p(x)
    assert type(got) is Fraction and got == want
    assert p(Fraction(x)) == want
