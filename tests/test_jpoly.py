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
    with pytest.raises(ZeroDivisionError):
        JPoly((1,), 0)


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


# -- against a plain-Fraction reference ---------------------------------------
# JPoly computes on integer numerators over one common denominator; the
# reference below is the textbook coefficient-list arithmetic on Fractions.

def _ref(cs):
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ref(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return _ref(out)


def _ref_horner(cs, x):
    acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
    for c in reversed(cs):
        acc = acc * x + (c if isinstance(x, (int, Fraction)) else float(c))
    return acc


@settings(max_examples=150, deadline=None)
@given(a=poly_coeffs, b=poly_coeffs, c=rationals)
def test_ring_operations_match_the_fraction_reference(a, b, c):
    pa, pb = JPoly.from_coeffs(a), JPoly.from_coeffs(b)
    ra, rb = _ref(a), _ref(b)
    assert pa.coeffs == ra and pa.degree == len(ra) - 1
    assert (pa + pb).coeffs == _ref_add(ra, rb)
    assert (pa - pb).coeffs == _ref_add(ra, rb, -1)
    assert (-pa).coeffs == _ref(-x for x in ra)
    assert (pa * pb).coeffs == _ref_mul(ra, rb)
    assert (pa * c).coeffs == (c * pa).coeffs == _ref(x * c for x in ra)
    assert (pa * 3).coeffs == _ref(3 * x for x in ra)
    if c != 0:
        assert pa.scalar_div(c).coeffs == _ref(x / c for x in ra)
    assert (pa - pa).is_zero() and (pa * JPoly.zero()).is_zero()
    for out in (pa + pb, pa - pb, pa * pb, pa * c):
        assert all(type(x) is Fraction for x in out.coeffs)
        assert not out.coeffs or out.coeffs[-1] != 0


@settings(max_examples=150, deadline=None)
@given(cs=poly_coeffs, n=st.integers(min_value=-60, max_value=60),
       q=st.fractions(min_value=-10, max_value=10, max_denominator=30),
       x=st.floats(min_value=-1e3, max_value=1e3))
def test_evaluation_matches_the_fraction_reference(cs, n, q, x):
    p, ref = JPoly.from_coeffs(cs), _ref(cs)
    for arg in (n, q):
        got = p(arg)
        assert type(got) is Fraction and got == _ref_horner(ref, arg)
    # Float input takes each coefficient as float(c): bit-equal to the
    # reference, signed zeros included.
    assert p(x).hex() == _ref_horner(ref, x).hex()
    assert p(float(n)).hex() == _ref_horner(ref, float(n)).hex()


@settings(max_examples=150, deadline=None)
@given(cs=poly_coeffs, k=st.integers(min_value=1, max_value=12),
       zeros=st.integers(min_value=0, max_value=3))
def test_canonical_form_under_eq_hash_and_pairs(cs, k, zeros):
    # The same polynomial from unreduced pairs with trailing zeros is the
    # same object under == and hash, with reduced coefficients.
    p = JPoly.from_coeffs(cs)
    scaled = JPoly.from_pairs([[c.numerator * k, c.denominator * k]
                               for c in p.coeffs] + [[0, k]] * zeros)
    assert scaled == p and hash(scaled) == hash(p)
    negated = JPoly(tuple(-k * a for a in p.nums) + (0,) * zeros, -k * p.den)
    assert negated == p and hash(negated) == hash(p) and negated.den > 0
    assert scaled.coeffs == _ref(cs)
    pairs = p.to_pairs()
    assert pairs == [[c.numerator, c.denominator] for c in _ref(cs)]
    assert JPoly.from_pairs(pairs) == p
    assert (p == JPoly.from_coeffs(list(cs) + [1])) is False
    assert p != p + JPoly.one()
