"""sympy as an independent exact oracle for the determinant and sigma layer.

The library's determinants come from the continuant recurrence and its sigma
vectors from back-substitution, both in its own ``JPoly`` arithmetic; here
sympy forms the same matrices over a symbol j and expands them itself.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from su2ladders.jpoly import JPoly  # noqa: E402
from su2ladders.ladder import (build_alpha, det_certificate,  # noqa: E402
                               family_for_theta, right_function_poly,
                               solve_sigma)

J = sympy.Symbol("j")


def _expr(poly: JPoly):
    return sum((sympy.Rational(c.numerator, c.denominator) * J ** k
                for k, c in enumerate(poly.coeffs)), sympy.Integer(0))


def _shifted_alpha(s: int, family: str, theta: int):
    """A - theta(theta + 2j + 1) I as a sympy matrix over j."""
    alpha = sympy.Matrix([[_expr(entry) for entry in row]
                          for row in build_alpha(s, family).as_rows()])
    return alpha - _expr(right_function_poly(theta)) * sympy.eye(alpha.rows)


def _coeffs(expr) -> tuple[Fraction, ...]:
    """Coefficients lowest power first, without trailing zeros (as JPoly)."""
    cs = [Fraction(int(c.p), int(c.q))
          for c in reversed(sympy.Poly(expr, J).all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@pytest.mark.parametrize("s", range(1, 6))
@pytest.mark.parametrize("family", ["p", "m"])
def test_determinant_equals_sympy(s, family):
    for theta in range(-s, s + 2):
        # Gaussian elimination over sympy's polynomial domain QQ[j].
        want = _coeffs(_shifted_alpha(s, family, theta).det(method="domain-ge"))
        assert det_certificate(s, family, theta).coeffs == want


@pytest.mark.parametrize("s", range(1, 6))
def test_sigma_is_a_null_vector_in_sympy(s):
    for theta in range(-s, s + 1):
        family = family_for_theta(s, theta)
        sigma = solve_sigma(build_alpha(s, family), theta)
        vec = sympy.Matrix([_expr(sigma.sigmas[k]) for k in sigma.ks])
        product = (_shifted_alpha(s, family, theta) * vec).expand()
        assert product == sympy.zeros(len(sigma.ks), 1)
