"""Generic ladder-operator machinery.

An operator p+ is a right ladder operator (RLO) of a self-adjoint H when
[H, p+] = p+ P for some self-adjoint P commuting with H; P is the right
function.  The conjugate relation [p, H] = P p defines a left ladder
operator.  Given a family {T_k} closed under commutation with H,
[H, T_eta] = sum_mu T_mu alpha_mu_eta, candidate right functions are the
roots of det(A - P) = 0 and the combination coefficients sigma solve
(A - P) sigma = 0.  For the Casimir of the bosonic su(2) realization the
closure matrix A is tridiagonal with entries polynomial in the label symbol
j, so both certificates are carried out in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .jpoly import JPoly
from .operators import (Operator, ResidualReport, commutator_on_columns,
                        commutator_residual, interior_factors, on_columns,
                        residual)

P_FAMILY = "p"
M_FAMILY = "m"
_ZERO = JPoly.zero()


class PreconditionError(ValueError):
    """A ladder-check precondition (a required commutation) fails."""

    def __init__(self, message: str, report: Optional[ResidualReport] = None):
        self.report = report
        super().__init__(message)


class RightFunctionError(ValueError):
    """A right-function candidate fails its exact determinant certificate."""

    def __init__(self, theta: int, det_poly: JPoly):
        self.theta = theta
        self.det_poly = det_poly
        super().__init__(
            f"det(A - P) for theta={theta} is not the zero polynomial: {det_poly}")


class ConsistencyError(ValueError):
    """Back-substitution leaves a nonzero consistency polynomial."""

    def __init__(self, theta: int, family: str, poly: JPoly):
        self.theta = theta
        self.family = family
        self.poly = poly
        super().__init__(
            f"sigma consistency row for theta={theta} ({family} family) "
            f"is nonzero: {poly}")


class AlphaVerificationError(ValueError):
    """A closure-matrix entry disagrees with the measured commutators."""

    def __init__(self, family: str, eta: int, detail: str):
        self.family = family
        self.eta = eta
        super().__init__(
            f"closure matrix verification failed for column eta={eta} "
            f"({family} family): {detail}")


# -- residual checks ----------------------------------------------------------


#: Relative commutator norm of H and P above which check_rlo/check_llo refuse.
_PRECONDITION_TOL = 1e-10


def _check_commutes(x: Operator, y: Operator, margin: int,
                    tol: float, what: str) -> None:
    rep = commutator_residual(x, y, margin)
    if rep.frobenius_relative > tol:
        raise PreconditionError(
            f"{what} (relative commutator norm "
            f"{rep.frobenius_relative:.3e} > {tol:.1e})", rep)


def check_rlo(h: Operator, p_dag: Operator, p_fn: Operator,
              margin: int) -> ResidualReport:
    """Residual of the right-ladder relation [H, p+] - p+ P on the interior.

    Precondition: P commutes with H to 1e-10 on the full interior, measured
    on every call, a spectral image of H included (violations raise
    PreconditionError carrying the offending commutator norm).

    Both sides are formed from the factors ``interior_factors`` cuts, on the
    restricted columns only.  When p+ or P vanishes identically (a zero
    right function), p+ P vanishes on every column and the relation
    degenerates to [H, p+] = 0, which is checked as ``commutator_residual``
    (normalised by the restricted norms of H and p+).
    The branch does not depend on the restriction: a p+ P that vanishes only
    on the restricted columns is still compared as a two-sided identity.
    """
    _check_commutes(h, p_fn, margin, _PRECONDITION_TOL,
                    "right function does not commute with H")
    if p_dag.is_zero() or p_fn.is_zero():
        return commutator_residual(h, p_dag, margin)
    h, p_dag, p_fn = interior_factors(margin, h, p_dag, p_fn)
    return residual(commutator_on_columns(h, p_dag, margin),
                    p_dag @ on_columns(p_fn, margin), margin)


def check_llo(h: Operator, p: Operator, p_fn: Operator,
              margin: int) -> ResidualReport:
    """Residual of the left-ladder relation [p, H] - P p on the interior.

    The precondition is that of ``check_rlo``.  p lowers n, so both sides
    are formed on the restricted columns only (the column rule of
    ``interior_factors``).  As in ``check_rlo``, the relation degenerates
    to [H, p] = 0 (``commutator_residual``) when p or P vanishes
    identically, whatever the restriction.
    """
    _check_commutes(h, p_fn, margin, _PRECONDITION_TOL,
                    "left function does not commute with H")
    if p.is_zero() or p_fn.is_zero():
        return commutator_residual(h, p, margin)
    return residual(commutator_on_columns(p, h, margin),
                    p_fn @ on_columns(p, margin), margin)


def check_power_identity(h: Operator, p_dag: Operator,
                         p_fn: Operator, n: int,
                         margin: int) -> ResidualReport:
    """Residual of [H^n, p+] - p+ ((H + P)^n - H^n).

    Requires the base right-ladder relation to hold at 1e-8 first.
    """
    base = check_rlo(h, p_dag, p_fn, margin)
    if base.frobenius_relative > 1e-8:
        raise PreconditionError(
            f"base ladder relation fails at {base.frobenius_relative:.3e}", base)
    h, p_dag, p_fn = interior_factors(margin, h, p_dag, p_fn)
    hn = h.power(n)
    lhs = commutator_on_columns(hn, p_dag, margin)
    rhs = p_dag @ on_columns((h + p_fn).power(n) - hn, margin)
    return residual(lhs, rhs, margin)


def check_rlo_compose(h: Operator, p_dag: Operator,
                      p_fn: Operator, a: Operator,
                      margin: int) -> ResidualReport:
    """Residual of [H, p+ A] - p+ A P for A commuting with H + P (to 1e-8)."""
    _check_commutes(h + p_fn, a, margin, 1e-8,
                    "A does not commute with H + P")
    h, p_dag, p_fn, a = interior_factors(margin, h, p_dag, p_fn, a)
    pa = p_dag @ a
    return residual(commutator_on_columns(h, pa, margin),
                    pa @ on_columns(p_fn, margin), margin)


# -- closure matrix -----------------------------------------------------------


@dataclass(frozen=True)
class AlphaMatrix:
    """Tridiagonal closure matrix of the p or m family for one spin.

    Rows and columns are indexed by the family index k (0..s for the
    symmetric family, 1..s for the antisymmetric one); entries are exact
    polynomials in the label symbol j.  Column eta lists the coefficients of
    [J^2, T_eta] = sum_mu T_mu alpha[mu, eta], with the coefficients standing
    to the right of the family operators.
    """
    spin: int
    family: str
    entries: dict[tuple[int, int], JPoly]

    @property
    def ks(self) -> range:
        return range(0 if self.family == P_FAMILY else 1, self.spin + 1)

    def entry(self, row_k: int, col_k: int) -> JPoly:
        return self.entries.get((row_k, col_k), _ZERO)

    def as_rows(self) -> list[list[JPoly]]:
        ks = list(self.ks)
        return [[self.entry(i, j) for j in ks] for i in ks]


def _diag_entry(s: int, k: int) -> JPoly:
    return JPoly.constant(s * (s + 1) - 2 * k * k)


def _sub_entry(s: int, k: int, family: str) -> JPoly:
    # Coefficient of T_{k+1} in [J^2, T_k]; the symmetric family's k = 0
    # column carries the doubled constant from T_0 = 2 a_0^dagger.
    if family == P_FAMILY and k == 0:
        return JPoly.constant(2 * s * (s + 1))
    return JPoly.constant((s + k + 1) * (s - k))


def _super_entry(k: int) -> JPoly:
    # j(j+1) - k(k-1), the coefficient of T_{k-1} in [J^2, T_k].
    return JPoly.from_coeffs([-k * (k - 1), 1, 1])


def build_alpha(s: int, family: str) -> AlphaMatrix:
    """Closure matrix assembled from the commutation relations of the family.

    The diagonal is s(s+1) - 2k^2, the sub-diagonal (s+k+1)(s-k) (doubled at
    the symmetric family's first column), the super-diagonal j(j+1) - k(k-1).
    Numerical certification against measured commutators is a separate step
    (``certify_alpha`` in the casimir module) since it needs a Fock space.
    """
    if s < 1:
        raise ValueError(f"spin must be >= 1, got {s}")
    if family not in (P_FAMILY, M_FAMILY):
        raise ValueError(f"family must be '{P_FAMILY}' or '{M_FAMILY}'")
    lo = 0 if family == P_FAMILY else 1
    entries: dict[tuple[int, int], JPoly] = {}
    for k in range(lo, s + 1):
        entries[(k, k)] = _diag_entry(s, k)
        if k + 1 <= s:
            entries[(k + 1, k)] = _sub_entry(s, k, family)
        if k - 1 >= lo:
            entries[(k - 1, k)] = _super_entry(k)
    return AlphaMatrix(spin=s, family=family, entries=entries)


def build_alpha_variant_diag4(s: int, family: str) -> AlphaMatrix:
    """Rejected alternative convention: k = 1 diagonal entry s(s+1) - 4.

    Kept only as a negative control; it fails the numerical certificate for
    every spin and is recorded as a discrepancy in verification reports.
    """
    base = build_alpha(s, family)
    entries = dict(base.entries)
    if (1, 1) in entries:
        entries[(1, 1)] = JPoly.constant(s * (s + 1) - 4)
    return AlphaMatrix(spin=s, family=family, entries=entries)


# -- right functions -----------------------------------------------------------


@dataclass(frozen=True)
class RightFunction:
    """Eigenvalue family member theta(theta + 2j + 1) with its family parity."""
    theta: int
    family: str
    poly: JPoly


def right_function_poly(theta: int) -> JPoly:
    """theta(theta + 2j + 1) as an exact polynomial in j."""
    return JPoly.from_coeffs([theta * theta + theta, 2 * theta])


def family_for_theta(s: int, theta: int) -> str:
    """Parity rule: theta with the parity of s belongs to the symmetric family."""
    return P_FAMILY if (theta - s) % 2 == 0 else M_FAMILY


def det_certificate(s: int, family: str, theta: int) -> JPoly:
    """Exact det(A - theta(theta + 2j + 1) I) for the given family.

    A is tridiagonal, so the determinant is the continuant: with D_0 = 1 and
    D_1 the first diagonal entry of A - f, the leading minors obey
    D_{i+1} = (a_ii - f) D_i - a_{i,i-1} a_{i-1,i} D_{i-1}, one polynomial
    product per entry instead of a Laplace expansion.  An entry of A off the
    three diagonals would be dropped by the recurrence, so it raises
    ValueError.
    """
    alpha = build_alpha(s, family)
    off = sorted(key for key, poly in alpha.entries.items()
                 if abs(key[0] - key[1]) > 1 and not poly.is_zero())
    if off:
        raise ValueError(f"closure matrix is not tridiagonal: entries {off}")
    f = right_function_poly(theta)
    ks = list(alpha.ks)
    prev, det = JPoly.one(), alpha.entry(ks[0], ks[0]) - f
    for a, b in zip(ks, ks[1:]):
        prev, det = det, ((alpha.entry(b, b) - f) * det
                          - alpha.entry(b, a) * alpha.entry(a, b) * prev)
    return det


def right_functions(s: int) -> list[RightFunction]:
    """All 2s+1 certified right functions, theta = -s..s.

    Each candidate's determinant certificate must be the exact zero
    polynomial in its parity-matched family; a failure aborts with the
    nonzero determinant.
    """
    if s < 1:
        raise ValueError(f"spin must be >= 1, got {s}")
    out = []
    for theta in range(-s, s + 1):
        family = family_for_theta(s, theta)
        det = det_certificate(s, family, theta)
        if not det.is_zero():
            raise RightFunctionError(theta, det)
        out.append(RightFunction(theta=theta, family=family,
                                 poly=right_function_poly(theta)))
    return out


# -- sigma coefficients ---------------------------------------------------------


@dataclass(frozen=True)
class SigmaVector:
    """Combination coefficients sigma_k (polynomials in j), sigma_s = 1.

    Solves (A - theta(theta+2j+1) I) sigma = 0 by back-substitution from the
    last row; the remaining top row is the exact consistency certificate.
    """
    spin: int
    theta: int
    family: str
    sigmas: dict[int, JPoly]

    @property
    def ks(self) -> range:
        return range(0 if self.family == P_FAMILY else 1, self.spin + 1)


def solve_sigma(alpha: AlphaMatrix, theta: int) -> SigmaVector:
    """Back-substitute the null vector of (A - P) with sigma_s normalized to 1.

    Row k expresses sigma_{k-1} through sigma_k and sigma_{k+1}; the leading
    coefficients (s+k)(s-k+1), or 2s(s+1) at the symmetric family's first
    column, are nonzero integers so every division is exact.  The unused
    lowest row must evaluate to the zero polynomial; otherwise the closure
    matrix is wrong and ConsistencyError carries the offending polynomial.
    """
    s = alpha.spin
    if family_for_theta(s, theta) != alpha.family:
        raise ValueError(
            f"theta={theta} has the wrong parity for the {alpha.family} family "
            f"at spin {s}")
    f = right_function_poly(theta)
    lo = alpha.ks.start
    sigmas: dict[int, JPoly] = {s: JPoly.one()}
    # Rows k = s down to lo+1 determine sigma_{k-1}.
    for k in range(s, lo, -1):
        sigma_k = sigmas[k]
        sigma_k1 = sigmas.get(k + 1, _ZERO)
        lead = alpha.entry(k, k - 1)
        if lead.degree != 0:
            raise ValueError("sub-diagonal closure entry is not a constant")
        lead_c = lead.coeffs[0]
        rhs = (f - alpha.entry(k, k)) * sigma_k - alpha.entry(k, k + 1) * sigma_k1
        sigmas[k - 1] = rhs.scalar_div(lead_c)
    # Unused row lo is the consistency certificate.
    check = ((alpha.entry(lo, lo) - f) * sigmas[lo]
             + alpha.entry(lo, lo + 1) * sigmas.get(lo + 1, _ZERO))
    if not check.is_zero():
        raise ConsistencyError(theta, alpha.family, check)
    return SigmaVector(spin=s, theta=theta, family=alpha.family, sigmas=sigmas)


def sigma_closed_form_next_to_top(s: int, theta: int) -> JPoly:
    """Closed form for sigma_{s-1}: j*theta/s + (theta^2 + theta + s^2 - s)/(2s).

    Matches back-substitution for s >= 2; for s = 1 the first-column
    normalization differs by the documented factor s + 1.
    """
    return JPoly.from_coeffs([
        Fraction(theta * theta + theta + s * s - s, 2 * s),
        Fraction(theta, s),
    ])
