import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

import su2ladders.ladder as ladder_module
from su2ladders.jpoly import JPoly, poly_matrix_det
from su2ladders.ladder import (ConsistencyError, PreconditionError,
                               build_alpha,
                               build_alpha_variant_diag4, check_llo,
                               check_power_identity, check_rlo,
                               check_rlo_compose, det_certificate,
                               family_for_theta, right_function_poly,
                               right_functions, sigma_closed_form_next_to_top,
                               solve_sigma)
from su2ladders.operators import (ResidualReport, SectorBlocks, SparseOperator,
                                  annihilation_op, commutator,
                                  creation_op, number_op, sector_blocks)
from su2ladders.schwinger import su2_generators


def _dense_interior_residual(lhs, rhs, margin):
    # Independent evaluation of the same quantity with dense numpy.
    import numpy as np
    basis = lhs.basis
    idx = np.flatnonzero(basis.totals <= basis.n_max - margin)
    d = (lhs.matrix - rhs.matrix).toarray()[np.ix_(idx, idx)]
    return float(np.linalg.norm(d))


def test_rlo_number_raising(ctx):
    c = ctx(1, 4)
    ident = SparseOperator.identity(c.basis)
    ad0 = creation_op(c.basis, 0)
    rep = check_rlo(c.gens.Ntot, ad0, ident, 1)
    assert rep.frobenius_relative < 1e-12


def test_rlo_detects_wrong_right_function(ctx):
    c = ctx(1, 4)
    ident = SparseOperator.identity(c.basis)
    rep = check_rlo(c.gens.Ntot, creation_op(c.basis, 0), 2.0 * ident, 1)
    # [N, a+] = a+ against a+ 2: the residual is half the operand norm.
    assert rep.frobenius_relative > 0.1
    assert rep.frobenius_absolute > 1.0


def test_rlo_precondition_violation(ctx):
    c = ctx(1, 4)
    bad_p = creation_op(c.basis, 0) + annihilation_op(c.basis, 0)
    with pytest.raises(PreconditionError):
        check_rlo(c.gens.Ntot, creation_op(c.basis, 0), bad_p, 1)


def test_a_nan_right_function_fails_the_precondition(ctx):
    # One NaN on an interior diagonal entry of P: [H, P] reads NaN, which
    # is not within the precondition's 1e-10.
    c = ctx(1, 4)
    values = np.ones(len(c.basis))
    values[np.flatnonzero(c.basis.totals == 1)[0]] = math.nan
    p_fn = SparseOperator.diagonal(c.basis, values)
    with pytest.raises(PreconditionError, match="nan"):
        check_rlo(c.gens.Ntot, creation_op(c.basis, 0), p_fn, 1)


def test_a_nan_base_relation_fails_the_power_identity(ctx, monkeypatch):
    c = ctx(1, 4)
    monkeypatch.setattr(ladder_module, "check_rlo",
                        lambda *args: ResidualReport(math.nan, math.nan, 1))
    with pytest.raises(PreconditionError, match="base ladder relation"):
        check_power_identity(c.gens.Ntot, creation_op(c.basis, 0),
                             SparseOperator.identity(c.basis), 3, 1)


def test_llo_number_lowering(ctx):
    c = ctx(1, 4)
    ident = SparseOperator.identity(c.basis)
    rep = check_llo(c.gens.Ntot, annihilation_op(c.basis, 0), ident, 1)
    assert rep.frobenius_relative < 1e-12


def test_power_identity_reduces_to_rlo_at_one(ctx):
    c = ctx(1, 4)
    ident = SparseOperator.identity(c.basis)
    ad0 = creation_op(c.basis, 0)
    base = check_rlo(c.gens.Ntot, ad0, ident, 1)
    power = check_power_identity(c.gens.Ntot, ad0, ident, 1, 1)
    assert power.frobenius_absolute == pytest.approx(base.frobenius_absolute)


def test_power_identity_cubed(ctx):
    c = ctx(1, 4)
    ident = SparseOperator.identity(c.basis)
    ad0 = creation_op(c.basis, 0)
    rep = check_power_identity(c.gens.Ntot, ad0, ident, 3, 1)
    assert rep.frobenius_relative < 1e-10
    # Both sides recomputed densely agree with the sparse report.
    h, p = c.gens.Ntot, ad0
    lhs = commutator(h.power(3), p)
    rhs = p @ ((h + ident).power(3) - h.power(3))
    assert _dense_interior_residual(lhs, rhs, 1) == pytest.approx(
        rep.frobenius_absolute, abs=1e-12)


def test_power_identity_casimir(ctx):
    c = ctx(1, 4)
    tau, w0 = c.taus[1], c.gens.weight0()
    rf = w0.function_of_j(tau.right_function)
    rep = check_power_identity(w0.J2, w0.of(tau.op), rf, 2, 1)
    assert rep.frobenius_relative < 1e-8


def test_rlo_compose_identity_reduces(ctx):
    c = ctx(1, 4)
    tau, w0 = c.taus[1], c.gens.weight0()
    rf = w0.function_of_j(tau.right_function)
    ident = SectorBlocks.identity(w0.basis)
    base = check_rlo(w0.J2, w0.of(tau.op), rf, 1)
    comp = check_rlo_compose(w0.J2, w0.of(tau.op), rf, ident, 1)
    assert comp.frobenius_absolute == pytest.approx(base.frobenius_absolute,
                                                    abs=1e-12)


@pytest.mark.parametrize("factor", ["poly", "number"])
def test_rlo_compose_commuting_factor(ctx, factor):
    c = ctx(1, 4)
    tau, w0 = c.taus[1], c.gens.weight0()
    rf = w0.function_of_j(tau.right_function)
    a = (w0.function_of_j(lambda j: j * j + 1.0) if factor == "poly"
         else w0.of(c.gens.Ntot))
    rep = check_rlo_compose(w0.J2, w0.of(tau.op), rf, a, 1)
    assert rep.frobenius_relative < 1e-8


def test_rlo_compose_precondition(ctx):
    c = ctx(1, 4)
    tau = c.taus[1]
    rf = c.gens.function_of_j(tau.right_function)
    with pytest.raises(PreconditionError):
        check_rlo_compose(c.gens.j2_blocks(), tau.op, rf,
                          sector_blocks(creation_op(c.basis, 0)), 1)


# -- closure matrix -------------------------------------------------------------


def test_alpha_s1_p_family():
    alpha = build_alpha(1, "p")
    j = JPoly.symbol()
    assert alpha.entry(0, 0) == JPoly.constant(2)
    assert alpha.entry(1, 0) == JPoly.constant(4)
    assert alpha.entry(0, 1) == j * j + j
    assert alpha.entry(1, 1) == JPoly.zero()


def test_alpha_s1_m_family_is_one_by_one_zero():
    alpha = build_alpha(1, "m")
    assert list(alpha.ks) == [1]
    assert alpha.entry(1, 1) == JPoly.zero()


def test_alpha_s2_p_diagonal():
    alpha = build_alpha(2, "p")
    assert [alpha.entry(k, k) for k in range(3)] == [
        JPoly.constant(6), JPoly.constant(4), JPoly.constant(-2)]


def test_alpha_m_is_p_with_first_row_column_removed():
    for s in (2, 3):
        p = build_alpha(s, "p")
        m = build_alpha(s, "m")
        for i in m.ks:
            for k in m.ks:
                assert m.entry(i, k) == p.entry(i, k)


def test_alpha_tridiagonal():
    alpha = build_alpha(3, "p")
    for (i, k) in alpha.entries:
        assert abs(i - k) <= 1


# -- right functions ----------------------------------------------------------


def test_right_functions_s1():
    rfs = {rf.theta: rf for rf in right_functions(1)}
    assert rfs[1].family == "p"
    assert rfs[1].poly == JPoly.from_coeffs([2, 2])
    assert rfs[-1].family == "p"
    assert rfs[-1].poly == JPoly.from_coeffs([0, -2])
    assert rfs[0].family == "m"
    assert rfs[0].poly.is_zero()


def test_theta_zero_right_function_vanishes_every_spin():
    for s in (1, 2, 3, 4):
        assert right_function_poly(0).is_zero()
        assert any(rf.theta == 0 and rf.poly.is_zero()
                   for rf in right_functions(s))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_determinant_certificates_exact(s):
    for rf in right_functions(s):
        assert det_certificate(s, rf.family, rf.theta).is_zero()


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_determinant_negative_control(s):
    for family in ("p", "m"):
        assert not det_certificate(s, family, s + 1).is_zero()


@pytest.mark.parametrize("s", range(1, 7))
def test_continuant_equals_laplace_determinant(s):
    for family in ("p", "m"):
        for theta in range(-s, s + 2):
            rows = build_alpha(s, family).as_rows()
            f = right_function_poly(theta)
            for i in range(len(rows)):
                rows[i][i] = rows[i][i] - f
            assert det_certificate(s, family, theta) == poly_matrix_det(rows)


def test_continuant_rejects_non_tridiagonal_alpha(monkeypatch):
    # The three-term recurrence would drop an entry two places off the
    # diagonal, so the certificate refuses such a matrix.
    build = ladder_module.build_alpha

    def with_corner(s, family):
        alpha = build(s, family)
        return dataclasses.replace(
            alpha, entries={**alpha.entries, (0, 2): JPoly.one()})
    monkeypatch.setattr(ladder_module, "build_alpha", with_corner)
    with pytest.raises(ValueError, match="not tridiagonal"):
        det_certificate(2, "p", 0)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_parity_assignment(s):
    for rf in right_functions(s):
        assert rf.family == ("p" if (rf.theta - s) % 2 == 0 else "m")
    assert family_for_theta(s, s) == "p"
    assert family_for_theta(s, s - 1) == "m"


# -- sigma coefficients ----------------------------------------------------------


def test_sigma_s1():
    sig_plus = solve_sigma(build_alpha(1, "p"), 1)
    assert sig_plus.sigmas[1] == JPoly.one()
    assert sig_plus.sigmas[0] == JPoly.from_coeffs(
        [Fraction(1, 2), Fraction(1, 2)])
    sig_minus = solve_sigma(build_alpha(1, "p"), -1)
    assert sig_minus.sigmas[0] == JPoly.from_coeffs([0, Fraction(-1, 2)])


def test_sigma_table_digest_s1_to_s13():
    # The exact right functions and sigma vectors for s = 1..13, hashed in
    # the canonical JSON of the benchmark's exact-ladders gate: the
    # rationals are unique, so any correct arithmetic reproduces the digest.
    table = {}
    for s in range(1, 14):
        rows = []
        for rf in right_functions(s):
            sigma = solve_sigma(build_alpha(s, rf.family), rf.theta)
            rows.append({
                "theta": rf.theta, "family": rf.family,
                "poly": rf.poly.to_pairs(),
                "sigma": {str(k): p.to_pairs()
                          for k, p in sorted(sigma.sigmas.items())},
            })
        table[s] = rows
    text = json.dumps([[s, table[s]] for s in sorted(table)],
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "165550531f90e67a3aef75e32a721ba179a3683bf718d8c0b97664c0b1964b66")


def test_sigma_parity_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_sigma(build_alpha(1, "p"), 0)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_sigma_consistency_and_degree_bounds(s):
    for rf in right_functions(s):
        sig = solve_sigma(build_alpha(s, rf.family), rf.theta)
        assert sig.sigmas[s] == JPoly.one()
        for k, poly in sig.sigmas.items():
            assert poly.degree <= s - k
        if abs(rf.theta) == s:
            lo = min(sig.sigmas)
            assert sig.sigmas[lo].degree == s - lo


def test_sigma_consistency_error_carries_polynomial():
    # A wrong closure matrix must be caught by the unused row.
    broken = build_alpha_variant_diag4(2, "p")
    with pytest.raises(ConsistencyError) as err:
        solve_sigma(broken, 2)
    assert not err.value.poly.is_zero()


@pytest.mark.parametrize("s", [2, 3, 4])
def test_sigma_closed_form_next_to_top(s):
    for rf in right_functions(s):
        sig = solve_sigma(build_alpha(s, rf.family), rf.theta)
        assert sig.sigmas[s - 1] == sigma_closed_form_next_to_top(s, rf.theta)


def test_sigma_closed_form_s1_differs_by_first_column_factor():
    # At s = 1 the doubled first-column constant makes the recurrence yield
    # exactly half the generic closed form (factor s + 1 = 2).
    for theta in (-1, 1):
        sig = solve_sigma(build_alpha(1, "p"), theta)
        closed = sigma_closed_form_next_to_top(1, theta)
        assert sig.sigmas[0] * Fraction(2) == closed


# -- right-function precondition -------------------------------------------------


def _right_function(c, theta=1):
    tau = c.taus[theta]
    return tau, c.gens.function_of_j(tau.right_function)


@pytest.mark.parametrize("check", [check_rlo, check_llo])
def test_precondition_measured_for_every_right_function(ctx, monkeypatch,
                                                        check):
    c = ctx(2, 4)
    tau, rf = _right_function(c)
    op = tau.op if check is check_rlo else tau.op.adjoint()
    calls = []
    original = ladder_module.commutator_residual

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ladder_module, "commutator_residual", counting)
    j2 = c.gens.j2_blocks()
    image = check(j2, op, rf, 1)
    assert len(calls) == 1
    rewrapped = check(j2, op, SectorBlocks(c.basis, rf.blocks), 1)
    assert len(calls) == 2
    # A spectral image of this very J^2 and its re-wrap are measured alike.
    assert image == rewrapped


def test_perturbed_right_function_still_fails_the_precondition(ctx):
    c = ctx(1, 4)
    tau, rf = _right_function(c)
    n0 = sector_blocks(number_op(c.basis, 0))
    bad = rf + (1e-6 * rf.norm() / n0.norm()) * n0
    for check, op in ((check_rlo, tau.op), (check_llo, tau.op.adjoint())):
        with pytest.raises(PreconditionError):
            check(c.gens.j2_blocks(), op, bad, 1)


def test_rewrapped_noncommuting_copy_fails_the_precondition(ctx):
    c = ctx(1, 4)
    tau, rf = _right_function(c)
    rng = np.random.default_rng(7)
    blocks = {k: (t, block * (1.0 + 1e-6 * rng.standard_normal(block.shape)))
              for k, (t, block) in rf.blocks.items()}
    with pytest.raises(PreconditionError):
        check_rlo(c.gens.j2_blocks(), tau.op, SectorBlocks(c.basis, blocks), 1)


def test_right_function_of_other_generators_fails_the_precondition(ctx):
    # Another generator set whose J^2 has the same spectrum but other
    # eigenvectors on the (2, 0) sector: its f(J^2) does not commute with
    # this one.
    c = ctx(1, 4)
    tau, _rf = _right_function(c)
    other = su2_generators(c.basis)
    idx = np.flatnonzero((c.basis.totals == 2) & (c.basis.weights == 0))
    rot = np.eye(len(c.basis))
    cs, sn = np.cos(0.3), np.sin(0.3)
    rot[np.ix_(idx, idx)] = [[cs, -sn], [sn, cs]]
    rot = sparse.csr_matrix(rot)
    other.J2 = SparseOperator(c.basis, rot @ c.gens.J2.matrix @ rot.T).hermitized()
    rf_other = other.function_of_j(tau.right_function)
    with pytest.raises(PreconditionError):
        check_rlo(c.gens.j2_blocks(), tau.op, rf_other, 1)
    with pytest.raises(PreconditionError):
        check_llo(c.gens.j2_blocks(), tau.op.adjoint(), rf_other, 1)
