"""The complete spin-1 walkthrough: Weyl pair, deformed su(2), canonical basis."""

import numpy as np
import pytest

from su2ladders.casimir import (TauBarReport, canonical_basis_s1,
                                demo_s1_operators, s1_inverse_expressions,
                                s1_reference_taus, s1_tau_bracket_ladder,
                                tau_bar_forms)
from su2ladders.operators import (ResidualReport, SectorBlocks, commutator,
                                  creation_op, residual)
from su2ladders.schwinger import jz_kernel


def _ctx(ctx):
    return ctx(1, 5)


def test_weyl_commutator(ctx):
    c = _ctx(ctx)
    d = demo_s1_operators(c.gens, c.families)
    w0 = c.gens.weight0()
    rep = residual(w0.of(commutator(d.a_op, d.a_dag)),
                   SectorBlocks.identity(w0.basis), 2)
    assert rep.frobenius_relative < 1e-8


def test_number_like_operator_counts_j(ctx):
    c = _ctx(ctx)
    d = demo_s1_operators(c.gens, c.families)
    ada = d.a_dag @ d.a_op
    for n in range(5):
        for kv in jz_kernel(c.basis, c.gens, n):
            assert np.linalg.norm(ada.apply(kv.vector) - kv.j * kv.vector) \
                < 1e-8


def test_deformed_su2_spectra(ctx):
    c = _ctx(ctx)
    d = demo_s1_operators(c.gens, c.families)
    for n in range(5):
        for kv in jz_kernel(c.basis, c.gens, n):
            m = (n - kv.j) / 2.0 - (n + kv.j) / 4.0
            ell = (n + kv.j) / 4.0
            assert np.linalg.norm(d.l_z.apply(kv.vector) - m * kv.vector) \
                < 1e-8
            assert np.linalg.norm(
                d.l_2.apply(kv.vector) - ell * (ell + 1) * kv.vector) < 1e-8


def test_demo_operators_are_casimir_ladders(ctx):
    c = _ctx(ctx)
    d = demo_s1_operators(c.gens, c.families)
    w0 = c.gens.weight0()
    f_plus = w0.function_of_j(lambda j: 2.0 * (j + 1.0))
    f_minus = w0.function_of_j(lambda j: -2.0 * j)
    from su2ladders.ladder import check_rlo
    assert check_rlo(w0.J2, w0.of(d.a_dag), f_plus, 1
                     ).frobenius_relative < 1e-8
    assert check_rlo(w0.J2, w0.of(d.l_plus), f_minus, 1
                     ).frobenius_relative < 1e-8


def test_double_commutator_returns_creation(ctx):
    c = _ctx(ctx)
    w0 = c.gens.weight0()
    ad0 = w0.of(creation_op(c.basis, 0))
    rep = residual(commutator(w0.j, commutator(w0.j, ad0)), ad0, 1)
    assert rep.frobenius_relative < 1e-8


def test_single_mode_ladder_forms(ctx):
    c = _ctx(ctx)
    tb = tau_bar_forms(c.basis, c.gens, c.families,
                       creation_op(c.basis, 0))
    assert tb.double_commutator.frobenius_relative < 1e-8
    assert tb.rlo_plus.frobenius_relative < 1e-8
    assert tb.rlo_minus.frobenius_relative < 1e-8
    assert tb.llo_plus.frobenius_relative < 1e-8
    assert tb.llo_minus.frobenius_relative < 1e-8


def test_single_mode_ladders_are_rescaled_taus(ctx):
    # On each (n, j) node the single-mode forms equal the reference ladders
    # times 1/(2j+1).
    c = _ctx(ctx)
    tb = tau_bar_forms(c.basis, c.gens, c.families,
                       creation_op(c.basis, 0))
    assert tb.node_ratios, "expected per-node ratio measurements"
    assert tb.max_ratio_deviation() < 1e-10
    for n, j, measured, expected in tb.node_ratios:
        assert expected == pytest.approx(1.0 / (2 * j + 1))


def test_max_ratio_deviation_is_a_plain_float():
    rep = ResidualReport(0.0, 0.0, 1)
    tb = TauBarReport(rep, rep, rep, rep, rep,
                      [(1, 1, np.float64(0.25), 1.0 / 3.0)])
    assert type(tb.max_ratio_deviation()) is float


def test_inverse_expressions(ctx):
    c = _ctx(ctx)
    reps = s1_inverse_expressions(c.gens, c.families)
    for key in ("p0_from_taus", "p1_from_taus", "label_comm_p0",
                "label_comm_p1"):
        assert reps[key].frobenius_relative < 1e-8, key


def test_bracket_ladder_pairings(ctx):
    c = _ctx(ctx)
    reps = s1_tau_bracket_ladder(c.gens, c.families)
    assert reps["mixed_pair_shift2"].frobenius_relative < 1e-8
    assert reps["raising_pair_commutes"].frobenius_relative < 1e-8


def test_canonical_chain_endpoints(ctx):
    c = _ctx(ctx)
    vectors = canonical_basis_s1(c.basis, c.gens, c.families, 2)
    by_label = {(cv.n, cv.j, cv.jz): cv for cv in vectors}
    one = by_label[(1, 1, 0)]
    i = c.basis.state_index((0, 1, 0))
    assert abs(one.vector[i]) == pytest.approx(1.0)
    # (2, 0, 0) and (2, 2, 0) span the two-dimensional zero-weight sector
    # and match the diagonalization route vector for vector.
    kvs = {kv.j: kv for kv in jz_kernel(c.basis, c.gens, 2)}
    for j in (0, 2):
        overlap = abs(np.vdot(kvs[j].vector, by_label[(2, j, 0)].vector))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_canonical_basis_labels_and_orthonormality(ctx):
    c = _ctx(ctx)
    vectors = canonical_basis_s1(c.basis, c.gens, c.families, 4)
    assert len(vectors) == sum(
        2 * j + 1 for n in range(5) for j in range(n % 2, n + 1, 2))
    mat = np.array([cv.vector for cv in vectors])
    gram = mat.conj() @ mat.T
    assert np.max(np.abs(gram - np.eye(len(vectors)))) < 1e-8
    for cv in vectors:
        v = cv.vector
        assert np.linalg.norm(c.gens.Ntot.apply(v) - cv.n * v) < 1e-8
        assert np.linalg.norm(c.gens.J2.apply(v)
                              - cv.j * (cv.j + 1) * v) < 1e-8
        assert np.linalg.norm(c.gens.Jz.apply(v) - cv.jz * v) < 1e-8


def test_reference_taus_annihilation(ctx):
    c = _ctx(ctx)
    tau_plus, tau_minus = s1_reference_taus(c.gens, c.families)
    vac = c.basis.unit_vector((0, 0, 0))
    assert np.linalg.norm(tau_minus.apply(vac)) < 1e-14
    assert np.linalg.norm(tau_plus.apply(vac) - 2.0 * c.basis.unit_vector(
        (0, 1, 0))) < 1e-14


def test_demo_requires_spin_one(ctx):
    c = ctx(2, 4)
    with pytest.raises(ValueError):
        demo_s1_operators(c.gens, c.families)
    with pytest.raises(ValueError):
        canonical_basis_s1(c.basis, c.gens, c.families, 2)
