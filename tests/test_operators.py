import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from su2ladders.fock import enumerate_sector
from su2ladders.operators import (BasisMismatchError, EmptyInteriorError,
                                  SparseOperator, annihilation_op,
                                  commutator, commutator_residual,
                                  creation_op, number_op, residual)


@pytest.fixture(scope="module")
def basis():
    return enumerate_sector(1, 3)


def test_creation_amplitudes(basis):
    ad0 = creation_op(basis, 0)
    assert ad0.entry((0, 1, 0), (0, 0, 0)) == pytest.approx(1.0)
    a0 = annihilation_op(basis, 0)
    assert a0.entry((0, 1, 0), (0, 2, 0)) == pytest.approx(math.sqrt(2))


def test_annihilate_vacuum(basis):
    vac = basis.unit_vector((0, 0, 0))
    for mu in (-1, 0, 1):
        assert np.linalg.norm(annihilation_op(basis, mu).apply(vac)) == 0.0


def test_annihilation_is_adjoint_of_creation(basis):
    for mu in (-1, 0, 1):
        diff = annihilation_op(basis, mu) - creation_op(basis, mu).adjoint()
        assert diff.is_zero()


def test_adjoint_involution_exact(basis):
    x = creation_op(basis, 0) @ annihilation_op(basis, 1)
    twice = x.adjoint().adjoint()
    assert (twice - x).is_zero()
    assert np.array_equal(twice.matrix.toarray(), x.matrix.toarray())


def test_invalid_mode_weight(basis):
    with pytest.raises(ValueError):
        creation_op(basis, 2)


def test_commutator_with_self_is_empty(basis):
    x = creation_op(basis, 0)
    assert commutator(x, x).is_zero()
    assert commutator(x, x).nnz == 0


def test_weyl_commutator_on_interior(basis):
    ident = SparseOperator.identity(basis)
    for mu in (-1, 0, 1):
        c = commutator(annihilation_op(basis, mu), creation_op(basis, mu))
        assert residual(c, ident, 1).frobenius_relative < 1e-14


def test_cross_mode_commutator_vanishes(basis):
    c = commutator(annihilation_op(basis, -1), creation_op(basis, 1))
    assert residual(c, SparseOperator.zeros(basis), 1).frobenius_absolute \
        < 1e-14


def test_truncation_boundary_artifact():
    # Single mode, n_max = 2: the boundary row turns [a, a+] into
    # diag(1, 1, -2), so against the identity the margin-0 residual is
    # exactly 3 = |(-2) - 1| while margin 1 clears it.
    basis = enumerate_sector(0, 2)
    c = commutator(annihilation_op(basis, 0), creation_op(basis, 0))
    ident = SparseOperator.identity(basis)
    rep0 = residual(c, ident, 0)
    assert rep0.frobenius_absolute == pytest.approx(3.0)
    assert rep0.frobenius_relative == pytest.approx(3.0 / math.sqrt(6))
    assert residual(c, ident, 1).frobenius_absolute == pytest.approx(0.0)


def test_residual_self_is_zero(basis):
    x = creation_op(basis, 0)
    for margin in (0, 1, 2):
        rep = residual(x, x, margin)
        assert rep.frobenius_absolute == 0.0
        assert rep.frobenius_relative == 0.0
        assert rep.interior_margin == margin


def test_margin_validation(basis):
    x = creation_op(basis, 0)
    with pytest.raises(ValueError):
        residual(x, x, -1)
    with pytest.raises(EmptyInteriorError):
        residual(x, x, basis.n_max + 1)


def test_basis_mismatch_rejected():
    a = creation_op(enumerate_sector(1, 2), 0)
    b = creation_op(enumerate_sector(1, 3), 0)
    with pytest.raises(BasisMismatchError):
        commutator(a, b)


def test_budget_tracking(basis):
    ad = creation_op(basis, 0)
    a = annihilation_op(basis, 0)
    assert ad.particle_budget == 1
    assert (ad @ a).particle_budget == 2
    assert commutator(ad, a).particle_budget == 2
    assert (ad + a).particle_budget == 1
    assert number_op(basis, 0).particle_budget == 0


def _random_operator(basis, seed):
    rng = np.random.default_rng(seed)
    dim = len(basis)
    mat = sparse.random(dim, dim, density=0.1, random_state=rng,
                        dtype=float).tocsr().astype(complex)
    return SparseOperator(basis, mat, 0)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-5, 5, allow_nan=False),
       beta=st.floats(-5, 5, allow_nan=False),
       seed=st.integers(0, 1000))
def test_commutator_bilinearity(alpha, beta, seed):
    basis = enumerate_sector(1, 2)
    x = _random_operator(basis, seed)
    y = _random_operator(basis, seed + 1)
    z = _random_operator(basis, seed + 2)
    lhs = commutator(x, alpha * y + beta * z)
    rhs = alpha * commutator(x, y) + beta * commutator(x, z)
    scale = max(lhs.norm(), rhs.norm(), 1.0)
    assert (lhs - rhs).norm() <= 1e-12 * scale


def test_jacobi_identity_su2():
    from su2ladders.schwinger import su2_generators
    gens = su2_generators(enumerate_sector(1, 4))
    x, y, z = gens.Jz, gens.Jplus, gens.Jminus
    total = (commutator(x, commutator(y, z))
             + commutator(y, commutator(z, x))
             + commutator(z, commutator(x, y)))
    scale = x.norm() * y.norm() * z.norm()
    assert total.norm() / scale < 1e-12


def test_commutator_residual_normalization(basis):
    n0 = number_op(basis, 0)
    n1 = number_op(basis, 1)
    rep = commutator_residual(n0, n1, 0)
    assert rep.frobenius_absolute == 0.0
    assert rep.frobenius_relative == 0.0


def test_apply_matches_matrix(basis):
    ad0 = creation_op(basis, 0)
    vec = basis.unit_vector((0, 1, 0))
    out = ad0.apply(vec)
    i = basis.state_index((0, 2, 0))
    assert out[i] == pytest.approx(math.sqrt(2))
    assert np.linalg.norm(out) == pytest.approx(math.sqrt(2))


def test_coo_json_row_major(basis):
    op = creation_op(basis, 0)
    dump = op.to_coo_json()
    assert dump["dim"] == len(basis)
    assert dump["rows"] == dump["cols"] == len(basis)
    coords = [(e[0], e[1]) for e in dump["entries"]]
    assert coords == sorted(coords)
    rebuilt = sparse.coo_matrix(
        ([complex(re, im) for _, _, re, im in dump["entries"]],
         ([e[0] for e in dump["entries"]], [e[1] for e in dump["entries"]])),
        shape=(dump["dim"], dump["dim"])).tocsr()
    assert (op.matrix - rebuilt).nnz == 0


def test_coo_json_complex_entries(basis):
    op = 1j * creation_op(basis, 0)
    for row, col, re, im in op.to_coo_json()["entries"]:
        assert re == 0.0 and im == pytest.approx(
            creation_op(basis, 0).matrix[row, col])


def test_real_operators_are_float64(basis):
    ops = [creation_op(basis, 1), annihilation_op(basis, -1),
           number_op(basis, 0), SparseOperator.zeros(basis), SparseOperator.identity(basis),
           SparseOperator.diagonal(basis, basis.totals)]
    assert all(op.matrix.dtype == np.float64 for op in ops)
    vac = basis.unit_vector((0, 0, 0))
    assert vac.dtype == np.float64
    assert creation_op(basis, 0).apply(vac).dtype == np.float64


def test_dtype_follows_data(basis):
    ad = creation_op(basis, 0)
    assert (2.0 * ad).matrix.dtype == np.float64
    assert (ad * Fraction(1, 3)).matrix.dtype == np.float64
    scaled = ad * 2j
    assert scaled.matrix.dtype == np.complex128
    assert np.array_equal(scaled.matrix.toarray(), 2j * ad.matrix.toarray())
    # A complex matrix with zero imaginary part is stored real.
    stored = SparseOperator(basis, ad.matrix.astype(complex))
    assert stored.matrix.dtype == np.float64
    n0 = number_op(basis, 0)
    for mixed in (ad + 1j * n0, ad @ (1j * n0), commutator(ad, 1j * n0)):
        assert mixed.matrix.dtype == np.complex128
    assert (1j * ad).apply(basis.unit_vector((0, 0, 0))).dtype == np.complex128


def test_weight_restricted_residual(basis):
    # A weight-changing operator has no weight-0 -> weight-0 matrix elements.
    jp_like = creation_op(basis, 1) @ annihilation_op(basis, 0)
    rep = residual(jp_like, SparseOperator.zeros(basis), 1, col_weight=0)
    assert rep.frobenius_absolute > 0.1  # columns exist, rows elsewhere
    n0 = number_op(basis, 0)
    rep0 = residual(n0, n0, 1, col_weight=0)
    assert rep0.frobenius_absolute == 0.0
