import ast
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from su2ladders.fock import SectorBasis, enumerate_sector
from su2ladders.operators import (BasisMismatchError, EmptyInteriorError,
                                  SectorBlocks, SectorStructureError,
                                  SparseOperator, annihilation_op,
                                  commutator, commutator_on_columns,
                                  commutator_residual, creation_op,
                                  number_op, on_columns, residual,
                                  sector_blocks, zero_residual)
from su2ladders.schwinger import WeightLeakError, su2_generators


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


def _random_operator(basis, seed):
    rng = np.random.default_rng(seed)
    dim = len(basis)
    mat = sparse.random(dim, dim, density=0.1, random_state=rng,
                        dtype=float).tocsr().astype(complex)
    return SparseOperator(basis, mat)


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
    # The weight-0 view refuses a weight-changing operator: its weight-0
    # columns have entries only in rows of another weight.
    w0 = su2_generators(basis).weight0()
    jp_like = creation_op(basis, 1) @ annihilation_op(basis, 0)
    with pytest.raises(WeightLeakError):
        w0.of(jp_like)
    n0 = w0.of(number_op(basis, 0))
    assert residual(n0, n0, 1).frobenius_absolute == 0.0


def _creation_per_state(basis, mu):
    """Reference a_mu^dagger, one Fock state at a time."""
    pos = basis.mode_position(mu)
    rows, cols, data = [], [], []
    for i, state in enumerate(basis.states):
        if sum(state) + 1 > basis.n_max:
            continue
        target = state[:pos] + (state[pos] + 1,) + state[pos + 1:]
        j = basis.index.get(target)
        if j is None:
            continue
        rows.append(j)
        cols.append(i)
        data.append(math.sqrt(state[pos] + 1))
    dim = len(basis)
    return sparse.coo_matrix((data, (rows, cols)), shape=(dim, dim),
                             dtype=float).tocsr()


@pytest.mark.parametrize("spin", range(0, 4))
@pytest.mark.parametrize("n_max", range(0, 5))
def test_creation_op_equals_per_state_reference(spin, n_max):
    # Bit-identical matrices, on the full basis and on constrained ones.
    for n, weight in ((None, None), (n_max, None), (None, 0), (None, 1)):
        basis = SectorBasis(spin, n_max, n=n, weight=weight)
        for mu in range(-spin, spin + 1):
            got = creation_op(basis, mu).matrix
            want = _creation_per_state(basis, mu)
            want.sort_indices()
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def test_entry_is_complex_inside_and_outside_the_basis(basis):
    ad0 = creation_op(basis, 0)
    inside = ad0.entry((0, 1, 0), (0, 0, 0))
    zero = ad0.entry((0, 0, 0), (0, 0, 0))
    outside = ad0.entry((0, 4, 0), (0, 3, 0))  # total 4 > n_max = 3
    assert [type(v) for v in (inside, zero, outside)] == [complex] * 3
    assert (inside, zero, outside) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda x, m: residual(x, x, m),
    lambda x, m: commutator_residual(x, x, m),
    lambda x, m: zero_residual(x, m),
    lambda x, m: on_columns(x, m),
    lambda x, m: commutator_on_columns(x, x, m),
])
def test_restriction_errors_raise_on_every_call(call):
    basis = enumerate_sector(1, 3)
    x = number_op(basis, 0)
    # Three particles exactly: no state lies at or below n_max - 1.
    level = number_op(enumerate_sector(1, 3, n=3), 0)
    for _ in range(2):
        call(x, 1)  # a cached restriction does not mask the checks
        with pytest.raises(ValueError):
            call(x, -1)
        with pytest.raises(EmptyInteriorError):
            call(x, basis.n_max + 1)
        with pytest.raises(EmptyInteriorError):
            call(level, 1)


def test_cached_masks_and_raise_tables_are_read_only():
    basis = enumerate_sector(1, 3)
    for margin in (0, 1, basis.n_max):
        mask = basis.interior_masks(margin)
        assert basis.interior_masks(margin) is mask
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
    for pos in range(basis.modes):
        table = basis.raised(pos)
        assert basis.raised(pos) is table
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("spin,n_max,n,weight", [
    (2, 4, None, None), (1, 3, None, None), (2, 4, 3, None),
    (2, 4, None, 1), (2, 4, 2, 0)])
def test_raise_table_entries_index_the_raised_states(spin, n_max, n, weight):
    # Entry c of mode pos's table is the index of state c with one more
    # boson in mode pos, or -1 where that state is not in the basis: at
    # n_max, and everywhere on an n or weight sector.
    basis = SectorBasis(spin, n_max, n=n, weight=weight)
    for pos in range(basis.modes):
        want = []
        for state in basis.states:
            raised = state[:pos] + (state[pos] + 1,) + state[pos + 1:]
            index = basis.state_index(raised)
            want.append(-1 if index is None else index)
        table = basis.raised(pos)
        assert table.dtype == np.int32 and table.tolist() == want
        if n is None and weight is None:
            assert ((table >= 0) == (basis.totals < n_max)).all()


# -- whole-space sector blocks ----------------------------------------------------


def test_sector_table_groups_the_states_by_n_and_weight():
    basis = enumerate_sector(2, 4)
    table = basis.sector_table()
    assert basis.sector_table() is table
    keys = sorted({(int(n), int(w)) for n, w in zip(basis.totals, basis.weights)})
    assert list(table.keys) == keys
    for k, (key, idx) in enumerate(zip(table.keys, table.members)):
        assert np.array_equal(idx, np.flatnonzero(
            (basis.totals == key[0]) & (basis.weights == key[1])))
        assert table.sizes[k] == len(idx)
        assert np.array_equal(table.sector[idx], np.full(len(idx), k))
        assert np.array_equal(table.local[idx], np.arange(len(idx)))
    for a in (table.sizes, table.sector, table.local) + table.members:
        assert not a.flags.writeable


def test_jplus_blocks_send_each_sector_into_the_next_weight():
    basis = enumerate_sector(2, 4)
    jplus = su2_generators(basis).Jplus
    m = jplus.matrix.tocoo()
    blocks = SectorBlocks.from_entries(basis, m.row, m.col, m.data)
    table = basis.sector_table()
    keys, sizes = table.keys, table.sizes
    assert sorted(blocks.blocks) == [
        k for k, (n, w) in enumerate(keys) if n > 0 and (n, w + 1) in keys]
    for k, (t, block) in blocks.blocks.items():
        n, w = keys[k]
        assert keys[t] == (n, w + 1)
        assert block.shape == (sizes[t], sizes[k])
    assert blocks.to_coo_json() == jplus.to_coo_json()


def test_jplus_plus_jminus_has_no_sector_blocks():
    # J_+ + J_- sends (1, -1) into (1, 0) and into (1, -2); the refusal names
    # a state sent into each, and both are entries of the operator.
    basis = enumerate_sector(2, 4)
    gens = su2_generators(basis)
    both = (gens.Jplus + gens.Jminus).matrix
    m = both.tocoo()
    with pytest.raises(SectorStructureError) as err:
        SectorBlocks.from_entries(basis, m.row, m.col, m.data)
    found = re.fullmatch(
        r"operator sends sector \(1, -1\) into sectors \(1, -2\) and "
        r"\(1, 0\): state (\(.*?\)) to (\(.*?\)), and (\(.*?\)) to "
        r"(\(.*?\))", str(err.value))
    assert found
    source, low, other, high = (basis.state_index(ast.literal_eval(g))
                                for g in found.groups())
    for col, row, weight in ((source, low, -2), (other, high, 0)):
        assert basis.totals[col] == 1 and basis.weights[col] == -1
        assert basis.weights[row] == weight
        assert both[row, col] != 0


def test_weight0_view_refuses_whole_space_blocks_that_leave_weight_0():
    basis = enumerate_sector(2, 4)
    gens = su2_generators(basis)
    w0 = gens.weight0()
    for op in (sector_blocks(gens.Jplus),
               gens.function_of_j(lambda j: j + 1.0) @ sector_blocks(gens.Jminus)):
        with pytest.raises(WeightLeakError, match="weight-0 state"):
            w0.of(op)
    assert not w0.of(sector_blocks(gens.Jplus @ gens.Jminus)).is_zero()


def test_sector_blocks_subtract_as_the_sum_with_the_negation():
    # x - y is formed block by block, with no negated copy of y, and IEEE
    # a - b = a + (-b) makes it x + (-1.0 * y) array for array: on the
    # blocks both hold and on the blocks only one of them holds.
    basis = enumerate_sector(2, 4)
    gens = su2_generators(basis)
    a = gens.function_of_j(lambda j: 1.0 / (j + 1))
    b = gens.function_of_j(lambda j: 1j * j - 0.5)
    x = SectorBlocks(basis, {k: v for k, v in a.blocks.items() if k % 2 == 0})
    y = SectorBlocks(basis, {k: v for k, v in b.blocks.items() if k % 3 == 0})
    assert y.blocks.keys() - x.blocks.keys() and x.blocks.keys() - y.blocks.keys()
    for left, right in ((x, y), (y, x), (x, a), (a, x), (x, x)):
        got, want = left - right, left + (-1.0 * right)
        assert got.blocks.keys() == want.blocks.keys()
        for k, (t, block) in want.blocks.items():
            assert got.blocks[k][0] == t
            assert got.blocks[k][1].dtype == block.dtype
            assert np.array_equal(got.blocks[k][1], block), k
    assert (x - x).is_zero()
    with pytest.raises(SectorStructureError):
        sector_blocks(gens.Jplus) - sector_blocks(gens.Jminus)


def _scattered(op):
    """The SparseOperator with the entries of a SectorBlocks, its blocks
    written into a dense matrix; CSR keeps its nonzero entries only."""
    members = op.basis.sector_table().members
    dense = np.zeros((len(op.basis), len(op.basis)),
                     dtype=np.result_type(float, *(b for _t, b
                                                   in op.blocks.values())))
    for k, (t, block) in op.blocks.items():
        dense[np.ix_(members[t], members[k])] = block
    return SparseOperator(op.basis, sparse.csr_matrix(dense))


def test_sector_blocks_export_apply_and_count_as_their_sparse_form():
    basis = enumerate_sector(2, 4)
    gens = su2_generators(basis)
    rng = np.random.default_rng(3)
    real = rng.standard_normal(len(basis))
    cplx = real + 1j * rng.standard_normal(len(basis))
    # J_+ and a_0^dagger hold exact zeros inside their dense blocks.
    ops = [sector_blocks(gens.Jplus), sector_blocks(creation_op(basis, 0)),
           gens.j_hat(), gens.function_of_j(lambda j: 1j * j - 0.5),
           gens.sum_times_functions_of_j(
               [(creation_op(basis, 0), lambda j: 1.0 / (j + 1))])]
    assert all(any((b == 0).any() for _t, b in op.blocks.values())
               for op in ops[:2])
    for op in ops:
        want = _scattered(op)
        assert op.to_coo_json() == want.to_coo_json()
        assert op.nnz == want.nnz
        for vector in (real, cplx):
            got = op.apply(vector)
            assert got.dtype == want.apply(vector).dtype
            assert np.array_equal(got, want.apply(vector))
