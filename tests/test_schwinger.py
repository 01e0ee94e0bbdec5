import copy
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from su2ladders import bruteforce
from su2ladders.casimir import build_families, build_taus
from su2ladders.fock import enumerate_sector
from su2ladders.jpoly import JPoly
from su2ladders.ladder import (build_alpha, right_function_poly,
                               right_functions, solve_sigma)
from su2ladders.operators import (BasisMismatchError, SectorBlocks,
                                  SparseOperator, commutator,
                                  commutator_residual, creation_op, residual)
from su2ladders.schwinger import (NonHermitianError, SectorStructureError,
                                  SpectralDecomposition, SpectralFunctionError,
                                  SpectrumSnapError, Su2Generators,
                                  WeightLeakError, _evaluate, _phase_fixed,
                                  _snap_labels, jordan_schwinger, jz_kernel,
                                  su2_generators)
from su2ladders.verify import SuiteConfig, run_suite

from conftest import whole_csr


def spectral_function(op, f):
    """Per-eigenvalue reference f(H): f(key, lam) at every eigenvalue lam of
    every (n, weight) sector, assembled on the sector eigenvectors."""
    decomp = SpectralDecomposition.of(op)
    return decomp.assemble([
        np.array([_evaluate(f, (key, lam), key, lam) for lam in vals.tolist()])
        for key, _idx, vals, _vecs in decomp.sectors])


def test_identity_maps_to_total_number(ctx):
    c = ctx(1, 3)
    n_op = jordan_schwinger(c.basis, np.eye(3))
    v = c.basis.unit_vector((1, 0, 1))
    assert np.allclose(n_op.apply(v), 2.0 * v)
    assert residual(n_op, c.gens.Ntot, 0).frobenius_relative < 1e-14


def test_diagonal_matrix_gives_weight_operator(ctx):
    c = ctx(1, 3)
    jz = jordan_schwinger(c.basis, np.diag([-1.0, 0.0, 1.0]))
    v = c.basis.unit_vector((1, 0, 1))
    assert np.linalg.norm(jz.apply(v)) == pytest.approx(0.0)
    assert residual(jz, c.gens.Jz, 0).frobenius_relative < 1e-14


def test_homomorphism_random_hermitian(ctx):
    # Oracle: the matrix commutator is computed independently with dense
    # numpy, then mapped; the image commutator must match to 1e-12.
    c = ctx(1, 3)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = 0.5 * (x + x.conj().T)
        y = 0.5 * (y + y.conj().T)
        lhs = commutator(jordan_schwinger(c.basis, x),
                         jordan_schwinger(c.basis, y))
        rhs = jordan_schwinger(c.basis, x @ y - y @ x)
        assert residual(lhs, rhs, 0).frobenius_relative < 1e-12


def test_complex_hermitian_image_is_complex(ctx):
    c = ctx(1, 3)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x, y = x + x.conj().T, y + y.conj().T
    jx, jy = jordan_schwinger(c.basis, x), jordan_schwinger(c.basis, y)
    assert jx.matrix.dtype == jy.matrix.dtype == np.complex128
    rhs = jordan_schwinger(c.basis, x @ y - y @ x)
    assert residual(commutator(jx, jy), rhs, 0).frobenius_relative < 1e-12


def test_jordan_schwinger_dimension_mismatch(ctx):
    c = ctx(1, 3)
    with pytest.raises(ValueError):
        jordan_schwinger(c.basis, np.eye(4))


def test_spin_zero_rejected():
    with pytest.raises(ValueError):
        su2_generators(enumerate_sector(0, 3))


def test_raising_amplitude(ctx):
    c = ctx(1, 3)
    v = c.basis.unit_vector((0, 1, 0))
    out = c.gens.Jplus.apply(v)
    i = c.basis.state_index((0, 0, 1))
    assert out[i] == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("spin", [1, 2, 3])
def test_su2_relations(ctx, spin):
    g = ctx(spin, 4).gens
    assert residual(commutator(g.Jz, g.Jplus), g.Jplus, 0
                    ).frobenius_relative < 1e-12
    assert residual(commutator(g.Jz, g.Jminus), -1.0 * g.Jminus, 0
                    ).frobenius_relative < 1e-12
    assert residual(commutator(g.Jplus, g.Jminus), 2.0 * g.Jz, 0
                    ).frobenius_relative < 1e-12


@pytest.mark.parametrize("spin", [1, 2])
def test_centrality(ctx, spin):
    g = ctx(spin, 4).gens
    for a, b in [(g.Ntot, g.Jz), (g.Ntot, g.Jplus), (g.J2, g.Jz),
                 (g.J2, g.Jplus), (g.J2, g.Ntot)]:
        assert commutator_residual(a, b, 0).frobenius_relative < 1e-12
    # The number operator commutes with the generators exactly: both are
    # weight- and number-conserving sparse patterns.
    assert commutator(g.Ntot, g.Jz).is_zero()
    assert commutator(g.Ntot, g.Jplus).nnz == 0


def test_jminus_is_exact_adjoint(ctx):
    g = ctx(2, 3).gens
    assert (g.Jminus - g.Jplus.adjoint()).is_zero()


def test_hermiticity_exact(ctx):
    g = ctx(1, 4).gens
    for op in (g.Jz, g.J2, g.Ntot, g.j_hat()):
        assert residual(op, op.adjoint(), 0).frobenius_absolute == 0.0


def test_single_particle_casimir(ctx):
    c = ctx(1, 3)
    v = c.basis.unit_vector((0, 1, 0))
    assert np.allclose(c.gens.J2.apply(v), 2.0 * v)


def test_spectral_identity_reassembles(ctx):
    g = ctx(1, 3).gens
    re = spectral_function(g.J2, lambda key, x: x)
    assert residual(whole_csr(re), g.J2, 0).frobenius_relative < 1e-10


def test_spectral_square_matches_product(ctx):
    g = ctx(1, 3).gens
    sq = spectral_function(g.Jz, lambda key, x: x * x)
    assert residual(whole_csr(sq), g.Jz @ g.Jz, 0).frobenius_relative < 1e-10


def test_spectral_commutes_with_source(ctx):
    g = ctx(2, 3).gens
    f = spectral_function(g.J2, lambda key, x: 1.0 / (1.0 + x))
    assert commutator_residual(whole_csr(f), g.J2, 0).frobenius_relative < 1e-10


def test_spectral_j_values_n2_sector(ctx):
    c = ctx(1, 4)
    decomp = SpectralDecomposition.of(c.gens.J2)
    by_sector = {key: vals for key, idx, vals, vecs in decomp.sectors}
    vals = by_sector[(2, 0)]
    js = sorted(0.5 * (math.sqrt(1 + 4 * v) - 1) for v in vals)
    assert js == pytest.approx([0.0, 2.0], abs=1e-9)


def test_spectral_rejects_non_hermitian(ctx):
    c = ctx(1, 2)
    from su2ladders.operators import creation_op
    with pytest.raises(NonHermitianError):
        spectral_function(creation_op(c.basis, 0), lambda key, x: x)


def test_spectral_rejects_a_nan_entry_as_non_hermitian(ctx):
    # A NaN gap is not within the hermiticity gate.
    c = ctx(1, 3)
    matrix = c.gens.J2.matrix.copy()
    matrix.data[-1] = math.nan
    with pytest.raises(NonHermitianError, match="nan"):
        SpectralDecomposition.of(SparseOperator(c.basis, matrix))


def test_a_nan_eigenvalue_does_not_snap():
    # j(j+1) = 2 snaps to j = 1 on (1, 0) at spin 1; a NaN beside it
    # snaps to no label.
    assert _snap_labels(np.array([2.0]), (1, 0), 1).tolist() == [1]
    with pytest.raises(SpectrumSnapError, match="nan"):
        _snap_labels(np.array([2.0, math.nan]), (1, 0), 1)


def test_spectral_rejects_sector_coupling(ctx):
    c = ctx(1, 2)
    from su2ladders.operators import annihilation_op, creation_op
    coupler = creation_op(c.basis, 0) + annihilation_op(c.basis, 0)
    with pytest.raises(SectorStructureError):
        spectral_function(coupler, lambda key, x: x)


def test_spectral_pole_names_sector(ctx):
    g = ctx(1, 2).gens
    with pytest.raises(SpectralFunctionError) as err:
        # 1/x has a pole at the vacuum eigenvalue of J^2.
        spectral_function(g.J2, lambda key, x: 1.0 / x if abs(x) > 1e-12
                          else 1.0 / 0.0)
    assert err.value.sector == (0, 0)


def test_j_hat_values(ctx):
    c = ctx(1, 4)
    jh = c.gens.j_hat()
    vac = c.basis.unit_vector((0, 0, 0))
    assert np.linalg.norm(jh.apply(vac)) == pytest.approx(0.0, abs=1e-12)
    one = c.basis.unit_vector((0, 1, 0))
    assert np.allclose(jh.apply(one), one, atol=1e-10)


def test_j_hat_defining_identity(ctx):
    for spin in (1, 2):
        g = ctx(spin, 4).gens
        jh = whole_csr(g.j_hat())
        assert residual(jh @ jh + jh, g.J2, 0).frobenius_relative < 1e-10


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 4), (3, 5)])
def test_j_spectrum_integers(ctx, spin, n_max):
    g = ctx(spin, n_max).gens
    for (n, w), js in g.j_values_by_sector().items():
        for j in js:
            label = round(float(j))
            assert abs(j - label) < 1e-9
            assert 0 <= label <= n * spin


def test_kernel_s1_one_particle(ctx):
    c = ctx(1, 4)
    kvs = jz_kernel(c.basis, c.gens, 1)
    assert len(kvs) == 1 and kvs[0].j == 1
    i = c.basis.state_index((0, 1, 0))
    assert abs(kvs[0].vector[i]) == pytest.approx(1.0)


def test_kernel_s1_two_particles(ctx):
    kvs = jz_kernel(ctx(1, 4).basis, ctx(1, 4).gens, 2)
    assert [kv.j for kv in kvs] == [0, 2]


def test_kernel_s2_two_particles_oracle(ctx):
    c = ctx(2, 4)
    kvs = jz_kernel(c.basis, c.gens, 2)
    assert sorted(kv.j for kv in kvs) == [0, 2, 4]
    assert bruteforce.j_multiplicities(2, 2) == {0: 1, 2: 1, 4: 1}


@pytest.mark.parametrize("n", range(6))
def test_kernel_dimension_s1(ctx, n):
    c = ctx(1, 6)
    assert len(jz_kernel(c.basis, c.gens, n)) == n // 2 + 1


def test_kernel_orthonormal_and_deterministic(ctx):
    c = ctx(2, 4)
    kvs = jz_kernel(c.basis, c.gens, 4)
    mat = np.array([kv.vector for kv in kvs])
    gram = mat.conj() @ mat.T
    assert np.max(np.abs(gram - np.eye(len(kvs)))) < 1e-12
    again = jz_kernel(c.basis, c.gens, 4)
    for a, b in zip(kvs, again):
        assert a.j == b.j
        assert np.array_equal(a.vector, b.vector)


def test_kernel_phase_convention(ctx):
    c = ctx(2, 4)
    for kv in jz_kernel(c.basis, c.gens, 3):
        lead = kv.vector[np.flatnonzero(
            np.abs(kv.vector) > 1e-8 * np.max(np.abs(kv.vector)))[0]]
        assert lead.real > 0
        assert abs(lead.imag) < 1e-12


def test_decomposition_sector_orthonormality(ctx):
    g = ctx(2, 4).gens
    for key, idx, vals, vecs in g.j2_decomposition().sectors:
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-12


def _float_j(lam):
    return 0.5 * (math.sqrt(max(1.0 + 4.0 * lam, 0.0)) - 1.0)


@pytest.mark.parametrize("spin,n_max", [(2, 4), (3, 4)])
def test_function_of_j_matches_generic_path(ctx, spin, n_max):
    g = ctx(spin, n_max).gens
    poly = right_function_poly(1) * JPoly.from_coeffs([Fraction(1, 3), 2])
    for f in (poly, lambda j: 1.0 / (2.0 * j + 1.0)):
        # Reference: the per-eigenvalue path, with f at each float j.
        ref = spectral_function(g.J2, lambda key, lam: f(_float_j(lam)))
        assert residual(g.function_of_j(f), ref, 0).frobenius_relative < 1e-12


@pytest.mark.parametrize("spin,n_max", [(2, 4), (3, 4)])
def test_function_of_nj_matches_generic_path(ctx, spin, n_max):
    g = ctx(spin, n_max).gens

    def f(n, j):
        return math.sqrt(n + j + 1.0) / (2.0 * j + 3.0)

    ref = spectral_function(g.J2, lambda key, lam: f(key[0], _float_j(lam)))
    assert residual(g.function_of_nj(f), ref, 0).frobenius_relative < 1e-12


def test_function_of_j_calls_once_per_integer_label(ctx):
    g = ctx(2, 4).gens
    labels = {int(round(j)) for js in g.j_values_by_sector().values() for j in js}
    pairs = {(n, int(round(j))) for (n, _w), js in g.j_values_by_sector().items()
             for j in js}
    seen = []
    g.function_of_j(lambda j: seen.append(j) or 1.0)
    assert sorted(seen) == sorted(labels)
    assert all(type(j) is int for j in seen)
    seen_nj = []
    g.function_of_nj(lambda n, j: seen_nj.append((n, j)) or 1.0)
    assert sorted(seen_nj) == sorted(pairs)


def test_function_of_j_pole_names_a_sector_holding_the_label(ctx):
    g = ctx(1, 4).gens
    with pytest.raises(SpectralFunctionError) as err:
        g.function_of_j(lambda j: 1.0 / (j - 1))
    js = g.j_values_by_sector()[err.value.sector]
    assert np.any(np.abs(js - 1.0) < 1e-9)
    assert err.value.eigenvalue == pytest.approx(2.0)


@pytest.mark.parametrize("consumer,damaged", [
    (lambda g: g.function_of_j(lambda j: j), "J2"),
    (lambda g: g.j_hat(), "J2"),
    (lambda g: jz_kernel(g.basis, g, 2), "Jplus"),
    (lambda g: build_taus(build_families(g.basis, g), g, certify=False),
     "Jplus"),
    (lambda g: g.weight0(), "Jplus"),
], ids=["function_of_j", "j_hat", "jz_kernel", "build_taus", "weight0"])
def test_function_of_j_rejects_unsnappable_spectrum(consumer, damaged):
    # Every reader of the J^2 labels must refuse a damaged J^2, on every
    # call: a failed build is kept with its exception and raised again,
    # never replaced by a value.  The weight-0
    # readers form their J^2 from J_+ and J_-, so J_+ is damaged for them:
    # both J^2s scale by 1 + 1e-3.
    g = su2_generators(enumerate_sector(1, 3))
    setattr(g, damaged, getattr(g, damaged) * (1.0 + 1e-3))
    for _ in range(2):
        with pytest.raises(SpectrumSnapError):
            consumer(g)


def test_real_stack_is_float64(ctx):
    c = ctx(2, 4)
    g = c.gens
    ops = [g.Jz, g.Jplus, g.Jminus, g.J2, g.Ntot, g.j_hat()]
    ops += list(c.families.p_ops) + list(c.families.m_ops)
    ops += [tau.op for tau in c.taus.values()]
    assert all(op.matrix.dtype == np.float64 if isinstance(op, SparseOperator)
               else all(b.dtype == np.float64 for _t, b in op.blocks.values())
               for op in ops)
    kvs = [kv for n in range(c.basis.n_max + 1)
           for kv in jz_kernel(c.basis, g, n)]
    assert kvs and all(kv.vector.dtype == np.float64 for kv in kvs)


def test_function_of_j_with_complex_values(ctx):
    g = ctx(2, 4).gens
    img = g.function_of_j(lambda j: 1j * j)
    assert all(b.dtype == np.complex128 for _t, b in img.blocks.values())
    assert (img - 1j * g.j_hat()).norm() < 1e-12 * g.j_hat().norm()


@pytest.mark.parametrize("n", range(5))
def test_kernel_vectors_are_the_decomposition_eigenvectors(ctx, n):
    c = ctx(2, 4)
    sector = {key: (idx, vecs) for key, idx, _vals, vecs
              in c.gens.j2_decomposition().sectors}[(n, 0)]
    idx, vecs = sector
    expected = []
    for k in range(vecs.shape[1]):
        full = np.zeros(len(c.basis), dtype=vecs.dtype)
        full[idx] = vecs[:, k]
        expected.append(_phase_fixed(full))
    kvs = jz_kernel(c.basis, c.gens, n)
    assert len(kvs) == len(expected)
    for kv in kvs:
        assert sum(np.array_equal(kv.vector, e) for e in expected) == 1


def _nodes_by_the_per_vector_sort(labels, vecs):
    """A level's nodes as one phase fix per vector and one ``sorted`` over
    per-node tuples: the reference for ``Weight0View.nodes``."""
    def phase_fixed(vec):
        amax = np.max(np.abs(vec))
        if amax == 0:
            return vec
        lead = vec[np.flatnonzero(np.abs(vec) > 1e-8 * amax)[0]]
        return vec / (lead / abs(lead))
    fixed = [phase_fixed(v) for v in vecs.T]
    order = sorted(range(len(labels)), key=lambda k: (
        labels[k], tuple(np.round(fixed[k].real, 10))
        + tuple(np.round(fixed[k].imag, 10))))
    return labels[order], np.array([fixed[k] for k in order]).T


@pytest.mark.parametrize("rotated", [False, True])
def test_weight0_nodes_equal_the_per_vector_sort(ctx, rotated):
    # Level 4 at (2, 4) has two two-dimensional nodes, so the order within a
    # label is decided by the coordinates.  Rotated: each node's
    # eigenvectors mixed by a seeded orthogonal matrix, so the signs the
    # phase fix flips and the coordinates the sort reads all change.  (J^2
    # is real, so the nodes are: a real vector's phase is +-1, and both
    # routes form the same floats.)
    c = ctx(2, 4)
    w0 = c.gens.weight0()
    n = 4
    decomposition = w0.decomposition
    key, positions, vals, vecs = decomposition.sectors[n]
    labels = decomposition.labels[n]
    assert (np.unique(labels, return_counts=True)[1] > 1).sum() == 2
    view = w0
    if rotated:
        rng = np.random.default_rng(7)
        vecs = vecs.copy()
        for j in np.unique(labels):
            cols = np.flatnonzero(labels == j)
            q = np.linalg.qr(rng.standard_normal((len(cols),) * 2))[0]
            vecs[:, cols] = vecs[:, cols] @ q
        sectors = list(decomposition.sectors)
        sectors[n] = (key, positions, vals, vecs)
        view = copy.copy(w0)
        view.decomposition = dataclasses.replace(decomposition,
                                                 sectors=sectors)
        assert not np.array_equal(view.nodes(n).vectors, w0.nodes(n).vectors)
    got = view.nodes(n)
    want_labels, want_vectors = _nodes_by_the_per_vector_sort(labels, vecs)
    assert np.array_equal(got.labels, want_labels)
    assert np.array_equal(got.vectors, want_vectors)
    assert got.vectors.flags.f_contiguous == want_vectors.flags.f_contiguous


# -- sums X_k f_k(j), sector by sector ---------------------------------------------


def test_sum_times_functions_of_j_equals_products(ctx):
    # Arbitrary sector maps (a raiser, a lowerer, a conserving operator) and
    # arbitrary right functions, real and complex.
    c = ctx(2, 4)
    g = c.gens
    cases = [
        [(c.families.p_ops[1], lambda j: j * j - 3), (c.families.p_ops[2], lambda j: 0.5)],
        [(c.families.m_ops[0].adjoint(), lambda j: 1.0 / (j + 1))],
        [(g.Jplus, lambda j: 2.0 * j), (g.Jplus @ g.J2, lambda j: -1.0)],
        [(g.J2, lambda j: 1j * j), (g.Ntot, lambda j: 1.0)],
    ]
    for terms in cases:
        ref = SparseOperator.zeros(c.basis)
        for op, f in terms:
            ref = ref + op @ whole_csr(g.function_of_j(f))
        got = whole_csr(g.sum_times_functions_of_j(terms))
        assert got.matrix.dtype == ref.matrix.dtype
        assert (got - ref).norm() <= 1e-14 * ref.norm()
    assert g.sum_times_functions_of_j([]).is_zero()


def test_sum_times_functions_of_j_pole_names_a_sector(ctx):
    g = ctx(1, 4).gens
    with pytest.raises(SpectralFunctionError) as err:
        g.sum_times_functions_of_j(
            [(g.Jplus, lambda j: 1.0), (g.Jplus @ g.J2, lambda j: 1.0 / (j - 1))])
    js = g.j_values_by_sector()[err.value.sector]
    assert np.any(np.abs(js - 1.0) < 1e-9)


def test_sum_times_functions_of_j_rejects_two_target_sectors(ctx):
    c = ctx(1, 4)
    g = c.gens
    # A raiser and a lowerer send each sector to (n + 1, w) and (n - 1, w).
    with pytest.raises(SectorStructureError):
        g.sum_times_functions_of_j(
            [(c.families.p_ops[0], lambda j: 1.0),
             (c.families.p_ops[0].adjoint(), lambda j: 1.0)])
    # So does one operator that mixes weights.
    with pytest.raises(SectorStructureError):
        g.sum_times_functions_of_j([(g.Jplus + g.Jminus, lambda j: 1.0)])


def _same_blocks(got, want):
    assert got.basis is want.basis
    assert got.blocks.keys() == want.blocks.keys()
    for n, (m, block) in want.blocks.items():
        assert got.blocks[n][0] == m
        assert got.blocks[n][1].dtype == block.dtype
        assert np.array_equal(got.blocks[n][1], block), n


def test_weight0_sum_times_functions_of_j_equals_the_restriction(ctx):
    # The same sector blocks, assembled on the (n, 0) sectors only, equal
    # the level blocks read from the whole-space sum's entries.
    c = ctx(2, 4)
    g = c.gens
    w0 = g.weight0()
    cases = [
        [(c.families.p_ops[1], lambda j: j * j - 3), (c.families.p_ops[2], lambda j: 0.5)],
        [(c.families.m_ops[0].adjoint(), lambda j: 1.0 / (j + 1))],
        [(g.J2, lambda j: 1j * j), (g.Ntot, lambda j: 1.0)],
    ]
    def on_weight0(terms):
        d = w0.decomposition
        return d.sum_times([w0.of(op) for op, _f in terms],
                           [[d.values(f) for _op, f in terms]])[0]
    for terms in cases:
        _same_blocks(on_weight0(terms),
                     w0.of(whole_csr(g.sum_times_functions_of_j(terms))))
    assert on_weight0([]).is_zero()
    with pytest.raises(WeightLeakError):
        on_weight0([(g.Jplus, lambda j: 1.0)])


@pytest.mark.parametrize("spin", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_max", [3, 4, 5])
def test_tau_weight0_equals_the_whole_space_restriction(spin, n_max):
    # Fresh objects: the whole-space taus are not kept past the test.
    basis = enumerate_sector(spin, n_max)
    gens = su2_generators(basis)
    w0 = gens.weight0()
    taus = build_taus(build_families(basis, gens), gens, certify=False)
    for theta, tau in taus.items():
        assert "op" not in vars(tau), theta
        _same_blocks(tau.weight0, w0.of(tau.op))


CONFIGS = [(1, 4), (2, 4), (3, 5), (4, 4)]


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_decomposition_blocks_equal_per_sector_extraction(ctx, spin, n_max):
    # Reference: group the states one by one, slice each sector's block out
    # of the sparse matrix, diagonalise it.  Same sectors, same ascending
    # index arrays, and bit-identical eigenpairs.
    g = ctx(spin, n_max).gens
    basis, mat = g.basis, g.J2.matrix
    keys = {}
    for i in range(len(basis)):
        keys.setdefault((int(basis.totals[i]), int(basis.weights[i])), []).append(i)
    sectors = g.j2_decomposition().sectors
    assert [key for key, *_ in sectors] == sorted(keys)
    for (key, idx, vals, vecs), want in zip(sectors, sorted(keys)):
        ref_idx = np.array(keys[want], dtype=np.int64)
        ref_vals, ref_vecs = np.linalg.eigh(mat[ref_idx][:, ref_idx].toarray())
        assert idx.dtype == np.int64 and np.array_equal(idx, ref_idx)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_label_values_are_f_at_each_label(ctx, spin, n_max):
    # On the whole-space decomposition and on the weight-0 view's, every
    # eigenvector of every sector gets exactly f at its label.
    g = ctx(spin, n_max).gens

    def f(j):
        return 1.0 / (2.0 * j + 3.0)

    whole, w0 = g.j2_decomposition(), g.weight0().decomposition
    for decomposition in (whole, w0):
        labels = decomposition.labels
        assert len(labels) == len(decomposition.sectors)
        for got, js in zip(decomposition.values(f), labels):
            assert got.dtype == np.float64
            assert np.array_equal(got, [f(int(j)) for j in js])
        pairs = decomposition.values(lambda n, j: n + 1j * j, with_n=True)
        for got, (key, *_), js in zip(pairs, decomposition.sectors, labels):
            assert np.array_equal(got, key[0] + 1j * js)
    # The view's levels are the whole space's (n, 0) sectors: the same
    # labels, so the same values.
    kept = [k for k, (key, *_) in enumerate(whole.sectors) if key[1] == 0]
    assert len(kept) == len(w0.sectors) == n_max + 1
    for n, k in enumerate(kept):
        assert w0.sectors[n][0] == whole.sectors[k][0] == (n, 0)
        assert np.array_equal(w0.labels[n], whole.labels[k])
        assert np.array_equal(w0.values(f)[n], whole.values(f)[k])


@pytest.mark.parametrize("spin", range(1, 8))
def test_jpoly_values_equal_the_general_path(spin):
    # Every sigma_k and right function, read from the label table by
    # integer Horner and one int / den, gives the floats of the general
    # path (float of the exact Fraction at each label) bit for bit.
    g = su2_generators(enumerate_sector(spin, 3))
    rfs = right_functions(spin)
    polys = [rf.poly for rf in rfs] + [
        poly for rf in rfs
        for poly in solve_sigma(build_alpha(spin, rf.family),
                                rf.theta).sigmas.values()]
    for decomposition in (g.j2_decomposition(), g.weight0().decomposition):
        for poly in polys:
            got = decomposition.values(poly)
            want = decomposition.values(lambda j, poly=poly: poly(j))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_each_weight0_sector_is_diagonalised_once(monkeypatch):
    # The whole-space decomposition, the one-pass read of J^2's sectors
    # (j2_sectors) and the weight-0 view share the (n, 0) eigenpairs: one
    # eigh per sector in a run_suite, and the same arrays in the view and
    # the pass; and whether the decomposition or the view is asked for
    # first, the decomposition takes the view's arrays.
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_sector_eigenpairs":
            calls.append(a.shape)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    read = {}
    j2_sectors = Su2Generators.j2_sectors

    def recording(self):
        for key, block, vals, vecs, labels in j2_sectors(self):
            if key[1] == 0:
                read[key] = (self.weight0().decomposition.sectors[key[0]],
                             vals, vecs)
            yield key, block, vals, vecs, labels
    monkeypatch.setattr(Su2Generators, "j2_sectors", recording)
    sectors = len(enumerate_sector(2, 4).sector_table().keys)
    assert run_suite(SuiteConfig(spins=[2], n_max=4)).overall_pass
    assert len(calls) == sectors
    assert len(read) == 5
    for (_key, _idx, w0_vals, w0_vecs), vals, vecs in read.values():
        assert w0_vals is vals and w0_vecs is vecs
    for whole_first in (True, False):
        calls.clear()
        g = su2_generators(enumerate_sector(2, 4))
        if whole_first:
            g.j2_decomposition()
        w0 = g.weight0()
        whole = {key: (vals, vecs) for key, _idx, vals, vecs
                 in g.j2_decomposition().sectors}
        assert len(calls) == sectors
        for key, _idx, vals, vecs in w0.decomposition.sectors:
            assert whole[key][0] is vals and whole[key][1] is vecs


def test_view_eigenpairs_are_taken_only_for_an_equal_block():
    # J^2 rotated on its (2, 0) sector after the weight-0 view exists: the
    # same spectrum, other eigenvectors.  The whole-space readers must not
    # take the view's eigenpairs there, as they do for every equal block.
    g = su2_generators(enumerate_sector(1, 4))
    w0 = g.weight0()
    idx = np.flatnonzero((g.basis.totals == 2) & (g.basis.weights == 0))
    rot = np.eye(len(g.basis))
    cs, sn = np.cos(0.3), np.sin(0.3)
    rot[np.ix_(idx, idx)] = [[cs, -sn], [sn, cs]]
    rot = sparse.csr_matrix(rot)
    g.J2 = SparseOperator(g.basis, rot @ g.J2.matrix @ rot.T).hermitized()
    dense = g.J2.matrix.toarray()
    level = {key: vecs for key, _idx, _vals, vecs in w0.decomposition.sectors}
    for sectors in ([(key, dense[np.ix_(i, i)], vals, vecs)
                     for key, i, vals, vecs in g.j2_decomposition().sectors],
                    [(key, block, vals, vecs)
                     for key, block, vals, vecs, _js in g.j2_sectors()]):
        gap = math.sqrt(sum(np.linalg.norm(block @ vecs - vecs * vals) ** 2
                            for _key, block, vals, vecs in sectors))
        assert gap <= 1e-12
        shared = {key for key, _b, _vals, vecs in sectors
                  if key in level and vecs is level[key]}
        assert shared == set(level) - {(2, 0)}


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_weight0_view_is_the_weight0_block(ctx, spin, n_max):
    g = ctx(spin, n_max).gens
    w0 = g.weight0()
    assert g.weight0() is w0
    assert w0.basis == enumerate_sector(spin, n_max, weight=0)
    assert w0.basis.states == tuple(g.basis.states[i] for i in w0.rows)

    def block(op):
        # The level blocks sliced out of the whole-space operator's weight-0
        # rows and columns, one per level with a nonzero entry.
        levels = [
            np.flatnonzero((g.basis.totals == n) & (g.basis.weights == 0))
            for n in range(n_max + 1)]
        matrix = whole_csr(op).matrix
        out = {}
        for n, cols in enumerate(levels):
            for m, rows in enumerate(levels):
                dense = matrix[rows][:, cols].toarray()
                if dense.any():
                    assert n not in out
                    out[n] = (m, dense)
        return out

    def same(got, want):
        assert got.basis is w0.basis
        assert got.blocks.keys() == want.keys()
        for n, (m, dense) in want.items():
            assert got.blocks[n][0] == m
            assert np.array_equal(got.blocks[n][1], dense)

    same(w0.J2, block(g.J2))
    same(w0.j, block(g.j_hat()))
    for f in (lambda j: 1.0 / (2.0 * j + 1.0), lambda j: 1j * j,
              right_function_poly(-2)):
        same(w0.function_of_j(f), block(g.function_of_j(f)))
    tau = ctx(spin, n_max).taus[1].op
    same(w0.of(tau), block(tau))


def test_weight0_view_of_a_complex_image_is_its_weight0_blocks(ctx):
    # A whole-space SectorBlocks is restricted through its sparse form: its
    # (n, 0) blocks come back as the same arrays, complex ones included,
    # and a block from a weight-0 sector into another weight is refused.
    g = ctx(2, 4).gens
    w0 = g.weight0()
    image = g.function_of_nj(lambda n, j: complex(n + 1, j - 0.5))
    table = image.basis.sector_table()
    keys = table.keys
    got = w0.of(image)
    assert got.basis is w0.basis
    assert got.blocks.keys() == {keys[k][0] for k in image.blocks
                                 if keys[k][1] == 0}
    for k, (t, block) in image.blocks.items():
        if keys[k][1] == 0:
            m, level = got.blocks[keys[k][0]]
            assert m == keys[t][0]
            assert level.dtype == block.dtype == np.complex128
            assert np.array_equal(level, block)
    k, t = keys.index((2, 0)), keys.index((2, 1))
    leak = SectorBlocks(image.basis, {k: (t, np.ones((table.sizes[t],
                                                      table.sizes[k])))})
    with pytest.raises(WeightLeakError, match="weight-0 state"):
        w0.of(leak)


def test_weight0_view_refuses_a_weight_leak(ctx):
    c = ctx(2, 4)
    w0 = c.gens.weight0()
    for op in (c.gens.Jplus, c.gens.Jminus,
               c.gens.Jplus @ whole_csr(c.taus[0].op)):
        with pytest.raises(WeightLeakError, match="weight-0 state"):
            w0.of(op)
    with pytest.raises(BasisMismatchError):
        w0.of(ctx(2, 3).gens.J2)
    # A weight-conserving product of leaking factors is restricted as usual.
    assert not w0.of(c.gens.Jplus @ c.gens.Jminus).is_zero()


def test_weight0_view_refuses_two_target_levels(ctx):
    # An operator whose weight-0 level 4 reaches both level 5 and level 6
    # has no level block; the refusal names an entry into each.
    c = ctx(2, 6)
    basis = c.basis
    source = np.flatnonzero((basis.totals == 4) & (basis.weights == 0))
    five = np.flatnonzero((basis.totals == 5) & (basis.weights == 0))
    six = np.flatnonzero((basis.totals == 6) & (basis.weights == 0))
    op = SparseOperator(basis, sparse.csr_matrix(
        ([1.0, 1.0], ([five[0], six[1]], [source[0], source[2]])),
        shape=(len(basis), len(basis))))
    states = basis.states
    with pytest.raises(SectorStructureError) as err:
        c.gens.weight0().of(op)
    assert str(err.value) == (
        "operator sends sector (4, 0) into sectors (5, 0) and (6, 0): state "
        f"{states[source[0]]} to {states[five[0]]}, and {states[source[2]]} "
        f"to {states[six[1]]}")


def test_weight0_function_pole_names_a_weight0_witness(ctx):
    # The whole space names the first sector holding the label, (1, -1); the
    # weight-0 view decomposes its own levels, so it names the sector (1, 0),
    # which holds the label too, with its J^2 eigenvalue there.
    g = ctx(1, 4).gens
    with pytest.raises(SpectralFunctionError) as whole:
        g.function_of_j(lambda j: 1.0 / (j - 1))
    assert whole.value.sector == (1, -1)
    w0 = g.weight0()
    with pytest.raises(SpectralFunctionError) as restricted:
        w0.function_of_j(lambda j: 1.0 / (j - 1))
    assert restricted.value.sector == (1, 0)
    _key, _idx, vals, _vecs = w0.decomposition.sectors[1]
    labels = w0.decomposition.labels[1]
    assert restricted.value.eigenvalue in vals[labels == 1].tolist()
    assert restricted.value.eigenvalue == pytest.approx(2.0)


def _jordan_schwinger_products(basis, x):
    """Reference image: sum_i a_i^dagger (sum_j x_ij a_j), one sparse sum per
    nonzero x_ij and one sparse product per mode."""
    adag = [creation_op(basis, mu).matrix
            for mu in range(-basis.spin, basis.spin + 1)]
    a = [op.getH().tocsr() for op in adag]
    dim = len(basis)
    acc = sparse.csr_matrix((dim, dim))
    for i in range(basis.modes):
        lowered = sparse.csr_matrix((dim, dim))
        for j in np.flatnonzero(x[i]):
            lowered = lowered + x[i, j] * a[j]
        acc = acc + adag[i] @ lowered
    acc = acc.tocsr()
    acc.eliminate_zeros()
    return SparseOperator(basis, acc)


def _schwinger_matrices(spin, seed):
    m = 2 * spin + 1
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((m, m))
    herm = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    herm = herm + herm.conj().T
    general = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    jplus = np.zeros((m, m))
    for mu in range(-spin, spin):
        jplus[mu + spin + 1, mu + spin] = math.sqrt((spin + mu + 1) * (spin - mu))
    return {"real": real, "hermitian": herm, "general": general,
            "eye": np.eye(m), "zero": np.zeros((m, m)), "jplus": jplus}


def _assert_same_csr(got, want):
    assert got.dtype == want.dtype
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("spin", [1, 2, 3, 4])
def test_j2_equals_the_operator_algebra_formula(spin):
    # The column routine gives the floats of the whole-operator formula,
    # hermitized, and the weight-0 view its weight-0 blocks.
    g = su2_generators(enumerate_sector(spin, 4))
    want = (g.Jz @ g.Jz + 0.5 * (g.Jplus @ g.Jminus
                                 + g.Jminus @ g.Jplus)).hermitized()
    _assert_same_csr(g.J2.matrix, want.matrix)
    _same_blocks(g.weight0().J2, g.weight0().of(want))


@pytest.mark.parametrize("spin,n_max", [(1, 1), (1, 4), (2, 4), (3, 5),
                                        (4, 4), (5, 3)])
def test_jordan_schwinger_equals_sum_of_products(spin, n_max):
    # The one-pass build must give the products' floats exactly.
    basis = enumerate_sector(spin, n_max)
    for name, x in _schwinger_matrices(spin, 100 + spin).items():
        _assert_same_csr(jordan_schwinger(basis, x).matrix,
                         _jordan_schwinger_products(basis, x).matrix)


def test_jordan_schwinger_independent_of_raise_table_order():
    mats = _schwinger_matrices(2, 5)
    fresh = enumerate_sector(2, 4)
    want = {k: jordan_schwinger(fresh, x).matrix for k, x in mats.items()}
    warmed = enumerate_sector(2, 4)
    creation_op(warmed, 1)  # builds one mode's table first
    for pos in reversed(range(warmed.modes)):
        warmed.raised(pos)
    for name in reversed(list(mats)):
        _assert_same_csr(jordan_schwinger(warmed, mats[name]).matrix,
                         want[name])


def test_jordan_schwinger_builds_each_raise_table_in_one_lookup(
        monkeypatch):
    # J_+, a dense complex image, a second image, every a_mu^dagger and the
    # whole-space families read one raise table per mode: each is built by
    # one rank lookup over the states below n_max, and read from the cache
    # after that.
    basis = enumerate_sector(2, 4)
    x = _schwinger_matrices(2, 11)["general"]
    lookups = []
    positions = basis.positions
    monkeypatch.setattr(basis, "positions",
                        lambda occ: lookups.append(len(occ)) or positions(occ))
    gens = Su2Generators(basis)
    first = jordan_schwinger(basis, x).matrix
    _assert_same_csr(jordan_schwinger(basis, x).matrix, first)
    for mu in range(-2, 3):
        creation_op(basis, mu)
    build_families(basis, gens).p_ops
    below = int((basis.totals < basis.n_max).sum())
    assert lookups == [below] * basis.modes
    assert sorted(basis._raised) == list(range(basis.modes))


@pytest.mark.parametrize("n,weight", [(3, None), (None, 1), (4, 0)])
def test_jordan_schwinger_on_a_sector_basis(n, weight):
    # On an n or weight sector the image is the sector block of the
    # whole-space image: sum x_ij a_i^dagger a_j conserves n, and within a
    # weight sector only its weight-conserving part stays.
    whole = enumerate_sector(2, 4)
    sector = enumerate_sector(2, 4, n=n, weight=weight)
    idx = [whole.state_index(state) for state in sector.states]
    for name, x in _schwinger_matrices(2, 9).items():
        block = jordan_schwinger(whole, x).matrix[idx][:, idx].toarray()
        assert np.array_equal(jordan_schwinger(sector, x).matrix.toarray(),
                              block)
