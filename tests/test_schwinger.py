import math
from fractions import Fraction

import numpy as np
import pytest

from su2ladders import bruteforce
from su2ladders.fock import enumerate_sector
from su2ladders.jpoly import JPoly
from su2ladders.ladder import right_function_poly
from su2ladders.operators import (commutator, commutator_residual,
                                  residual)
from su2ladders.schwinger import (NonHermitianError, SectorStructureError,
                                  SpectralDecomposition, SpectralFunctionError,
                                  SpectrumSnapError, _phase_fixed,
                                  jordan_schwinger, jz_kernel,
                                  spectral_function, su2_generators)


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
    re = spectral_function(g.J2, lambda x: x)
    assert residual(re, g.J2, 0).frobenius_relative < 1e-10


def test_spectral_square_matches_product(ctx):
    g = ctx(1, 3).gens
    sq = spectral_function(g.Jz, lambda x: x * x)
    assert residual(sq, g.Jz @ g.Jz, 0).frobenius_relative < 1e-10


def test_spectral_commutes_with_source(ctx):
    g = ctx(2, 3).gens
    f = spectral_function(g.J2, lambda x: 1.0 / (1.0 + x))
    assert commutator_residual(f, g.J2, 0).frobenius_relative < 1e-10


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
        spectral_function(creation_op(c.basis, 0), lambda x: x)


def test_spectral_rejects_sector_coupling(ctx):
    c = ctx(1, 2)
    from su2ladders.operators import annihilation_op, creation_op
    coupler = creation_op(c.basis, 0) + annihilation_op(c.basis, 0)
    with pytest.raises(SectorStructureError):
        spectral_function(coupler, lambda x: x)


def test_spectral_pole_names_sector(ctx):
    g = ctx(1, 2).gens
    with pytest.raises(SpectralFunctionError) as err:
        # 1/x has a pole at the vacuum eigenvalue of J^2.
        spectral_function(g.J2, lambda x: 1.0 / x if abs(x) > 1e-12
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
        jh = g.j_hat()
        assert residual(jh @ jh + jh, g.J2, 0).frobenius_relative < 1e-10


def test_j_hat_snap_guard(ctx):
    # The cached operator must not bypass a stricter tolerance.
    g = ctx(1, 3).gens
    g.j_hat()
    with pytest.raises(SpectrumSnapError):
        g.j_hat(snap_tol=1e-18)


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
        ref = spectral_function(g.J2, lambda lam: f(_float_j(lam)))
        assert residual(g.function_of_j(f), ref, 0).frobenius_relative < 1e-12


@pytest.mark.parametrize("spin,n_max", [(2, 4), (3, 4)])
def test_function_of_nj_matches_generic_path(ctx, spin, n_max):
    g = ctx(spin, n_max).gens

    def f(n, j):
        return math.sqrt(n + j + 1.0) / (2.0 * j + 3.0)

    ref = SpectralDecomposition.of(g.J2).apply_keyed(
        lambda key, lam: f(key[0], _float_j(lam)))
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


def test_function_of_j_rejects_unsnappable_spectrum():
    g = su2_generators(enumerate_sector(1, 3))
    g.J2 = g.J2 * (1.0 + 1e-3)
    with pytest.raises(SpectrumSnapError):
        g.function_of_j(lambda j: j)


def test_real_stack_is_float64(ctx):
    c = ctx(2, 4)
    g = c.gens
    ops = [g.Jz, g.Jplus, g.Jminus, g.J2, g.Ntot, g.j_hat()]
    ops += list(c.families.p_ops) + list(c.families.m_ops)
    ops += [tau.op for tau in c.taus.values()]
    assert all(op.matrix.dtype == np.float64 for op in ops)
    kvs = [kv for n in range(c.basis.n_max + 1)
           for kv in jz_kernel(c.basis, g, n)]
    assert kvs and all(kv.vector.dtype == np.float64 for kv in kvs)


def test_function_of_j_with_complex_values(ctx):
    g = ctx(2, 4).gens
    img = g.function_of_j(lambda j: 1j * j)
    assert img.matrix.dtype == np.complex128
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
