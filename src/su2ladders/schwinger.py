"""Bosonic realization of su(2): generator construction and spectral calculus.

The map X = (x_ij) -> sum_ij x_ij a_i^dagger a_j sends matrices on the 2s+1
mode space to number-conserving bilinear operators and preserves commutators.
Applied to the spin-s generator matrices it yields J_z, J_+, J_-, from which
the Casimir J^2 and the label operator j (with J^2 = j(j+1)) are built.
All of these conserve both total particle number and J_z weight, so they are
block diagonal over (n, weight) sectors; functions of them are evaluated
sector by sector.  The J^2 eigenvalues snap to integer labels j, so a
function of j is evaluated once per label, at the exact integer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .fock import SectorBasis
from .operators import BasisMismatchError, SparseOperator, creation_op


class NonHermitianError(ValueError):
    """Spectral calculus requires a hermitian operator."""


class SectorStructureError(ValueError):
    """Operator is not block diagonal over (n, weight) sectors."""


class SpectralFunctionError(ValueError):
    """The scalar function is undefined at an eigenvalue of some sector."""

    def __init__(self, sector, eigenvalue, message=""):
        self.sector = sector
        self.eigenvalue = eigenvalue
        super().__init__(
            f"scalar function undefined at eigenvalue {eigenvalue!r} "
            f"in sector (n, weight)={sector}" + (f": {message}" if message else ""))


class SpectrumSnapError(ValueError):
    """An eigenvalue of the label operator is not close to an admissible integer."""


def jordan_schwinger(basis: SectorBasis, x: np.ndarray) -> SparseOperator:
    """Image of a (2s+1) x (2s+1) matrix under the bosonic bilinear map.

    Returns sum_ij x_ij a_i^dagger a_j with modes ordered mu = -s..s.  The
    image conserves total particle number, so it is exact on the whole
    truncated space (budget 0).  A real X gives a real operator.
    """
    x = np.asarray(x)
    m = basis.modes
    if x.shape != (m, m):
        raise ValueError(f"matrix shape {x.shape} does not match {m} modes")
    adag = [creation_op(basis, mu) for mu in range(-basis.spin, basis.spin + 1)]
    a = [op.adjoint() for op in adag]
    dim = len(basis)
    acc = sparse.csr_matrix((dim, dim))
    for i in range(m):
        for j in range(m):
            if x[i, j] != 0:
                acc = acc + x[i, j] * (adag[i].matrix @ a[j].matrix)
    acc = acc.tocsr()
    acc.eliminate_zeros()
    return SparseOperator(basis, acc, 0)


#: How far a j eigenvalue may sit from its integer label before the spectrum
#: counts as damaged (truncation, wrong spin) instead of rounded.
SNAP_TOL = 1e-6


def _j_from_casimir(values: np.ndarray) -> np.ndarray:
    # Inverse of j(j+1), elementwise; tiny negative eigenvalues from roundoff
    # are tolerated.
    return 0.5 * (np.sqrt(np.maximum(1.0 + 4.0 * values, 0.0)) - 1.0)


def _snap_labels(values: np.ndarray, key: tuple, spin: int,
                 snap_tol: float = SNAP_TOL) -> np.ndarray:
    """Integer labels j of the J^2 eigenvalues j(j+1) of one (n, weight) sector.

    Every j must lie within ``snap_tol`` of an integer in [0, n*spin];
    otherwise SpectrumSnapError is raised.
    """
    js = _j_from_casimir(np.asarray(values, dtype=float))
    labels = np.rint(js)
    top = key[0] * spin
    bad = np.flatnonzero((np.abs(js - labels) > snap_tol)
                         | (labels < 0) | (labels > top))
    if len(bad):
        raise SpectrumSnapError(
            f"j eigenvalue {float(js[bad[0]])!r} in sector (n, weight)={key} "
            f"is not within {snap_tol} of an integer in [0, {top}]")
    return labels.astype(np.int64)


def _evaluate(f: Callable, args: tuple, sector: tuple, eigenvalue: float
              ) -> float | complex:
    """f(*args) as a finite number, a float unless its imaginary part is
    nonzero; failures name the sector."""
    try:
        y = f(*args)
        value = None if y is None else complex(y)
    except (ValueError, ArithmeticError) as exc:
        raise SpectralFunctionError(sector, eigenvalue, str(exc)) from exc
    if value is None or not cmath.isfinite(value):
        raise SpectralFunctionError(sector, eigenvalue, f"non-finite value {y!r}")
    return value.real if value.imag == 0 else value


@dataclass
class SpectralDecomposition:
    """Per-(n, weight)-sector eigendecomposition of a hermitian operator.

    The sectors partition the basis, so every spectral image lives on the
    union of the sector blocks.  That CSR pattern depends on the sectors
    alone and is built once; each image scatters its dense blocks
    V diag(f) V^dagger into it.  A real operator has real eigenvectors, and
    real values of f then give a real image.
    """
    basis: SectorBasis
    sectors: list  # list of (key, indices, eigenvalues, eigenvectors)
    _indptr: np.ndarray = field(init=False, repr=False, compare=False)
    _indices: np.ndarray = field(init=False, repr=False, compare=False)
    _order: np.ndarray = field(init=False, repr=False, compare=False)
    _dtype: np.dtype = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Row i of the pattern holds the (ascending) indices of its sector;
        # _order maps block-major entry positions to CSR data positions.
        dim = len(self.basis)
        widths = np.zeros(dim, dtype=np.int64)
        for _key, idx, _vals, _vecs in self.sectors:
            widths[idx] = len(idx)
        nnz = int(widths.sum())
        itype = np.int32 if nnz < 2 ** 31 else np.int64
        self._indptr = np.zeros(dim + 1, dtype=itype)
        np.cumsum(widths, out=self._indptr[1:])
        self._indices = np.empty(nnz, dtype=itype)
        self._order = np.empty(nnz, dtype=itype)
        offset = 0
        for _key, idx, _vals, _vecs in self.sectors:
            d = len(idx)
            pos = (self._indptr[idx][:, None] + np.arange(d, dtype=itype)).ravel()
            self._indices[pos] = np.tile(idx, d)
            self._order[offset:offset + d * d] = pos
            offset += d * d
        self._dtype = np.result_type(
            float, *{vecs.dtype for *_, vecs in self.sectors})

    @staticmethod
    def of(op: SparseOperator, hermitian_tol: float = 1e-10
           ) -> "SpectralDecomposition":
        basis = op.basis
        herm_gap = (op.matrix - op.matrix.getH()).tocsr()
        scale = op.norm() + 1.0
        gap = math.sqrt(np.sum(np.abs(herm_gap.data) ** 2)) if herm_gap.nnz else 0.0
        if gap > hermitian_tol * scale:
            raise NonHermitianError(
                f"operator deviates from hermiticity by {gap:.3e}")

        rows, cols = op.matrix.nonzero()
        if len(rows) and (np.any(basis.totals[rows] != basis.totals[cols])
                          or np.any(basis.weights[rows] != basis.weights[cols])):
            bad = np.flatnonzero((basis.totals[rows] != basis.totals[cols])
                                 | (basis.weights[rows] != basis.weights[cols]))[0]
            raise SectorStructureError(
                "operator couples distinct (n, weight) sectors, e.g. states "
                f"{basis.states[rows[bad]]} and {basis.states[cols[bad]]}")

        keys = {}
        for i in range(len(basis)):
            keys.setdefault((int(basis.totals[i]), int(basis.weights[i])), []).append(i)
        sectors = []
        for key in sorted(keys):
            idx = np.array(keys[key], dtype=np.int64)
            block = op.matrix[idx][:, idx].toarray()
            vals, vecs = np.linalg.eigh(block)
            sectors.append((key, idx, vals, vecs))
        return SpectralDecomposition(basis, sectors)

    def assemble(self, values: list) -> SparseOperator:
        """The operator with eigenvalues ``values[k]`` on sector k's eigenvectors.

        Each block V diag(values) V^dagger is hermitized within the block.
        Complex values g + i h are assembled as g(H) + i h(H), so that each
        part is hermitized on its own.
        """
        if any(np.iscomplexobj(v) for v in values):
            return (self.assemble([v.real for v in values])
                    + 1j * self.assemble([v.imag for v in values]))
        data = np.empty(len(self._order), dtype=self._dtype)
        offset = 0
        for (_key, idx, _vals, vecs), fvals in zip(self.sectors, values):
            d = len(idx)
            block = (vecs * fvals) @ vecs.conj().T
            data[self._order[offset:offset + d * d]] = (
                (block + block.conj().T) * 0.5).ravel()
            offset += d * d
        dim = len(self.basis)
        out = sparse.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()), shape=(dim, dim))
        out.eliminate_zeros()
        return SparseOperator(self.basis, out, 0)

    def apply(self, f: Callable[[float], float]) -> SparseOperator:
        """Apply a scalar function to each sector's eigenvalues and reassemble."""
        return self.apply_keyed(lambda key, x: f(x))

    def apply_keyed(self, f: Callable[[tuple, float], float]) -> SparseOperator:
        """Like ``apply`` but the function also receives the (n, weight) key."""
        return self.assemble([
            np.array([_evaluate(f, (key, lam), key, lam) for lam in vals.tolist()])
            for key, _idx, vals, _vecs in self.sectors])


def spectral_function(op: SparseOperator, f: Callable[[float], float]
                      ) -> SparseOperator:
    """Sector-wise spectral image f(H) of a hermitian block-diagonal operator."""
    return SpectralDecomposition.of(op).apply(f)


class Su2Generators:
    """su(2) generators on a truncated Fock space, plus spectral helpers.

    All five operators conserve total particle number (budget 0).  The
    decomposition of J^2 is computed once and reused for every function of
    the label operator j.  Its eigenvalues snap to integer labels j, so a
    function of j (or of the commuting pair (N, j)) is evaluated once per
    distinct label, at the exact integer.
    """

    def __init__(self, basis: SectorBasis):
        if basis.spin < 1:
            raise ValueError("su(2) construction needs integer spin >= 1 "
                             f"(got {basis.spin}); s = 0 is degenerate")
        self.basis = basis
        self.s = basis.spin
        m = basis.modes
        xp = np.zeros((m, m))
        for mu in range(-self.s, self.s):
            xp[mu + self.s + 1, mu + self.s] = math.sqrt(
                (self.s + mu + 1) * (self.s - mu))
        # The diagonal generators are images of diag(mu) and the identity;
        # building them from the exact integer weight/total arrays (instead
        # of sums of a+a products) keeps their entries exact, which makes
        # the centrality commutators vanish identically.
        self.Jz = SparseOperator.diagonal(basis, basis.weights.astype(float))
        self.Jplus = jordan_schwinger(basis, xp)
        self.Jminus = self.Jplus.adjoint()
        j2 = (self.Jz @ self.Jz
              + 0.5 * (self.Jplus @ self.Jminus + self.Jminus @ self.Jplus))
        self.J2 = j2.hermitized().with_budget(0)
        self.Ntot = SparseOperator.diagonal(basis, basis.totals.astype(float))
        self._j2_decomp: Optional[SpectralDecomposition] = None
        self._labels: Optional[tuple[list, dict, float]] = None
        self._j_hat: Optional[SparseOperator] = None

    def j2_decomposition(self) -> SpectralDecomposition:
        if self._j2_decomp is None:
            self._j2_decomp = SpectralDecomposition.of(self.J2)
        return self._j2_decomp

    def j_values_by_sector(self) -> dict:
        return {key: _j_from_casimir(vals)
                for key, idx, vals, vecs in self.j2_decomposition().sectors}

    def _label_groups(self, decomp: SpectralDecomposition
                      ) -> tuple[list, dict, float]:
        """Integer labels per sector, a witness per distinct (n, j), and the
        largest distance of a j eigenvalue from its label.

        The witness is the first sector holding the label together with the
        J^2 eigenvalue there; it is what a failing scalar function reports.
        """
        if self._labels is None:
            labels, witness, gap = [], {}, 0.0
            for key, _idx, vals, _vecs in decomp.sectors:
                js = _snap_labels(vals, key, self.s)
                labels.append(js)
                gap = max(gap, float(np.max(np.abs(_j_from_casimir(vals)
                                                   - js))))
                for j, k in zip(*np.unique(js, return_index=True)):
                    witness.setdefault((key[0], int(j)), (key, float(vals[k])))
            self._labels = (labels, witness, gap)
        return self._labels

    def _label_image(self, decomp: SpectralDecomposition, f: Callable,
                     with_n: bool) -> SparseOperator:
        """Spectral image of f(n, j) (``with_n``) or f(j), one call per label."""
        labels, witness, _gap = self._label_groups(decomp)
        values: dict[tuple, float | complex] = {}
        image = []
        for (n, j), (key, lam) in witness.items():
            args = (n, j) if with_n else (j,)
            if args not in values:
                values[args] = _evaluate(f, args, key, lam)
            image.append(values[args])
        image = np.array(image)
        table = np.zeros((self.basis.n_max + 1, self.basis.n_max * self.s + 1),
                         dtype=image.dtype)
        ns, js = zip(*witness)
        table[ns, js] = image
        return decomp.assemble([table[key[0], js] for (key, *_), js
                                in zip(decomp.sectors, labels)])

    def j_hat(self, snap_tol: float = SNAP_TOL) -> SparseOperator:
        """The label operator: spectral image of (sqrt(1 + 4 J^2) - 1)/2.

        On every call each J^2 eigenvalue is checked to lie within
        ``snap_tol`` of an integer in [0, n*s] for its sector; a violation
        signals truncation damage or a wrong spin and raises
        SpectrumSnapError.  Only the assembled operator is cached.  Its
        eigenvalues are the integer labels themselves, which always snap
        within SNAP_TOL.
        """
        decomp = self.j2_decomposition()
        if self._label_groups(decomp)[2] > snap_tol:
            # Some eigenvalue misses its label by more than snap_tol; the
            # sector scan raises and names it.
            for key, _idx, vals, _vecs in decomp.sectors:
                _snap_labels(vals, key, self.s, snap_tol)
        if self._j_hat is None:
            self._j_hat = self._label_image(decomp, lambda j: j, with_n=False)
        return self._j_hat

    def function_of_j(self, f: Callable[[int], float]) -> SparseOperator:
        """Spectral image of f(j); f is called once per integer label j."""
        return self._label_image(self.j2_decomposition(), f, with_n=False)

    def function_of_nj(self, f: Callable[[int, int], float]) -> SparseOperator:
        """Spectral image of f(n, j) for the commuting pair (N, j); f is
        called once per distinct integer pair (n, j)."""
        return self._label_image(self.j2_decomposition(), f, with_n=True)


def su2_generators(basis: SectorBasis) -> Su2Generators:
    """Construct J_z, J_+/-, J^2 and N for integer spin s >= 1."""
    return Su2Generators(basis)


def j_hat(generators: Su2Generators, snap_tol: float = SNAP_TOL) -> SparseOperator:
    """Label operator of the Casimir; see ``Su2Generators.j_hat``."""
    return generators.j_hat(snap_tol=snap_tol)


@dataclass(frozen=True)
class KernelVector:
    """Zero-weight eigenvector of J^2 with integer label j in the n-particle sector."""
    n: int
    j: int
    vector: np.ndarray = field(repr=False)


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    """Rotate vec so its first non-negligible entry is real and positive."""
    amax = np.max(np.abs(vec))
    if amax == 0:
        return vec
    nz = np.flatnonzero(np.abs(vec) > 1e-8 * amax)
    lead = vec[nz[0]]
    phase = lead / abs(lead)
    return vec / phase


def jz_kernel(basis: SectorBasis, generators: Su2Generators, n: int,
              snap_tol: float = SNAP_TOL) -> list[KernelVector]:
    """Orthonormal basis of the weight-0, n-particle subspace, labeled by j.

    The vectors are the eigenvectors of the (n, 0) sector of the generators'
    J^2 decomposition, so J_z is zero on each by construction.  Ordering is
    deterministic: ascending j label, then lexicographic on the (phase-fixed)
    coordinate tuple.  The list may be empty.
    """
    if basis is not generators.basis and basis != generators.basis:
        raise BasisMismatchError("basis does not match the generators")
    if n > basis.n_max:
        raise ValueError(f"n={n} exceeds n_max={basis.n_max}")
    sector = next((sec for sec in generators.j2_decomposition().sectors
                   if sec[0] == (n, 0)), None)
    if sector is None:
        return []
    _key, idx, vals, vecs = sector
    labels = _snap_labels(vals, (n, 0), basis.spin, snap_tol)
    out = []
    for k, j in enumerate(labels):
        full = np.zeros(len(basis), dtype=vecs.dtype)
        full[idx] = vecs[:, k]
        out.append(KernelVector(n=n, j=int(j), vector=_phase_fixed(full)))
    out.sort(key=lambda kv: (kv.j, tuple(np.round(kv.vector.real, 10))
                             + tuple(np.round(kv.vector.imag, 10))))
    return out

