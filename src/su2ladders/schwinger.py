"""Bosonic realization of su(2): generator construction and spectral calculus.

The map X = (x_ij) -> sum_ij x_ij a_i^dagger a_j sends matrices on the 2s+1
mode space to number-conserving bilinear operators and preserves commutators;
``jordan_schwinger`` builds each image as one CSR matrix from the basis's
cached hop tables of a_i^dagger a_j.
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
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np
from scipy import sparse

from .fock import SectorBasis
from .operators import (BasisMismatchError, SectorBlocks, SectorStructureError,
                        SparseOperator, entry_grades)


class NonHermitianError(ValueError):
    """Spectral calculus requires a hermitian operator."""


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

    Returns sum_ij x_ij a_i^dagger a_j with modes ordered mu = -s..s, built
    as one CSR matrix from the basis's hop tables (``SectorBasis.hop_table``)
    of the pairs with x_ij != 0.  With n the occupations of the column, each
    entry is sqrt(n_i + 1) * (x_ij * sqrt(n_j)), and the diagonal sums its
    terms sqrt(n_i) * (x_ii * sqrt(n_i)) in ascending i: the floats, bit for
    bit, of the sum of products sum_i a_i^dagger (sum_j x_ij a_j).  The
    image conserves total particle number, so it is exact on the whole
    truncated space; on an n or weight sector it is that sector's block.  A
    real X gives a real operator.
    """
    x = np.asarray(x)
    m = basis.modes
    if x.shape != (m, m):
        raise ValueError(f"matrix shape {x.shape} does not match {m} modes")
    roots = np.sqrt(np.arange(basis.n_max + 2.0))
    occ = basis.occupations
    diagonal = np.zeros(len(basis), dtype=np.result_type(x, np.float64))
    rows, cols, data = [], [], []
    for i, j in zip(*np.nonzero(x)):
        target, source = basis.hop_table(int(i), int(j))
        values = (roots[occ[source, i] + (i != j)]
                  * (x[i, j] * roots[occ[source, j]]))
        if i == j:
            diagonal[source] += values
        else:
            rows.append(target)
            cols.append(source)
            data.append(values)
    occupied = np.flatnonzero(diagonal)
    rows.append(occupied)
    cols.append(occupied)
    data.append(diagonal[occupied])
    dim = len(basis)
    out = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    out.eliminate_zeros()
    return SparseOperator(basis, out)


#: How far a j eigenvalue may sit from its integer label before the spectrum
#: counts as damaged (truncation, wrong spin) instead of rounded.
SNAP_TOL = 1e-6


def _j_from_casimir(values: np.ndarray) -> np.ndarray:
    # Inverse of j(j+1), elementwise; tiny negative eigenvalues from roundoff
    # are tolerated.
    return 0.5 * (np.sqrt(np.maximum(1.0 + 4.0 * values, 0.0)) - 1.0)


def _snap_labels(values: np.ndarray, key: tuple, spin: int) -> np.ndarray:
    """Integer labels j of the J^2 eigenvalues j(j+1) of one (n, weight) sector.

    Every j must lie within SNAP_TOL of an integer in [0, n*spin];
    otherwise SpectrumSnapError is raised.
    """
    js = _j_from_casimir(np.asarray(values, dtype=float))
    labels = np.rint(js)
    top = key[0] * spin
    bad = np.flatnonzero((np.abs(js - labels) > SNAP_TOL)
                         | (labels < 0) | (labels > top))
    if len(bad):
        raise SpectrumSnapError(
            f"j eigenvalue {float(js[bad[0]])!r} in sector (n, weight)={key} "
            f"is not within {SNAP_TOL} of an integer in [0, {top}]")
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


def _spectral_block(vecs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^dagger of one sector, hermitized within the block;
    complex values g + i h as g(H) + i h(H), each part hermitized on its
    own."""
    if np.iscomplexobj(values):
        return (_spectral_block(vecs, values.real)
                + 1j * _spectral_block(vecs, values.imag))
    block = (vecs * values) @ vecs.conj().T
    return (block + block.conj().T) * 0.5


@dataclass
class SpectralDecomposition:
    """Per-(n, weight)-sector eigendecomposition of a hermitian operator.

    Every operator assembled from it is a union of dense sector blocks: a
    spectral image V diag(f) V^dagger fills the diagonal blocks, and a sum
    X f(H) of sector maps X fills the blocks from each source sector to the
    sector X sends it to.  Such a CSR pattern depends on the block structure
    alone, so each is built once (``block_pattern``) and every operator
    scatters its dense blocks into it.  A real operator has real
    eigenvectors, and real values of f then give a real image.
    ``operator`` is the operator that was decomposed; the spectral images
    record it as their ``SparseOperator.function_of``.
    """
    basis: SectorBasis
    sectors: list  # list of (key, indices, eigenvalues, eigenvectors)
    operator: Optional[SparseOperator] = field(default=None, repr=False,
                                               compare=False)
    _patterns: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _positions: Optional[tuple] = field(default=None, init=False, repr=False,
                                        compare=False)

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Per basis state: the position of its sector in ``sectors``, and
        its index within that sector."""
        if self._positions is None:
            sector = np.empty(len(self.basis), dtype=np.int64)
            local = np.empty(len(self.basis), dtype=np.int64)
            for k, (_key, idx, _vals, _vecs) in enumerate(self.sectors):
                sector[idx] = k
                local[idx] = np.arange(len(idx))
            self._positions = (sector, local)
        return self._positions

    def block_pattern(self, targets: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR pattern of the dense blocks from each sector k's columns to
        sector ``targets[k]``'s rows (no block where ``targets[k]`` is -1).

        Returns (indptr, indices, order), where ``order`` maps block-major
        entries (the blocks in sector order, each row-major) to CSR data
        positions.  A row holds the ascending union of its source sectors'
        indices.  Patterns are cached by ``targets``; the spectral images
        use the diagonal one, targets[k] = k.
        """
        targets = np.asarray(targets, dtype=np.int64)
        key = targets.tobytes()
        if key in self._patterns:
            return self._patterns[key]
        idxs = [idx for _key, idx, _vals, _vecs in self.sectors]
        cols = {t: np.sort(np.concatenate([idxs[k] for k in
                                           np.flatnonzero(targets == t)]))
                for t in np.unique(targets[targets >= 0]).tolist()}
        dim = len(self.basis)
        widths = np.zeros(dim, dtype=np.int64)
        for t, c in cols.items():
            widths[idxs[t]] = len(c)
        nnz = int(widths.sum())
        itype = np.int32 if nnz < 2 ** 31 else np.int64
        indptr = np.zeros(dim + 1, dtype=itype)
        np.cumsum(widths, out=indptr[1:])
        indices = np.empty(nnz, dtype=itype)
        for t, c in cols.items():
            starts = indptr[idxs[t]][:, None]
            indices[(starts + np.arange(len(c))).ravel()] = np.tile(c, len(starts))
        order = np.empty(nnz, dtype=itype)
        offset = 0
        for k, t in enumerate(targets.tolist()):
            if t < 0:
                continue
            pos = indptr[idxs[t]][:, None] + np.searchsorted(cols[t], idxs[k])
            order[offset:offset + pos.size] = pos.ravel()
            offset += pos.size
        self._patterns[key] = (indptr, indices, order)
        return indptr, indices, order

    def scatter(self, targets: np.ndarray, blocks: Iterable[np.ndarray], dtype
                ) -> sparse.csr_matrix:
        """The CSR matrix with the dense ``blocks`` of ``block_pattern(targets)``,
        one per sector with a target, in sector order; exact zeros are dropped."""
        indptr, indices, order = self.block_pattern(targets)
        data = np.empty(len(order), dtype=dtype)
        offset = 0
        for block in blocks:
            data[order[offset:offset + block.size]] = block.ravel()
            offset += block.size
        dim = len(self.basis)
        out = sparse.csr_matrix((data, indices.copy(), indptr.copy()),
                                shape=(dim, dim))
        out.eliminate_zeros()
        return out

    def sum_times(self, matrices: list, values: list) -> sparse.csr_matrix:
        """sum_k X_k f_k(H) for the CSR matrices X_k and ``values[k]``, the
        values of f_k on each sector's eigenvectors, sector by sector.

        On a sector with eigenvectors V, f_k(H) = V diag f_k V^T, so the
        sum's columns there are

            W V^T,   W = sum_k X_k V diag f_k,

        one dense block per sector, W formed as one product of the terms'
        blocks side by side: no image f_k(H) and no sparse product
        X_k f_k(H) is formed.  Every X_k must send each sector's columns into
        one common target sector, else SectorStructureError is raised.  The
        blocks are written straight into the cached CSR pattern for that
        (source -> target) structure (``block_pattern``).
        """
        sector, local = self.positions()
        nsec = len(self.sectors)
        coo = [m.tocoo() for m in matrices]
        src = [sector[m.col] for m in coo]
        reach = np.zeros((nsec, nsec), dtype=bool)
        for m, cols in zip(coo, src):
            reach[cols, sector[m.row]] = True
        for k in np.flatnonzero(reach.sum(axis=1) > 1).tolist():
            reached = [self.sectors[t][0] for t in np.flatnonzero(reach[k])]
            raise SectorStructureError(
                f"operator sends sector (n, weight)={self.sectors[k][0]} "
                f"into several sectors {reached}")
        targets = np.where(reach.any(axis=1), reach.argmax(axis=1), -1)

        # The blocks of X_1..X_K side by side: sector k's rows are its
        # target's states, its K * d_k columns the terms' columns in turn.
        count = len(coo)
        widths = np.array([len(idx) for _key, idx, _vals, _vecs in self.sectors])
        sizes = np.where(targets >= 0, widths[targets] * widths * count, 0)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        flat = np.zeros(int(offsets[-1]),
                        dtype=np.result_type(*(m.dtype for m in coo)))
        for t, (m, cols) in enumerate(zip(coo, src)):
            flat[offsets[cols] + (local[m.row] * count + t) * widths[cols]
                 + local[m.col]] = m.data
        del coo, src

        def block(k: int) -> np.ndarray:
            vecs = self.sectors[k][3]
            x_block = flat[offsets[k]:offsets[k + 1]].reshape(-1, count * widths[k])
            w = x_block @ np.concatenate([vecs * vals[k] for vals in values])
            return w @ vecs.conj().T

        dtype = np.result_type(flat, *(vecs.dtype for *_, vecs in self.sectors),
                               *(v.dtype for vals in values for v in vals))
        return self.scatter(
            targets, (block(k) for k in np.flatnonzero(targets >= 0).tolist()),
            dtype)

    @staticmethod
    def of(op: SparseOperator) -> "SpectralDecomposition":
        basis = op.basis
        herm_gap = (op.matrix - op.matrix.getH()).tocsr()
        scale = op.norm() + 1.0
        gap = math.sqrt(np.sum(np.abs(herm_gap.data) ** 2)) if herm_gap.nnz else 0.0
        if gap > 1e-10 * scale:
            raise NonHermitianError(
                f"operator deviates from hermiticity by {gap:.3e}")

        rows, cols, dn, dw = entry_grades(op)
        off_grade = np.flatnonzero((dn != 0) | (dw != 0))
        if len(off_grade):
            bad = off_grade[0]
            raise SectorStructureError(
                "operator couples distinct (n, weight) sectors, e.g. states "
                f"{basis.states[rows[bad]]} and {basis.states[cols[bad]]}")

        # One stable sort groups the states by (n, weight), in ascending
        # index order within a sector; one pass over the entries then writes
        # every sector's dense block, all blocks laid end to end.
        order = np.lexsort((basis.weights, basis.totals))
        keys = np.stack((basis.totals[order], basis.weights[order]), axis=1)
        starts = np.flatnonzero(np.concatenate(
            ([len(order) > 0], np.any(keys[1:] != keys[:-1], axis=1))))
        sizes = np.diff(np.append(starts, len(order)))
        sector = np.empty(len(order), dtype=np.int64)
        sector[order] = np.repeat(np.arange(len(starts)), sizes)
        local = np.empty(len(order), dtype=np.int64)
        local[order] = np.arange(len(order)) - np.repeat(starts, sizes)
        offsets = np.concatenate(([0], np.cumsum(sizes * sizes)))
        coo = op.matrix.tocoo()
        # Entries across sectors can only be explicit zeros (checked above).
        inside = sector[coo.row] == sector[coo.col]
        r, c, k = coo.row[inside], coo.col[inside], sector[coo.row[inside]]
        flat = np.zeros(offsets[-1], dtype=op.matrix.dtype)
        flat[offsets[k] + local[r] * sizes[k] + local[c]] = coo.data[inside]
        sectors = []
        for k, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
            block = flat[offsets[k]:offsets[k + 1]].reshape(size, size)
            vals, vecs = np.linalg.eigh(block)
            sectors.append((tuple(keys[start].tolist()),
                            order[start:start + size], vals, vecs))
        return SpectralDecomposition(basis, sectors, op)

    def assemble(self, values: list) -> SparseOperator:
        """The operator with eigenvalues ``values[k]`` on sector k's eigenvectors.

        Each block V diag(values) V^dagger is hermitized within the block
        (``_spectral_block``; complex values g + i h as g(H) + i h(H), each
        part hermitized on its own).  The result records ``operator`` as
        what it is a function of.
        """
        dtype = np.result_type(float, *(vecs.dtype for *_, vecs in self.sectors),
                               *(v.dtype for v in values))
        out = self.scatter(np.arange(len(self.sectors)), (
            _spectral_block(vecs, fvals)
            for (*_, vecs), fvals in zip(self.sectors, values)), dtype)
        return SparseOperator(self.basis, out, function_of=self.operator)


def _label_values(label_groups: tuple, basis: SectorBasis, f: Callable,
                  with_n: bool, index: Optional[tuple] = None) -> list:
    """Values of f(n, j) (``with_n``) or f(j) on each sector's eigenvectors.

    ``label_groups`` is ``Su2Generators._label_groups()`` of generators on
    ``basis``.  f is called once per distinct argument, at the exact integer
    labels; a failure raises SpectralFunctionError naming the label's
    witness sector.  Entry k lists the values on sector k, in eigenvalue
    order; with ``index``, a ``_label_index`` of some sectors, the entries
    are those sectors' only.  The values are gathered from the (n, j) table
    in one index and split at the sector bounds.
    """
    _labels, witness, every_sector = label_groups
    values: dict[tuple, float | complex] = {}
    image = []
    for (n, j), (key, lam) in witness.items():
        args = (n, j) if with_n else (j,)
        if args not in values:
            values[args] = _evaluate(f, args, key, lam)
        image.append(values[args])
    image = np.array(image)
    table = np.zeros((basis.n_max + 1, basis.n_max * basis.spin + 1),
                     dtype=image.dtype)
    ns, js = zip(*witness)
    table[ns, js] = image
    rows, cols, bounds = every_sector if index is None else index
    return np.split(table[rows, cols], bounds)


def _label_index(sectors: list, labels: list, positions: Iterable[int]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the label-table values of the sectors at ``positions`` sit: the
    row n and column j of each eigenvector, concatenated in sector order,
    and the split points between the sectors."""
    positions = list(positions)
    sizes = [len(labels[k]) for k in positions]
    rows = np.repeat([sectors[k][0][0] for k in positions], sizes)
    return (rows, np.concatenate([labels[k] for k in positions]),
            np.cumsum(sizes)[:-1])


class Su2Generators:
    """su(2) generators on a truncated Fock space, plus spectral helpers.

    All five operators conserve total particle number.  The
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
        self.J2 = j2.hermitized()
        self.Ntot = SparseOperator.diagonal(basis, basis.totals.astype(float))
        self._j2_decomp: Optional[SpectralDecomposition] = None
        self._labels: Optional[tuple[list, dict, tuple]] = None
        self._j_hat: Optional[SparseOperator] = None
        self._weight0: Optional[Weight0View] = None

    def j2_decomposition(self) -> SpectralDecomposition:
        if self._j2_decomp is None:
            self._j2_decomp = SpectralDecomposition.of(self.J2)
        return self._j2_decomp

    def j_values_by_sector(self) -> dict:
        return {key: _j_from_casimir(vals)
                for key, idx, vals, vecs in self.j2_decomposition().sectors}

    def _label_groups(self) -> tuple[list, dict, tuple]:
        """Integer labels per sector of the J^2 decomposition, a witness per
        distinct (n, j), and the ``_label_index`` of every sector.

        Every sector is snapped (``_snap_labels``) before the table is cached,
        so a damaged spectrum raises on each use.  The witness is the first
        sector holding the label together with the J^2 eigenvalue there; it
        is what a failing scalar function reports.
        """
        if self._labels is None:
            labels, witness = [], {}
            sectors = self.j2_decomposition().sectors
            for key, _idx, vals, _vecs in sectors:
                js = _snap_labels(vals, key, self.s)
                labels.append(js)
                for j, k in zip(*np.unique(js, return_index=True)):
                    witness.setdefault((key[0], int(j)), (key, float(vals[k])))
            self._labels = (labels, witness,
                            _label_index(sectors, labels, range(len(sectors))))
        return self._labels

    def _label_image(self, f: Callable, with_n: bool) -> SparseOperator:
        """Spectral image of f(n, j) (``with_n``) or f(j), one call per label."""
        return self.j2_decomposition().assemble(
            _label_values(self._label_groups(), self.basis, f, with_n))

    def sum_times_functions_of_j(
            self, terms: list[tuple[SparseOperator, Callable[[int], float]]]
            ) -> SparseOperator:
        """sum_k X_k f_k(j) for ``terms`` = [(X_k, f_k), ...], sector by sector
        (``SpectralDecomposition.sum_times``).

        f_k is evaluated as in ``function_of_j``: once per label, and a pole
        raises SpectralFunctionError naming its witness sector.  The result
        equals sum_k X_k @ function_of_j(f_k) up to rounding.
        """
        if not terms:
            return SparseOperator.zeros(self.basis)
        values = [_label_values(self._label_groups(), self.basis, f, False)
                  for _op, f in terms]
        return SparseOperator(self.basis, self.j2_decomposition().sum_times(
            [op.matrix for op, _f in terms], values))

    def j_hat(self) -> SparseOperator:
        """The label operator: spectral image of (sqrt(1 + 4 J^2) - 1)/2.

        Its eigenvalues are the integer labels themselves.  Like every
        function of j it reads the label table, so a J^2 eigenvalue farther
        than SNAP_TOL from a label in [0, n*s] (truncation damage or a wrong
        spin) raises SpectrumSnapError.  The assembled operator is cached.
        """
        if self._j_hat is None:
            self._j_hat = self._label_image(lambda j: j, with_n=False)
        return self._j_hat

    def function_of_j(self, f: Callable[[int], float]) -> SparseOperator:
        """Spectral image of f(j); f is called once per integer label j."""
        return self._label_image(f, with_n=False)

    def function_of_nj(self, f: Callable[[int, int], float]) -> SparseOperator:
        """Spectral image of f(n, j) for the commuting pair (N, j); f is
        called once per distinct integer pair (n, j)."""
        return self._label_image(f, with_n=True)

    def weight0(self) -> "Weight0View":
        """The generators on the weight-0 subspace (``Weight0View``), built
        once and cached."""
        if self._weight0 is None:
            self._weight0 = Weight0View(self)
        return self._weight0


class WeightLeakError(ValueError):
    """An operator sends a weight-0 state out of the weight-0 subspace."""


class Weight0View:
    """The J_z kernel: the weight-0 states of every level, and the operators
    there as dense level blocks (``SectorBlocks``).

    Every ladder claim lives on the weight-0 columns, and J^2, j, tau and
    every function of j leave the weight-0 subspace invariant.  ``basis`` is
    the weight-0 ``SectorBasis`` (the same n_max, so an interior margin
    keeps the same levels), ``rows`` its states' whole-space indices, and
    level n its (n, 0) sector.  ``of`` restricts a whole-space operator to
    its weight-0 blocks, read from its CSR entries; ``J2`` is J^2's, so the
    certificates read J^2 from its sparse entries and never from its
    eigenvectors.  ``function_of_j``, ``j`` and ``sum_times_functions_of_j``
    are assembled level by level from the eigenvectors of the (n, 0) sectors
    of the generators' J^2 decomposition; this is where each tau is built
    (``TauOperator.weight0``).  Each of these blocks is the same array as
    the (n, 0) block of the whole-space operator (``of`` of ``J2``,
    ``function_of_j``, ``j_hat``, ``sum_times_functions_of_j``), float for
    float; a product of blocks is then one gemm per block.  The spectral
    images record ``J2`` as what they are a function of.  ``nodes`` builds
    the J_z-kernel nodes of a level, in the coordinates of its blocks; no
    other code builds them.
    """

    def __init__(self, generators: Su2Generators):
        self.whole_basis = generators.basis
        self.basis = generators.basis.restricted_to_weight(0)
        self.rows = np.flatnonzero(generators.basis.weights == 0)
        self._restricted: dict[int, tuple[weakref.ref, SectorBlocks]] = {}
        self._label_groups = generators._label_groups()
        self.J2 = self.of(generators.J2)
        sectors = generators.j2_decomposition().sectors
        kept = [k for k, (key, *_rest) in enumerate(sectors) if key[1] == 0]
        self._index = _label_index(sectors, self._label_groups[0], kept)
        # Level n -> its states' positions on the weight-0 basis, the
        # eigenvectors of its (n, 0) sector, and their labels; in ascending
        # n, the order of ``_index``.
        self._levels = {
            sectors[k][0][0]: (np.searchsorted(self.rows, sectors[k][1]),
                               sectors[k][3], self._label_groups[0][k])
            for k in kept}
        self.j = self.function_of_j(lambda j: j)

    def labels(self, n: int) -> np.ndarray:
        """The labels j of level n's kernel nodes in ascending order, as
        ``nodes`` lists them, with no vector formed."""
        return np.sort(self._levels[n][2])

    def nodes(self, n: int) -> "KernelNodes":
        """The J_z-kernel nodes of level n (0 <= n <= n_max), in weight-0
        coordinates.

        They are the eigenvectors of the (n, 0) sector of the generators' J^2
        decomposition, so J_z is zero on each by construction, and their
        labels come from the generators' label table.  Each is rotated so its
        first non-negligible entry is real and positive.  The order is
        deterministic: ascending j, then lexicographic on the phase-fixed
        coordinates.
        """
        positions, vecs, labels = self._levels[n]
        fixed = [_phase_fixed(v) for v in vecs.T]
        order = sorted(range(len(labels)), key=lambda k: (
            labels[k], tuple(np.round(fixed[k].real, 10))
            + tuple(np.round(fixed[k].imag, 10))))
        return KernelNodes(positions, labels[order],
                           np.array([fixed[k] for k in order]).T)

    def _values(self, f: Callable[[int], float]) -> list:
        """f at the labels of each level's eigenvectors, in ascending n."""
        return _label_values(self._label_groups, self.whole_basis, f, False,
                             self._index)

    def function_of_j(self, f: Callable[[int], float]) -> SectorBlocks:
        """f(j) on the weight-0 subspace; f is called as by
        ``Su2Generators.function_of_j``, and each level's block equals that
        image's (n, 0) block exactly."""
        return SectorBlocks(self.basis, {
            n: (n, _spectral_block(vecs, values))
            for (n, (_pos, vecs, _labels)), values
            in zip(self._levels.items(), self._values(f))},
            function_of=self.J2)

    def sum_times_functions_of_j(
            self, terms: list[tuple[SparseOperator, Callable[[int], float]]]
            ) -> SectorBlocks:
        """The weight-0 blocks of ``Su2Generators.sum_times_functions_of_j``.

        Each whole-space X_k is restricted by ``of``, so one that leaks out
        of weight 0 raises WeightLeakError, and the sum is assembled level by
        level.  On level n with eigenvectors V, the block is W V^T with
        W = sum_k X_k V diag f_k formed as one product of the terms' blocks
        side by side, exactly as ``SpectralDecomposition.sum_times`` forms
        the whole-space sum's (n, 0) block, so the two are equal array for
        array.  Terms that send a level into different levels raise
        SectorStructureError.
        """
        if not terms:
            return SectorBlocks.zeros(self.basis)
        ops = [self.of(op) for op, _f in terms]
        values = [self._values(f) for _op, f in terms]
        blocks = {}
        for i, (n, (_pos, vecs, _labels)) in enumerate(self._levels.items()):
            reached = sorted({op.blocks[n][0] for op in ops if n in op.blocks})
            if len(reached) > 1:
                raise SectorStructureError(
                    f"the terms send level {n} into several levels {reached}")
            if not reached:
                continue
            target = reached[0]
            empty = np.zeros((len(self._levels[target][0]), len(vecs)))
            x_block = np.concatenate(
                [op.blocks[n][1] if n in op.blocks else empty for op in ops],
                axis=1)
            w = x_block @ np.concatenate([vecs * vals[i] for vals in values])
            blocks[n] = (target, w @ vecs.conj().T)
        return SectorBlocks(self.basis, blocks)

    def of(self, op: SparseOperator) -> SectorBlocks:
        """The weight-0 blocks of a whole-space operator, from its CSR entries.

        Raises WeightLeakError when some weight-0 column of ``op`` has a
        nonzero entry in a row of another weight: the restriction would then
        drop part of what the operator does on the subspace.  Raises
        SectorStructureError when it sends one weight-0 level into two
        (``SectorBlocks.from_entries``).  Each operator is restricted once;
        the restriction is kept while ``op`` lives.
        """
        whole = self.whole_basis
        if op.basis is not whole and op.basis != whole:
            raise BasisMismatchError("operator does not act on the generators' basis")
        cached = self._restricted.get(id(op))
        if cached is not None and cached[0]() is op:
            return cached[1]
        columns = op.matrix[:, self.rows]
        row_of = np.repeat(np.arange(len(whole)), np.diff(columns.indptr))
        inside = whole.weights[row_of] == 0
        leaks = np.flatnonzero(~inside & (columns.data != 0))
        if len(leaks):
            row, col = row_of[leaks[0]], self.rows[columns.indices[leaks[0]]]
            raise WeightLeakError(
                f"operator sends weight-0 state {whole.states[col]} to "
                f"{whole.states[row]} of weight {int(whole.weights[row])} "
                f"(entry {columns.data[leaks[0]].item()!r}, {len(leaks)} "
                "such entries)")
        out = SectorBlocks.from_entries(
            self.basis, np.searchsorted(self.rows, row_of[inside]),
            columns.indices[inside], columns.data[inside])
        for key in [k for k, (ref, _out) in self._restricted.items()
                    if ref() is None]:
            del self._restricted[key]
        self._restricted[id(op)] = (weakref.ref(op), out)
        return out


def su2_generators(basis: SectorBasis) -> Su2Generators:
    """Construct J_z, J_+/-, J^2 and N for integer spin s >= 1."""
    return Su2Generators(basis)


@dataclass(frozen=True)
class KernelVector:
    """Zero-weight eigenvector of J^2 with integer label j in the n-particle sector."""
    n: int
    j: int
    vector: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class KernelNodes:
    """The J_z-kernel nodes of one level n on the weight-0 basis
    (``Weight0View.nodes``): ``positions`` are the (n, 0) sector's indices
    there, ``labels`` the nodes' j, and column k of ``vectors`` node k's
    entries on ``positions``, the row order of the level's blocks (the nodes
    vanish elsewhere)."""
    positions: np.ndarray = field(repr=False)
    labels: np.ndarray
    vectors: np.ndarray = field(repr=False)

    def embedded(self, rows: np.ndarray, size: int) -> np.ndarray:
        """The nodes as the rows of a (nodes, ``size``) array, with the
        entries of ``positions`` at ``rows`` and zeros elsewhere."""
        out = np.zeros((len(self.labels), size), dtype=self.vectors.dtype)
        out[:, rows] = self.vectors.T
        return out


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    """Rotate vec so its first non-negligible entry is real and positive."""
    amax = np.max(np.abs(vec))
    if amax == 0:
        return vec
    nz = np.flatnonzero(np.abs(vec) > 1e-8 * amax)
    lead = vec[nz[0]]
    phase = lead / abs(lead)
    return vec / phase


def jz_kernel(basis: SectorBasis, generators: Su2Generators, n: int
              ) -> list[KernelVector]:
    """Orthonormal basis of the weight-0, n-particle subspace, labeled by j.

    These are the level's nodes (``Weight0View.nodes``), in their order,
    each embedded into the whole space.
    """
    if basis is not generators.basis and basis != generators.basis:
        raise BasisMismatchError("basis does not match the generators")
    if not 0 <= n <= basis.n_max:
        raise ValueError(f"n={n} lies outside 0..n_max={basis.n_max}")
    w0 = generators.weight0()
    level = w0.nodes(n)
    whole = level.embedded(w0.rows[level.positions], len(basis))
    return [KernelVector(n=n, j=j, vector=vector)
            for j, vector in zip(level.labels.tolist(), whole)]
