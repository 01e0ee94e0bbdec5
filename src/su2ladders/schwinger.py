"""Bosonic realization of su(2): generator construction and spectral calculus.

The map X = (x_ij) -> sum_ij x_ij a_i^dagger a_j sends matrices on the 2s+1
mode space to number-conserving bilinear operators and preserves commutators;
``jordan_schwinger`` builds each image as one CSR matrix from the basis's
raise tables, one per mode: a_i^dagger a_j sends d + e_j to d + e_i.
Applied to the spin-s generator matrices it yields J_z, J_+, J_-, from which
the Casimir J^2 and the label operator j (with J^2 = j(j+1)) are built.
J^2 has one routine, ``_casimir_columns``, which forms its columns by thin
products of the generators: on every column for the whole space, on the
weight-0 columns for the weight-0 view.  All of these conserve both total
particle number and J_z weight, so J^2 is block diagonal over the
(n, weight) sectors and is diagonalised sector by sector
(``SpectralDecomposition``), which also owns the rule that snaps its
eigenvalues j(j+1) to integer labels j: a function of j is evaluated once
per label, at the exact integer.  Every function of j, and every sum X f(j)
of sector maps X, is assembled from a decomposition as dense sector blocks
(``SectorBlocks``) by the same two routines.  The weight-0 subspace
(``Weight0View``) forms and diagonalises its own J^2 level blocks, so the
ladder build never diagonalises a sector of nonzero weight; the whole-space
decomposition takes the view's eigenpairs for a sector (n, 0) only where
its block equals the view's, and diagonalises every other sector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np
from scipy import sparse

from .fock import SectorBasis
from .jpoly import JPoly
from .lazy import kept
from .operators import (BasisMismatchError, SectorBlocks, SectorStructureError,
                        SparseOperator, sector_blocks)


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
    as one CSR matrix from the basis's raise tables (``SectorBasis.raised``):
    for x_ij != 0 and each state d below n_max, a_i^dagger a_j sends d + e_j
    (``raised(j)[d]``) to d + e_i (``raised(i)[d]``).  With n the
    occupations of the column, each entry is sqrt(n_i + 1) * (x_ij *
    sqrt(n_j)), and the diagonal sums its terms sqrt(n_i) * (x_ii *
    sqrt(n_i)) in ascending i: the floats, bit for bit, of the sum of
    products sum_i a_i^dagger (sum_j x_ij a_j).  The image conserves total
    particle number, so it is exact on the whole truncated space; on an n or
    weight sector it is the block of the whole-space image at the sector's
    states.  A real X gives a real operator.
    """
    x = np.asarray(x)
    m = basis.modes
    if x.shape != (m, m):
        raise ValueError(f"matrix shape {x.shape} does not match {m} modes")
    if basis.n_constraint is not None or basis.weight_constraint is not None:
        whole = jordan_schwinger(SectorBasis(basis.spin, basis.n_max), x)
        return SparseOperator(
            basis, whole.matrix[basis._ranks][:, basis._ranks])
    roots = np.sqrt(np.arange(basis.n_max + 2.0))
    occ = basis.occupations
    below = np.flatnonzero(basis.totals < basis.n_max)
    diagonal = np.zeros(len(basis), dtype=np.result_type(x, np.float64))
    rows, cols, data = [], [], []
    for i, j in np.argwhere(x).tolist():
        source, target = basis.raised(j)[below], basis.raised(i)[below]
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


def j_from_casimir(values: np.ndarray) -> np.ndarray:
    """Inverse of j(j+1), elementwise; tiny negative eigenvalues from
    roundoff are tolerated."""
    return 0.5 * (np.sqrt(np.maximum(1.0 + 4.0 * values, 0.0)) - 1.0)


def _snap_labels(values: np.ndarray, key: tuple, spin: int) -> np.ndarray:
    """Integer labels j of the J^2 eigenvalues j(j+1) of one (n, weight) sector.

    Every j must lie within SNAP_TOL of an integer in [0, n*spin];
    otherwise, a NaN included, SpectrumSnapError is raised.
    """
    js = j_from_casimir(np.asarray(values, dtype=float))
    labels = np.rint(js)
    top = key[0] * spin
    bad = np.flatnonzero(~((np.abs(js - labels) <= SNAP_TOL)
                           & (labels >= 0) & (labels <= top)))
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

    ``sectors[k]`` is (key, indices, eigenvalues, eigenvectors) of the
    basis's sector k (``SectorBasis.sector_table``), so every operator
    assembled from it is a ``SectorBlocks``: a spectral image
    V diag(f) V^dagger is one block per sector, and a sum X f(H) of sector
    maps X one block from each source sector to the sector X sends it to.
    A real operator has real eigenvectors, and real values of f then give a
    real image.

    For H = J^2 the eigenvalues j(j+1) snap to integer labels j
    (``labels``), and ``values`` and ``function_of`` evaluate a function of
    j, or of (n, j), once per distinct argument, at the exact integer.
    """
    basis: SectorBasis
    sectors: list  # list of (key, indices, eigenvalues, eigenvectors)

    @kept
    def labels(self) -> list[np.ndarray]:
        """The integer label j of each eigenvalue j(j+1), sector by sector
        (``_snap_labels``).  A spectrum that does not snap raises
        SpectrumSnapError, kept as the labels are: every read raises it."""
        return [_snap_labels(vals, key, self.basis.spin)
                for key, _idx, vals, _vecs in self.sectors]

    @kept
    def _distinct_labels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per sector: its distinct labels in ascending order, the position
        of each one's first eigenvalue, and each eigenvalue's label among
        them (``np.unique``)."""
        return [np.unique(js, return_index=True, return_inverse=True)
                for js in self.labels]

    @kept
    def _label_table(self) -> tuple[list[int], list[np.ndarray]]:
        """The distinct labels of all sectors, and each eigenvalue's among them."""
        distinct, inverse = np.unique(np.concatenate(self.labels),
                                      return_inverse=True)
        return distinct.tolist(), np.split(inverse, np.cumsum(
            [len(js) for js in self.labels])[:-1])

    def values(self, f: Callable, with_n: bool = False) -> list:
        """f(n, j) (``with_n``) or f(j) on each sector's eigenvectors, in
        eigenvalue order.

        A ``JPoly`` f(j) is evaluated once per distinct label of the one
        label table (``_label_table``), by Horner's rule on its integer
        numerators and one correctly rounded int / den: the float of the
        exact value, bit for bit.  Any other f is called once per distinct
        argument, at the exact integer labels, in ascending sector and then
        label order; a failure raises SpectralFunctionError naming the first
        sector that holds the argument and the eigenvalue there.  All
        sectors share one dtype: complex when some value is.
        """
        if isinstance(f, JPoly) and not with_n:
            js, positions = self._label_table
            acc = [0] * len(js)
            for a in reversed(f.nums):
                acc = [x * j + a for x, j in zip(acc, js)]
            table = np.array([x / f.den for x in acc])
            return [table[p] for p in positions]
        seen: dict[tuple, float | complex] = {}
        distinct, bounds = [], [0]
        for (key, _idx, vals, _vecs), (js, first, _inverse) in zip(
                self.sectors, self._distinct_labels):
            for j, k in zip(js.tolist(), first.tolist()):
                args = (key[0], j) if with_n else (j,)
                if args not in seen:
                    seen[args] = _evaluate(f, args, key, float(vals[k]))
                distinct.append(seen[args])
            bounds.append(len(distinct))
        distinct = np.array(distinct)
        return [distinct[lo:hi][inverse] for lo, hi, (*_, inverse)
                in zip(bounds, bounds[1:], self._distinct_labels)]

    def function_of(self, f: Callable, with_n: bool = False,
                    top: Optional[int] = None) -> SectorBlocks:
        """The spectral image of f(j), or of f(n, j) (``with_n``): the
        operator with ``values(f, with_n)`` on the eigenvectors, on the
        sectors with n <= ``top`` (every sector by default)."""
        return self.assemble(self.values(f, with_n), top)

    def sum_times(self, ops: list[SectorBlocks], values: list[list]
                  ) -> list[SectorBlocks]:
        """sum_k X_k f_ik(H) for each output i, ``values[i][k]`` the values
        of f_ik on each sector's eigenvectors V.  Output i's block from a
        sector is (sum_k Y_k diag f_ik) V^T, where each Y_k = X_k V is formed
        once for all outputs and dropped with its sector, and a term whose
        values vanish there is skipped: no image f(H) and no product
        X_k f(H) is formed.  Every X_k must send each sector into one common
        target sector, else SectorStructureError is raised.
        """
        outputs = [{} for _ in values]
        for k, (key, _idx, _vals, vecs) in enumerate(self.sectors):
            reached = sorted({op.blocks[k][0] for op in ops if k in op.blocks})
            if len(reached) > 1:
                raise SectorStructureError(
                    f"the terms send sector (n, weight)={key} into several "
                    f"sectors {[self.sectors[t][0] for t in reached]}")
            products = {i: op.blocks[k][1] @ vecs for i, op in enumerate(ops)
                        if k in op.blocks}
            vecs_t = vecs.conj().T
            for blocks, fs in zip(outputs, values):
                w = None
                for i, y in products.items():
                    if fs[i][k].any():
                        w = y * fs[i][k] if w is None else w + y * fs[i][k]
                if w is not None:
                    blocks[k] = (reached[0], w @ vecs_t)
        return [SectorBlocks(self.basis, blocks) for blocks in outputs]

    @staticmethod
    def of(op: SparseOperator | SectorBlocks, known: Optional[dict] = None
           ) -> "SpectralDecomposition":
        """Diagonalise a hermitian operator sector by sector, from its sector
        blocks: ``op`` itself, or read off its entries (``sector_blocks``,
        not kept), with eigenpairs taken from ``known`` where it fits
        (``_sector_eigenpairs``).

        Raises NonHermitianError when ``op`` is not hermitian, and
        SectorStructureError when it couples distinct (n, weight) sectors.
        """
        return SpectralDecomposition(op.basis, [
            (key, idx, vals, vecs) for key, idx, _block, vals, vecs
            in _sector_eigenpairs(op, known or {})])

    def assemble(self, values: list, top: Optional[int] = None
                 ) -> SectorBlocks:
        """The operator with eigenvalues ``values[k]`` on sector k's
        eigenvectors, on the sectors with n <= ``top`` (every sector by
        default) and zero on the others.

        Each block V diag(values) V^dagger is hermitized within the block
        (``_spectral_block``; complex values g + i h as g(H) + i h(H), each
        part hermitized on its own).
        """
        top = self.basis.n_max if top is None else top
        return SectorBlocks(self.basis, {
            k: (k, _spectral_block(vecs, fvals))
            for k, ((key, *_, vecs), fvals) in enumerate(zip(self.sectors,
                                                              values))
            if key[0] <= top})


def _sector_eigenpairs(op: SparseOperator | SectorBlocks, known: dict
                       ) -> Iterator:
    """Yield (key, indices, block, eigenvalues, eigenvectors) of each
    (n, weight) sector of a hermitian operator in ascending order: what
    ``SpectralDecomposition.of`` collects and ``Su2Generators.j2_sectors``
    streams.

    ``known`` maps a sector key to (block, eigenvalues, eigenvectors)
    computed elsewhere; they are taken for that sector only when its block
    equals that block (``np.array_equal``), and any other sector is
    diagonalised.  Raises as ``SpectralDecomposition.of`` does, before the
    first sector."""
    basis = op.basis
    gap = (op - op.adjoint()).norm()
    if not gap <= 1e-10 * (op.norm() + 1.0):
        raise NonHermitianError(
            f"operator deviates from hermiticity by {gap:.3e}")
    blocks = op if isinstance(op, SectorBlocks) else sector_blocks(op)
    dtype = (np.complex128 if any(np.iscomplexobj(b) for _t, b
                                  in blocks.blocks.values())
             else np.float64)
    table = basis.sector_table()
    for k, (t, block) in blocks.blocks.items():
        if t != k:
            r, c = (idx[0] for idx in np.nonzero(block))
            raise SectorStructureError(
                "operator couples distinct (n, weight) sectors, e.g. "
                f"states {basis.states[table.members[t][r]]} and "
                f"{basis.states[table.members[k][c]]}")
    for k, (key, idx) in enumerate(zip(table.keys, table.members)):
        block = (blocks.blocks[k][1] if k in blocks.blocks
                 else np.zeros((len(idx), len(idx))))
        shared = known.get(key)
        if shared is not None and np.array_equal(block, shared[0]):
            vals, vecs = shared[1:]
        else:
            vals, vecs = np.linalg.eigh(block.astype(dtype, copy=False))
        yield key, idx, block, vals, vecs


def _casimir_columns(generators: "Su2Generators", columns: np.ndarray
                     ) -> sparse.csr_matrix:
    """J^2 P, P the basis columns ``columns``: a CSR block with a row per
    basis state and a column per entry of ``columns``, formed as
    J_z (J_z P) + (J_+ (J_- P) + J_- (J_+ P)) / 2 by thin CSR products, as
    ``casimir._family_columns`` forms the families, each J P the columns of
    J, so no whole-space product is formed for a few columns.  Each column
    of a CSR product sums the same terms in the same order whatever the
    other columns are, and each sum and scaling is entry by entry, so a
    column holds the same floats whichever columns are formed with it: this
    is the one formula for J^2 (``Su2Generators.J2``, ``Weight0View``)."""
    jz, plus, minus = (op.matrix for op in (generators.Jz, generators.Jplus,
                                            generators.Jminus))
    return (jz @ jz[:, columns]
            + (plus @ minus[:, columns] + minus @ plus[:, columns]) * 0.5)


class Su2Generators:
    """su(2) generators on a truncated Fock space, plus spectral helpers.

    All five operators conserve total particle number.  J_z, J_+/- and N
    are formed on construction; the whole-space J^2 (``J2``), its
    decomposition, the label operator j (``j_hat``) and the weight-0 view
    (``weight0``) on first read, each kept with a failed build's exception
    (``lazy.kept``).  J^2 is formed by one routine (``_casimir_columns``)
    on every column here and on the weight-0 columns in the view, so a
    reader of the weight-0 view alone never forms the whole-space J^2.  The
    decomposition serves every function of j (``j2_sectors`` reads J^2
    without it); both take the view's eigenpairs on an equal block only.
    Its eigenvalues snap to integer labels j, so a function of j (or of the
    commuting pair (N, j)) is evaluated once per distinct label, at the
    exact integer.
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
        self.Ntot = SparseOperator.diagonal(basis, basis.totals.astype(float))

    @kept
    def J2(self) -> SparseOperator:
        """J^2 = J_z^2 + (J_+ J_- + J_- J_+) / 2, hermitized, on the whole
        space: ``_casimir_columns`` on every column, formed on first read
        and kept."""
        columns = _casimir_columns(self, np.arange(len(self.basis)))
        return SparseOperator(self.basis, columns).hermitized()

    def _weight0_eigenpairs(self) -> dict:
        """The weight-0 view's eigenpairs by sector key (n, 0), each with the
        level block of J^2 they diagonalise: ``_sector_eigenpairs`` takes
        them for a whole-space sector whose block equals that one, array for
        array, and diagonalises any other sector."""
        w0 = self.weight0()
        blocks = w0.J2.blocks
        return {key: (blocks[n][1] if n in blocks
                      else np.zeros((len(idx), len(idx))), vals, vecs)
                for n, (key, idx, vals, vecs)
                in enumerate(w0.decomposition.sectors)}

    def j2_decomposition(self) -> SpectralDecomposition:
        """The decomposition of J^2 over every (n, weight) sector, built on
        first read and kept: what the whole-space readers (``j_hat``, every
        whole-space function of j) read."""
        return kept.value(self, "J^2 decomposition", lambda: (
            SpectralDecomposition.of(self.J2, self._weight0_eigenpairs())))

    def j2_blocks(self) -> SectorBlocks:
        """J^2 as (n, weight) sector blocks, read from its sparse entries."""
        return sector_blocks(self.J2)

    def j2_sectors(self) -> Iterator:
        """Yield (key, block, eigenvalues, eigenvectors, labels) of each
        (n, weight) sector of J^2 in ascending order and keep none
        (``_sector_eigenpairs``, with the eigenpairs that
        ``j2_decomposition`` takes from the weight-0 view), the labels
        snapped as ``SpectralDecomposition`` snaps them."""
        for key, _idx, block, vals, vecs in _sector_eigenpairs(
                self.J2, self._weight0_eigenpairs()):
            yield key, block, vals, vecs, _snap_labels(vals, key, self.s)

    def j_values_by_sector(self) -> dict:
        return {key: j_from_casimir(vals)
                for key, idx, vals, vecs in self.j2_decomposition().sectors}

    def sum_times_functions_of_j(
            self, terms: list[tuple[SparseOperator, Callable[[int], float]]]
            ) -> SectorBlocks:
        """sum_k X_k f_k(j) for ``terms`` = [(X_k, f_k), ...], sector by sector
        (``SpectralDecomposition.sum_times``), each X_k read as sector blocks
        from its entries; f_k is evaluated as in ``function_of_j``.  The
        result equals sum_k X_k @ function_of_j(f_k) up to rounding.
        """
        decomposition = self.j2_decomposition()
        return decomposition.sum_times(
            [sector_blocks(op) for op, _f in terms],
            [[decomposition.values(f) for _op, f in terms]])[0]

    def j_hat(self) -> SectorBlocks:
        """The label operator: spectral image of (sqrt(1 + 4 J^2) - 1)/2.

        Its eigenvalues are the integer labels themselves.  Like every
        function of j it reads the decomposition's labels, so a J^2
        eigenvalue farther than SNAP_TOL from a label in [0, n*s]
        (truncation damage or a wrong spin) raises SpectrumSnapError.  The
        assembled operator is kept, as is a failure.
        """
        return kept.value(self, "label operator j", lambda: (
            self.j2_decomposition().function_of(lambda j: j)))

    def function_of_j(self, f: Callable[[int], float]) -> SectorBlocks:
        """Spectral image of f(j); f is called once per integer label j."""
        return self.j2_decomposition().function_of(f)

    def function_of_nj(self, f: Callable[[int, int], float]) -> SectorBlocks:
        """Spectral image of f(n, j) for the commuting pair (N, j); f is
        called once per distinct integer pair (n, j)."""
        return self.j2_decomposition().function_of(f, with_n=True)

    def weight0(self) -> "Weight0View":
        """The generators on the weight-0 subspace (``Weight0View``), built
        on first read and kept, as is a failure."""
        return kept.value(self, "weight-0 view", lambda: Weight0View(self))


class WeightLeakError(ValueError):
    """An operator sends a weight-0 state out of the weight-0 subspace."""


class Weight0View:
    """The J_z kernel: the weight-0 states of every level, and the operators
    there as dense level blocks (``SectorBlocks`` on the weight-0 basis).

    Every ladder claim lives on the weight-0 columns, and J^2, j, tau and
    every function of j leave the weight-0 subspace invariant.  ``basis`` is
    the weight-0 ``SectorBasis`` (the same n_max, so an interior margin
    keeps the same levels), ``rows`` its states' whole-space indices, and
    level n its (n, 0) sector.  ``of`` restricts a whole-space operator to
    its weight-0 blocks, read from its weight-0 columns by ``from_columns``,
    which ``build_families`` also calls on its thin column blocks.  ``J2``
    is J^2's, formed by ``_casimir_columns`` on the weight-0 columns, with
    no whole-space J^2 formed and never from eigenvectors: the blocks
    ``of(generators.J2)`` holds, array for array.  ``decomposition``
    diagonalises those level blocks, and the whole-space decomposition
    takes its eigenpairs where the blocks are equal, never the other way;
    its ``function_of`` and ``sum_times`` assemble the view's images and
    each tau (``TauOperator.weight0``).
    ``nodes`` builds the J_z-kernel nodes of a level, in the coordinates of
    its blocks; no other code builds them.
    """

    def __init__(self, generators: Su2Generators):
        self.whole_basis = generators.basis
        self.basis = generators.basis.restricted_to_weight(0)
        self.rows = np.flatnonzero(generators.basis.weights == 0)
        # J^2 conserves weight, so hermitizing its weight-0 rows and
        # columns alone, (M + M^T) / 2, gives the whole-space floats.
        m = _casimir_columns(generators, self.rows)[self.rows]
        j2 = ((m + m.T) * 0.5).tocoo()
        self.J2 = SectorBlocks.from_entries(self.basis, j2.row, j2.col,
                                            j2.data)
        self.decomposition = SpectralDecomposition.of(self.J2)
        self.j = self.function_of_j(lambda j: j)

    def labels(self, n: int) -> np.ndarray:
        """The labels j of level n's kernel nodes in ascending order, as
        ``nodes`` lists them, with no vector formed."""
        return np.sort(self.decomposition.labels[n])

    def nodes(self, n: int) -> "KernelNodes":
        """The J_z-kernel nodes of level n (0 <= n <= n_max), in weight-0
        coordinates.

        They are the eigenvectors of level n's J^2 block (``decomposition``),
        so J_z is zero on each by construction, with the decomposition's
        labels.  Each is rotated so its first non-negligible entry is real
        and positive (``_phase_fixed``).  The order is deterministic:
        ascending j, then lexicographic on the phase-fixed coordinates
        rounded to 10 decimals, real parts before imaginary parts, and the
        eigenvalue order on a tie.
        """
        _key, positions, _vals, vecs = self.decomposition.sectors[n]
        labels = self.decomposition.labels[n]
        fixed = _phase_fixed(vecs)
        # One stable sort; np.lexsort's last key is the primary one.
        order = np.lexsort(np.concatenate((
            np.round(fixed.imag, 10)[::-1], np.round(fixed.real, 10)[::-1],
            labels[None])))
        return KernelNodes(positions, labels[order], fixed.T[order].T)

    def function_of_j(self, f: Callable[[int], float],
                      top: Optional[int] = None) -> SectorBlocks:
        """f(j) on the weight-0 subspace, from ``decomposition``, on the
        levels n <= ``top`` (every level by default): f is called once per
        label of every level, as by ``Su2Generators.function_of_j``, and
        each level's block equals that image's (n, 0) block exactly.  A pole
        raises SpectralFunctionError naming the first level's sector (n, 0)
        that holds the label."""
        return self.decomposition.function_of(f, top=top)

    def affine_in_j(self, n: int, a: np.ndarray, b: np.ndarray
                    ) -> np.ndarray:
        """a_i + b_i j on level n for each i, stacked into one array of
        shape (len(a), d_n, d_n): b_i times ``j``'s level block (zeros where
        j vanishes), plus a_i on the diagonal, with no spectral image
        formed.  A function of J^2 by construction."""
        d = int(self.basis.sector_table().sizes[n])
        j = self.j.blocks[n][1] if n in self.j.blocks else np.zeros((d, d))
        out = np.asarray(b, dtype=float)[:, None, None] * j
        out[:, np.arange(d), np.arange(d)] += np.asarray(a, dtype=float)[:, None]
        return out

    def of(self, op: SparseOperator | SectorBlocks) -> SectorBlocks:
        """The weight-0 blocks of a whole-space operator, read from the CSR
        entries of its weight-0 columns (``from_columns``); a
        ``SectorBlocks`` is read through its kept sparse form
        (``as_sparse``), so its (n, 0) blocks come back entry for entry.
        An operator already on the weight-0 basis is its own restriction and
        is returned as it is.

        Raises WeightLeakError when some weight-0 column of ``op`` has a
        nonzero entry in a row of another weight: the restriction would then
        drop part of what the operator does on the subspace.  Raises
        SectorStructureError when it sends one weight-0 level into two
        (``SectorBlocks.from_entries``).
        """
        if isinstance(op, SectorBlocks):
            if op.basis is self.basis or op.basis == self.basis:
                return op
            op = op.as_sparse
        whole = self.whole_basis
        if op.basis is not whole and op.basis != whole:
            raise BasisMismatchError("operator does not act on the generators' basis")
        return self.from_columns(op.matrix[:, self.rows])

    def from_columns(self, columns: sparse.csr_matrix) -> SectorBlocks:
        """The weight-0 blocks of an operator given by its weight-0 columns:
        a CSR block with a row per whole-space state and a column per
        weight-0 state, column i the image of ``basis`` state i.

        Raises WeightLeakError when a column has a nonzero entry in a row
        of another weight, and SectorStructureError when it sends one
        weight-0 level into two (``SectorBlocks.from_entries``).
        """
        whole = self.whole_basis
        row_of = np.repeat(np.arange(len(whole)), np.diff(columns.indptr))
        inside = whole.weights[row_of] == 0
        leaks = np.flatnonzero(~inside & (columns.data != 0))
        if len(leaks):
            col, row = self.rows[columns.indices[leaks[0]]], row_of[leaks[0]]
            raise WeightLeakError(
                f"operator sends weight-0 state {whole.states[col]} to "
                f"{whole.states[row]} of weight {int(whole.weights[row])} "
                f"(entry {columns.data[leaks[0]].item()!r}, {len(leaks)} "
                "such entries)")
        return SectorBlocks.from_entries(
            self.basis, np.searchsorted(self.rows, row_of[inside]),
            columns.indices[inside], columns.data[inside])


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


def _phase_fixed(vecs: np.ndarray) -> np.ndarray:
    """Rotate a vector, or each column of a matrix, so its first entry above
    1e-8 of its largest magnitude is real and positive; a zero vector is
    left as it is.  A real vector's phase is +-1, so each column gets the
    floats a fix of that vector alone would give."""
    cols = vecs.reshape(len(vecs), -1)
    mags = np.abs(cols)
    amax = mags.max(axis=0, initial=0.0)
    first = np.argmax(mags > 1e-8 * amax, axis=0)
    lead = cols[first, np.arange(cols.shape[1])]
    lead = np.where(amax > 0, lead, 1)
    return (cols / (lead / np.abs(lead))).reshape(vecs.shape)


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
