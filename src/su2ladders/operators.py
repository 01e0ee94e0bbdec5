"""Sparse operator algebra over a SectorBasis-indexed space.

Operators are immutable wrappers around CSR matrices whose dtype follows
their data: float64 when every entry is real, complex128 only when some entry
has a nonzero imaginary part.  The Jordan-Schwinger image of su(2) is real,
so the whole ladder stack runs in real arithmetic.  Each operator carries a
``particle_budget``: a conservative bound on how far the operator can shift
the total particle number.  Identities involving truncated operators are only
asserted on the interior (states with total occupation <= n_max - margin,
margin >= budget), where truncation has no effect.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse


class BasisMismatchError(ValueError):
    """Two operators do not share an ambient basis."""


class EmptyInteriorError(ValueError):
    """The requested interior restriction contains no states."""


@dataclass(frozen=True)
class ResidualReport:
    """Frobenius residual of an operator identity on an interior restriction."""
    frobenius_absolute: float
    frobenius_relative: float
    interior_margin: int

    def within(self, tol: float) -> bool:
        return self.frobenius_relative < tol


def _fro(matrix) -> float:
    if matrix.nnz == 0:
        return 0.0
    return float(math.sqrt(np.sum(np.abs(matrix.data) ** 2)))


@dataclass(frozen=True)
class SparseOperator:
    """Immutable sparse operator on a fixed SectorBasis.

    The matrix is stored as float64 CSR unless an entry has a nonzero
    imaginary part, in which case it is complex128; sums, products and
    commutators promote as numpy does.  ``particle_budget`` is tracked
    conservatively: products and commutators add budgets, sums take the
    maximum.
    """
    basis: "SectorBasis"
    matrix: sparse.csr_matrix
    particle_budget: int = 0

    def __post_init__(self):
        m = self.matrix
        if not sparse.isspmatrix_csr(m):
            m = sparse.csr_matrix(m)
        data = m.data
        if np.iscomplexobj(data) and not data.imag.any():
            data = data.real
        dtype = np.complex128 if np.iscomplexobj(data) else np.float64
        if data is not m.data or m.dtype != dtype:
            m = sparse.csr_matrix(
                (data.astype(dtype), m.indices.copy(), m.indptr.copy()),
                shape=m.shape)
        object.__setattr__(self, "matrix", m)
        self.matrix.sum_duplicates()
        self.matrix.sort_indices()
        dim = len(self.basis)
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match basis dim {dim}")

    # -- construction -----------------------------------------------------

    @staticmethod
    def zeros(basis) -> "SparseOperator":
        dim = len(basis)
        return SparseOperator(basis, sparse.csr_matrix((dim, dim), dtype=float), 0)

    @staticmethod
    def identity(basis) -> "SparseOperator":
        return SparseOperator(basis, sparse.identity(len(basis), dtype=float,
                                                     format="csr"), 0)

    @staticmethod
    def diagonal(basis, values, particle_budget: int = 0) -> "SparseOperator":
        values = np.asarray(values)
        values = values.astype(np.promote_types(values.dtype, np.float64))
        return SparseOperator(basis, sparse.diags(values, format="csr"),
                              particle_budget)

    def with_budget(self, budget: int) -> "SparseOperator":
        """Override the tracked budget (used when a tighter bound is provable)."""
        return SparseOperator(self.basis, self.matrix, budget)

    # -- algebra ----------------------------------------------------------

    def _require_same_basis(self, other: "SparseOperator") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("operators live on different bases")

    def adjoint(self) -> "SparseOperator":
        return SparseOperator(self.basis, self.matrix.getH().tocsr(),
                              self.particle_budget)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_basis(other)
        out = (self.matrix + other.matrix).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out,
                              max(self.particle_budget, other.particle_budget))

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_basis(other)
        out = (self.matrix - other.matrix).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out,
                              max(self.particle_budget, other.particle_budget))

    def __neg__(self) -> "SparseOperator":
        return SparseOperator(self.basis, -self.matrix, self.particle_budget)

    def __mul__(self, scalar) -> "SparseOperator":
        factor = (float(scalar) if isinstance(scalar, numbers.Real)
                  else complex(scalar))
        return SparseOperator(self.basis, self.matrix * factor,
                              self.particle_budget)

    __rmul__ = __mul__

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_basis(other)
        out = (self.matrix @ other.matrix).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out,
                              self.particle_budget + other.particle_budget)

    def power(self, n: int) -> "SparseOperator":
        if n < 0:
            raise ValueError("negative operator powers are not supported")
        out = SparseOperator.identity(self.basis)
        for _ in range(n):
            out = out @ self
        return out

    def hermitized(self) -> "SparseOperator":
        """(X + X^dagger)/2; makes hermiticity exact entry-wise."""
        out = ((self.matrix + self.matrix.getH()) * 0.5).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out, self.particle_budget)

    # -- queries ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def is_zero(self) -> bool:
        return self.matrix.nnz == 0

    def norm(self) -> float:
        """Frobenius norm."""
        return _fro(self.matrix)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        return self.matrix @ np.asarray(vector)

    def entry(self, row_state, col_state) -> complex:
        i = self.basis.state_index(tuple(row_state))
        j = self.basis.state_index(tuple(col_state))
        if i is None or j is None:
            return 0.0
        return complex(self.matrix[i, j])

    def to_coo_json(self) -> dict:
        """Coordinate-triplet export: {rows, cols, dim, entries}, row-major."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        entries = [[int(coo.row[k]), int(coo.col[k]),
                    float(coo.data[k].real), float(coo.data[k].imag)]
                   for k in order]
        dim = len(self.basis)
        return {"rows": dim, "cols": dim, "dim": dim, "entries": entries}


# -- elementary operators ---------------------------------------------------

def creation_op(basis, mu: int) -> SparseOperator:
    """Creation operator for mode weight mu: amplitude sqrt(n_mu + 1).

    States pushed past the truncation n_max are dropped; correctness on the
    interior is recovered through the margin discipline (budget 1).
    """
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
    mat = sparse.coo_matrix((data, (rows, cols)), shape=(dim, dim),
                            dtype=float).tocsr()
    return SparseOperator(basis, mat, 1)


def annihilation_op(basis, mu: int) -> SparseOperator:
    """Annihilation operator: the adjoint of creation_op (budget 1)."""
    return creation_op(basis, mu).adjoint()


def number_op(basis, mu: int) -> SparseOperator:
    """Number operator for a single mode (diagonal, budget 0)."""
    pos = basis.mode_position(mu)
    values = [state[pos] for state in basis.states]
    return SparseOperator.diagonal(basis, values)


def commutator(x: SparseOperator, y: SparseOperator) -> SparseOperator:
    """XY - YX, with budget x.budget + y.budget."""
    x._require_same_basis(y)
    out = (x.matrix @ y.matrix - y.matrix @ x.matrix).tocsr()
    out.eliminate_zeros()
    return SparseOperator(x.basis, out, x.particle_budget + y.particle_budget)


# -- interior-restricted residuals -------------------------------------------

def _restriction(basis, margin: int, col_weight=None):
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    if margin > basis.n_max:
        raise EmptyInteriorError(
            f"margin {margin} exceeds n_max {basis.n_max}: empty restriction")
    rows = basis.interior_indices(margin)
    if col_weight is None:
        cols = rows
    else:
        mask = (basis.totals <= basis.n_max - margin) & (basis.weights == col_weight)
        cols = np.flatnonzero(mask)
    if len(rows) == 0 or len(cols) == 0:
        raise EmptyInteriorError(
            f"empty interior restriction (margin={margin}, col_weight={col_weight})")
    return rows, cols


def _sliced_fro(matrix, rows, cols) -> float:
    sub = matrix[rows][:, cols]
    return _fro(sub)


def residual(x: SparseOperator, y: SparseOperator, margin: int,
             col_weight=None) -> ResidualReport:
    """Frobenius residual of X - Y restricted to interior rows and columns.

    Rows and columns are restricted to states with total occupation
    <= n_max - margin; if ``col_weight`` is given, columns are additionally
    restricted to that J_z weight.  The relative residual is normalized by
    the larger restricted operand norm (and equals the absolute residual
    when both operands vanish).
    """
    x._require_same_basis(y)
    rows, cols = _restriction(x.basis, margin, col_weight)
    diff = (x.matrix - y.matrix).tocsr()
    absolute = _sliced_fro(diff, rows, cols)
    denom = max(_sliced_fro(x.matrix, rows, cols), _sliced_fro(y.matrix, rows, cols))
    relative = absolute / denom if denom > 0 else absolute
    return ResidualReport(absolute, relative, margin)


def commutator_residual(x: SparseOperator, y: SparseOperator, margin: int,
                        col_weight=None) -> ResidualReport:
    """Residual of [X, Y] against zero, normalized by ||X|| * ||Y||.

    Zero-target identities cannot use ``residual``'s operand normalization
    (the only operand is the commutator itself), so the natural scale of the
    product is used instead.
    """
    c = commutator(x, y)
    rows, cols = _restriction(x.basis, margin, col_weight)
    absolute = _sliced_fro(c.matrix, rows, cols)
    scale = _sliced_fro(x.matrix, rows, cols) * _sliced_fro(y.matrix, rows, cols)
    relative = absolute / scale if scale > 0 else absolute
    return ResidualReport(absolute, relative, margin)


def zero_residual(x: SparseOperator, margin: int, col_weight=None,
                  scale: float = 1.0) -> ResidualReport:
    """Residual of X against the zero operator, with an explicit scale."""
    rows, cols = _restriction(x.basis, margin, col_weight)
    absolute = _sliced_fro(x.matrix, rows, cols)
    relative = absolute / scale if scale > 0 else absolute
    return ResidualReport(absolute, relative, margin)
