"""Sparse operator algebra over a SectorBasis-indexed space.

Operators are immutable wrappers around CSR matrices whose dtype follows
their data: float64 when every entry is real, complex128 only when some entry
has a nonzero imaginary part.  The Jordan-Schwinger image of su(2) is real,
so the whole ladder stack runs in real arithmetic.  Operators are truncated
at n_max, so an identity between them is asserted only on the interior:
states with total occupation <= n_max - margin, where truncation has no
effect.  Each check names its margin explicitly, at least the number of
particles its operator products can shift.

Every relative residual comes from one of three functions: ``residual`` for
a two-sided identity X = Y, normalised by the larger restricted operand norm;
``commutator_residual`` for [X, Y] = 0, normalised by the product of the
restricted norms of X and Y; and ``zero_residual`` for a single operator that
must vanish, against an explicit scale.

A residual reads only the columns its restriction keeps, so the products it
compares are formed on those columns alone.  With P the projector onto them,
(X Y) P = X (Y P) and [X, Y] P = X (Y P) - Y (X P) hold entry for entry:
each kept column of a CSR product is summed over the same terms in the same
order whether or not the other columns are present.  ``on_columns`` forms
X P and ``commutator_on_columns`` forms [X, Y] P, so a restricted residual
reads the same floats as one sliced from the whole-space product.

A restriction is one boolean mask over the basis, the same for rows and
columns, cached read-only on the basis per margin
(``SectorBasis.interior_masks``); the margin is checked on every call.
A claim that holds only on the weight-0 states is read on the weight-0
basis, through ``Su2Generators.weight0()``.  Norms and X P are read straight
from the CSR arrays through the mask, with no sliced sparse copy: a norm sums
the stored entries in kept rows and columns, explicit zeros included, in CSR
order, exactly as ``X[kept][:, kept]`` would hold them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

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


def _fro(data: np.ndarray) -> float:
    """Frobenius norm of a CSR data array (or a selection from one)."""
    if data.size == 0:
        return 0.0
    return float(math.sqrt(np.sum(np.abs(data) ** 2)))


@dataclass(frozen=True)
class SparseOperator:
    """Immutable sparse operator on a fixed SectorBasis.

    The matrix is stored as float64 CSR unless an entry has a nonzero
    imaginary part, in which case it is complex128; sums, products and
    commutators promote as numpy does.

    ``function_of`` records provenance: a spectral image f(H) assembled from
    the decomposition of H (``SpectralDecomposition.assemble``) holds H
    itself, so a check may take [H, f(H)] = 0 as given for that very H.  It
    is not compared, and nothing else sets it: sums, products, scalings,
    adjoints and re-wraps in ``SparseOperator(...)`` carry None.
    """
    basis: "SectorBasis"
    matrix: sparse.csr_matrix
    function_of: Optional["SparseOperator"] = field(
        default=None, repr=False, compare=False)

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
        return SparseOperator(basis, sparse.csr_matrix((dim, dim), dtype=float))

    @staticmethod
    def identity(basis) -> "SparseOperator":
        return SparseOperator(basis, sparse.identity(len(basis), dtype=float,
                                                     format="csr"))

    @staticmethod
    def diagonal(basis, values) -> "SparseOperator":
        values = np.asarray(values)
        values = values.astype(np.promote_types(values.dtype, np.float64))
        return SparseOperator(basis, sparse.diags(values, format="csr"))

    # -- algebra ----------------------------------------------------------

    def _require_same_basis(self, other: "SparseOperator") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("operators live on different bases")

    def adjoint(self) -> "SparseOperator":
        return SparseOperator(self.basis, self.matrix.getH().tocsr())

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_basis(other)
        out = (self.matrix + other.matrix).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_basis(other)
        out = (self.matrix - other.matrix).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out)

    def __neg__(self) -> "SparseOperator":
        return SparseOperator(self.basis, -self.matrix)

    def __mul__(self, scalar) -> "SparseOperator":
        factor = (float(scalar) if isinstance(scalar, numbers.Real)
                  else complex(scalar))
        return SparseOperator(self.basis, self.matrix * factor)

    __rmul__ = __mul__

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_basis(other)
        out = (self.matrix @ other.matrix).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out)

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
        return SparseOperator(self.basis, out)

    # -- queries ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def is_zero(self) -> bool:
        """True when no entry is nonzero; explicit zeros in the pattern
        (a spectral image with f = 0 keeps its block pattern) do not count."""
        return not self.matrix.data.any()

    def norm(self) -> float:
        """Frobenius norm."""
        return _fro(self.matrix.data)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        return self.matrix @ np.asarray(vector)

    def entry(self, row_state, col_state) -> complex:
        i = self.basis.state_index(tuple(row_state))
        j = self.basis.state_index(tuple(col_state))
        if i is None or j is None:
            return 0j
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

    States pushed past the truncation n_max are dropped, so identities
    involving it hold on the interior at margin >= 1.
    """
    pos = basis.mode_position(mu)
    cols = np.flatnonzero(basis.totals < basis.n_max)
    raised = basis.occupations[cols]
    raised[:, pos] += 1
    rows = basis.indices_of(raised)
    keep = rows >= 0
    rows, cols = rows[keep], cols[keep]
    data = np.sqrt(basis.occupations[cols, pos] + 1.0)
    dim = len(basis)
    mat = sparse.coo_matrix((data, (rows, cols)), shape=(dim, dim),
                            dtype=float).tocsr()
    return SparseOperator(basis, mat)


def annihilation_op(basis, mu: int) -> SparseOperator:
    """Annihilation operator: the adjoint of creation_op."""
    return creation_op(basis, mu).adjoint()


def number_op(basis, mu: int) -> SparseOperator:
    """Number operator for a single mode (diagonal)."""
    return SparseOperator.diagonal(
        basis, basis.occupations[:, basis.mode_position(mu)])


def commutator(x: SparseOperator, y: SparseOperator) -> SparseOperator:
    """XY - YX."""
    x._require_same_basis(y)
    out = (x.matrix @ y.matrix - y.matrix @ x.matrix).tocsr()
    out.eliminate_zeros()
    return SparseOperator(x.basis, out)


def entry_grades(x: SparseOperator
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row, column, Delta n and Delta weight of each stored nonzero entry of X.

    The grade of the entry at (row, col) is (n(row) - n(col),
    w(row) - w(col)), read from ``basis.totals`` and ``basis.weights``; the
    entries come in CSR order, explicit zeros skipped.  X has grade (dn, dw)
    when every entry does: it then maps each (n, w) sector into
    (n + dn, w + dw), and commutes with N and J_z exactly when that grade is
    (0, 0).  No product is formed.
    """
    m = x.matrix
    nonzero = m.data != 0
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))[nonzero]
    cols = m.indices[nonzero]
    totals, weights = x.basis.totals, x.basis.weights
    return (rows, cols, totals[rows] - totals[cols],
            weights[rows] - weights[cols])


# -- interior-restricted residuals -------------------------------------------

def _restriction(basis, margin: int) -> np.ndarray:
    """Boolean mask of an interior restriction, from the basis's cache; the
    margin is checked on every call."""
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    if margin > basis.n_max:
        raise EmptyInteriorError(
            f"margin {margin} exceeds n_max {basis.n_max}: empty restriction")
    kept = basis.interior_masks(margin)
    if not kept.any():
        raise EmptyInteriorError(
            f"empty interior restriction (margin={margin})")
    return kept


def on_columns(x: SparseOperator, margin: int) -> SparseOperator:
    """X P, where P projects onto the columns a residual at this restriction reads.

    The columns are those with total occupation <= n_max - margin; every
    other column of X is dropped, and so is every explicit zero.  A product
    with this as its right factor equals the whole-space product on the kept
    columns, entry for entry.
    """
    cols = _restriction(x.basis, margin)
    if cols.all():
        return x
    m = x.matrix
    keep = cols[m.indices] & (m.data != 0)
    kept = np.zeros(len(keep) + 1, dtype=m.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return SparseOperator(x.basis, sparse.csr_matrix(
        (m.data[keep], m.indices[keep], kept[m.indptr]), shape=m.shape))


def commutator_on_columns(x: SparseOperator, y: SparseOperator,
                          margin: int) -> SparseOperator:
    """[X, Y] P, formed as X (Y P) - Y (X P) on the columns ``on_columns`` keeps."""
    return x @ on_columns(y, margin) - y @ on_columns(x, margin)


def _sliced_fro(matrix, kept) -> float:
    """Frobenius norm of the entries in the kept rows and columns.

    They are read from the CSR arrays: the same entries, explicit zeros
    included, in the same order as ``matrix[kept][:, kept]`` holds them.
    """
    keep = np.repeat(kept, np.diff(matrix.indptr)) & kept[matrix.indices]
    return _fro(matrix.data[keep])


def residual(x: SparseOperator, y: SparseOperator,
             margin: int) -> ResidualReport:
    """Frobenius residual of X - Y restricted to interior rows and columns.

    Rows and columns are restricted to states with total occupation
    <= n_max - margin.  The relative residual is normalized by the larger
    restricted operand norm (and equals the absolute residual when both
    operands vanish).
    """
    x._require_same_basis(y)
    kept = _restriction(x.basis, margin)
    diff = (x.matrix - y.matrix).tocsr()
    absolute = _sliced_fro(diff, kept)
    denom = max(_sliced_fro(x.matrix, kept), _sliced_fro(y.matrix, kept))
    relative = absolute / denom if denom > 0 else absolute
    return ResidualReport(absolute, relative, margin)


def commutator_residual(x: SparseOperator, y: SparseOperator,
                        margin: int) -> ResidualReport:
    """Residual of [X, Y] against zero, normalized by ||X|| * ||Y||.

    Zero-target identities cannot use ``residual``'s operand normalization
    (the only operand is the commutator itself), so the natural scale of the
    product is used instead.  The commutator is formed on the restricted
    columns only (``commutator_on_columns``).
    """
    c = commutator_on_columns(x, y, margin)
    kept = _restriction(x.basis, margin)
    absolute = _sliced_fro(c.matrix, kept)
    scale = _sliced_fro(x.matrix, kept) * _sliced_fro(y.matrix, kept)
    relative = absolute / scale if scale > 0 else absolute
    return ResidualReport(absolute, relative, margin)


def zero_residual(x: SparseOperator, margin: int,
                  scale: float = 1.0) -> ResidualReport:
    """Residual of X against the zero operator, with an explicit scale."""
    absolute = _sliced_fro(x.matrix, _restriction(x.basis, margin))
    relative = absolute / scale if scale > 0 else absolute
    return ResidualReport(absolute, relative, margin)
