"""Operator algebra over a SectorBasis-indexed space: sparse and by sector.

A ``SparseOperator`` wraps an immutable CSR matrix whose dtype follows its
data: float64 when every entry is real, complex128 only when some entry has a
nonzero imaginary part.  The Jordan-Schwinger image of su(2) is real, so the
whole ladder stack runs in real arithmetic.  A ``SectorBlocks`` holds an
operator that sends each (n, weight) sector of its basis into one sector, as
one dense block per sector: J^2, j and every f(j), J_+/-, the families and
tau, on the whole space or on the weight-0 basis, where sector n is level n.
Its products are one gemm per block.

Operators are truncated at n_max, so an identity between them is asserted
only on the interior: states with total occupation <= n_max - margin, where
truncation has no effect.  Each check names its margin explicitly, at least
the number of particles its operator products can shift.

Every relative residual comes from one of three functions: ``residual`` for
a two-sided identity X = Y, normalised by the larger restricted operand norm;
``commutator_residual`` for [X, Y] = 0, normalised by the product of the
restricted norms of X and Y; and ``zero_residual`` for a single operator that
must vanish, against an explicit scale.  A check that reads many two-sided
identities at once accumulates them in blocks: ``kept_block_squares`` sums
the squared kept entries of X - Y, X and Y on each block of a stacked CSR
pair, and ``block_residual`` reads from one block, or from a sum over
disjoint blocks, the report ``residual`` would give, with its normalisation.

A residual reads only the columns its restriction keeps, so the products it
compares are formed on those columns alone.  With P the projector onto them,
(X Y) P = X (Y P) and [X, Y] P = X (Y P) - Y (X P) hold entry for entry:
each kept column of a CSR product is summed over the same terms in the same
order whether or not the other columns are present, and each kept block of a
block product is the same gemm.  ``on_columns`` forms X P and
``commutator_on_columns`` forms [X, Y] P, so a restricted residual reads the
same floats as one sliced from the unrestricted product.  The rows have a
half of the rule too, for block operators that never lower n (each block's
target sector has n at least its source's): then P X Y P = (P X P)(P Y P),
because a product passes through sectors of non-decreasing n, so
``interior_factors`` cuts every such factor to its blocks with source and
target kept before multiplying.  Where a factor lowers n (tau^dagger, a_mu)
or is sparse, the column rule alone applies.

The residuals read either operator type through two primitives of its own,
``kept_norm`` (the Frobenius norm of the kept rows and columns) and
``on_columns`` (X P), and otherwise use only the operator algebra.  A sparse
restriction is one boolean mask over the basis, cached read-only per margin
(``SectorBasis.interior_masks``), read straight from the CSR arrays: a norm
sums the stored entries in kept rows and columns, explicit zeros included,
in CSR order, exactly as ``X[kept][:, kept]`` would hold them.  A block
restriction keeps the blocks whose source and target sectors have
n <= n_max - margin (X P: whose source sector has), and its norm sums their
entries in ascending source sector, each block row-major.  The margin is
checked on every call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .lazy import kept


class BasisMismatchError(ValueError):
    """Two operators do not share an ambient basis."""


class EmptyInteriorError(ValueError):
    """The requested interior restriction contains no states."""


class SectorStructureError(ValueError):
    """Operator is not block diagonal over (n, weight) sectors, or sends one
    sector into several."""


@dataclass(frozen=True)
class ResidualReport:
    """Frobenius residual of an operator identity on an interior restriction."""
    frobenius_absolute: float
    frobenius_relative: float
    interior_margin: int


def worst(values) -> float:
    """The largest of ``values``, each a number, a ResidualReport (read as
    its ``frobenius_relative``) or a list or tuple of them; NaN when any is
    NaN, and 0.0 when there are none.  (Python's ``max`` keeps an earlier
    value past a later NaN.)"""
    flat = [worst(v) if isinstance(v, (list, tuple)) else float(
                v.frobenius_relative if isinstance(v, ResidualReport) else v)
            for v in values]
    return math.nan if any(map(math.isnan, flat)) else max(flat, default=0.0)


def _fro(data: np.ndarray) -> float:
    """Frobenius norm of a CSR data array (or a selection from one)."""
    if data.size == 0:
        return 0.0
    return float(math.sqrt(np.sum(np.abs(data) ** 2)))


def blocks_fro(blocks: list[np.ndarray]) -> float:
    """Frobenius norm of the nonzero dense blocks among ``blocks``, read one
    after another, each row-major: listed in ascending source sector, the
    norm ``SectorBlocks.kept_norm`` takes of its kept blocks (it holds no
    zero block)."""
    data = [b.ravel() for b in blocks if b.any()]
    return _fro(np.concatenate(data)) if data else 0.0


def _require_same_basis(x, y) -> None:
    if type(x) is not type(y):
        raise TypeError(f"cannot combine a {type(x).__name__} with a "
                        f"{type(y).__name__}")
    if x.basis is not y.basis and x.basis != y.basis:
        raise BasisMismatchError("operators live on different bases")


def _scalar(value) -> float | complex:
    return float(value) if isinstance(value, numbers.Real) else complex(value)


@dataclass(frozen=True)
class SparseOperator:
    """Immutable sparse operator on a fixed SectorBasis.

    The matrix is stored as float64 CSR unless an entry has a nonzero
    imaginary part, in which case it is complex128; sums, products and
    commutators promote as numpy does.
    """
    basis: "SectorBasis"
    matrix: sparse.csr_matrix

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

    def adjoint(self) -> "SparseOperator":
        return SparseOperator(self.basis, self.matrix.getH().tocsr())

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        _require_same_basis(self, other)
        out = (self.matrix + other.matrix).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        _require_same_basis(self, other)
        out = (self.matrix - other.matrix).tocsr()
        out.eliminate_zeros()
        return SparseOperator(self.basis, out)

    def __neg__(self) -> "SparseOperator":
        return SparseOperator(self.basis, -self.matrix)

    def __mul__(self, scalar) -> "SparseOperator":
        return SparseOperator(self.basis, self.matrix * _scalar(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        _require_same_basis(self, other)
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
        """True when no entry is nonzero; explicit zeros do not count."""
        return not self.matrix.data.any()

    def norm(self) -> float:
        """Frobenius norm."""
        return _fro(self.matrix.data)

    def kept_norm(self, margin: int) -> float:
        """Frobenius norm of the entries in the rows and columns an interior
        residual at this margin keeps, read from the CSR arrays: the same
        entries, explicit zeros included, in the same order as
        ``matrix[kept][:, kept]`` holds them."""
        kept = _restriction(self.basis, margin)
        m = self.matrix
        keep = np.repeat(kept, np.diff(m.indptr)) & kept[m.indices]
        return _fro(m.data[keep])

    def on_columns(self, margin: int) -> "SparseOperator":
        """X P, where P projects onto the columns an interior residual at this
        margin keeps; every other column of X is dropped, and so is every
        explicit zero."""
        cols = _restriction(self.basis, margin)
        if cols.all():
            return self
        m = self.matrix
        keep = cols[m.indices] & (m.data != 0)
        kept = np.zeros(len(keep) + 1, dtype=m.indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        return SparseOperator(self.basis, sparse.csr_matrix(
            (m.data[keep], m.indices[keep], kept[m.indptr]), shape=m.shape))

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
        data = coo.data[order]
        entries = list(map(list, zip(coo.row[order].tolist(),
                                     coo.col[order].tolist(),
                                     data.real.tolist(), data.imag.tolist())))
        dim = len(self.basis)
        return {"rows": dim, "cols": dim, "dim": dim, "entries": entries}


@dataclass(frozen=True, eq=False)
class SectorBlocks:
    """Immutable operator held as dense (n, weight) sector blocks, on any
    SectorBasis.

    Sector k is the k-th (n, weight) sector of the basis in ascending order
    (``SectorBasis.sector_table``); on the weight-0 basis of
    ``Su2Generators.weight0`` it is level n = k.  ``blocks`` maps a source
    sector k to (t, B): the operator sends sector k into sector t alone, and
    B is its d_t x d_k block there.  A sector without a block is sent to
    zero, and a block without a nonzero entry is dropped, so the blocks held
    are the nonzero ones.  This is the shape of J^2, J_+/-, j, every f(j),
    tau and the family operators; ``@`` is one gemm per pair of matching
    blocks, and a sum or an adjoint that would send one sector into two
    raises SectorStructureError.  The blocks are stored read-only, in
    ascending source sector, and real unless some entry has a nonzero
    imaginary part.  A spectral image f(H) is a plain ``SectorBlocks`` too:
    it records nothing of H.  Its nonzero entries as one ``SparseOperator``
    (``as_sparse``, the inverse of ``sector_blocks``) are formed on first
    read and kept; ``apply`` and ``to_coo_json`` read that form.
    """
    basis: "SectorBasis"
    blocks: dict

    def __post_init__(self):
        sizes = self.basis.sector_table().sizes
        blocks = {}
        for k, (t, block) in sorted(self.blocks.items()):
            k, t, block = int(k), int(t), np.asarray(block)
            if not (0 <= k < len(sizes) and 0 <= t < len(sizes)):
                raise ValueError(f"block {k} -> {t} lies outside sectors "
                                 f"0..{len(sizes) - 1}")
            if block.shape != (sizes[t], sizes[k]):
                raise ValueError(f"block {k} -> {t} has shape {block.shape}, "
                                 f"not {(int(sizes[t]), int(sizes[k]))}")
            if not block.any():
                continue
            if np.iscomplexobj(block) and not block.imag.any():
                block = np.ascontiguousarray(block.real)
            if block.flags.writeable:
                block = block.view()
                block.flags.writeable = False
            blocks[k] = (t, block)
        object.__setattr__(self, "blocks", blocks)

    # -- construction -----------------------------------------------------

    @staticmethod
    def zeros(basis) -> "SectorBlocks":
        return SectorBlocks(basis, {})

    @staticmethod
    def identity(basis) -> "SectorBlocks":
        return SectorBlocks(basis, {
            k: (k, np.eye(d))
            for k, d in enumerate(basis.sector_table().sizes.tolist())})

    @staticmethod
    def from_entries(basis, rows: np.ndarray, cols: np.ndarray,
                     data: np.ndarray) -> "SectorBlocks":
        """The operator with entries ``data`` at (``rows``, ``cols``), given
        once each; zero entries are dropped.

        Raises SectorStructureError when the entries send one sector into
        two, naming an entry into each.
        """
        nonzero = data != 0
        rows, cols, data = rows[nonzero], cols[nonzero], data[nonzero]
        table = basis.sector_table()
        sizes, local = table.sizes, table.local
        src, dst = table.sector[cols], table.sector[rows]
        reach = np.zeros((len(sizes), len(sizes)), dtype=bool)
        reach[src, dst] = True
        for k in np.flatnonzero(reach.sum(axis=1) > 1)[:1].tolist():
            entries = [np.flatnonzero((src == k) & (dst == t))[0]
                       for t in np.flatnonzero(reach[k])[:2].tolist()]
            a, b = (f"{basis.states[cols[i]]} to {basis.states[rows[i]]}"
                    for i in entries)
            raise SectorStructureError(
                f"operator sends sector {table.keys[k]} into sectors "
                f"{table.keys[dst[entries[0]]]} and "
                f"{table.keys[dst[entries[1]]]}: state {a}, and {b}")
        sources = np.flatnonzero(reach.any(axis=1))
        target = reach.argmax(axis=1)
        span = np.zeros(len(sizes), dtype=np.int64)
        span[sources] = sizes[target[sources]] * sizes[sources]
        offsets = np.concatenate(([0], np.cumsum(span)))
        flat = np.zeros(int(offsets[-1]), dtype=data.dtype)
        flat[offsets[src] + local[rows] * sizes[src] + local[cols]] = data
        return SectorBlocks(basis, {
            k: (target[k], flat[offsets[k]:offsets[k + 1]].reshape(
                sizes[target[k]], sizes[k]))
            for k in sources.tolist()})

    # -- algebra ----------------------------------------------------------

    def _key(self, k: int) -> tuple[int, int]:
        return self.basis.sector_table().keys[k]

    def adjoint(self) -> "SectorBlocks":
        out = {}
        for k, (t, block) in self.blocks.items():
            if t in out:
                raise SectorStructureError(
                    f"sectors {self._key(out[t][0])} and {self._key(k)} both "
                    f"reach sector {self._key(t)}: the adjoint would send "
                    "it into both")
            out[t] = (k, np.ascontiguousarray(block.conj().T))
        return SectorBlocks(self.basis, out)

    def _combine(self, other: "SectorBlocks", both, alone) -> "SectorBlocks":
        """Block by block: ``both(x, y)`` where each operand holds a block
        from a sector, ``alone(y)`` where only ``other`` does."""
        _require_same_basis(self, other)
        out = dict(self.blocks)
        for k, (t, block) in other.blocks.items():
            if k not in out:
                out[k] = (t, alone(block))
            elif out[k][0] != t:
                raise SectorStructureError(
                    f"the sum sends sector {self._key(k)} into sectors "
                    f"{self._key(out[k][0])} and {self._key(t)}")
            else:
                out[k] = (t, both(out[k][1], block))
        return SectorBlocks(self.basis, out)

    def __add__(self, other: "SectorBlocks") -> "SectorBlocks":
        return self._combine(other, np.add, lambda block: block)

    def __sub__(self, other: "SectorBlocks") -> "SectorBlocks":
        # x - y, not x + (-y): no negated copy of y's shared blocks is
        # formed, and IEEE a - b equals a + (-b) bit for bit.
        return self._combine(other, np.subtract, np.negative)

    def __neg__(self) -> "SectorBlocks":
        return SectorBlocks(self.basis, {k: (t, -block) for k, (t, block)
                                         in self.blocks.items()})

    def __mul__(self, scalar) -> "SectorBlocks":
        factor = _scalar(scalar)
        return SectorBlocks(self.basis, {
            k: (t, block * factor) for k, (t, block) in self.blocks.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "SectorBlocks") -> "SectorBlocks":
        _require_same_basis(self, other)
        out = {}
        for k, (t, right) in other.blocks.items():
            if t in self.blocks:
                target, left = self.blocks[t]
                out[k] = (target, left @ right)
        return SectorBlocks(self.basis, out)

    def power(self, n: int) -> "SectorBlocks":
        if n < 0:
            raise ValueError("negative operator powers are not supported")
        out = SectorBlocks.identity(self.basis) if n == 0 else self
        for _ in range(n - 1):
            out = out @ self
        return out

    def hermitized(self) -> "SectorBlocks":
        """(X + X^dagger)/2; makes hermiticity exact entry-wise."""
        return (self + self.adjoint()) * 0.5

    # -- queries ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        """The number of nonzero entries."""
        return sum(int(np.count_nonzero(block))
                   for _t, block in self.blocks.values())

    def is_zero(self) -> bool:
        """True when no entry is nonzero, i.e. no block is held."""
        return not self.blocks

    def _within(self, top: int) -> dict:
        """The blocks whose source and target sectors have n <= top."""
        keys = self.basis.sector_table().keys
        return {k: (t, block) for k, (t, block) in self.blocks.items()
                if keys[k][0] <= top and keys[t][0] <= top}

    def _fro(self, top: int) -> float:
        """Frobenius norm of the blocks whose source and target sectors have
        n <= top, in ascending source sector, each block row-major."""
        return blocks_fro([block for _t, block in self._within(top).values()])

    def lowers_n(self) -> bool:
        """True when some block's target sector has a smaller n than its
        source sector, read from the sector keys."""
        keys = self.basis.sector_table().keys
        return any(keys[t][0] < keys[k][0] for k, (t, _b) in self.blocks.items())

    def norm(self) -> float:
        """Frobenius norm."""
        return self._fro(self.basis.n_max)

    def kept_norm(self, margin: int) -> float:
        """Frobenius norm of the blocks an interior residual at this margin
        keeps: those whose source and target sectors have
        n <= n_max - margin."""
        _restriction(self.basis, margin)
        return self._fro(self.basis.n_max - margin)

    def interior(self, margin: int) -> "SectorBlocks":
        """P X P, where P projects onto the sectors with n <= n_max - margin:
        the blocks an interior residual at this margin keeps
        (``interior_factors``)."""
        _restriction(self.basis, margin)
        kept = self._within(self.basis.n_max - margin)
        if len(kept) == len(self.blocks):
            return self
        return SectorBlocks(self.basis, kept)

    def on_columns(self, margin: int) -> "SectorBlocks":
        """X P, where P projects onto the sectors with n <= n_max - margin:
        the blocks from the other sectors are dropped."""
        _restriction(self.basis, margin)
        top = self.basis.n_max - margin
        keys = self.basis.sector_table().keys
        if all(keys[k][0] <= top for k in self.blocks):
            return self
        return SectorBlocks(self.basis, {k: value for k, value
                                         in self.blocks.items()
                                         if keys[k][0] <= top})

    @kept
    def as_sparse(self) -> SparseOperator:
        """The operator as a ``SparseOperator`` of its nonzero entries, the
        inverse of ``sector_blocks``: formed on first read and kept."""
        members = self.basis.sector_table().members
        empty = np.zeros(0, dtype=np.int64)
        parts = [(empty, empty, np.zeros(0))] + [
            (members[t][r], members[k][c], block[r, c])
            for k, (t, block) in self.blocks.items()
            for r, c in [np.nonzero(block)]]
        rows, cols, data = (np.concatenate(a) for a in zip(*parts))
        dim = len(self.basis)
        return SparseOperator(self.basis, sparse.csr_matrix(
            (data, (rows, cols)), shape=(dim, dim)))

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product, by the kept sparse form (``as_sparse``)."""
        return self.as_sparse.apply(vector)

    def to_coo_json(self) -> dict:
        """Coordinate-triplet export of the kept sparse form (``as_sparse``):
        {rows, cols, dim, entries}, the nonzero entries row-major."""
        return self.as_sparse.to_coo_json()


# -- elementary operators ---------------------------------------------------

def raised_states(basis, mu: int, states: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a_mu^dagger sends the basis states ``states`` (indices):
    (sources, targets, amplitudes).

    A state whose image, one more boson in mode mu, lies in the basis is
    kept in ``sources``, in the given order, with that image's index in
    ``targets`` (read from the basis's raise table of the mode,
    ``SectorBasis.raised``) and the amplitude sqrt(n_mu + 1); a state at
    n_max, pushed past the truncation, is dropped.  This is the one
    definition of a creation operator's entries (``creation_op``).
    """
    pos = basis.mode_position(mu)
    targets = basis.raised(pos)[states]
    keep = targets >= 0
    states, targets = states[keep], targets[keep]
    return states, targets, np.sqrt(basis.occupations[states, pos] + 1.0)


def creation_op(basis, mu: int) -> SparseOperator:
    """Creation operator for mode weight mu: amplitude sqrt(n_mu + 1).

    States pushed past the truncation n_max are dropped, so identities
    involving it hold on the interior at margin >= 1.
    """
    cols, rows, data = raised_states(basis, mu, np.arange(len(basis)))
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


def commutator(x: "Operator", y: "Operator") -> "Operator":
    """XY - YX."""
    return x @ y - y @ x


def sector_blocks(x: SparseOperator) -> SectorBlocks:
    """X as (n, weight) sector blocks, read from its stored entries
    (``SectorBlocks.from_entries``, which refuses a sector sent into two)."""
    m = x.matrix.tocoo()
    return SectorBlocks.from_entries(x.basis, m.row, m.col, m.data)


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


#: Either operator type; the residuals below read both alike.
Operator = SparseOperator | SectorBlocks


def on_columns(x: Operator, margin: int) -> Operator:
    """X P, where P projects onto the columns a residual at this restriction reads.

    The columns are those with total occupation <= n_max - margin
    (``SparseOperator.on_columns``, ``SectorBlocks.on_columns``).  A product
    with this as its right factor equals the unrestricted product on the
    kept columns, entry for entry.
    """
    return x.on_columns(margin)


def interior_factors(margin: int, *factors: Operator) -> tuple[Operator, ...]:
    """The factors of a residual at this margin, each cut to what can reach
    a kept entry when every factor is a ``SectorBlocks`` that never lowers n.

    Such a product sends a sector through sectors of non-decreasing n, so an
    entry whose row and column both have n <= n_max - margin is summed over
    blocks whose source and target sectors lie there too: each factor is cut
    to those blocks (``SectorBlocks.interior``), and each kept block of the
    product is the same gemm.  When a factor lowers n (tau^dagger, a_mu) or
    is sparse, the factors come back as given and the caller's column rule
    (``on_columns``) decides what is formed; on cut factors that rule keeps
    every block.
    """
    if all(isinstance(x, SectorBlocks) and not x.lowers_n() for x in factors):
        return tuple(x.interior(margin) for x in factors)
    return factors


def commutator_on_columns(x: Operator, y: Operator, margin: int) -> Operator:
    """[X, Y] P, formed as X (Y P) - Y (X P) on the columns ``on_columns`` keeps."""
    return x @ on_columns(y, margin) - y @ on_columns(x, margin)


def residual(x: Operator, y: Operator, margin: int) -> ResidualReport:
    """Frobenius residual of X - Y restricted to interior rows and columns.

    Rows and columns are restricted to states with total occupation
    <= n_max - margin (``kept_norm``).  The relative residual is normalized
    by the larger restricted operand norm (and equals the absolute residual
    when both operands vanish).
    """
    _require_same_basis(x, y)
    _restriction(x.basis, margin)
    return two_sided_residual((x - y).kept_norm(margin), x.kept_norm(margin),
                              y.kept_norm(margin), margin)


def two_sided_residual(absolute: float, x_norm: float, y_norm: float,
                       margin: int) -> ResidualReport:
    """The normalisation of X = Y: by the larger kept operand norm, or none
    when both operands vanish."""
    denom = max(x_norm, y_norm)
    relative = absolute / denom if denom > 0 else absolute
    return ResidualReport(absolute, relative, margin)


def kept_block_squares(x: sparse.csr_matrix, y: sparse.csr_matrix,
                       kept: np.ndarray, size: int) -> np.ndarray:
    """Squared kept Frobenius norms of X - Y, X and Y, block by block.

    X and Y are CSR matrices tiled by size x size blocks, and ``kept`` is a
    boolean mask over their rows and equally over their columns (an interior
    mask of ``SectorBasis.interior_masks``, tiled to match): an entry counts
    when its row and its column are both kept.  Returns an array of shape
    (3, b, b), b blocks a side, whose [:, p, q] holds the sums of squared
    magnitudes of the kept entries of X - Y, X and Y in rows p*size.. and
    columns q*size..  The kept entries are grouped by block in one stable
    sort, so each block is summed as ``kept_norm`` sums its operator: over
    its stored entries in CSR order.  ``block_residual`` reads a report
    from one such triple, or from a sum of them over disjoint blocks.
    """
    blocks = x.shape[0] // size
    row_ids = np.arange(blocks * size) // size * blocks
    out = np.empty((3, blocks * blocks))
    for k, m in enumerate((x - y, x, y)):
        counts = np.diff(m.indptr)
        keep = np.repeat(kept, counts) & kept[m.indices]
        squares = np.abs(m.data[keep]) ** 2
        ids = np.repeat(row_ids, counts)[keep] + m.indices[keep] // size
        order = np.argsort(ids, kind="stable")
        squares = squares[order]
        bounds = np.searchsorted(ids[order], np.arange(blocks * blocks + 1))
        out[k] = [np.sum(squares[lo:hi])
                  for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    return out.reshape(3, blocks, blocks)


def block_residual(squares: np.ndarray, margin: int) -> ResidualReport:
    """``residual``'s report, normalisation included, from the squared kept
    norms (||X - Y||^2, ||X||^2, ||Y||^2), as ``kept_block_squares`` gives
    them for one block."""
    absolute, x_norm, y_norm = (math.sqrt(float(v)) for v in squares)
    return two_sided_residual(absolute, x_norm, y_norm, margin)


def commutator_residual(x: Operator, y: Operator,
                        margin: int) -> ResidualReport:
    """Residual of [X, Y] against zero, normalized by ||X|| * ||Y||.

    Zero-target identities cannot use ``residual``'s operand normalization
    (the only operand is the commutator itself), so the natural scale of the
    product is used instead.  The commutator is formed from the factors
    ``interior_factors`` cuts, on the restricted columns only
    (``commutator_on_columns``).
    """
    absolute = commutator_on_columns(*interior_factors(margin, x, y),
                                     margin).kept_norm(margin)
    return scaled_residual(absolute, x.kept_norm(margin) * y.kept_norm(margin),
                           margin)


def scaled_residual(absolute: float, scale: float,
                    margin: int) -> ResidualReport:
    """The normalisation of X = 0: by an explicit scale, or none when the
    scale vanishes."""
    relative = absolute / scale if scale > 0 else absolute
    return ResidualReport(absolute, relative, margin)


def zero_residual(x: Operator, margin: int,
                  scale: float = 1.0) -> ResidualReport:
    """Residual of X against the zero operator, with an explicit scale."""
    return scaled_residual(x.kept_norm(margin), scale, margin)
