"""Shared fixtures: expensive per-(spin, n_max) contexts are built once."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
from scipy import sparse

from su2ladders.casimir import LadderFamily, build_families, build_taus
from su2ladders.fock import SectorBasis, enumerate_sector
from su2ladders.operators import SparseOperator
from su2ladders.schwinger import Su2Generators, su2_generators


@dataclass
class Context:
    basis: SectorBasis
    gens: Su2Generators
    families: LadderFamily
    _taus: dict | None = None

    @property
    def taus(self):
        if self._taus is None:
            self._taus = build_taus(self.families, self.gens, certify=False)
        return self._taus


@lru_cache(maxsize=None)
def _context(spin: int, n_max: int) -> Context:
    basis = enumerate_sector(spin, n_max)
    gens = su2_generators(basis)
    families = build_families(basis, gens)
    return Context(basis=basis, gens=gens, families=families)


@pytest.fixture
def ctx():
    """Factory: ctx(spin, n_max) -> cached Context."""
    return _context


def whole_csr(op):
    """A whole-space operator as the ``SparseOperator`` with the same
    entries, read through its coordinate export (``to_coo_json``), so that a
    reference built from it shares no code with the sector-block algebra.
    A ``SparseOperator`` is returned as it is."""
    if isinstance(op, SparseOperator):
        return op
    coo = op.to_coo_json()
    entries = np.array(coo["entries"], dtype=float).reshape(-1, 4)
    rows, cols = entries[:, 0].astype(np.int64), entries[:, 1].astype(np.int64)
    data = entries[:, 2] + 1j * entries[:, 3] if entries[:, 3].any() \
        else entries[:, 2]
    return SparseOperator(op.basis, sparse.csr_matrix(
        (data, (rows, cols)), shape=(coo["rows"], coo["cols"])))
