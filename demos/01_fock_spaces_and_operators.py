"""Truncated Fock spaces and the sparse operator layer.

A spin-s space has 2s+1 bosonic modes with weights mu = -s..s; states are
occupation tuples, truncated by total particle number.  Creation past the
truncation silently drops amplitude, so operator identities are only
asserted on the interior: states whose total occupation leaves room for
every particle the expression can add.
"""

import numpy as np

from su2ladders import (SparseOperator, annihilation_op, commutator,
                        creation_op, dimension, enumerate_sector, residual)

basis = enumerate_sector(spin=1, n_max=3)
print(f"spin-1 space truncated at 3 particles: {len(basis)} states "
      f"(formula: {dimension(1, 3)})")
print("first states (lexicographic):", basis.states[:5])

sector = enumerate_sector(1, 3, n=2, weight=0)
print("\ntwo-particle zero-weight sector:", sector.states)

ad0 = creation_op(basis, 0)
a0 = annihilation_op(basis, 0)
vac = basis.unit_vector((0, 0, 0))
print("\na+_0 |000> has amplitude", ad0.apply(vac)[basis.state_index((0, 1, 0))],
      "on |010>")
print("a_0 |000> =", np.linalg.norm(a0.apply(vac)), "(the vacuum is annihilated)")

ident = SparseOperator.identity(basis)
weyl = commutator(a0, ad0)
print("\n[a_0, a+_0] vs identity:")
for margin in (0, 1):
    rep = residual(weyl, ident, margin)
    print(f"  margin {margin}: absolute residual {rep.frobenius_absolute:.3e}")
print("margin 0 sees the truncation boundary; margin 1 (the one particle")
print("a+_0 can add) restores the exact commutator.")

cross = commutator(annihilation_op(basis, -1), creation_op(basis, 1))
print("\ndistinct modes commute exactly: [a_-1, a+_1] has",
      cross.nnz, "stored entries")
