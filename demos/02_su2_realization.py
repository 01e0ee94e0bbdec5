"""The bosonic realization of su(2) and the label operator.

Matrices on the mode space map to number-conserving bilinears via
X -> sum_ij x_ij a+_i a_j, preserving commutators.  The spin-s generator
matrices give J_z and J_+/-, the Casimir J^2 follows, and its spectral
decomposition defines the label operator j with J^2 = j(j+1): the
eigenvalues of j are the representation labels themselves.
"""

import numpy as np

from su2ladders import (commutator, commutator_residual, enumerate_sector,
                        jordan_schwinger, jz_kernel, residual, su2_generators)

basis = enumerate_sector(spin=1, n_max=4)
gens = su2_generators(basis)

print("commutator homomorphism on a random hermitian pair:")
rng = np.random.default_rng(1)
x = rng.standard_normal((3, 3)); x = x + x.T
y = rng.standard_normal((3, 3)); y = y + y.T
lhs = commutator(jordan_schwinger(basis, x), jordan_schwinger(basis, y))
rhs = jordan_schwinger(basis, x @ y - y @ x)
print("  image of [X, Y] vs [image X, image Y]:",
      f"{residual(lhs, rhs, 0).frobenius_relative:.2e}")

print("\nsu(2) relations (relative residuals):")
print("  [Jz, J+] - J+ :",
      f"{residual(commutator(gens.Jz, gens.Jplus), gens.Jplus, 0).frobenius_relative:.2e}")
print("  [J+, J-] - 2Jz:",
      f"{residual(commutator(gens.Jplus, gens.Jminus), 2 * gens.Jz, 0).frobenius_relative:.2e}")
print("  [J^2, J+]     :",
      f"{commutator_residual(gens.J2, gens.Jplus, 0).frobenius_relative:.2e}")
print("  [N, J+] stored entries:", commutator(gens.Ntot, gens.Jplus).nnz,
      " (exactly zero)")

jh = gens.j_hat()
print("\nlabel operator: || j(j+1) - J^2 || =",
      f"{residual(jh @ jh + jh, gens.j2_blocks(), 0).frobenius_relative:.2e}")

print("\nj eigenvalues by (n, weight) sector:")
for key, js in sorted(gens.j_values_by_sector().items()):
    if key[0] <= 3:
        print(f"  sector {key}: j = {[round(float(j), 10) for j in js]}")

print("\nzero-weight kernel, labeled by j:")
for n in range(4):
    kvs = jz_kernel(basis, gens, n)
    print(f"  n={n}: labels {[kv.j for kv in kvs]}")
print("every irreducible representation of an integer spin meets the")
print("zero-weight subspace, so classification can happen entirely there.")
