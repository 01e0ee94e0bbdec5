"""The complete spin-1 walkthrough.

At spin 1 everything can be written out: the two ladders are
tau[+1] = p_0 (j+1) + 2 p_1 and tau[-1] = p_0 j - 2 p_1.  Dressing them with
scalar spectral factors produces a Weyl pair (A, A+) whose counting operator
A+A measures j, and a deformed su(2) triple whose spectra read off (n, j)
directly.  The canonical basis of the whole space is generated from the
vacuum by ladder chains, and a single-mode form of the ladders exists built
from a+_0 alone.
"""

import numpy as np

from su2ladders import (SectorBlocks, build_families, canonical_basis_s1,
                        commutator, creation_op, demo_s1_operators,
                        enumerate_sector, jz_kernel, residual, su2_generators,
                        tau_bar_forms)
from su2ladders.casimir import s1_tau_bracket_ladder

basis = enumerate_sector(1, 5)
gens = su2_generators(basis)
families = build_families(basis, gens)
demo = demo_s1_operators(gens, families)

w0 = gens.weight0()
weyl = residual(w0.of(commutator(demo.a_op, demo.a_dag)),
                SectorBlocks.identity(w0.basis), 2)
print(f"[A, A+] = identity on the zero-weight interior: "
      f"{weyl.frobenius_relative:.2e}")

print("\neigenvalues on kernel nodes (n <= 4):")
ada = demo.a_dag @ demo.a_op
print("  node      A+A      L_z      L^2")
for n in range(5):
    for kv in jz_kernel(basis, gens, n):
        v = kv.vector
        vals = (np.vdot(v, ada.apply(v)).real,
                np.vdot(v, demo.l_z.apply(v)).real,
                np.vdot(v, demo.l_2.apply(v)).real)
        print(f"  (n={n}, j={kv.j})  {vals[0]:7.3f}  {vals[1]:7.3f}  "
              f"{vals[2]:7.3f}")
print("A+A counts j; L_z and L^2 give (n-j)/2 - (n+j)/4 and ell(ell+1)")
print("with ell = (n+j)/4: together they classify every state.")

print("\ncanonical basis from ladder chains out of the vacuum:")
vectors = canonical_basis_s1(basis, gens, families, 4)
mat = np.array([cv.vector for cv in vectors])
gram_gap = np.max(np.abs(mat.conj() @ mat.T - np.eye(len(vectors))))
print(f"  {len(vectors)} vectors, orthonormality gap {gram_gap:.2e}")
sample = next(cv for cv in vectors if (cv.n, cv.j, cv.jz) == (2, 2, 1))
amps = {basis.states[i]: round(float(sample.vector[i].real), 6)
        for i in np.flatnonzero(np.abs(sample.vector) > 1e-12)}
print(f"  |n=2, j=2, j_z=1> = {amps}")

print("\nsingle-mode ladder forms from a+_0 alone:")
tb = tau_bar_forms(basis, gens, families, creation_op(basis, 0))
print(f"  [j, [j, a+_0]] = a+_0 : {tb.double_commutator.frobenius_relative:.2e}")
print(f"  ladder relation residuals: {tb.rlo_plus.frobenius_relative:.2e} "
      f"(raising), {tb.rlo_minus.frobenius_relative:.2e} (lowering partner)")
print("  per-node ratio against the reference ladders is 1/(2j+1):")
for n, j, measured, expected in tb.node_ratios[:4]:
    print(f"    node (n={n}, j={j}): measured {measured:.6f}, "
          f"expected {expected:.6f}")

bracket = s1_tau_bracket_ladder(gens, families)
print("\nbracket of the ladder pair as a j-ladder:")
print(f"  [j, [tau+1, lowering tau-1]] = 2[...]: "
      f"{bracket['mixed_pair_shift2'].frobenius_relative:.2e}")
print(f"  the two raising ladders' bracket commutes with j instead: "
      f"{bracket['raising_pair_commutes'].frobenius_relative:.2e}")
