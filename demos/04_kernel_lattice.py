"""The (n, j) lattice: how the ladders move kernel states around.

Each tau[theta] raises the particle number by one and shifts the label j by
theta; its adjoint undoes both.  Mapping every kernel node records which
moves exist, which states are annihilated, and how the annihilation pattern
follows the stated rules plus plain geometry (a missing target node forces
a zero image).  Lowering pairs generate deformed-algebra generators whose
representations are labeled by j mod omega.
"""

from su2ladders import (build_families, build_taus, commutator_residual,
                        deformed_generators, enumerate_sector, lattice_report,
                        residue_classes, su2_generators)

s = 2
basis = enumerate_sector(s, 5)
gens = su2_generators(basis)
families = build_families(basis, gens)
taus = build_taus(families, gens)
report = lattice_report(basis, gens, taus, 4)

print(f"kernel nodes for spin {s} (n <= 4):")
for (n, j), dim in sorted(report.node_dims.items()):
    print(f"  (n={n}, j={j}) dim {dim}")

print("\naction of tau[+2] and its adjoint:")
for arrow in report.arrows:
    if arrow.operator in ("tau_dag[+2]", "tau[+2]") and arrow.source[0] <= 2:
        where = f"-> {arrow.target}" if arrow.target else "annihilated"
        print(f"  {arrow.operator} {arrow.source} {where}"
              + (f"  amplitude {arrow.amplitude:.3f}" if arrow.target else ""))

print("\nannihilations of the lowering family tau[-1]:")
for arrow in report.arrows:
    if arrow.operator == "tau[-1]" and arrow.annihilated:
        print(f"  tau[-1] kills {arrow.source}")

print("\ndeformed-algebra generators from the lowering pairs:")
w0 = gens.weight0()
for omega in (1, 2):
    lz, l2 = deformed_generators(taus[-omega])
    print(f"  omega={omega}: L_z hermitian gap "
          f"{(lz - lz.adjoint()).norm():.1e}, "
          f"[L^2, J^2] residual "
          f"{commutator_residual(l2, w0.J2, 2).frobenius_relative:.2e}")
    classes = residue_classes(report, omega)
    print(f"    residue classes j mod {omega}: "
          + ", ".join(f"r={r}: {len(nodes)} nodes"
                      for r, nodes in sorted(classes.items())))
