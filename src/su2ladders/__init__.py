"""Bosonic realization of su(2) on truncated Fock spaces, with generalized
ladder operators for the Casimir operator and a numerical certification
suite.

The pieces, bottom up:

- ``fock``: enumeration and indexing of truncated multi-mode Fock bases.
- ``operators``: sparse operator algebra, dense (n, weight) sector-block
  operators, and truncation-aware interior residuals read alike on both.
- ``schwinger``: the bilinear bosonic map, su(2) generators, the Casimir,
  the label operator j and every function of it as sector blocks,
  zero-weight kernel extraction, and the weight-0 slice of the same blocks.
- ``jpoly`` / ``ladder``: exact rational polynomials, ladder-operator checks,
  the tridiagonal closure matrix, right functions theta(theta + 2j + 1) with
  exact determinant certificates, and the sigma back-substitution.
- ``casimir``: the p/m operator families, assembled ladders tau[theta], the
  (n, j) kernel lattice, deformed-algebra generators, and the complete
  spin-1 walkthrough (Weyl pair, deformed su(2) triple, canonical basis).
- ``bruteforce``: independent dense oracles the pipeline is checked against.
- ``verify``: the certification suite and machine-readable reports.
- ``cli``: the ``su2ladders`` command.
"""

from .fock import SectorBasis, dimension, enumerate_sector
from .operators import (BasisMismatchError, EmptyInteriorError,
                        ResidualReport, SectorBlocks, SparseOperator,
                        annihilation_op, commutator, commutator_residual,
                        creation_op, number_op, residual, zero_residual)
from .schwinger import (KernelVector, SpectralDecomposition,
                        SpectralFunctionError, Su2Generators, Weight0View,
                        WeightLeakError, jordan_schwinger, jz_kernel,
                        su2_generators)
from .jpoly import JPoly, poly_matrix_det
from .ladder import (AlphaMatrix, ConsistencyError, PreconditionError,
                     RightFunction, RightFunctionError, SigmaVector,
                     build_alpha, check_llo, check_power_identity, check_rlo,
                     check_rlo_compose, det_certificate, family_for_theta,
                     right_function_poly, right_functions, solve_sigma)
from .casimir import (CanonicalVector, DemoS1Operators, GradeError,
                      KernelLatticeReport, LadderFamily, LatticeArrow,
                      TauOperator,
                      assemble_tau, build_alpha_certified, build_families,
                      build_taus, canonical_basis_s1, certify_alpha,
                      complete_set_check, deformed_generators,
                      demo_s1_operators, expression_match_scale,
                      lattice_report, residue_classes,
                      resolvent_commutator_check,
                      resolvent_commutator_checks, s1_reference_taus,
                      tau_bar_forms, tau_casimir_ladder_residual,
                      tau_certificates, tau_shift_residual)
from .verify import (SuiteConfig, VerificationReport, export_report,
                     run_suite)

__version__ = "0.1.0"

__all__ = [
    "AlphaMatrix", "BasisMismatchError", "CanonicalVector",
    "ConsistencyError", "DemoS1Operators", "EmptyInteriorError",
    "GradeError", "JPoly",
    "KernelLatticeReport", "KernelVector", "LadderFamily", "LatticeArrow",
    "PreconditionError", "ResidualReport", "RightFunction",
    "RightFunctionError", "SectorBasis", "SectorBlocks", "SigmaVector",
    "SparseOperator", "SpectralDecomposition", "SpectralFunctionError",
    "Su2Generators", "SuiteConfig", "TauOperator", "VerificationReport",
    "Weight0View", "WeightLeakError", "annihilation_op",
    "assemble_tau", "build_alpha", "build_alpha_certified",
    "build_families", "build_taus", "canonical_basis_s1", "certify_alpha",
    "check_llo", "check_power_identity", "check_rlo", "check_rlo_compose",
    "commutator", "commutator_residual", "complete_set_check", "creation_op",
    "deformed_generators", "demo_s1_operators", "det_certificate",
    "dimension", "enumerate_sector", "export_report",
    "expression_match_scale", "family_for_theta", "jordan_schwinger",
    "jz_kernel", "lattice_report", "number_op", "poly_matrix_det",
    "residual", "residue_classes", "resolvent_commutator_check",
    "resolvent_commutator_checks",
    "right_function_poly", "right_functions", "run_suite",
    "s1_reference_taus", "solve_sigma", "su2_generators", "tau_bar_forms",
    "tau_casimir_ladder_residual", "tau_certificates", "tau_shift_residual",
    "zero_residual",
]
