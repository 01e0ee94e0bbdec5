"""Acceptance suite: every exit criterion at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` or ``-v``
to see them) and asserts at the stated tolerance.  Shared contexts come from
the session-cached fixture so repeated construction does not distort the
runtime limits, which are measured on fresh builds where stated.
"""

import time

import numpy as np

from su2ladders import bruteforce
from su2ladders.casimir import (demo_s1_operators, expression_match_scale,
                                lattice_report, s1_reference_taus,
                                tau_casimir_ladder_residual,
                                tau_shift_residual)
from su2ladders.fock import enumerate_sector
from su2ladders.ladder import (build_alpha, det_certificate, right_functions,
                               solve_sigma)
from su2ladders.operators import (SectorBlocks, commutator,
                                  commutator_residual, creation_op, residual)
from su2ladders.schwinger import jz_kernel, su2_generators
from su2ladders.verify import SuiteConfig, export_report, run_suite


def _report(number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {label}{suffix}")
    assert passed, f"criterion {number} failed: {label} {detail}"


def test_criterion_01_su2_relations():
    start = time.perf_counter()
    worst = 0.0
    for s in (1, 2, 3):
        basis = enumerate_sector(s, 5)
        g = su2_generators(basis)
        worst = max(
            worst,
            residual(commutator(g.Jz, g.Jplus), g.Jplus, 0).frobenius_relative,
            residual(commutator(g.Jz, g.Jminus), -1.0 * g.Jminus, 0
                     ).frobenius_relative,
            residual(commutator(g.Jplus, g.Jminus), 2.0 * g.Jz, 0
                     ).frobenius_relative,
            commutator_residual(g.Ntot, g.Jz, 0).frobenius_relative,
            commutator_residual(g.Ntot, g.Jplus, 0).frobenius_relative,
            commutator_residual(g.Ntot, g.Jminus, 0).frobenius_relative,
            commutator_residual(g.J2, g.Jplus, 0).frobenius_relative,
            commutator_residual(g.J2, g.Jminus, 0).frobenius_relative)
    elapsed = time.perf_counter() - start
    _report(1, "su(2) relations < 1e-12 for s in {1,2,3}, n_max=5",
            worst < 1e-12 and elapsed < 10.0,
            f"worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_label_operator(ctx):
    worst_def = 0.0
    worst_snap = 0.0
    ok_range = True
    for s in (1, 2, 3):
        g = ctx(s, 5).gens
        jh = g.j_hat()
        worst_def = max(worst_def, residual(jh @ jh + jh, g.j2_blocks(), 0
                                            ).frobenius_relative)
        for (n, w), js in g.j_values_by_sector().items():
            for j in js:
                label = round(float(j))
                worst_snap = max(worst_snap, abs(float(j) - label))
                ok_range = ok_range and 0 <= label <= n * s
    _report(2, "label operator: defining identity < 1e-10, spectrum "
            "integer within 1e-6 in [0, n*s]",
            worst_def < 1e-10 and worst_snap < 1e-6 and ok_range,
            f"identity={worst_def:.2e}, snap={worst_snap:.2e}")


def test_criterion_03_symbolic_certificates():
    start = time.perf_counter()
    ok = True
    for s in (1, 2, 3, 4):
        for rf in right_functions(s):
            ok = ok and det_certificate(s, rf.family, rf.theta).is_zero()
            sigma = solve_sigma(build_alpha(s, rf.family), rf.theta)
            ok = ok and sigma.sigmas[s].coeffs == (1,)
        for family in ("p", "m"):
            ok = ok and not det_certificate(s, family, s + 1).is_zero()
        ok = ok and all(rf.family == ("p" if (rf.theta - s) % 2 == 0 else "m")
                        for rf in right_functions(s))
    elapsed = time.perf_counter() - start
    _report(3, "exact determinant and consistency certificates, s <= 4",
            ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_04_tau_ladder_property(ctx):
    worst = 0.0
    for s in (1, 2):
        c = ctx(s, 4)
        for theta, tau in sorted(c.taus.items()):
            worst = max(
                worst,
                tau_casimir_ladder_residual(tau, c.gens).frobenius_relative,
                tau_shift_residual(tau, c.gens).frobenius_relative)
    _report(4, "tau ladder relations < 1e-8 on weight-0 interior, "
            "s in {1,2}, n_max=4", worst < 1e-8, f"worst={worst:.2e}")


def test_criterion_05_s1_expression_match(ctx):
    c = ctx(1, 4)
    tau_plus_ref, tau_minus_ref = s1_reference_taus(c.gens, c.families)
    scale_p, res_p = expression_match_scale(c.taus[1].op, tau_plus_ref)
    scale_m, res_m = expression_match_scale(c.taus[-1].op, tau_minus_ref)
    ok = (abs(scale_p - 2.0) < 1e-9 and abs(scale_m + 2.0) < 1e-9
          and res_p < 1e-10 and res_m < 1e-10)
    _report(5, "assembled tau[+/-1] match the explicit spin-1 expressions "
            "up to one rational scale, residual < 1e-10",
            ok, f"scales ({scale_p}, {scale_m}), residuals "
            f"({res_p:.2e}, {res_m:.2e})")


def test_criterion_06_s1_demo_block(ctx):
    c = ctx(1, 5)
    demo = demo_s1_operators(c.gens, c.families)
    w0 = c.gens.weight0()
    weyl = residual(w0.of(commutator(demo.a_op, demo.a_dag)),
                    SectorBlocks.identity(w0.basis), 2).frobenius_relative
    ada = demo.a_dag @ demo.a_op
    worst_eigen = 0.0
    for n in range(5):
        for kv in jz_kernel(c.basis, c.gens, n):
            m = (n - kv.j) / 2.0 - (n + kv.j) / 4.0
            ell = (n + kv.j) / 4.0
            worst_eigen = max(
                worst_eigen,
                float(np.linalg.norm(ada.apply(kv.vector) - kv.j * kv.vector)),
                float(np.linalg.norm(demo.l_z.apply(kv.vector)
                                     - m * kv.vector)),
                float(np.linalg.norm(demo.l_2.apply(kv.vector)
                                     - ell * (ell + 1) * kv.vector)))
    ad0 = w0.of(creation_op(c.basis, 0))
    double = residual(commutator(w0.j, commutator(w0.j, ad0)), ad0,
                      1).frobenius_relative
    ok = weyl < 1e-8 and worst_eigen < 1e-8 and double < 1e-8
    _report(6, "spin-1 demo block (Weyl pair, counting operator, deformed "
            "su(2) spectra, double commutator) < 1e-8",
            ok, f"weyl={weyl:.2e}, eigen={worst_eigen:.2e}, "
            f"double={double:.2e}")


def test_criterion_07_lattice_diagram(ctx):
    c = ctx(1, 5)
    rep = lattice_report(c.basis, c.gens, c.taus, 3)
    nodes = {k: v for k, v in rep.node_dims.items()}
    expected = {(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 2): 1,
                (3, 1): 1, (3, 3): 1}
    dims_ok = True
    dims = []
    for j in range(0, 4):
        kvs = [kv for kv in jz_kernel(c.basis, c.gens, j) if kv.j == j]
        count = 1
        for ladder in (c.gens.Jplus, c.gens.Jminus):
            v = kvs[0].vector
            while True:
                v = ladder.apply(v)
                norm = np.linalg.norm(v)
                if norm < 1e-9:
                    break
                v = v / norm
                count += 1
        dims.append(count)
        dims_ok = dims_ok and count == 2 * j + 1
    _report(7, "spin-1 lattice nodes (0,0),(1,1),(2,0),(2,2),(3,1),(3,3) all "
            "one-dimensional; irrep dimensions 1,3,5,7",
            nodes == expected and dims_ok and dims == [1, 3, 5, 7],
            f"nodes={sorted(nodes)}, dims={dims}")


def test_criterion_08_annihilation_claims(ctx):
    failures = []
    for s in (1, 2):
        c = ctx(s, 5)
        rep = lattice_report(c.basis, c.gens, c.taus, 4)
        # Every vector of a node has its arrow: a required annihilation
        # must take them all, a forbidden one any of them.
        flags = {}
        for arrow in rep.arrows:
            flags.setdefault((arrow.operator, arrow.source), []).append(
                arrow.annihilated)
        for (n, j) in sorted(rep.node_dims):
            for omega in range(1, s + 1):
                if (key := (f"tau[{omega:+d}]", (n, j))) in flags:
                    if (j < omega or n == 0) and not all(flags[key]):
                        failures.append(f"s={s}: tau[{omega}] kept {key[1]}")
                if (key := (f"tau[{-omega:+d}]", (n, j))) in flags:
                    if ((n == 0 or j > (n - 1) * s - omega)
                            and not all(flags[key])):
                        failures.append(f"s={s}: tau[{-omega}] kept {key[1]}")
                if (key := (f"tau_dag[{-omega:+d}]", (n, j))) in flags:
                    if j < omega and not all(flags[key]):
                        failures.append(
                            f"s={s}: tau_dag[{-omega}] kept {key[1]}")
                if (key := (f"tau_dag[{omega:+d}]", (n, j))) in flags:
                    if omega % 2 == s % 2 and any(flags[key]):
                        failures.append(
                            f"s={s}: tau_dag[{omega}] annihilated {key[1]}")
                    if omega % 2 != s % 2 and n == 1 and not all(flags[key]):
                        failures.append(
                            f"s={s}: tau_dag[{omega}] kept one-particle "
                            f"state {key[1]}")
    _report(8, "kernel and annihilation claims for s in {1,2}, nodes n <= 4",
            not failures, "; ".join(failures[:4]))


def test_criterion_09_oracle_equivalence(ctx):
    mismatches = []
    for s in (1, 2):
        c = ctx(s, 5)
        rep = lattice_report(c.basis, c.gens, c.taus, 4)
        for n in range(0, 5):
            got = {j: d for (nn, j), d in rep.node_dims.items() if nn == n}
            want = bruteforce.j_multiplicities(s, n)
            if got != want:
                mismatches.append(f"s={s}, n={n}: {got} != {want}")
    _report(9, "j multiplicities from the lattice equal brute-force "
            "diagonalization counts (s <= 2, n <= 4)",
            not mismatches, "; ".join(mismatches[:3]))


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for tag in ("first", "second"):
        config = SuiteConfig(spins=[1, 2], n_max=4)
        report = run_suite(config)
        path = tmp_path / f"{tag}.json"
        export_report(report, str(path))
        blobs.append(path.read_bytes())
    _report(10, "two consecutive verify runs produce byte-identical JSON",
            blobs[0] == blobs[1],
            f"{len(blobs[0])} bytes each")
