"""One iteration of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --out FILE

run.py starts this with ``src`` on PYTHONPATH and BLAS pinned to one thread.
It times the workload's outputs (tracing off, or on with --trace 1), then
checks them outside the timed interval and writes one JSON result to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time

import su2ladders as S

#: (spins, n_max, number of checks run_suite must report)
VERIFY_CONFIGS = {
    "verify-ladder": [((1, 2), 4, 150), ((3,), 5, 88), ((4,), 4, 102)],
    "verify-s5": [((5,), 4, 116)],
}
BUILD_SPIN, BUILD_NMAX, BUILD_NLIMIT = 5, 5, 4
EXACT_SPINS = range(1, 14)
#: sha256 of the exact sigma table for s = 1..13 (canonical JSON, see
#: sigma_table); the rationals are unique, so any correct code reproduces it.
SIGMA_DIGEST = "165550531f90e67a3aef75e32a721ba179a3683bf718d8c0b97664c0b1964b66"


def config_key(spins, n_max) -> str:
    return ",".join(map(str, spins)) + f"@{n_max}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- workloads: each returns its outputs; this is the timed part --------------

def run_verify(configs):
    reports = {}
    for spins, n_max, _count in configs:
        report = S.run_suite(S.SuiteConfig(spins=list(spins), n_max=n_max))
        reports[config_key(spins, n_max)] = (report, report.to_json())
    return reports


def run_build():
    basis = S.enumerate_sector(BUILD_SPIN, BUILD_NMAX)
    gens = S.su2_generators(basis)
    families = S.build_families(basis, gens)
    taus = S.build_taus(families, gens, certify=True)
    return basis, taus, S.lattice_report(basis, gens, taus,
                                         n_limit=BUILD_NLIMIT)


def run_exact(spins):
    # The `su2ladders ladders` table, one spin at a time.
    table = {}
    for s in spins:
        rows = []
        for rf in S.right_functions(s):
            sigma = S.solve_sigma(S.build_alpha(s, rf.family), rf.theta)
            rows.append({
                "theta": rf.theta, "family": rf.family,
                "poly": rf.poly.to_pairs(),
                "sigma": {str(k): p.to_pairs()
                          for k, p in sorted(sigma.sigmas.items())},
            })
        table[s] = rows
    return table


# -- gates: each returns (checks run, checks failed, [(gate, passed)]) --------

def gate_verify(configs, reports):
    checks = failed = 0
    gates = []
    for spins, n_max, count in configs:
        key = config_key(spins, n_max)
        report, _text = reports[key]
        checks += len(report.checks)
        failed += report.failed_count
        gates.append((f"{key}: overall_pass", report.overall_pass))
        gates.append((f"{key}: {count} checks", len(report.checks) == count))
    return checks, failed, gates


def gate_build(outputs):
    basis, taus, lattice = outputs
    gates = [("dim", len(basis) == S.dimension(BUILD_SPIN, BUILD_NMAX)),
             ("one tau per theta",
              sorted(taus) == list(range(-BUILD_SPIN, BUILD_SPIN + 1)))]
    for n in range(BUILD_NLIMIT + 1):
        weight0 = int(((basis.totals == n) & (basis.weights == 0)).sum())
        nodes = sum(d for (m, _j), d in lattice.node_dims.items() if m == n)
        gates.append((f"n={n}: node_dims sum to weight0_dims",
                      nodes == lattice.weight0_dims[n] == weight0))
    # build_taus(certify=True) raises unless both certificates of every tau
    # (Casimir ladder, label shift) pass, so reaching here means 2 per tau.
    return 2 * len(taus), 0, gates


def continuant(rows):
    """det of a tridiagonal JPoly matrix by the three-term recurrence."""
    prev, cur = S.JPoly.one(), rows[0][0]
    for k in range(1, len(rows)):
        prev, cur = cur, rows[k][k] * cur - rows[k][k - 1] * rows[k - 1][k] * prev
    return cur


def gate_exact(spins, table):
    certificates = failed = 0
    gates = []
    for s in spins:
        thetas = [row["theta"] for row in table[s]]
        gates.append((f"s={s}: theta = -s..s", thetas == list(range(-s, s + 1))))
        for theta in thetas:
            # Independent of poly_matrix_det: det(A - theta(theta+2j+1) I)
            # by the continuant, on a matrix checked to be tridiagonal.
            rows = S.build_alpha(s, S.family_for_theta(s, theta)).as_rows()
            f = S.right_function_poly(theta)
            for i in range(len(rows)):
                rows[i][i] = rows[i][i] - f
            banded = all(rows[i][j].is_zero() for i in range(len(rows))
                         for j in range(len(rows)) if abs(i - j) > 1)
            certificates += 1
            failed += not (banded and continuant(rows).is_zero())
    gates.append(("sigma table digest", sigma_table(table) == SIGMA_DIGEST))
    return certificates, failed, gates


def sigma_table(table) -> str:
    return sha256(json.dumps([[s, table[s]] for s in sorted(table)],
                             sort_keys=True, separators=(",", ":")))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    if args.workload in VERIFY_CONFIGS:
        configs = list(VERIFY_CONFIGS[args.workload])
        rng.shuffle(configs)
        work, gate = (lambda: run_verify(configs)), (
            lambda out: gate_verify(configs, out))
    elif args.workload == "build-s5n5":
        work, gate = run_build, gate_build
    elif args.workload == "exact-ladders":
        spins = list(EXACT_SPINS)
        rng.shuffle(spins)
        work, gate = (lambda: run_exact(spins)), (
            lambda out: gate_exact(spins, out))
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    c0 = time.process_time()
    t0 = time.perf_counter()
    outputs = tracer.run(work) if tracer else work()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, failed, gates = gate(outputs)
    result = {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
        "checks": checks, "checks_failed": failed,
        "gates": [[name, bool(ok)] for name, ok in gates],
        "reports": ({key: sha256(text) for key, (_r, text) in outputs.items()}
                    if args.workload in VERIFY_CONFIGS else {}),
    }
    if tracer:
        result["traced_wall_s"] = tracer.wall_s
        result["per_layer"] = tracer.per_layer()
        tracer.dump(args.out + ".spans.json", args.workload, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
