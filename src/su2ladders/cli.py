"""Command-line interface: verification runs and artifact dumps.

Subcommands:
  verify    run the full certification suite, emit a JSON/CSV report
  spectrum  Casimir spectrum per (n, weight) sector with j labels
  ladders   exact sigma table and right functions for one spin
  kernel    the (n, j) lattice report as JSON
  basis     Fock basis dump, or the spin-1 canonical basis with --canonical
  dump-op   one named operator in coordinate-triplet JSON

Reports and dumps go to stdout (or --out FILE); progress and summaries go to
stderr.  ``verify`` exits 0 iff every check passed, otherwise with the number
of failed checks.  The environment variable SU2LADDERS_TOLERANCE overrides
the default tolerance of every check not pinned via --tolerance-override;
the --tolerance flag takes precedence over the environment.  A refused input
(a flag's value, or SU2LADDERS_TOLERANCE when read) is a usage error: exit 2,
a message naming the flag or variable, and no output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .casimir import (build_families, build_taus, canonical_basis_s1,
                      lattice_report)
from .fock import enumerate_sector
from .ladder import build_alpha, right_functions, solve_sigma
from .operators import (SparseOperator, annihilation_op, creation_op,
                        number_op)
from .schwinger import su2_generators
from .verify import SuiteConfig, run_suite

TOLERANCE_ENV_VAR = "SU2LADDERS_TOLERANCE"


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"cannot write to {out_path!r}: {exc}")
    else:
        sys.stdout.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``, else a usage error naming
    the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return parse


_positive_int, _natural = _int_at_least(1), _int_at_least(0)


def _positive_ints(text: str) -> list[int]:
    """An argparse type: a comma-separated list of integers >= 1."""
    values = [_positive_int(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError("no value given")
    return values


def _tolerance(text: str) -> float:
    """An argparse type: a finite number >= 0."""
    try:
        if 0 <= float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")


def _tolerance_override(text: str) -> tuple[str, float]:
    """An argparse type: NAME=VALUE, VALUE a tolerance (``_tolerance``)."""
    name, _, value = text.partition("=")
    if not name or not value:
        raise argparse.ArgumentTypeError(f"{text!r} is not NAME=VALUE")
    return name, _tolerance(value)


def _sector(text: str) -> tuple[int, int]:
    """An argparse type: N,W, two integers such as 2,0."""
    try:
        n, w = map(int, text.split(","))
        return n, w
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not N,W")


def _cmd_verify(args) -> int:
    default_tol = args.tolerance
    if default_tol is None and os.environ.get(TOLERANCE_ENV_VAR):
        try:
            default_tol = _tolerance(os.environ[TOLERANCE_ENV_VAR])
        except argparse.ArgumentTypeError as exc:
            args.usage_error(f"{TOLERANCE_ENV_VAR}: {exc}")
    config = SuiteConfig(spins=args.spin, n_max=args.nmax,
                         tolerance_overrides=dict(args.tolerance_override or ()),
                         output_format=args.format,
                         default_tolerance=default_tol)
    report = run_suite(config)
    payload = report.to_json() if args.format == "json" else report.to_csv()
    _emit(payload, args.out)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return 0 if report.overall_pass else min(report.failed_count, 255)


def _cmd_spectrum(args) -> int:
    basis = enumerate_sector(args.spin, args.nmax)
    gens = su2_generators(basis)
    rows = []
    for key, _block, vals, _vecs, js in gens.j2_sectors():
        if args.sector and key != args.sector:
            continue
        labels = js.tolist()
        counts = Counter(labels)
        for lam, j in zip(vals.tolist(), labels):
            rows.append((key[0], key[1], lam, j, counts[j]))
    if args.format == "json":
        payload = _json_dump([{"n": n, "weight": w, "eigenvalue": lam,
                               "j": j, "multiplicity": m}
                              for n, w, lam, j, m in rows])
    else:
        lines = ["sector_n,sector_weight,eigenvalue,j_label,multiplicity"]
        lines += [f"{n},{w},{lam!r},{j},{m}" for n, w, lam, j, m in rows]
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return 0


def _cmd_ladders(args) -> int:
    s = args.spin
    payload = {"spin": s, "right_functions": [], "sigmas": []}
    for rf in right_functions(s):
        payload["right_functions"].append({
            "theta": rf.theta,
            "family": rf.family,
            "poly": rf.poly.to_pairs(),
        })
        sigma = solve_sigma(build_alpha(s, rf.family), rf.theta)
        payload["sigmas"].append({
            "theta": rf.theta,
            "family": rf.family,
            "sigma": {str(k): poly.to_pairs()
                      for k, poly in sorted(sigma.sigmas.items())},
        })
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_kernel(args) -> int:
    basis = enumerate_sector(args.spin, args.nmax)
    gens = su2_generators(basis)
    families = build_families(basis, gens)
    taus = build_taus(families, gens, certify=False)
    report = lattice_report(basis, gens, taus, args.nmax - 1)
    _emit(_json_dump(report.to_json_dict()), args.out)
    return 0


def _cmd_basis(args) -> int:
    if args.canonical:
        if args.spin != 1:
            args.usage_error("argument --canonical: needs --spin 1")
        basis = enumerate_sector(1, args.nmax)
        gens = su2_generators(basis)
        families = build_families(basis, gens)
        vectors = canonical_basis_s1(basis, gens, families, args.nmax - 1)
        payload = []
        for cv in vectors:
            amps = []
            for i in np.flatnonzero(np.abs(cv.vector) > 1e-12):
                amps.append([list(basis.states[i]),
                             float(cv.vector[i].real),
                             float(cv.vector[i].imag)])
            payload.append({"n": cv.n, "j": cv.j, "jz": cv.jz,
                            "vector": amps})
        _emit(_json_dump(payload), args.out)
        return 0
    if args.n is not None and args.n > args.nmax:
        args.usage_error(f"argument --n: {args.n} is above --nmax {args.nmax}")
    basis = enumerate_sector(args.spin, args.nmax, n=args.n,
                             weight=args.weight)
    _emit(_json_dump(basis.to_json_list()), args.out)
    return 0


def _resolve_operator(name: str, basis, gens, families, taus, error):
    """The operator ``name``; ``error`` refuses a name it cannot build."""
    if ":" in name:
        kind, _, arg = name.partition(":")
        s = basis.spin
        # kind -> (lowest index, the operator at an index up to s)
        indexed = {
            "a": (-s, lambda v: annihilation_op(basis, v)),
            "adag": (-s, lambda v: creation_op(basis, v)),
            "n": (-s, lambda v: number_op(basis, v)),
            "p": (0, lambda v: families().p_ops[v]),
            "m": (1, lambda v: families().m_ops[v - 1]),
            "tau": (-s, lambda v: taus()[v].op),
            "taulow": (-s, lambda v: taus()[v].op.adjoint()),
        }
        if kind not in indexed:
            error(f"argument --op: unknown operator kind {kind!r}")
        low, build = indexed[kind]
        try:
            value = int(arg)
        except ValueError:
            error(f"argument --op: {name!r} needs an integer after ':'")
        if not low <= value <= s:
            error(f"argument --op: operator {name!r}: the index must lie in "
                  f"{low}..{s} at spin {s}")
        return build(value)
    plain = {
        "N": lambda: gens.Ntot,
        "Jz": lambda: gens.Jz,
        "Jp": lambda: gens.Jplus,
        "Jm": lambda: gens.Jminus,
        "J2": lambda: gens.J2,
        "jhat": lambda: gens.j_hat(),
        "I": lambda: SparseOperator.identity(basis),
    }
    if name not in plain:
        error(f"argument --op: unknown operator {name!r}; use one of "
              f"{sorted(plain)} or a:<mu>, adag:<mu>, n:<mu>, p:<k>, m:<k>, "
              "tau:<theta>, taulow:<theta>")
    return plain[name]()


def _cmd_dump_op(args) -> int:
    basis = enumerate_sector(args.spin, args.nmax)
    gens = su2_generators(basis)
    families = functools.cache(lambda: build_families(basis, gens))
    taus = functools.cache(lambda: build_taus(families(), gens, certify=False))
    op = _resolve_operator(args.op, basis, gens, families, taus,
                           args.usage_error)
    _emit(_json_dump(op.to_coo_json()), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2ladders",
        description="Bosonic su(2) ladder construction and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the certification suite")
    v.add_argument("--spin", type=_positive_ints, default="1,2",
                   help="comma-separated list of spins (default 1,2)")
    v.add_argument("--nmax", type=_positive_int, default=4)
    v.add_argument("--tolerance", type=_tolerance, default=None,
                   help="replace the default tolerance of every check")
    v.add_argument("--tolerance-override", action="append", metavar="NAME=VAL",
                   type=_tolerance_override,
                   help="per-check tolerance override (repeatable)")
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify, usage_error=v.error)

    sp = sub.add_parser("spectrum", help="Casimir spectrum with j labels")
    sp.add_argument("--spin", type=_positive_int, required=True)
    sp.add_argument("--nmax", type=_natural, required=True)
    sp.add_argument("--sector", type=_sector, default=None, metavar="N,W")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_spectrum)

    la = sub.add_parser("ladders", help="sigma table and right functions")
    la.add_argument("--spin", type=_positive_int, required=True)
    la.add_argument("--out", default=None)
    la.set_defaults(func=_cmd_ladders)

    ke = sub.add_parser("kernel", help="(n, j) lattice report")
    ke.add_argument("--spin", type=_positive_int, required=True)
    ke.add_argument("--nmax", type=_positive_int, required=True)
    ke.add_argument("--out", default=None)
    ke.set_defaults(func=_cmd_kernel)

    ba = sub.add_parser("basis", help="basis dumps")
    ba.add_argument("--spin", type=_natural, required=True)
    ba.add_argument("--nmax", type=_natural, required=True)
    ba.add_argument("--n", type=_natural, default=None)
    ba.add_argument("--weight", type=int, default=None)
    ba.add_argument("--canonical", action="store_true",
                    help="spin-1 canonical basis vectors")
    ba.add_argument("--out", default=None)
    ba.set_defaults(func=_cmd_basis, usage_error=ba.error)

    du = sub.add_parser("dump-op", help="export one operator as JSON")
    du.add_argument("--spin", type=_positive_int, required=True)
    du.add_argument("--nmax", type=_natural, required=True)
    du.add_argument("--op", required=True)
    du.add_argument("--out", default=None)
    du.set_defaults(func=_cmd_dump_op, usage_error=du.error)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
