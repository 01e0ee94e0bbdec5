"""Verification suite: run every certified identity and emit a machine report.

The suite walks the construction in dependency order for each configured
spin: Fock/operator invariants, su(2) and Casimir checks, exact symbolic
certificates, assembled-ladder relations, resolvent and lattice checks,
deformed generators, and the full spin-1 walkthrough.  Hard errors inside a
check are captured as failed entries, never as crashes.  Reports are
deterministic: identical configurations produce byte-identical JSON.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import bruteforce
from .casimir import (alpha_entry_deviation, build_alpha_certified,
                      build_families, build_taus, canonical_basis_s1,
                      certify_alpha, complete_set_check, deformed_generators,
                      demo_s1_operators, expression_match_scale,
                      lattice_report, residue_classes,
                      resolvent_commutator_check, s1_full_closure_residuals,
                      s1_inverse_expressions, s1_mutual_commutators,
                      s1_reference_taus, s1_tau_bracket_ladder, tau_bar_forms,
                      tau_casimir_ladder_residual, tau_shift_residual)
from .fock import dimension, enumerate_sector
from .ladder import (M_FAMILY, P_FAMILY, build_alpha, build_alpha_variant_diag4,
                     check_llo, check_power_identity, check_rlo,
                     check_rlo_compose, det_certificate, right_functions,
                     sigma_closed_form_next_to_top, solve_sigma)
from .operators import (EmptyInteriorError, SparseOperator, annihilation_op,
                        commutator, commutator_residual, creation_op,
                        residual, zero_residual)
from .schwinger import jordan_schwinger, jz_kernel, su2_generators

DEFAULT_TOLERANCE = 1e-10

#: Identity anchors that the suite must cover (audited by a registry test).
REQUIRED_ANCHORS = frozenset({
    "weyl-algebra",
    "number-ladder",
    "vacuum-state",
    "canonical-matrix-elements",
    "jordan-schwinger-map",
    "total-number-image",
    "su2-commutators",
    "n-centrality",
    "casimir-centrality",
    "canonical-su2-action",
    "j-operator",
    "single-particle-irrep",
    "jz-kernel",
    "rlo-definition",
    "llo-definition",
    "power-identity",
    "rlo-composition",
    "closure-tridiagonal",
    "family-closure-kernel",
    "casimir-closure-full",
    "right-function-family",
    "right-function-parity",
    "determinant-certificate",
    "sigma-recurrence",
    "sigma-closed-form",
    "family-number-ladder",
    "family-jz-commuting",
    "tau-casimir-ladder",
    "tau-label-shift",
    "resolvent-ladder-right",
    "resolvent-ladder-left",
    "tau-complete-set",
    "complete-set-separation",
    "lattice-action",
    "tau-annihilation-rules",
    "tau-trivial-kernel-parity",
    "tau-zero-preserves-j",
    "deformed-algebra-generators",
    "residue-classes",
    "multiplicity-oracle",
    "s1-family-definitions",
    "s1-family-commutators",
    "s1-m1-annihilates-kernel",
    "s1-tau-expressions",
    "s1-weyl-pair",
    "s1-number-like-spectrum",
    "s1-deformed-su2-spectrum",
    "s1-lattice-diagram",
    "irrep-dimensions",
    "s1-canonical-basis",
    "s1-inverse-expressions",
    "s1-label-commutators",
    "s1-bracket-ladder",
    "s1-single-mode-ladders",
    "s1-double-commutator",
})


@dataclass
class SuiteConfig:
    """Configuration for one suite run.

    ``n_max`` >= 2 is the smallest size that exercises any ladder
    nontrivially; n_max = 1 is accepted and simply records empty-restriction
    failures for the checks whose margin exceeds it.  ``parallelism`` is an
    accepted hint only: execution is sequential so reports are deterministic
    regardless of its value.
    """
    spins: list[int] = field(default_factory=lambda: [1, 2])
    n_max: int = 4
    tolerance_overrides: dict[str, float] = field(default_factory=dict)
    output_format: str = "json"
    parallelism: int = 1
    default_tolerance: Optional[float] = None

    def validate(self) -> None:
        if not self.spins or any(
                not isinstance(s, int) or s < 1 for s in self.spins):
            raise ValueError("spins must be a non-empty list of integers >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be 'json' or 'csv'")

    def tolerance_for(self, name: str, spec_default: float) -> float:
        if name in self.tolerance_overrides:
            return float(self.tolerance_overrides[name])
        if self.default_tolerance is not None:
            return float(self.default_tolerance)
        return spec_default


@dataclass
class CheckResult:
    name: str
    anchor: str
    params: dict
    residual: Optional[float]
    tolerance: Optional[float]
    passed: bool
    detail: str = ""
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        # wall_time is intentionally excluded: reports must be byte-stable.
        return {
            "name": self.name,
            "anchor": self.anchor,
            "params": self.params,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    config: SuiteConfig
    checks: list[CheckResult] = field(default_factory=list)
    discrepancies: list[dict] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_count(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "spins": list(self.config.spins),
                "n_max": self.config.n_max,
                "tolerance_overrides": dict(self.config.tolerance_overrides),
                "output_format": self.config.output_format,
                "parallelism": self.config.parallelism,
                "default_tolerance": self.config.default_tolerance,
            },
            "overall_pass": self.overall_pass,
            "counts": {
                "total": len(self.checks),
                "passed": len(self.checks) - self.failed_count,
                "failed": self.failed_count,
            },
            "checks": [c.to_json_dict() for c in self.checks],
            "discrepancies": self.discrepancies,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("check,anchor,params,residual,tolerance,passed\n")
        for c in self.checks:
            params = ";".join(f"{k}={v}" for k, v in sorted(c.params.items()))
            res = "" if c.residual is None else repr(c.residual)
            tol = "" if c.tolerance is None else repr(c.tolerance)
            out.write(f"{c.name},{c.anchor},{params},{res},{tol},{c.passed}\n")
        return out.getvalue()

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(c.params.items()))
            res = "" if c.residual is None else f" residual={c.residual:.3e}"
            lines.append(f"{status} {c.name} [{params}]{res}"
                         f" time={c.wall_time:.3f}s"
                         + (f" ({c.detail})" if c.detail and not c.passed else ""))
        lines.append(f"{'PASS' if self.overall_pass else 'FAIL'}: "
                     f"{len(self.checks) - self.failed_count}/{len(self.checks)} "
                     "checks passed")
        return lines


class _Runner:
    def __init__(self, config: SuiteConfig, report: VerificationReport):
        self.config = config
        self.report = report

    def run(self, name: str, anchor: str, params: dict, spec_tol: float,
            fn: Callable[[float], tuple[Optional[float], bool, str]]) -> None:
        tol = self.config.tolerance_for(name, spec_tol)
        start = time.perf_counter()
        try:
            value, passed, detail = fn(tol)
            # Checks may hand back numpy scalars; reports hold plain types.
            value = None if value is None else float(value)
            passed = bool(passed)
        except EmptyInteriorError as exc:
            value, passed, detail = None, False, f"empty restriction: {exc}"
        except Exception as exc:  # hard errors become failed checks
            value, passed, detail = None, False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.report.checks.append(CheckResult(
            name=name, anchor=anchor, params=params, residual=value,
            tolerance=tol, passed=passed, detail=detail, wall_time=elapsed))

    def residual_check(self, name, anchor, params, spec_tol, make_report):
        def fn(tol):
            rep = make_report()
            return rep.frobenius_relative, rep.frobenius_relative < tol, ""
        self.run(name, anchor, params, spec_tol, fn)


class _SpinContext:
    """Lazily built per-spin objects shared across checks."""

    def __init__(self, s: int, n_max: int):
        self.s = s
        self.n_max = n_max
        self.basis = enumerate_sector(s, n_max)
        self.gens = su2_generators(self.basis)
        self._families = None
        self._taus = None
        self._lattice = None
        self._complete_set = None
        self._s1_inverse = None

    @property
    def families(self):
        if self._families is None:
            self._families = build_families(self.basis, self.gens)
        return self._families

    @property
    def taus(self):
        if self._taus is None:
            self._taus = build_taus(self.families, self.gens, certify=False)
        return self._taus

    @property
    def complete_set(self):
        if self._complete_set is None:
            self._complete_set = complete_set_check(
                self.basis, self.gens, self.taus, min(self.n_max, 4), margin=2)
        return self._complete_set

    @property
    def s1_inverse(self):
        if self._s1_inverse is None:
            self._s1_inverse = s1_inverse_expressions(self.gens, self.families)
        return self._s1_inverse

    def lattice(self, n_limit):
        if self._lattice is None or self._lattice.n_limit != n_limit:
            self._lattice = lattice_report(self.basis, self.gens, self.taus,
                                           n_limit)
        return self._lattice


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute every check for the configured spins, in dependency order."""
    config.validate()
    report = VerificationReport(config=config)
    runner = _Runner(config, report)
    for s in config.spins:
        ctx = _SpinContext(s, config.n_max)
        _fock_operator_checks(runner, ctx)
        _schwinger_checks(runner, ctx)
        _engine_checks(runner, ctx)
        _symbolic_checks(runner, ctx, report)
        _tau_checks(runner, ctx)
        _lattice_checks(runner, ctx)
        _deformed_checks(runner, ctx)
        if s == 1:
            _s1_demo_checks(runner, ctx, report)
    return report


# -- check blocks ----------------------------------------------------------------


def _fock_operator_checks(r: _Runner, ctx: _SpinContext) -> None:
    s, basis = ctx.s, ctx.basis
    p = {"s": s}

    def roundtrip(tol):
        ok = all(basis.state_index(st) == i for i, st in enumerate(basis.states))
        return None, ok, "" if ok else "index map is not the inverse of states"
    r.run("basis-roundtrip", "jz-kernel", p, DEFAULT_TOLERANCE, roundtrip)

    def counting(tol):
        ok = len(basis) == dimension(s, basis.n_max)
        parts = sum(len(enumerate_sector(s, basis.n_max, n=n))
                    for n in range(basis.n_max + 1))
        ok = ok and parts == len(basis)
        return None, ok, "" if ok else "sector sizes disagree with the count formula"
    r.run("basis-counting", "jz-kernel", p, DEFAULT_TOLERANCE, counting)

    ident = SparseOperator.identity(basis)

    def weyl(tol):
        worst = 0.0
        for mu in range(-s, s + 1):
            for nu in range(-s, s + 1):
                c = commutator(annihilation_op(basis, mu), creation_op(basis, nu))
                target = ident if mu == nu else SparseOperator.zeros(basis)
                rep = residual(c, target, 1)
                worst = max(worst, rep.frobenius_relative
                            if mu == nu else rep.frobenius_absolute)
        return worst, worst < tol, ""
    r.run("weyl-pair-commutator", "weyl-algebra", p, 1e-12, weyl)

    r.residual_check(
        "number-ladder", "number-ladder", p, 1e-12,
        lambda: residual(commutator(ctx.gens.Ntot, creation_op(basis, 0)),
                         creation_op(basis, 0), 1))

    def vacuum(tol):
        vac = basis.unit_vector((0,) * basis.modes)
        worst = max(float(np.linalg.norm(annihilation_op(basis, mu).apply(vac)))
                    for mu in range(-s, s + 1))
        return worst, worst == 0.0, ""
    r.run("vacuum-annihilation", "vacuum-state", p, DEFAULT_TOLERANCE, vacuum)

    def matrix_elements(tol):
        vac = (0,) * basis.modes
        one = vac[:s] + (1,) + vac[s + 1:]
        two = vac[:s] + (2,) + vac[s + 1:]
        dev = abs(creation_op(basis, 0).entry(one, vac) - 1.0)
        dev = max(dev, abs(annihilation_op(basis, 0).entry(one, two)
                           - math.sqrt(2)))
        return dev, dev < tol, ""
    r.run("matrix-element-amplitudes", "canonical-matrix-elements", p,
          1e-12, matrix_elements)


def _schwinger_checks(r: _Runner, ctx: _SpinContext) -> None:
    s, basis, gens = ctx.s, ctx.basis, ctx.gens
    p = {"s": s}
    m = basis.modes

    def homomorphism(tol):
        rng = np.random.default_rng(20240 + s)
        worst = 0.0
        for _ in range(2):
            x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            x = 0.5 * (x + x.conj().T)
            y = 0.5 * (y + y.conj().T)
            lhs = commutator(jordan_schwinger(basis, x), jordan_schwinger(basis, y))
            rhs = jordan_schwinger(basis, x @ y - y @ x)
            worst = max(worst, residual(lhs, rhs, 0).frobenius_relative)
        return worst, worst < tol, ""
    r.run("jordan-schwinger-homomorphism", "jordan-schwinger-map", p,
          1e-12, homomorphism)

    r.residual_check(
        "identity-image-is-total-number", "total-number-image", p, 1e-12,
        lambda: residual(jordan_schwinger(basis, np.eye(m)), gens.Ntot, 0))

    def su2_relations(tol):
        worst = max(
            residual(commutator(gens.Jz, gens.Jplus), gens.Jplus, 0
                     ).frobenius_relative,
            residual(commutator(gens.Jz, gens.Jminus), -1.0 * gens.Jminus, 0
                     ).frobenius_relative,
            residual(commutator(gens.Jplus, gens.Jminus), 2.0 * gens.Jz, 0
                     ).frobenius_relative)
        return worst, worst < tol, ""
    r.run("su2-commutators", "su2-commutators", p, 1e-12, su2_relations)

    def n_central(tol):
        worst = max(
            commutator_residual(gens.Ntot, gens.Jz, 0).frobenius_relative,
            commutator_residual(gens.Ntot, gens.Jplus, 0).frobenius_relative,
            commutator_residual(gens.Ntot, gens.Jminus, 0).frobenius_relative)
        return worst, worst < tol, ""
    r.run("n-centrality", "n-centrality", p, 1e-12, n_central)

    def casimir_central(tol):
        worst = max(
            commutator_residual(gens.J2, gens.Jz, 0).frobenius_relative,
            commutator_residual(gens.J2, gens.Jplus, 0).frobenius_relative,
            commutator_residual(gens.J2, gens.Jminus, 0).frobenius_relative,
            commutator_residual(gens.J2, gens.Ntot, 0).frobenius_relative)
        return worst, worst < tol, ""
    r.run("casimir-centrality", "casimir-centrality", p, 1e-12, casimir_central)

    def j_defining(tol):
        jh = gens.j_hat()
        rep = residual(jh @ jh + jh, gens.J2, 0)
        return rep.frobenius_relative, rep.frobenius_relative < tol, ""
    r.run("j-defining-identity", "j-operator", p, 1e-10, j_defining)

    def j_spectrum(tol):
        worst = 0.0
        for key, js in gens.j_values_by_sector().items():
            n = key[0]
            for j in js:
                label = round(float(j))
                if not 0 <= label <= n * s:
                    return abs(j), False, f"label {label} outside [0, {n * s}]"
                worst = max(worst, abs(float(j) - label))
        return worst, worst < tol, ""
    r.run("j-spectrum-integers", "j-operator", p, 1e-6, j_spectrum)

    def single_particle(tol):
        worst = 0.0
        for mu in range(-s, s + 1):
            state = tuple(1 if k == mu + s else 0 for k in range(basis.modes))
            v = basis.unit_vector(state)
            worst = max(worst, float(np.linalg.norm(
                gens.J2.apply(v) - s * (s + 1) * v)))
        return worst, worst < tol, ""
    r.run("single-particle-casimir", "single-particle-irrep", p, 1e-10,
          single_particle)

    def su2_action(tol):
        # On weight-0 eigenvectors, ||J_+ v||^2 = j(j+1).
        worst = 0.0
        for n in range(0, min(basis.n_max, 4) + 1):
            for kv in jz_kernel(basis, gens, n):
                amp2 = float(np.linalg.norm(gens.Jplus.apply(kv.vector)) ** 2)
                worst = max(worst, abs(amp2 - kv.j * (kv.j + 1)))
        return worst, worst < tol, ""
    r.run("canonical-su2-action", "canonical-su2-action", p, 1e-8, su2_action)

    def kernel_dims(tol):
        for n in range(0, min(basis.n_max, 4) + 1):
            got = len(jz_kernel(basis, gens, n))
            want = len(bruteforce.enumerate_states(s, n, n=n, weight=0))
            if got != want:
                return float(abs(got - want)), False, \
                    f"kernel dim {got} != enumeration {want} at n={n}"
        return 0.0, True, ""
    r.run("kernel-dimensions", "jz-kernel", p, DEFAULT_TOLERANCE, kernel_dims)


def _engine_checks(r: _Runner, ctx: _SpinContext) -> None:
    s, basis, gens = ctx.s, ctx.basis, ctx.gens
    p = {"s": s}
    ident = SparseOperator.identity(basis)
    ad0 = creation_op(basis, 0)

    r.residual_check("rlo-number-raising", "rlo-definition", p, 1e-12,
                     lambda: check_rlo(gens.Ntot, ad0, ident, 1))

    def rlo_negative(tol):
        rep = check_rlo(gens.Ntot, ad0, 2.0 * ident, 1)
        big = rep.frobenius_relative > 1e-4
        return rep.frobenius_relative, big, \
            "" if big else "the check did not discriminate a wrong right function"
    r.run("rlo-negative-control", "rlo-definition", p, DEFAULT_TOLERANCE,
          rlo_negative)

    r.residual_check("llo-number-lowering", "llo-definition", p, 1e-12,
                     lambda: check_llo(gens.Ntot, ad0.adjoint(), ident, 1))

    r.residual_check("power-identity-number", "power-identity", p, 1e-10,
                     lambda: check_power_identity(gens.Ntot, ad0, ident, 3, 1))

    tau1 = ctx.taus[1]
    rf_op = gens.function_of_j(tau1.right_function)
    r.residual_check(
        "power-identity-casimir", "power-identity", {"s": s, "theta": 1, "n": 2},
        1e-8, lambda: check_power_identity(gens.J2, tau1.op, rf_op, 2, 1,
                                           col_weight=0))

    r.residual_check(
        "rlo-compose-polynomial", "rlo-composition", {"s": s, "theta": 1},
        1e-8, lambda: check_rlo_compose(
            gens.J2, tau1.op, rf_op,
            gens.function_of_j(lambda j: j * j + 1.0), 1, col_weight=0))

    r.residual_check(
        "rlo-compose-number", "rlo-composition", {"s": s, "theta": 1},
        1e-8, lambda: check_rlo_compose(gens.J2, tau1.op, rf_op, gens.Ntot, 1,
                                        col_weight=0))


def _symbolic_checks(r: _Runner, ctx: _SpinContext,
                     report: VerificationReport) -> None:
    s, gens = ctx.s, ctx.gens
    p = {"s": s}

    def alpha_columns(tol):
        worst = 0.0
        for fam in (P_FAMILY, M_FAMILY):
            _, reports = build_alpha_certified(gens, ctx.families, fam, tol=tol)
            worst = max([worst] + [rep.frobenius_relative
                                   for rep in reports.values()])
        return worst, worst < tol, ""
    r.run("closure-columns-certified", "family-closure-kernel", p, 1e-8,
          alpha_columns)

    def alpha_entries(tol):
        worst = max(
            alpha_entry_deviation(build_alpha(s, P_FAMILY), gens, ctx.families),
            alpha_entry_deviation(build_alpha(s, M_FAMILY), gens, ctx.families))
        return worst, worst < tol, ""
    r.run("closure-entries-extracted", "closure-tridiagonal", p, 1e-10,
          alpha_entries)

    def alpha_variant(tol):
        if ctx.n_max < 3:
            return None, True, ("truncation too small to discriminate the "
                                "variant; needs n_max >= 3")
        variant = build_alpha_variant_diag4(s, P_FAMILY)
        try:
            certify_alpha(variant, gens, ctx.families, tol=1e-8)
        except Exception as exc:
            dev = alpha_entry_deviation(variant, gens, ctx.families)
            report.discrepancies.append({
                "topic": "closure-matrix-variant",
                "s": s,
                "note": ("alternative convention with k=1 diagonal s(s+1)-4 "
                         "fails the numerical certificate and is rejected; "
                         "the certified diagonal is s(s+1)-2k^2"),
                "measured_entry_deviation": dev,
            })
            return dev, dev > 0.1, f"variant rejected: {type(exc).__name__}"
        return 0.0, False, "variant unexpectedly passed certification"
    r.run("closure-variant-rejected", "closure-tridiagonal", p,
          DEFAULT_TOLERANCE, alpha_variant)

    def det_certs(tol):
        for rf in right_functions(s):
            det = det_certificate(s, rf.family, rf.theta)
            if not det.is_zero():
                return 1.0, False, f"determinant nonzero at theta={rf.theta}"
        for fam in (P_FAMILY, M_FAMILY):
            if det_certificate(s, fam, s + 1).is_zero():
                return 1.0, False, "negative control theta=s+1 vanished"
        return 0.0, True, ""
    r.run("determinant-certificates", "determinant-certificate", p,
          DEFAULT_TOLERANCE, det_certs)

    def parity(tol):
        ok = all(rf.family == (P_FAMILY if (rf.theta - s) % 2 == 0 else M_FAMILY)
                 for rf in right_functions(s))
        return None, ok, "" if ok else "parity assignment violated"
    r.run("right-function-parity", "right-function-parity", p,
          DEFAULT_TOLERANCE, parity)

    r.run("right-function-family", "right-function-family", p,
          DEFAULT_TOLERANCE,
          lambda tol: (None, len(right_functions(s)) == 2 * s + 1, ""))

    def sigma_all(tol):
        for rf in right_functions(s):
            sig = solve_sigma(build_alpha(s, rf.family), rf.theta)
            for k, poly in sig.sigmas.items():
                if poly.degree > s - k:
                    return 1.0, False, \
                        f"degree bound violated at theta={rf.theta}, k={k}"
            if abs(rf.theta) == s:
                lo = min(sig.sigmas)
                if sig.sigmas[lo].degree != s - lo:
                    return 1.0, False, \
                        f"degree not sharp at theta={rf.theta}"
        return 0.0, True, ""
    r.run("sigma-consistency-and-degrees", "sigma-recurrence", p,
          DEFAULT_TOLERANCE, sigma_all)

    def sigma_closed(tol):
        for rf in right_functions(s):
            sig = solve_sigma(build_alpha(s, rf.family), rf.theta)
            closed = sigma_closed_form_next_to_top(s, rf.theta)
            got = sig.sigmas.get(s - 1)
            if got is None:
                continue
            if s >= 2:
                if got != closed:
                    return 1.0, False, f"closed form mismatch at theta={rf.theta}"
            else:
                # s = 1: the first-column normalization 2s(s+1) makes the
                # recurrence value exactly closed_form / (s + 1).
                if got * Fraction(s + 1) != closed:
                    return 1.0, False, "s=1 scaling relation violated"
        if s == 1:
            report.discrepancies.append({
                "topic": "sigma-closed-form-s1",
                "s": 1,
                "note": ("the generic closed form for the next-to-top sigma "
                         "equals (s+1) times the recurrence value at s=1, "
                         "reflecting the doubled first-column constant"),
            })
        return 0.0, True, ""
    r.run("sigma-closed-form", "sigma-closed-form", p, DEFAULT_TOLERANCE,
          sigma_closed)

    report.discrepancies.append({
        "topic": "recurrence-leading-coefficient",
        "s": s,
        "note": ("the certified leading coefficient of row k is (s+k)(s-k+1) "
                 "(2s(s+1) at the first column); the variant (s-k)(s+k+1) "
                 "vanishes at the last row and cannot drive the recurrence"),
    })


def _tau_checks(r: _Runner, ctx: _SpinContext) -> None:
    s, basis, gens = ctx.s, ctx.basis, ctx.gens
    fam = ctx.families
    p = {"s": s}

    def number_ladder_family(tol):
        worst = 0.0
        for ops in (fam.ops(P_FAMILY), fam.ops(M_FAMILY)):
            for k, t in ops.items():
                if t.is_zero():
                    continue
                worst = max(worst, residual(commutator(gens.Ntot, t), t, 1
                                            ).frobenius_relative)
        return worst, worst < tol, ""
    r.run("family-number-ladder", "family-number-ladder", p, 1e-10,
          number_ladder_family)

    def jz_commuting(tol):
        worst = 0.0
        for ops in (fam.ops(P_FAMILY), fam.ops(M_FAMILY)):
            for k, t in ops.items():
                if t.is_zero():
                    continue
                worst = max(worst,
                            commutator_residual(gens.Jz, t, 1).frobenius_relative)
        return worst, worst < tol, ""
    r.run("family-jz-commuting", "family-jz-commuting", p, 1e-10, jz_commuting)

    for theta in sorted(ctx.taus):
        tau = ctx.taus[theta]
        pt = {"s": s, "theta": theta}
        r.residual_check("tau-casimir-ladder", "tau-casimir-ladder", pt, 1e-8,
                         lambda tau=tau: tau_casimir_ladder_residual(tau, gens))
        r.residual_check("tau-label-shift", "tau-label-shift", pt, 1e-8,
                         lambda tau=tau: tau_shift_residual(tau, gens))
        for k in (0, 2):
            for side in ("right", "left"):
                r.residual_check(
                    f"resolvent-ladder-{side}", f"resolvent-ladder-{side}",
                    {"s": s, "theta": theta, "k": k}, 1e-8,
                    lambda tau=tau, k=k, side=side:
                        resolvent_commutator_check(gens, tau, k, side))

    def complete_set(tol):
        worst = max(rep.frobenius_relative
                    for rep in ctx.complete_set.commutator_residuals.values())
        return worst, worst < tol, ""
    r.run("tau-complete-set", "tau-complete-set", p, 1e-8, complete_set)

    def separation(tol):
        cs = ctx.complete_set
        if not cs.separation:
            return 0.0, True, "all nodes one-dimensional; separation trivial"
        bad = [sn.node for sn in cs.separation if not sn.separated]
        if bad and s <= 2:
            return 1.0, False, f"joint eigenvalues fail to separate {bad}"
        if bad:
            # Beyond s = 2 the quadratic invariants need not suffice; the
            # counterexamples are reported rather than asserted away.
            r.report.discrepancies.append({
                "topic": "separation-counterexample",
                "s": s,
                "note": ("the quadratic ladder invariants do not separate "
                         "some degenerate kernel nodes at this spin; higher "
                         "polynomials of the ladders would be required"),
                "nodes": [list(n) for n in bad],
            })
            return 0.0, True, f"unseparated nodes {bad} reported"
        detail = (f"multi-dimensional nodes "
                  f"{[sn.node for sn in cs.separation]} separated")
        return 0.0, True, detail
    r.run("complete-set-separation", "complete-set-separation", p,
          DEFAULT_TOLERANCE, separation)


def _listed_annihilation(s: int, n: int, j: int, theta: int,
                         raising: bool) -> bool:
    """Is this annihilation required by one of the stated kernel rules?"""
    omega = abs(theta)
    if raising:
        if theta < 0:
            return j < omega
        # Raising with opposite parity kills the one-particle states.
        return omega % 2 != s % 2 and n == 1
    if theta > 0:
        return j < omega or n == 0
    if theta < 0:
        return n == 0 or j > (n - 1) * s - omega
    return False


def _lattice_checks(r: _Runner, ctx: _SpinContext) -> None:
    s, basis, gens = ctx.s, ctx.basis, ctx.gens
    p = {"s": s}
    n_limit = min(basis.n_max - 1, 4)

    def scheme(tol):
        rep = ctx.lattice(n_limit)
        for n, dim in rep.weight0_dims.items():
            node_sum = sum(d for (nn, j), d in rep.node_dims.items() if nn == n)
            if node_sum != dim:
                return 1.0, False, f"node dimensions at n={n} sum to " \
                    f"{node_sum}, sector has {dim}"
        return 0.0, True, ""
    r.run("lattice-scheme", "lattice-action", p, DEFAULT_TOLERANCE, scheme)

    def annihilation(tol):
        # Listed rules for each ladder, supplemented by forced annihilation
        # when the predicted target node does not occur in the spectrum.
        rep = ctx.lattice(n_limit)
        flags = rep.annihilation_flags()
        problems = []
        extra = []
        for (n, j) in sorted(rep.node_dims):
            for omega in range(1, s + 1):
                key = (f"tau[{omega:+d}]", (n, j))
                if key in flags and ((j < omega or n == 0) and not flags[key]):
                    problems.append(f"tau[{omega}] missed {key[1]}")
                key = (f"tau[{-omega:+d}]", (n, j))
                if key in flags and (n == 0 or j > (n - 1) * s - omega) \
                        and not flags[key]:
                    problems.append(f"tau[{-omega}] missed {key[1]}")
                key = (f"tau_dag[{-omega:+d}]", (n, j))
                if key in flags and j < omega and not flags[key]:
                    problems.append(f"tau_dag[{-omega}] missed {key[1]}")
                key = (f"tau_dag[{omega:+d}]", (n, j))
                if key in flags and omega % 2 != s % 2 and n == 1 \
                        and not flags[key]:
                    problems.append(
                        f"tau_dag[{omega}] kept a one-particle state alive")
            # Any annihilation must be required by a listed rule or forced
            # by a missing target node.
            for arrow in rep.arrows_from((n, j)):
                if not arrow.annihilated:
                    continue
                theta = int(arrow.operator.split("[")[1].rstrip("]"))
                if theta == 0:
                    continue  # theta = 0 is covered by tau-zero-preserves-j
                raising = arrow.operator.startswith("tau_dag")
                target = (n + 1, j + theta) if raising else (n - 1, j - theta)
                listed = _listed_annihilation(s, n, j, theta, raising)
                if not listed and rep.node_exists(target):
                    extra.append(f"{arrow.operator} at {(n, j)}")
        if problems:
            return 1.0, False, "; ".join(problems[:5])
        if extra and s <= 2:
            return 1.0, False, "unlisted annihilations: " + "; ".join(extra[:5])
        if extra:
            # Beyond s = 2 the sigma polynomials can vanish at specific j,
            # annihilating nodes whose target exists; reported, not asserted.
            r.report.discrepancies.append({
                "topic": "annihilation-beyond-listed-rules",
                "s": s,
                "note": ("some ladder images vanish although the target node "
                         "occurs (the combination coefficients have roots at "
                         "specific j); the listed rules all hold"),
                "cases": extra,
            })
            return 0.0, True, f"{len(extra)} unlisted annihilations reported"
        return 0.0, True, ""
    r.run("tau-annihilation-rules", "tau-annihilation-rules", p,
          DEFAULT_TOLERANCE, annihilation)

    def trivial_kernel(tol):
        # For omega with the parity of s the raising ladder should annihilate
        # no kernel state; exact at s <= 2, while at larger spins the sigma
        # coefficients can vanish at isolated j (reported, not asserted).
        rep = ctx.lattice(n_limit)
        flags = rep.annihilation_flags()
        hits = []
        for (n, j) in sorted(rep.node_dims):
            for omega in range(1, s + 1):
                if omega % 2 != s % 2:
                    continue
                key = (f"tau_dag[{omega:+d}]", (n, j))
                if key in flags and flags[key]:
                    hits.append(f"tau_dag[{omega}] at {(n, j)}")
        if hits and s <= 2:
            return 1.0, False, "; ".join(hits[:5])
        if hits:
            r.report.discrepancies.append({
                "topic": "trivial-kernel-counterexample",
                "s": s,
                "note": ("a parity-matched raising ladder annihilates some "
                         "kernel nodes at this spin; the trivial-kernel "
                         "statement holds at spins 1 and 2"),
                "cases": hits,
            })
            return 0.0, True, f"{len(hits)} counterexamples reported"
        return 0.0, True, ""
    r.run("tau-trivial-kernel-parity", "tau-trivial-kernel-parity", p,
          DEFAULT_TOLERANCE, trivial_kernel)

    def tau0_preserves(tol):
        rep = ctx.lattice(n_limit)
        if 0 not in ctx.taus:
            return 0.0, True, "no theta=0 ladder at this spin"
        for a in rep.arrows:
            if a.operator in ("tau_dag[+0]", "tau[+0]") and not a.annihilated:
                if a.target[1] != a.source[1]:
                    return 1.0, False, f"theta=0 moved j at {a.source}"
        return 0.0, True, ""
    r.run("tau-zero-preserves-j", "tau-zero-preserves-j", p,
          DEFAULT_TOLERANCE, tau0_preserves)

    def oracle(tol):
        rep = ctx.lattice(n_limit)
        for n in range(0, n_limit + 1):
            got = {j: d for (nn, j), d in rep.node_dims.items() if nn == n}
            want = bruteforce.j_multiplicities(s, n)
            if got != want:
                return 1.0, False, f"multiplicities at n={n}: {got} != {want}"
        return 0.0, True, ""
    r.run("multiplicity-oracle", "multiplicity-oracle", p, DEFAULT_TOLERANCE,
          oracle)


def _deformed_checks(r: _Runner, ctx: _SpinContext) -> None:
    s, basis, gens = ctx.s, ctx.basis, ctx.gens
    for omega in range(1, s + 1):
        p = {"s": s, "omega": omega}
        tau_minus = ctx.taus[-omega]

        def deformed(tol, tau_minus=tau_minus):
            lz, l2 = deformed_generators(tau_minus)
            herm = max((lz - lz.adjoint()).norm(), (l2 - l2.adjoint()).norm())
            if herm > 1e-10 * (1 + lz.norm() + l2.norm()):
                return herm, False, "deformed generators are not hermitian"
            worst = max(
                commutator_residual(l2, gens.J2, 2, col_weight=0
                                    ).frobenius_relative,
                commutator_residual(lz, gens.J2, 2, col_weight=0
                                    ).frobenius_relative,
                commutator_residual(l2, gens.Ntot, 2).frobenius_relative,
                commutator_residual(lz, gens.Ntot, 2).frobenius_relative)
            return worst, worst < tol, ""
        r.run("deformed-algebra-generators", "deformed-algebra-generators",
              p, 1e-8, deformed)

        def residues(tol, omega=omega):
            rep = ctx.lattice(min(basis.n_max - 1, 4))
            classes = residue_classes(rep, omega)
            ok = set(classes) <= set(range(omega))
            if omega == 1:
                ok = ok and set(classes) == {0}
            return None, ok, f"classes {sorted(classes)}"
        r.run("residue-classes", "residue-classes", p, DEFAULT_TOLERANCE,
              residues)


def _s1_demo_checks(r: _Runner, ctx: _SpinContext,
                    report: VerificationReport) -> None:
    basis, gens, fam = ctx.basis, ctx.gens, ctx.families
    p = {"s": 1}
    n_limit = min(basis.n_max - 1, 4)

    def family_defs(tol):
        rhs = creation_op(basis, 1) @ gens.Jminus \
            + creation_op(basis, -1) @ gens.Jplus
        rep = residual(math.sqrt(2.0) * fam.p_ops[1], rhs, 0)
        return rep.frobenius_relative, rep.frobenius_relative < tol, ""
    r.run("s1-family-definitions", "s1-family-definitions", p, 1e-12,
          family_defs)

    def mutual(tol):
        reps = s1_mutual_commutators(gens, fam)
        report.discrepancies.append({
            "topic": "s1-diagonal-commutator-restriction",
            "s": 1,
            "note": ("the [p_1, p_1+] closed form holds on zero-weight "
                     "columns; the unrestricted form fails and is recorded"),
            "unrestricted_residual": reps["p1_p1dag_unrestricted"
                                          ].frobenius_relative,
        })
        worst = max(reps["p0_p0dag"].frobenius_relative,
                    reps["p1_p0dag"].frobenius_relative,
                    reps["p0_p1dag"].frobenius_relative,
                    reps["p1_p1dag_weight0"].frobenius_relative)
        return worst, worst < tol, ""
    r.run("s1-family-commutators", "s1-family-commutators", p, 1e-10, mutual)

    def closure_full(tol):
        reps = s1_full_closure_residuals(gens, fam)
        report.discrepancies.append({
            "topic": "s1-unrestricted-closure-correction",
            "s": 1,
            "note": ("certified unrestricted closure: [J^2, p_1] = "
                     "p_0 (j - J_z)(j + J_z + 1) - 2 m_1 (J_z + I); the "
                     "variant correction +2 m_1 J_z fails off the zero-weight "
                     "subspace and is recorded"),
            "variant_residual": reps["variant_plus_2mJz"].frobenius_relative,
        })
        worst = max(reps["certified"].frobenius_relative,
                    reps["kernel_form"].frobenius_relative)
        return worst, worst < tol, ""
    r.run("casimir-closure-full", "casimir-closure-full", p, 1e-8, closure_full)

    def m1_kernel(tol):
        rep = zero_residual(fam.m_ops[0], 1, col_weight=0,
                            scale=max(fam.m_ops[0].norm(), 1.0))
        return rep.frobenius_relative, rep.frobenius_relative < tol, ""
    r.run("s1-m1-annihilates-kernel", "s1-m1-annihilates-kernel", p, 1e-10,
          m1_kernel)

    def tau_match(tol):
        tau_plus_ref, tau_minus_ref = s1_reference_taus(gens, fam)
        scale_p, res_p = expression_match_scale(ctx.taus[1].op, tau_plus_ref)
        scale_m, res_m = expression_match_scale(ctx.taus[-1].op, tau_minus_ref)
        worst = max(res_p, res_m)
        detail = f"scales {scale_p}, {scale_m}"
        ok = worst < tol and abs(scale_p - 2.0) < 1e-9 \
            and abs(scale_m + 2.0) < 1e-9
        return worst, ok, detail
    r.run("s1-tau-expressions", "s1-tau-expressions", p, 1e-10, tau_match)

    demo = demo_s1_operators(gens, fam)

    r.residual_check(
        "s1-weyl-pair", "s1-weyl-pair", p, 1e-8,
        lambda: residual(commutator(demo.a_op, demo.a_dag),
                         SparseOperator.identity(basis), 2, col_weight=0))

    def number_like(tol):
        ada = demo.a_dag @ demo.a_op
        worst = 0.0
        for n in range(0, n_limit + 1):
            for kv in jz_kernel(basis, gens, n):
                worst = max(worst, float(np.linalg.norm(
                    ada.apply(kv.vector) - kv.j * kv.vector)))
        return worst, worst < tol, ""
    r.run("s1-number-like-spectrum", "s1-number-like-spectrum", p, 1e-8,
          number_like)

    def deformed_spectrum(tol):
        worst = 0.0
        for n in range(0, n_limit + 1):
            for kv in jz_kernel(basis, gens, n):
                lz_expect = (n - kv.j) / 2.0 - (n + kv.j) / 4.0
                ell = (n + kv.j) / 4.0
                worst = max(worst, float(np.linalg.norm(
                    demo.l_z.apply(kv.vector) - lz_expect * kv.vector)))
                worst = max(worst, float(np.linalg.norm(
                    demo.l_2.apply(kv.vector) - ell * (ell + 1) * kv.vector)))
        return worst, worst < tol, ""
    r.run("s1-deformed-su2-spectrum", "s1-deformed-su2-spectrum", p, 1e-8,
          deformed_spectrum)
    report.discrepancies.append({
        "topic": "s1-lowering-ladder-factor-placement",
        "s": 1,
        "note": ("the scalar factor of the deformed raising operator is "
                 "certified standing to the LEFT of the lowering ladder "
                 "(as a right factor the same expression is off by one unit "
                 "of j and fails the advertised spectra)"),
    })

    def double_comm(tol):
        jh = gens.j_hat()
        ad0 = creation_op(basis, 0)
        rep = residual(commutator(jh, commutator(jh, ad0)), ad0, 1,
                       col_weight=0)
        return rep.frobenius_relative, rep.frobenius_relative < tol, ""
    r.run("s1-double-commutator", "s1-double-commutator", p, 1e-8, double_comm)

    def single_mode(tol):
        tb = tau_bar_forms(basis, gens, fam)
        worst = max(tb.double_commutator.frobenius_relative,
                    tb.rlo_plus.frobenius_relative,
                    tb.rlo_minus.frobenius_relative,
                    tb.llo_plus.frobenius_relative,
                    tb.llo_minus.frobenius_relative,
                    tb.max_ratio_deviation())
        return worst, worst < tol, ""
    r.run("s1-single-mode-ladders", "s1-single-mode-ladders", p, 1e-8,
          single_mode)

    def inverse_exprs(tol):
        reps = ctx.s1_inverse
        worst = max(reps["p0_from_taus"].frobenius_relative,
                    reps["p1_from_taus"].frobenius_relative)
        return worst, worst < tol, ""
    r.run("s1-inverse-expressions", "s1-inverse-expressions", p, 1e-8,
          inverse_exprs)

    def label_comms(tol):
        reps = ctx.s1_inverse
        worst = max(reps["label_comm_p0"].frobenius_relative,
                    reps["label_comm_p1"].frobenius_relative)
        return worst, worst < tol, ""
    r.run("s1-label-commutators", "s1-label-commutators", p, 1e-8, label_comms)

    def bracket(tol):
        reps = s1_tau_bracket_ladder(gens, fam)
        report.discrepancies.append({
            "topic": "s1-bracket-ladder-pairing",
            "s": 1,
            "note": ("[j, .] doubles the bracket of the raising ladder with "
                     "the LOWERING partner (shifts +1 and +1); the bracket of "
                     "the two raising ladders commutes with j instead "
                     "(shifts +1 and -1 cancel, as the Jacobi identity "
                     "forces)"),
            "raising_pair_commutator_residual":
                reps["raising_pair_commutes"].frobenius_relative,
        })
        worst = max(reps["mixed_pair_shift2"].frobenius_relative,
                    reps["raising_pair_commutes"].frobenius_relative)
        return worst, worst < tol, ""
    r.run("s1-bracket-ladder", "s1-bracket-ladder", p, 1e-8, bracket)

    def diagram(tol):
        rep = ctx.lattice(n_limit)
        expected = {(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 2): 1,
                    (3, 1): 1, (3, 3): 1}
        expected = {k: v for k, v in expected.items() if k[0] <= n_limit}
        got = {k: v for k, v in rep.node_dims.items() if k[0] <= 3}
        ok = got == expected
        return None, ok, "" if ok else f"nodes {sorted(got)}"
    r.run("s1-lattice-diagram", "s1-lattice-diagram", p, DEFAULT_TOLERANCE,
          diagram)

    def irrep_dims(tol):
        for j in range(0, min(3, n_limit) + 1):
            kvs = [kv for kv in jz_kernel(basis, gens, j) if kv.j == j]
            if not kvs:
                return 1.0, False, f"missing kernel node ({j}, {j})"
            count = 1
            for ladder in (gens.Jplus, gens.Jminus):
                v = kvs[0].vector
                while True:
                    v = ladder.apply(v)
                    norm = np.linalg.norm(v)
                    if norm < 1e-9:
                        break
                    v = v / norm
                    count += 1
            if count != 2 * j + 1:
                return float(count), False, \
                    f"irrep at j={j} has {count} weight states"
        return 0.0, True, ""
    r.run("irrep-dimensions", "irrep-dimensions", p, DEFAULT_TOLERANCE,
          irrep_dims)

    def canonical(tol):
        vectors = canonical_basis_s1(basis, gens, fam, n_limit)
        mat = np.array([cv.vector for cv in vectors])
        gram = mat.conj() @ mat.T
        worst = float(np.max(np.abs(gram - np.eye(len(vectors)))))
        for cv in vectors:
            v = cv.vector
            worst = max(
                worst,
                float(np.linalg.norm(gens.Ntot.apply(v) - cv.n * v)),
                float(np.linalg.norm(gens.J2.apply(v)
                                     - cv.j * (cv.j + 1) * v)),
                float(np.linalg.norm(gens.Jz.apply(v) - cv.jz * v)))
        return worst, worst < tol, f"{len(vectors)} vectors"
    r.run("s1-canonical-basis", "s1-canonical-basis", p, 1e-8, canonical)


# -- export -------------------------------------------------------------------


def export_report(report: VerificationReport, path: str,
                  output_format: Optional[str] = None) -> None:
    """Write a report to ``path`` as canonical JSON or flat CSV.

    Given identical inputs the bytes are identical (timings are never
    serialized).  I/O failures are re-raised with the path attached.
    """
    fmt = output_format or report.config.output_format
    if fmt == "json":
        payload = report.to_json()
    elif fmt == "csv":
        payload = report.to_csv()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc


def report_from_json(text: str) -> dict:
    """Parse an exported JSON report back into its dictionary form."""
    return json.loads(text)
