import dataclasses
import json

import numpy as np
import pytest

import su2ladders.verify
from su2ladders.operators import SparseOperator
from su2ladders.verify import (REQUIRED_ANCHORS, SuiteConfig,
                               VerificationReport, _deformed_checks,
                               _lattice_checks, _listed_annihilation,
                               _Runner, _s1_demo_checks, _SpinContext,
                               export_report, report_from_json, run_suite)


@pytest.fixture(scope="module")
def default_report():
    return run_suite(SuiteConfig(spins=[1, 2], n_max=4))


def test_default_config_passes(default_report):
    assert default_report.overall_pass
    assert default_report.failed_count == 0
    assert len(default_report.checks) > 100


def test_registry_covers_required_anchors(default_report):
    anchors = {c.anchor for c in default_report.checks}
    missing = REQUIRED_ANCHORS - anchors
    assert not missing, f"uncovered anchors: {sorted(missing)}"


def test_checks_run_in_stable_order(default_report):
    again = run_suite(SuiteConfig(spins=[1, 2], n_max=4))
    assert [c.name for c in again.checks] == \
        [c.name for c in default_report.checks]


def test_reports_are_byte_identical(default_report):
    again = run_suite(SuiteConfig(spins=[1, 2], n_max=4))
    assert again.to_json() == default_report.to_json()
    assert again.to_csv() == default_report.to_csv()


def test_json_roundtrip(default_report):
    parsed = report_from_json(default_report.to_json())
    assert parsed == default_report.to_json_dict()
    assert parsed["overall_pass"] is True
    assert parsed["counts"]["total"] == len(default_report.checks)


def test_csv_row_count(default_report):
    lines = default_report.to_csv().strip().splitlines()
    assert len(lines) == len(default_report.checks) + 1  # header


def test_wall_times_not_serialized(default_report):
    assert "wall_time" not in default_report.to_json()
    assert any(c.wall_time >= 0 for c in default_report.checks)


def test_export_and_parse(tmp_path, default_report):
    path = tmp_path / "report.json"
    export_report(default_report, str(path))
    assert report_from_json(path.read_text()) == default_report.to_json_dict()
    csv_path = tmp_path / "report.csv"
    export_report(default_report, str(csv_path), "csv")
    assert csv_path.read_text() == default_report.to_csv()


def test_export_io_error_carries_path(default_report):
    with pytest.raises(OSError, match="no/such/dir"):
        export_report(default_report, "/no/such/dir/report.json")


def test_degenerate_nmax_records_empty_restrictions():
    report = run_suite(SuiteConfig(spins=[1], n_max=1))
    assert not report.overall_pass
    empties = [c for c in report.checks
               if "empty restriction" in c.detail]
    assert empties, "margin-2 checks should report empty restrictions"
    assert all(not c.passed for c in empties)


def test_config_validation():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(spins=[], n_max=4))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(spins=[0], n_max=4))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(spins=[1], n_max=0))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(spins=[1], n_max=4, output_format="xml"))


def test_tolerance_override_can_force_failure():
    config = SuiteConfig(spins=[1], n_max=3,
                         tolerance_overrides={"su2-commutators": 1e-30})
    report = run_suite(config)
    failed = {c.name for c in report.checks if not c.passed}
    assert "su2-commutators" in failed


def test_global_default_tolerance_applies():
    config = SuiteConfig(spins=[1], n_max=3, default_tolerance=1e-30)
    report = run_suite(config)
    assert not report.overall_pass


def test_discrepancy_ledger_is_populated(default_report):
    topics = {d["topic"] for d in default_report.discrepancies}
    assert "closure-matrix-variant" in topics
    assert "s1-unrestricted-closure-correction" in topics
    assert "s1-lowering-ladder-factor-placement" in topics
    assert "s1-bracket-ladder-pairing" in topics


def test_spin3_reports_trivial_kernel_counterexamples():
    report = run_suite(SuiteConfig(spins=[3], n_max=4))
    assert report.overall_pass
    topics = {d["topic"] for d in report.discrepancies}
    assert "trivial-kernel-counterexample" in topics


def test_numpy_scalar_results_serialise():
    report = VerificationReport(config=SuiteConfig(spins=[1], n_max=2))
    _Runner(report.config, report).run(
        "numpy-scalars", "anchor", {"s": 1}, 1e-8,
        lambda tol: (np.float64(1e-9), np.bool_(True), ""))
    check = report.checks[0]
    assert type(check.residual) is float and type(check.passed) is bool
    assert json.loads(report.to_json())["checks"][0]["passed"] is True


def test_summary_lines_carry_wall_times(default_report):
    lines = default_report.summary_lines()
    for check, line in zip(default_report.checks, lines):
        assert f" time={check.wall_time:.3f}s" in line


def _annihilation_check(ctx):
    report = VerificationReport(config=SuiteConfig(spins=[ctx.s],
                                                   n_max=ctx.n_max))
    _lattice_checks(_Runner(report.config, report), ctx)
    return next(c for c in report.checks
                if c.name == "tau-annihilation-rules")


def test_missed_listed_annihilation_fails_the_rules_check():
    ctx = _SpinContext(1, 4)
    assert _annihilation_check(ctx).passed
    lattice = ctx.lattice
    k, arrow = next(
        (k, a) for k, a in enumerate(lattice.arrows)
        if a.operator == "tau[+1]" and a.source == (0, 0))
    assert arrow.annihilated and _listed_annihilation(1, 0, 0, 1, False)
    lattice.arrows[k] = dataclasses.replace(arrow, annihilated=False)
    check = _annihilation_check(ctx)
    assert not check.passed
    assert check.detail == "tau[1] missed (0, 0)"


def _perturbed(op, seed, delta=1e-6):
    # Every stored entry times (1 + delta * r), r uniform in [-1, 1].
    m = op.matrix.copy()
    m.data = m.data * (1.0 + delta * np.random.default_rng(seed).uniform(
        -1.0, 1.0, m.nnz))
    return SparseOperator(op.basis, m)


def _run_block(block, ctx):
    report = VerificationReport(config=SuiteConfig(spins=[ctx.s],
                                                   n_max=ctx.n_max))
    block(_Runner(report.config, report), ctx)
    return report


@pytest.mark.parametrize("spin", [1, 2, 3])
def test_deformed_generators_gate_catches_entrywise_perturbation(spin):
    # The four commutators read about 1e-7 at delta = 1e-6; the gate is 1e-8.
    ctx = _SpinContext(spin, 4)
    for omega in range(1, spin + 1):
        tau = ctx.taus[-omega]
        ctx.taus[-omega] = dataclasses.replace(
            tau, op=_perturbed(tau.op, seed=10 * spin + omega))
    report = _run_block(_deformed_checks, ctx)
    checks = [c for c in report.checks
              if c.name == "deformed-algebra-generators"]
    assert len(checks) == spin
    assert not any(c.passed for c in checks)


def test_s1_weyl_pair_gate_catches_entrywise_perturbation(monkeypatch):
    # [A, A+] = 1 reads about 1e-6 with A+ perturbed at 1e-6; the gate is 1e-8.
    build = su2ladders.verify.demo_s1_operators

    def perturbed_demo(gens, families):
        demo = build(gens, families)
        a_dag = _perturbed(demo.a_dag, seed=1)
        return dataclasses.replace(demo, a_dag=a_dag, a_op=a_dag.adjoint())
    monkeypatch.setattr(su2ladders.verify, "demo_s1_operators", perturbed_demo)
    ctx = _SpinContext(1, 4)
    report = _run_block(lambda r, c: _s1_demo_checks(r, c, r.report), ctx)
    check = next(c for c in report.checks if c.name == "s1-weyl-pair")
    assert not check.passed and check.residual > 1e-8
