import dataclasses
import json
import math

import numpy as np
import pytest

import su2ladders.casimir
import su2ladders.ladder
import su2ladders.verify
from scipy import sparse
from su2ladders import bruteforce
from su2ladders.casimir import (GradeError, LatticeSchemeError,
                               build_families)
from su2ladders.fock import enumerate_sector
from su2ladders.jpoly import JPoly
from su2ladders.ladder import (RightFunctionError, build_alpha,
                               family_for_theta, solve_sigma)
from su2ladders.operators import SectorBlocks, SparseOperator
from su2ladders.schwinger import (KernelNodes, Su2Generators, Weight0View,
                                  WeightLeakError, su2_generators)
from su2ladders.verify import (REQUIRED_ANCHORS, SuiteConfig,
                               VerificationReport, _deformed_checks,
                               _fock_operator_checks, _lattice_checks,
                               _listed_annihilation,
                               _Runner, _s1_demo_checks, _schwinger_checks,
                               _SpinContext, _symbolic_checks, _tau_checks,
                               export_report,
                               run_suite)


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
    parsed = json.loads(default_report.to_json())
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
    assert json.loads(path.read_text()) == default_report.to_json_dict()
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


@pytest.mark.parametrize("config", [
    SuiteConfig(spins=[True], n_max=4), SuiteConfig(spins=[1, False], n_max=4),
    SuiteConfig(spins=[1], n_max=True)], ids=["spin-true", "spin-false",
                                              "nmax-true"])
def test_config_validation_refuses_bools(config):
    # bool is an int subclass: True would run spin 1 and report "s": true.
    with pytest.raises(ValueError, match="spins|n_max"):
        config.validate()


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
    # Every entry from a weight-0 state into a weight-0 state times
    # (1 + delta * r), r uniform in [-1, 1]: the blocks of a SectorBlocks
    # between weight-0 sectors (on the weight-0 basis, every block), or the
    # CSR entries of a whole-space operator.
    rng = np.random.default_rng(seed)
    if isinstance(op, SectorBlocks):
        keys = op.basis.sector_table().keys
        return SectorBlocks(op.basis, {
            k: (t, block * (1.0 + delta * rng.uniform(-1.0, 1.0, block.shape))
                if keys[k][1] == keys[t][1] == 0 else block)
            for k, (t, block) in op.blocks.items()})
    m = op.matrix.copy()
    weights = op.basis.weights
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    block = (weights[rows] == 0) & (weights[m.indices] == 0)
    m.data[block] *= 1.0 + delta * rng.uniform(-1.0, 1.0, int(block.sum()))
    return SparseOperator(op.basis, m)


def _run_block(block, ctx):
    report = VerificationReport(config=SuiteConfig(spins=[ctx.s],
                                                   n_max=ctx.n_max))
    block(_Runner(report.config, report), ctx)
    return report


@pytest.mark.parametrize("spin", [1, 2, 3])
def test_deformed_generators_gate_catches_entrywise_perturbation(spin):
    # The two J^2 commutators read about 1e-7 at delta = 1e-6; the gate is
    # 1e-8.  The check reads tau's weight-0 level blocks, so those are
    # perturbed.
    ctx = _SpinContext(spin, 4)
    for omega in range(1, spin + 1):
        tau = ctx.taus[-omega]
        ctx.taus[-omega] = dataclasses.replace(
            tau, weight0=_perturbed(tau.weight0, seed=10 * spin + omega))
    report = _run_block(_deformed_checks, ctx)
    checks = [c for c in report.checks
              if c.name == "deformed-algebra-generators"]
    assert len(checks) == spin
    assert not any(c.passed for c in checks)


def test_j_defining_identity_gate_catches_one_perturbed_entry(monkeypatch):
    # J^2 V = V j(j+1) and V^T V = I read about 1e-15 at (2, 4).  One entry
    # of the (4, 0) sector's J^2 block moved by 1e-9 max|J^2| reads 1.8e-10
    # relative to ||J^2||_F (400), and one entry of its eigenvector table
    # moved by 1e-9 reads 1.5e-9 in V^T V - I: each fails the 1e-10 gate.
    def check():
        report = _run_block(_schwinger_checks, _SpinContext(2, 4))
        return next(c for c in report.checks
                    if c.name == "j-defining-identity")
    assert check().passed and check().residual < 1e-14
    j2_sectors = Su2Generators.j2_sectors

    def perturbed(self):
        for key, block, vals, vecs, labels in j2_sectors(self):
            if key == (4, 0):
                block, vecs = block.copy(), vecs.copy()
                if part == "block":
                    block[1, 2] += 1e-9 * np.abs(self.J2.matrix.data).max()
                else:
                    vecs[1, 2] += 1e-9
            yield key, block, vals, vecs, labels
    monkeypatch.setattr(Su2Generators, "j2_sectors", perturbed)
    for part in ("block", "vectors"):
        failed = check()
        assert not failed.passed and failed.residual > 1e-10, part
        assert failed.tolerance == 1e-10


def _named_check(block, ctx, name):
    return next(c for c in _run_block(block, ctx).checks if c.name == name)


@pytest.mark.parametrize("spin", [1, 2, 3, 4])
def test_weyl_pair_gate_catches_one_scaled_entry(monkeypatch, spin):
    # The entry of a_0^dagger from the vacuum, an interior one, times
    # (1 + 1e-10): the mixed pairs [a_0, a_nu^dagger] no longer cancel
    # (absolute residual 1.0e-10 at s = 1..4, the worst), and
    # [a_0, a_0^dagger] misses the identity by about 2e-10 on two states,
    # still above the 1e-12 gate after the normalisation by the square root
    # of the kept states (220 at s = 4).
    def check():
        return _named_check(_fock_operator_checks, _SpinContext(spin, 4),
                            "weyl-pair-commutator")
    assert check().passed
    build = su2ladders.verify.creation_op

    def scaled(basis, mu):
        adag = build(basis, mu)
        if mu != 0:
            return adag
        m = adag.matrix.copy()
        vacuum = basis.state_index((0,) * basis.modes)
        m.data[np.flatnonzero(m.indices == vacuum)[0]] *= 1.0 + 1e-10
        return SparseOperator(basis, m)
    monkeypatch.setattr(su2ladders.verify, "creation_op", scaled)
    failed = check()
    assert not failed.passed and failed.residual > 1e-12


def test_suite_never_builds_the_whole_space_decomposition_above_spin_1(
        monkeypatch):
    # Both whole-space certificates read J^2 one sector at a time
    # (j2_sectors) and the images on probe columns, so at s >= 2 the suite
    # passes with the whole-space decomposition, and with it j, refused.
    def refuse(self):
        raise AssertionError("the suite read the whole-space decomposition")
    monkeypatch.setattr(Su2Generators, "j2_decomposition", refuse)
    report = run_suite(SuiteConfig(spins=[2, 3], n_max=4))
    assert report.overall_pass, [c.detail for c in report.checks
                                 if not c.passed]


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 4), (3, 5), (4, 4)])
def test_homomorphism_gate_catches_one_scaled_entry(monkeypatch, spin, n_max):
    # The stored entry halfway through the first draw's X^ times
    # (1 + 1e-9): the relative residual reads 9.1e-12 (3@5) to 1.4e-10
    # (1@4), against the 1e-12 gate.
    def check():
        return _named_check(_schwinger_checks, _SpinContext(spin, n_max),
                            "jordan-schwinger-homomorphism")
    assert check().passed
    images = su2ladders.verify.jordan_schwinger
    calls = []

    def scaled(basis, x):
        image = images(basis, x)
        calls.append(x)
        if len(calls) > 1:
            return image
        m = image.matrix.copy()
        m.data[m.nnz // 2] *= 1.0 + 1e-9
        return SparseOperator(basis, m)
    monkeypatch.setattr(su2ladders.verify, "jordan_schwinger", scaled)
    failed = check()
    assert not failed.passed and failed.residual > 9e-12


@pytest.mark.parametrize("spin", [1, 2])
def test_lattice_scheme_counts_the_basis_states(monkeypatch, spin):
    # Without its one node, level 0 has no source: no arrow is read, and
    # only the count against the basis's (0, 0) state can fail.  (At
    # n_max = 1 level 0 is the only source level; at larger n_max a dropped
    # node fails lattice-scheme first, as a leak of the images that reach
    # it.)
    def check():
        return _named_check(_lattice_checks, _SpinContext(spin, 1),
                            "lattice-scheme")
    assert check().passed
    nodes = Weight0View.nodes

    def dropped(self, n):
        level = nodes(self, n)
        if n != 0:
            return level
        return KernelNodes(level.positions, level.labels[1:],
                           level.vectors[:, 1:])
    monkeypatch.setattr(Weight0View, "nodes", dropped)
    failed = check()
    assert not failed.passed
    assert failed.detail == "node dimensions at n=0 sum to 0, sector has 1"


#: The checks that read the whole-space families (``LadderFamily.ops``):
#: the two family checks, and the off-weight-0 claims of the complete set
#: and of the deformed generators, by (name, omega).
GRADE_READERS = {("family-number-ladder", None), ("family-jz-commuting", None),
                 ("tau-complete-set", None),
                 ("deformed-algebra-generators", 1),
                 ("deformed-algebra-generators", 2)}


def _first_state(basis, n, weight):
    return int(np.flatnonzero((basis.totals == n)
                              & (basis.weights == weight))[0])


def _stray_in_p1(monkeypatch, source, target, size):
    """Wrap the row map (``_raised_rows``) so that p_1, when formed on every
    column, gets one more entry ``size`` from the first state of sector
    ``source`` (n, w) into the first state of sector ``target``.  The entry
    goes into both a_{-1}^dagger J_+ P and a_1^dagger J_- P, each times
    sqrt(s (s + 1)) / 2, so that it is ``size`` in
    p_1 = (plus + minus) / sqrt(s (s + 1)) and cancels in m_1."""
    raised_rows = su2ladders.casimir._raised_rows

    def stray(basis, mu, x):
        out = raised_rows(basis, mu, x)
        if abs(mu) != 1 or x.shape[1] != len(basis):
            return out
        col, row = _first_state(basis, *source), _first_state(basis, *target)
        value = size * math.sqrt(basis.spin * (basis.spin + 1)) / 2
        return out + sparse.csr_matrix(([value], ([row], [col])),
                                       shape=out.shape)
    monkeypatch.setattr(su2ladders.casimir, "_raised_rows", stray)


def _assert_only_the_grade_readers_fail(monkeypatch, source, target, scale,
                                        grade, tolerance=None):
    # run_suite at s = 2, n_max = 4 before and after a stray of
    # scale * max|p_1| in p_1 (``_stray_in_p1``): exactly the checks that
    # read the whole-space families fail, with the construction's error
    # naming p_1, the entry's two states and its grade, and every other
    # check reads what it read before.
    config = SuiteConfig(spins=[2], n_max=4, default_tolerance=tolerance)
    before = run_suite(config).checks
    basis = enumerate_sector(2, 4)
    p1 = build_families(basis, su2_generators(basis)).p_ops[1]
    with monkeypatch.context() as patch:
        _stray_in_p1(patch, source, target,
                     scale * np.abs(p1.matrix.data).max())
        after = run_suite(config).checks
    detail = (f"GradeError: p_1 sends "
              f"{basis.states[_first_state(basis, *source)]} to "
              f"{basis.states[_first_state(basis, *target)]}: grade {grade}, "
              "not (1, 0) (1 such entries)")
    assert [(c.name, c.params) for c in before] == \
        [(c.name, c.params) for c in after]
    failed = set()
    for old, new in zip(before, after):
        assert old.passed, old.name
        if new.passed:
            assert new.residual == old.residual, new.name
        else:
            failed.add((new.name, new.params.get("omega")))
            assert new.residual is None and new.detail == detail, new.name
    assert failed == GRADE_READERS


def test_off_grade_stray_fails_the_complete_set_and_deformed_checks(
        monkeypatch):
    # A stray of 1e-12 max|p_1| in p_1 from a weight-1 state into weight 2
    # (a whole-space J_z commutator residual would read it as about 2e-14):
    # grade (1, 1), on a weight-1 column, so tau's weight-0 blocks, and
    # every float residual read there, stay as they are.  It is refused
    # where the whole-space families are formed, which every reader of the
    # grade does: the two family checks, the complete set and both
    # deformed checks.  A loosened tolerance changes nothing.
    for tolerance in (None, 1.0):
        _assert_only_the_grade_readers_fail(monkeypatch, (1, 1), (2, 2),
                                            1e-12, (1, 1), tolerance)


@pytest.mark.parametrize("target,scale,family_check,grade", [
    # Grade (1, 1): it changes the weight.
    ((2, 2), 1e-12, "family-jz-commuting", (1, 1)),
    # A diagonal entry, grade (0, 0): it keeps the weight and breaks the
    # number ladder.
    ((1, 1), 1e-6, "family-number-ladder", (0, 0))])
def test_off_grade_stray_fails_its_family_check_exactly(monkeypatch, target,
                                                        scale, family_check,
                                                        grade):
    # Either part of the grade off, Delta n (the number ladder) or Delta w
    # (J_z), fails both family checks together, and the other readers of
    # the grade, whatever the entry's size.
    assert (grade[1] != 0) == (family_check == "family-jz-commuting")
    _assert_only_the_grade_readers_fail(monkeypatch, (1, 1), target, scale,
                                        grade)


def test_refused_whole_space_families_are_formed_once_per_run(monkeypatch):
    # The whole-space families are kept with their GradeError when the
    # construction refuses them (``LadderFamily.kept``): under the p_1
    # stray, the five checks that read them fail from one whole-width
    # ``_family_columns`` call in each run.
    basis = enumerate_sector(2, 4)
    p1 = build_families(basis, su2_generators(basis)).p_ops[1]
    _stray_in_p1(monkeypatch, (1, 1), (2, 2),
                 1e-12 * np.abs(p1.matrix.data).max())
    family_columns = su2ladders.casimir._family_columns
    whole = []

    def counted(generators, columns):
        whole.append(len(columns) == len(generators.basis))
        return family_columns(generators, columns)
    monkeypatch.setattr(su2ladders.casimir, "_family_columns", counted)
    for _ in range(2):
        whole.clear()
        report = run_suite(SuiteConfig(spins=[2], n_max=4))
        assert report.failed_count == len(GRADE_READERS)
        assert whole.count(True) == 1


def test_consistent_off_grade_level_is_refused_where_it_is_formed(
        monkeypatch):
    # p_0 = 2 a_0^dagger P sends the whole weight-0 level n = 2 two levels
    # up, into (4, 0): grade (2, 0).  It keeps the weight and sends the
    # level into one level, so the weight-0 level blocks could hold it; the
    # construction refuses it on the weight-0 columns already.
    basis = enumerate_sector(2, 4)
    gens = su2_generators(basis)
    raised_rows = su2ladders.casimir._raised_rows
    level = (basis.totals == 2) & (basis.weights == 0)

    def twice(basis, mu, x):
        if mu != 0:
            return raised_rows(basis, mu, x)
        rows = [sparse.diags(mask.astype(float), format="csr") @ x
                for mask in (~level, level)]
        return (raised_rows(basis, 0, rows[0])
                + raised_rows(basis, 0, raised_rows(basis, 0, rows[1])))
    monkeypatch.setattr(su2ladders.casimir, "_raised_rows", twice)
    zero = basis.mode_position(0)
    sources = [basis.states[i] for i in np.flatnonzero(level)]
    moved = {state: state[:zero] + (state[zero] + 2,) + state[zero + 1:]
             for state in sources}
    first = min(sources, key=lambda state: basis.state_index(moved[state]))
    with pytest.raises(GradeError) as err:
        build_families(basis, gens)
    assert str(err.value) == (
        f"p_0 sends {first} to {moved[first]}: grade (2, 0), not (1, 0) "
        f"({len(sources)} such entries)")


def test_family_grade_checks_form_no_product(monkeypatch):
    ctx = _SpinContext(2, 4)

    def refuse(*args):
        raise AssertionError("a family check formed an operator product")
    monkeypatch.setattr(SparseOperator, "__matmul__", refuse)
    report = _run_block(_tau_checks, ctx)
    family = [c for c in report.checks if c.name.startswith("family-")]
    assert [c.name for c in family] == ["family-number-ladder",
                                        "family-jz-commuting"]
    assert all(c.passed and c.residual == 0.0 for c in family)


@pytest.mark.parametrize("spin", [1, 2, 3])
def test_run_suite_builds_no_whole_space_tau_above_spin_1(monkeypatch, spin):
    # Only the spin-1 scale checks read the whole-space tau, of theta = +-1.
    built = []
    build_taus = su2ladders.verify.build_taus

    def recorded(*args, **kwargs):
        built.append(build_taus(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(su2ladders.verify, "build_taus", recorded)
    assert run_suite(SuiteConfig(spins=[spin], n_max=4)).overall_pass
    assert len(built) == 1
    assert {theta for theta, tau in built[0].items() if "op" in vars(tau)} \
        == ({-1, 1} if spin == 1 else set())


def test_s1_weyl_pair_gate_catches_entrywise_perturbation(monkeypatch):
    # [A, A+] = 1 reads about 1e-6 with A+ perturbed at 1e-6 on its weight-0
    # blocks, the entries the check reads; the gate is 1e-8.
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


def _leak_the_family_columns(monkeypatch, sigma, weight, delta=1e-6):
    """Patch the family routine (``_family_columns``) so that the first
    operator entering sigma's tau (sigma_k != 0) gets one entry delta from
    the first one-particle weight-0 state to the first two-particle state
    of the given weight, on whatever columns it forms."""
    k = min(k for k, poly in sigma.sigmas.items() if not poly.is_zero())
    i = k if sigma.family == "p" else k - 1
    family_columns = su2ladders.casimir._family_columns

    def leaked(generators, columns):
        p, m = family_columns(generators, columns)
        ops = p if sigma.family == "p" else m
        basis = generators.basis
        col = np.flatnonzero((basis.totals == 1) & (basis.weights == 0))[0]
        row = np.flatnonzero((basis.totals == 2)
                             & (basis.weights == weight))[0]
        local = np.flatnonzero(columns == col)
        ops[i] = ops[i] + sparse.csr_matrix(
            (np.full(len(local), delta), (np.full(len(local), row), local)),
            shape=ops[i].shape)
        return p, m
    monkeypatch.setattr(su2ladders.casimir, "_family_columns", leaked)


@pytest.mark.parametrize("spin", [2, 3])
@pytest.mark.parametrize("weight", [1, -1])
def test_weight_leak_fails_the_tau_build(monkeypatch, spin, weight):
    # A 1e-6 entry from weight 0 into weight +-1 of a family operator cannot
    # hide in the weight-0 blocks that tau is assembled from: it is refused
    # where those blocks are formed from the families' columns, the first
    # step of the tau build.
    ctx = _SpinContext(spin, 4)
    sigma = solve_sigma(build_alpha(spin, family_for_theta(spin, 1)), 1)
    _leak_the_family_columns(monkeypatch, sigma, weight)
    with pytest.raises(WeightLeakError):
        build_families(ctx.basis, ctx.gens)
    with pytest.raises(WeightLeakError):
        ctx.gens.weight0().of(ctx.gens.Jplus)


@pytest.mark.parametrize("spin", [2, 3])
@pytest.mark.parametrize("weight", [1, -1])
def test_weight_leak_fails_the_tau_checks(monkeypatch, spin, weight):
    # The families and the taus are built inside each check, so a leaked
    # family operator fails every tau check with the leak, not the whole
    # run.
    ctx = _SpinContext(spin, 4)
    sigma = solve_sigma(build_alpha(spin, family_for_theta(spin, 1)), 1)
    _leak_the_family_columns(monkeypatch, sigma, weight)
    report = _run_block(_tau_checks, ctx)
    names = ("tau-casimir-ladder", "tau-label-shift", "resolvent-ladder-right",
             "resolvent-ladder-left")
    checks = [c for c in report.checks if c.name in names]
    assert len(checks) == 6 * (2 * spin + 1)
    for check in checks:
        assert not check.passed
        assert check.detail.startswith("WeightLeakError")


#: The spin-1 checks that read the families, or the demo operators built
#: from them.
S1_FAMILY_READERS = (
    "s1-family-definitions", "s1-family-commutators", "casimir-closure-full",
    "s1-m1-annihilates-kernel", "s1-tau-expressions", "s1-weyl-pair",
    "s1-number-like-spectrum", "s1-deformed-su2-spectrum",
    "s1-single-mode-ladders", "s1-inverse-expressions",
    "s1-label-commutators", "s1-bracket-ladder", "s1-lattice-diagram",
    "s1-canonical-basis")


def test_family_build_failure_fails_the_spin1_checks(monkeypatch):
    # The spin-1 block reads the families and the demo operators inside its
    # checks, so a family build that raises fails those checks (as it fails
    # the tau checks at every spin) instead of ending run_suite.
    def leaking(generators, columns):
        raise WeightLeakError("family column leaves weight 0")
    monkeypatch.setattr(su2ladders.casimir, "_family_columns", leaking)
    report = run_suite(SuiteConfig(spins=[1], n_max=4))
    assert not report.overall_pass
    failed = {c.name for c in report.checks if not c.passed}
    assert set(S1_FAMILY_READERS) <= failed
    for check in report.checks:
        if check.name in S1_FAMILY_READERS:
            assert check.detail.startswith("WeightLeakError"), check.detail


def test_oracles_catch_a_dropped_weight0_state(monkeypatch):
    # Dropping one two-particle weight-0 state from the brute-force
    # enumeration must fail both oracle checks and change no other verdict.
    config = SuiteConfig(spins=[2], n_max=4)
    before = run_suite(config)
    enumerate_states = bruteforce.enumerate_states

    def dropped(spin, n_max, n=None, weight=None):
        states = enumerate_states(spin, n_max, n=n, weight=weight)
        return states[:-1] if (n, weight) == (2, 0) else states
    monkeypatch.setattr(bruteforce, "enumerate_states", dropped)
    after = run_suite(config)
    assert [(c.name, c.params) for c in after.checks] == \
        [(c.name, c.params) for c in before.checks]
    changed = [c.name for b, c in zip(before.checks, after.checks)
               if b.passed != c.passed]
    assert before.overall_pass
    assert sorted(changed) == ["kernel-dimensions", "multiplicity-oracle"]


def test_multiplicity_oracle_reads_its_own_evidence(monkeypatch):
    # The oracle counts the weight-0 view's labels, not the lattice's
    # nodes: a lattice that raises fails lattice-scheme and leaves the
    # oracle passing, while one label counted twice fails it.
    ctx = _SpinContext(2, 4)

    def leaking(*args):
        raise LatticeSchemeError("tau_dag[+1] leaks outside its node")
    monkeypatch.setattr(su2ladders.verify, "lattice_report", leaking)
    checks = {c.name: c for c in _run_block(_lattice_checks, ctx).checks}
    assert checks["lattice-scheme"].detail.startswith("LatticeSchemeError")
    assert not checks["lattice-scheme"].passed
    assert checks["multiplicity-oracle"].passed
    labels = Weight0View.labels

    def doubled(self, n):
        js = labels(self, n)
        return np.append(js, js[-1]) if n == ctx.n_limit else js
    monkeypatch.setattr(Weight0View, "labels", doubled)
    oracle = next(c for c in _run_block(_lattice_checks, ctx).checks
                  if c.name == "multiplicity-oracle")
    assert not oracle.passed
    assert oracle.detail.startswith(f"multiplicities at n={ctx.n_limit}:")


@pytest.mark.parametrize("spin,n_max", [(2, 4), (3, 3)])
def test_right_functions_run_twice_per_spin(monkeypatch, spin, n_max):
    # Once for the context, whose checks share them, and once in build_taus.
    callers = []
    original = su2ladders.ladder.right_functions
    for module in (su2ladders.verify, su2ladders.casimir):
        def counted(s, module=module):
            callers.append(module.__name__)
            return original(s)
        monkeypatch.setattr(module, "right_functions", counted)
    assert run_suite(SuiteConfig(spins=[spin], n_max=n_max)).overall_pass
    assert sorted(callers) == ["su2ladders.casimir", "su2ladders.verify"]


#: The checks that read the context's right functions (and sigmas).
RIGHT_FUNCTION_READERS = ("determinant-certificates", "right-function-parity",
                          "right-function-family",
                          "sigma-consistency-and-degrees", "sigma-closed-form")


def _nonzero_determinant(monkeypatch, theta):
    certificate = su2ladders.ladder.det_certificate

    def broken(s, family, th):
        det = certificate(s, family, th)
        return det + JPoly.one() if th == theta else det
    monkeypatch.setattr(su2ladders.ladder, "det_certificate", broken)
    return certificate


@pytest.mark.parametrize("theta", [-2, 0, 1])
def test_nonzero_determinant_fails_every_right_function_reader(monkeypatch,
                                                               theta):
    # The exact layer alone, where only the right-function readers fail;
    # test_run_suite_records_a_right_function_failure runs the whole suite.
    _nonzero_determinant(monkeypatch, theta)
    report = _run_block(lambda r, c: _symbolic_checks(r, c, r.report),
                        _SpinContext(2, 3))
    readers = [c for c in report.checks if c.name in RIGHT_FUNCTION_READERS]
    assert len(readers) == len(RIGHT_FUNCTION_READERS)
    assert all(c.passed for c in report.checks if c not in readers)
    for check in readers:
        assert not check.passed
        assert check.detail.startswith("RightFunctionError"), check.detail
        assert f"theta={theta}" in check.detail


#: The checks that read the taus, which build_taus cannot assemble without
#: the right functions.
TAU_READERS = ("power-identity-casimir", "rlo-compose-polynomial",
               "rlo-compose-number", "tau-casimir-ladder", "tau-label-shift",
               "resolvent-ladder-right", "resolvent-ladder-left",
               "tau-complete-set", "complete-set-separation",
               "lattice-scheme", "tau-annihilation-rules",
               "tau-trivial-kernel-parity", "tau-zero-preserves-j",
               "deformed-algebra-generators", "residue-classes")


def test_run_suite_records_a_right_function_failure(monkeypatch):
    # A failed certificate is recorded, not raised: the suite runs the same
    # checks with the same params, and exactly the readers of the right
    # functions and of the taus fail, each with the certificate's error.
    config = SuiteConfig(spins=[2], n_max=3)
    clean = run_suite(config)
    _nonzero_determinant(monkeypatch, 1)
    broken = run_suite(config)
    assert clean.overall_pass
    assert [(c.name, c.params) for c in broken.checks] == \
        [(c.name, c.params) for c in clean.checks]
    failed = [c for c in broken.checks if not c.passed]
    assert {c.name for c in failed} == \
        set(RIGHT_FUNCTION_READERS) | set(TAU_READERS)
    for check in failed:
        assert check.detail.startswith("RightFunctionError"), check.detail
        assert "theta=1" in check.detail


def test_no_right_function_failure_is_cached(monkeypatch):
    ctx = _SpinContext(2, 3)
    certificate = _nonzero_determinant(monkeypatch, 1)
    for _ in range(2):
        with pytest.raises(RightFunctionError):
            ctx.right_functions
        with pytest.raises(RightFunctionError):
            ctx.sigmas
    monkeypatch.setattr(su2ladders.ladder, "det_certificate", certificate)
    assert [rf.theta for rf in ctx.right_functions] == list(range(-2, 3))
    assert sorted(ctx.sigmas) == list(range(-2, 3))
    assert ctx.right_functions is ctx.right_functions


#: The checks that read the kernel lattice (``_SpinContext.lattice``).
LATTICE_READERS = ("lattice-scheme", "tau-annihilation-rules",
                   "tau-trivial-kernel-parity", "tau-zero-preserves-j",
                   "residue-classes", "s1-lattice-diagram")


def test_a_failed_lattice_build_is_kept(monkeypatch):
    # A lattice build that raises runs once per spin; the context keeps
    # its exception, and every lattice reader fails with the same detail.
    calls = []

    def leaking(*args):
        calls.append(args[1].s)
        raise LatticeSchemeError("tau_dag[+1] leaks outside its node")
    monkeypatch.setattr(su2ladders.verify, "lattice_report", leaking)
    report = run_suite(SuiteConfig(spins=[1, 2], n_max=4))
    assert calls == [1, 2]
    failed = [c for c in report.checks if not c.passed]
    assert {c.name for c in failed} == set(LATTICE_READERS)
    assert len(failed) == (4 + 1 + 1) + (4 + 2)
    for check in failed:
        assert check.detail == ("LatticeSchemeError: tau_dag[+1] leaks "
                                "outside its node")


def _scale_one_entry(ctx, n, factor):
    """Scale the largest-magnitude entry of every tau's level-n block (the
    pair n -> n + 1) by ``factor``; return the thetas that have one."""
    thetas = []
    for theta, tau in list(ctx.taus.items()):
        if n not in tau.weight0.blocks:
            continue
        blocks = dict(tau.weight0.blocks)
        target, block = blocks[n]
        block = block.copy()
        block[np.unravel_index(np.argmax(np.abs(block)), block.shape)] *= factor
        blocks[n] = (target, block)
        ctx.taus[theta] = dataclasses.replace(
            tau, weight0=SectorBlocks(tau.weight0.basis, blocks))
        thetas.append(theta)
    return thetas


#: The certificates whose margin-1 rows read tau's level pairs up to
#: n_max - 2 -> n_max - 1.
MARGIN1_TAU_CHECKS = ("tau-casimir-ladder", "tau-label-shift",
                      "resolvent-ladder-right")


@pytest.mark.parametrize("spin", [1, 2, 3, 4, 5])
def test_tau_certificates_catch_one_scaled_entry_of_the_highest_kept_pair(
        spin):
    # The largest entry of each tau's block n_max - 2 -> n_max - 1, the
    # highest pair a margin-1 row reads, times (1 + 1e-5): every certificate
    # of those taus fails its 1e-8 gate (at n_max = 4 they read 3.5e-7 to
    # 2.3e-4).
    ctx = _SpinContext(spin, 4)
    thetas = _scale_one_entry(ctx, 2, 1.0 + 1e-5)
    checks = [c for c in _run_block(_tau_checks, ctx).checks
              if c.name in MARGIN1_TAU_CHECKS and c.params["theta"] in thetas]
    assert len(checks) == 4 * len(thetas) > 0
    assert not [c for c in checks if c.passed]


@pytest.mark.parametrize("spin,n_max", [(1, 3), (2, 4), (3, 5), (4, 4), (5, 4)])
def test_a_scaled_entry_of_the_top_pair_fails_only_the_lattice(spin, n_max):
    # The same perturbation on n_max - 1 -> n_max lies outside every
    # margin-1 row, so the certificates read exactly what they read before;
    # at n_max <= 5 the lattice's source levels reach n_max - 1, and
    # lattice-scheme refuses the leak.  (At n_max >= 6 no check reads that
    # pair: the lattice stops at n_limit = 4.)
    def run(perturb):
        ctx = _SpinContext(spin, n_max)
        if perturb:
            assert _scale_one_entry(ctx, n_max - 1, 1.0 + 1e-5)
        return (_run_block(_tau_checks, ctx).checks,
                _named_check(_lattice_checks, ctx, "lattice-scheme"))
    (before, lattice), (after, leaked) = run(False), run(True)
    assert lattice.passed
    assert [(c.name, c.params, c.residual) for c in after] == \
        [(c.name, c.params, c.residual) for c in before]
    assert not leaked.passed
    assert leaked.detail.startswith("LatticeSchemeError: tau_dag[")
