"""Residuals formed on their restricted columns equal the whole-space forms.

Every interior residual reads only the columns its restriction keeps, and the
library forms its products on those columns alone.  The references below form
the same identities from whole-space products and slice them with dense
masks; the reports must be equal, not merely close, because
(X Y) P = X (Y P) holds entry for entry in floating point.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

import su2ladders
import su2ladders.casimir
import su2ladders.cli
import su2ladders.schwinger
import su2ladders.verify
from su2ladders.casimir import (LatticeArrow, LatticeSchemeError,
                                _separate_node, _worst_alpha_entry,
                                alpha_entry_deviation,
                                build_families, build_taus, certify_alpha,
                                complete_set_check,
                                deformed_generators, demo_s1_operators,
                                lattice_report, resolvent_commutator_check,
                                s1_full_closure_residuals,
                                s1_inverse_expressions, s1_mutual_commutators,
                                s1_reference_taus, s1_tau_bracket_ladder,
                                tau_bar_forms, tau_casimir_ladder_residual,
                                tau_off_grade, tau_shift_residual)
from su2ladders.ladder import (build_alpha, build_alpha_variant_diag4,
                               check_llo, check_power_identity, check_rlo,
                               check_rlo_compose)
from su2ladders.operators import (BasisMismatchError, EmptyInteriorError,
                                  ResidualReport, SparseOperator, commutator,
                                  commutator_on_columns, commutator_residual,
                                  creation_op, number_op, on_columns,
                                  residual, zero_residual)
from su2ladders.cli import _json_dump, main
from su2ladders.fock import enumerate_sector
from su2ladders.schwinger import WeightLeakError, jz_kernel, su2_generators
from su2ladders.verify import (SuiteConfig, VerificationReport, _deformed_checks,
                               _engine_checks, _Runner, _s1_demo_checks,
                               _schwinger_checks, _SpinContext, run_suite)

SPINS = [2, 3]


# -- references: whole-space operators under dense masks ----------------------
#
# Each reference slices ``matrix[rows][:, cols]`` with integer index arrays
# and drops columns by copying, zeroing and ``eliminate_zeros``.  With a
# ``col_weight`` the columns are further cut to that J_z weight: the
# whole-space form of a claim the library reads on the weight-0 view.

def _ref_restriction(basis, margin, col_weight):
    interior = basis.totals <= basis.n_max - margin
    rows = np.flatnonzero(interior)
    cols = rows if col_weight is None else np.flatnonzero(
        interior & (basis.weights == col_weight))
    if len(rows) == 0 or len(cols) == 0:
        raise EmptyInteriorError
    return rows, cols


def _ref_fro(matrix, rows, cols):
    sub = matrix[rows][:, cols]
    if sub.nnz == 0:
        return 0.0
    return float(math.sqrt(np.sum(np.abs(sub.data) ** 2)))


def _ref_on_columns(x, margin, col_weight):
    _rows, cols = _ref_restriction(x.basis, margin, col_weight)
    if len(cols) == len(x.basis):
        return x
    keep = np.zeros(len(x.basis), dtype=bool)
    keep[cols] = True
    m = x.matrix.copy()
    m.data[~keep[m.indices]] = 0
    m.eliminate_zeros()
    return SparseOperator(x.basis, m)


def _ref_residual(x, y, margin, col_weight):
    rows, cols = _ref_restriction(x.basis, margin, col_weight)
    absolute = _ref_fro((x.matrix - y.matrix).tocsr(), rows, cols)
    denom = max(_ref_fro(x.matrix, rows, cols), _ref_fro(y.matrix, rows, cols))
    return ResidualReport(absolute, absolute / denom if denom > 0 else absolute,
                          margin)


def _ref_commutator_on_columns(x, y, margin, col_weight):
    return (x @ _ref_on_columns(y, margin, col_weight)
            - y @ _ref_on_columns(x, margin, col_weight))


def _ref_commutator_residual(x, y, margin, col_weight):
    rows, cols = _ref_restriction(x.basis, margin, col_weight)
    c = _ref_commutator_on_columns(x, y, margin, col_weight)
    absolute = _ref_fro(c.matrix, rows, cols)
    scale = _ref_fro(x.matrix, rows, cols) * _ref_fro(y.matrix, rows, cols)
    return ResidualReport(absolute, absolute / scale if scale > 0 else absolute,
                          margin)


def _ref_zero_residual(x, margin, col_weight, scale):
    rows, cols = _ref_restriction(x.basis, margin, col_weight)
    absolute = _ref_fro(x.matrix, rows, cols)
    return ResidualReport(absolute, absolute / scale if scale > 0 else absolute,
                          margin)


def _full_commutator_residual(x, y, margin, col_weight=None):
    # commutator_residual from the whole-space commutator.
    rows, cols = _ref_restriction(x.basis, margin, col_weight)
    scale = _ref_fro(x.matrix, rows, cols) * _ref_fro(y.matrix, rows, cols)
    return _ref_zero_residual(commutator(x, y), margin, col_weight, scale)


def _full_ladder_residual(lhs, rhs, degenerate, margin, col_weight):
    if rhs.is_zero():
        return _full_commutator_residual(*degenerate, margin, col_weight)
    return _ref_residual(lhs, rhs, margin, col_weight)


def _ref_rlo(h, p_dag, p_fn, margin, col_weight=None):
    return _full_ladder_residual(commutator(h, p_dag), p_dag @ p_fn,
                                 (h, p_dag), margin, col_weight)


def _ref_llo(h, p, p_fn, margin, col_weight=None):
    return _full_ladder_residual(commutator(p, h), p_fn @ p, (h, p), margin,
                                 col_weight)


def _ref_power_identity(h, p_dag, p_fn, n, margin, col_weight=None):
    hn = h.power(n)
    return _ref_residual(commutator(hn, p_dag),
                         p_dag @ ((h + p_fn).power(n) - hn), margin, col_weight)


def _ref_rlo_compose(h, p_dag, p_fn, a, margin, col_weight=None):
    pa = p_dag @ a
    return _ref_residual(commutator(h, pa), pa @ p_fn, margin, col_weight)


def _whole(x):
    return x


def _rlo_cases(c):
    """(H, p+, P, col_weight, view) for the number-operator pair and every
    tau: ``view`` maps a whole-space operator to the space the library reads
    the claim on, the weight-0 view for a tau and its weight-0 columns."""
    gens = c.gens
    cases = [(gens.Ntot, creation_op(c.basis, 0),
              SparseOperator.identity(c.basis), None, _whole)]
    for theta, tau in sorted(c.taus.items()):
        cases.append((gens.J2, tau.op, gens.function_of_j(tau.right_function),
                      0, gens.weight0().of))
    return cases


@pytest.mark.parametrize("spin", SPINS)
def test_on_columns_keeps_exactly_the_restricted_columns(ctx, spin):
    c = ctx(spin, 4)
    tau = c.taus[1].op
    for margin in (1, 2):
        cols = np.flatnonzero(c.basis.totals <= c.basis.n_max - margin)
        full = tau.matrix.toarray()
        want = np.zeros_like(full)
        want[:, cols] = full[:, cols]
        assert np.array_equal(on_columns(tau, margin).matrix.toarray(), want)
        comm = commutator(c.gens.J2, tau).matrix.toarray()
        want[:] = 0.0
        want[:, cols] = comm[:, cols]
        assert np.array_equal(commutator_on_columns(c.gens.J2, tau, margin)
                              .matrix.toarray(), want)


@pytest.mark.parametrize("spin", SPINS)
def test_commutator_residual_equals_full_product(ctx, spin):
    c = ctx(spin, 4)
    g = c.gens
    w0 = g.weight0()
    for x, y, margin, col_weight, view in (
            (g.J2, c.taus[0].op, 1, 0, w0.of),
            (g.J2, c.taus[1].op, 1, 0, w0.of),
            (g.Ntot, c.taus[1].op, 1, None, _whole),
            (g.Jz, g.Jplus, 0, None, _whole)):
        assert commutator_residual(view(x), view(y), margin) == \
            _full_commutator_residual(x, y, margin, col_weight)


@pytest.mark.parametrize("spin", SPINS)
def test_check_rlo_and_llo_equal_full_products(ctx, spin):
    c = ctx(spin, 4)
    for h, p_dag, p_fn, col_weight, view in _rlo_cases(c):
        assert check_rlo(view(h), view(p_dag), view(p_fn), 1) == \
            _ref_rlo(h, p_dag, p_fn, 1, col_weight)
        p = p_dag.adjoint()
        assert check_llo(view(h), view(p), view(p_fn), 1) == \
            _ref_llo(h, p, p_fn, 1, col_weight)


@pytest.mark.parametrize("spin", SPINS)
def test_check_power_identity_equals_full_products(ctx, spin):
    c = ctx(spin, 4)
    for h, p_dag, p_fn, col_weight, view in _rlo_cases(c):
        assert check_power_identity(view(h), view(p_dag), view(p_fn), 2, 1) \
            == _ref_power_identity(h, p_dag, p_fn, 2, 1, col_weight)


@pytest.mark.parametrize("spin", SPINS)
def test_check_rlo_compose_equals_full_products(ctx, spin):
    c = ctx(spin, 4)
    g = c.gens
    for a in (g.function_of_j(lambda j: j * j + 1.0), g.Ntot):
        for h, p_dag, p_fn, col_weight, view in _rlo_cases(c):
            assert check_rlo_compose(view(h), view(p_dag), view(p_fn),
                                     view(a), 1) == \
                _ref_rlo_compose(h, p_dag, p_fn, a, 1, col_weight)


@pytest.mark.parametrize("spin", SPINS)
def test_tau_shift_residual_equals_full_products(ctx, spin):
    c = ctx(spin, 4)
    jh = c.gens.j_hat()
    for theta, tau in sorted(c.taus.items()):
        if theta == 0:
            want = _full_commutator_residual(jh, tau.op, 1, 0)
        else:
            want = _ref_residual(commutator(jh, tau.op), float(theta) * tau.op,
                                 1, 0)
        assert tau_shift_residual(tau, c.gens) == want


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("side", ["right", "left"])
def test_resolvent_check_equals_full_products(ctx, spin, side):
    c = ctx(spin, 4)
    g = c.gens
    for k in (0, 1):
        def res(j, k=k):
            return 1.0 / (2.0 * j + (2 * k + 1))
        g_op = g.function_of_j(res)
        for theta, tau in sorted(c.taus.items()):
            if theta == 0:
                want = _full_commutator_residual(g_op, tau.op, 1, 0)
            elif side == "right":
                diff = g.function_of_j(lambda j: res(j + theta) - res(j))
                want = _ref_residual(commutator(g_op, tau.op), tau.op @ diff,
                                     1, 0)
            else:
                diff = g.function_of_j(lambda j: res(j) - res(j - theta))
                want = _ref_residual(commutator(g_op, tau.op), diff @ tau.op,
                                     1, 0)
            assert resolvent_commutator_check(g, tau, k, side) == want


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("family", ["p", "m"])
def test_certify_alpha_equals_full_products(ctx, spin, family):
    c = ctx(spin, 4)
    alpha = build_alpha(spin, family)
    ops = c.families.ops(family)
    want = {}
    for eta, t_eta in ops.items():
        rhs = SparseOperator.zeros(c.basis)
        for mu, t_mu in ops.items():
            if not alpha.entry(mu, eta).is_zero():
                rhs = rhs + t_mu @ c.gens.function_of_j(alpha.entry(mu, eta))
        want[eta] = _ref_residual(commutator(c.gens.J2, t_eta), rhs, 1, 0)
    assert certify_alpha(alpha, c.gens, c.families) == want


def _on_weight0(gens, image):
    """The weight-0 rows of a whole-space image, which is exactly zero on
    every other row."""
    assert not image[gens.basis.weights != 0].any()
    return image[gens.weight0().rows]


def _worst_alpha_entry_per_node(alpha, eta, gens, families):
    # One whole-space commutator and one matrix-vector product per node,
    # fitted on the images' weight-0 rows.
    ops = families.ops(alpha.family)
    worst = (None, 0.0)
    for n in range(0, families.basis.n_max):
        for node in jz_kernel(families.basis, gens, n):
            lhs = _on_weight0(
                gens, commutator(gens.J2, ops[eta]).apply(node.vector))
            m = np.array([_on_weight0(gens, t.apply(node.vector))
                          for t in ops.values()]).T
            if np.linalg.matrix_rank(m, tol=1e-8) < len(ops):
                continue
            coef, *_ = np.linalg.lstsq(m, lhs, rcond=None)
            if np.linalg.norm(m @ coef - lhs) > 1e-6 * (1 + np.linalg.norm(lhs)):
                continue
            for mu, value in zip(ops, coef):
                dev = abs(float(value.real) - float(alpha.entry(mu, eta)(node.j)))
                if dev > worst[1]:
                    worst = (mu, dev)
    return worst


@pytest.mark.parametrize("spin", SPINS)
def test_alpha_entry_extraction_equals_per_node_products(ctx, spin):
    c = ctx(spin, 4)
    for alpha in (build_alpha(spin, "p"), build_alpha(spin, "m"),
                  build_alpha_variant_diag4(spin, "p")):
        worst = 0.0
        for eta in alpha.ks:
            want = _worst_alpha_entry_per_node(alpha, eta, c.gens, c.families)
            assert _worst_alpha_entry(alpha, eta, c.gens, c.families) == want
            worst = max(worst, want[1])
        assert alpha_entry_deviation(alpha, c.gens, c.families) == worst


def test_run_suite_fits_each_family_once_per_spin(monkeypatch):
    # closure-entries-extracted, closure-variant-rejected and certify_alpha's
    # error path all read the same two fits of a spin.
    built = []
    measure = su2ladders.casimir._measure_closure

    def counted(families, generators, family):
        built.append((families.s, family))
        return measure(families, generators, family)
    monkeypatch.setattr(su2ladders.casimir, "_measure_closure", counted)
    assert run_suite(SuiteConfig(spins=[1, 2], n_max=4)).overall_pass
    assert sorted(built) == [(1, "m"), (1, "p"), (2, "m"), (2, "p")]


def test_run_suite_forms_each_kept_value_once(monkeypatch):
    # certify_alpha and the closure fit share one set of [J^2, T_eta] per
    # family, and the six spin-1 readers of s1_reference_taus one pair.
    built = []
    kept = su2ladders.casimir.LadderFamily.kept

    def counted(self, key, generators, build):
        def build_counted():
            built.append((self.s, key))
            return build()
        return kept(self, key, generators, build_counted)
    monkeypatch.setattr(su2ladders.casimir.LadderFamily, "kept", counted)
    assert run_suite(SuiteConfig(spins=[1, 2], n_max=4)).overall_pass
    per_family = [(k, fam) for k in ("commutators", "fit") for fam in "mp"]
    assert sorted(built, key=str) == sorted(
        [(1, "s1-reference-taus")]
        + [(s, key) for s in (1, 2) for key in per_family], key=str)


@pytest.mark.parametrize("family", ["p", "m"])
def test_certify_alpha_reads_the_kept_commutators(ctx, monkeypatch, family):
    c = ctx(2, 4)
    c.families.closure_commutators(family, c.gens)
    formed = []
    monkeypatch.setattr(su2ladders.casimir, "commutator_on_columns",
                        lambda *args: formed.append(args))
    certify_alpha(build_alpha(2, family), c.gens, c.families)
    assert not formed


def test_s1_reference_taus_belong_to_one_family_instance(ctx):
    c = ctx(1, 4)
    pair = s1_reference_taus(c.gens, c.families)
    assert s1_reference_taus(c.gens, c.families) is pair
    copy = dataclasses.replace(c.families)
    assert s1_reference_taus(c.gens, copy) is not pair


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("family", ["p", "m"])
def test_closure_fit_belongs_to_one_family_instance(ctx, spin, family):
    # A copy with one operator scaled by 1 + 1e-6 is measured afresh, and its
    # fit does not replace the original's: the correct alpha deviates on the
    # copy beyond the 1e-10 of closure-entries-extracted and stays below it
    # on the original families.
    c = ctx(spin, 4)
    alpha = build_alpha(spin, family)
    assert alpha_entry_deviation(alpha, c.gens, c.families) < 1e-10
    field = "p_ops" if family == "p" else "m_ops"
    ops = list(getattr(c.families, field))
    ops[1] = (1 + 1e-6) * ops[1]
    scaled = dataclasses.replace(c.families, **{field: tuple(ops)})
    assert alpha_entry_deviation(alpha, c.gens, scaled) > 1e-10
    assert alpha_entry_deviation(alpha, c.gens, c.families) < 1e-10
    assert scaled.closure_fit(family, c.gens) is not \
        c.families.closure_fit(family, c.gens)


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("family", ["p", "m"])
def test_perturbed_alpha_entry_read_against_a_cached_fit(ctx, spin, family):
    c = ctx(spin, 4)
    alpha = build_alpha(spin, family)
    fit = c.families.closure_fit(family, c.gens)
    for key, poly in sorted(alpha.entries.items()):
        entries = {**alpha.entries, key: poly * Fraction(1_000_001, 1_000_000)}
        perturbed = dataclasses.replace(alpha, entries=entries)
        assert alpha_entry_deviation(perturbed, c.gens, c.families) > 1e-10, key
    assert c.families.closure_fit(family, c.gens) is fit


def test_closure_fit_refuses_generators_of_another_basis(ctx):
    c, other = ctx(2, 4), ctx(2, 3)
    with pytest.raises(BasisMismatchError):
        c.families.closure_fit("p", other.gens)


def test_failed_closure_fit_is_not_cached(monkeypatch):
    spin_ctx = _SpinContext(2, 3)
    families, gens = spin_ctx.families, spin_ctx.gens
    measure = su2ladders.casimir._measure_closure

    def failing(*args):
        raise RuntimeError("fit failed")
    monkeypatch.setattr(su2ladders.casimir, "_measure_closure", failing)
    for _ in range(2):
        with pytest.raises(RuntimeError):
            families.closure_fit("p", gens)
    monkeypatch.setattr(su2ladders.casimir, "_measure_closure", measure)
    fit = families.closure_fit("p", gens)
    assert fit is families.closure_fit("p", gens)
    assert fit and all(fit.values())


@pytest.mark.parametrize("spin", SPINS)
def test_lattice_amplitudes_equal_per_vector_products(ctx, spin):
    c = ctx(spin, 4)
    rep = lattice_report(c.basis, c.gens, c.taus, 3)
    arrows = iter(rep.arrows)
    for theta in sorted(c.taus):
        tau = c.taus[theta].op
        tau_low = tau.adjoint()
        for n in range(0, 4):
            for kv in jz_kernel(c.basis, c.gens, n):
                images = [(f"tau_dag[{theta:+d}]", tau.apply(kv.vector))]
                images.append((f"tau[{theta:+d}]", tau_low.apply(kv.vector)))
                for label, image in images:
                    arrow = next(arrows)
                    assert (arrow.operator, arrow.source) == (label, (n, kv.j))
                    norm = float(np.linalg.norm(_on_weight0(c.gens, image)))
                    if arrow.annihilated:
                        assert norm <= 1e-8
                    else:
                        assert arrow.amplitude == norm
    assert next(arrows, None) is None


def _per_vector_arrows(c, ops, n_limit):
    """Lattice arrows of the whole-space taus ``ops`` (theta -> operator)
    from one whole-space product and one projection per node vector, each
    predicted node vector subtracted in turn.  Each image is exactly zero
    off weight 0, and its norm and leak are read on its weight-0 rows."""
    basis, gens = c.basis, c.gens
    nodes = {n: jz_kernel(basis, gens, n)
             for n in range(0, min(n_limit + 1, basis.n_max) + 1)}
    arrows = []
    for theta in sorted(ops):
        tau = ops[theta]
        tau_low = tau.adjoint()
        for n in range(0, n_limit + 1):
            for kv in nodes[n]:
                images = []
                if n <= basis.n_max - 1:
                    images.append((f"tau_dag[{theta:+d}]", (n + 1, kv.j + theta),
                                   tau.apply(kv.vector)))
                images.append((f"tau[{theta:+d}]", (n - 1, kv.j - theta),
                               tau_low.apply(kv.vector)))
                for label, target, image in images:
                    image = _on_weight0(gens, image)
                    norm = float(np.linalg.norm(image))
                    if norm <= 1e-8:
                        arrows.append(LatticeArrow(label, (n, kv.j), None, 0.0,
                                                   True))
                        continue
                    outside = image.copy()
                    for v in [_on_weight0(gens, w.vector)
                              for w in nodes.get(target[0], [])
                              if w.j == target[1]]:
                        outside = outside - v * np.vdot(v, image)
                    if np.linalg.norm(outside) > 1e-8 * max(1.0, norm):
                        raise LatticeSchemeError(f"{label} leaks from {(n, kv.j)}")
                    arrows.append(LatticeArrow(label, (n, kv.j), target, norm,
                                               False))
    return arrows


@pytest.mark.parametrize("spin,n_max,n_limit", [(1, 4, 3), (1, 4, 4), (2, 4, 3),
                                                (3, 4, 3), (3, 5, 4)])
def test_lattice_arrows_equal_per_vector_reference(ctx, spin, n_max, n_limit):
    # Whole-level products and projections give the per-vector arrows
    # exactly: same targets and flags, and the same amplitude floats.
    c = ctx(spin, n_max)
    rep = lattice_report(c.basis, c.gens, c.taus, n_limit)
    assert rep.arrows == _per_vector_arrows(
        c, {theta: tau.op for theta, tau in c.taus.items()}, n_limit)


def test_kernel_json_equals_the_whole_space_lattice(ctx, capsys):
    # `su2ladders kernel` reads the taus' weight-0 blocks; its JSON is the
    # lattice whose arrows come from the whole-space taus, byte for byte.
    c = ctx(3, 5)
    assert main(["kernel", "--spin", "3", "--nmax", "5"]) == 0
    want = lattice_report(c.basis, c.gens, c.taus, 4)
    want.arrows = _per_vector_arrows(
        c, {theta: tau.op for theta, tau in c.taus.items()}, 4)
    assert capsys.readouterr().out == _json_dump(want.to_json_dict())


def test_build_and_kernel_never_build_a_whole_space_tau(monkeypatch, capsys):
    # The README pipeline at (5, 5) and `su2ladders kernel` read only the
    # weight-0 blocks.
    basis = enumerate_sector(5, 5)
    gens = su2_generators(basis)
    taus = build_taus(build_families(basis, gens), gens, certify=True)
    lattice_report(basis, gens, taus, 4)
    assert not any("op" in vars(tau) for tau in taus.values())

    seen = []
    report = su2ladders.cli.lattice_report

    def recorded(basis, gens, taus, n_limit):
        seen.append(taus)
        return report(basis, gens, taus, n_limit)
    monkeypatch.setattr(su2ladders.cli, "lattice_report", recorded)
    assert main(["kernel", "--spin", "5", "--nmax", "5"]) == 0
    capsys.readouterr()
    assert len(seen) == 1 and len(seen[0]) == 11
    assert not any("op" in vars(tau) for tau in seen[0].values())


@pytest.mark.parametrize("leak", ["other-node", "off-weight"])
def test_lattice_rejects_an_injected_leak(ctx, leak):
    # A 1e-6 admixture that leaves the predicted node of tau[+1] to other j
    # is a hard error of the lattice.  One to weight 1, outside every node,
    # cannot be held by tau's weight-0 block: the same admixture in a family
    # operator is refused when the taus are assembled.
    c = ctx(2, 4)
    p0 = c.families.p_ops[0]
    if leak == "off-weight":
        stray = c.gens.Jplus @ p0
        bad = SparseOperator(c.basis, p0.matrix
                             + 1e-6 * p0.norm() / stray.norm() * stray.matrix)
        families = dataclasses.replace(
            c.families, p_ops=(bad,) + c.families.p_ops[1:])
        with pytest.raises(WeightLeakError):
            build_taus(families, c.gens, certify=False)
        return
    tau = c.taus[1]
    bad = SparseOperator(c.basis, tau.op.matrix
                         + 1e-6 * tau.op.norm() / p0.norm() * p0.matrix)
    ops = {theta: t.op for theta, t in c.taus.items()}
    ops[1] = bad
    taus = dict(c.taus)
    taus[1] = dataclasses.replace(tau, weight0=c.gens.weight0().of(bad))
    with pytest.raises(LatticeSchemeError):
        _per_vector_arrows(c, ops, 3)
    with pytest.raises(LatticeSchemeError):
        lattice_report(c.basis, c.gens, taus, 3)


@pytest.mark.parametrize("spin", [1, 2])
def test_lattice_rejects_a_leak_past_the_node_levels(ctx, spin):
    # A stray entry of grade (2, 0) in tau's weight-0 block sends a level-4
    # weight-0 state to level 6.  At n_limit 4 the nodes reach level 5, so
    # the image lands on weight-0 rows above every node level: the part of
    # the leak that no node projection sees.
    c = ctx(spin, 6)
    w0 = c.gens.weight0()
    tau = c.taus[1]
    source = np.flatnonzero(w0.basis.totals == 4)[0]
    target = np.flatnonzero(w0.basis.totals == 6)[0]
    stray = sparse.csr_matrix(([1e-3], ([target], [source])),
                              shape=tau.weight0.matrix.shape)
    taus = dict(c.taus)
    taus[1] = dataclasses.replace(tau, weight0=SparseOperator(
        w0.basis, tau.weight0.matrix + stray))
    lattice_report(c.basis, c.gens, c.taus, 4)
    with pytest.raises(LatticeSchemeError, match=r"tau_dag\[\+1\].*\(4, "):
        lattice_report(c.basis, c.gens, taus, 4)


def test_weight0_readers_build_no_whole_space_node_vector(ctx, monkeypatch):
    # The closure fit, the lattice, the separation scan and kernel-dimensions
    # read the nodes on the weight-0 view; with jz_kernel refusing every
    # call they still pass and give the same results.
    c = ctx(3, 5)
    want = (c.families.closure_fit("p", c.gens),
            c.families.closure_fit("m", c.gens),
            lattice_report(c.basis, c.gens, c.taus, 4),
            complete_set_check(c.basis, c.gens, c.taus, 4))

    def refused(*args):
        raise AssertionError("jz_kernel called")
    for module in (su2ladders, su2ladders.schwinger, su2ladders.casimir,
                   su2ladders.verify):
        monkeypatch.setattr(module, "jz_kernel", refused)
    families = dataclasses.replace(c.families)
    fits = (families.closure_fit("p", c.gens),
            families.closure_fit("m", c.gens))
    for got, expected in zip(fits, want):
        assert got.keys() == expected.keys()
        for eta in got:
            assert [j for j, _coef in got[eta]] == \
                [j for j, _coef in expected[eta]]
            for (_j, a), (_k, b) in zip(got[eta], expected[eta]):
                assert np.array_equal(a, b)
    assert lattice_report(c.basis, c.gens, c.taus, 4) == want[2]
    assert complete_set_check(c.basis, c.gens, c.taus, 4) == want[3]
    _spin_ctx, results = _run_block(_schwinger_checks, 3, 5)
    checks = {check.name: check for check in results}
    assert checks["kernel-dimensions"].passed
    assert "jz_kernel called" in checks["canonical-su2-action"].detail


@pytest.mark.parametrize("spin,n_max", [(1, 6), (2, 4), (3, 5)])
def test_jz_kernel_embeds_the_view_nodes(ctx, spin, n_max):
    c = ctx(spin, n_max)
    w0 = c.gens.weight0()
    for n in range(n_max + 1):
        level = w0.nodes(n)
        kvs = jz_kernel(c.basis, c.gens, n)
        assert [kv.j for kv in kvs] == level.labels.tolist() == \
            w0.labels(n).tolist()
        for kv, vec in zip(kvs, level.vectors.T):
            full = np.zeros(len(c.basis))
            full[w0.rows[level.positions]] = vec
            assert kv.n == n
            assert np.array_equal(kv.vector, full)


# -- the weight-0 view against the whole-space forms ---------------------------
#
# The certificates read the weight-0 blocks (``Su2Generators.weight0``).  The
# references below are their whole-space forms: f(J^2) from ``function_of_j``
# over every sector, right factors cut to the weight-0 interior columns by
# ``_ref_on_columns(..., 0)``, and ``_ref_residual(..., 0)``.  The reports
# must be equal, not merely close.

CONFIGS = [(1, 4), (2, 4), (3, 5), (4, 4)]


def _whole_certify_alpha(alpha, gens, families):
    ops = families.ops(alpha.family)
    out = {}
    for eta, t_eta in ops.items():
        lhs = _ref_commutator_on_columns(gens.J2, t_eta, 1, 0)
        rhs = SparseOperator.zeros(families.basis)
        for mu, t_mu in ops.items():
            poly = alpha.entry(mu, eta)
            if not poly.is_zero():
                rhs = rhs + t_mu @ _ref_on_columns(gens.function_of_j(poly),
                                                   1, 0)
        out[eta] = _ref_residual(lhs, rhs, 1, 0)
    return out


def _whole_worst_alpha_entry(alpha, eta, gens, families):
    # The whole-space commutator on weight-0 columns, applied level by level
    # and fitted on the images' weight-0 rows.
    ops = families.ops(alpha.family)
    comm = _ref_commutator_on_columns(gens.J2, ops[eta], 1, 0)
    basis = families.basis
    worst = (None, 0.0)
    for n in range(0, basis.n_max):
        nodes = jz_kernel(basis, gens, n)
        if not nodes:
            continue
        idx = np.flatnonzero((basis.totals == n) & (basis.weights == 0))
        block = np.array([kv.vector[idx] for kv in nodes]).T
        lhs_all = [_on_weight0(gens, image)
                   for image in (comm.matrix[:, idx] @ block).T]
        imgs = [[_on_weight0(gens, image)
                 for image in (t.matrix[:, idx] @ block).T]
                for t in ops.values()]
        for i, node in enumerate(nodes):
            m = np.array([img[i] for img in imgs]).T
            if np.linalg.matrix_rank(m, tol=1e-8) < len(ops):
                continue
            coef, *_ = np.linalg.lstsq(m, lhs_all[i], rcond=None)
            if np.linalg.norm(m @ coef - lhs_all[i]) > 1e-6 * (
                    1 + np.linalg.norm(lhs_all[i])):
                continue
            for mu, value in zip(ops, coef):
                dev = abs(float(value.real) - float(alpha.entry(mu, eta)(node.j)))
                if dev > worst[1]:
                    worst = (mu, dev)
    return worst


@pytest.mark.parametrize("spin,n_max", CONFIGS)
@pytest.mark.parametrize("variant", ["p", "m", "p-diag4"])
def test_weight0_closure_certificate_equals_whole_space_form(ctx, spin, n_max,
                                                             variant):
    c = ctx(spin, n_max)
    alpha = (build_alpha_variant_diag4(spin, "p") if variant == "p-diag4"
             else build_alpha(spin, variant))
    # tol=inf returns the reports of the rejected variant too.
    assert certify_alpha(alpha, c.gens, c.families, tol=np.inf) == \
        _whole_certify_alpha(alpha, c.gens, c.families)
    for eta in alpha.ks:
        assert _worst_alpha_entry(alpha, eta, c.gens, c.families) == \
            _whole_worst_alpha_entry(alpha, eta, c.gens, c.families)


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_weight0_tau_certificates_equal_whole_space_forms(ctx, spin, n_max):
    c = ctx(spin, n_max)
    g = c.gens
    jh = g.j_hat()
    for theta, tau in sorted(c.taus.items()):
        assert tau_casimir_ladder_residual(tau, g) == _ref_rlo(
            g.J2, tau.op, g.function_of_j(tau.right_function), 1, 0)
        if theta == 0:
            want = _ref_commutator_residual(jh, tau.op, 1, 0)
        else:
            want = _ref_residual(_ref_commutator_on_columns(jh, tau.op, 1, 0),
                                 float(theta) * _ref_on_columns(tau.op, 1, 0),
                                 1, 0)
        assert tau_shift_residual(tau, g) == want


@pytest.mark.parametrize("spin,n_max", CONFIGS)
@pytest.mark.parametrize("side", ["right", "left"])
def test_weight0_resolvent_check_equals_whole_space_form(ctx, spin, n_max,
                                                         side):
    c = ctx(spin, n_max)
    g = c.gens
    for k in (0, 2):
        def res(j, k=k):
            return 1.0 / (2.0 * j + (2 * k + 1))
        g_op = g.function_of_j(res)
        for theta, tau in sorted(c.taus.items()):
            if theta == 0:
                want = _ref_commutator_residual(g_op, tau.op, 1, 0)
            else:
                if side == "right":
                    diff = g.function_of_j(lambda j: res(j + theta) - res(j))
                    rhs = tau.op @ _ref_on_columns(diff, 1, 0)
                else:
                    diff = g.function_of_j(lambda j: res(j) - res(j - theta))
                    rhs = diff @ _ref_on_columns(tau.op, 1, 0)
                want = _ref_residual(
                    _ref_commutator_on_columns(g_op, tau.op, 1, 0), rhs, 1, 0)
            assert resolvent_commutator_check(g, tau, k, side) == want


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_weight0_complete_set_commutator_equals_whole_space_form(ctx, spin,
                                                                 n_max):
    c = ctx(spin, n_max)
    rep = complete_set_check(c.basis, c.gens, c.taus, min(n_max, 4))
    for theta, tau in sorted(c.taus.items()):
        prod = tau.op @ tau.op.adjoint()
        assert rep.commutator_residuals[(theta, "J2")] == \
            _ref_commutator_residual(prod, c.gens.J2, 2, 0)


def _whole_deformed_generators(tau_minus):
    """L_z and L^2 formed from the whole-space tau."""
    t_dag = tau_minus.op
    t = t_dag.adjoint()
    lz = commutator(t_dag, t).hermitized()
    return lz, (lz @ lz + 0.5 * (t_dag @ t + t @ t_dag)).hermitized()


def _same_arrays(got, want):
    assert got.basis is want.basis
    assert got.matrix.dtype == want.matrix.dtype
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.matrix, name),
                              getattr(want.matrix, name)), name


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 4), (3, 5)])
def test_grade_certified_claims_hold_on_the_whole_space(ctx, spin, n_max):
    # The claims certified from the grade, cross-checked in floats: the
    # whole-space A_theta, L_z and L^2, formed from tau.op, commute with N
    # and J_z to exactly 0.0, and their weight-0 blocks are the operators
    # the checks read.
    c = ctx(spin, n_max)
    g, w0 = c.gens, c.gens.weight0()
    for theta, tau in sorted(c.taus.items()):
        assert tau_off_grade(tau) == []
        whole = [tau.op @ tau.op.adjoint()]
        local = [tau.weight0 @ tau.weight0.adjoint()]
        if theta < 0:
            whole += _whole_deformed_generators(tau)
            local += deformed_generators(tau)
        for x, y in zip(whole, local):
            for diag in (g.Jz, g.Ntot):
                assert commutator_residual(x, diag, 0).frobenius_absolute == 0.0
            _same_arrays(w0.of(x), y)


@pytest.mark.parametrize("spin,n_max",
                         [(1, 4), (2, 4), (3, 5), (4, 4), (2, 5)])
def test_separation_equals_the_whole_space_scan(ctx, spin, n_max):
    # Reference: each node's whole-space vectors against the whole-space
    # tau tau^dagger.
    c = ctx(spin, n_max)
    n_limit = min(n_max, 4)
    prods = {theta: tau.op @ tau.op.adjoint() for theta, tau in c.taus.items()}
    want = []
    for n in range(n_limit + 1):
        groups = {}
        for kv in jz_kernel(c.basis, c.gens, n):
            groups.setdefault(kv.j, []).append(kv.vector)
        want += [_separate_node((n, j), np.array(vectors).T, prods)
                 for j, vectors in sorted(groups.items()) if len(vectors) > 1]
    got = complete_set_check(c.basis, c.gens, c.taus, n_limit).separation
    assert got == want
    assert bool(want) == (spin > 1)


def _run_block(block, spin, n_max):
    ctx = _SpinContext(spin, n_max)
    report = VerificationReport(config=SuiteConfig(spins=[spin], n_max=n_max))
    block(_Runner(report.config, report), ctx)
    return ctx, report.checks


def _check_residuals(block, spin, n_max):
    ctx, checks = _run_block(block, spin, n_max)
    return ctx, {(c.name, tuple(sorted(c.params.items()))): c.residual
                 for c in checks}


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_weight0_engine_checks_equal_whole_space_forms(spin, n_max):
    ctx, got = _check_residuals(_engine_checks, spin, n_max)
    g, tau1 = ctx.gens, ctx.taus[1]
    rf_op = g.function_of_j(tau1.right_function)
    params = (("s", spin), ("theta", 1))
    want = {
        ("power-identity-casimir", params + (("n", 2),)): _ref_power_identity(
            g.J2, tau1.op, rf_op, 2, 1, 0),
        ("rlo-compose-polynomial", params): _ref_rlo_compose(
            g.J2, tau1.op, rf_op, g.function_of_j(lambda j: j * j + 1.0), 1,
            0),
        ("rlo-compose-number", params): _ref_rlo_compose(
            g.J2, tau1.op, rf_op, g.Ntot, 1, 0),
    }
    for key, rep in want.items():
        assert got[(key[0], tuple(sorted(key[1])))] == rep.frobenius_relative


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_weight0_deformed_generators_equal_whole_space_forms(spin, n_max):
    ctx, got = _check_residuals(_deformed_checks, spin, n_max)
    g = ctx.gens
    for omega in range(1, spin + 1):
        lz, l2 = _whole_deformed_generators(ctx.taus[-omega])
        want = max(
            _ref_commutator_residual(l2, g.J2, 2, 0).frobenius_relative,
            _ref_commutator_residual(lz, g.J2, 2, 0).frobenius_relative,
            commutator_residual(l2, g.Ntot, 2).frobenius_relative,
            commutator_residual(lz, g.Ntot, 2).frobenius_relative)
        key = ("deformed-algebra-generators",
               (("omega", omega), ("s", spin)))
        assert got[key] == want


def _whole_s1_residuals(c):
    """Every spin-1 residual the library reads on the weight-0 view, formed
    from whole-space operators and read on the weight-0 interior columns."""
    g, fam, basis = c.gens, c.families, c.basis
    p0, p1, m1 = fam.p_ops[0], fam.p_ops[1], fam.m_ops[0]
    ident = SparseOperator.identity(basis)
    jz, jh = g.Jz, g.j_hat()
    ad0 = creation_op(basis, 0)
    bracket = commutator(jh, ad0)
    n_minus_n0 = g.Ntot - number_op(basis, 0)
    diag_rhs = (2.0 * g.J2 - (jz @ (2.0 * jz + ident))
                + n_minus_n0 @ (jz - 2.0 * ident))
    tau_plus, tau_minus = s1_reference_taus(g, fam)
    inv = g.function_of_j(lambda j: 1.0 / (2.0 * j + 1.0))
    pair_sum = tau_plus + tau_minus
    mixed = commutator(tau_plus, tau_minus.adjoint())
    demo = demo_s1_operators(g, fam)
    return {
        "kernel_form": _ref_residual(commutator(g.J2, p1),
                                     p0 @ (g.J2 - (jz @ jz + jz)), 1, 0),
        "p1_p1dag_weight0": _ref_residual(
            commutator(p1.adjoint(), p1), diag_rhs, 2, 0),
        "double_commutator": _ref_residual(commutator(jh, bracket), ad0, 1, 0),
        "rlo_plus": _ref_rlo(g.J2, bracket + ad0,
                             g.function_of_j(lambda j: 2.0 * (j + 1.0)), 1, 0),
        "rlo_minus": _ref_rlo(g.J2, -1.0 * bracket + ad0,
                              g.function_of_j(lambda j: -2.0 * j), 1, 0),
        "p0_from_taus": _ref_residual(pair_sum @ inv, p0, 1, 0),
        "p1_from_taus": _ref_residual(
            0.25 * ((tau_plus - tau_minus) - pair_sum @ inv), p1, 1, 0),
        "label_comm_p0": _ref_residual(commutator(jh, p0),
                                       (p0 + 4.0 * p1) @ inv, 1, 0),
        "label_comm_p1": _ref_residual(commutator(jh, p1),
                                       (p0 @ g.J2 - p1) @ inv, 1, 0),
        "mixed_pair_shift2": _ref_residual(commutator(jh, mixed), 2.0 * mixed,
                                           2, 0),
        "raising_pair_commutes": _ref_commutator_residual(
            jh, commutator(tau_plus, tau_minus), 2, 0),
        "s1-m1-annihilates-kernel": _ref_zero_residual(
            m1, 1, 0, max(m1.norm(), 1.0)),
        "s1-weyl-pair": _ref_residual(commutator(demo.a_op, demo.a_dag),
                                      ident, 2, 0),
        "s1-double-commutator": _ref_residual(commutator(jh, bracket), ad0,
                                              1, 0),
    }


@pytest.mark.parametrize("n_max", [3, 4, 5, 6])
def test_weight0_spin1_residuals_equal_whole_space_forms(ctx, n_max):
    c = ctx(1, n_max)
    g, fam = c.gens, c.families
    tb = tau_bar_forms(c.basis, g, fam)
    got = {
        **s1_full_closure_residuals(g, fam), **s1_mutual_commutators(g, fam),
        "double_commutator": tb.double_commutator,
        "rlo_plus": tb.rlo_plus, "rlo_minus": tb.rlo_minus,
        **s1_inverse_expressions(g, fam), **s1_tau_bracket_ladder(g, fam),
    }
    want = _whole_s1_residuals(c)
    _ctx, checks = _check_residuals(
        lambda r, spin_ctx: _s1_demo_checks(r, spin_ctx, r.report), 1, n_max)
    for name in ("s1-m1-annihilates-kernel", "s1-weyl-pair",
                 "s1-double-commutator"):
        assert checks[(name, (("s", 1),))] == \
            want.pop(name).frobenius_relative, name
    for key, rep in want.items():
        assert got[key] == rep, key


# -- mask forms against fancy-index slicing ----------------------------------
#
# The residuals read their restricted entries straight from the CSR arrays
# through boolean masks cached on the basis; the results must equal the
# sliced references at the top of this file.

def _outcome(fn, *args):
    try:
        return fn(*args)
    except EmptyInteriorError:
        return EmptyInteriorError


def _with_explicit_zeros(op):
    # Every third stored entry set to an explicit zero, kept in the pattern.
    m = op.matrix.copy()
    m.data[::3] = 0
    out = SparseOperator(op.basis, m)
    assert (out.matrix.data == 0).any()
    return out


def _mask_cases(c):
    """Operator pairs, some of them carrying explicit zeros."""
    g = c.gens
    f = _with_explicit_zeros(g.function_of_j(lambda j: j * (j - 1.0)))
    tau = c.taus[1].op
    tau0 = _with_explicit_zeros(tau)
    return [(g.J2, tau), (f, tau), (tau0, f), (f, g.Jplus),
            (g.Jplus, g.Jminus), (creation_op(c.basis, 0), g.Ntot),
            (tau0, tau.adjoint())]


@pytest.mark.parametrize("spin", [1, 2])
def test_residuals_equal_sliced_references(ctx, spin):
    c = ctx(spin, 4)
    for x, y in _mask_cases(c):
        for margin in range(c.basis.n_max + 1):
            assert _outcome(residual, x, y, margin) == \
                _outcome(_ref_residual, x, y, margin, None)
            assert _outcome(commutator_residual, x, y, margin) == \
                _outcome(_ref_commutator_residual, x, y, margin, None)
            assert _outcome(zero_residual, x, margin, 2.5) == \
                _outcome(_ref_zero_residual, x, margin, None, 2.5)


@pytest.mark.parametrize("spin", [1, 2])
def test_on_columns_equals_copy_and_zero_reference(ctx, spin):
    c = ctx(spin, 4)
    for x, _y in _mask_cases(c):
        for margin in range(c.basis.n_max + 1):
            got = _outcome(on_columns, x, margin)
            want = _outcome(_ref_on_columns, x, margin, None)
            if want is EmptyInteriorError:
                assert got is EmptyInteriorError
                continue
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.matrix, name),
                                      getattr(want.matrix, name))
