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
import su2ladders.lazy
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
                                tau_shift_residual)
from su2ladders.ladder import (build_alpha, build_alpha_variant_diag4,
                               check_llo, check_power_identity, check_rlo,
                               check_rlo_compose)
from su2ladders.operators import (BasisMismatchError, EmptyInteriorError,
                                  ResidualReport, SectorBlocks,
                                  SectorStructureError, SparseOperator,
                                  commutator, commutator_on_columns,
                                  commutator_residual, creation_op, number_op,
                                  on_columns, residual, zero_residual)
from su2ladders.cli import _json_dump, main
from su2ladders.fock import enumerate_sector
from su2ladders.schwinger import WeightLeakError, jz_kernel, su2_generators
from su2ladders.verify import (SuiteConfig, VerificationReport, _deformed_checks,
                               _engine_checks, _Runner, _s1_demo_checks,
                               _schwinger_checks, _SpinContext, run_suite)

from conftest import whole_csr

SPINS = [2, 3]


# -- references: whole-space operators under dense masks ----------------------
#
# Each sparse reference slices ``matrix[rows][:, cols]`` with integer index
# arrays and drops columns by copying, zeroing and ``eliminate_zeros``.


def _ref_restriction(basis, margin):
    rows = np.flatnonzero(basis.totals <= basis.n_max - margin)
    if len(rows) == 0:
        raise EmptyInteriorError
    return rows


def _ref_fro(matrix, rows, cols):
    sub = matrix[rows][:, cols]
    if sub.nnz == 0:
        return 0.0
    return float(math.sqrt(np.sum(np.abs(sub.data) ** 2)))


# -- references: weight-0 level blocks sliced out of whole-space operators ---
#
# A claim the library reads on the weight-0 view (``SectorBlocks``) is
# referenced on ``_Blocks``: the dense (n, 0) -> (m, 0) blocks of the
# whole-space operators (tau.op, gens.J2, gens.function_of_j, gens.j_hat(),
# the families), their weight-0 columns read from the CSR matrix or, for the
# sector-block images, as the images of unit vectors (``apply``), sliced
# with integer index arrays, combined with plain numpy
# products level by level, and normed over the blocks with both levels
# <= n_max - margin in ascending source level.  The library assembles the
# same blocks on weight 0 alone and forms the same products, so the reports
# must be equal, not merely close.


class _Blocks:
    """Source level -> (target level, dense block); no block where the
    operator vanishes on the level."""

    def __init__(self, blocks, n_max):
        self.blocks = {n: (m, b) for n, (m, b) in sorted(blocks.items())
                       if b.any()}
        self.n_max = n_max

    @staticmethod
    def of(op):
        basis = op.basis
        levels = [np.flatnonzero((basis.totals == n) & (basis.weights == 0))
                  for n in range(basis.n_max + 1)]
        # The weight-0 columns, dense: sliced from a CSR matrix, or a
        # sector-block operator's images of the unit vectors (``apply``).
        weight0 = np.concatenate(levels)
        if isinstance(op, SparseOperator):
            columns = op.matrix[:, weight0].toarray()
        else:
            columns = np.array([op.apply(e) for e
                                in np.eye(len(basis))[weight0]]).T
        starts = np.cumsum([0] + [len(cols) for cols in levels])
        blocks = {}
        for n in range(len(levels)):
            for m, rows in enumerate(levels):
                block = columns[rows, starts[n]:starts[n + 1]]
                if block.any():
                    assert n not in blocks
                    blocks[n] = (m, block)
        return _Blocks(blocks, basis.n_max)

    def __matmul__(self, other):
        return _Blocks({n: (self.blocks[m][0], self.blocks[m][1] @ b)
                        for n, (m, b) in other.blocks.items()
                        if m in self.blocks}, self.n_max)

    def _combine(self, other, sign):
        out = dict(self.blocks)
        for n, (m, b) in other.blocks.items():
            if n in out:
                assert out[n][0] == m
                out[n] = (m, out[n][1] + b if sign > 0 else out[n][1] - b)
            else:
                out[n] = (m, b if sign > 0 else -b)
        return _Blocks(out, self.n_max)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rmul__(self, scalar):
        return _Blocks({n: (m, b * float(scalar))
                        for n, (m, b) in self.blocks.items()}, self.n_max)

    def adjoint(self):
        return _Blocks({m: (n, np.ascontiguousarray(b.conj().T))
                        for n, (m, b) in self.blocks.items()}, self.n_max)

    def hermitized(self):
        return 0.5 * (self + self.adjoint())

    def power(self, k):
        out = self
        for _ in range(k - 1):
            out = out @ self
        return out

    def is_zero(self):
        return not self.blocks

    def on_columns(self, margin):
        return _Blocks({n: v for n, v in self.blocks.items()
                        if n <= self.n_max - margin}, self.n_max)

    def kept_fro(self, margin):
        top = self.n_max - margin
        if top < 0:
            raise EmptyInteriorError
        kept = [b.ravel() for n, (m, b) in self.blocks.items()
                if n <= top and m <= top]
        if not kept:
            return 0.0
        return float(math.sqrt(np.sum(np.abs(np.concatenate(kept)) ** 2)))

    def level(self, n, size):
        """The block from level n, or zeros (``size`` x ``size``) when the
        operator vanishes there (a level-preserving operator)."""
        if n not in self.blocks:
            return np.zeros((size, size))
        return self.blocks[n][1]


def _ref_kept_fro(x, margin):
    if isinstance(x, _Blocks):
        return x.kept_fro(margin)
    rows = _ref_restriction(x.basis, margin)
    return _ref_fro(x.matrix, rows, rows)


def _ref_on_columns(x, margin):
    if isinstance(x, _Blocks):
        return x.on_columns(margin)
    cols = _ref_restriction(x.basis, margin)
    if len(cols) == len(x.basis):
        return x
    keep = np.zeros(len(x.basis), dtype=bool)
    keep[cols] = True
    m = x.matrix.copy()
    m.data[~keep[m.indices]] = 0
    m.eliminate_zeros()
    return SparseOperator(x.basis, m)


def _ref_residual(x, y, margin):
    if isinstance(x, _Blocks):
        absolute = (x - y).kept_fro(margin)
    else:
        rows = _ref_restriction(x.basis, margin)
        absolute = _ref_fro((x.matrix - y.matrix).tocsr(), rows, rows)
    denom = max(_ref_kept_fro(x, margin), _ref_kept_fro(y, margin))
    return ResidualReport(absolute, absolute / denom if denom > 0 else absolute,
                          margin)


def _ref_commutator_on_columns(x, y, margin):
    return (x @ _ref_on_columns(y, margin)
            - y @ _ref_on_columns(x, margin))


def _ref_commutator_residual(x, y, margin):
    absolute = _ref_kept_fro(_ref_commutator_on_columns(x, y, margin), margin)
    scale = _ref_kept_fro(x, margin) * _ref_kept_fro(y, margin)
    return ResidualReport(absolute, absolute / scale if scale > 0 else absolute,
                          margin)


def _ref_zero_residual(x, margin, scale):
    absolute = _ref_kept_fro(x, margin)
    return ResidualReport(absolute, absolute / scale if scale > 0 else absolute,
                          margin)


def _full_commutator_residual(x, y, margin):
    # commutator_residual from the unrestricted commutator.
    scale = _ref_kept_fro(x, margin) * _ref_kept_fro(y, margin)
    return _ref_zero_residual(commutator(x, y), margin, scale)


def _full_ladder_residual(lhs, rhs, degenerate, margin):
    if rhs.is_zero():
        return _full_commutator_residual(*degenerate, margin)
    return _ref_residual(lhs, rhs, margin)


def _ref_rlo(h, p_dag, p_fn, margin):
    return _full_ladder_residual(commutator(h, p_dag), p_dag @ p_fn,
                                 (h, p_dag), margin)


def _ref_llo(h, p, p_fn, margin):
    return _full_ladder_residual(commutator(p, h), p_fn @ p, (h, p), margin)


def _ref_power_identity(h, p_dag, p_fn, n, margin):
    hn = h.power(n)
    return _ref_residual(commutator(hn, p_dag),
                         p_dag @ ((h + p_fn).power(n) - hn), margin)


def _ref_rlo_compose(h, p_dag, p_fn, a, margin):
    pa = p_dag @ a
    return _ref_residual(commutator(h, pa), pa @ p_fn, margin)


def _whole(x):
    return x


def _rlo_cases(c):
    """(H, p+, P, view, ref) for the number-operator pair and every tau:
    ``view`` maps a whole-space operator to the space the library reads the
    claim on, the weight-0 view for a tau, and ``ref`` to its reference
    form there, the level blocks for a tau."""
    gens = c.gens
    cases = [(gens.Ntot, creation_op(c.basis, 0),
              SparseOperator.identity(c.basis), _whole, _whole)]
    for theta, tau in sorted(c.taus.items()):
        cases.append((gens.J2, tau.op, gens.function_of_j(tau.right_function),
                      gens.weight0().of, _Blocks.of))
    return cases


@pytest.mark.parametrize("spin", SPINS)
def test_on_columns_keeps_exactly_the_restricted_columns(ctx, spin):
    c = ctx(spin, 4)
    tau = whole_csr(c.taus[1].op)
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
    for x, y, margin, view, ref in (
            (g.J2, c.taus[0].op, 1, w0.of, _Blocks.of),
            (g.J2, c.taus[1].op, 1, w0.of, _Blocks.of),
            (g.Ntot, whole_csr(c.taus[1].op), 1, _whole, _whole),
            (g.Jz, g.Jplus, 0, _whole, _whole)):
        assert commutator_residual(view(x), view(y), margin) == \
            _full_commutator_residual(ref(x), ref(y), margin)


@pytest.mark.parametrize("spin", SPINS)
def test_check_rlo_and_llo_equal_full_products(ctx, spin):
    c = ctx(spin, 4)
    for h, p_dag, p_fn, view, ref in _rlo_cases(c):
        assert check_rlo(view(h), view(p_dag), view(p_fn), 1) == \
            _ref_rlo(ref(h), ref(p_dag), ref(p_fn), 1)
        p = p_dag.adjoint()
        assert check_llo(view(h), view(p), view(p_fn), 1) == \
            _ref_llo(ref(h), ref(p), ref(p_fn), 1)


@pytest.mark.parametrize("spin", SPINS)
def test_check_power_identity_equals_full_products(ctx, spin):
    c = ctx(spin, 4)
    for h, p_dag, p_fn, view, ref in _rlo_cases(c):
        assert check_power_identity(view(h), view(p_dag), view(p_fn), 2, 1) \
            == _ref_power_identity(ref(h), ref(p_dag), ref(p_fn), 2, 1)


@pytest.mark.parametrize("spin", SPINS)
def test_check_rlo_compose_equals_full_products(ctx, spin):
    c = ctx(spin, 4)
    g = c.gens
    for a in (whole_csr(g.function_of_j(lambda j: j * j + 1.0)), g.Ntot):
        for h, p_dag, p_fn, view, ref in _rlo_cases(c):
            assert check_rlo_compose(view(h), view(p_dag), view(p_fn),
                                     view(a), 1) == \
                _ref_rlo_compose(ref(h), ref(p_dag), ref(p_fn), ref(a), 1)


@pytest.mark.parametrize("spin", SPINS)
def test_tau_shift_residual_equals_full_products(ctx, spin):
    c = ctx(spin, 4)
    jh = _Blocks.of(c.gens.j_hat())
    for theta, tau in sorted(c.taus.items()):
        op = _Blocks.of(tau.op)
        if theta == 0:
            want = _full_commutator_residual(jh, op, 1)
        else:
            want = _ref_residual(commutator(jh, op), float(theta) * op, 1)
        assert tau_shift_residual(tau, c.gens) == want


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("side", ["right", "left"])
def test_resolvent_check_equals_full_products(ctx, spin, side):
    c = ctx(spin, 4)
    g = c.gens
    for k in (0, 1):
        def res(j, k=k):
            return 1.0 / (2.0 * j + (2 * k + 1))
        g_op = _Blocks.of(g.function_of_j(res))
        for theta, tau in sorted(c.taus.items()):
            op = _Blocks.of(tau.op)
            if theta == 0:
                want = _full_commutator_residual(g_op, op, 1)
            elif side == "right":
                diff = _Blocks.of(
                    g.function_of_j(lambda j: res(j + theta) - res(j)))
                want = _ref_residual(commutator(g_op, op), op @ diff, 1)
            else:
                diff = _Blocks.of(
                    g.function_of_j(lambda j: res(j) - res(j - theta)))
                want = _ref_residual(commutator(g_op, op), diff @ op, 1)
            assert resolvent_commutator_check(g, tau, k, side) == want


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("family", ["p", "m"])
def test_certify_alpha_equals_full_products(ctx, spin, family):
    c = ctx(spin, 4)
    alpha = build_alpha(spin, family)
    ops = {k: _Blocks.of(t) for k, t in c.families.ops(family).items()}
    j2 = _Blocks.of(c.gens.J2)
    want = {}
    for eta, t_eta in ops.items():
        rhs = _Blocks({}, c.basis.n_max)
        for mu, t_mu in ops.items():
            if not alpha.entry(mu, eta).is_zero():
                rhs = rhs + t_mu @ _Blocks.of(
                    c.gens.function_of_j(alpha.entry(mu, eta)))
        want[eta] = _ref_residual(commutator(j2, t_eta), rhs, 1)
    assert certify_alpha(alpha, c.gens, c.families) == want


def _level_nodes(gens, n):
    """Level n's node labels and vectors, the whole-space ``jz_kernel``
    vectors cut to the level's weight-0 states (columns, in node order)."""
    basis = gens.basis
    rows = np.flatnonzero((basis.totals == n) & (basis.weights == 0))
    kvs = jz_kernel(basis, gens, n)
    return [kv.j for kv in kvs], np.array([kv.vector[rows] for kv in kvs]).T


def _level_image(op, n, vectors, size):
    """op's level-n block times ``vectors``; zeros on ``size`` rows where op
    vanishes on level n."""
    if n not in op.blocks:
        return np.zeros((size, vectors.shape[1]))
    return op.blocks[n][1] @ vectors


def _worst_alpha_entry_per_node(alpha, eta, gens, families):
    # Each level's images as one product of the level blocks of the
    # whole-space [J^2, T_eta] and T_mu with the level's node vectors,
    # fitted node by node on level n + 1.
    ops = {k: _Blocks.of(t) for k, t in families.ops(alpha.family).items()}
    comm = commutator(_Blocks.of(gens.J2), ops[eta])
    basis = families.basis
    worst = (None, 0.0)
    for n in range(0, basis.n_max):
        labels, vecs = _level_nodes(gens, n)
        size = int(np.sum((basis.totals == n + 1) & (basis.weights == 0)))
        lhs_all = _level_image(comm, n, vecs, size)
        imgs = [_level_image(t, n, vecs, size) for t in ops.values()]
        for i, j in enumerate(labels):
            m = np.array([img[:, i] for img in imgs]).T
            if np.linalg.matrix_rank(m, tol=1e-8) < len(ops):
                continue
            lhs = lhs_all[:, i]
            q, r = np.linalg.qr(m)
            coef = np.linalg.solve(r, q.conj().T @ lhs)
            if np.linalg.norm(m @ coef - lhs) > 1e-6 * (1 + np.linalg.norm(lhs)):
                continue
            for mu, value in zip(ops, coef):
                dev = abs(float(value.real) - float(alpha.entry(mu, eta)(j)))
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
    # family, the six spin-1 readers of s1_reference_taus one pair, and
    # the family checks and the readers of the grade one set of
    # whole-space families per spin, kept (``whole space``) and formed
    # once besides the weight-0 ones; counted through ``lazy.kept.value``,
    # which keeps every lazily built value.
    built = []
    value = su2ladders.lazy.kept.value
    family_columns = su2ladders.casimir._family_columns

    def counted(owner, key, build):
        if not isinstance(owner, su2ladders.casimir.LadderFamily):
            return value(owner, key, build)

        def build_counted():
            built.append((owner.s, key))
            return build()
        return value(owner, key, build_counted)

    def formed(generators, columns):
        built.append((generators.s, "whole" if len(columns) == len(
            generators.basis) else "weight0"))
        return family_columns(generators, columns)
    monkeypatch.setattr(su2ladders.lazy.kept, "value", staticmethod(counted))
    monkeypatch.setattr(su2ladders.casimir, "_family_columns", formed)
    assert run_suite(SuiteConfig(spins=[1, 2], n_max=4)).overall_pass
    per_family = [f"{k} {fam}" for k in ("commutators", "fit") for fam in "mp"]
    assert sorted(built, key=str) == sorted(
        [(1, "s1-reference-taus")]
        + [(s, key) for s in (1, 2)
           for key in per_family + ["whole space", "whole", "weight0"]],
        key=str)


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
    # A copy with one operator's weight-0 blocks (what the fit reads) scaled
    # by 1 + 1e-6 is measured afresh, and its fit does not replace the
    # original's: the correct alpha deviates on the copy beyond the 1e-10 of
    # closure-entries-extracted and stays below it on the original families.
    c = ctx(spin, 4)
    alpha = build_alpha(spin, family)
    assert alpha_entry_deviation(alpha, c.gens, c.families) < 1e-10
    field = "p_weight0" if family == "p" else "m_weight0"
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


def test_failed_closure_fit_is_kept(monkeypatch):
    # A fit that raises keeps its exception: every later read raises it
    # again without fitting again, on this instance; a copy fits anew.
    spin_ctx = _SpinContext(2, 3)
    families, gens = spin_ctx.families, spin_ctx.gens
    measure = su2ladders.casimir._measure_closure
    calls = []

    def failing(*args):
        calls.append(args)
        raise RuntimeError("fit failed")
    monkeypatch.setattr(su2ladders.casimir, "_measure_closure", failing)
    errors = []
    for _ in range(2):
        with pytest.raises(RuntimeError) as err:
            families.closure_fit("p", gens)
        errors.append(err.value)
    assert len(calls) == 1 and errors[0] is errors[1]
    monkeypatch.setattr(su2ladders.casimir, "_measure_closure", measure)
    with pytest.raises(RuntimeError):
        families.closure_fit("p", gens)
    copy = dataclasses.replace(families)
    fit = copy.closure_fit("p", gens)
    assert fit is copy.closure_fit("p", gens)
    assert fit and all(fit.values())


@pytest.mark.parametrize("spin", SPINS)
def test_lattice_amplitudes_equal_per_vector_products(ctx, spin):
    # Each amplitude is the norm of its node's column of one product of the
    # level block of tau.op (or of its adjoint) with the level's nodes.
    c = ctx(spin, 4)
    rep = lattice_report(c.basis, c.gens, c.taus, 3)
    arrows = iter(rep.arrows)
    for theta in sorted(c.taus):
        tau = _Blocks.of(c.taus[theta].op)
        tau_low = tau.adjoint()
        for n in range(0, 4):
            labels, vecs = _level_nodes(c.gens, n)
            norms = [np.linalg.norm(_level_image(op, n, vecs, 0), axis=0)
                     for op in (tau, tau_low)]
            for i, j in enumerate(labels):
                for label, norm in ((f"tau_dag[{theta:+d}]", norms[0]),
                                    (f"tau[{theta:+d}]", norms[1])):
                    arrow = next(arrows)
                    assert (arrow.operator, arrow.source) == (label, (n, j))
                    if arrow.annihilated:
                        assert norm[i] <= 1e-8
                    else:
                        assert arrow.amplitude == float(norm[i])
    assert next(arrows, None) is None


def _per_vector_arrows(c, ops, n_limit):
    """Lattice arrows of the taus ``ops`` (theta -> ``_Blocks``), each
    level's images one product of a level block with the level's node
    vectors, and each image's leak found by subtracting the predicted node
    vectors one at a time.  An image on another level than the predicted
    one, or above the node levels, leaks as a whole."""
    basis, gens = c.basis, c.gens
    nodes = {n: _level_nodes(gens, n)
             for n in range(0, min(n_limit + 1, basis.n_max) + 1)}
    arrows = []
    for theta in sorted(ops):
        tau = ops[theta]
        tau_low = tau.adjoint()
        for n in range(0, n_limit + 1):
            labels, vecs = nodes[n]
            images = []
            if n <= basis.n_max - 1:
                images.append((f"tau_dag[{theta:+d}]", 1, theta, tau))
            images.append((f"tau[{theta:+d}]", -1, -theta, tau_low))
            images = [(label, dn, dj, op.blocks[n][0], op.blocks[n][1] @ vecs)
                      if n in op.blocks else (label, dn, dj, None, None)
                      for label, dn, dj, op in images]
            for i, j in enumerate(labels):
                for label, dn, dj, level, image in images:
                    norm = (0.0 if image is None else
                            float(np.linalg.norm(image, axis=0)[i]))
                    if norm <= 1e-8:
                        arrows.append(LatticeArrow(label, (n, j), None, 0.0,
                                                   True))
                        continue
                    target = (n + dn, j + dj)
                    outside = image[:, i].copy()
                    if level == target[0] and level in nodes:
                        target_labels, target_vecs = nodes[level]
                        for k, v in zip(target_labels, target_vecs.T):
                            if k == target[1]:
                                outside = outside - v * np.vdot(v, image[:, i])
                    if np.linalg.norm(outside) > 1e-8 * max(1.0, norm):
                        raise LatticeSchemeError(
                            f"{label} leaks from {(n, j)}")
                    arrows.append(LatticeArrow(label, (n, j), target, norm,
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
        c, {theta: _Blocks.of(tau.op) for theta, tau in c.taus.items()},
        n_limit)


def test_kernel_json_equals_the_whole_space_lattice(ctx, capsys):
    # `su2ladders kernel` reads the taus' weight-0 blocks; its JSON is the
    # lattice whose arrows come from the whole-space taus, byte for byte.
    c = ctx(3, 5)
    assert main(["kernel", "--spin", "3", "--nmax", "5"]) == 0
    want = lattice_report(c.basis, c.gens, c.taus, 4)
    want.arrows = _per_vector_arrows(
        c, {theta: _Blocks.of(tau.op) for theta, tau in c.taus.items()}, 4)
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
def test_lattice_rejects_an_injected_leak(ctx, monkeypatch, leak):
    # A 1e-6 admixture that leaves the predicted node of tau[+1] to other j
    # is a hard error of the lattice.  One to weight 1, outside every node,
    # cannot be held by tau's weight-0 block, nor by the families' blocks
    # it is assembled from: the same admixture in the columns of a family
    # operator is refused when the families are formed.
    c = ctx(2, 4)
    p0 = c.families.p_ops[0]
    if leak == "off-weight":
        family_columns = su2ladders.casimir._family_columns

        def leaked(generators, columns):
            p, m = family_columns(generators, columns)
            stray = generators.Jplus.matrix @ p[0]
            p[0] = p[0] + (1e-6 * np.linalg.norm(p[0].data)
                           / np.linalg.norm(stray.data)) * stray
            return p, m
        monkeypatch.setattr(su2ladders.casimir, "_family_columns", leaked)
        with pytest.raises(WeightLeakError):
            build_taus(build_families(c.basis, c.gens), c.gens, certify=False)
        return
    tau = c.taus[1]
    whole = whole_csr(tau.op)
    bad = SparseOperator(c.basis, whole.matrix
                         + 1e-6 * whole.norm() / p0.norm() * p0.matrix)
    ops = {theta: _Blocks.of(t.op) for theta, t in c.taus.items()}
    ops[1] = _Blocks.of(bad)
    taus = dict(c.taus)
    taus[1] = dataclasses.replace(tau, weight0=c.gens.weight0().of(bad))
    with pytest.raises(LatticeSchemeError):
        _per_vector_arrows(c, ops, 3)
    with pytest.raises(LatticeSchemeError):
        lattice_report(c.basis, c.gens, taus, 3)


@pytest.mark.parametrize("spin", [1, 2])
def test_lattice_rejects_a_leak_past_the_node_levels(ctx, spin):
    # A stray entry of grade (2, 0) beside tau's (n, 0) -> (n + 1, 0) entries
    # would send level 4 into both level 5 and level 6.  No level block can
    # hold it, so it is refused where tau's blocks are read from its
    # entries.  A level-4 block moved to level 6 as a whole is held, and the
    # lattice refuses it: at n_limit 4 the nodes reach level 5, so its image
    # lands on weight-0 rows above every node level.
    c = ctx(spin, 6)
    w0 = c.gens.weight0()
    tau = c.taus[1]
    source, target = (
        np.flatnonzero((c.basis.totals == n) & (c.basis.weights == 0))[0]
        for n in (4, 6))
    whole = whole_csr(tau.op).matrix
    stray = sparse.csr_matrix(([1e-3], ([target], [source])),
                              shape=whole.shape)
    with pytest.raises(SectorStructureError, match=r"sends sector \(4, 0\) "
                       r"into sectors \(5, 0\) and \(6, 0\)"):
        w0.of(SparseOperator(c.basis, whole + stray))
    moved = np.zeros((np.sum(w0.basis.totals == 6),
                      np.sum(w0.basis.totals == 4)))
    moved[0, 0] = 1e-3
    blocks = {n: value for n, value in tau.weight0.blocks.items() if n != 5}
    blocks[4] = (6, moved)
    taus = dict(c.taus)
    taus[1] = dataclasses.replace(tau, weight0=SectorBlocks(w0.basis, blocks))
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
            complete_set_check(c.gens, c.taus, 4))

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
    assert complete_set_check(c.gens, c.taus, 4) == want[3]
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
# The certificates read the weight-0 level blocks (``Su2Generators.weight0``).
# The references below form the same identities from the level blocks of the
# whole-space operators (``_Blocks.of``): f(J^2) from ``function_of_j`` over
# every sector (tau's right function c_0 + c_1 j from ``j_hat``, as its
# certificate forms it), tau from ``tau.op``, right factors cut to the
# interior levels by ``_ref_on_columns``.  The reports must be equal, not
# merely close.

CONFIGS = [(1, 4), (2, 4), (3, 5), (4, 4)]


def _whole_certify_alpha(alpha, gens, families):
    ops = {k: _Blocks.of(t) for k, t in families.ops(alpha.family).items()}
    j2 = _Blocks.of(gens.J2)
    out = {}
    for eta, t_eta in ops.items():
        lhs = _ref_commutator_on_columns(j2, t_eta, 1)
        rhs = _Blocks({}, families.basis.n_max)
        for mu, t_mu in ops.items():
            poly = alpha.entry(mu, eta)
            if not poly.is_zero():
                rhs = rhs + t_mu @ _ref_on_columns(
                    _Blocks.of(gens.function_of_j(poly)), 1)
        out[eta] = _ref_residual(lhs, rhs, 1)
    return out


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
            _worst_alpha_entry_per_node(alpha, eta, c.gens, c.families)


def _affine_of_j(jh, a, b, sizes):
    # a + b j from the level blocks of the whole-space j_hat: b times each
    # block, plus a on the diagonal.
    blocks = {}
    for n, d in enumerate(sizes):
        block = b * jh.level(n, d)
        block[np.diag_indices(d)] += a
        blocks[n] = (n, block)
    return _Blocks(blocks, jh.n_max)


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_weight0_tau_certificates_equal_whole_space_forms(ctx, spin, n_max):
    c = ctx(spin, n_max)
    g = c.gens
    j2, jh = _Blocks.of(g.J2), _Blocks.of(g.j_hat())
    sizes = [int(((c.basis.totals == n) & (c.basis.weights == 0)).sum())
             for n in range(n_max + 1)]
    for theta, tau in sorted(c.taus.items()):
        op = _Blocks.of(tau.op)
        a, b = (float(x) for x in (tau.right_function.coeffs + (0, 0))[:2])
        assert tau_casimir_ladder_residual(tau, g) == _ref_rlo(
            j2, op, _affine_of_j(jh, a, b, sizes), 1)
        if theta == 0:
            want = _ref_commutator_residual(jh, op, 1)
        else:
            want = _ref_residual(_ref_commutator_on_columns(jh, op, 1),
                                 float(theta) * _ref_on_columns(op, 1), 1)
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
        g_op = _Blocks.of(g.function_of_j(res))
        for theta, tau in sorted(c.taus.items()):
            op = _Blocks.of(tau.op)
            if theta == 0:
                want = _ref_commutator_residual(g_op, op, 1)
            else:
                if side == "right":
                    diff = _Blocks.of(
                        g.function_of_j(lambda j: res(j + theta) - res(j)))
                    rhs = op @ _ref_on_columns(diff, 1)
                else:
                    diff = _Blocks.of(
                        g.function_of_j(lambda j: res(j) - res(j - theta)))
                    rhs = diff @ _ref_on_columns(op, 1)
                want = _ref_residual(
                    _ref_commutator_on_columns(g_op, op, 1), rhs, 1)
            assert resolvent_commutator_check(g, tau, k, side) == want


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_weight0_complete_set_commutator_equals_whole_space_form(ctx, spin,
                                                                 n_max):
    c = ctx(spin, n_max)
    rep = complete_set_check(c.gens, c.taus, min(n_max, 4))
    j2 = _Blocks.of(c.gens.J2)
    for theta, tau in sorted(c.taus.items()):
        op = _Blocks.of(tau.op)
        assert rep.commutator_residuals[(theta, "J2")] == \
            _ref_commutator_residual(op @ op.adjoint(), j2, 2)


def _whole_deformed_generators(t_dag):
    """L_z and L^2 formed from tau: whole-space operators from ``tau.op``,
    level blocks from ``_Blocks.of(tau.op)``."""
    t = t_dag.adjoint()
    lz = commutator(t_dag, t).hermitized()
    return lz, (lz @ lz + 0.5 * (t_dag @ t + t @ t_dag)).hermitized()


def _same_blocks(got, want):
    assert got.blocks.keys() == want.blocks.keys()
    for n, (m, block) in want.blocks.items():
        assert got.blocks[n][0] == m
        assert got.blocks[n][1].dtype == block.dtype
        assert np.array_equal(got.blocks[n][1], block), n


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 4), (3, 5)])
def test_grade_certified_claims_hold_on_the_whole_space(ctx, spin, n_max):
    # The claims that follow from the grade, cross-checked in floats: the
    # whole-space A_theta, L_z and L^2, formed from tau.op (which reads the
    # whole-space family, so each of its terms has grade (1, 0) by
    # construction), commute with N and J_z to exactly 0.0, and the same
    # products of tau.op's level blocks are the operators the checks read.
    c = ctx(spin, n_max)
    g = c.gens
    for theta, tau in sorted(c.taus.items()):
        blocks = _Blocks.of(tau.op)
        op = whole_csr(tau.op)
        whole = [op @ op.adjoint()]
        level = [blocks @ blocks.adjoint()]
        local = [tau.weight0 @ tau.weight0.adjoint()]
        if theta < 0:
            whole += _whole_deformed_generators(op)
            level += _whole_deformed_generators(blocks)
            local += deformed_generators(tau)
        for x in whole:
            for diag in (g.Jz, g.Ntot):
                assert commutator_residual(x, diag, 0).frobenius_absolute == 0.0
        for x, y in zip(level, local):
            assert y.basis is g.weight0().basis
            _same_blocks(y, x)


@pytest.mark.parametrize("spin,n_max",
                         [(1, 4), (2, 4), (3, 5), (4, 4), (2, 5)])
def test_separation_equals_the_whole_space_scan(ctx, spin, n_max):
    # Reference: each node's vectors cut from jz_kernel to its level,
    # against the level block of tau.op's tau tau^dagger.
    c = ctx(spin, n_max)
    n_limit = min(n_max, 4)
    prods = {}
    for theta, tau in c.taus.items():
        op = _Blocks.of(tau.op)
        prods[theta] = op @ op.adjoint()
    want = []
    for n in range(n_limit + 1):
        labels, vecs = _level_nodes(c.gens, n)
        blocks = {theta: prod.level(n, len(labels))
                  for theta, prod in prods.items()}
        groups = {}
        for j, vector in zip(labels, vecs.T):
            groups.setdefault(j, []).append(vector)
        want += [_separate_node((n, j), np.array(vectors).T, blocks)
                 for j, vectors in sorted(groups.items()) if len(vectors) > 1]
    got = complete_set_check(c.gens, c.taus, n_limit).separation
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
    g = ctx.gens
    j2, tau1 = _Blocks.of(g.J2), _Blocks.of(ctx.taus[1].op)
    rf_op = _Blocks.of(g.function_of_j(ctx.taus[1].right_function))
    params = (("s", spin), ("theta", 1))
    want = {
        ("power-identity-casimir", params + (("n", 2),)): _ref_power_identity(
            j2, tau1, rf_op, 2, 1),
        ("rlo-compose-polynomial", params): _ref_rlo_compose(
            j2, tau1, rf_op,
            _Blocks.of(g.function_of_j(lambda j: j * j + 1.0)), 1),
        ("rlo-compose-number", params): _ref_rlo_compose(
            j2, tau1, rf_op, _Blocks.of(g.Ntot), 1),
    }
    for key, rep in want.items():
        assert got[(key[0], tuple(sorted(key[1])))] == rep.frobenius_relative


@pytest.mark.parametrize("spin,n_max", CONFIGS)
def test_weight0_deformed_generators_equal_whole_space_forms(spin, n_max):
    ctx, got = _check_residuals(_deformed_checks, spin, n_max)
    g = ctx.gens
    j2 = _Blocks.of(g.J2)
    for omega in range(1, spin + 1):
        tau = ctx.taus[-omega]
        lz, l2 = _whole_deformed_generators(_Blocks.of(tau.op))
        lz_whole, l2_whole = _whole_deformed_generators(whole_csr(tau.op))
        want = max(
            _ref_commutator_residual(l2, j2, 2).frobenius_relative,
            _ref_commutator_residual(lz, j2, 2).frobenius_relative,
            commutator_residual(l2_whole, g.Ntot, 2).frobenius_relative,
            commutator_residual(lz_whole, g.Ntot, 2).frobenius_relative)
        key = ("deformed-algebra-generators",
               (("omega", omega), ("s", spin)))
        assert got[key] == want


def _whole_s1_residuals(c):
    """Every spin-1 residual the library reads on the weight-0 view, formed
    from the level blocks of whole-space operators."""
    g, fam, basis = c.gens, c.families, c.basis
    b = _Blocks.of
    p0, p1, m1 = fam.p_ops[0], fam.p_ops[1], fam.m_ops[0]
    ident = SparseOperator.identity(basis)
    jz, jh = g.Jz, b(g.j_hat())
    ad0 = creation_op(basis, 0)
    # Each entry of [j, a_0^dagger] is a single product.
    bracket = commutator(whole_csr(g.j_hat()), ad0)
    n_minus_n0 = g.Ntot - number_op(basis, 0)
    diag_rhs = (2.0 * g.J2 - (jz @ (2.0 * jz + ident))
                + n_minus_n0 @ (jz - 2.0 * ident))
    tau_plus, tau_minus = map(b, s1_reference_taus(g, fam))
    inv = b(g.function_of_j(lambda j: 1.0 / (2.0 * j + 1.0)))
    mixed = commutator(tau_plus, tau_minus.adjoint())
    demo = demo_s1_operators(g, fam)
    p0b, p1b, ad0b = b(p0), b(p1), b(ad0)
    return {
        "kernel_form": _ref_residual(b(commutator(g.J2, p1)),
                                     p0b @ b(g.J2 - (jz @ jz + jz)), 1),
        "p1_p1dag_weight0": _ref_residual(
            b(commutator(p1.adjoint(), p1)), b(diag_rhs), 2),
        "double_commutator": _ref_residual(commutator(jh, b(bracket)),
                                           ad0b, 1),
        "rlo_plus": _ref_rlo(b(g.J2), b(bracket + ad0),
                             b(g.function_of_j(lambda j: 2.0 * (j + 1.0))), 1),
        "rlo_minus": _ref_rlo(b(g.J2), b(-1.0 * bracket + ad0),
                              b(g.function_of_j(lambda j: -2.0 * j)), 1),
        "p0_from_taus": _ref_residual((tau_plus + tau_minus) @ inv, p0b, 1),
        "p1_from_taus": _ref_residual(
            0.25 * ((tau_plus - tau_minus) - (tau_plus + tau_minus) @ inv),
            p1b, 1),
        "label_comm_p0": _ref_residual(commutator(jh, p0b),
                                       (p0b + 4.0 * p1b) @ inv, 1),
        "label_comm_p1": _ref_residual(commutator(jh, p1b),
                                       (p0b @ b(g.J2) - p1b) @ inv, 1),
        "mixed_pair_shift2": _ref_residual(commutator(jh, mixed), 2.0 * mixed,
                                           2),
        "raising_pair_commutes": _ref_commutator_residual(
            jh, commutator(tau_plus, tau_minus), 2),
        "s1-m1-annihilates-kernel": _ref_zero_residual(
            b(m1), 1, max(m1.norm(), 1.0)),
        "s1-weyl-pair": _ref_residual(commutator(b(demo.a_op), b(demo.a_dag)),
                                      b(ident), 2),
        "s1-double-commutator": _ref_residual(commutator(jh, commutator(
            jh, ad0b)), ad0b, 1),
    }


@pytest.mark.parametrize("n_max", [3, 4, 5, 6])
def test_weight0_spin1_residuals_equal_whole_space_forms(ctx, n_max):
    c = ctx(1, n_max)
    g, fam = c.gens, c.families
    tb = tau_bar_forms(c.basis, g, fam, creation_op(c.basis, 0))
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
    f = _with_explicit_zeros(whole_csr(g.function_of_j(lambda j: j * (j - 1.0))))
    tau = whole_csr(c.taus[1].op)
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
                _outcome(_ref_residual, x, y, margin)
            assert _outcome(commutator_residual, x, y, margin) == \
                _outcome(_ref_commutator_residual, x, y, margin)
            assert _outcome(zero_residual, x, margin, 2.5) == \
                _outcome(_ref_zero_residual, x, margin, 2.5)


@pytest.mark.parametrize("spin", [1, 2])
def test_on_columns_equals_copy_and_zero_reference(ctx, spin):
    c = ctx(spin, 4)
    for x, _y in _mask_cases(c):
        for margin in range(c.basis.n_max + 1):
            got = _outcome(on_columns, x, margin)
            want = _outcome(_ref_on_columns, x, margin)
            if want is EmptyInteriorError:
                assert got is EmptyInteriorError
                continue
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.matrix, name),
                                      getattr(want.matrix, name))


# -- the Fock-layer certificates in bulk -------------------------------------
#
# weyl-pair-commutator reads every [a_mu, a_nu^dagger] from two stacked
# products, and jordan-schwinger-homomorphism reads [X^, Y^] - Z^ on
# Gaussian probe columns.  The references are the pairwise loop and the
# whole-space commutator those checks replaced.


def _check(block, spin, n_max, name):
    return next(c for c in _run_block(block, spin, n_max)[1]
                if c.name == name)


def _pairwise_weyl(basis, s):
    # One residual per pair (mu, nu): relative against the identity on the
    # diagonal, absolute against zero off it.
    ident = SparseOperator.identity(basis)
    adag = {mu: creation_op(basis, mu) for mu in range(-s, s + 1)}
    worst = 0.0
    for mu in range(-s, s + 1):
        for nu in range(-s, s + 1):
            c = commutator(adag[mu].adjoint(), adag[nu])
            target = ident if mu == nu else SparseOperator.zeros(basis)
            rep = residual(c, target, 1)
            worst = max(worst, rep.frobenius_relative
                        if mu == nu else rep.frobenius_absolute)
    return worst


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 4), (3, 5), (4, 4)])
def test_weyl_table_equals_the_pairwise_residuals(ctx, spin, n_max):
    check = _check(su2ladders.verify._fock_operator_checks, spin, n_max,
                   "weyl-pair-commutator")
    assert check.passed
    assert check.residual == _pairwise_weyl(ctx(spin, n_max).basis, spin)


def _homomorphism_draws(basis, s):
    # The two (x, y) draws of jordan-schwinger-homomorphism.
    rng = np.random.default_rng(20240 + s)
    m = basis.modes
    draws = []
    for _ in range(2):
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        draws.append((0.5 * (x + x.conj().T), 0.5 * (y + y.conj().T)))
    return draws


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 4), (3, 5), (4, 4)])
def test_probe_residual_estimates_the_whole_space_one(monkeypatch, ctx, spin,
                                                      n_max):
    # On the check's own probe columns, each draw's estimate lies within a
    # factor 3 of the exact residual(commutator(X^, Y^), Z^, 0): at
    # rounding level (ratios 1.2 to 1.9), and with the stored entry halfway
    # through X^ times (1 + 1e-9), the mutation of
    # test_homomorphism_gate_catches_one_scaled_entry (0.93 to 1.4).
    basis = ctx(spin, n_max).basis
    probes = np.random.default_rng(su2ladders.verify.PROBE_SEED
                                   ).standard_normal((len(basis), 16))
    assert su2ladders.verify.PROBES == 16
    build = su2ladders.verify.jordan_schwinger
    for x, y in _homomorphism_draws(basis, spin):
        for scale in (1.0, 1.0 + 1e-9):
            def image(basis, a, x=x, scale=scale):
                out = build(basis, a)
                if a is not x:
                    return out
                m = out.matrix.copy()
                m.data[m.nnz // 2] *= scale
                return SparseOperator(basis, m)
            monkeypatch.setattr(su2ladders.verify, "jordan_schwinger", image)
            got = su2ladders.verify._probe_residual(basis, x, y, probes)
            x_hat, y_hat, z_hat = (image(basis, a)
                                   for a in (x, y, x @ y - y @ x))
            want = residual(commutator(x_hat, y_hat), z_hat, 0)
            assert got.interior_margin == 0
            ratio = got.frobenius_relative / want.frobenius_relative
            assert 1 / 3 <= ratio <= 3, (ratio, want.frobenius_relative)


def test_homomorphism_refuses_an_image_that_changes_n(monkeypatch, ctx):
    # The probes read every entry of the images, so an entry between two
    # particle numbers in X^ fails the check.
    basis = ctx(2, 4).basis
    images = su2ladders.verify.jordan_schwinger
    calls = []

    def changing_n(basis, x):
        image = images(basis, x)
        calls.append(x)
        if len(calls) > 1:
            return image
        m = image.matrix.tolil()
        i, j = basis.state_index((0, 0, 1, 0, 0)), basis.state_index((0,) * 5)
        m[i, j] = 1e-3
        return SparseOperator(basis, m.tocsr())
    monkeypatch.setattr(su2ladders.verify, "jordan_schwinger", changing_n)
    check = _check(su2ladders.verify._schwinger_checks, 2, 4,
                   "jordan-schwinger-homomorphism")
    assert not check.passed and check.residual > 1e-6


def test_block_squares_read_residual_block_by_block(ctx):
    # Four pairs laid out as the blocks of one stacked pair: each block's
    # report is residual's, normalisation included, float for float.
    c = ctx(2, 4)
    g = c.gens
    pairs = [[(g.Jplus, g.Jminus.adjoint()), (g.Ntot, g.Jz)],
             [(commutator(g.Jz, g.Jplus), g.Jplus), (g.Jz, 2.0 * g.Jz)]]
    for margin in (0, 1, 2):
        kept = c.basis.interior_masks(margin)
        got = su2ladders.operators.kept_block_squares(
            sparse.bmat([[x.matrix for x, _y in row] for row in pairs],
                        format="csr"),
            sparse.bmat([[y.matrix for _x, y in row] for row in pairs],
                        format="csr"),
            np.tile(kept, 2), len(c.basis))
        for p, row in enumerate(pairs):
            for q, (x, y) in enumerate(row):
                assert su2ladders.operators.block_residual(
                    got[:, p, q], margin) == residual(x, y, margin)


@pytest.mark.parametrize("spins", [[1, 2], [3]])
def test_run_suite_builds_each_mode_operator_once(monkeypatch, spins):
    # Every Fock-layer reader shares the context's mode table, the spin-1
    # single-mode ladder forms (tau_bar_forms) included.
    calls = []
    build = su2ladders.verify.creation_op

    def counted(basis, mu):
        calls.append((basis.spin, mu))
        return build(basis, mu)
    monkeypatch.setattr(su2ladders.verify, "creation_op", counted)
    assert run_suite(SuiteConfig(spins=spins, n_max=4)).overall_pass
    assert sorted(calls) == [(s, mu) for s in sorted(spins)
                             for mu in range(-s, s + 1)]


# -- every tau of a spin at once, on the kept level pairs ----------------------
#
# The library certifies every tau of a spin in one pass, forming only the
# level pairs that a margin-1 row reads.  The references below are the
# per-tau column rule: every product on the kept columns, tau's top level
# pair included, and each right function or resolvent a ``SectorBlocks`` on
# every level.  The reports must be equal, not merely close.

BATCH_CONFIGS = [(1, 5), (2, 5), (3, 5), (4, 4), (5, 4)]


def _against_zero(h, op):
    # commutator_residual by the column rule alone.
    absolute = commutator_on_columns(h, op, 1).kept_norm(1)
    scale = h.kept_norm(1) * op.kept_norm(1)
    return ResidualReport(absolute, absolute / scale if scale > 0
                          else absolute, 1)


def _column_rule_certificates(tau, gens):
    w0 = gens.weight0()
    op = tau.weight0
    a, b = (float(x) for x in (tau.right_function.coeffs + (0, 0))[:2])
    blocks = {}
    for n, d in enumerate(w0.basis.sector_table().sizes.tolist()):
        block = (b * w0.j.blocks[n][1] if n in w0.j.blocks
                 else np.zeros((d, d)))
        block[np.diag_indices(d)] += a
        blocks[n] = (n, block)
    f = SectorBlocks(w0.basis, blocks)
    casimir = (_against_zero(w0.J2, op) if op.is_zero() or f.is_zero()
               else residual(commutator_on_columns(w0.J2, op, 1),
                             op @ on_columns(f, 1), 1))
    shift = (_against_zero(w0.j, op) if tau.theta == 0
             else residual(commutator_on_columns(w0.j, op, 1),
                           float(tau.theta) * on_columns(op, 1), 1))
    return casimir, shift


def _column_rule_resolvent(gens, tau, k, side):
    def g(j):
        return 1.0 / (2.0 * j + (2 * k + 1))
    w0 = gens.weight0()
    op, theta = tau.weight0, tau.theta
    g_op = w0.function_of_j(g)
    if theta == 0:
        return _against_zero(g_op, op)
    if side == "right":
        rhs = op @ on_columns(
            w0.function_of_j(lambda j: g(j + theta) - g(j)), 1)
    else:
        rhs = w0.function_of_j(lambda j: g(j) - g(j - theta)) @ on_columns(
            op, 1)
    return residual(commutator_on_columns(g_op, op, 1), rhs, 1)


@pytest.mark.parametrize("spin,n_max", BATCH_CONFIGS)
def test_batched_tau_certificates_equal_the_per_tau_column_rule(ctx, spin,
                                                                n_max):
    c = ctx(spin, n_max)
    taus = list(c.taus.values())
    got = su2ladders.casimir.tau_certificates(taus, c.gens)
    assert got == [_column_rule_certificates(tau, c.gens) for tau in taus]
    for tau, (casimir, shift) in zip(taus, got):
        assert tau_casimir_ladder_residual(tau, c.gens) == casimir
        assert tau_shift_residual(tau, c.gens) == shift


@pytest.mark.parametrize("spin,n_max", BATCH_CONFIGS)
@pytest.mark.parametrize("side", ["right", "left"])
def test_batched_resolvent_relations_equal_the_per_tau_column_rule(
        ctx, spin, n_max, side):
    c = ctx(spin, n_max)
    taus = list(c.taus.values())
    for k in (0, 2):
        got = su2ladders.casimir.resolvent_commutator_checks(c.gens, taus, k,
                                                             side)
        assert got == [_column_rule_resolvent(c.gens, tau, k, side)
                       for tau in taus]


def _all_column_families(generators, columns):
    # The family columns with J_+/- applied to every given column, those at
    # n_max included, as the family routine formed them before it left the
    # n_max columns empty.
    basis, s = generators.basis, generators.s
    raised = su2ladders.casimir._raised_rows
    block = sparse.csr_matrix(
        (np.ones(len(columns)), (columns, np.arange(len(columns)))),
        shape=(len(basis), len(columns)))
    p, m, up, down, norm = [2.0 * raised(basis, 0, block)], [], block, block, 1.0
    for k in range(1, s + 1):
        up = generators.Jplus.matrix @ up
        down = generators.Jminus.matrix @ down
        norm *= math.sqrt((s + k) * (s - k + 1))
        plus, minus = raised(basis, -k, up), raised(basis, k, down)
        p.append((1.0 / norm) * (plus + minus))
        m.append((1.0 / norm) * (plus - minus))
    return p, m


@pytest.mark.parametrize("spin,n_max", BATCH_CONFIGS)
def test_family_columns_equal_the_all_columns_form(ctx, spin, n_max):
    # Every a_mu^dagger sends the n_max columns past the truncation, so
    # leaving them empty before the J_+/- products changes no entry, on the
    # weight-0 columns or on the whole space.
    c = ctx(spin, n_max)
    w0 = c.gens.weight0()
    for columns in (w0.rows, np.arange(len(c.basis))):
        got = su2ladders.casimir._family_columns(c.gens, columns)
        want = _all_column_families(c.gens, columns)
        for x, y in zip(got[0] + got[1], want[0] + want[1]):
            x, y = x.tocsr(), y.tocsr()
            x.sort_indices()
            y.sort_indices()
            assert x.shape == y.shape
            assert np.array_equal(x.indptr, y.indptr)
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.data, y.data)


@pytest.mark.parametrize("spin,n_max", BATCH_CONFIGS + [(6, 4)])
def test_weight0_j2_equals_the_restricted_whole_space_j2(spin, n_max):
    # The view forms J^2 by thin products on the weight-0 columns, without
    # the whole-space J^2; its blocks are those of the whole-space one.
    gens = su2_generators(enumerate_sector(spin, n_max))
    w0 = gens.weight0()
    assert "J2" not in vars(gens)
    _assert_same_blocks(w0.J2, w0.of(gens.J2))


@pytest.mark.parametrize("spin,n_max", BATCH_CONFIGS + [(6, 4)])
def test_weight0_j2_is_formed_alike_after_the_whole_space_j2(spin, n_max):
    # With the whole-space J^2 formed first, the view still forms its own by
    # thin products, and its blocks are still those of the whole-space one.
    gens = su2_generators(enumerate_sector(spin, n_max))
    whole = gens.J2
    w0 = gens.weight0()
    _assert_same_blocks(w0.J2, w0.of(whole))


def _assert_same_blocks(got, want):
    assert want is not got
    assert got.blocks.keys() == want.blocks.keys()
    for n, (target, block) in want.blocks.items():
        assert got.blocks[n][0] == target
        assert np.array_equal(got.blocks[n][1], block)


@pytest.mark.parametrize("spin", [2, 3])
def test_interior_factors_cut_only_factors_that_never_lower_n(ctx, spin):
    # Raising and level-preserving blocks are cut to the kept levels, and
    # the products they give equal the column rule's on every kept block;
    # a lowering factor or a sparse one leaves the factors as they are.
    c = ctx(spin, 5)
    w0 = c.gens.weight0()
    tau = c.taus[1].weight0
    top = c.basis.n_max - 1
    cut_j2, cut_tau = su2ladders.operators.interior_factors(1, w0.J2, tau)
    assert all(n <= top and t <= top for n, (t, _b) in cut_tau.blocks.items())
    assert max(tau.blocks) == top and tau.blocks[top][0] == top + 1
    cut = commutator(cut_j2, cut_tau)
    full = commutator_on_columns(w0.J2, tau, 1)
    assert cut.blocks.keys() == {n for n, (t, _b) in full.blocks.items()
                                 if t <= top}
    for n, (t, block) in cut.blocks.items():
        assert full.blocks[n][0] == t
        assert np.array_equal(full.blocks[n][1], block)
    low = tau.adjoint()
    assert su2ladders.operators.interior_factors(1, w0.J2, low) == (w0.J2, low)
    sparse_op = c.gens.Jz
    assert su2ladders.operators.interior_factors(1, sparse_op, sparse_op) == \
        (sparse_op, sparse_op)
