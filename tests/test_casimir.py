import dataclasses
import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

import su2ladders.casimir
import su2ladders.operators
from su2ladders import bruteforce
from su2ladders.casimir import (LadderFamily, LatticeSchemeError,
                                TauCertificationError, _worst_alpha_entry,
                                alpha_entry_deviation, assemble_tau,
                                build_alpha_certified, build_families,
                                build_taus, certify_alpha,
                                complete_set_check,
                                deformed_generators, expression_match_scale,
                                lattice_report, residue_classes,
                                resolvent_commutator_check, s1_reference_taus,
                                s1_full_closure_residuals,
                                s1_mutual_commutators,
                                tau_casimir_ladder_residual,
                                tau_shift_residual)
from su2ladders.fock import enumerate_sector
from su2ladders.ladder import (AlphaVerificationError, build_alpha,
                               build_alpha_variant_diag4, right_function_poly,
                               solve_sigma)
from su2ladders.operators import (ResidualReport, SectorBlocks,
                                  SparseOperator, commutator,
                                  commutator_residual, creation_op, residual,
                                  zero_residual)
from su2ladders.schwinger import Su2Generators, su2_generators

from conftest import whole_csr


# -- families -------------------------------------------------------------------


def test_p1_matches_explicit_expression(ctx):
    c = ctx(1, 4)
    rhs = creation_op(c.basis, 1) @ c.gens.Jminus \
        + creation_op(c.basis, -1) @ c.gens.Jplus
    assert (math.sqrt(2) * c.families.p_ops[1] - rhs).norm() < 1e-13


def test_p0_is_doubled_creation(ctx):
    c = ctx(1, 4)
    assert (c.families.p_ops[0] - 2.0 * creation_op(c.basis, 0)).is_zero()


def test_p0_weyl_constant(ctx):
    c = ctx(1, 4)
    p0d = c.families.p_ops[0]
    rep = residual(commutator(p0d.adjoint(), p0d),
                   4.0 * SparseOperator.identity(c.basis), 1)
    assert rep.frobenius_relative < 1e-13


def test_m1_annihilates_zero_weight_states(ctx):
    c = ctx(1, 5)
    rep = zero_residual(c.gens.weight0().of(c.families.m_ops[0]), 1,
                        scale=c.families.m_ops[0].norm())
    assert rep.frobenius_relative < 1e-14
    # Off the kernel it acts nontrivially.
    v = c.basis.unit_vector((1, 0, 0))
    assert np.linalg.norm(c.families.m_ops[0].apply(v)) > 0.9


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 5), (3, 5), (5, 5)])
def test_weight0_family_blocks_equal_the_whole_space_restriction(ctx, spin,
                                                                 n_max):
    # The families are formed on the weight-0 columns alone; each column of
    # a CSR product sums the same terms in the same order whatever the other
    # columns are, so the blocks equal the whole-space operators' weight-0
    # blocks array for array.
    c = ctx(spin, n_max)
    w0 = c.gens.weight0()
    pairs = list(zip(c.families.p_weight0 + c.families.m_weight0,
                     c.families.p_ops + c.families.m_ops))
    assert len(pairs) == 2 * spin + 1
    for got, whole in pairs:
        want = w0.of(whole)
        assert got.basis == w0.basis
        assert got.blocks.keys() == want.blocks.keys()
        for k, (t, block) in want.blocks.items():
            assert got.blocks[k][0] == t
            assert np.array_equal(got.blocks[k][1], block), k


@pytest.mark.parametrize("spin", [1, 2, 3])
def test_families_are_number_ladders(ctx, spin):
    c = ctx(spin, 4)
    for ops in (c.families.p_ops, c.families.m_ops):
        for t in ops:
            if t.is_zero():
                continue
            assert residual(commutator(c.gens.Ntot, t), t, 1
                            ).frobenius_relative < 1e-10
            assert commutator_residual(c.gens.Jz, t, 1
                                       ).frobenius_relative < 1e-10


# -- closure certification ---------------------------------------------------------


@pytest.mark.parametrize("spin", [1, 2, 3])
@pytest.mark.parametrize("family", ["p", "m"])
def test_alpha_certifies_numerically(ctx, spin, family):
    c = ctx(spin, 4)
    alpha, reports = build_alpha_certified(c.gens, c.families, family)
    for rep in reports.values():
        assert rep.frobenius_relative < 1e-8


@pytest.mark.parametrize("spin", [1, 2, 3])
def test_alpha_entries_match_measured_coefficients(ctx, spin):
    c = ctx(spin, 4)
    for family in ("p", "m"):
        dev = alpha_entry_deviation(build_alpha(spin, family), c.gens,
                                    c.families)
        assert dev < 1e-10


@pytest.mark.parametrize("spin", [1, 2])
def test_alpha_variant_diagonal_fails_certification(ctx, spin):
    c = ctx(spin, 4)
    variant = build_alpha_variant_diag4(spin, "p")
    with pytest.raises(Exception):
        certify_alpha(variant, c.gens, c.families)
    assert alpha_entry_deviation(variant, c.gens, c.families) > 1.0


@pytest.mark.parametrize("spin", [2, 3])
@pytest.mark.parametrize("family", ["p", "m"])
def test_alpha_certificate_catches_entry_perturbation(ctx, spin, family):
    # Each closure-matrix entry, scaled by 1 + 1e-6 on its own, must fail.
    c = ctx(spin, 4)
    alpha = build_alpha(spin, family)
    for key, poly in sorted(alpha.entries.items()):
        entries = dict(alpha.entries)
        entries[key] = poly * (1 + Fraction(1, 10**6))
        with pytest.raises(AlphaVerificationError):
            certify_alpha(dataclasses.replace(alpha, entries=entries),
                          c.gens, c.families)


def test_a_nan_closure_residual_fails_certification(monkeypatch):
    # A NaN column residual is not within the tolerance; fresh objects, as
    # the patch reaches every residual the module forms.
    basis = enumerate_sector(1, 3)
    gens = su2_generators(basis)
    families = build_families(basis, gens)
    monkeypatch.setattr(su2ladders.casimir, "residual",
                        lambda lhs, rhs, margin: ResidualReport(
                            math.nan, math.nan, margin))
    with pytest.raises(AlphaVerificationError, match="residual nan"):
        certify_alpha(build_alpha(1, "p"), gens, families, tol=math.inf)


class _Fit:
    """A family whose measured closure coefficients are given."""

    def __init__(self, mus, fit):
        self.mus, self.fit = mus, fit

    def weight0_ops(self, family):
        return dict.fromkeys(self.mus)

    def closure_fit(self, family, generators):
        return self.fit


@pytest.mark.parametrize("offsets,want", [
    ([0.0, 0.0, 0.0, 0.0], (None, 0.0)),
    ([0.0, 0.5, 0.25, 0.5], (1, 0.5)),
    ([0.0, 0.5, math.nan, math.nan], (0, math.nan)),
])
def test_the_worst_alpha_entry_is_the_first_largest_or_nan(offsets, want):
    # Two nodes (j = 1, 2) of two entries each, in (node, mu) order, each
    # coefficient its alpha entry plus an offset; ``want`` names the entry
    # by its position among the two.
    alpha = build_alpha(2, "p")
    mus, eta = alpha.ks[:2], alpha.ks[0]
    offsets = iter(offsets)
    fit = {eta: [(j, np.array([float(alpha.entry(mu, eta)(j)) + next(offsets)
                               for mu in mus]))
                 for j in (1, 2)]}
    mu, dev = _worst_alpha_entry(alpha, eta, None, _Fit(mus, fit))
    assert mu == (None if want[0] is None else mus[want[0]])
    assert dev == want[1] or math.isnan(dev) and math.isnan(want[1])


# -- assembled ladders ---------------------------------------------------------------


def test_tau_plus_one_on_vacuum(ctx):
    c = ctx(1, 4)
    vac = c.basis.unit_vector((0, 0, 0))
    out = c.taus[1].op.apply(vac)
    i = c.basis.state_index((0, 1, 0))
    assert out[i] == pytest.approx(1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0)


@pytest.mark.parametrize("spin", [1, 2, 3])
def test_tau_ladder_relations(ctx, spin):
    c = ctx(spin, 4)
    for theta, tau in sorted(c.taus.items()):
        assert tau_casimir_ladder_residual(tau, c.gens
                                           ).frobenius_relative < 1e-8
        assert tau_shift_residual(tau, c.gens).frobenius_relative < 1e-8


def _perturbed(tau, seed, delta=1e-6, sources=None):
    # Every entry of tau's weight-0 level blocks, the only entries the
    # certificates read, times (1 + delta * r), r uniform in [-1, 1]; with
    # ``sources``, only the blocks from those levels.
    rng = np.random.default_rng(seed)
    blocks = {}
    for n, (m, block) in tau.weight0.blocks.items():
        if sources is None or n in sources:
            block = block * (1.0 + delta * rng.uniform(-1.0, 1.0, block.shape))
        blocks[n] = (m, block)
    return dataclasses.replace(
        tau, weight0=SectorBlocks(tau.weight0.basis, blocks))


@pytest.mark.parametrize("spin", [2, 3])
def test_margin_one_certificates_read_exactly_the_interior_blocks(ctx, spin):
    # At margin 1 a residual keeps the blocks with source and target level
    # <= n_max - 1.  A 1e-6 perturbation of tau[+1]'s highest kept block,
    # n_max - 2 -> n_max - 1, fails the three certificates; the same
    # perturbation of the block n_max - 1 -> n_max, which no margin-1
    # residual reads, leaves every report as it is.
    n_max = 5
    c = ctx(spin, n_max)
    tau = c.taus[1]

    def reports(t):
        return (tau_casimir_ladder_residual(t, c.gens),
                tau_shift_residual(t, c.gens),
                resolvent_commutator_check(c.gens, t, 0, "right"))
    base = reports(tau)
    assert all(rep.frobenius_relative < 1e-8 for rep in base)
    inside = reports(_perturbed(tau, seed=spin, sources={n_max - 2}))
    assert all(rep.frobenius_relative > 1e-8 for rep in inside)
    assert tau.weight0.blocks[n_max - 1][0] == n_max
    assert reports(_perturbed(tau, seed=spin, sources={n_max - 1})) == base


@pytest.mark.parametrize("spin", [2, 3])
def test_tau_certificates_catch_entrywise_perturbation(ctx, spin):
    c = ctx(spin, 4)
    for theta, tau in sorted(c.taus.items()):
        bad = _perturbed(tau, seed=100 * spin + theta)
        assert tau_casimir_ladder_residual(bad, c.gens).frobenius_relative > 1e-8
        assert tau_shift_residual(bad, c.gens).frobenius_relative > 1e-8
        assert resolvent_commutator_check(
            c.gens, bad, 0, "right").frobenius_relative > 1e-8


@pytest.mark.parametrize("spin", [2, 3])
def test_tau_checked_against_wrong_theta_fails(ctx, spin):
    c = ctx(spin, 4)
    wrong = dataclasses.replace(c.taus[1], right_function=right_function_poly(2))
    assert tau_casimir_ladder_residual(wrong, c.gens).frobenius_relative > 0.1


def test_a_nan_tau_certificate_fails_the_build(ctx, monkeypatch):
    # A NaN label-shift residual of the last tau is not within 1e-8.
    c = ctx(1, 3)
    certificates = su2ladders.casimir.tau_certificates

    def nan_shift(taus, generators):
        reports = certificates(taus, generators)
        reports[-1] = (reports[-1][0], ResidualReport(math.nan, math.nan, 1))
        return reports
    monkeypatch.setattr(su2ladders.casimir, "tau_certificates", nan_shift)
    with pytest.raises(TauCertificationError, match=r"tau\[1\] failed the "
                       "label shift certificate: relative residual nan"):
        build_taus(c.families, c.gens, certify=True)


def test_assemble_tau_certification_catches_corruption(ctx):
    c = ctx(1, 4)
    sigma = solve_sigma(build_alpha(1, "p"), 1)
    bad = type(sigma)(spin=1, theta=-1, family="p", sigmas=sigma.sigmas)
    with pytest.raises(TauCertificationError):
        assemble_tau(c.families, bad, c.gens)


#: The relative Casimir-ladder residual of each tau at (3, 5), theta = -3..3,
#: with sigma_3 scaled by 1 + 1e-6, as read by one gemm per tau with the
#: right function as a spectral image; the shared products and the right
#: function formed from j must read the same to 1e-6 relative.
SCALED_SIGMA_RESIDUALS = [3.1719860529395064e-07, 4.356931613762553e-07,
                          1.35053211668668e-06, 5.203950709718093e-08,
                          8.946929377888639e-07, 7.085775406976577e-07,
                          7.036960603286402e-08]


def test_scaled_sigma_or_wrong_right_function_fails_every_theta(ctx):
    c = ctx(3, 5)
    for (theta, tau), want in zip(sorted(c.taus.items()),
                                  SCALED_SIGMA_RESIDUALS):
        sigma = tau.sigma
        scaled = dataclasses.replace(sigma, sigmas={
            **sigma.sigmas, 3: sigma.sigmas[3] * Fraction(1000001, 1000000)})
        with pytest.raises(TauCertificationError, match="Casimir") as err:
            assemble_tau(c.families, scaled, c.gens)
        assert err.value.report.frobenius_relative == pytest.approx(want,
                                                                    rel=1e-6)
        # The same family's sigma, certified against theta -/+ 2.
        wrong = dataclasses.replace(sigma, theta=theta - 2 if theta > 0
                                    else theta + 2)
        with pytest.raises(TauCertificationError, match="Casimir"):
            assemble_tau(c.families, wrong, c.gens)


def _concatenated_tau_blocks(decomposition, ops, sigma):
    # One tau's level blocks by one gemm per level: the T_k blocks side by
    # side times the stacked V diag sigma_k(js), then times V^T.
    out = {}
    for n, (_key, _idx, _vals, vecs) in enumerate(decomposition.sectors):
        terms = [(t.blocks[n], sigma.sigmas[k]) for k, t in ops.items()
                 if n in t.blocks and not sigma.sigmas[k].is_zero()]
        if terms:
            js = decomposition.labels[n].tolist()
            x = np.concatenate([block for (_m, block), _p in terms], axis=1)
            w = x @ np.concatenate([vecs * np.array([float(p(j)) for j in js])
                                    for _block, p in terms])
            out[n] = (terms[0][0][0], w @ vecs.T)
    return out


@pytest.mark.parametrize("spin,n_max", [(2, 5), (3, 5), (5, 5)])
def test_tau_blocks_match_the_concatenated_product(ctx, spin, n_max):
    c = ctx(spin, n_max)
    decomposition = c.gens.weight0().decomposition
    for tau in c.taus.values():
        want = SectorBlocks(tau.weight0.basis, _concatenated_tau_blocks(
            decomposition, c.families.weight0_ops(tau.family),
            tau.sigma)).blocks
        assert tau.weight0.blocks.keys() == want.keys()
        for n, (m, block) in want.items():
            got = tau.weight0.blocks[n]
            assert got[0] == m
            assert (np.linalg.norm(got[1] - block)
                    <= 1e-13 * np.linalg.norm(block))


def test_build_taus_forms_each_shared_product_once_and_keeps_none():
    # Each Y_k = T_k V is formed once per family operator and level, for all
    # of the family's tau together, and none outlives build_taus.
    made = []

    class Tracked(np.ndarray):
        def __matmul__(self, other):
            out = np.asarray(self) @ other
            made.append(weakref.ref(out))
            return out

    basis = enumerate_sector(3, 4)
    gens = su2_generators(basis)
    families = build_families(basis, gens)
    blocks = 0
    for op in families.p_weight0 + families.m_weight0:
        for n, (m, block) in op.blocks.items():
            op.blocks[n] = (m, block.view(Tracked))
            blocks += 1
    taus = build_taus(families, gens)
    assert sorted(taus) == list(range(-3, 4))
    gc.collect()
    assert len(made) == blocks
    assert all(ref() is None for ref in made)


def test_s1_expression_match_scales(ctx):
    c = ctx(1, 4)
    tau_plus_ref, tau_minus_ref = s1_reference_taus(c.gens, c.families)
    scale_p, res_p = expression_match_scale(c.taus[1].op, tau_plus_ref)
    scale_m, res_m = expression_match_scale(c.taus[-1].op, tau_minus_ref)
    assert scale_p == pytest.approx(2.0, abs=1e-12)
    assert scale_m == pytest.approx(-2.0, abs=1e-12)
    assert res_p < 1e-10
    assert res_m < 1e-10


# -- resolvent relations ---------------------------------------------------------------


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_resolvent_ladder_s1(ctx, side, k):
    c = ctx(1, 4)
    rep = resolvent_commutator_check(c.gens, c.taus[1], k, side)
    assert rep.frobenius_relative < 1e-8


@pytest.mark.parametrize("side", ["right", "left"])
def test_resolvent_ladder_s2_all_theta(ctx, side):
    c = ctx(2, 4)
    for theta in (-2, -1, 1, 2):
        rep = resolvent_commutator_check(c.gens, c.taus[theta], 1, side)
        assert rep.frobenius_relative < 1e-8


def test_resolvent_theta_zero_trivial(ctx):
    c = ctx(2, 4)
    for side in ("right", "left"):
        rep = resolvent_commutator_check(c.gens, c.taus[0], 0, side)
        assert rep.frobenius_relative < 1e-12


def test_resolvent_validates_arguments(ctx):
    c = ctx(1, 4)
    with pytest.raises(ValueError):
        resolvent_commutator_check(c.gens, c.taus[1], -1, "right")
    with pytest.raises(ValueError):
        resolvent_commutator_check(c.gens, c.taus[1], 0, "sideways")


# -- the kernel lattice -----------------------------------------------------------------


def test_lattice_s1_matches_expected_diagram(ctx):
    c = ctx(1, 5)
    rep = lattice_report(c.basis, c.gens, c.taus, 3)
    assert rep.node_dims == {(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 2): 1,
                             (3, 1): 1, (3, 3): 1}
    # Every node here is one-dimensional: one arrow per operator and node.
    flags = {(a.operator, a.source): a.annihilated for a in rep.arrows}
    assert len(flags) == len(rep.arrows)
    assert flags[("tau[-1]", (1, 1))] is True
    assert flags[("tau[+1]", (0, 0))] is True
    assert flags[("tau_dag[+1]", (0, 0))] is False
    reach = rep.reachable_by()
    assert "tau_dag[+1]" in reach[(1, 1)]
    assert "tau_dag[-1]" in reach[(2, 0)]


def test_lattice_node_dims_sum_to_sector_dims(ctx):
    for spin in (1, 2):
        c = ctx(spin, 4)
        rep = lattice_report(c.basis, c.gens, c.taus, 3)
        for n, total in rep.weight0_dims.items():
            assert total == sum(d for (nn, _), d in rep.node_dims.items()
                                if nn == n)


def test_lattice_rejects_scheme_violation(ctx):
    c = ctx(1, 4)
    # A weight-preserving raiser that is NOT a Casimir ladder leaks across
    # j targets, which the report must treat as a hard error.
    fake = dict(c.taus)
    fake[1] = dataclasses.replace(
        c.taus[1], weight0=c.gens.weight0().of(c.families.p_ops[0]))
    with pytest.raises(LatticeSchemeError):
        lattice_report(c.basis, c.gens, fake, 3)


def test_lattice_rejects_a_nan_image(ctx):
    # One NaN entry in tau[+1]'s level-1 block: its image of the level-1
    # node has no finite norm, which used to become an arrow of amplitude
    # NaN.
    c = ctx(1, 4)
    tau = c.taus[1]
    blocks = dict(tau.weight0.blocks)
    target, block = blocks[1]
    block = block.copy()
    block[0, 0] = math.nan
    blocks[1] = (target, block)
    fake = dict(c.taus)
    fake[1] = dataclasses.replace(
        tau, weight0=SectorBlocks(tau.weight0.basis, blocks))
    with pytest.raises(LatticeSchemeError,
                       match=r"tau_dag\[\+1\] applied to node \(1, 1\) "
                             "has an image of norm nan"):
        lattice_report(c.basis, c.gens, fake, 3)


@pytest.mark.parametrize("spin", [1, 2])
def test_multiplicities_match_bruteforce(ctx, spin):
    c = ctx(spin, 4)
    rep = lattice_report(c.basis, c.gens, c.taus, 3)
    for n in range(0, 4):
        got = {j: d for (nn, j), d in rep.node_dims.items() if nn == n}
        assert got == bruteforce.j_multiplicities(spin, n)


def test_tau_zero_preserves_j_s2(ctx):
    c = ctx(2, 4)
    rep = lattice_report(c.basis, c.gens, c.taus, 3)
    moved = [a for a in rep.arrows
             if a.operator in ("tau_dag[+0]", "tau[+0]")
             and not a.annihilated and a.target[1] != a.source[1]]
    assert moved == []


def test_lattice_json_roundtrip(ctx):
    import json
    c = ctx(1, 4)
    rep = lattice_report(c.basis, c.gens, c.taus, 2)
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert payload["spin"] == 1
    assert {tuple(n["node"]) for n in payload["reachable_by"]} \
        == set(rep.node_dims)



@pytest.mark.parametrize("spin,n_max", [(2, 5), (3, 5)])
def test_build_path_never_builds_the_whole_space_decomposition(
        monkeypatch, spin, n_max):
    # The families, the certified taus and the lattice read J^2 on weight 0
    # only: with the whole-space decomposition refused they build the same
    # tau level blocks and the same lattice report.
    def build():
        basis = enumerate_sector(spin, n_max)
        gens = su2_generators(basis)
        taus = build_taus(build_families(basis, gens), gens, certify=True)
        return taus, lattice_report(basis, gens, taus, min(n_max - 1, 4))

    want_taus, want_lattice = build()

    def refuse(self):
        raise AssertionError("the build read the whole-space J^2 decomposition")

    monkeypatch.setattr(Su2Generators, "j2_decomposition", refuse)
    got_taus, got_lattice = build()
    assert got_taus.keys() == want_taus.keys()
    for theta, tau in want_taus.items():
        got = got_taus[theta].weight0
        assert got.blocks.keys() == tau.weight0.blocks.keys()
        for k, (t, block) in tau.weight0.blocks.items():
            assert got.blocks[k][0] == t
            assert np.array_equal(got.blocks[k][1], block), (theta, k)
    assert (json.dumps(got_lattice.to_json_dict(), sort_keys=True)
            == json.dumps(want_lattice.to_json_dict(), sort_keys=True))


@pytest.mark.parametrize("spin,n_max", [(2, 5), (3, 5)])
def test_build_path_never_forms_the_whole_space_j2(monkeypatch, spin, n_max):
    # The weight-0 view forms J^2 by thin products on its columns, so with
    # the whole-space J^2 refused the families, the certified taus and the
    # lattice are built as before, array for array.
    def build():
        basis = enumerate_sector(spin, n_max)
        gens = su2_generators(basis)
        taus = build_taus(build_families(basis, gens), gens, certify=True)
        return taus, lattice_report(basis, gens, taus, min(n_max - 1, 4))

    want_taus, want_lattice = build()

    def refuse(self):
        raise AssertionError("the build formed the whole-space J^2")

    monkeypatch.setattr(Su2Generators, "J2", property(refuse))
    got_taus, got_lattice = build()
    assert got_taus.keys() == want_taus.keys()
    for theta, tau in want_taus.items():
        got = got_taus[theta].weight0
        assert got.blocks.keys() == tau.weight0.blocks.keys()
        for k, (t, block) in tau.weight0.blocks.items():
            assert got.blocks[k][0] == t
            assert np.array_equal(got.blocks[k][1], block), (theta, k)
    assert (json.dumps(got_lattice.to_json_dict(), sort_keys=True)
            == json.dumps(want_lattice.to_json_dict(), sort_keys=True))


@pytest.mark.parametrize("spin,n_max", [(2, 5), (3, 5)])
def test_build_path_never_builds_the_whole_space_families(
        monkeypatch, spin, n_max):
    # The families, the certified taus and the lattice read the families'
    # weight-0 blocks only: with the whole-space families, every whole-space
    # a^dagger and every whole-space sparse product (so every J_+/-^k)
    # refused, and the family columns formed on the weight-0 columns alone,
    # they build the same tau level blocks and the same lattice report.
    def build(gens):
        taus = build_taus(build_families(gens.basis, gens), gens, certify=True)
        return taus, lattice_report(gens.basis, gens, taus, min(n_max - 1, 4))

    want_taus, want_lattice = build(
        su2_generators(enumerate_sector(spin, n_max)))
    gens = su2_generators(enumerate_sector(spin, n_max))
    widths = []
    family_columns = su2ladders.casimir._family_columns

    def recorded(generators, columns):
        widths.append(len(columns))
        return family_columns(generators, columns)

    def refuse(*args, **kwargs):
        raise AssertionError("the build formed a whole-space family operator")

    monkeypatch.setattr(su2ladders.casimir, "_family_columns", recorded)
    monkeypatch.setattr(LadderFamily, "_whole_space", property(refuse))
    monkeypatch.setattr(su2ladders.operators, "creation_op", refuse)
    monkeypatch.setattr(SparseOperator, "__matmul__", refuse)
    monkeypatch.setattr(SparseOperator, "power", refuse)
    got_taus, got_lattice = build(gens)
    assert widths == [int((gens.basis.weights == 0).sum())]
    assert got_taus.keys() == want_taus.keys()
    for theta, tau in want_taus.items():
        got = got_taus[theta].weight0
        assert got.blocks.keys() == tau.weight0.blocks.keys()
        for k, (t, block) in tau.weight0.blocks.items():
            assert got.blocks[k][0] == t
            assert np.array_equal(got.blocks[k][1], block), (theta, k)
    assert (json.dumps(got_lattice.to_json_dict(), sort_keys=True)
            == json.dumps(want_lattice.to_json_dict(), sort_keys=True))


# -- deformed generators -------------------------------------------------------------------


def _whole_deformed_generators(t_dag):
    """L_z and L^2 formed from tau, the reference: on the whole space from
    tau.op, or as level blocks from tau.op's weight-0 blocks."""
    t = t_dag.adjoint()
    lz = commutator(t_dag, t).hermitized()
    return lz, (lz @ lz + 0.5 * (t_dag @ t + t @ t_dag)).hermitized()


@pytest.mark.parametrize("spin,omega", [(1, 1), (2, 1), (2, 2)])
def test_deformed_generators(ctx, spin, omega):
    c = ctx(spin, 4)
    lz, l2 = deformed_generators(c.taus[-omega])
    w0 = c.gens.weight0()
    assert lz.basis is w0.basis and l2.basis is w0.basis
    assert (lz - lz.adjoint()).norm() == 0.0
    assert (l2 - l2.adjoint()).norm() == 0.0
    assert commutator_residual(l2, w0.J2, 2).frobenius_relative < 1e-8
    # The whole-space forms commute with N, and the same products of
    # tau.op's weight-0 blocks are the generators themselves.
    tau_op = whole_csr(c.taus[-omega].op)
    lz_ref, _l2_ref = _whole_deformed_generators(tau_op)
    assert commutator_residual(lz_ref, c.gens.Ntot, 2).frobenius_relative < 1e-8
    lz_blocks, l2_blocks = _whole_deformed_generators(w0.of(tau_op))
    assert (lz_blocks - lz).is_zero()
    assert (l2_blocks - l2).is_zero()


def test_deformed_generators_need_lowering_shift(ctx):
    c = ctx(1, 4)
    with pytest.raises(ValueError):
        deformed_generators(c.taus[1])


def test_residue_classes(ctx):
    c = ctx(2, 4)
    rep = lattice_report(c.basis, c.gens, c.taus, 3)
    assert set(residue_classes(rep, 1)) == {0}
    classes2 = residue_classes(rep, 2)
    assert set(classes2) <= {0, 1}
    assert (3, 3) in classes2[1]


# -- complete commuting set ------------------------------------------------------------------


@pytest.mark.parametrize("spin", [1, 2])
def test_complete_set_commutators(ctx, spin):
    c = ctx(spin, 4)
    cs = complete_set_check(c.gens, c.taus, 4)
    for rep in cs.commutator_residuals.values():
        assert rep.frobenius_relative < 1e-8
    # [A_theta, J_z] and [A_theta, N] vanish because every term of tau has
    # grade (1, 0): each stored entry of each whole-space T_k, read here
    # from the basis's own labels.
    basis = c.basis
    for family in ("p", "m"):
        for t_k in c.families.ops(family).values():
            rows, cols = t_k.matrix.nonzero()
            assert np.all(basis.totals[rows] - basis.totals[cols] == 1)
            assert np.all(basis.weights[rows] == basis.weights[cols])


def test_separation_s1_trivial(ctx):
    c = ctx(1, 4)
    cs = complete_set_check(c.gens, c.taus, 4)
    assert cs.separation == []


def test_separation_s2_first_degenerate_nodes(ctx):
    c = ctx(2, 4)
    cs = complete_set_check(c.gens, c.taus, 4)
    nodes = {sn.node: sn for sn in cs.separation}
    # Brute force: the first nodes with multiplicity 2 sit at n = 4.
    assert bruteforce.j_multiplicities(2, 4)[2] == 2
    assert set(nodes) == {(4, 2), (4, 4)}
    assert all(sn.separated for sn in cs.separation)
    for sn in cs.separation:
        assert len(set(sn.eigenvalue_tuples)) == sn.dimension


# -- spin-1 closure forms ------------------------------------------------------------------


def test_s1_full_closure_certified_and_variant_rejected(ctx):
    c = ctx(1, 5)
    reps = s1_full_closure_residuals(c.gens, c.families)
    assert reps["certified"].frobenius_relative < 1e-8
    assert reps["kernel_form"].frobenius_relative < 1e-8
    assert reps["variant_plus_2mJz"].frobenius_relative > 0.1


def test_s1_mutual_commutators(ctx):
    c = ctx(1, 5)
    reps = s1_mutual_commutators(c.gens, c.families)
    assert reps["p0_p0dag"].frobenius_relative < 1e-10
    assert reps["p1_p0dag"].frobenius_relative < 1e-10
    assert reps["p0_p1dag"].frobenius_relative < 1e-10
    assert reps["p1_p1dag_weight0"].frobenius_relative < 1e-10
    assert reps["p1_p1dag_unrestricted"].frobenius_relative > 0.1


# -- sector-wise tau assembly --------------------------------------------------------


def _tau_by_products(c, tau):
    """sum_k T_k @ function_of_j(sigma_k): whole-space images, read as CSR
    through their coordinate export, and sparse products."""
    ref = SparseOperator.zeros(c.basis)
    for k, t_k in c.families.ops(tau.family).items():
        poly = tau.sigma.sigmas[k]
        if not poly.is_zero():
            ref = ref + t_k @ whole_csr(c.gens.function_of_j(poly))
    return ref


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 4), (3, 5), (4, 4)])
def test_sector_wise_tau_equals_sparse_products(ctx, spin, n_max):
    c = ctx(spin, n_max)
    for theta, tau in c.taus.items():
        ref = _tau_by_products(c, tau)
        assert (whole_csr(tau.op) - ref).norm() <= 1e-14 * ref.norm(), theta


@pytest.mark.parametrize("spin,n_max", [(1, 4), (2, 4), (3, 5), (4, 4)])
def test_tau_lives_on_the_raising_sector_blocks(ctx, spin, n_max):
    # Every entry of tau maps an (n, w) state to an (n + 1, w) state.
    c = ctx(spin, n_max)
    b = c.basis
    for tau in c.taus.values():
        rows, cols = whole_csr(tau.op).matrix.nonzero()
        assert len(rows)
        assert np.array_equal(b.totals[rows], b.totals[cols] + 1)
        assert np.array_equal(b.weights[rows], b.weights[cols])
