"""Casimir ladder stack: operator families, assembled ladders, lattice action.

Two families commuting with J_z are built from the bosonic modes,

    T_0 = 2 a_0^dagger,
    p_k = (a_{-k}^dagger J_+^k + a_k^dagger J_-^k) / prod_i sqrt((s+i)(s-i+1)),
    m_k = (a_{-k}^dagger J_+^k - a_k^dagger J_-^k) / prod_i sqrt((s+i)(s-i+1)),

and combined with the exact sigma coefficients into ladder operators
tau[theta] that shift the Casimir label j by theta while raising the total
particle number by one.  Everything the construction claims is certified
numerically on the zero-weight (J_z kernel) subspace, where the closure
relations hold; the few identities that hold unrestricted are checked on the
full interior.

The families are formed on weight 0 (``build_families``): J_+/- act as CSR
products on the weight-0 column block and each a_mu^dagger as a row map
(``_family_columns``), and each T_k is kept as its dense (n, 0) -> (n + 1, 0)
level blocks (``LadderFamily.weight0_ops``); a column that leaves weight 0 is
refused (WeightLeakError).  The same routine on every column gives the
whole-space operators (``LadderFamily.ops``), formed on first read by the
family, complete-set and deformed checks of ``verify``, the whole-space tau,
the spin-1 expressions and ``dump-op``.  The grade of each T_k holds by
construction: ``_family_columns`` reads every stored entry it forms against
its column's state and refuses the first one off grade (1, 0)
(GradeError), on the weight-0 columns and on the whole space alike.

Each tau is held on weight 0 too (``TauOperator.weight0``), and
``build_taus`` assembles a family's tau in one pass over the levels
(``_assemble_taus``).  The closure certificate and fit, the ladder
certificates, the resolvent relations, the lattice, the complete set and the
deformed generators read those blocks, J^2 read from its sparse entries,
functions of j on the (n, 0) sectors (``Su2Generators.weight0``) and the
kernel nodes of each level (``Weight0View.nodes``): every product is one gemm
per level block.  The tau certificates and the resolvent relations take
every tau of a spin at once, as stacked level blocks, and form only the
level pairs their margin-1 rows read (``tau_certificates``,
``resolvent_commutator_checks``).  What tau does off weight 0 follows from
the grade: every T_k maps each (n, w) sector into (n + 1, w) and sigma_k(j)
is block diagonal, so tau tau^dagger and the deformed generators commute
with N and J_z exactly; the checks of ``verify`` that claim it read the
whole-space families, which cannot be formed off grade.  The whole-space
tau (``TauOperator.op``) is built on demand, for the spin-1 expressions and
for export.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .fock import SectorBasis
from .jpoly import JPoly
from .ladder import (AlphaMatrix, M_FAMILY, P_FAMILY, SigmaVector,
                     AlphaVerificationError, build_alpha, check_llo, check_rlo,
                     right_function_poly, right_functions, solve_sigma)
from .operators import (BasisMismatchError, ResidualReport, SectorBlocks,
                        SectorStructureError, SparseOperator, _restriction,
                        blocks_fro, commutator, commutator_on_columns,
                        commutator_residual, interior_factors, number_op,
                        on_columns, raised_states, residual, scaled_residual,
                        sector_blocks, two_sided_residual)
from .schwinger import Su2Generators, _phase_fixed, jz_kernel


@dataclass(frozen=True)
class LadderFamily:
    """The symmetric (p) and antisymmetric (m) operator families for one spin.

    Both commute with J_z and raise the total particle number by one, by
    construction: ``_family_columns`` refuses an entry off grade (1, 0)
    (GradeError).  Index k = 0..s of the p family sits at position k, index
    k = 1..s of the m family at position k - 1.  Each operator is held in
    two forms, both formed by ``_family_columns``: ``p_weight0``/
    ``m_weight0``, its weight-0 level blocks (``SectorBlocks`` on the
    weight-0 basis), formed by ``build_families`` and read by the closure
    certificate and fit, tau and the lattice; and ``p_ops``/``m_ops``, the
    whole-space ``SparseOperator``, formed on first read and kept on this
    instance (``kept``, which keeps a failed build too), for the family
    checks, the complete set, the whole-space tau and the spin-1
    expressions.  Each column of a CSR product sums the same terms in the
    same order whatever the other columns are, so the level blocks equal
    ``Weight0View.of`` of the whole-space operators array for array.
    """
    s: int
    basis: SectorBasis
    generators: Su2Generators = field(repr=False, compare=False)
    p_weight0: tuple[SectorBlocks, ...]
    m_weight0: tuple[SectorBlocks, ...]
    # What is formed from these operators once and kept (the whole-space
    # families, ``closure_fit``, ``closure_commutators``,
    # ``s1_reference_taus``), or the exception its build raised.  Not an
    # init field, so a ``dataclasses.replace`` copy starts with its own.
    _values: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def _whole_space(self) -> tuple[tuple[SparseOperator, ...],
                                    tuple[SparseOperator, ...]]:
        def build():
            p, m = _family_columns(self.generators, np.arange(len(self.basis)))
            return (tuple(SparseOperator(self.basis, x) for x in p),
                    tuple(SparseOperator(self.basis, x) for x in m))
        return self.kept("whole space", self.generators, build)

    @property
    def p_ops(self) -> tuple[SparseOperator, ...]:
        return self._whole_space()[0]

    @property
    def m_ops(self) -> tuple[SparseOperator, ...]:
        return self._whole_space()[1]

    @staticmethod
    def _indexed(family: str, p: tuple, m: tuple) -> dict:
        if family == P_FAMILY:
            return dict(enumerate(p))
        if family == M_FAMILY:
            return dict(enumerate(m, start=1))
        raise ValueError(f"unknown family {family!r}")

    def ops(self, family: str) -> dict[int, SparseOperator]:
        """k -> T_k of the family, on the whole space."""
        return self._indexed(family, self.p_ops, self.m_ops)

    def weight0_ops(self, family: str) -> dict[int, SectorBlocks]:
        """k -> T_k of the family, as its weight-0 level blocks."""
        return self._indexed(family, self.p_weight0, self.m_weight0)

    def kept(self, key, generators: Su2Generators, build):
        """``build()``, formed on first use and kept on this instance under
        ``key``; a build that raises keeps its exception, and every later
        read raises it again, so the build runs once.  The generators must
        act on the families' basis."""
        if generators.basis is not self.basis and generators.basis != self.basis:
            raise BasisMismatchError("generators do not act on the families' basis")
        if key not in self._values:
            try:
                self._values[key] = build()
            except Exception as exc:
                self._values[key] = exc
        value = self._values[key]
        if isinstance(value, Exception):
            raise value
        return value

    def closure_fit(self, family: str, generators: Su2Generators
                    ) -> dict[int, list[tuple[int, np.ndarray]]]:
        """The family's closure coefficients measured on the J^2 kernel
        nodes (``_measure_closure``), fitted on first use and kept."""
        return self.kept(("fit", family), generators,
                         lambda: _measure_closure(self, generators, family))

    def closure_commutators(self, family: str, generators: Su2Generators
                            ) -> dict[int, SectorBlocks]:
        """[J^2, T_eta] for each eta of the family, on the weight-0 interior
        columns (margin LADDER_MARGIN), formed from the weight-0 blocks on
        first use and kept: ``certify_alpha`` and the closure fit read the
        same ones."""
        def build():
            w0 = generators.weight0()
            return {eta: commutator_on_columns(w0.J2, t, LADDER_MARGIN)
                    for eta, t in self.weight0_ops(family).items()}
        return self.kept(("commutators", family), generators, build)


class GradeError(ValueError):
    """A family operator T_k has an entry off grade (1, 0): it does not
    raise N by exactly one, or it changes the weight."""


def build_families(basis: SectorBasis, generators: Su2Generators) -> LadderFamily:
    """Construct both operator families for the generators' spin, as their
    weight-0 level blocks (``Weight0View.from_columns``, which refuses a
    column that leaves weight 0 with WeightLeakError), each of grade (1, 0)
    (``_family_columns``); the whole-space operators are formed on first
    read."""
    if generators.basis is not basis and generators.basis != basis:
        raise BasisMismatchError("basis does not match the generators")
    w0 = generators.weight0()
    p, m = _family_columns(generators, w0.rows)
    return LadderFamily(s=generators.s, basis=basis, generators=generators,
                        p_weight0=tuple(map(w0.from_columns, p)),
                        m_weight0=tuple(map(w0.from_columns, m)))


def _family_columns(generators: Su2Generators, columns: np.ndarray
                    ) -> tuple[list[sparse.csr_matrix],
                               list[sparse.csr_matrix]]:
    """T_k P for every operator of both families, P the basis columns
    ``columns``: the p family's and the m family's, each a CSR block with a
    row per basis state and a column per entry of ``columns``.

    J_+ and J_- act as CSR products on the thin block, right-associated,
    J^k P = J (J^(k-1) P), and a_mu^dagger as a row map
    (``_raised_rows``), so no whole-space power of J_+/- and no whole-space
    a_mu^dagger is formed.  Each column of the result is summed over the
    same terms in the same order whatever the other columns are.  The
    columns at n_max are left empty before the products: every
    a_mu^dagger sends them past the truncation, so T_k vanishes there.

    Every T_k has grade (1, 0): it maps each (n, w) sector into (n + 1, w).
    Each stored nonzero entry formed is read against its column's state
    (``basis.totals`` and ``basis.weights``), p family first, and the first
    entry off that grade, in CSR order, raises GradeError naming T_k, the
    entry's two states and its grade.
    """
    basis, s = generators.basis, generators.s
    dim, width = len(basis), len(columns)
    below = np.flatnonzero(basis.totals[columns] < basis.n_max)
    block = sparse.csr_matrix((np.ones(len(below)), (columns[below], below)),
                              shape=(dim, width))
    p = [2.0 * _raised_rows(basis, 0, block)]
    m = []
    up = down = block
    norm = 1.0
    for k in range(1, s + 1):
        up = generators.Jplus.matrix @ up
        down = generators.Jminus.matrix @ down
        norm *= math.sqrt((s + k) * (s - k + 1))
        plus, minus = _raised_rows(basis, -k, up), _raised_rows(basis, k, down)
        p.append((1.0 / norm) * (plus + minus))
        m.append((1.0 / norm) * (plus - minus))
    for name, x in ([(f"{P_FAMILY}_{k}", x) for k, x in enumerate(p)]
                    + [(f"{M_FAMILY}_{k}", x) for k, x in enumerate(m, 1)]):
        cols, counts = columns[x.indices], np.diff(x.indptr)
        dn = np.repeat(basis.totals, counts) - basis.totals[cols]
        dw = np.repeat(basis.weights, counts) - basis.weights[cols]
        off = np.flatnonzero(((dn != 1) | (dw != 0)) & (x.data != 0))
        if len(off):
            i = off[0]
            row = np.searchsorted(x.indptr, i, side="right") - 1
            raise GradeError(
                f"{name} sends {basis.states[cols[i]]} to "
                f"{basis.states[row]}: grade ({dn[i]}, {dw[i]}), not (1, 0) "
                f"({len(off)} such entries)")
    return p, m


def _raised_rows(basis: SectorBasis, mu: int, x: sparse.csr_matrix
                 ) -> sparse.csr_matrix:
    """a_mu^dagger X as a row map: each stored row of X moves to the row of
    its state with one more boson in mode mu, times sqrt(n_mu + 1)
    (``raised_states``, computed for those rows alone); a row at n_max is
    dropped.  The raising is injective, so each entry is one product, the
    float a CSR product with a_mu^dagger forms."""
    counts = np.diff(x.indptr)
    sources, targets, amps = raised_states(basis, mu, np.flatnonzero(counts))
    order = np.argsort(targets)
    sources, targets, amps = sources[order], targets[order], amps[order]
    sizes = counts[sources]
    indptr = np.zeros(x.shape[0] + 1, dtype=x.indptr.dtype)
    indptr[targets + 1] = sizes
    np.cumsum(indptr, out=indptr)
    taken = (np.repeat(x.indptr[sources] - indptr[targets], sizes)
             + np.arange(indptr[-1]))
    return sparse.csr_matrix(
        (x.data[taken] * np.repeat(amps, sizes), x.indices[taken], indptr),
        shape=x.shape)


#: Interior margin of the identities with one raising step (closure
#: certificate, tau certificates, resolvent relations, spin-1 expressions).
LADDER_MARGIN = 1
#: Interior margin of the identities that pair a ladder with an adjoint
#: (tau tau^dagger, [p, p^dagger], the spin-1 bracket ladder).
PAIR_MARGIN = 2


# -- numerical certification of the closure matrix ---------------------------


def certify_alpha(alpha: AlphaMatrix, generators: Su2Generators,
                  families: LadderFamily, tol: float = 1e-8
                  ) -> dict[int, ResidualReport]:
    """Verify each closure-matrix column against measured commutators.

    For every family index eta the residual of [J^2, T_eta] minus
    sum_mu T_mu alpha[mu, eta](j) is computed on the weight-0 interior
    (margin LADDER_MARGIN), from the weight-0 blocks of the generators
    (``Su2Generators.weight0``) and of the family
    (``LadderFamily.weight0_ops``); the commutators are the family's kept ones
    (``LadderFamily.closure_commutators``), and each term of the right-hand
    side is formed from the factors ``interior_factors`` cuts.  A failure
    aborts with the offending (mu, eta) pair, identified against the
    family's measured closure coefficients (``LadderFamily.closure_fit``).
    """
    w0 = generators.weight0()
    ops = families.weight0_ops(alpha.family)
    reports = {}
    for eta, lhs in families.closure_commutators(alpha.family,
                                                 generators).items():
        rhs = SectorBlocks.zeros(w0.basis)
        for mu, t_mu in ops.items():
            poly = alpha.entry(mu, eta)
            if poly.is_zero():
                continue
            t_mu, f_mu = interior_factors(LADDER_MARGIN, t_mu,
                                          w0.function_of_j(poly))
            rhs = rhs + t_mu @ on_columns(f_mu, LADDER_MARGIN)
        rep = residual(lhs, rhs, LADDER_MARGIN)
        if rep.frobenius_relative > tol:
            mu_bad, dev = _worst_alpha_entry(alpha, eta, generators, families)
            raise AlphaVerificationError(
                alpha.family, eta,
                f"residual {rep.frobenius_relative:.3e}; worst entry mu={mu_bad} "
                f"deviates by {dev:.3e}")
        reports[eta] = rep
    return reports


def _measure_closure(families: LadderFamily, generators: Su2Generators,
                     family: str) -> dict[int, list[tuple[int, np.ndarray]]]:
    """Coefficients of each [J^2, T_eta] in the family, fitted node by node.

    Returns, for every eta, (j, coef) per identified node in (n, node)
    order, coef[i] being the coefficient of the i-th operator of
    ``families.weight0_ops(family)``.  The nodes of levels n <= n_max -
    LADDER_MARGIN are the weight-0 columns that ``certify_alpha`` reads.
    The commutators are the family's kept ones
    (``LadderFamily.closure_commutators``), and each operator's images are
    taken a level at a time, one gemm of its level-n block with the level's
    nodes (``Weight0View.nodes``): every image and every fit lives on the
    rows of the one level the blocks reach, n + 1.  A node whose images are
    too ill-conditioned to identify the coefficients (numerical rank below
    their number, e.g. several images vanish) is skipped.  Otherwise each
    (node, eta) is fitted by least squares through one Householder QR of
    the node's images, which reads the same floor on the level rows as on
    rows padded with zeros (an SVD ``lstsq`` did not); a fit that leaves a
    residual is skipped.  No closure matrix is read.
    """
    w0 = generators.weight0()
    ops = families.weight0_ops(family)
    comms = families.closure_commutators(family, generators)
    fit: dict[int, list[tuple[int, np.ndarray]]] = {eta: [] for eta in ops}
    for n in range(0, families.basis.n_max - LADDER_MARGIN + 1):
        level = w0.nodes(n)
        imgs = _level_images(list(ops.values()) + list(comms.values()), n,
                             level.vectors)
        lhs_all = dict(zip(comms, imgs[len(ops):]))
        imgs = imgs[:len(ops)]
        for i, j in enumerate(level.labels.tolist()):
            m = np.array([img[:, i] for img in imgs]).T
            if np.linalg.matrix_rank(m, tol=1e-8) < len(ops):
                continue
            q, r = np.linalg.qr(m)
            for eta, lhs_level in lhs_all.items():
                lhs = lhs_level[:, i]
                coef = np.linalg.solve(r, q.conj().T @ lhs)
                if np.linalg.norm(m @ coef - lhs) > 1e-6 * (1 + np.linalg.norm(lhs)):
                    continue
                fit[eta].append((j, coef))
    return fit


def _level_images(ops: list[SectorBlocks], n: int, vectors: np.ndarray
                  ) -> list[np.ndarray]:
    """Each operator's images of the columns of ``vectors`` on level n, one
    gemm with its level-n block; zeros for an operator that vanishes there.
    The blocks must all reach one level, else SectorStructureError."""
    blocks = [op.blocks.get(n) for op in ops]
    targets = sorted({block[0] for block in blocks if block})
    if len(targets) > 1:
        raise SectorStructureError(
            f"the operators send level {n} into levels {targets}")
    rows = next((block[1].shape[0] for block in blocks if block), 0)
    return [block[1] @ vectors if block
            else np.zeros((rows, vectors.shape[1])) for block in blocks]


def _worst_alpha_entry(alpha, eta, generators, families):
    """(mu, deviation) of column eta's entry farthest from its measured value.

    Scans the family's measured coefficients (``LadderFamily.closure_fit``,
    fitted once per family instance) in (n, node, mu) order and compares
    each with alpha[mu, eta] at the node's label; the first largest
    deviation wins.  Any candidate alpha is read against the same fit.
    """
    mus = list(families.weight0_ops(alpha.family))
    worst = (None, 0.0)
    for j, coef in families.closure_fit(alpha.family, generators)[eta]:
        for mu, c in zip(mus, coef):
            dev = abs(float(c.real) - float(alpha.entry(mu, eta)(j)))
            if dev > worst[1]:
                worst = (mu, dev)
    return worst


def alpha_entry_deviation(alpha: AlphaMatrix, generators: Su2Generators,
                          families: LadderFamily) -> float:
    """Largest deviation of measured closure coefficients from the matrix.

    Every column is read against the family's one closure fit
    (``LadderFamily.closure_fit``); see ``_worst_alpha_entry``.
    """
    dev = 0.0
    for eta in alpha.ks:
        mu, d = _worst_alpha_entry(alpha, eta, generators, families)
        dev = max(dev, d)
    return dev


def build_alpha_certified(generators: Su2Generators, families: LadderFamily,
                          family: str, tol: float = 1e-8
                          ) -> tuple[AlphaMatrix, dict[int, ResidualReport]]:
    """Assemble the closure matrix and certify it numerically in one step."""
    alpha = build_alpha(generators.s, family)
    reports = certify_alpha(alpha, generators, families, tol=tol)
    return alpha, reports


# -- assembled ladder operators ----------------------------------------------


class TauCertificationError(ValueError):
    """An assembled ladder operator fails its build-time certificate."""

    def __init__(self, theta, which, report):
        self.theta = theta
        self.report = report
        super().__init__(
            f"tau[{theta}] failed the {which} certificate: relative residual "
            f"{report.frobenius_relative:.3e}")


@dataclass(frozen=True)
class TauOperator:
    """Ladder operator of the Casimir: shifts j by theta, raises N by one.

    ``weight0`` is tau on the weight-0 subspace (``Su2Generators.weight0``),
    where every ladder claim is read: a ``SectorBlocks`` with one dense
    block from each level n into level n + 1.  Its terms T_k have grade
    (1, 0) by construction (``_family_columns``), and so does tau.  ``op`` is
    tau on the whole space, as (n, w) sector blocks, read only by
    ``dump-op``, the spin-1 scale checks and the tests, assembled by the
    same routine on first read (``Su2Generators.sum_times_functions_of_j``)
    and kept on this instance, not as a field.
    """
    theta: int
    family: str
    weight0: SectorBlocks
    right_function: JPoly
    sigma: SigmaVector = field(repr=False)
    families: LadderFamily = field(repr=False, compare=False)
    generators: Su2Generators = field(repr=False, compare=False)

    @functools.cached_property
    def op(self) -> SectorBlocks:
        return self.generators.sum_times_functions_of_j([
            (t_k, self.sigma.sigmas[k])
            for k, t_k in self.families.ops(self.family).items()
            if not self.sigma.sigmas[k].is_zero()])


def assemble_tau(families: LadderFamily, sigma: SigmaVector,
                 generators: Su2Generators, certify: bool = True
                 ) -> TauOperator:
    """Combine a family with its sigma coefficients into a single ladder.

    tau = sum_k T_k sigma_k(j), the polynomials standing to the right as
    functions of the label.  Only its weight-0 level blocks are assembled
    (``_assemble_taus``).  When ``certify`` is set (default), the ladder
    relation with J^2 and the shift of j by theta must both hold to 1e-8 on
    the weight-0 interior before the operator is returned
    (``tau_certificates`` on a stack of one).
    """
    tau, = _assemble_taus(families, [sigma], generators)
    if certify:
        _require_certified([tau], generators)
    return tau


def _assemble_taus(families: LadderFamily, sigmas: list[SigmaVector],
                   generators: Su2Generators) -> list[TauOperator]:
    """The tau of ``sigmas``, all of one family, in one pass over the
    weight-0 levels (``SpectralDecomposition.sum_times``): on a level with
    eigenvectors V and labels js, Y_k = T_k V is formed once per family
    operator (``LadderFamily.weight0_ops``) and dropped with the level, and
    each tau's block is (sum_k Y_k diag sigma_k(js)) V^T.  The whole-space
    tau (``TauOperator.op``) is the same routine on the whole
    decomposition, so its (n, 0) blocks equal these array for array.
    """
    decomposition = generators.weight0().decomposition
    ops = families.weight0_ops(sigmas[0].family)
    blocks = decomposition.sum_times(list(ops.values()), [
        [decomposition.values(sigma.sigmas[k]) for k in ops]
        for sigma in sigmas])
    return [TauOperator(theta=sigma.theta, family=sigma.family, weight0=block,
                        right_function=right_function_poly(sigma.theta),
                        sigma=sigma, families=families, generators=generators)
            for sigma, block in zip(sigmas, blocks)]


def _ladder_residuals(taus: list[SectorBlocks], h: SectorBlocks, rhs,
                      degenerate: list[bool]) -> list[ResidualReport]:
    """The residual of [H, tau_i] = R_i on the weight-0 interior (margin
    LADDER_MARGIN), for every tau_i of ``taus`` at once.

    Each tau_i raises the level by one and H keeps it (J^2, j or a function
    of j), so only the level pairs n -> n + 1 <= n_max - 1 reach a kept
    entry (``interior_factors``), and only they are formed: the level-n
    blocks of all tau_i are stacked into one array T, zeros where a tau_i
    vanishes, and [H, T] = H_{n+1} T - T H_n and R = ``rhs(n, T)`` are
    stacked matmuls, each slice the gemm of a single tau_i.  The norms skip
    the zero slices, as ``SectorBlocks`` holds no zero block, so each report
    reads the floats ``residual`` reads of tau_i alone.  A ``degenerate``
    tau_i (R_i = 0 identically) is read as ``commutator_residual`` reads
    [H, tau_i]: against zero, normalised by ||H|| ||tau_i||.
    """
    margin = LADDER_MARGIN
    basis = h.basis
    _restriction(basis, margin)
    sizes = basis.sector_table().sizes
    levels = []
    for n in range(basis.n_max - margin):
        zero = (n + 1, np.zeros((sizes[n + 1], sizes[n])))
        blocks = [tau.blocks.get(n, zero) for tau in taus]
        if any(target != n + 1 for target, _block in blocks):
            raise SectorStructureError(
                f"a tau sends level {n} into a level other than {n + 1}")
        t = np.stack([block for _target, block in blocks])
        lhs = (h.blocks[n + 1][1] @ t if n + 1 in h.blocks
               else np.zeros(t.shape))
        if n in h.blocks:
            lhs = lhs - t @ h.blocks[n][1]
        levels.append((lhs, rhs(n, t)))
    reports = []
    for i, (tau, flat) in enumerate(zip(taus, degenerate)):
        lhs = [x[i] for x, _r in levels]
        if flat:
            reports.append(scaled_residual(
                blocks_fro(lhs), h.kept_norm(margin) * tau.kept_norm(margin),
                margin))
            continue
        rhs_i = [r[i] for _x, r in levels]
        reports.append(two_sided_residual(
            blocks_fro([x - r for x, r in zip(lhs, rhs_i)]), blocks_fro(lhs),
            blocks_fro(rhs_i), margin))
    return reports


def tau_certificates(taus: list[TauOperator], generators: Su2Generators
                     ) -> list[tuple[ResidualReport, ResidualReport]]:
    """The (Casimir ladder, label shift) residuals of each tau, the two
    certificates one after the other, each one pass over the kept level
    pairs for all the taus (``_ladder_residuals``).

    The Casimir ladder relation [J^2, tau] = tau (c_0 + c_1 j) reads the
    right function c_0 + c_1 j of each tau (``TauOperator.right_function``;
    a higher degree raises ValueError), formed level by level from the
    view's j (``Weight0View.affine_in_j``), with no spectral image; J^2 is
    read from its sparse entries, so the certificate checks tau's assembly
    by an independent route.  A zero right function or a zero tau reads
    [J^2, tau] = 0.  The label shift [j, tau] = theta tau reads
    [j, tau] = 0 at theta = 0.
    """
    w0 = generators.weight0()
    ops = [tau.weight0 for tau in taus]
    coeffs = []
    for tau in taus:
        f = tau.right_function
        if f.degree > 1:
            raise ValueError(f"right function {f} is not affine in j")
        coeffs.append([float(c) for c in (f.coeffs + (0, 0))[:2]])
    c0, c1 = np.array(coeffs, dtype=float).reshape(-1, 2).T
    casimir = _ladder_residuals(
        ops, w0.J2, lambda n, t: t @ w0.affine_in_j(n, c0, c1),
        [op.is_zero() or a == b == 0 for op, a, b in zip(ops, c0, c1)])
    thetas = np.array([float(tau.theta) for tau in taus])
    shift = _ladder_residuals(ops, w0.j,
                              lambda n, t: thetas[:, None, None] * t,
                              [tau.theta == 0 for tau in taus])
    return list(zip(casimir, shift))


def _require_certified(taus: list[TauOperator],
                       generators: Su2Generators) -> None:
    """Raise TauCertificationError for the first tau, in list order, whose
    Casimir ladder or label shift residual exceeds 1e-8 (the Casimir one
    first)."""
    for tau, reports in zip(taus, tau_certificates(taus, generators)):
        for which, rep in zip(("Casimir ladder", "label shift"), reports):
            if rep.frobenius_relative > 1e-8:
                raise TauCertificationError(tau.theta, which, rep)


def tau_casimir_ladder_residual(tau: TauOperator, generators: Su2Generators
                                ) -> ResidualReport:
    """Residual of [J^2, tau] - tau * theta(theta + 2j + 1) on the weight-0
    interior: ``tau_certificates`` on a stack of one."""
    return tau_certificates([tau], generators)[0][0]


def tau_shift_residual(tau: TauOperator, generators: Su2Generators
                       ) -> ResidualReport:
    """Residual of [j, tau] - theta * tau on the weight-0 interior:
    ``tau_certificates`` on a stack of one."""
    return tau_certificates([tau], generators)[0][1]


def build_taus(families: LadderFamily, generators: Su2Generators,
               certify: bool = True) -> dict[int, TauOperator]:
    """Assemble the ladder operator for every theta in [-s, s], ascending:
    each family's in one pass (``_assemble_taus``), then all certified at
    once as ``assemble_tau`` certifies one (``tau_certificates``); the first
    failure in ascending theta raises."""
    s = generators.s
    rfs = right_functions(s)
    taus = {}
    for family in (P_FAMILY, M_FAMILY):
        alpha = build_alpha(s, family)
        taus.update((tau.theta, tau) for tau in _assemble_taus(
            families, [solve_sigma(alpha, rf.theta) for rf in rfs
                       if rf.family == family], generators))
    taus = {theta: taus[theta] for theta in sorted(taus)}
    if certify:
        _require_certified(list(taus.values()), generators)
    return taus


# -- resolvent ladder relations ------------------------------------------------


def resolvent_commutator_checks(generators: Su2Generators,
                                taus: list[TauOperator], k: int, side: str
                                ) -> list[ResidualReport]:
    """Ladder relation of each tau with the resolvent g(j) = 1/(2j + (2k+1)).

    side='right': [g(j), tau] = tau (g(j + theta) - g(j)),
    side='left' : [g(j), tau] = (g(j) - g(j - theta)) tau,
    both on the weight-0 interior, for every tau in one pass over the kept
    level pairs (``_ladder_residuals``): g(j) is formed once, and it and
    each tau's difference of resolvents only on the levels n <= n_max - 1
    that a kept entry reads.  At theta = 0 both sides vanish identically
    (tau[0] preserves j), and [g(j), tau] = 0 is read.  Shifted
    denominators vanish only at half-integer j, so integer spectra stay
    clear of the poles; an actual pole raises SpectralFunctionError naming
    the sector.
    """
    if k < 0:
        raise ValueError("resolvent index k must be non-negative")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")

    def g(j: float) -> float:
        return 1.0 / (2.0 * j + (2 * k + 1))

    w0 = generators.weight0()
    top = w0.basis.n_max - LADDER_MARGIN
    sizes = w0.basis.sector_table().sizes
    g_op = w0.function_of_j(g, top)
    diffs = [SectorBlocks.zeros(w0.basis) if tau.theta == 0
             else w0.function_of_j(
                 (lambda j, t=tau.theta: g(j + t) - g(j)) if side == "right"
                 else (lambda j, t=tau.theta: g(j) - g(j - t)), top)
             for tau in taus]

    def stacked(n: int) -> np.ndarray:
        d = sizes[n]
        return np.stack([diff.blocks[n][1] if n in diff.blocks
                         else np.zeros((d, d)) for diff in diffs])
    return _ladder_residuals(
        [tau.weight0 for tau in taus], g_op,
        (lambda n, t: t @ stacked(n)) if side == "right"
        else (lambda n, t: stacked(n + 1) @ t),
        [tau.theta == 0 for tau in taus])


def resolvent_commutator_check(generators: Su2Generators, tau: TauOperator,
                               k: int, side: str) -> ResidualReport:
    """Ladder relation of tau with the resolvent 1/(2j + (2k+1)):
    ``resolvent_commutator_checks`` on a stack of one."""
    return resolvent_commutator_checks(generators, [tau], k, side)[0]


# -- lattice of kernel nodes -----------------------------------------------------


class LatticeSchemeError(ValueError):
    """A ladder image lands outside its predicted (n, j) node."""


@dataclass(frozen=True)
class LatticeArrow:
    """Action of one ladder operator on one kernel node."""
    operator: str               # e.g. "tau[+1]" or "tau_dag[-1]"
    source: tuple[int, int]     # (n, j)
    target: Optional[tuple[int, int]]  # None when annihilated
    amplitude: float            # norm of the image of a unit node vector
    annihilated: bool


@dataclass
class KernelLatticeReport:
    """Where each ladder operator sends each (n, j) kernel node.

    ``node_dims`` covers source levels n <= n_limit; ``known_nodes`` extends
    one level higher (when representable) so that target existence can be
    decided for raising arrows.  ``weight0_dims`` counts the basis's own
    (n, 0) states of each level n <= n_limit, which the node dimensions of
    that level must sum to.
    """
    spin: int
    n_limit: int
    node_dims: dict[tuple[int, int], int]
    arrows: list[LatticeArrow]
    weight0_dims: dict[int, int]
    known_nodes: dict[tuple[int, int], int]

    def node_exists(self, node: tuple[int, int]) -> bool:
        return node in self.known_nodes

    def reachable_by(self) -> dict[tuple[int, int], list[str]]:
        out: dict[tuple[int, int], list[str]] = {key: [] for key in self.node_dims}
        for arrow in self.arrows:
            if arrow.target is not None and arrow.target in out:
                if arrow.operator not in out[arrow.target]:
                    out[arrow.target].append(arrow.operator)
        return out

    def arrows_from(self, node: tuple[int, int]) -> list[LatticeArrow]:
        return [a for a in self.arrows if a.source == node]

    def annihilation_flags(self) -> dict[tuple[str, tuple[int, int]], bool]:
        return {(a.operator, a.source): a.annihilated for a in self.arrows}

    def to_json_dict(self) -> dict:
        return {
            "spin": self.spin,
            "n_limit": self.n_limit,
            "nodes": [{"n": n, "j": j, "dim": d}
                      for (n, j), d in sorted(self.node_dims.items())],
            "weight0_dims": [{"n": n, "dim": d}
                             for n, d in sorted(self.weight0_dims.items())],
            "arrows": [{
                "operator": a.operator,
                "source": list(a.source),
                "target": list(a.target) if a.target is not None else None,
                "amplitude": a.amplitude,
                "annihilated": a.annihilated,
            } for a in self.arrows],
            "reachable_by": [{"node": list(k), "operators": v}
                             for k, v in sorted(self.reachable_by().items())],
        }


def lattice_report(basis: SectorBasis, generators: Su2Generators,
                   taus: dict[int, TauOperator], n_limit: int
                   ) -> KernelLatticeReport:
    """Map the action of every tau and its adjoint on the (n, j) kernel lattice.

    Raising operators are recorded for source nodes with n <= n_max - 1 (the
    interior where truncation cannot bite); lowering operators for all nodes
    up to ``n_limit``.  An image of norm at most 1e-8 counts as annihilated.
    Any other image with a component outside the predicted target node
    (n +/- 1, j +/- theta) of norm above 1e-8 * max(1, |image|) is a hard
    error.  Everything is read level by level in weight-0 coordinates: the
    nodes of each level (``Weight0View.nodes``), and tau's level blocks
    (``TauOperator.weight0``) for raising, their adjoints for lowering.  A
    tau that leaves weight 0, or sends a level into two, is refused when it
    is assembled, so each source level's image is one gemm of one block with
    the level's nodes, and it lies on one target level; the images of a
    level's nodes are projected onto their predicted nodes in one more
    product.  An image on any other level than the predicted one, or above
    the highest node level, is a leak as a whole.
    """
    if n_limit > basis.n_max:
        raise ValueError(f"n_limit={n_limit} exceeds n_max={basis.n_max}")
    view = generators.weight0()
    levels = {n: view.nodes(n)
              for n in range(0, min(n_limit + 1, basis.n_max) + 1)}
    known_nodes = dict(Counter((n, j) for n, level in levels.items()
                               for j in level.labels.tolist()))
    node_dims = {key: d for key, d in known_nodes.items() if key[0] <= n_limit}
    weight0_dims = {n: int(np.count_nonzero((basis.totals == n)
                                            & (basis.weights == 0)))
                    for n in levels if n <= n_limit}

    def apply(op: SectorBlocks, n: int, dn: int, dj: int
              ) -> tuple[np.ndarray, np.ndarray]:
        # Norm of the image of each node of level n, and of its leak: what
        # is left once the image is projected onto the nodes of
        # (n + dn, j + dj).  The nodes are orthonormal, so the projection is
        # one product.  The leak is formed explicitly, which avoids the
        # cancellation that |image|^2 - |projection|^2 would suffer.
        source = levels[n]
        if n not in op.blocks:
            zero = np.zeros(len(source.labels))
            return zero, zero
        target, block = op.blocks[n]
        images = block @ source.vectors
        leaks = images
        if target == n + dn and target in levels:
            nodes = levels[target]
            predicted = nodes.labels[:, None] == source.labels + dj
            leaks = images - nodes.vectors @ (
                (nodes.vectors.conj().T @ images) * predicted)
        return (np.linalg.norm(images, axis=0),
                np.linalg.norm(leaks, axis=0))

    # Each (theta, n) gives its node images' norms and leaks for tau (when
    # the level is in the interior) and its adjoint; tau raises N by one,
    # (n, j) -> (n+1, j+theta), and its adjoint lowers it,
    # (n, j) -> (n-1, j-theta).  Arrows are listed by theta, level, node,
    # raising before lowering, and a leak is refused at the first such
    # arrow before any arrow is built.
    images = []
    for theta in sorted(taus):
        tau = taus[theta].weight0
        # The adjoint of the blocks the lowering arrows read, those into
        # levels <= n_limit.
        tau_low = tau.interior(basis.n_max - n_limit).adjoint()
        for n in range(0, n_limit + 1):
            ops = ([(f"tau_dag[{theta:+d}]", tau, 1, theta)]
                   if n < basis.n_max else [])
            ops.append((f"tau[{theta:+d}]", tau_low, -1, -theta))
            norms, leaks = zip(*(apply(op, n, dn, dj)
                                 for _label, op, dn, dj in ops))
            images.append((n, [(label, dn, dj) for label, _op, dn, dj in ops],
                           np.array(norms), np.array(leaks)))
    for n, sides, norms, leaks in images:
        bad = np.argwhere(((norms > 1e-8) & (leaks > 1e-8 * np.maximum(
            1.0, norms))).T)
        if len(bad):
            i, side = bad[0]
            label, dn, dj = sides[side]
            j = int(levels[n].labels[i])
            raise LatticeSchemeError(
                f"{label} applied to node {(n, j)} leaks "
                f"{float(leaks[side, i]):.3e} outside the predicted node "
                f"{(n + dn, j + dj)}")
    arrows = [
        LatticeArrow(operator=label, source=(n, j),
                     target=None if norm <= 1e-8 else (n + dn, j + dj),
                     amplitude=0.0 if norm <= 1e-8 else norm,
                     annihilated=norm <= 1e-8)
        for n, sides, norms, _leaks in images
        for j, node in zip(levels[n].labels.tolist(), norms.T.tolist())
        for (label, dn, dj), norm in zip(sides, node)]
    return KernelLatticeReport(spin=generators.s, n_limit=n_limit,
                               node_dims=node_dims, arrows=arrows,
                               weight0_dims=weight0_dims,
                               known_nodes=known_nodes)


# -- deformed algebra generators --------------------------------------------------


def deformed_generators(tau_minus: TauOperator
                        ) -> tuple[SectorBlocks, SectorBlocks]:
    """Deformation generators from a lowering pair (theta = -omega, omega >= 1).

    L_z = [tau+, tau] and L^2 = L_z^2 + (tau+ tau + tau tau+)/2, both exactly
    hermitian by construction, formed from tau's weight-0 level blocks
    (``TauOperator.weight0``), so they live on the weight-0 basis, one block
    per level.  tau maps weight 0 to itself, so they are the weight-0 blocks
    of the whole-space products up to rounding.  Off weight 0 they have
    grade (0, 0), as tau has (1, 0), which its whole-space family holds by
    construction (``LadderFamily.ops`` refuses an entry off grade with
    GradeError), so they commute with N and J_z; ``verify``'s deformed
    check reads that family.
    """
    if tau_minus.theta >= 0:
        raise ValueError("deformed generators need theta = -omega with omega >= 1")
    t_dag = tau_minus.weight0
    t = t_dag.adjoint()
    lz = commutator(t_dag, t).hermitized()
    l2 = (lz @ lz + 0.5 * (t_dag @ t + t @ t_dag)).hermitized()
    return lz, l2


def residue_classes(report: KernelLatticeReport, omega: int
                    ) -> dict[int, list[tuple[int, int]]]:
    """Kernel nodes partitioned by the residue r = j mod omega."""
    if omega < 1:
        raise ValueError("omega must be >= 1")
    classes: dict[int, list[tuple[int, int]]] = {}
    for (n, j) in sorted(report.node_dims):
        classes.setdefault(j % omega, []).append((n, j))
    return classes


# -- commuting-set checks ------------------------------------------------------------


@dataclass
class SeparationNode:
    """Joint-eigenvalue separation outcome for one multi-dimensional node."""
    node: tuple[int, int]
    dimension: int
    separated: bool
    eigenvalue_tuples: list[tuple[float, ...]]


@dataclass
class CompleteSetReport:
    commutator_residuals: dict[tuple[int, str], ResidualReport]
    separation: list[SeparationNode]


def complete_set_check(generators: Su2Generators,
                       taus: dict[int, TauOperator], n_limit: int
                       ) -> CompleteSetReport:
    """Commutation of A_theta = tau+ tau with {J^2, J_z, N}, plus a
    separation scan.

    Each A_theta is formed on weight 0, from tau's level blocks, one block
    per level.  Its commutator with J^2 is read on the weight-0 interior
    (margin PAIR_MARGIN), where the ladder relation that implies it holds.
    Its commutators with J_z and N vanish exactly and on every weight
    because tau has grade (1, 0), which its whole-space family holds by
    construction (``LadderFamily.ops`` refuses an entry off grade with
    GradeError); ``verify``'s ``tau-complete-set`` reads that family, so
    no weight-0 claim here forms it.  The scan then looks for kernel nodes of dimension >= 2
    (``Weight0View.nodes``) and reports whether the eigenvalues of the
    A_theta restricted to the node separate its states (eigenvalues within
    1e-6, relative, count as degenerate), reading each A_theta's block of
    the node's level.
    """
    residuals: dict[tuple[int, str], ResidualReport] = {}
    prods: dict[int, SectorBlocks] = {}
    w0 = generators.weight0()
    for theta in sorted(taus):
        t_dag = taus[theta].weight0
        prod = prods[theta] = t_dag @ t_dag.adjoint()
        residuals[(theta, "J2")] = commutator_residual(prod, w0.J2, PAIR_MARGIN)

    separation: list[SeparationNode] = []
    for n in range(0, n_limit + 1):
        level = w0.nodes(n)
        size = len(level.labels)
        blocks = {theta: prod.blocks[n][1] if n in prod.blocks
                  else np.zeros((size, size)) for theta, prod in prods.items()}
        labels, counts = np.unique(level.labels, return_counts=True)
        for j in labels[counts > 1].tolist():
            separation.append(_separate_node(
                (n, j), level.vectors[:, level.labels == j], blocks))
    return CompleteSetReport(commutator_residuals=residuals,
                             separation=separation)


def _separate_node(node, basis_mat, prods):
    """Refine a node by the eigenvalues of each A_theta in turn; the node's
    vectors are the columns of ``basis_mat``, and ``prods`` holds each
    A_theta's dense block on the node's level, in the same coordinates."""
    dim = basis_mat.shape[1]
    blocks = [list(range(dim))]
    tuples = [tuple() for _ in range(dim)]
    for theta in sorted(prods):
        small = basis_mat.conj().T @ (prods[theta] @ basis_mat)
        small = 0.5 * (small + small.conj().T)
        new_blocks = []
        for block in blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            sub = small[np.ix_(block, block)]
            vals, vecs = np.linalg.eigh(sub)
            groups: list[list[int]] = []
            for i, v in enumerate(vals):
                if groups and abs(v - vals[groups[-1][-1]]) <= 1e-6 * (1 + abs(v)):
                    groups[-1].append(i)
                else:
                    groups.append([i])
            for g in groups:
                new_blocks.append([block[i] for i in g])
        blocks = new_blocks
        vals_full = np.diag(small).real
        tuples = [tuples[i] + (round(float(vals_full[i]), 8),)
                  for i in range(dim)]
    separated = all(len(b) == 1 for b in blocks)
    return SeparationNode(node=node, dimension=dim, separated=separated,
                          eigenvalue_tuples=tuples)


# -- unrestricted closure for the s = 1 symmetric family -----------------------------


def s1_full_closure_residuals(generators: Su2Generators,
                              families: LadderFamily
                              ) -> dict[str, ResidualReport]:
    """Unrestricted closure of [J^2, p_1] at spin 1, on the whole interior.

    The certified identity is

        [J^2, p_1] = p_0 (j - J_z)(j + J_z + 1) - 2 m_1 (J_z + I),

    derived by coefficient extraction and exact on the full space.  The
    variant with correction term +2 m_1 J_z is also evaluated and recorded;
    it fails off the zero-weight subspace and is kept as a falsified
    alternative in verification reports.  The kernel form
    [J^2, p_1] = p_0 J^2 is read on the weight-0 view
    (``Su2Generators.weight0``), where J_z vanishes.
    """
    if generators.s != 1:
        raise ValueError("this closure check is specific to spin 1")
    p0, p1 = families.p_ops[0], families.p_ops[1]
    m1 = families.m_ops[0]
    lhs = commutator(generators.J2, p1)
    w0 = generators.weight0()
    jz = generators.Jz
    ident = SparseOperator.identity(families.basis)
    # (j - J_z)(j + J_z + 1) = J^2 - J_z(J_z + 1), all factors commuting.
    fn = generators.J2 - (jz @ jz + jz)
    certified = p0 @ fn - 2.0 * (m1 @ (jz + ident))
    variant = p0 @ fn + 2.0 * (m1 @ jz)
    margin = LADDER_MARGIN
    return {
        "certified": residual(lhs, certified, margin),
        "variant_plus_2mJz": residual(lhs, variant, margin),
        "kernel_form": residual(w0.of(lhs), w0.of(p0) @ w0.J2, margin),
    }


def s1_mutual_commutators(generators: Su2Generators, families: LadderFamily
                          ) -> dict[str, ResidualReport]:
    """Mutual commutators of the spin-1 symmetric family.

    [p_0, p_0^+] = 4 holds on the full interior, as do the cross relations
    [p_1, p_0^+] = [p_0, p_1^+] = 2(N - N_0).  The diagonal relation
    [p_1, p_1^+] = 2j(j+1) - J_z(2J_z+1) + (N - N_0)(J_z - 2) is certified on
    the weight-0 view (``Su2Generators.weight0``); it fails unrestricted,
    which is recorded.
    """
    if generators.s != 1:
        raise ValueError("these commutators are specific to spin 1")
    basis = families.basis
    p0d, p1d = families.p_ops[0], families.p_ops[1]
    p0, p1 = p0d.adjoint(), p1d.adjoint()
    ident = SparseOperator.identity(basis)
    n_minus_n0 = generators.Ntot - number_op(basis, 0)
    jz = generators.Jz
    two_nn0 = 2.0 * n_minus_n0
    diag_rhs = (2.0 * generators.J2 - (jz @ (2.0 * jz + ident))
                + n_minus_n0 @ (jz - 2.0 * ident))
    diag = commutator(p1, p1d)
    w0 = generators.weight0()
    margin = PAIR_MARGIN
    return {
        "p0_p0dag": residual(commutator(p0, p0d), 4.0 * ident, margin),
        "p1_p0dag": residual(commutator(p1, p0d), two_nn0, margin),
        "p0_p1dag": residual(commutator(p0, p1d), two_nn0, margin),
        "p1_p1dag_weight0": residual(w0.of(diag), w0.of(diag_rhs), margin),
        "p1_p1dag_unrestricted": residual(diag, diag_rhs, margin),
    }


# -- the complete spin-1 walkthrough ---------------------------------------------


@dataclass
class DemoS1Operators:
    """Weyl pair and deformed su(2) generators built from the spin-1 ladders,
    as whole-space sector blocks."""
    tau_plus: SectorBlocks          # p_0 (j+1) + 2 p_1
    tau_minus: SectorBlocks         # p_0 j - 2 p_1
    a_dag: SectorBlocks
    a_op: SectorBlocks
    l_plus: SectorBlocks
    l_minus: SectorBlocks
    l_z: SectorBlocks
    l_2: SectorBlocks


def s1_reference_taus(generators: Su2Generators, families: LadderFamily
                      ) -> tuple[SectorBlocks, SectorBlocks]:
    """The spin-1 ladder pair in its conventional normalization.

    tau[+1] = p_0 (j + 1) + 2 p_1 and tau[-1] = p_0 j - 2 p_1; these equal
    the sigma-assembled ladders up to one global rational scale per theta.
    The pair is formed once per family instance (``LadderFamily.kept``), as
    whole-space sector blocks.
    """
    if generators.s != 1:
        raise ValueError("reference expressions are specific to spin 1")

    def build():
        p0, p1 = map(sector_blocks, families.p_ops[:2])
        j_plus_1 = generators.function_of_j(lambda j: j + 1.0)
        j_op = generators.j_hat()
        return p0 @ j_plus_1 + 2.0 * p1, p0 @ j_op - 2.0 * p1
    return families.kept("s1-reference-taus", generators, build)


def expression_match_scale(assembled: SectorBlocks,
                           reference: SectorBlocks) -> tuple[float, float]:
    """Global scale lambda with reference ~ lambda * assembled, and the residual.

    The scale is the ratio of the two operators' entries at the first
    nonzero entry of ``assembled`` (row-major); the returned residual is the
    relative Frobenius gap after scaling.
    """
    entries = assembled.to_coo_json()["entries"]
    first = next(((r, c, complex(re, im)) for r, c, re, im in entries
                  if abs(complex(re, im)) > 1e-12), None)
    if first is None:
        raise ValueError("assembled operator is zero; no scale to extract")
    row, col, value = first
    column = reference.apply(np.eye(1, len(reference.basis), col)[0])
    lam = complex(column[row]) / value
    num = (reference - lam * assembled).norm()
    den = reference.norm()
    return (float(lam.real) if abs(lam.imag) < 1e-12 else complex(lam),
            num / den if den > 0 else num)


def demo_s1_operators(generators: Su2Generators, families: LadderFamily
                      ) -> DemoS1Operators:
    """Build the Weyl pair (A, A+) and the deformed su(2) triple at spin 1.

    A+ multiplies tau[+1] on the right by
        1/(2 sqrt(j+1)) * 1/sqrt(N + j + 3) * sqrt(2j+3)/sqrt(2j+1),
    and L_+ multiplies tau[-1] on the LEFT by
        1/(2 sqrt(2) sqrt(j+1)) * sqrt(2j+1)/sqrt(2j+3);
    then L_z = [L_+, L_-]/2 and L^2 = L_z^2 + L_z + L_- L_+.  The L_+ factor
    placement is fixed by re-derivation: tau[-1] lowers j by one, and only
    the left placement gives |L_+|^2 = j(n-j+2)/2 on a node, hence the
    advertised L_z and L^2 spectra (as a right factor the same expression is
    off by one unit of j and fails them).  The scalar factors are evaluated
    on the commuting pair (N, j); a pole or negative radicand raises
    SpectralFunctionError naming the sector.
    """
    tau_plus, tau_minus = s1_reference_taus(generators, families)

    def a_factor(n: int, j: float) -> float:
        return (1.0 / (2.0 * math.sqrt(j + 1.0))
                / math.sqrt(n + j + 3.0)
                * math.sqrt(2.0 * j + 3.0) / math.sqrt(2.0 * j + 1.0))

    def l_factor(n: int, j: float) -> float:
        return (1.0 / (2.0 * math.sqrt(2.0) * math.sqrt(j + 1.0))
                * math.sqrt(2.0 * j + 1.0) / math.sqrt(2.0 * j + 3.0))

    a_dag = tau_plus @ generators.function_of_nj(a_factor)
    l_plus = generators.function_of_nj(l_factor) @ tau_minus
    a_op = a_dag.adjoint()
    l_minus = l_plus.adjoint()
    l_z = (0.5 * commutator(l_plus, l_minus)).hermitized()
    l_2 = (l_z @ l_z + l_z + l_minus @ l_plus).hermitized()
    return DemoS1Operators(tau_plus=tau_plus, tau_minus=tau_minus,
                           a_dag=a_dag, a_op=a_op, l_plus=l_plus,
                           l_minus=l_minus, l_z=l_z, l_2=l_2)


@dataclass(frozen=True)
class CanonicalVector:
    """Constructed basis vector with its (n, j, j_z) labels."""
    n: int
    j: int
    jz: int
    vector: np.ndarray = field(repr=False)


class CanonicalBasisError(ValueError):
    """A canonical-basis chain produced the zero vector."""


def canonical_basis_s1(basis: SectorBasis, generators: Su2Generators,
                       families: LadderFamily, n_limit: int
                       ) -> list[CanonicalVector]:
    """Spin-1 canonical basis from joint ladder action on the vacuum.

    |n, j, j_z> is the normalized J_+/-^|j_z| tau[-1]^((n-j)/2)
    tau[+1]^((n+j)/2) |vacuum>, for n <= n_limit, 0 <= j <= n with n = j
    (mod 2) and |j_z| <= j.  The phase makes the first nonzero coordinate
    real positive.  A zero vector before normalization is a hard error.
    """
    if generators.s != 1:
        raise ValueError("the joint-action formula is specific to spin 1")
    if n_limit > basis.n_max:
        raise ValueError(f"n_limit={n_limit} exceeds n_max={basis.n_max}")
    tau_plus, tau_minus = s1_reference_taus(generators, families)
    vacuum = basis.unit_vector((0,) * basis.modes)
    out: list[CanonicalVector] = []
    for n in range(0, n_limit + 1):
        for j in range(n % 2, n + 1, 2):
            vec = vacuum
            for _ in range((n + j) // 2):
                vec = tau_plus.apply(vec)
            for _ in range((n - j) // 2):
                vec = tau_minus.apply(vec)
            kernel_vec = vec
            for jz in range(-j, j + 1):
                vec = kernel_vec
                ladder = generators.Jplus if jz > 0 else generators.Jminus
                for _ in range(abs(jz)):
                    vec = ladder.apply(vec)
                norm = np.linalg.norm(vec)
                if norm < 1e-12:
                    raise CanonicalBasisError(
                        f"canonical chain for (n={n}, j={j}, j_z={jz}) "
                        "produced the zero vector")
                vec = vec / norm
                out.append(CanonicalVector(n=n, j=j, jz=jz,
                                           vector=_phase_fixed(vec)))
    return out


# -- alternative single-mode ladder forms -------------------------------------------


@dataclass
class TauBarReport:
    """Certificates for the ladders built from the zero-mode alone."""
    double_commutator: ResidualReport
    rlo_plus: ResidualReport
    rlo_minus: ResidualReport
    llo_plus: ResidualReport
    llo_minus: ResidualReport
    node_ratios: list[tuple[int, int, float, float]]  # (n, j, measured, expected)

    def max_ratio_deviation(self) -> float:
        return float(max((abs(m - e) for _, _, m, e in self.node_ratios),
                         default=0.0))


def tau_bar_forms(basis: SectorBasis, generators: Su2Generators,
                  families: LadderFamily, ad0: SparseOperator
                  ) -> TauBarReport:
    """Single-mode ladder forms tbar[+/-1] = +/-[j, a_0^dagger] + a_0^dagger,
    a_0^dagger given as ``ad0`` (``creation_op(basis, 0)``).

    Verifies on the weight-0 view (``Su2Generators.weight0``) that each is
    a ladder operator of J^2 with the same right functions as tau[+/-1]
    (they differ from the reference ladders by the right factor 1/(2j+1),
    confirmed per node), and that the double commutator [j, [j, a_0^dagger]]
    returns a_0^dagger.  The left-ladder relations of the adjoints are read
    on the whole interior.
    """
    if generators.s != 1:
        raise ValueError("single-mode ladder forms are specific to spin 1")
    jh = generators.j_hat()
    ad0 = sector_blocks(ad0)
    bracket = commutator(jh, ad0)
    tbar_plus = bracket + ad0
    tbar_minus = -1.0 * bracket + ad0

    margin = LADDER_MARGIN
    w0 = generators.weight0()
    double = residual(w0.of(commutator(jh, bracket)), w0.of(ad0), margin)

    def plus(j):
        return 2.0 * (j + 1.0)

    def minus(j):
        return -2.0 * j
    rlo_plus = check_rlo(w0.J2, w0.of(tbar_plus), w0.function_of_j(plus),
                         margin)
    rlo_minus = check_rlo(w0.J2, w0.of(tbar_minus), w0.function_of_j(minus),
                          margin)
    # Conjugate (left-ladder) relations for the lowering partners.
    j2 = generators.j2_blocks()
    llo_plus = check_llo(j2, tbar_plus.adjoint(),
                         generators.function_of_j(plus), margin)
    llo_minus = check_llo(j2, tbar_minus.adjoint(),
                          generators.function_of_j(minus), margin)

    tau_plus, tau_minus = s1_reference_taus(generators, families)
    ratios: list[tuple[int, int, float, float]] = []
    for n in range(0, basis.n_max):
        for kv in jz_kernel(basis, generators, n):
            for tbar, tau in ((tbar_plus, tau_plus), (tbar_minus, tau_minus)):
                ref = tau.apply(kv.vector)
                img = tbar.apply(kv.vector)
                ref_norm = np.linalg.norm(ref)
                if ref_norm < 1e-10:
                    continue
                measured = float(np.vdot(ref, img).real) / ref_norm ** 2
                ratios.append((n, kv.j, measured, 1.0 / (2.0 * kv.j + 1.0)))
    return TauBarReport(double_commutator=double, rlo_plus=rlo_plus,
                        rlo_minus=rlo_minus, llo_plus=llo_plus,
                        llo_minus=llo_minus, node_ratios=ratios)


# -- spin-1 inverse and label-commutator expressions --------------------------------


def s1_inverse_expressions(generators: Su2Generators, families: LadderFamily
                           ) -> dict[str, ResidualReport]:
    """Recover the family operators from the ladder pair, on the weight-0
    view (``Su2Generators.weight0``).

    p_0 = (tau[+1] + tau[-1]) / (2j+1) and
    p_1 = ((tau[+1] - tau[-1]) - (tau[+1] + tau[-1])/(2j+1)) / 4,
    plus the label-commutator forms
    [j, p_0] = (p_0 + 4 p_1)/(2j+1) and [j, p_1] = (p_0 J^2 - p_1)/(2j+1).
    """
    if generators.s != 1:
        raise ValueError("inverse expressions are specific to spin 1")
    w0 = generators.weight0()
    tau_plus, tau_minus = map(w0.of, s1_reference_taus(generators, families))
    p0, p1 = families.p_weight0[:2]
    inv = w0.function_of_j(lambda j: 1.0 / (2.0 * j + 1.0))
    jh = w0.j
    p0_expr = (tau_plus + tau_minus) @ inv
    p1_expr = 0.25 * ((tau_plus - tau_minus) - (tau_plus + tau_minus) @ inv)
    comm_p0 = commutator(jh, p0)
    comm_p1 = commutator(jh, p1)
    rhs_p0 = (p0 + 4.0 * p1) @ inv
    rhs_p1 = (p0 @ w0.J2 - p1) @ inv
    margin = LADDER_MARGIN
    return {
        "p0_from_taus": residual(p0_expr, p0, margin),
        "p1_from_taus": residual(p1_expr, p1, margin),
        "label_comm_p0": residual(comm_p0, rhs_p0, margin),
        "label_comm_p1": residual(comm_p1, rhs_p1, margin),
    }


def s1_tau_bracket_ladder(generators: Su2Generators, families: LadderFamily
                          ) -> dict[str, ResidualReport]:
    """Commutator of the ladder pair as a ladder of the label operator.

    The bracket of the raising ladder with the lowering partner of tau[-1]
    shifts j by two: [j, [tau[+1], tau[-1]-lowering]] = 2 [tau[+1], ...].
    The bracket of the two raising ladders instead commutes with j (their
    shifts +1 and -1 cancel, as the Jacobi identity forces); that variant is
    evaluated and recorded as well.

    Both are read on the weight-0 view (``Su2Generators.weight0``) at
    margin PAIR_MARGIN, so the mixed-pair relation has
    content only when n_max >= 4: it sends a node (n, j) to (n, j + 2),
    which exists only for n >= 2.  Below that both sides vanish on the
    restriction up to rounding, and their ratio means nothing.
    """
    w0 = generators.weight0()
    tau_plus, tau_minus = map(w0.of, s1_reference_taus(generators, families))
    jh = w0.j
    mixed = commutator(tau_plus, tau_minus.adjoint())
    both_raising = commutator(tau_plus, tau_minus)
    return {
        "mixed_pair_shift2": residual(commutator(jh, mixed), 2.0 * mixed,
                                      PAIR_MARGIN),
        "raising_pair_commutes": commutator_residual(jh, both_raising,
                                                     PAIR_MARGIN),
    }
