"""Independent brute-force oracles.

Everything here recomputes quantities from first principles with plain
Python dictionaries and dense numpy, on purpose sharing no code with the
sparse operator stack: these are the reference values the certified pipeline
is compared against.  Keep it that way.
"""

from __future__ import annotations

import math

import numpy as np


def enumerate_states(spin: int, n_max: int, n=None, weight=None):
    """All occupation tuples with at most n_max particles (exactly n, and of
    J_z weight ``weight``, when given), in lexicographic order.

    The occupations are chosen mode by mode, mu = -spin..spin, from the
    particles left over, so only tuples of the requested particle number
    are ever formed.
    """
    modes = 2 * spin + 1
    budget = n_max if n is None else n
    if not 0 <= budget <= n_max:
        return []
    out = []
    occ = [0] * modes

    def walk(pos: int, left: int, w: int) -> None:
        if pos == modes - 1:
            # The last mode (mu = spin) takes what is left, or any part of
            # it when the particle number is free.
            for k in (range(left + 1) if n is None else (left,)):
                if weight is None or w + spin * k == weight:
                    occ[pos] = k
                    out.append(tuple(occ))
            return
        for k in range(left + 1):
            occ[pos] = k
            walk(pos + 1, left - k, w + (pos - spin) * k)

    walk(0, budget, 0)
    return out


def apply_creation(vec: dict, pos: int) -> dict:
    """a^dagger on a {state: amplitude} dictionary (untruncated)."""
    out: dict = {}
    for state, amp in vec.items():
        new = state[:pos] + (state[pos] + 1,) + state[pos + 1:]
        out[new] = out.get(new, 0.0) + amp * math.sqrt(state[pos] + 1)
    return out


def apply_annihilation(vec: dict, pos: int) -> dict:
    out: dict = {}
    for state, amp in vec.items():
        if state[pos] == 0:
            continue
        new = state[:pos] + (state[pos] - 1,) + state[pos + 1:]
        out[new] = out.get(new, 0.0) + amp * math.sqrt(state[pos])
    return out


def apply_j_plus(vec: dict, spin: int) -> dict:
    out: dict = {}
    for mu in range(-spin, spin):
        coeff = math.sqrt((spin + mu + 1) * (spin - mu))
        step = apply_creation(apply_annihilation(vec, mu + spin), mu + spin + 1)
        for state, amp in step.items():
            out[state] = out.get(state, 0.0) + coeff * amp
    return out


def apply_j_minus(vec: dict, spin: int) -> dict:
    out: dict = {}
    for mu in range(-spin, spin):
        coeff = math.sqrt((spin + mu + 1) * (spin - mu))
        step = apply_creation(apply_annihilation(vec, mu + spin + 1), mu + spin)
        for state, amp in step.items():
            out[state] = out.get(state, 0.0) + coeff * amp
    return out


def apply_casimir(vec: dict, spin: int) -> dict:
    """J^2 = J_z^2 + (J_+ J_- + J_- J_+)/2 by direct rule application."""
    out: dict = {}
    for state, amp in vec.items():
        w = sum(mu * state[mu + spin] for mu in range(-spin, spin + 1))
        out[state] = out.get(state, 0.0) + amp * w * w
    for term in (apply_j_plus(apply_j_minus(vec, spin), spin),
                 apply_j_minus(apply_j_plus(vec, spin), spin)):
        for state, amp in term.items():
            out[state] = out.get(state, 0.0) + 0.5 * amp
    return {s: a for s, a in out.items() if a != 0.0}


def casimir_matrix(states: list, spin: int) -> np.ndarray:
    """Dense J^2 matrix on an explicit state list."""
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    mat = np.zeros((dim, dim))
    for col, state in enumerate(states):
        image = apply_casimir({state: 1.0}, spin)
        for target, amp in image.items():
            row = index.get(target)
            if row is None:
                raise ValueError(f"J^2 leaves the state list at {target}")
            mat[row, col] = amp
    return mat


def j_multiplicities(spin: int, n: int) -> dict[int, int]:
    """Multiset of j labels in the n-particle zero-weight sector.

    Obtained by dense diagonalization of the brute-force J^2 matrix and
    snapping each eigenvalue j(j+1) to its integer label.
    """
    states = enumerate_states(spin, n, n=n, weight=0)
    if not states:
        return {}
    vals = np.linalg.eigvalsh(casimir_matrix(states, spin))
    out: dict[int, int] = {}
    for lam in vals:
        j = 0.5 * (math.sqrt(max(1.0 + 4.0 * lam, 0.0)) - 1.0)
        label = round(j)
        if abs(j - label) > 1e-6:
            raise ValueError(f"non-integer label j={j} at spin={spin}, n={n}")
        out[label] = out.get(label, 0) + 1
    return out
