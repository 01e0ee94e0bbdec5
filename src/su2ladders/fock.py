"""Enumeration and indexing of truncated multi-mode bosonic Fock bases.

A basis is parametrized by an integer spin ``s``: there is one bosonic mode
per weight mu in {-s, ..., s} (stored left to right), and a Fock state is the
tuple of occupation numbers (n_{-s}, ..., n_s).  Truncation is by total
particle number only; states are kept in ascending lexicographic order, which
is deterministic and stable across runs.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

Occupation = tuple[int, ...]


def mode_weights(spin: int) -> range:
    """Mode weights mu = -s, ..., s in storage order."""
    return range(-spin, spin + 1)


def total_occupation(state: Occupation) -> int:
    """Total particle number of an occupation tuple."""
    return sum(state)


def weight_of(state: Occupation, spin: int) -> int:
    """J_z weight, sum_mu mu * n_mu, of an occupation tuple."""
    return sum(mu * n for mu, n in zip(mode_weights(spin), state))


def dimension(spin: int, n_max: int) -> int:
    """Number of Fock states with at most ``n_max`` particles in 2s+1 modes.

    Stars and bars: C(n_max + 2s + 1, 2s + 1).
    """
    _check_spin(spin)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    m = 2 * spin + 1
    return math.comb(n_max + m, m)


def _check_spin(spin: int) -> None:
    if not isinstance(spin, (int, np.integer)) or spin < 0:
        raise ValueError(f"spin must be a non-negative integer, got {spin!r}")


def _states_total_at_most(modes: int, cap: int) -> Iterator[Occupation]:
    # Ascending lexicographic order, leftmost mode most significant.
    if modes == 1:
        for c in range(cap + 1):
            yield (c,)
        return
    for c in range(cap + 1):
        for rest in _states_total_at_most(modes - 1, cap - c):
            yield (c,) + rest


class SectorBasis:
    """Ordered, indexed set of Fock states satisfying optional constraints.

    Parameters
    ----------
    spin : int
        Non-negative integer spin; the basis has 2*spin + 1 modes.
    n_max : int
        Global truncation: only states with total occupation <= n_max.
    n : int, optional
        If given, keep only states with total occupation exactly ``n``.
    weight : int, optional
        If given, keep only states with J_z weight equal to ``weight``.

    States are stored in ascending lexicographic order and indexed by an
    exact inverse map.  Instances are immutable after construction and safe
    for concurrent reads.
    """

    def __init__(self, spin: int, n_max: int, n: Optional[int] = None,
                 weight: Optional[int] = None):
        _check_spin(spin)
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        if n is not None and not 0 <= n <= n_max:
            raise ValueError(f"n must satisfy 0 <= n <= n_max, got n={n}")

        self.spin = int(spin)
        self.n_max = int(n_max)
        self.n_constraint = n
        self.weight_constraint = weight
        self.modes = 2 * self.spin + 1

        states = []
        for occ in _states_total_at_most(self.modes, self.n_max):
            if n is not None and sum(occ) != n:
                continue
            if weight is not None and weight_of(occ, self.spin) != weight:
                continue
            states.append(occ)
        self.states: tuple[Occupation, ...] = tuple(states)
        self.index: dict[Occupation, int] = {s: i for i, s in enumerate(self.states)}
        self.totals = np.array([sum(s) for s in self.states], dtype=np.int64)
        self.weights = np.array([weight_of(s, self.spin) for s in self.states],
                                dtype=np.int64)

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SectorBasis):
            return NotImplemented
        return (self.spin == other.spin and self.n_max == other.n_max
                and self.n_constraint == other.n_constraint
                and self.weight_constraint == other.weight_constraint)

    def __hash__(self):
        return hash((self.spin, self.n_max, self.n_constraint,
                     self.weight_constraint))

    def __repr__(self) -> str:
        parts = [f"spin={self.spin}", f"n_max={self.n_max}"]
        if self.n_constraint is not None:
            parts.append(f"n={self.n_constraint}")
        if self.weight_constraint is not None:
            parts.append(f"weight={self.weight_constraint}")
        return f"SectorBasis({', '.join(parts)}, dim={len(self)})"

    def state_index(self, state: Occupation) -> Optional[int]:
        """Position of ``state`` in the basis, or None if absent.

        A wrong-length state is an error; absence is a normal return.
        """
        state = tuple(int(x) for x in state)
        if len(state) != self.modes:
            raise ValueError(
                f"state has {len(state)} modes, basis has {self.modes}")
        return self.index.get(state)

    def mode_position(self, mu: int) -> int:
        """Storage column of mode weight ``mu``."""
        if not -self.spin <= mu <= self.spin:
            raise ValueError(f"mode weight {mu} outside [-{self.spin}, {self.spin}]")
        return mu + self.spin

    def interior_indices(self, margin: int) -> np.ndarray:
        """Indices of states with total occupation <= n_max - margin."""
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        return np.flatnonzero(self.totals <= self.n_max - margin)

    def vacuum_index(self) -> Optional[int]:
        return self.state_index((0,) * self.modes)

    def unit_vector(self, state: Occupation) -> np.ndarray:
        """Basis vector for an occupation tuple."""
        i = self.state_index(state)
        if i is None:
            raise ValueError(f"state {state} not in basis")
        v = np.zeros(len(self))
        v[i] = 1.0
        return v

    def to_json_list(self) -> list[list[int]]:
        """Basis dump as a list of integer vectors, in internal order."""
        return [list(s) for s in self.states]


def enumerate_sector(spin: int, n_max: int, n: Optional[int] = None,
                     weight: Optional[int] = None) -> SectorBasis:
    """Enumerate all occupation vectors subject to the given constraints.

    Returns every state with total occupation <= n_max (or exactly ``n`` if
    given) and J_z weight equal to ``weight`` if given, in deterministic
    ascending lexicographic order.
    """
    return SectorBasis(spin, n_max, n=n, weight=weight)
