"""Enumeration and indexing of truncated multi-mode bosonic Fock bases.

A basis is parametrized by an integer spin ``s``: there is one bosonic mode
per weight mu in {-s, ..., s} (stored left to right), and a Fock state is the
tuple of occupation numbers (n_{-s}, ..., n_s).  Truncation is by total
particle number only; states are kept in ascending lexicographic order, which
is deterministic and stable across runs.  A basis is built and indexed as
integer arrays; the occupation tuples are formed only when read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

Occupation = tuple[int, ...]


def mode_weights(spin: int) -> range:
    """Mode weights mu = -s, ..., s in storage order."""
    return range(-spin, spin + 1)


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


def _occupation_rows(modes: int, cap: int, exact: bool) -> np.ndarray:
    """Every state of ``modes`` modes with total <= cap (== cap when
    ``exact``), one row each, in ascending lexicographic order (leftmost mode
    most significant).  ``tails[c]`` holds the states of the last k modes
    with total <= c (== c); each value a of the next mode prefixed to
    ``tails[c - a]``, a = 0..c, gives those of the last k + 1 modes."""
    tails = [np.full((1, 1), c) if exact else np.arange(c + 1)[:, None]
             for c in range(cap + 1)]

    def prefixed(c: int) -> np.ndarray:
        parts = tails[c::-1]
        heads = np.repeat(np.arange(c + 1), [len(p) for p in parts])
        return np.hstack((heads[:, None], np.concatenate(parts)))

    for _ in range(modes - 2):
        tails = [prefixed(c) for c in range(cap + 1)]
    return tails[cap] if modes == 1 else prefixed(cap)


@functools.lru_cache(maxsize=None)
def _binomials(top: int, modes: int) -> np.ndarray:
    """Read-only table of C(a, b) at [b, a] for 0 <= a <= top and
    0 <= b <= modes (zero for b > a), built once per (top, modes); each b
    is one contiguous row."""
    binom = np.zeros((modes + 1, top + 1), dtype=np.int64)
    for a in range(top + 1):
        for b in range(min(a, modes) + 1):
            binom[b, a] = math.comb(a, b)
    binom.flags.writeable = False
    return binom


def _lex_ranks(occupations: np.ndarray, n_max: int) -> np.ndarray:
    """Position of each occupation row among all states of its mode count
    with total <= n_max, in ascending lexicographic order.

    Before mode i, with k modes after it and cap particles left, the states
    whose entry i is smaller number sum_{c < o_i} C(cap - c + k, k)
    = C(cap + k + 1, k + 1) - C(cap - o_i + k + 1, k + 1).
    """
    count, modes = occupations.shape
    binom = _binomials(n_max + modes + 1, modes)
    ranks = np.zeros(count, dtype=np.int64)
    cap = np.full(count, n_max, dtype=np.int64)
    for i in range(modes):
        k = modes - 1 - i
        ranks += binom[k + 1][cap + k + 1]
        cap -= occupations[:, i]
        ranks -= binom[k + 1][cap + k + 1]
    return ranks


@dataclass(frozen=True)
class SectorTable:
    """A basis's states grouped by (n, weight) sector
    (``SectorBasis.sector_table``): ``keys`` lists the sectors holding a
    state in ascending (n, weight), ``members[k]`` sector k's state indices
    in ascending order and ``sizes[k]`` their number; ``sector`` and
    ``local`` give, per state, its sector's position and its index within
    it.  The arrays are read-only."""
    keys: tuple[tuple[int, int], ...]
    members: tuple[np.ndarray, ...]
    sizes: np.ndarray
    sector: np.ndarray
    local: np.ndarray


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

    States are stored in ascending lexicographic order as the rows of
    ``occupations``, built with array operations at construction and
    indexed by their lexicographic ranks in the whole space (``_ranks``):
    a state's position is found by one rank lookup (``positions``), the one
    that ``state_index`` and every raise table read.  The ``states`` tuples
    are built on first read only; the sector table, the interior masks and
    the raise tables (``raised``) on first use, cached as read-only arrays.
    Two threads that miss the cache at once build equal arrays, so
    instances stay safe for concurrent reads.
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

        occupations = _occupation_rows(
            self.modes, self.n_max if n is None else n, exact=n is not None)
        if weight is not None:
            occupations = occupations[
                occupations @ np.array(mode_weights(self.spin)) == weight]
        self._set_occupations(occupations)

    def _set_occupations(self, occupations: np.ndarray) -> None:
        #: Occupation numbers, one row per state, modes in storage order.
        self.occupations = occupations
        self.totals = occupations.sum(axis=1)
        self.weights = occupations @ np.array(mode_weights(self.spin))
        self._ranks = _lex_ranks(occupations, self.n_max)
        self._sector_table: Optional[SectorTable] = None
        self._interior_masks: dict[int, np.ndarray] = {}
        self._raised: dict[int, np.ndarray] = {}

    @functools.cached_property
    def states(self) -> tuple[Occupation, ...]:
        """The states as occupation tuples, built on first read."""
        return tuple(map(tuple, self.occupations.tolist()))

    def restricted_to_weight(self, weight: int) -> "SectorBasis":
        """The basis ``SectorBasis(spin, n_max, n, weight)``: this basis's
        states of J_z weight ``weight``, read off instead of enumerated again."""
        if self.weight_constraint not in (None, weight):
            raise ValueError(f"basis already has weight {self.weight_constraint}")
        out = object.__new__(SectorBasis)
        out.spin, out.n_max, out.modes = self.spin, self.n_max, self.modes
        out.n_constraint, out.weight_constraint = self.n_constraint, weight
        out._set_occupations(self.occupations[self.weights == weight])
        return out

    def __len__(self) -> int:
        return len(self.occupations)

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

        A wrong-length state is an error; absence is a normal return.  A
        state with a negative entry or a total above n_max is absent; any
        other is looked up by its rank (``positions``).
        """
        row = np.array([int(x) for x in state], dtype=np.int64)
        if len(row) != self.modes:
            raise ValueError(
                f"state has {len(row)} modes, basis has {self.modes}")
        if row.min() < 0 or row.sum() > self.n_max:
            return None
        i = int(self.positions(row[None])[0])
        return None if i < 0 else i

    def positions(self, occupations: np.ndarray) -> np.ndarray:
        """The position of each occupation row in the basis, or -1 where it
        is absent; the rows must be valid (none below zero, total <= n_max)."""
        ranks = _lex_ranks(occupations, self.n_max)
        pos = np.searchsorted(self._ranks, ranks)
        found = pos < len(self._ranks)
        found[found] = self._ranks[pos[found]] == ranks[found]
        return np.where(found, pos, -1)

    def mode_position(self, mu: int) -> int:
        """Storage column of mode weight ``mu``."""
        if not -self.spin <= mu <= self.spin:
            raise ValueError(f"mode weight {mu} outside [-{self.spin}, {self.spin}]")
        return mu + self.spin

    def sector_table(self) -> SectorTable:
        """The states grouped by (n, weight) sector (``SectorTable``), built
        once; a stable sort by sector keeps ascending index order within
        each."""
        if self._sector_table is None:
            keys, sector = np.unique(np.stack((self.totals, self.weights), 1),
                                     axis=0, return_inverse=True)
            sector = sector.ravel()
            order = np.argsort(sector, kind="stable")
            sizes = np.bincount(sector, minlength=len(keys))
            starts = np.cumsum(sizes) - sizes
            local = np.empty_like(sector)
            local[order] = np.arange(len(order)) - np.repeat(starts, sizes)
            members = tuple(np.split(order, starts[1:])) if len(order) else ()
            for a in (sizes, sector, local) + members:
                a.flags.writeable = False
            self._sector_table = SectorTable(
                tuple(map(tuple, keys.tolist())), members, sizes, sector, local)
        return self._sector_table

    def interior_masks(self, margin: int) -> np.ndarray:
        """Read-only boolean mask over the basis of the states with total
        occupation <= n_max - margin: the rows and the columns an interior
        residual at this margin reads.

        Built once per margin; an empty mask is returned but not kept.
        """
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        mask = self._interior_masks.get(margin)
        if mask is None:
            mask = self.totals <= self.n_max - margin
            mask.flags.writeable = False
            if mask.any():
                self._interior_masks[margin] = mask
        return mask

    def raised(self, pos: int) -> np.ndarray:
        """Where a_pos^dagger sends each basis state, for mode storage
        position ``pos``: a read-only int32 array whose entry c is the index
        of state c with one more boson in mode pos, or -1 where that state
        is not in the basis (always at n_max, and everywhere on an n or
        weight sector).  Built once per mode, with one rank lookup of the
        states below n_max (``positions``: raising them keeps every row
        valid, so no mask is needed)."""
        table = self._raised.get(pos)
        if table is None:
            below = np.flatnonzero(self.totals < self.n_max)
            moved = self.occupations[below]
            moved[:, pos] += 1
            table = np.full(len(self), -1, dtype=np.int32)
            table[below] = self.positions(moved)
            table.flags.writeable = False
            self._raised[pos] = table
        return table

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
