from itertools import product

import pytest

from su2ladders import bruteforce
from su2ladders.fock import enumerate_sector


def product_and_filter(spin, n_max, n=None, weight=None):
    """Reference: every tuple of the (n_max+1)^(2s+1) box, filtered."""
    out = []
    for occ in product(range(n_max + 1), repeat=2 * spin + 1):
        if sum(occ) > n_max or (n is not None and sum(occ) != n):
            continue
        if weight is not None and sum(
                mu * occ[mu + spin] for mu in range(-spin, spin + 1)) != weight:
            continue
        out.append(occ)
    return out


@pytest.mark.parametrize("spin", [0, 1, 2, 3])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_enumerate_states_matches_product_and_filter(spin, n_max):
    for n in [None, *range(n_max + 2)]:
        for weight in (None, 0, 1, -2):
            assert bruteforce.enumerate_states(spin, n_max, n=n, weight=weight) \
                == product_and_filter(spin, n_max, n=n, weight=weight)


def test_enumerate_states_at_spin_6():
    # The product box here holds 5^13 ~ 1.2e9 tuples; the walk forms only
    # the 1820 four-particle compositions.
    states = bruteforce.enumerate_states(6, 4, n=4, weight=0)
    assert len(states) == 86
    assert states == list(enumerate_sector(6, 4, n=4, weight=0).states)
