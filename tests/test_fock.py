from itertools import product

import pytest

from su2ladders import (build_families, build_taus, lattice_report,
                        su2_generators)
from su2ladders.fock import SectorBasis, dimension, enumerate_sector


def jz_weight(state, spin):
    """J_z weight sum_mu mu * n_mu, modes stored as mu = -s..s."""
    return sum(mu * n for mu, n in zip(range(-spin, spin + 1), state))


def brute_states(spin, n_max, n=None, weight=None):
    """Independent oracle: exhaustive product enumeration plus filtering."""
    modes = 2 * spin + 1
    out = []
    for occ in product(range(n_max + 1), repeat=modes):
        if sum(occ) > n_max:
            continue
        if n is not None and sum(occ) != n:
            continue
        if weight is not None and jz_weight(occ, spin) != weight:
            continue
        out.append(occ)
    return sorted(out)


def test_sector_s1_n2_weight0():
    basis = enumerate_sector(1, 2, n=2, weight=0)
    assert set(basis.states) == {(1, 0, 1), (0, 2, 0)}
    assert len(basis) == 2


def test_sector_s1_vacuum_only():
    basis = enumerate_sector(1, 3, n=0)
    assert basis.states == ((0, 0, 0),)


def test_sector_s2_n2_weight0_bruteforce():
    basis = enumerate_sector(2, 2, n=2, weight=0)
    expected = brute_states(2, 2, n=2, weight=0)
    assert list(basis.states) == expected
    assert set(basis.states) == {(1, 0, 0, 0, 1), (0, 1, 0, 1, 0),
                                 (0, 0, 2, 0, 0)}


@pytest.mark.parametrize("spin,n_max,expected", [
    (1, 3, 20),   # stars and bars C(6, 3)
    (0, 5, 6),    # single mode, occupations 0..5
    (2, 0, 1),    # vacuum only
])
def test_dimension_values(spin, n_max, expected):
    assert dimension(spin, n_max) == expected


@pytest.mark.parametrize("spin", [0, 1, 2, 3])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5, 6])
def test_counting_matches_enumeration(spin, n_max):
    basis = enumerate_sector(spin, n_max)
    assert len(basis) == dimension(spin, n_max)


def test_enumeration_matches_bruteforce_order():
    for spin, n_max in [(1, 4), (2, 3)]:
        basis = enumerate_sector(spin, n_max)
        assert list(basis.states) == brute_states(spin, n_max)


def test_lexicographic_and_stable():
    basis = enumerate_sector(2, 3)
    assert list(basis.states) == sorted(basis.states)
    again = enumerate_sector(2, 3)
    assert basis.states == again.states


def test_index_roundtrip():
    basis = enumerate_sector(1, 2)
    for i, state in enumerate(basis.states):
        assert basis.state_index(state) == i
    i = basis.state_index((0, 2, 0))
    assert basis.states[i] == (0, 2, 0)


def test_absent_state_is_none_not_error():
    basis = enumerate_sector(1, 2)
    assert basis.state_index((3, 0, 0)) is None


def test_wrong_length_state_raises():
    basis = enumerate_sector(1, 2)
    with pytest.raises(ValueError):
        basis.state_index((1, 0))


def test_vacuum_present():
    for spin in (1, 2):
        basis = enumerate_sector(spin, 3)
        assert basis.states[basis.state_index((0,) * basis.modes)] == \
            (0,) * basis.modes


def test_partition_by_total():
    basis = enumerate_sector(1, 4)
    parts = [enumerate_sector(1, 4, n=n).states for n in range(5)]
    merged = sorted(s for p in parts for s in p)
    assert merged == sorted(basis.states)
    assert sum(len(p) for p in parts) == len(basis)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        enumerate_sector(-1, 2)
    with pytest.raises(ValueError):
        enumerate_sector(1, -1)
    with pytest.raises(ValueError):
        enumerate_sector(1, 2, n=3)
    with pytest.raises(ValueError):
        dimension(1, -2)


def test_totals_and_weights():
    basis = enumerate_sector(1, 3)
    for i, state in enumerate(basis.states):
        assert basis.totals[i] == sum(state)
        assert basis.weights[i] == jz_weight(state, 1)
    assert basis.weights[basis.state_index((1, 0, 1))] == 0
    assert basis.weights[basis.state_index((0, 0, 2))] == 2


def test_json_dump_order_is_internal_order():
    basis = enumerate_sector(1, 2)
    dump = basis.to_json_list()
    assert dump == [list(s) for s in basis.states]


def _assert_absent(basis, whole):
    """``state_index`` finds none of a few states of ``whole`` outside
    ``basis`` (the first and last two), nor a state with a negative entry or
    a total above n_max."""
    others = sorted(set(whole.states) - set(basis.states))
    assert all(basis.state_index(s) is None for s in others[:2] + others[-2:])
    m, top = basis.modes, basis.n_max
    for state in [(-1,) + (0,) * (m - 1), (0,) * (m - 1) + (-1,),
                  (top + 1,) + (0,) * (m - 1), (-1,) + (top + 1,) * (m - 1)]:
        assert basis.state_index(state) is None


@pytest.mark.parametrize("spin,n_max,n", [(1, 3, None), (2, 4, None),
                                          (3, 3, 2), (0, 2, None)])
@pytest.mark.parametrize("weight", [0, 1, -2])
def test_restricted_to_weight_equals_the_enumerated_basis(spin, n_max, n,
                                                          weight):
    whole = enumerate_sector(spin, n_max, n=n)
    got = whole.restricted_to_weight(weight)
    want = enumerate_sector(spin, n_max, n=n, weight=weight)
    assert got == want and repr(got) == repr(want)
    assert got.states == want.states
    _assert_absent(got, whole)
    for name in ("occupations", "totals", "weights", "_ranks"):
        assert (getattr(got, name) == getattr(want, name)).all()
    assert [got.state_index(s) for s in want.states] == list(range(len(want)))
    assert got.restricted_to_weight(weight).states == want.states
    with pytest.raises(ValueError):
        got.restricted_to_weight(weight + 1)


@pytest.mark.parametrize("spin", range(0, 5))
@pytest.mark.parametrize("n_max", range(0, 6))
def test_n_sector_walk_equals_filtered_walk(spin, n_max):
    # SectorBasis(..., n=k) walks only the compositions of k; the reference
    # filters the whole total <= n_max walk.  Same states, same order.
    whole = SectorBasis(spin, n_max).states
    for n in range(n_max + 1):
        for weight in [None] + list(range(-n * spin, n * spin + 1)):
            want = [s for s in whole if sum(s) == n and (
                weight is None or jz_weight(s, spin) == weight)]
            assert list(SectorBasis(spin, n_max, n=n,
                                    weight=weight).states) == want


@pytest.mark.parametrize("spin", range(0, 4))
@pytest.mark.parametrize("n_max", range(0, 5))
def test_array_built_basis_equals_the_product_oracle(spin, n_max):
    # The occupations are built with array operations; states and
    # state_index are derived from them, the states on first read.
    whole = SectorBasis(spin, n_max)
    for n in [None] + list(range(n_max + 1)):
        for w in [None] + list(range(-n_max * spin, n_max * spin + 1)):
            want = brute_states(spin, n_max, n=n, weight=w)
            bases = [SectorBasis(spin, n_max, n=n, weight=w)]
            if w is not None:
                bases.append((whole if n is None else SectorBasis(
                    spin, n_max, n=n)).restricted_to_weight(w))
            for basis in bases:
                assert "states" not in vars(basis) and len(basis) == len(want)
                assert basis.occupations.tolist() == [list(s) for s in want]
                assert list(basis.states) == want
                assert [basis.state_index(s) for s in want] == list(
                    range(len(want)))
                _assert_absent(basis, whole)
                assert basis.totals.tolist() == [sum(s) for s in want]
                assert basis.weights.tolist() == [jz_weight(s, spin)
                                                  for s in want]


def test_build_path_never_materialises_the_state_tuples(monkeypatch):
    # The build reads the occupation arrays only: a read of ``states`` (or of
    # ``index``, built from it) anywhere on the path fails the build.
    def refuse(basis):
        raise AssertionError(f"states of {basis!r} materialised")
    monkeypatch.setattr(SectorBasis, "states", property(refuse))
    basis = enumerate_sector(2, 5)
    gens = su2_generators(basis)
    taus = build_taus(build_families(basis, gens), gens, certify=True)
    report = lattice_report(basis, gens, taus, n_limit=4)
    assert sorted(taus) == list(range(-2, 3)) and report.arrows
