from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroups.linalg import (Lattice, group_rank, in_cone, in_rational_cone,
                               rational_solve)


def test_lattice_membership_basics():
    lat = Lattice([(2, 0), (0, 3)])
    assert (2, 3) in lat
    assert (4, -3) in lat
    assert (1, 0) not in lat
    assert (0, 0) in lat


def test_lattice_rank():
    assert Lattice([(1, 2), (2, 4)]).rank == 1
    assert Lattice([(1, 0), (0, 1)]).rank == 2
    assert Lattice([]).rank == 0


def test_multiple_in_lattice():
    lat = Lattice([(6,)])
    assert lat.multiple_in_lattice((4,)) == 3  # 12 is the first multiple
    lat2 = Lattice([(2, 0), (0, 2)])
    assert lat2.multiple_in_lattice((1, 1)) == 2
    assert lat2.multiple_in_lattice((1, 0)) == 2
    lat3 = Lattice([(1, 0)])
    assert lat3.multiple_in_lattice((0, 1)) is None


def test_group_rank_and_membership():
    assert group_rank([(2, 4), (1, 2), (3, 6)]) == 1


def test_rational_solve():
    sol = rational_solve((5, 5), [(1, 0), (0, 1)])
    assert sol == (Fraction(5), Fraction(5))
    assert rational_solve((1, 2), [(1, 1)]) is None


def test_cone_membership():
    rays = [(1, 0), (1, 2)]
    assert in_rational_cone((2, 2), rays)
    assert not in_rational_cone((0, 1), rays)
    assert in_cone((3, 2), [(1, 0), (1, 2)])


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                min_size=1, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_lattice_closed_under_combinations(vecs, coeffs):
    lat = Lattice(vecs)
    combo = [0, 0]
    for v, c in zip(vecs, coeffs):
        combo[0] += c * v[0]
        combo[1] += c * v[1]
    assert tuple(combo) in lat


def _solve_case(n):
    """A basis of up to n + 1 vectors of dimension n, zero vectors
    included, and a target vector of the same dimension."""
    vector = st.one_of(st.just((0,) * n),
                       st.tuples(*[st.integers(-9, 9)] * n))
    return st.tuples(st.lists(vector, max_size=n + 1), vector)


@given(st.integers(1, 4).flatmap(_solve_case))
@settings(max_examples=300, deadline=None)
def test_rational_solve_matches_the_rank_oracle(case):
    basis, vec = case
    if group_rank(basis) < len(basis):
        with pytest.raises(ValueError):
            rational_solve(vec, iter(basis))
        return
    sol = rational_solve(vec, iter(basis))
    assert (sol is None) == (group_rank(basis + [vec]) > group_rank(basis))
    if sol is not None:
        assert len(sol) == len(basis)
        assert all(type(q) is Fraction for q in sol)
        assert tuple(sum(q * b[c] for q, b in zip(sol, basis))
                     for c in range(len(vec))) == vec
