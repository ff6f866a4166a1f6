from functools import lru_cache

from semigroups import constants
from semigroups import (alpha, c_atoms, c_bar, c_star, c_value,
                        make_semigroup, parse_gens)
from semigroups.constants import default_arrangement


def test_c_values_numerical():
    S = make_semigroup([3, 4, 5])
    # c_i: least multiple of n_i inside the monoid of the other generators
    assert [c_value(S, i) for i in range(3)] == [3, 2, 2]
    T = make_semigroup([24, 26, 36, 39])
    assert [c_value(T, i) for i in range(4)] == [3, 3, 2, 2]


def test_c_atoms_numerical_all_atoms():
    S = make_semigroup([3, 4, 5])
    assert c_atoms(S) == ((0, 3), (1, 2), (2, 2))


def test_c_atoms_affine():
    S = make_semigroup([(1, 0), (0, 2), (0, 3)])
    # (1,0) has no multiple in <(0,2),(0,3)>: it is not in C(M)
    assert c_value(S, 0) is None
    assert c_atoms(S) == ((1, 3), (2, 2))


def test_c_star_and_c_bar():
    S = make_semigroup([24, 26, 36, 39])
    arr = (0, 2, 1, 3)  # the arrangement 24, 36, 26, 39
    stars = [c_star(S, arr, p) for p in range(1, 4)]
    bars = [c_bar(S, arr, p) for p in range(1, 4)]
    assert stars == bars  # free along this arrangement
    S2 = make_semigroup([3, 4, 5])
    arr2 = (0, 1, 2)
    assert c_star(S2, arr2, 2) == 2
    assert c_bar(S2, arr2, 2) == 1  # 5 = 3 + 4 - 2 in the group <3,4> = Z


def test_c_star_order_independent_of_prefix():
    S = make_semigroup([16, 20, 30, 45])
    assert c_star(S, (0, 1, 2), 2) == c_star(S, (1, 0, 2), 2)


def test_alpha_values():
    S = make_semigroup([16, 20, 30, 45])
    # Ap(S;20) box exponents for the alpha-rectangularity of 20
    alphas = [alpha(S, i, 1) for i in (0, 2, 3)]
    assert all(a >= 1 for a in alphas)
    # alpha-box cardinality equals the Apery set size exactly when
    # alpha-rectangular for that generator
    from math import prod
    assert prod(a + 1 for a in alphas) == len(S.apery(20))


def test_alpha_affine_rays_base():
    S = make_semigroup([(1, 0), (0, 2), (0, 3)])
    assert alpha(S, 2) == 1  # 2*(0,3) = 3*(0,2) leaves Ap(S; rays)


# the six affine members of the benchmark panel (bench/workloads.py)
AFFINE = ("(1,0);(0,2);(0,3)", "(3,0);(0,3);(1,2);(2,1)",
          "(4,0);(0,4);(1,3);(3,1)", "(6,0);(0,6);(1,5);(4,2)",
          "(2,0,0);(0,2,0);(0,0,2);(1,1,1)",
          "(3,0,0);(0,3,0);(0,0,3);(1,1,1);(1,2,0)")


def _monoid(gens):
    """Membership in the monoid of gens by a plain recursion: v is a member
    iff v is zero or v - g is a member for some generator g <= v."""
    @lru_cache(maxsize=None)
    def inside(v):
        return not any(v) or any(
            inside(tuple(a - b for a, b in zip(v, g)))
            for g in gens if all(a >= b for a, b in zip(v, g)))
    return inside


def _least_multiple(g, inside, limit=60):
    """The least c >= 1 with inside(c * g), counting up, or None."""
    return next((c for c in range(1, limit + 1)
                 if inside(tuple(c * x for x in g))), None)


def test_affine_constants_match_a_direct_search():
    for text in AFFINE:
        S = make_semigroup(parse_gens(text))
        e = len(S.gens)
        member = _monoid(S.gens)
        for i, g in enumerate(S.gens):
            others = _monoid(tuple(S.gens[j] for j in range(e) if j != i))
            assert c_value(S, i) == _least_multiple(g, others), (text, i)
        arr = default_arrangement(S)
        rays = S.ray_values()
        for pos in range(S.rank, e):
            g = S.gens[arr[pos]]
            prefix = _monoid(tuple(S.gens[j] for j in arr[:pos]))
            assert c_star(S, arr, pos) == _least_multiple(g, prefix)
            # alpha: the largest h with h * g in Ap(S; rays)
            in_apery = [member(w) and not any(
                all(a >= b for a, b in zip(w, r)) and
                member(tuple(a - b for a, b in zip(w, r))) for r in rays)
                for w in (tuple(h * x for x in g) for h in range(61))]
            assert alpha(S, arr[pos]) == in_apery.index(False) - 1, text


def test_affine_apery_and_c_star_run_one_search_per_position(monkeypatch):
    # Ap(S; rays) reads c_i^* from the memo that c_star fills, so asking
    # for c_star after the Apery set starts no second search
    S = make_semigroup([(3, 0), (0, 3), (1, 2), (2, 1)])
    real = constants._least_multiple
    calls = []
    monkeypatch.setattr(constants, "_least_multiple",
                        lambda *a: calls.append(a[1:3]) or real(*a))
    S.apery()
    arr = default_arrangement(S)
    stars = [c_star(S, arr, pos) for pos in range(S.rank, len(arr))]
    assert stars == [3, 2]  # 3 * (1,2) = (3,6); 2 * (2,1) = (3,0) + (1,2)
    assert sorted(calls) == sorted((tuple(sorted(arr[:pos])), arr[pos])
                                   for pos in range(S.rank, len(arr)))
