import json
from functools import reduce
from math import gcd
from operator import sub
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroups import (InfiniteSetError, Semigroup, betti_elements,
                        betti_minimals, ib_set, isolated_profile,
                        make_semigroup, minimal_multi_elements)
from semigroups.explore import enumerate_numerical_by_genus
from semigroups.factor import fiber
from semigroups.isolated import _unique_upto, is_set
from test_factor import AFFINE


def test_ib_golden():
    S = make_semigroup([16, 20, 30, 45])
    ib, complete = ib_set(S)
    assert complete
    assert set(ib) == {(0, 3, 0, 0), (0, 0, 2, 0), (5, 0, 0, 0),
                       (0, 0, 0, 2)}
    prof = isolated_profile(S)
    assert prof.i_b == 4


def test_is_golden_345():
    S = make_semigroup([3, 4, 5])
    facts, exhaustive = is_set(S)
    assert exhaustive
    assert set(facts) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                          (2, 0, 0), (1, 1, 0)}
    assert isolated_profile(S).i_s == 6


def test_two_generator_formulas():
    rng = Random(20260826)
    done = 0
    while done < 20:
        n1 = rng.randint(2, 19)
        n2 = rng.randint(n1 + 1, 399 // n1 + 1)
        if gcd(n1, n2) != 1 or n1 * n2 > 400:
            continue
        S = make_semigroup([n1, n2])
        prof = isolated_profile(S)
        assert prof.i_s == n1 * n2, (n1, n2)
        assert prof.i_b == 2, (n1, n2)
        done += 1


def test_is_infinite_when_no_betti():
    S = make_semigroup([1])
    with pytest.raises(InfiniteSetError):
        is_set(S)


def test_betti_minimals():
    assert betti_minimals(make_semigroup([16, 20, 30, 45])) == (60,)
    assert betti_minimals(make_semigroup([4, 5, 6])) == (10, 12)
    assert betti_minimals(make_semigroup([24, 26, 36, 39])) == (72, 78)


def test_betti_minimals_are_kept_on_the_semigroup(monkeypatch):
    S = make_semigroup([4, 5, 6])
    assert betti_minimals(S) == (10, 12)
    # a second scan would call leq; a slotted instance takes no attribute
    monkeypatch.setattr(Semigroup, "leq", None)
    assert betti_minimals(S) == (10, 12)


def test_minimal_multi_elements_equal_betti_minimals():
    for gens in ([3, 4, 5], [4, 5, 6], [16, 20, 30, 45], [24, 26, 36, 39],
                 [6, 9, 20]):
        S = make_semigroup(gens)
        assert set(minimal_multi_elements(S)) == set(betti_minimals(S)), gens


def test_minimal_multi_elements_build_no_apery_table_of_the_first_generator():
    # the scan limit is max(gens) + F + n_1, read off the Frobenius number,
    # and 9 is not the multiplicity of <9, 7, 5>
    S = make_semigroup([9, 7, 5])
    assert minimal_multi_elements(S) == (14, 25, 27)
    assert ("apery", (9,)) not in S._memo


def test_affine_minimal_multi_elements_match_the_fiber_definition():
    # several factorizations, and none at any m - n_i, read off the fibers
    for gens in AFFINE + ([(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)],):
        S = make_semigroup(gens)
        for bound in (0, 4, 9, 14):
            expected = tuple(
                m for m in S.elements_upto(bound)
                if fiber(S, m).denumerant >= 2
                and all(fiber(S, tuple(map(sub, m, g))).denumerant <= 1
                        for g in S.gens))
            assert minimal_multi_elements(S, bound) == expected, \
                (gens, bound)


def test_i_total_counts():
    S = make_semigroup([2, 3])
    prof = isolated_profile(S)
    # i_s = n1 * n2 = 6, i_b = 2
    assert (prof.i_s, prof.i_b, prof.i_total) == (6, 2, 8)


def test_affine_ib():
    S = make_semigroup([(1, 0), (0, 2), (0, 3)])
    ib, complete = ib_set(S)
    assert complete
    assert set(ib) == {(0, 3, 0), (0, 0, 2)}
    prof = isolated_profile(S, 12)
    assert set(prof.ib) == {(0, 3, 0), (0, 0, 2)}
    assert not prof.exhaustive  # affine I_s is only a bounded enumeration


def _unique_factorizations(S, elements):
    """I_s by its definition: the elements with one factorization."""
    fibers = (fiber(S, m) for m in elements)
    return tuple(sorted(f.factorizations[0] for f in fibers
                        if f.denumerant == 1))


PANEL = Path(__file__).resolve().parents[1] / "bench" / "analyze_panel.json"


def _is_set_by_definition(S):
    scan = S.apery(min(betti_elements(S).betti))
    return _unique_factorizations(S, scan), True


def test_is_set_matches_the_fiber_definition():
    # genus <= 11, and the analyze pool members with b_1 <= 1000, where
    # F + b_1 runs up to 6,680
    with open(PANEL, encoding="utf-8") as fh:
        pool = [make_semigroup([int(g) for g in text.split(",")])
                for text in json.load(fh)["pool"]]
    pool = [S for S in pool if min(betti_elements(S).betti) <= 1000]
    assert len(pool) >= 15
    for S in list(enumerate_numerical_by_genus(11)) + pool:
        if len(S.gens) == 1:
            continue
        assert is_set(S) == _is_set_by_definition(S), S.gens


def test_affine_is_set_matches_the_fiber_definition():
    for gens in AFFINE:
        S = make_semigroup(gens)
        assert is_set(S, 14) == \
            (_unique_factorizations(S, S.elements_upto(14)), False), gens


# multiplicity m <= 40, the other generators above it
_NUMERICAL = st.builds(
    lambda m, rest: [m] + sorted(rest), st.integers(2, 40),
    st.sets(st.integers(41, 160), min_size=1, max_size=4)).filter(
        lambda gens: reduce(gcd, gens) == 1)


@given(_NUMERICAL)
@settings(max_examples=150, deadline=None)
def test_is_set_matches_the_fiber_definition_on_random_semigroups(gens):
    S = make_semigroup(gens)
    assert is_set(S) == _is_set_by_definition(S), S.gens


def test_is_set_walk_is_not_recursive():
    # <m, ..., 2m - 1>: F = m - 1 and b_1 = 2m + 2, and only 0, the
    # generators, 2m and 2m + 1 factor uniquely
    def expected(m):  # e = m generators
        unit = [tuple(int(i == k) for i in range(m)) for k in range(m)]
        two, both = (2,) + (0,) * (m - 1), (1, 1) + (0,) * (m - 2)
        return tuple(sorted([(0,) * m, two, both] + unit))
    for m in (5, 8, 20):
        assert is_set(make_semigroup(range(m, 2 * m))) == (expected(m), True)
    m = 1100  # a walk recursing once per coordinate hits the limit here
    assert _unique_upto(tuple(range(m, 2 * m)),
                        (1 << (m - 1) + (2 * m + 2) + 1) - 1) == expected(m)
