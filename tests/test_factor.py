from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroups import (FiberCapExceededError, InvalidGeneratorsError,
                        denumerant, factor, fiber, isolated_factorizations,
                        make_semigroup, nc, r_classes)
from semigroups.classify import _packing, _scan_bound, _walk
from semigroups.explore import enumerate_numerical_by_genus
from semigroups.factor import raw_fiber

# the affine members of the analyze benchmark panel, and one more
AFFINE = ([(1, 0), (0, 2), (0, 3)], [(3, 0), (0, 3), (1, 2), (2, 1)],
          [(4, 0), (0, 4), (1, 3), (3, 1)], [(6, 0), (0, 6), (1, 5), (4, 2)],
          [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
          [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (1, 2, 0)],
          [(2, 0), (0, 2), (1, 3), (2, 1)])


def test_fiber_sorted_and_complete():
    S = make_semigroup([3, 4, 5])
    fib = fiber(S, 8)
    assert fib.factorizations == ((0, 2, 0), (1, 0, 1))
    assert fib.denumerant == 2
    assert denumerant(S, 8) == 2


def test_fiber_of_non_member_is_empty():
    S = make_semigroup([3, 4, 5])
    assert fiber(S, 2).denumerant == 0
    assert fiber(S, 1).factorizations == ()


def test_affine_fiber():
    S = make_semigroup([(1, 0), (0, 2), (0, 3)])
    fib = fiber(S, (0, 6))
    assert fib.factorizations == ((0, 0, 2), (0, 3, 0))
    assert fib.nc == 2


def test_r_classes_support_sharing():
    # (0,2,0) and (0,1,1) share support in coordinate 1 -> same class;
    # (2,0,0) is disjoint from both
    classes = r_classes([(0, 2, 0), (0, 1, 1), (2, 0, 0)])
    as_sets = sorted(tuple(sorted(c)) for c in classes)
    assert as_sets == [((0, 1, 1), (0, 2, 0)), ((2, 0, 0),)]


def test_r_classes_matches_transitive_closure_brute_force():
    S = make_semigroup([16, 20, 30, 45])
    fibers = [fiber(S, m) for m in S.elements_upto(240)]
    fibers = [fib for fib in fibers if fib.denumerant <= 50]
    # larger fibers at e = 6: 21, 56 and 126 factorizations
    T = make_semigroup([15015, 10010, 6006, 4290, 2730, 2310])
    fibers += [fiber(T, m) for m in (60060, 90090, 120120)]
    for fib in fibers:
        facts = fib.factorizations
        classes = r_classes(facts)
        assert len(classes) <= len(facts[0]), fib  # disjoint supports
        fast = {frozenset(c) for c in classes}
        slow = _closure_classes(facts)
        assert fast == slow, fib


def _closure_classes(facts):
    """O(n^2) union by repeated merging, the independent oracle."""
    groups = [{x} for x in facts]
    changed = True
    while changed:
        changed = False
        for a, b in combinations(range(len(groups)), 2):
            if groups[a] and groups[b] and any(
                    any(xi and yi for xi, yi in zip(x, y))
                    for x in groups[a] for y in groups[b]):
                groups[a] |= groups[b]
                groups[b] = set()
                changed = True
    return {frozenset(g) for g in groups if g}


def test_isolated_definition():
    S = make_semigroup([16, 20, 30, 45])
    fib = fiber(S, 80)
    assert fib.factorizations == ((0, 1, 2, 0), (0, 4, 0, 0), (5, 0, 0, 0))
    assert fib.isolated == ((5, 0, 0, 0),)
    assert isolated_factorizations(S, 80) == ((5, 0, 0, 0),)
    assert nc(S, 80) == 2


def test_fiber_cap():
    S = make_semigroup([2, 3])
    with pytest.raises(FiberCapExceededError):
        raw_fiber(S.gens, 1000, cap=3)


def test_fiber_cap_honoured_when_cached():
    S = make_semigroup([2, 3])
    assert fiber(S, 30).denumerant == 6
    with pytest.raises(FiberCapExceededError):
        fiber(S, 30, cap=3)
    assert fiber(S, 30, cap=6).denumerant == 6


def test_walk_fibers_match_raw_fiber_over_every_scan():
    members = [S for S in enumerate_numerical_by_genus(9)
               if len(S.gens) > 1]
    members += [make_semigroup(g) for g in ([(1, 0), (0, 2), (0, 3)],
                                            [(2, 0), (0, 2), (1, 3), (2, 1)])]
    for S in members:
        bound = _scan_bound(S)  # affine: keeps the Betti fibers on S
        fresh = make_semigroup(list(S.gens))
        unpack = _packing(S, bound)[1]
        scan = list(_walk(S, bound))
        assert [m for m, *_ in scan] == list(fresh.elements_upto(bound))
        for m, singletons, below, _ in scan:
            facts = raw_fiber(fresh.gens, m)
            classes = r_classes(facts)
            isolated = tuple(c[0] for c in classes if len(c) == 1)
            assert (tuple(map(unpack, sorted(below))),
                    tuple(map(unpack, sorted(singletons)))) == \
                (facts, isolated), (S.gens, m)
            # only a Betti fiber (two or more R-classes) is kept on S
            kept = S._memo.get(("fiber", m))
            assert (kept is not None) == (len(classes) >= 2), (S.gens, m)
            if kept is not None:
                assert (kept.factorizations, kept.classes,
                        kept.isolated) == (facts, classes, isolated)
                assert fiber(S, m) is kept


def test_walk_reuses_kept_fibers():
    # 8 is a Betti element of <3, 4, 5>: the walk reads the fiber kept
    # there and keeps the other two, 9 and 10, and no other
    S = make_semigroup([3, 4, 5])
    kept = fiber(S, 8)
    list(_walk(S, 12))
    assert fiber(S, 8) is kept
    assert sorted(key[1] for key in S._memo
                  if isinstance(key, tuple) and key[0] == "fiber") == \
        [8, 9, 10]


def test_walk_raises_where_raw_fiber_does(monkeypatch):
    S = make_semigroup([3, 5])
    for cap, first in ((3, 45), (0, 0)):
        for m in S.elements_upto(first - 1):
            raw_fiber(S.gens, m, cap=cap)
        with pytest.raises(FiberCapExceededError) as raw:
            raw_fiber(S.gens, first, cap=cap)
        # the walk takes no cap: it holds every fiber to the default
        monkeypatch.setattr(factor, "DEFAULT_FIBER_CAP", cap)
        with pytest.raises(FiberCapExceededError) as scan:
            list(_walk(make_semigroup([3, 5]), 60))
        monkeypatch.undo()
        assert (scan.value.element, scan.value.cap, str(scan.value)) == \
            (first, cap, str(raw.value))


def test_fiber_cached_identity():
    S = make_semigroup([3, 4, 5])
    assert fiber(S, 8) is fiber(S, 8)


@given(st.sets(st.integers(2, 25), min_size=2, max_size=4),
       st.integers(0, 120))
@settings(max_examples=60, deadline=None)
def test_fiber_by_brute_force_enumeration(gens, m):
    from math import gcd
    from functools import reduce
    from itertools import product
    gens = sorted(gens)
    if reduce(gcd, gens) != 1:
        return
    S = make_semigroup(gens)
    gens = S.gens
    expected = sorted(
        combo for combo in product(*[range(m // g + 1) for g in gens])
        if sum(c * g for c, g in zip(combo, gens)) == m)
    assert list(fiber(S, m).factorizations) == expected


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=4),
       st.tuples(st.integers(0, 14), st.integers(0, 14)))
@settings(max_examples=80, deadline=None)
def test_affine_fiber_by_brute_force_enumeration(vecs, m):
    from itertools import product
    gens = tuple(dict.fromkeys(v for v in vecs if any(v)))
    if not gens:
        return

    def brute(gens):
        tops = [min(mc // gc for mc, gc in zip(m, g) if gc) for g in gens]
        return sorted(
            combo for combo in product(*[range(t + 1) for t in tops])
            if tuple(sum(c * g[j] for c, g in zip(combo, gens))
                     for j in range(2)) == m)

    assert list(raw_fiber(gens, m)) == brute(gens)
    S = make_semigroup(gens)  # drops redundant generators
    expected = brute(S.gens)
    assert list(fiber(S, m).factorizations) == expected
    assert S.contains(m) == bool(expected)


@given(st.sets(st.integers(2, 30), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_denumerant_matches_generating_function(gens):
    from functools import reduce
    from math import gcd
    if reduce(gcd, gens) != 1:
        return
    S = make_semigroup(sorted(gens))
    # coefficients of prod 1 / (1 - x^g) over the minimal generators
    horizon = 4 * max(S.gens)
    ways = [1] + [0] * horizon
    for g in S.gens:
        for s in range(g, horizon + 1):
            ways[s] += ways[s - g]
    assert [denumerant(S, m) for m in range(horizon + 1)] == ways


def test_wrong_shape_elements_are_rejected():
    S = make_semigroup([(2, 0), (0, 2), (1, 1)])
    for v in ((1, 1, 5), 5, 0):
        with pytest.raises(InvalidGeneratorsError):
            fiber(S, v)
    with pytest.raises(InvalidGeneratorsError):
        S.contains(5)
    with pytest.raises(InvalidGeneratorsError):
        make_semigroup([3, 5]).contains((5,))


def test_nc_counts_the_components_of_the_element_graph():
    checked = 0
    for S in enumerate_numerical_by_genus(11):
        horizon = S.frobenius() + 2 * max(S.gens)
        for m in range(horizon + 1):
            assert nc(S, m) == fiber(S, m).nc, (S.gens, m)
            checked += 1
    assert checked > 40000


def test_nc_on_affine_elements():
    for gens in AFFINE:
        S = make_semigroup(gens)
        for m in S.elements_upto(16):
            assert nc(S, m) == fiber(S, m).nc, (gens, m)


def test_nc_of_zero_a_gap_and_a_wrong_shape():
    S = make_semigroup([3, 4, 5])
    assert nc(S, 0) == 1  # the empty factorization
    assert nc(S, 2) == 0
    with pytest.raises(InvalidGeneratorsError):
        nc(S, (2,))
    T = make_semigroup([(2, 0), (0, 2), (1, 1)])
    assert nc(T, (0, 0)) == 1
    assert nc(T, (1, 0)) == 0
    with pytest.raises(InvalidGeneratorsError):
        nc(T, (1, 1, 0))
