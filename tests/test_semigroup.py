from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroups import (InfiniteAperyError, InvalidGeneratorsError,
                        NotNumericalError, make_semigroup, parse_gens,
                        semigroup)
from semigroups.classify import _divides_value
from semigroups.semigroup import (SubMonoid, _IntArithmetic,
                                  _TupleArithmetic, format_element,
                                  format_gens)


def test_make_numerical_preserves_order_and_strips_redundant():
    S = make_semigroup([24, 26, 36, 39])
    assert S.gens == (24, 26, 36, 39)
    S2 = make_semigroup([4, 6, 10, 9])  # 10 = 4 + 6 is redundant
    assert S2.gens == (4, 6, 9)


@pytest.mark.parametrize("gens", [[24, 26, 36, 39], [4, 6, 10, 9]])
def test_make_semigroup_builds_the_membership_table_once(monkeypatch, gens):
    # the engine that strips redundant generators answers S's queries
    built, apery_table = [], semigroup._apery_table

    def counted(gens, modulus):
        built.append(modulus)
        return apery_table(gens, modulus)
    monkeypatch.setattr(semigroup, "_apery_table", counted)
    S = make_semigroup(gens)
    members = [S.contains(x) for x in range(60)]
    assert built == [min(gens)]
    fresh = SubMonoid(S.gens)
    assert members == [fresh.contains(x) for x in range(60)]


def test_make_numerical_rejects_bad_input():
    with pytest.raises(InvalidGeneratorsError):
        make_semigroup([])
    with pytest.raises(InvalidGeneratorsError):
        make_semigroup([0, 3])
    with pytest.raises(NotNumericalError):
        make_semigroup([4, 6])  # gcd 2: complement is infinite


def test_membership_and_gaps():
    S = make_semigroup([3, 5])
    inside = {0, 3, 5, 6, 8, 9, 10, 11, 12}
    for s in range(13):
        assert S.contains(s) == (s in inside)
    assert not S.contains(-3)
    assert S.frobenius() == 7
    assert S.genus() == 4
    assert S.multiplicity == 3


def test_apery_numerical():
    S = make_semigroup([3, 4, 5])
    assert S.apery() == (0, 4, 5)
    assert S.apery(4) == (0, 3, 5, 6)
    # Apery with respect to a set of elements
    assert S.apery([3, 4]) == (0, 5)


def test_apery_base_must_be_member():
    S = make_semigroup([3, 5])
    with pytest.raises(InfiniteAperyError):
        S.apery(4)


def test_leq_partial_order():
    S = make_semigroup([4, 5, 6])
    assert S.leq(4, 10)
    assert not S.leq(5, 6)
    assert S.leq(0, 4)


@pytest.mark.parametrize("gens, a, b", [
    ([(2, 0), (0, 2), (1, 1)], (0, 0, 7), (1, 1)),
    ([(2, 0), (0, 2), (1, 1)], (1, 1), (2, 2, 9)),
    ([(2, 0), (0, 2), (1, 1)], (1,), (2, 2)),
    ([(2, 0), (0, 2), (1, 1)], (1, 1, 1), (2, 2, 2)),
    ([(2, 0), (0, 2), (1, 1)], 1, (2, 2)),
    ([(2, 0), (0, 2), (1, 1)], (1, 1), 2),
    ([4, 5, 6], 4, (10,)),
    ([4, 5, 6], (4, 0), 10),
])
def test_leq_rejects_wrong_shape(gens, a, b):
    S = make_semigroup(gens)
    with pytest.raises(InvalidGeneratorsError):
        S.leq(a, b)


def test_affine_basics():
    S = make_semigroup([(1, 0), (0, 2), (0, 3)])
    assert not S.numerical
    assert S.gens == ((1, 0), (0, 2), (0, 3))
    assert S.is_simplicial()
    assert S.ray_values() == ((1, 0), (0, 2))
    assert S.contains((3, 5))
    assert not S.contains((0, 1))
    assert not S.contains((-1, 0))
    assert S.codim == 1


def test_affine_apery_and_cm():
    S = make_semigroup([(1, 0), (0, 2), (0, 3)])
    ap = S.apery()
    assert (0, 0) in ap and (0, 3) in ap
    assert S.is_cohen_macaulay()


def test_non_simplicial_detection():
    S = make_semigroup([(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    assert not S.is_simplicial()
    with pytest.raises(NotNumericalError):
        S.frobenius()


def test_elements_upto():
    S = make_semigroup([3, 5])
    assert S.elements_upto(10) == (0, 3, 5, 6, 8, 9, 10)
    A = make_semigroup([(1, 0), (0, 2), (0, 3)])
    els = A.elements_upto(3)
    assert (0, 0) in els and (1, 2) in els and (0, 1) not in els
    # below 0 the range is empty for both kinds; an affine box of bound -1
    # has radix 0, so every generator would sit at shift 0, which the
    # doubling shifts of the count planes never leave
    for T in (S, A):
        assert T.elements_upto(-1) == T.elements_upto(-5) == ()


def test_affine_elements_upto_match_a_box_scan_by_contains():
    # the six affine panel members and the non-simplicial member of
    # acceptance 07; the box scan reads the stack search, not the planes
    panel = ([(1, 0), (0, 2), (0, 3)], [(3, 0), (0, 3), (1, 2), (2, 1)],
             [(4, 0), (0, 4), (1, 3), (3, 1)],
             [(6, 0), (0, 6), (1, 5), (4, 2)],
             [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
             [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (1, 2, 0)],
             [(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    for gens in panel:
        S = make_semigroup(gens)
        box = product(range(15), repeat=S.ambient_dim)
        scan = [v for v in box if sum(v) <= 14 and S.contains(v)]
        for bound in range(15):
            assert S.elements_upto(bound) == \
                tuple(v for v in scan if sum(v) <= bound), (gens, bound)


def test_parse_and_format_round_trip():
    assert parse_gens("24,26,36,39") == [24, 26, 36, 39]
    assert parse_gens("(1,0);(0,2)") == [(1, 0), (0, 2)]
    with pytest.raises(InvalidGeneratorsError):
        parse_gens("")
    with pytest.raises(InvalidGeneratorsError):
        parse_gens("(1,0);x")
    assert format_gens((24, 26)) == "24,26"
    assert format_element((1, 0)) == "(1,0)"


def test_is_gorenstein_numerical_symmetric():
    # <3,5> is symmetric, <3,4,5> is not
    assert make_semigroup([3, 5]).is_gorenstein()
    assert not make_semigroup([3, 4, 5]).is_gorenstein()


def test_is_gorenstein_matches_apery_maxima_rule():
    # oracle: Ap(S; n) has a single maximal element in the order of S
    from semigroups.explore import enumerate_numerical_by_genus
    corpus = enumerate_numerical_by_genus(10)
    symmetric = 0
    for S in corpus:
        ap = S.apery()
        table = _coin_change(S.gens, max(ap))
        maxima = [w for w in ap
                  if not any(v != w and table[v - w] for v in ap if v > w)]
        assert S.is_gorenstein() == (len(maxima) == 1), S.gens
        symmetric += len(maxima) == 1
    assert len(corpus) == 478 and symmetric > 50


def _coin_change(gens, horizon):
    """Oracle: table[s] == 1 iff s <= horizon is a sum of the gens."""
    table = bytearray(horizon + 1)
    table[0] = 1
    for s in range(horizon + 1):
        if table[s]:
            for g in gens:
                if s + g <= horizon:
                    table[s + g] = 1
    return table


@given(st.sets(st.integers(2, 40), min_size=2, max_size=4), st.data())
@settings(max_examples=60, deadline=None)
def test_membership_matches_brute_force(gens, data):
    from math import gcd
    from functools import reduce
    gens = sorted(gens)
    # any generator list, including prefix monoids whose gcd exceeds 1
    horizon = 2 * max(gens) * max(gens)
    table = _coin_change(gens, horizon)
    sub = SubMonoid(gens)
    for s in range(-max(gens), horizon + 1):
        assert sub.contains(s) == (s >= 0 and bool(table[s])), s
    if reduce(gcd, gens) != 1:
        return
    S = make_semigroup(gens)
    for s in range(horizon + 1):
        assert S.contains(s) == bool(table[s])
    # Ap(S; b) for a nonzero element b: members s with s - b outside S;
    # every Apery element is below F + b < max(gens)^2 + b <= horizon
    b = data.draw(st.sampled_from(
        [s for s in range(1, 2 * max(gens) + 1) if table[s]]))
    expected = tuple(s for s in range(horizon + 1)
                     if table[s] and not (s >= b and table[s - b]))
    assert S.apery(b) == expected


@given(st.sets(st.integers(2, 40), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_frobenius_and_genus_match_gap_count(gens):
    from math import gcd
    from functools import reduce
    if reduce(gcd, gens) != 1:
        return
    S = make_semigroup(sorted(gens))
    table = _coin_change(gens, max(gens) * max(gens))
    gaps = [s for s, member in enumerate(table) if not member]
    assert S.frobenius() == max(gaps, default=-1)
    assert S.genus() == len(gaps)


@given(st.integers(2, 400), st.integers(2, 400))
@settings(max_examples=60, deadline=None)
def test_two_generators_match_sylvester(a, b):
    from math import gcd
    if a == b or gcd(a, b) != 1:
        return
    S = make_semigroup([a, b])
    assert S.frobenius() == a * b - a - b
    assert S.genus() == (a - 1) * (b - 1) // 2


def test_frobenius_of_large_two_generator_semigroup():
    S = make_semigroup([100003, 100019])
    assert S.frobenius() == 100003 * 100019 - 100003 - 100019
    assert S.genus() == 100002 * 100018 // 2


def test_affine_membership_far_from_origin():
    S = make_semigroup([(1, 0), (0, 1), (1, 1)])
    assert S.contains((3000, 3000))
    T = make_semigroup([(2, 0), (0, 2), (1, 1)])
    assert T.contains((1500, 1500))
    assert not T.contains((31, 30))  # coordinate sum odd


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 9),
       st.lists(st.integers(-60, 60), max_size=8))
def test_ints_and_one_tuples_agree(a, b, k, elems):
    ints, tuples = _IntArithmetic, _TupleArithmetic
    assert tuples.add((a,), (b,)) == (ints.add(a, b),)
    assert tuples.sub((a,), (b,)) == (ints.sub(a, b),)
    assert tuples.scale(k, (a,)) == (ints.scale(k, a),)
    if b > 0:
        assert tuples.quotient((a,), (b,)) == ints.quotient(a, b)
    assert [(x,) for x in sorted(elems, key=ints.key)] == \
        sorted(((x,) for x in elems), key=tuples.key)


def _largest_multiple(m, g):
    """The largest k with m - k*g >= 0 in every coordinate, counting up."""
    k = 0
    while all(mc - (k + 1) * gc >= 0 for mc, gc in zip(m, g)):
        k += 1
    return k


@given(st.integers(0, 200), st.integers(1, 30),
       st.lists(st.integers(0, 40), min_size=3, max_size=3),
       st.lists(st.integers(0, 6), min_size=3, max_size=3))
def test_quotient_is_the_largest_fitting_multiple(m, g, mv, gv):
    assert _IntArithmetic.quotient(m, g) == _largest_multiple((m,), (g,))
    if any(gv):
        assert _TupleArithmetic.quotient(tuple(mv), tuple(gv)) == \
            _largest_multiple(mv, gv)


@given(st.integers(1, 30), st.integers(0, 200),
       st.lists(st.integers(0, 5), min_size=2, max_size=2),
       st.lists(st.integers(0, 40), min_size=2, max_size=2))
def test_divides_value_matches_definition(a, b, av, bv):
    # b is a positive integer multiple of a: k * a == b for some k >= 1
    S = make_semigroup([3, 5])
    assert _divides_value(S, a, b) == any(k * a == b for k in range(1, 201))
    if any(av):
        A = make_semigroup([(1, 0), (0, 1)])
        a, b = tuple(av), tuple(bv)
        assert _divides_value(A, a, b) == any(
            tuple(k * x for x in a) == b for k in range(1, 41))


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4))
                .filter(any), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_affine_membership_matches_bounded_search(gens):
    # oracle: the member plane that elements_upto decodes, which adds
    # generators and never tests membership
    S = make_semigroup(gens)
    bound = 14
    members = set(S.elements_upto(bound))
    for x in range(bound + 1):
        for y in range(bound + 1 - x):
            assert S.contains((x, y)) == ((x, y) in members), (x, y)
