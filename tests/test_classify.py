import hashlib
import json
import resource
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from math import gcd

import pytest

from semigroups import (check_equivalence_theorems, classification_report,
                        free_some_arrangement, has_single_betti,
                        has_single_betti_minimal, is_alpha_rectangular,
                        is_betti_divisible, is_betti_sorted,
                        is_c_rectangular, is_free_all_arrangements,
                        is_rectangular, make_semigroup, verify_bounds)
from semigroups import (IsolatedProfile, betti, betti_divisible_from_params,
                        betti_elements, classify, constants, factor,
                        free_arrangement, is_free, isolated_profile)
from semigroups.isolated import betti_minimals, minimal_in_order
from semigroups.betti import BettiProfile, _free_completion
from semigroups.classify import (_BETTI, _IBETTI, _MULTI, HarnessInputs,
                                 _check_b1_smallest,
                                 _check_isolated_characterization,
                                 _check_isolated_elements,
                                 _check_thm_alpha_free, _packing,
                                 _per_base, _scan_bound,
                                 _sorted_cost_arrangements, _unique_test,
                                 _walk, admits_shaped_presentation,
                                 free_arrangement_starting_at,
                                 is_alpha_rectangular_every_generator)
from semigroups.errors import NotSimplicialError, SearchCapExceededError
from semigroups.explore import (enumerate_numerical_by_genus,
                                run_theorem_harness)
from semigroups import semigroup
from semigroups.semigroup import Semigroup, _apery_table


def test_alpha_rectangular_goldens():
    S = make_semigroup([16, 20, 30, 45])
    flag, bounds = is_alpha_rectangular(S, 1)  # for the generator 20
    assert flag
    assert not is_alpha_rectangular(S, 0)[0]
    T = make_semigroup([4, 5, 6])
    assert is_alpha_rectangular(T, 2)[0]  # for the generator 6
    U = make_semigroup([24, 26, 36, 39])
    assert not any(is_alpha_rectangular(U, j)[0] for j in range(4))


def test_rectangular_hierarchy():
    # alpha-rectangular => c-rectangular => rectangular, never conversely
    for gens in ([16, 20, 30, 45], [4, 5, 6], [2, 3], [3, 4, 5],
                 [24, 26, 36, 39], [4, 6, 9], [6, 15, 20]):
        S = make_semigroup(gens)
        for j in range(len(S.gens)):
            a = is_alpha_rectangular(S, j)[0]
            c = is_c_rectangular(S, j)[0]
            r = is_rectangular(S, j)[0]
            assert (not a or c) and (not c or r), (gens, j)


def test_betti_sorted_and_divisible():
    assert is_betti_sorted(make_semigroup([4, 6, 9]))
    assert not is_betti_divisible(make_semigroup([4, 6, 9]))
    assert is_betti_divisible(make_semigroup([6, 15, 20]))
    assert is_betti_divisible(make_semigroup([30, 42, 105, 140]))
    assert not is_betti_sorted(make_semigroup([16, 20, 30, 45]))
    assert not is_betti_sorted(make_semigroup([3, 4, 5]))


def test_single_betti():
    assert has_single_betti(make_semigroup([2, 3])) == (True, 6)
    assert has_single_betti(make_semigroup([4, 5, 6]))[0] is False
    assert has_single_betti_minimal(make_semigroup([16, 20, 30, 45])) == \
        (True, 60)
    assert has_single_betti_minimal(make_semigroup([4, 5, 6]))[0] is False


def test_free_arrangements():
    S = make_semigroup([24, 26, 36, 39])
    arr = free_some_arrangement(S)
    assert arr is not None
    assert free_arrangement_starting_at(S, 0) is not None
    assert free_some_arrangement(make_semigroup([3, 4, 5])) is None
    # CI but not free
    assert free_some_arrangement(make_semigroup([10, 14, 15, 21])) is None


def test_free_all_arrangements_matches_betti_divisible():
    # characterization check on a mixed sample
    for gens in ([2, 3], [3, 5], [6, 15, 20], [30, 42, 105, 140],
                 [4, 6, 9], [24, 26, 36, 39], [16, 20, 30, 45],
                 [3, 4, 5], [4, 5, 6]):
        S = make_semigroup(gens)
        assert is_free_all_arrangements(S) == is_betti_divisible(S), gens


def test_free_all_arrangements_is_checked_beyond_seven_generators():
    # thm_betti_divisible_free evaluates freeness for every arrangement at
    # every embedding dimension; the subset check on the e = 8 family
    # member below finds no failing subset (0.7-1.1 s measured on a
    # 2-core x86_64 VM)
    S = make_semigroup(range(8, 16))
    entry = classify._check_thm_betti_divisible_free(S, HarnessInputs(S))
    assert entry["conditions"] == [False, None, False] and entry["ok"]
    T, _ = betti_divisible_from_params((2, 3, 5, 7, 11, 13, 17, 19),
                                       (1,) * 8)
    assert len(T.gens) == 8 and is_free_all_arrangements(T)


def test_classification_report_flags():
    rep = classification_report(make_semigroup([16, 20, 30, 45]))
    assert rep.flags["complete_intersection"]
    assert rep.flags["single_betti_minimal"]
    assert rep.flags["alpha_rectangular"]
    assert not rep.flags["betti_sorted"]
    rep2 = classification_report(make_semigroup([24, 26, 36, 39]))
    assert rep2.flags["free_some_arrangement"]
    assert not rep2.flags["alpha_rectangular"]


def test_shaped_presentations_staircase():
    # Betti sorted <=> staircase-shaped presentation along a cost-sorted
    # arrangement (exercised directly on a positive and a negative case)
    S = make_semigroup([4, 6, 9])
    assert admits_shaped_presentation(S, (0, 1, 2), pure_right=False,
                                      fixed_c=True)
    T = make_semigroup([3, 4, 5])
    assert not admits_shaped_presentation(T, (0, 1, 2), pure_right=False,
                                          fixed_c=True)


def test_alpha_rectangular_every_generator():
    assert is_alpha_rectangular_every_generator(make_semigroup([2, 3]))
    assert is_alpha_rectangular_every_generator(
        make_semigroup([6, 15, 20])) == \
        has_single_betti(make_semigroup([6, 15, 20]))[0]


def test_verify_bounds_all_ok_on_witnesses():
    for gens in ([1], [2, 3], [3, 4, 5], [4, 5, 6], [4, 6, 9], [6, 15, 20],
                 [16, 20, 30, 45], [24, 26, 36, 39], [10, 14, 15, 21],
                 [30, 42, 105, 140]):
        S = make_semigroup(gens)
        for entry in verify_bounds(S, HarnessInputs(S)):
            assert entry["ok"], (gens, entry)


def test_equivalence_theorems_all_ok_on_witnesses():
    for gens in ([1], [2, 3], [3, 4, 5], [4, 5, 6], [4, 6, 9], [6, 15, 20],
                 [16, 20, 30, 45], [24, 26, 36, 39], [10, 14, 15, 21]):
        S = make_semigroup(gens)
        for name, entry in check_equivalence_theorems(
                S, HarnessInputs(S)).items():
            assert entry["ok"], (gens, name, entry)


def test_equivalence_theorems_affine():
    # in the second semigroup the lexicographic and the degree order of
    # Ap(S; rays) and of the Betti elements {(2,6), (4,2)} differ
    for gens in ([(1, 0), (0, 2), (0, 3)], [(2, 0), (0, 2), (1, 3), (2, 1)]):
        S = make_semigroup(gens)
        report = check_equivalence_theorems(S, HarnessInputs(S))
        assert report
        for name, entry in report.items():
            assert entry["ok"], (gens, name, entry)


def test_affine_boxes_compare_in_apery_order():
    # Ap(S; rays) = {(0,0), (1,3), (2,1), (3,4)} is the exponent box of
    # (1,3) and (2,1) with alpha = c - 1 = 1
    S = make_semigroup([(2, 0), (0, 2), (1, 3), (2, 1)])
    assert is_alpha_rectangular(S) == (True, {2: 1, 3: 1})
    assert is_c_rectangular(S) == (True, {2: 1, 3: 1})
    assert is_rectangular(S) == (True, {2: 1, 3: 1})


def test_affine_base_index_is_refused_by_every_box_predicate():
    # the Apery base of affine S is the rays; a base index names nothing
    S = make_semigroup([(1, 0), (0, 2), (0, 3)])
    for predicate in (is_alpha_rectangular, is_c_rectangular,
                      is_rectangular):
        with pytest.raises(NotSimplicialError):
            predicate(S, 0)
        assert predicate(S)[0] == predicate(S, None)[0]


# -- free-arrangement search against brute force ---------------------------

def _coin_change(gens, limit):
    """reach[v] is 1 iff v <= limit is an N-combination of gens."""
    reach = bytearray(limit + 1)
    reach[0] = 1
    for g in gens:
        for v in range(g, limit + 1):
            if reach[v - g]:
                reach[v] = 1
    return reach


class _BruteConstants:
    """c-bar, c* and alpha of a numerical semigroup by coin-change sweeps,
    independent of the library."""

    def __init__(self, gens):
        self.gens = gens
        self.limit = max(gens) ** 2
        self.member = _coin_change(gens, self.limit)
        self.pairs = {}

    def pair(self, prefix, i):
        """(c-bar, c*) of gens[i] over the set of prefix indices."""
        key = (frozenset(prefix), i)
        if key not in self.pairs:
            sub = [self.gens[k] for k in key[0]]
            g = self.gens[i]
            d = gcd(*sub)
            reach = _coin_change(sub, d // gcd(d, g) * g * max(sub))
            c = 1
            while not reach[c * g]:
                c += 1
            self.pairs[key] = (d // gcd(d, g), c)
        return self.pairs[key]

    def alpha(self, i, j):
        """Largest h with h * gens[i] in Ap(S; gens[j])."""
        h = 1
        while True:
            v = (h + 1) * self.gens[i] - self.gens[j]
            if v >= 0 and self.member[v]:
                return h
            h += 1

    def free(self, p):
        return all(len(set(self.pair(p[:pos], p[pos]))) == 1
                   for pos in range(1, len(p)))

    def alpha_free(self, p):
        return all(self.pair(p[:pos], p[pos]) ==
                   (self.alpha(p[pos], p[0]) + 1,) * 2
                   for pos in range(1, len(p)))


def _corpus_e_ge_2(genus):
    return [S for S in enumerate_numerical_by_genus(genus) if len(S.gens) > 1]


def test_free_some_arrangement_is_first_free_permutation():
    corpus = _corpus_e_ge_2(8)
    assert len(corpus) == 155
    for S in corpus:
        brute = _BruteConstants(S.gens)
        first = next((p for p in permutations(range(len(S.gens)))
                      if brute.free(p)), None)
        assert free_some_arrangement(S) == first, S.gens
        assert (first is not None) == any(
            free_arrangement_starting_at(S, j) for j in range(len(S.gens)))


def test_alpha_free_check_matches_permutation_scan():
    # the theorem makes every applicable check true, so the search is also
    # compared on every base j, where the alpha condition often fails
    found = {True: 0, False: 0}
    for S in _corpus_e_ge_2(8):
        brute = _BruteConstants(S.gens)
        e = len(S.gens)
        inputs = HarnessInputs(S)
        for j in range(e):
            rest = [i for i in range(e) if i != j]
            first = next((p for p in permutations(rest)
                          if brute.alpha_free((j,) + p)), None)
            assert _free_completion(S, frozenset((j,)), alpha_base=j) == \
                first, (S.gens, j)
            found[first is not None] += 1
            got = _check_thm_alpha_free(S, inputs, j)
            if is_alpha_rectangular(S, j)[0]:
                assert got["ok"] == (first is not None), (S.gens, j)
            else:
                assert got is None
    assert found[True] >= 40 and found[False] >= 400, found


def test_free_all_arrangements_matches_every_permutation():
    corpus = _corpus_e_ge_2(8)
    assert len(corpus) == 155
    found = {True: 0, False: 0}
    for S in corpus:
        brute = _BruteConstants(S.gens)
        expected = all(brute.free(p)
                       for p in permutations(range(len(S.gens))))
        assert is_free_all_arrangements(S) == expected, S.gens
        found[expected] += 1
    assert found[True] >= 10 and found[False] >= 100, found


def _affine_probe_corpus():
    """Rays (a,0) and (0,b), 2 <= a, b <= 4, with one or two generators in
    the box [1,a] x [1,b]; the distinct semigroups this gives."""
    seen = {}
    for a in range(2, 5):
        for b in range(2, 5):
            box = [(x, y) for x in range(1, a + 1) for y in range(1, b + 1)]
            for k in (1, 2):
                for extra in combinations(box, k):
                    S = make_semigroup([(a, 0), (0, b), *extra])
                    seen.setdefault(S.gens, S)
    return list(seen.values())


def test_affine_free_arrangement_is_first_free_permutation():
    corpus = _affine_probe_corpus()
    assert len(corpus) == 374
    free = 0
    for S in corpus:
        rays = tuple(S.simplicial_rays)
        first = next((rays + p for p in permutations(S.nonray_indices())
                      if is_free(S, rays + p)), None)
        assert free_arrangement(S) == first, S.gens
        free += first is not None
    assert free == 306


def test_peel_gate_rules_out_without_building_c_star(monkeypatch):
    # gcd(4, 5) = gcd(3, 5) = gcd(3, 4) = 1: no generator can be last, so
    # the search ends after e gcds, before any submonoid Apery table
    S = make_semigroup([3, 4, 5])
    calls = []

    def counted(name, real):
        return lambda *a: calls.append(name) or real(*a)

    monkeypatch.setattr(constants, "c_bar",
                        counted("c_bar", constants.c_bar))
    monkeypatch.setattr(constants, "c_star",
                        counted("c_star", constants.c_star))
    monkeypatch.setattr(constants, "_least_multiple",
                        counted("_least_multiple", constants._least_multiple))
    assert free_some_arrangement(S) is None
    assert set(calls) == {"c_bar"} and len(calls) <= len(S.gens), calls


def test_search_memo_counts_none_as_a_hit(monkeypatch):
    S = make_semigroup([3, 4, 5])
    assert free_some_arrangement(S) is None
    calls = []
    real = constants.c_bar
    monkeypatch.setattr(constants, "c_bar",
                        lambda *a: calls.append(a) or real(*a))
    assert free_some_arrangement(S) is None
    assert calls == []


def test_sorted_cost_arrangements_enumerates_every_tie():
    # c_i n_i = 2310 for all five generators: all 5! orderings tie
    S = make_semigroup([1155, 770, 462, 330, 210])
    arrangements = _sorted_cost_arrangements(S)
    assert len(arrangements) == 120
    assert len(set(arrangements)) == 120
    assert arrangements[0] == (4, 3, 2, 1, 0)  # ties broken by generator


def test_sorted_cost_arrangements_are_counted_before_listing(monkeypatch):
    # 5! = 120 tied orderings, listed above at the real cap: refused one
    # below it, before any is listed
    S = make_semigroup([1155, 770, 462, 330, 210])
    assert classify._ARRANGEMENT_CAP >= 120
    monkeypatch.setattr(classify, "_ARRANGEMENT_CAP", 119)
    with pytest.raises(SearchCapExceededError, match="120 cost-sorted"):
        _sorted_cost_arrangements(S)
    with pytest.raises(SearchCapExceededError):
        HarnessInputs(make_semigroup([1155, 770, 462, 330, 210]))


# -- order recurrences against the pairwise definitions ----------------------

# the affine members of test_equivalence_theorems_affine
_AFFINE_HARNESS = ([(1, 0), (0, 2), (0, 3)],)
# simplicial affine semigroups with Apery sets to compare maxima on
_AFFINE_APERY = _AFFINE_HARNESS + (
    [(3, 0), (0, 3), (1, 2), (2, 1)], [(4, 0), (0, 4), (1, 3), (3, 1)],
    [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])


def _harness_members():
    return _corpus_e_ge_2(8) + [make_semigroup(g) for g in _AFFINE_HARNESS]


def _below(z, x):
    """z < x in the component-wise order."""
    return z != x and all(zc <= xc for zc, xc in zip(z, x))


def _unpacked_walk(S):
    """The walk over the scan of S, each map keyed by the factorizations
    themselves."""
    bound = _scan_bound(S)
    unpack = _packing(S, bound)[1]
    return [(m, {unpack(x): bits for x, bits in below.items()}, under)
            for m, _, below, under in _walk(S, bound)]


def test_order_walk_matches_pairwise_domination():
    rows_seen = 0
    for S in _harness_members():
        walk = _unpacked_walk(S)
        profile = betti_elements(S)
        ib = set(isolated_profile(S).ib)
        betti_facts = [x for b in profile.betti
                       for x in profile.fibers[b].factorizations]
        # minimal multi-vectors by the sorted pairwise scan
        multi_vectors = sorted((x for _, below, _ in walk
                                if len(below) >= 2
                                for x in below), key=sum)
        minimals = []
        for x in multi_vectors:
            if not any(_below(z, x) for z in minimals):
                minimals.append(x)
        assert set(minimals) == ib, S.gens
        for m, below, _ in walk:
            assert sorted(below) == list(factor.raw_fiber(S.gens, m))
            multi = len(below) >= 2
            for x, bits in below.items():
                assert bool(bits & _BETTI) == \
                    any(_below(z, x) for z in betti_facts)
                assert bool(bits & _IBETTI) == any(_below(z, x) for z in ib)
                assert (multi and not bits & _MULTI) == (x in minimals), \
                    (S.gens, x)
                rows_seen += 1
    assert rows_seen > 5000


def test_strictly_above_matches_pairwise_order():
    for S in _harness_members():
        walk = list(_walk(S, _scan_bound(S)))
        profile = betti_elements(S)
        assert [m for m, *_ in walk] == \
            list(S.elements_upto(_scan_bound(S)))
        for bit, targets in ((_BETTI, profile.betti),
                             (_IBETTI, profile.ibetti)):
            for m, _, _, under in walk:
                assert bool(under & bit) == any(b != m and S.leq(b, m)
                                                for b in targets), (S.gens, m)


def test_apery_maxima_match_pairwise_scan():
    members = [(S, list(S.gens) + [betti_elements(S).betti[0]])
               for S in _corpus_e_ge_2(8)]
    members += [(make_semigroup(g), [None]) for g in _AFFINE_APERY]
    for S, bases in members:
        for base in bases:
            ap = S.apery(base)
            maxima = tuple(w for w in ap
                           if not any(v != w and S.leq(w, v) for v in ap))
            assert S.apery_maxima(base) == maxima, (S.gens, base)
        if not S.numerical:  # maxima w.r.t. the rays, the last base
            assert S.is_gorenstein() == \
                (S.is_cohen_macaulay() and len(maxima) == 1)


# F + b_1 = 17 + 28 passes its scan bound 7 + 17 + 4 = 28: nine elements
# of Ap(S; b_1), all factoring uniquely, lie past the scan, so the one
# plane must reach past it
_PAST_THE_SCAN = (4, 7)


def test_apery_planes_match_the_round_robin_table_and_pairwise_scans():
    past = 0
    for S in _corpus_e_ge_2(9):
        F, b1 = S.frobenius(), betti_elements(S).betti[0]
        past += F + b1 > _scan_bound(S)
        unique = _unique_test(S, F + _scan_bound(S))
        for bases in [(g,) for g in S.gens] + [(b1,), S.gens[:2]]:
            ap = S.apery(bases)
            # the round-robin table of the least base, filtered by the rest
            table = sorted(_apery_table(S.gens, min(bases)))
            assert ap == tuple(w for w in table if not any(
                S.contains(w - b) for b in bases)), (S.gens, bases)
            # the definition, element by element
            assert ap == tuple(w for w in range(F + min(bases) + 1)
                               if S.contains(w) and not any(
                                   S.contains(w - b) for b in bases))
            maxima = tuple(w for w in ap
                           if not any(v != w and S.leq(w, v) for v in ap))
            assert S.apery_maxima(bases) == maxima, (S.gens, bases)
            for w in ap:
                assert unique(w) == (len(factor.raw_fiber(S.gens, w)) == 1)
    assert past > 10
    S = make_semigroup(_PAST_THE_SCAN)
    assert S.frobenius() + betti_elements(S).betti[0] > _scan_bound(S)


def test_ap_b1_fails_when_one_uniqueness_read_is_wrong(monkeypatch):
    # a check that reads the plane must still be able to fail: flip the
    # read at any one element of Ap(S; b_1), and the harness reports it
    real = classify._unique_test
    for gens in ((4, 6, 9), _PAST_THE_SCAN):
        S = make_semigroup(gens)
        ap = S.apery(betti_elements(S).betti[0])
        assert run_theorem_harness([S], chain_witnesses=None)[
            "violations"] == []
        for w in ap:
            def flipped(T, bound, w=w):
                test = real(T, bound)
                return lambda v: test(v) != (v == w)
            monkeypatch.setattr(classify, "_unique_test", flipped)
            report = run_theorem_harness([S], chain_witnesses=None)
            assert "ap_b1" in {v["check"] for v in report["violations"]}, \
                (gens, w)
        monkeypatch.setattr(classify, "_unique_test", real)


def test_isolated_characterization_fails_without_an_ib_vector(monkeypatch):
    # the recurrence must still be able to report a mixed vector
    real = classify.isolated_profile
    for gens in ([3, 4, 5], [16, 20, 30, 45], [24, 26, 36, 39]):
        S = make_semigroup(gens)
        ib = real(S).ib
        assert _check_isolated_characterization(S, HarnessInputs(S))["ok"]
        for k in range(len(ib)):
            def dropped(T, *args, k=k):
                prof = real(T, *args)
                return IsolatedProfile(prof.ib[:k] + prof.ib[k + 1:],
                                       prof.is_, prof.exhaustive)
            monkeypatch.setattr(classify, "isolated_profile", dropped)
            assert not _check_isolated_characterization(
                S, HarnessInputs(S))["ok"], (gens, k)
        monkeypatch.setattr(classify, "isolated_profile", real)


def _walked_and_b1_smallest(S):
    inputs = HarnessInputs(S)
    return [check(S, inputs) for check in (
        _check_isolated_characterization, _check_isolated_elements,
        _check_b1_smallest)]


def test_walked_checks_fail_without_the_least_betti_element(monkeypatch):
    # both entries of the walk and b1_smallest must be able to fail when
    # the kept sweep, which the walk and the profile read, misses b_1
    real = betti._sweep
    for gens in ([4, 5, 6], [16, 20, 30, 45], [24, 26, 36, 39]):
        assert all(entry["ok"]
                   for entry in _walked_and_b1_smallest(make_semigroup(gens)))
        monkeypatch.setattr(betti, "_sweep", lambda T, n: real(T, n)[1:])
        assert not any(entry["ok"] for entry in
                       _walked_and_b1_smallest(make_semigroup(gens))), gens
        monkeypatch.setattr(betti, "_sweep", real)


class _Unlisted(tuple):
    """A tuple that lists its members but reads as empty."""

    def __bool__(self):
        return False


def test_isolated_elements_fails_without_the_ibetti_elements(monkeypatch):
    # the IBetti side keeps its own recurrence: the theorem makes it agree
    # with the Betti side, so only a wrong IBetti set can tell them apart.
    # Every isolated factorization still reaches I_b, but a Betti fiber
    # asked whether it has one answers no, so the walk (and the profile)
    # find no IBetti element.
    real = factor.Fiber.isolated
    monkeypatch.setattr(factor.Fiber, "isolated",
                        property(lambda fib: _Unlisted(real.fget(fib))))
    for gens in ([4, 5, 6], [16, 20, 30, 45], [24, 26, 36, 39]):
        S = make_semigroup(gens)
        inputs = HarnessInputs(S)
        assert _check_isolated_characterization(S, inputs)["ok"], gens
        assert not _check_isolated_elements(S, inputs)["ok"], gens


def test_characterization_fails_without_any_one_betti_element(monkeypatch):
    # the walk reads R-classes only at Betti elements and takes any other
    # fiber as one class, so a kept sweep missing one Betti element
    # misreads that element's classes as well as what it dominates: every
    # such sweep fails.  Reading every fiber's classes, the check caught 95
    # of these 213 cases.
    cases = 0
    real = betti._sweep
    for S in _corpus_e_ge_2(6):
        for b in real(S, betti._horizon(S)):
            monkeypatch.setattr(betti, "_sweep", lambda T, n, b=b: [
                a for a in real(T, n) if a != b])
            T = make_semigroup(S.gens)
            assert not _check_isolated_characterization(
                T, HarnessInputs(T))["ok"], (S.gens, b)
            cases += 1
    assert cases == 213


# SHA-256 of every harness report on the members below: the condition
# vectors, applicability and chain values, which `verify --json` hides on
# a clean corpus because it lists only violations
_HARNESS_REPORTS_SHA256 = \
    "e2e3d3cfae004f679b1fa79050d994c26e6ad8a46d49a9dd4b902861f4337d9a"


def test_harness_builds_the_scan_fibers_from_below(monkeypatch):
    # raw_fiber builds only the Betti fibers of the semigroups a gluing
    # check builds: the walk builds the scan's Betti fibers from the
    # factorizations below, and uniqueness in Ap(S; b_1) is a read of the
    # one plane.  Before that read, this pass made 42 calls, 40 of them
    # for elements of Ap(S; b_1) above the scan bound; before the scan
    # built its fibers from the fibers below, 866.
    calls = []
    real = factor.raw_fiber
    monkeypatch.setattr(factor, "raw_fiber",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    corpus = _corpus_e_ge_2(6)
    report = run_theorem_harness(corpus, chain_witnesses=None)
    assert (report["checked"], report["violations"]) == (49, [])
    assert len(calls) == 2


def test_harness_partitions_only_the_betti_fibers(monkeypatch):
    # a fiber finds its R-classes when they are first read, and the harness
    # reads them only at Betti elements.  Before, every fiber was
    # partitioned when it was built: this pass made 866 calls, one per
    # scanned fiber.
    calls = []
    real = factor.r_classes
    monkeypatch.setattr(factor, "r_classes",
                        lambda facts: calls.append(facts) or real(facts))
    corpus = _corpus_e_ge_2(6)
    report = run_theorem_harness(corpus, chain_witnesses=None)
    assert (report["checked"], report["violations"]) == (49, [])
    assert len(calls) == 213


def test_harness_builds_no_apery_table_for_c(monkeypatch):
    # numerical c_i is a read of the many plane that the Betti sweep
    # reads, so no table of <others> is built for it.  Before, c_value
    # searched a SubMonoid Apery table of the other generators for each
    # generator: this pass built 334 tables.
    builds = []
    real = semigroup.SubMonoid._table
    monkeypatch.setattr(semigroup.SubMonoid, "_table", lambda monoid: (
        monoid._apery is None and builds.append(monoid.gens)) or real(monoid))
    corpus = _corpus_e_ge_2(6)
    report = run_theorem_harness(corpus, chain_witnesses=None)
    assert (report["checked"], report["violations"]) == (49, [])
    assert len(builds) == 183


def test_harness_sweeps_the_betti_planes_once_per_member(monkeypatch):
    # the walk reads the Betti set before any fiber is built, and the
    # profile reads the same sweep, kept on the semigroup
    swept = []
    real = betti._sweep
    monkeypatch.setattr(betti, "_sweep",
                        lambda T, n: swept.append(T) or real(T, n))
    corpus = _corpus_e_ge_2(6)
    report = run_theorem_harness(corpus, chain_witnesses=None)
    assert (report["checked"], report["violations"]) == (49, [])
    assert len({id(T) for T in swept}) == len(swept)
    assert {S.gens for S in corpus} <= {T.gens for T in swept}


def test_harness_inputs_ask_for_each_alpha_once(monkeypatch):
    # _Base reads its alpha-box verdict off the alpha_i it has just asked
    # for, so the inputs ask once per (generator, base), not twice
    calls = Counter()
    real = constants.alpha

    def counted(S, idx, base_idx=None):
        calls[S.gens, idx, base_idx] += 1
        return real(S, idx, base_idx)

    monkeypatch.setattr(constants, "alpha", counted)
    expected = Counter()
    for S in _corpus_e_ge_2(8):
        HarnessInputs(S)
        e = len(S.gens)
        expected.update((S.gens, i, j)
                        for j in range(e) for i in range(e) if i != j)
    assert calls == expected


def test_harness_reports_are_pinned():
    members = _corpus_e_ge_2(9) + [
        make_semigroup(g) for g in ([(1, 0), (0, 2), (0, 3)],
                                    [(2, 0), (0, 2), (1, 3), (2, 1)])]
    reports = [[check_equivalence_theorems(S, HarnessInputs(S)),
                verify_bounds(S, HarnessInputs(S))] for S in members]
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _HARNESS_REPORTS_SHA256


# the report order, which the hash above (sort_keys) does not see but
# `verify` lists a member's violations in
_THEOREM_IDS = [
    "isolated_characterization", "isolated_elements",
    "betti_minimal_characterizations", "disjoint_betti", "ap_b1",
    "b1_smallest", "isolated_inclusions", "prop_alpha", "thm_alpha_free",
    "thm_alpha_c", "thm_ci_b1", "cor_ci_b1", "thm_betti_sorted_alpha",
    "cor_betti_sorted", "cor_betti_divisible_presen",
    "thm_betti_divisible_generators", "thm_betti_divisible_free",
    "thm_single_betti_alpha"]


def test_harness_report_order_and_applicability_are_pinned():
    S = make_semigroup([4, 6, 9])
    report = check_equivalence_theorems(S, HarnessInputs(S))
    assert list(report) == _THEOREM_IDS
    assert all(entry["applicable"] for entry in report.values())
    T = make_semigroup([(1, 0), (0, 2), (0, 3)])
    report = check_equivalence_theorems(T, HarnessInputs(T))
    assert list(report) == _THEOREM_IDS
    assert [name for name, entry in report.items()
            if not entry["applicable"]] == [
        "ap_b1", "b1_smallest", "thm_alpha_free", "cor_ci_b1",
        "thm_betti_sorted_alpha", "cor_betti_sorted",
        "cor_betti_divisible_presen", "thm_betti_divisible_generators",
        "thm_betti_divisible_free", "thm_single_betti_alpha"]


def test_per_base_fold():
    def mixed_at_first_base(S, inputs, j):
        return classify._entry([True, j not in (0, None)])

    def never(S, inputs, j):
        return None

    S = make_semigroup([3, 4, 5])
    entry = _per_base(mixed_at_first_base)(S, HarnessInputs(S))
    assert not entry["ok"] and entry["conditions"] == [False]
    T = make_semigroup([(1, 0), (0, 2), (0, 3)])
    inputs = HarnessInputs(T)
    assert _per_base(mixed_at_first_base)(T, inputs) == \
        mixed_at_first_base(T, inputs, None)
    for U in (S, T):
        assert _per_base(never)(U, HarnessInputs(U)) == classify._skip()


def test_harness_walks_once_per_report(monkeypatch):
    # the inputs walk the scan once, and the checks read its verdicts
    walks = []
    real = classify._walk
    monkeypatch.setattr(classify, "_walk",
                        lambda *a: walks.append(a[0]) or real(*a))
    for gens in ([4, 6, 9], [(1, 0), (0, 2), (0, 3)]):
        S = make_semigroup(gens)
        walks.clear()
        inputs = HarnessInputs(S)
        assert walks == [S], gens
        check_equivalence_theorems(S, inputs)
        assert walks == [S], gens


def test_harness_builds_the_planes_once_per_report(monkeypatch):
    # the inputs ask for the widest planes first, and every other range
    # question of the inputs and the checks masks them
    calls = []
    real = semigroup._count_planes
    monkeypatch.setattr(semigroup, "_count_planes",
                        lambda *a: calls.append(a[0]) or real(*a))
    for gens in ([4, 6, 9], [24, 26, 36, 39], _PAST_THE_SCAN,
                 [(1, 0), (0, 2), (0, 3)]):
        S = make_semigroup(gens)
        calls.clear()
        inputs = HarnessInputs(S)
        check_equivalence_theorems(S, inputs)
        verify_bounds(S, inputs)
        # a gluing check builds planes of its own parts, never of S;
        # affine S places its generators at box positions
        assert len(calls) == 1 if not S.numerical else \
            calls[0] == S.gens and calls.count(S.gens) == 1, gens


def test_harness_on_the_20020_member_peaks_under_100_mb():
    # the walk keeps no fiber but the Betti ones: at 230 MB it kept one
    # per scanned element (157,361 of them).  A child's ru_maxrss starts
    # from its parent's peak at the fork, so the child reads the peak of
    # its own image, VmHWM, where the platform has one.
    code = ("import resource\n"
            "from semigroups import make_semigroup\n"
            "from semigroups.explore import run_theorem_harness\n"
            "S = make_semigroup([20020, 15015, 12012, 8580, 5460, 4620])\n"
            "rep = run_theorem_harness([S], chain_witnesses=None)\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    with open('/proc/self/status') as fh:\n"
            "        peak = [int(line.split()[1]) for line in fh\n"
            "                if line.startswith('VmHWM:')][0]\n"
            "except OSError:\n"
            "    pass\n"
            "print(peak, rep['checked'], len(rep['violations']))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    peak_kb, checked, violations = r.stdout.split()
    assert (checked, violations) == ("1", "0")
    assert int(peak_kb) < 100 * 1024, peak_kb


# -- shared harness inputs against the pairwise scans they replace ----------

_FREE_AFFINE_PANEL = ([(1, 0), (0, 2), (0, 3)],
                      [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
                      [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (1, 2, 0)])


def _differential_members():
    members = _corpus_e_ge_2(9) + [make_semigroup(g)
                                   for g in _FREE_AFFINE_PANEL]
    assert all(S.numerical or free_arrangement(S) for S in members)
    return members


def _pairwise_disjoint_betti(S, profile):
    """The scan the support masks replace: every pair of a factorization
    of b_1 and an isolated one of b_2, for every b_1 <=_S b_2."""
    for b1 in profile.betti:
        for b2 in profile.betti:
            if b1 == b2 or not S.leq(b1, b2):
                continue
            for x in profile.fibers[b1].factorizations:
                for y in profile.fibers[b2].isolated:
                    if any(xc and yc for xc, yc in zip(x, y)):
                        return False
    return True


class _AllIsolated(factor.Fiber):
    """A fiber whose every factorization is its own R-class."""

    __slots__ = ()

    @property
    def classes(self):
        return tuple((x,) for x in self.factorizations)


def _all_isolated(profile):
    """The profile with every factorization made its own R-class, so that
    the disjointness statement fails on some members."""
    fibers = {b: _AllIsolated(b, fib.factorizations)
              for b, fib in profile.fibers.items()}
    return BettiProfile(profile.betti, fibers, profile.complete)


def test_disjoint_betti_masks_match_pairwise_scan():
    verdicts = []
    for S in _differential_members():
        inputs = classify.HarnessInputs(S)
        for profile in (inputs.profile, _all_isolated(inputs.profile)):
            inputs.profile = profile
            got = classify._check_disjoint_betti(S, inputs)["ok"]
            assert got == _pairwise_disjoint_betti(S, profile), S.gens
            verdicts.append(got)
    assert verdicts.count(False) > 50 and verdicts.count(True) > 300


def _pairwise_minimal(S, elems):
    return tuple(b for b in elems
                 if not any(a != b and S.leq(a, b) for a in elems))


def test_minimal_elements_match_pairwise_leq():
    sizes = set()
    for S in _differential_members():
        profile = betti_elements(S)
        assert betti_minimals(S) == _pairwise_minimal(S, profile.betti)
        # the elements with two or more factorizations: an up-set whose
        # minimal members are the minimal multi-elements
        multi = tuple(m for m, _, below, _ in _walk(S, _scan_bound(S))
                      if len(below) >= 2)
        for elems in (profile.ibetti, multi):
            got = minimal_in_order(S, elems)
            assert got == _pairwise_minimal(S, elems), (S.gens, elems)
            sizes.add(len(elems) - len(got))
    assert max(sizes) > 10  # the order removes many members somewhere


def test_harness_checks_each_base_once_without_pairwise_order_scans(
        monkeypatch):
    # one harness call derives each base once and compares it with at most
    # two boxes (alpha and c), and no check but the two Betti-sorted
    # predicates asks <=_S pairwise
    S = make_semigroup([24, 26, 36, 39])
    bases, boxes = [], []
    real_base, real_box = classify._Base, classify._Base.box
    monkeypatch.setattr(classify._Base, "box", lambda base, T, bounds:
                        boxes.append(base) or real_box(base, T, bounds))
    monkeypatch.setattr(classify, "_Base",
                        lambda T, j: bases.append(j) or real_base(T, j))
    depth = [0]

    def counted(fn):
        def wrapped(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapped

    for name in ("is_betti_sorted", "is_betti_isolated_sorted"):
        monkeypatch.setattr(classify, name, counted(getattr(classify, name)))
    stray = []
    real_leq = Semigroup.leq

    def leq(T, a, b):
        if not depth[0]:
            stray.append((a, b))
        return real_leq(T, a, b)

    monkeypatch.setattr(Semigroup, "leq", leq)
    report = run_theorem_harness([S], chain_witnesses=None)
    assert (report["checked"], report["violations"]) == (1, [])
    assert sorted(bases) == [0, 1, 2, 3]
    assert len({id(base) for base in boxes}) == 4
    assert all(boxes.count(base) <= 2 for base in boxes)
    assert stray == []


def test_report_and_harness_derive_each_base_once(monkeypatch):
    # the rectangularity predicates, classification_report and the harness
    # inputs read one record kept per (S, base): the rays for affine S
    derived = Counter()
    real = classify._Base
    monkeypatch.setattr(classify, "_Base", lambda T, j: derived.update(
        [(T.gens, j)]) or real(T, j))
    for gens in ([24, 26, 36, 39], [4, 6, 9], [(1, 0), (0, 2), (0, 3)]):
        S = make_semigroup(gens)
        classification_report(S)
        inputs = HarnessInputs(S)
        check_equivalence_theorems(S, inputs)
        bases = range(len(S.gens)) if S.numerical else (None,)
        assert derived == Counter((S.gens, j) for j in bases), gens
        derived.clear()


def test_a_second_apery_maxima_call_reads_no_membership(monkeypatch):
    # the Apery plane is kept under its key, so apery and apery_maxima read
    # one plane and its bases are checked once
    calls = []
    real = Semigroup.contains
    monkeypatch.setattr(Semigroup, "contains",
                        lambda T, v: calls.append(v) or real(T, v))
    S = make_semigroup([24, 26, 36, 39])
    for base in (None, 26, (24, 39), 72):
        calls.clear()
        first = S.apery_maxima(base)
        assert calls, base  # the first call checks its bases
        calls.clear()
        assert S.apery_maxima(base) == first and S.apery(base)
        assert calls == [], base


def test_scan_bound_and_harness_report_do_not_depend_on_generator_order():
    # the numerical horizon F + n + max(gens) takes n the multiplicity;
    # with n the first generator, <39, 36, 26, 24> scanned to 259
    reports = []
    for gens in ([24, 26, 36, 39], [39, 36, 26, 24]):
        S = make_semigroup(gens)
        assert _scan_bound(S) == 244, gens
        inputs = HarnessInputs(S)
        reports.append([check_equivalence_theorems(S, inputs),
                        verify_bounds(S, inputs)])
    assert reports[0] == reports[1]


def test_harness_evaluates_each_betti_order_predicate_once(monkeypatch):
    # 477 members of the genus <= 10 corpus have e >= 2; each Betti-order
    # predicate runs once on each, besides the parts of the gluing check.
    # The pass reads membership at most 4,200 times: 6,588 when
    # apery_maxima rebuilt its plane, and checked its bases, on each call
    calls = Counter()
    members = [0]
    real_contains = Semigroup.contains

    def contains(T, v):
        members[0] += 1
        return real_contains(T, v)

    monkeypatch.setattr(Semigroup, "contains", contains)
    gluing = [0]
    real_gluing = classify.is_gluing_partition

    def in_gluing(*args, **kwargs):
        gluing[0] += 1
        try:
            return real_gluing(*args, **kwargs)
        finally:
            gluing[0] -= 1

    def counted(name, fn):
        def wrapped(S):
            if not gluing[0]:
                calls[name] += 1
            return fn(S)
        return wrapped

    monkeypatch.setattr(classify, "is_gluing_partition", in_gluing)
    names = ("is_betti_sorted", "is_betti_isolated_sorted",
             "is_betti_divisible")
    for name in names:
        monkeypatch.setattr(classify, name,
                            counted(name, getattr(classify, name)))
    report = run_theorem_harness(enumerate_numerical_by_genus(10),
                                 chain_witnesses=None)
    assert (report["checked"], report["violations"]) == (478, [])
    assert calls == {name: 477 for name in names}
    assert members[0] <= 4200, members[0]


def test_harness_on_the_ordinary_semigroup_of_genus_25_stays_small():
    # <26, ..., 51>: every c_i exists, so the C(M) box has 3 * 2^25
    # members; the check counts them instead of building them
    code = ("import time\n"
            "from semigroups import make_semigroup\n"
            "from semigroups.explore import run_theorem_harness\n"
            "S = make_semigroup(range(26, 52))\n"
            "t = time.perf_counter()\n"
            "rep = run_theorem_harness([S], chain_witnesses=None)\n"
            "print(time.perf_counter() - t, rep['checked'],"
            " len(rep['violations']))\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=60, preexec_fn=limit)
    assert r.returncode == 0, r.stderr
    seconds, checked, violations = r.stdout.split()
    assert (checked, violations) == ("1", "0")
    assert float(seconds) <= 1.0
